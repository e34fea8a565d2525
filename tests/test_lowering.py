"""`build_binding` lowers every parameter form as `tests/reference_lowering.py`
says, and every form that builds survives its binding file and carries a
value through `call` and `skeleton`, leaving no block behind."""

from __future__ import annotations

import pytest

import reference_lowering as ref
from mlidl.binding import BindingError, build_binding, emit_binding_file, load_binding_file
from mlidl.idl import IdlError, parse_text
from mlidl.marshal import MarshalError, call, skeleton
from mlidl.wordmem import Mem


def mix(ws):
    return ws[0] * 10 + ws[1]


# a value sent in, and one sent back, per sem kind
VALUES = {
    "int32": (-7, 41),
    "string8": ("héllo", "wörld"),
    "string16": ("héllo", "wörld"),
    "record": ({"x": 2, "y": -3}, {"x": 5, "y": 6}),
    "enum": ("MODE_ON", "MODE_OFF"),
    "opaque": (0x1234, 0xBEEF),
    "callback": (mix, None),
}


def lowered(text, index=0):
    """The lowering of parameter `index` of the unit's one op, and the
    description, or the class of the error it raises."""
    try:
        desc = build_binding(parse_text(text, "form.idl"), "dynamic", "auto")
    except (IdlError, BindingError) as exc:
        return type(exc), None
    p = desc.interfaces[0].ops[0].params[index]
    return ref.Lowered(p.dir, p.sem.kind, p.byref, p.display), desc


@pytest.mark.parametrize("form", ref.FORMS, ids=lambda f: f.id)
def test_form_lowers_as_the_table_says(form):
    got, desc = lowered(ref.unit_text(form))
    want = ref.lowering(form)
    assert got == want
    if desc is None:
        return
    sig = desc.interfaces[0].ops[0]
    assert load_binding_file(emit_binding_file(desc)).interfaces[0].ops[0] == sig
    mem = Mem()
    sent, back = VALUES[want.kind]
    seen = []

    def impl(*args):
        seen.extend(a([2, 3]) if callable(a) else a for a in args)
        return back if form.dir != "in" else None

    stub = skeleton(sig, impl, mem, desc)
    args = [] if form.dir == "out" else [sent]
    before = mem.live_count
    if form.base == "IID" and want.kind == "record":    # no IID value crosses yet
        with pytest.raises(MarshalError, match="unknown record type 'IID'"):
            call(sig, stub, args, mem, desc)
    else:
        assert call(sig, stub, args, mem, desc) == ([] if form.dir == "in" else [back])
        assert seen == [23 if callable(a) else a for a in args]
    assert mem.live_count == before
    assert mem.closure_count == 0


@pytest.mark.parametrize("base,typedef", ref.SIZE_TARGETS)
def test_size_is_target_is_checked_as_the_table_says(base, typedef):
    got, desc = lowered(ref.size_target_text(base, typedef), index=1)
    want = ref.size_target(base)
    assert (got.kind if desc is not None else got) == want
    if desc is None:
        return
    sig = desc.interfaces[0].ops[0]
    mem = Mem()
    stub = skeleton(sig, lambda a, n: sum(a) * n, mem, desc)
    before = mem.live_count
    assert call(sig, stub, [[1, -2, 4], 3], mem, desc) == [9]
    assert mem.live_count == before


def test_the_table_covers_every_form():
    assert len(ref.FORMS) == len(set(ref.FORMS)) == 3 * 3 * 2 * 12 * 2 * 2
    assert len({f.id for f in ref.FORMS}) == len(ref.FORMS)
