"""Fuzz gates on the compiler's input boundaries: a mutated manifest and a
one-character edit of a shipped IDL file fail only with the compiler's own
error classes."""

from __future__ import annotations

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hs

from conftest import IDL_DIR, REPO
from mlidl.binding import (
    BindingError,
    SchemaViolation,
    build_binding,
    emit_binding_file,
    emit_sig_text,
    load_binding_file,
)
from mlidl.idl import IdlError, parse_text

_GUID = "{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D00FF}"

# Replacement and added values: every JSON kind, text that is not a GUID,
# and GUID text.
_VALUES = [None, 0, -1, 1 << 40, 1.5, True, False, [], [1], [_GUID], {}, {"IX": _GUID},
           {"IX": 5}, "", "nope", "IX", _GUID, _GUID.lower(), _GUID.strip("{}")]
_KEYS = ["iids", "clsids", "IX", "IY", "IZ", "Bar", "x", ""]


def _node_paths(x, path=()):
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _node_paths(v, path + (k,))


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_mutated_manifest_raises_only_binding_error(bar_unit, bar_manifest, data):
    m = copy.deepcopy(bar_manifest)
    op = data.draw(hs.sampled_from(["replace", "delete", "add"]))
    if op == "replace":
        path = data.draw(hs.sampled_from([()] + list(_node_paths(m))))
        value = data.draw(hs.sampled_from(_VALUES))
        if path:
            _owner(m, path)[path[-1]] = value
        else:
            m = value
    elif op == "delete":
        path = data.draw(hs.sampled_from(list(_node_paths(m))))
        del _owner(m, path)[path[-1]]
    else:
        dicts = [()] + [p for p in _node_paths(m) if isinstance(_owner(m, p)[p[-1]], dict)]
        where = data.draw(hs.sampled_from(dicts))
        target = _owner(m, where)[where[-1]] if where else m
        target[data.draw(hs.sampled_from(_KEYS))] = data.draw(hs.sampled_from(_VALUES))
    try:
        desc = build_binding(bar_unit, "com", manifest=m)
    except BindingError:
        return
    assert load_binding_file(emit_binding_file(desc)) == desc


def _owner(doc, path):
    for k in path[:-1]:
        doc = doc[k]
    return doc


# -- one-character edits of the shipped IDL, through the whole pipeline -------

_SHIPPED = [
    (IDL_DIR / "win32.idl", "dynamic"),
    (IDL_DIR / "time.idl", "static"),
    (IDL_DIR / "bar.idl", "com"),
    (REPO / "src" / "mlidl" / "winsim" / "data" / "win32sim.idl", "dynamic"),
]
_TEXTS = {path.name: path.read_text(encoding="utf-8") for path, _ in _SHIPPED}
_MODES = {path.name: mode for path, mode in _SHIPPED}

# Characters that open, close or continue a lexeme or a declaration, some
# that no rule takes, and digits that `str.isdigit` accepts but `int` does
# not ("²", "①"), beside one it does ("٣").
_WIDE_CHARS = "azAZ_09wx/*\"'\\\n\t {}[]();,=&:<>-+.#$@é€²³¹①٣\x00\ud800"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=hs.sampled_from(sorted(_TEXTS)), at=hs.integers(0, 1 << 20),
       op=hs.sampled_from(["insert", "delete", "replace"]),
       ch=hs.sampled_from(_WIDE_CHARS))
def test_one_character_edit_of_shipped_idl_raises_only_compiler_errors(
        bar_manifest, name, at, op, ch):
    text = _TEXTS[name]
    i = at % len(text)
    text = text[:i] + ("" if op == "delete" else ch) + text[i + (op != "insert"):]
    mode = _MODES[name]
    try:
        desc = build_binding(parse_text(text, name), mode=mode,
                             manifest=bar_manifest if mode == "com" else None)
        emit_sig_text(desc)
        bfile = emit_binding_file(desc)
        assert bfile == json.dumps(json.loads(bfile), indent=2) + "\n"
        loaded = load_binding_file(bfile)
    except (IdlError, BindingError, SchemaViolation):
        return
    assert loaded == desc and emit_binding_file(loaded) == bfile

