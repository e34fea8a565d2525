"""One plan per signature: the client `call` and the server `skeleton` agree
on every parameter shape, reject the same unsupported shapes, and leave no
block behind."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from mlidl import semtypes as st
from mlidl.binding import build_binding
from mlidl.binding.model import FieldLayout, LiftedSig, ParamSig, RecordLayout, RetSig
from mlidl.idl import parse_text
from mlidl.marshal import (
    ArityMismatch,
    DecodeError,
    MarshalError,
    TypeMismatch,
    Unsupported,
    call,
    layout_of,
    marshal_value,
    plan_of,
    skeleton,
    unmarshal_value,
)
from mlidl.wordmem import Mem, NotCallable, Symbol

SHAPES_IDL = """
sml_name ("Shapes");

typedef int INT;
typedef boolean BOOL;
typedef [string] char *STRING;
typedef [string] wchar_t *WSTRING;
typedef int *CB ([in] INT a, [in] INT b);

typedef enum {
  MODE_OFF = 0,
  MODE_ON = 1,
  MODE_HIGH = 0wx80000000
} MODE;

typedef struct tagPOINT {
    INT x;
    INT y;
} POINT;

typedef struct tagLABEL {
    STRING text;
    INT    id;
    MODE   mode;
} LABEL;

[sml_source ("shapes.dll")]
interface Shapes {
  INT Scalar ([in] INT a, [in] unsigned long b);
  BOOL Flag ([in] BOOL f);
  MODE Mode ([in] MODE m);
  INT Str8 ([in] STRING s);
  INT Str16 ([in] WSTRING s);
  INT Callback ([in] CB cb, [in] INT k);
  INT CallbackRef ([in] CB *cb, [in] INT k);
  INT ByValue ([in] POINT p, [in] INT k);
  INT ByRef ([in,ref] LABEL *l);
  void OutScalar ([out] INT *n);
  INT OutRecord ([in] INT k, [out] LABEL *l);
  void InoutScalar ([in,out] INT *n);
  void InoutRecord ([in,out] LABEL *l);
  INT IntArray ([in,size_is (n)] INT *a, [in] INT n);
  INT RecordArray ([in] INT n, [in,size_is (n)] LABEL *a);
  STRING Name ([in] INT k);
  void OutString ([in] INT k, [out] STRING *s);
  STRING Echo ([in] STRING s);
}

[sml_source ("shapes.dll")]
interface Unsupported {
  void OutArray ([out,size_is (n)] INT *a, [in] INT n);
  void InoutArray ([in,out,size_is (n)] INT *a, [in] INT n);
  POINT RecordReturn ([in] INT k);
}
"""


@pytest.fixture(scope="module")
def desc():
    return build_binding(parse_text(SHAPES_IDL, "shapes.idl"), mode="dynamic",
                         level="auto")


def op(desc, name):
    return next(o for i in desc.interfaces for o in i.ops if o.name == name)


def label(text, i=1, mode="MODE_ON"):
    return {"text": text, "id": i, "mode": mode}


def mix(ws):
    return ws[0] * 10 + ws[1]


CASES = {
    "scalar": ("Scalar", [-5, 0xFFFFFFFF], lambda a, b: a + (b & 0xFF)),
    "bool": ("Flag", [True], lambda f: not f),
    "enum": ("Mode", ["MODE_HIGH"], lambda m: "MODE_OFF" if m == "MODE_HIGH" else m),
    "string8": ("Str8", ["héllo"], lambda s: len(s)),
    "string16": ("Str16", ["wörld!"], lambda s: len(s) * 2),
    "callback": ("Callback", [mix, 3], lambda cb, k: cb([k, 4])),
    "callback_ref": ("CallbackRef", [mix, 3], lambda cb, k: cb([k, 5])),
    "record_by_value": ("ByValue", [{"x": 2, "y": -3}, 7],
                        lambda p, k: p["x"] * p["y"] + k),
    "record_ref": ("ByRef", [label("hi", 9)], lambda lb: len(lb["text"]) + lb["id"]),
    "out_scalar": ("OutScalar", [], lambda: 42),
    "out_record": ("OutRecord", [6], lambda k: (label("out" * k, k, "MODE_HIGH"), -k)),
    "inout_scalar": ("InoutScalar", [41], lambda n: n + 1),
    "inout_record": ("InoutRecord", [label("in", 2)],
                     lambda lb: label(lb["text"] + "-out", lb["id"] + 1, "MODE_OFF")),
    "int_array": ("IntArray", [[1, -2, 3], 3], lambda a, n: sum(a) * n),
    "record_array": ("RecordArray", [2, [label("a", 1), label("bc", 2)]],
                     lambda n, a: sum(len(x["text"]) * x["id"] for x in a) + n),
    "empty_array": ("IntArray", [[], 0], lambda a, n: len(a) + n + 1),
    "string_return": ("Name", [3], lambda k: "n" * k),
    "out_string": ("OutString", [2], lambda k: "s" * k),
}


def as_results(value):
    if value is None:
        return []
    return list(value) if isinstance(value, tuple) else [value]


@pytest.mark.parametrize("case", sorted(CASES))
def test_client_and_server_agree(desc, case):
    name, args, impl = CASES[case]
    sig = op(desc, name)
    mem = Mem()
    stub = skeleton(sig, impl, mem, desc)
    before = mem.live_count
    assert call(sig, stub, args, mem, desc) == as_results(impl(*args))
    assert mem.live_count == before


def test_byref_callback_travels_in_a_block(desc):
    sig = op(desc, "CallbackRef")
    mem = Mem()
    seen = []

    def spy(words):
        seen.append(mem.read(words[0], 1)[0])
        return 0

    call(sig, spy, [mix, 1], mem, desc)
    assert mem.addr_to_fun(seen[0]) is mix


@pytest.mark.parametrize("name, where", [
    ("OutArray", "OutArray.a"),
    ("InoutArray", "InoutArray.a"),
    ("RecordReturn", "RecordReturn.return"),
])
def test_unsupported_shapes_rejected_on_both_sides(desc, name, where):
    sig = op(desc, name)
    mem = Mem()
    with pytest.raises(Unsupported, match=rf"^{where}: "):
        skeleton(sig, lambda *args: None, mem, desc)
    hits = []
    with pytest.raises(Unsupported, match=rf"^{where}: "):
        call(sig, lambda ws: hits.append(ws) or 0, [], mem, desc)
    assert hits == []
    assert mem.live_count == 0


def test_size_is_must_name_an_in_integer(desc):
    sig = op(desc, "IntArray")
    bad = LiftedSig(sig.name, (sig.params[0],), sig.ret)   # no n
    with pytest.raises(Unsupported, match=r"^IntArray\.a: size_is\(n\)"):
        plan_of(bad, desc)


@pytest.mark.parametrize("name, args, impl", [
    ("Name", [4], lambda k: "x" * k),
    ("OutString", [4], lambda k: "y" * k),
    ("OutRecord", [4], lambda k: (label("z" * k, k), k)),
])
def test_callee_allocated_strings_are_freed_by_the_caller(desc, name, args, impl):
    sig = op(desc, name)
    mem = Mem()
    stub = skeleton(sig, impl, mem, desc)
    before = mem.live_count
    for _ in range(1000):
        call(sig, stub, args, mem, desc)
    assert mem.live_count == before


def test_string_handed_back_unchanged_is_freed_once(desc):
    # a raw callee may return the caller's own string; it is freed once
    mem = Mem()
    assert call(op(desc, "Echo"), lambda ws: ws[0], ["same"], mem, desc) == ["same"]
    assert mem.live_count == 0


def test_record_nested_in_itself_is_a_marshal_error(desc):
    loop = RecordLayout("LOOP", (FieldLayout("self", "LOOP", st.record_t("LOOP"), 0),), 1)
    bad = replace(desc, records=desc.records + (loop,))
    with pytest.raises(MarshalError, match="LOOP"):
        layout_of(st.record_t("LOOP"), bad)


def test_record_codec_reads_each_field_where_it_packed_it(desc):
    # the codec lays a record out by its fields' codecs and never reads the
    # layout's offsets or size, so wrong ones built in code change nothing
    good = desc.record("LABEL")
    wrong = replace(good, fields=tuple(replace(f, offset=0) for f in good.fields), size=1)
    bad = replace(desc, records=tuple(wrong if r is good else r for r in desc.records))
    value = label("t", 7, "MODE_HIGH")
    mem = Mem()
    words = marshal_value(value, st.record_t("LABEL"), mem, bad)
    assert len(words) == layout_of(st.record_t("LABEL"), bad) == 3
    assert unmarshal_value(words, st.record_t("LABEL"), mem, bad) == value
    sig = op(bad, "OutRecord")
    stub = skeleton(sig, lambda k: (value, k), mem, bad)
    assert call(sig, stub, [5], mem, bad) == [value, 5]


def test_plans_are_shared_through_the_description(monkeypatch):
    from mlidl import marshal

    built = []
    build = marshal._build_plan
    monkeypatch.setattr(marshal, "_build_plan",
                        lambda sig, d: built.append(sig.name) or build(sig, d))
    fresh = build_binding(parse_text(SHAPES_IDL, "shapes.idl"), "dynamic", "auto")
    sig = op(fresh, "ByRef")
    mem = Mem()
    stubs = [skeleton(sig, lambda lb, k=k: k, mem, fresh) for k in range(3)]
    assert [call(sig, s, [label("t")], mem, fresh) for s in stubs] == [[0], [1], [2]]
    assert built == ["ByRef"]


# -- one-word signatures ----------------------------------------------------------

CLIENT_ERRORS = [
    ("Scalar", ["x", 1], TypeMismatch, "expected an integer for int32, got 'x'"),
    ("Scalar", [True, 1], TypeMismatch, "expected an integer for int32, got True"),
    ("Scalar", [1, 2.0], TypeMismatch, "expected an integer for word32, got 2.0"),
    ("Scalar", [-2**31 - 1, 1], TypeMismatch,
     "integer -2147483649 does not fit in 32 bits"),
    ("Scalar", [1, 2**32], TypeMismatch, "integer 4294967296 does not fit in 32 bits"),
    ("Flag", [1], TypeMismatch, "expected a bool, got 1"),
    ("Mode", ["MODE_MAX"], TypeMismatch, "\"MODE has no variant 'MODE_MAX'\""),
    ("Mode", [1], TypeMismatch, "expected a MODE variant name, got 1"),
    ("Scalar", [1], ArityMismatch, "Scalar takes 2 in-arguments, got 1"),
    ("Flag", [], ArityMismatch, "Flag takes 1 in-arguments, got 0"),
]


@pytest.mark.parametrize("name, args, exc, message", CLIENT_ERRORS)
def test_flat_client_errors(desc, name, args, exc, message):
    mem = Mem()
    hits = []
    with pytest.raises(exc) as info:
        call(op(desc, name), lambda ws: hits.append(ws) or 0, args, mem, desc)
    assert str(info.value) == message
    assert hits == [] and mem.live_count == 0


def test_flat_client_decodes_the_returned_word(desc):
    mem = Mem()
    with pytest.raises(DecodeError) as info:
        call(op(desc, "Mode"), lambda ws: 7, ["MODE_ON"], mem, desc)
    assert str(info.value) == "MODE has no variant with value 0x7"
    assert call(op(desc, "Scalar"), lambda ws: -1, [0, 0], mem, desc) == [-1]
    assert call(op(desc, "Flag"), lambda ws: 2, [False], mem, desc) == [True]


def test_flat_client_checks_the_target_before_any_value(desc):
    sig = op(desc, "Scalar")
    mem = Mem()
    sym = mem.register_function(mem.register_library("shapes.dll"), "Scalar",
                                lambda ws: 0, arity=3)
    with pytest.raises(ArityMismatch) as info:
        call(sig, sym, ["x", 1], mem, desc)
    assert str(info.value) == \
        "Scalar: symbol expects 3 argument words (pascal convention), got 2"
    stale = sym.addr + 4
    for target in (stale, Symbol("Scalar", stale, "pascal", 2)):
        with pytest.raises(NotCallable):
            call(sig, target, ["x", 1], mem, desc)
    assert mem.live_count == 0


SERVER_ERRORS = [
    ("Scalar", [1], lambda a, b: 0, ArityMismatch,
     "Scalar: expected 2 argument words, got 1"),
    ("Mode", [7], lambda m: m, DecodeError, "MODE has no variant with value 0x7"),
    ("Scalar", [1, 2], lambda a, b: "x", TypeMismatch,
     "expected an integer for int32, got 'x'"),
    ("Scalar", [1, 2], lambda a, b: False, TypeMismatch,
     "expected an integer for int32, got False"),
    ("Scalar", [1, 2], lambda a, b: -2**31 - 1, TypeMismatch,
     "integer -2147483649 does not fit in 32 bits"),
    ("Scalar", [1, 2], lambda a, b: 2**32, TypeMismatch,
     "integer 4294967296 does not fit in 32 bits"),
    ("Flag", [1], lambda f: 0, TypeMismatch, "expected a bool, got 0"),
    ("Mode", [1], lambda m: "MODE_MAX", TypeMismatch,
     "\"MODE has no variant 'MODE_MAX'\""),
    ("Scalar", [1, 2], lambda a, b: (a, b), ArityMismatch,
     "Scalar: implementation returned 2 values, signature has 1 results"),
    ("Flag", [1], lambda f: None, ArityMismatch,
     "Flag: implementation returned 0 values, signature has 1 results"),
]


@pytest.mark.parametrize("name, words, impl, exc, message", SERVER_ERRORS)
def test_flat_server_errors(desc, name, words, impl, exc, message):
    mem = Mem()
    stub = skeleton(op(desc, name), impl, mem, desc)
    with pytest.raises(exc) as info:
        stub(words)
    assert str(info.value) == message
    assert mem.live_count == 0


def test_only_one_word_signatures_are_flat(desc):
    flat = {o.name for i in desc.interfaces[:1] for o in i.ops
            if plan_of(o, desc).to_words is not None}
    assert flat == {"Scalar", "Flag", "Mode"}


def _boundary_ints(lo, hi):
    return hs.sampled_from([lo, lo + 1, -1, 0, 1, hi - 1, hi]).filter(
        lambda v: lo <= v <= hi) | hs.integers(lo, hi)


FLAT_KINDS = {
    "int32": (st.INT32, _boundary_ints(-2**31, 2**31 - 1)),
    "word32": (st.WORD32, _boundary_ints(0, 2**32 - 1)),
    "handle": (st.HANDLE, _boundary_ints(0, 2**32 - 1)),
    "opaque": (st.OPAQUE, _boundary_ints(0, 2**32 - 1)),
    "bool": (st.BOOL, hs.booleans()),
    "enum": (st.enum_t("MODE"), hs.sampled_from(["MODE_OFF", "MODE_ON", "MODE_HIGH"])),
}


@settings(max_examples=150, deadline=None)
@given(data=hs.data())
def test_flat_round_trip_through_symbol_and_callable(desc, data):
    kinds = data.draw(hs.lists(hs.sampled_from(sorted(FLAT_KINDS)), max_size=9))
    ret = data.draw(hs.sampled_from([None, *sorted(FLAT_KINDS)]))
    sig = LiftedSig("Flat", tuple(ParamSig(f"p{i}", k, FLAT_KINDS[k][0])
                                  for i, k in enumerate(kinds)),
                    None if ret is None else RetSig(ret, FLAT_KINDS[ret][0]))
    args = [data.draw(FLAT_KINDS[k][1]) for k in kinds]
    result = None if ret is None else data.draw(FLAT_KINDS[ret][1])
    seen = []

    def impl(*values):
        seen.append(list(values))
        return result

    mem = Mem()
    stub = skeleton(sig, impl, mem, desc)
    sym = mem.register_function(mem.register_library("flat.dll"), "Flat", stub,
                                arity=len(kinds))
    before = mem.live_count
    expected = as_results(impl(*args))
    for target in (sym, stub):
        assert call(sig, target, args, mem, desc) == expected
    assert seen == [args] * 3
    assert mem.live_count == before


# -- what a plan must preserve ------------------------------------------------------

TRACES = Path(__file__).resolve().parent / "plan_traces.txt"
TRACE_CASES = {**CASES, "echo": ("Echo", ["ab"], lambda s: s + "!")}


def _pinned_traces():
    traces: dict[str, list[str]] = {}
    for line in TRACES.read_text(encoding="utf-8").splitlines():
        if line.startswith("    "):
            traces[case].append(line[4:])
        elif not line.startswith("#"):
            case = line
            traces[case] = []
    return traces


def test_every_trace_case_is_pinned():
    assert sorted(_pinned_traces()) == sorted(TRACE_CASES)


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_mem_trace_of_a_call_and_its_stub_is_pinned(desc, case):
    name, args, impl = TRACE_CASES[case]
    sig = op(desc, name)
    lines: list[str] = []
    mem = Mem(trace=lines.append)
    stub = skeleton(sig, impl, mem, desc)
    sym = mem.register_function(mem.register_library("shapes.dll"), name, stub)
    call(sig, sym, args, mem, desc)
    assert lines == _pinned_traces()[case]


def test_stub_rejects_a_negative_element_count(desc):
    mem = Mem()
    seen = []
    stub = skeleton(op(desc, "IntArray"), lambda a, n: seen.append(a) or 0, mem, desc)
    with pytest.raises(TypeMismatch) as info:
        stub([0x1000, 0xFFFFFFFF])
    assert str(info.value) == "IntArray.a: bad element count -1"
    assert seen == [] and mem.live_count == 0


def test_an_array_value_alone_cannot_be_decoded():
    mem = Mem()
    with pytest.raises(MarshalError) as info:
        unmarshal_value(0x1000, st.array_t(st.INT32, "n"), mem)
    assert str(info.value) == "an array needs its element count"


def test_each_step_has_a_wire_codec_of_the_plan_width(desc, win32_desc, time_desc,
                                                       bar_desc):
    from mlidl.winsim.api import sim_binding

    seen = 0
    for d in (desc, win32_desc, time_desc, bar_desc, sim_binding()):
        for sig in (o for i in d.interfaces for o in i.ops):
            try:
                plan = plan_of(sig, d)
            except Unsupported:
                continue
            assert sum(s.wire.width for s in plan.steps) == plan.arity
            for s, p in zip(plan.steps, sig.params):
                inline = p.dir == "in" and not p.byref and p.sem.kind != "array"
                assert (s.wire is s.codec) == inline, f"{sig.name}.{p.name}"
            seen += 1
    assert seen >= 50
