"""One plan per signature: the client `call` and the server `skeleton` agree
on every parameter shape, reject the same unsupported shapes, and leave no
block behind."""

from __future__ import annotations

import itertools
from dataclasses import replace
from enum import IntEnum
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import reference_marshal
from conftest import SHIPPED_IDL, count_mlidl_calls
from test_bindfile import _manifest_for
from mlidl import marshal
from mlidl import semtypes as st
from mlidl.binding import build_binding
from mlidl.binding.model import (BindingDesc, FieldLayout, InterfaceDesc, LiftedSig,
                                 ParamSig, RecordLayout, RetSig)
from mlidl.idl import parse_text
from mlidl.marshal import (
    ArityMismatch,
    DecodeError,
    MarshalError,
    TypeMismatch,
    Unsupported,
    call,
    codec_of,
    plan_of,
    skeleton,
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


# Python calls into mlidl of one warm call per shape, stub passed as a host
# callable (`sys.setprofile`, CPython 3.11).  A change that must raise a cap
# says so in CHANGES.md.  Before every plan was compiled and `Mem.read_rest`
# resolved its address inline, the caps were: string8 and string16 13,
# callback_ref 26, record_by_value 24, record_ref 38, out_scalar 14,
# out_record 40, inout_scalar 22, inout_record 58, int_array 35,
# record_array 67, empty_array 23, string_return 19, out_string 23.  Before
# one-word plans and the inline `Mem.read` and `Mem.store`, they were: bool
# 7, enum 13, string8 and string16 22, callback 20, callback_ref 29,
# record_ref 44, out_scalar 17, out_record 46, inout_scalar 28, inout_record
# 70, int_array 38, record_array 76, string_return 22, out_string 29.
PYTHON_CALL_CAPS = {
    "scalar": 3, "bool": 5, "enum": 11, "string8": 12, "string16": 12,
    "callback": 8, "callback_ref": 18, "record_by_value": 16, "record_ref": 31,
    "out_scalar": 13, "out_record": 34, "inout_scalar": 21, "inout_record": 55,
    "int_array": 27, "record_array": 57, "empty_array": 15, "string_return": 15,
    "out_string": 19,
}


def test_every_shape_has_a_python_call_cap():
    assert sorted(PYTHON_CALL_CAPS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_python_calls_of_a_shape_are_capped(desc, case):
    name, args, impl = CASES[case]
    sig = op(desc, name)
    mem = Mem()
    stub = skeleton(sig, impl, mem, desc)
    call(sig, stub, args, mem, desc)
    results, calls = count_mlidl_calls(call, sig, stub, args, mem, desc)
    assert results == as_results(impl(*args))
    assert calls <= PYTHON_CALL_CAPS[case]


def test_byref_callback_travels_in_a_block(desc):
    sig = op(desc, "CallbackRef")
    mem = Mem()
    seen = []

    def spy(words):
        seen.append(mem.addr_to_fun(mem.read(words[0], 1)[0]))
        return 0

    call(sig, spy, [mix, 1], mem, desc)
    assert seen == [mix]
    assert mem.closure_count == 0       # the caller's registration ends with the call


# -- who releases a callback's registration ---------------------------------------

HOOKS_IDL = """
sml_name ("Hooks");

typedef int INT;
typedef int *CB ([in] INT a, [in] INT b);

typedef struct tagHOOK {
    CB  cb;
    INT k;
} HOOK;

[sml_source ("hooks.dll")]
interface Hooks {
  INT Call ([in] CB cb, [in] INT k);
  INT ByValue ([in] HOOK h);
  INT ByRef ([in,ref] HOOK *h);
  INT Twice ([in] CB a, [in] CB b, [in] INT k);
}
"""

HOOK_CALLS = {
    "Call": (lambda cb: [cb, 3], lambda cb, k: cb([k, 4])),
    "ByValue": (lambda cb: [{"cb": cb, "k": 3}], lambda h: h["cb"]([h["k"], 4])),
    "ByRef": (lambda cb: [{"cb": cb, "k": 3}], lambda h: h["cb"]([h["k"], 4])),
    "Twice": (lambda cb: [cb, cb, 3], lambda a, b, k: a([k, 4]) + b([k, 4])),
}


@pytest.fixture(scope="module")
def hooks():
    return build_binding(parse_text(HOOKS_IDL, "hooks.idl"), mode="dynamic", level="auto")


@pytest.mark.parametrize("name", sorted(HOOK_CALLS))
def test_a_call_releases_the_callbacks_it_registered(hooks, name):
    args_of, impl = HOOK_CALLS[name]
    sig = op(hooks, name)
    mem = Mem()
    sym = mem.register_function(mem.register_library("hooks.dll"), name,
                                skeleton(sig, impl, mem, hooks))
    closures = mem.closure_count
    for i in range(1000):
        assert call(sig, sym, args_of(lambda ws, i=i: ws[0] * ws[1] + i), mem, hooks) \
            == [(12 + i) * (2 if name == "Twice" else 1)]
    assert mem.closure_count == closures
    assert mem.live_count == 0


def test_a_callback_registered_before_the_call_stays_registered(hooks):
    sig = op(hooks, "Twice")
    mem = Mem()
    addr = mem.fun_to_addr(mix)
    assert call(sig, skeleton(sig, HOOK_CALLS["Twice"][1], mem, hooks), [mix, mix, 1],
                mem, hooks) == [28]
    assert mem.addr_to_fun(addr) is mix
    mem.release_closure(addr)
    assert mem.closure_count == 0


def test_a_callee_that_keeps_a_callback_registers_it_itself(hooks):
    sig = op(hooks, "Call")
    mem = Mem()
    kept = []

    def keep(cb, k):
        kept.append(mem.fun_to_addr(cb))
        return k

    stub = skeleton(sig, keep, mem, hooks)
    assert call(sig, stub, [mix, 5], mem, hooks) == [5]
    assert mem.call(kept[0], [2, 3]) == 23
    assert mem.closure_count == 1


def test_a_failed_call_releases_the_callbacks_it_registered(hooks):
    sig = op(hooks, "Twice")
    mem = Mem()
    hits = []
    with pytest.raises(TypeMismatch):
        call(sig, lambda ws: hits.append(ws) or 0, [mix, mix, "x"], mem, hooks)
    with pytest.raises(TypeMismatch):
        call(op(hooks, "ByRef"), lambda ws: hits.append(ws) or 0,
             [{"cb": mix, "k": None}], mem, hooks)
    assert hits == [] and mem.closure_count == 0 and mem.live_count == 0


# -- what comes back in results ----------------------------------------------------

RESULTS_IDL = """
typedef int INT;
typedef [string] char *STRING;
typedef int *CB ([in] INT a, [in] INT b);

typedef struct tagEMPTY { } EMPTY;

typedef struct tagNAMED {
    STRING name;
    INT    id;
} NAMED;

typedef struct tagHOOKED {
    CB  cb;
    INT k;
} HOOKED;

interface Results {
  void GetEmpty ([out] EMPTY *e);
  void BumpEmpty ([in,out] EMPTY *e);
  void Two ([out] STRING *a, [out] INT *b);
  INT Named ([out] NAMED *r);
  INT Hooked ([out] HOOKED *r);
  void GetHook ([out] HOOKED *r);
  void Rehook ([in,out] HOOKED *r);
  CB Hook ([in] INT k);
}
"""


@pytest.fixture(scope="module")
def results_desc():
    return build_binding(parse_text(RESULTS_IDL, "results.idl"), mode="dynamic",
                         level="auto")


def test_an_empty_record_comes_back_from_an_out_parameter(results_desc):
    mem = Mem()
    for name, args in (("GetEmpty", []), ("BumpEmpty", [{}])):
        sig = op(results_desc, name)
        assert call(sig, skeleton(sig, lambda *a: {}, mem, results_desc), args, mem,
                    results_desc) == [{}]
    assert mem.live_count == 0


@pytest.mark.parametrize("name, back", [
    ("Two", ("x", "notint")),
    ("Named", ({"name": "n", "id": 1}, "notint")),
    ("Hooked", ({"cb": mix, "k": 1}, "notint")),
])
def test_a_stub_gives_back_what_it_packed_when_a_later_result_is_bad(results_desc, name,
                                                                     back):
    sig = op(results_desc, name)
    mem = Mem()
    stub = skeleton(sig, lambda: back, mem, results_desc)
    with pytest.raises(TypeMismatch, match="expected an integer for int32, got 'notint'"):
        call(sig, stub, [], mem, results_desc)
    assert mem.live_count == 0
    assert mem.closure_count == 0


def fresh_hook(i):
    return lambda ws: ws[0] * ws[1] + i


@pytest.mark.parametrize("name, args, impl, want", [
    ("GetHook", [], lambda i: {"cb": fresh_hook(i), "k": i}, lambda i: 6 + i),
    ("Rehook", [{"cb": mix, "k": 0}], lambda i, h: {"cb": fresh_hook(i), "k": i},
     lambda i: 6 + i),
    ("Rehook", [{"cb": mix, "k": 0}], lambda i, h: dict(h, k=i), lambda i: 23),
    ("Hook", [0], lambda i, k: fresh_hook(i), lambda i: 6 + i),
], ids=["out_field", "inout_field", "inout_field_unchanged", "return"])
def test_a_caller_releases_each_callback_that_comes_back(results_desc, name, args, impl,
                                                         want):
    sig = op(results_desc, name)
    mem = Mem()
    for i in range(100):
        stub = skeleton(sig, lambda *a, i=i: impl(i, *a), mem, results_desc)
        [back] = call(sig, stub, args, mem, results_desc)
        assert (back if name == "Hook" else back["cb"])([2, 3]) == want(i)
        assert mem.closure_count == 0
    assert mem.live_count == 0


def test_a_raw_callee_hands_back_a_callback_with_a_registration_of_its_own(results_desc):
    mem = Mem()
    kept = mem.fun_to_addr(mix)
    assert call(op(results_desc, "Hook"), lambda ws: mem.fun_to_addr(mix), [0], mem,
                results_desc) == [mix]
    assert mem.addr_to_fun(kept) is mix     # the callee's own registration stays
    mem.release_closure(kept)
    assert mem.closure_count == 0


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


# -- `[string]` on a parameter means what it means on a typedef --------------------

STRING_PARAMS_IDL = """
typedef int INT;
typedef [string] char *STRING;
typedef [string] wchar_t *WSTRING;

[sml_source ("strings.dll")]
interface Direct {
  INT In8 ([in,string] char *s);
  INT In16 ([in,string] wchar_t *s);
  void Out8 ([in] INT k, [out,string] char **s);
  void Out16 ([in] INT k, [out,string] wchar_t **s);
  void Inout8 ([in,out,string] char **s);
}

[sml_source ("strings.dll")]
interface Typedef {
  INT In8 ([in] STRING s);
  INT In16 ([in] WSTRING s);
  void Out8 ([in] INT k, [out] STRING *s);
  void Out16 ([in] INT k, [out] WSTRING *s);
  void Inout8 ([in,out] STRING *s);
}
"""

STRING_CALLS = {
    "In8": (["héllo"], len, [5]),
    "In16": (["wörld!"], len, [6]),
    "Out8": ([3], lambda k: "x" * k, ["xxx"]),
    "Out16": ([2], lambda k: "ü" * k, ["üü"]),
    "Inout8": (["ab"], lambda s: s + "!", ["ab!"]),
}


@pytest.mark.parametrize("name", sorted(STRING_CALLS))
def test_a_string_parameter_lowers_as_its_typedef_form(name):
    strings = build_binding(parse_text(STRING_PARAMS_IDL, "strings.idl"))
    direct, typed = (next(o for o in strings.interface(i).ops if o.name == name)
                     for i in ("Direct", "Typedef"))
    assert [(p.sem, p.dir, p.byref) for p in direct.params] == \
        [(p.sem, p.dir, p.byref) for p in typed.params]
    args, impl, results = STRING_CALLS[name]
    traces = []
    for sig in (direct, typed):
        trace = []
        mem = Mem(trace=trace.append)
        assert call(sig, skeleton(sig, impl, mem, strings), args, mem, strings) == results
        assert mem.live_count == 0
        traces.append(trace)
    assert traces[0] == traces[1]


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
    t = st.SemType("record", name="LOOP")
    loop = RecordLayout("LOOP", (FieldLayout("self", "LOOP", t, 0),), 1)
    bad = replace(desc, records=desc.records + (loop,))
    with pytest.raises(MarshalError, match="LOOP"):
        codec_of(t, bad)


def test_record_codec_reads_each_field_where_it_packed_it(desc):
    # the codec lays a record out by its fields' codecs and never reads the
    # layout's offsets or size, so wrong ones built in code change nothing
    good = desc.record("LABEL")
    wrong = replace(good, fields=tuple(replace(f, offset=0) for f in good.fields), size=1)
    bad = replace(desc, records=tuple(wrong if r is good else r for r in desc.records))
    value = label("t", 7, "MODE_HIGH")
    mem = Mem()
    codec = codec_of(st.SemType("record", name="LABEL"), bad)
    words: list[int] = []
    codec.pack(mem, value, words, [])
    assert len(words) == codec.width == 3
    assert codec.unpack(mem, words, 0, None) == value
    sig = op(bad, "OutRecord")
    stub = skeleton(sig, lambda k: (value, k), mem, bad)
    assert call(sig, stub, [5], mem, bad) == [value, 5]


def test_plans_are_shared_through_the_description(monkeypatch):
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


def test_record_and_enum_codecs_are_built_once_per_description(monkeypatch):
    built = []
    for maker in ("_record_codec", "_enum_codec"):
        monkeypatch.setattr(marshal, maker, lambda t, *d, make=getattr(marshal, maker):
                            built.append(t.name) or make(t, *d))
    fresh = build_binding(parse_text(SHAPES_IDL, "shapes.idl"), "dynamic", "auto")
    for sig in fresh.interfaces[0].ops:
        plan_of(sig, fresh)
    assert sorted(built) == ["LABEL", "MODE", "POINT"]
    label_t = op(fresh, "ByRef").params[0].sem
    assert codec_of(label_t, fresh) is codec_of(label_t, fresh)
    assert sorted(built) == ["LABEL", "MODE", "POINT"]


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
    with pytest.raises(TypeMismatch) as info:
        call(sig, 3.5, ["x", 1], mem, desc)
    assert str(info.value) == "not callable: 3.5"
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


@pytest.mark.parametrize("path", SHIPPED_IDL, ids=lambda p: p.name)
@pytest.mark.parametrize("mode", ["static", "dynamic", "com"])
@pytest.mark.parametrize("level", ["auto", "abstract"])
def test_every_plan_has_a_client_and_a_stub(path, mode, level):
    unit = parse_text(path.read_text(encoding="utf-8"), path.name)
    d = build_binding(unit, mode=mode, level=level,
                      manifest=_manifest_for(unit) if mode == "com" else None)
    mem = Mem()
    for sig in (o for i in d.interfaces for o in i.ops):
        plan = plan_of(sig, d)
        assert callable(plan.client), sig.name
        assert callable(plan.stub(lambda *args: None, mem)), sig.name


def _boundary_ints(lo, hi):
    return hs.sampled_from([lo, lo + 1, -1, 0, 1, hi - 1, hi]).filter(
        lambda v: lo <= v <= hi) | hs.integers(lo, hi)


FLAT_KINDS = {
    "int32": (st.INT32, _boundary_ints(-2**31, 2**31 - 1)),
    "word32": (st.WORD32, _boundary_ints(0, 2**32 - 1)),
    "handle": (st.HANDLE, _boundary_ints(0, 2**32 - 1)),
    "opaque": (st.OPAQUE, _boundary_ints(0, 2**32 - 1)),
    "bool": (st.BOOL, hs.booleans()),
    "enum": (st.SemType("enum", name="MODE"),
             hs.sampled_from(["MODE_OFF", "MODE_ON", "MODE_HIGH"])),
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
        ints = st.SemType("array", elem=st.INT32, len_from="n")
        codec_of(ints).unpack(mem, [0x1000], 0, None)
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


# -- against the frozen marshaller in reference_marshal.py ---------------------------


class Level(IntEnum):
    LOW = 1
    HIGH = 0x80000000


class Single(NamedTuple):     # a tuple subclass: one result per field
    value: int


# values no one-word codec of some kind accepts: bools and IntEnum members
# where an int belongs, integers one past either end of a word, other types,
# an unknown enum name
HOSTILE_VALUES = [True, False, Level.LOW, Level.HIGH, -2**31 - 1, 2**32, 2.0,
                  "7", None, "MODE_MAX", (1, 2)]
HOSTILE_WORDS = [-1, -2**31 - 1, 2**32, 2**32 + 5, -2**40, 2**63]


def _outcome(thunk):
    """A call's results with their types, or its exception's class and message."""
    try:
        return [(type(v), v) for v in thunk()]
    except Exception as exc:                    # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)


def _flat_run(m, sig, desc, args, result, words, prepare=None):
    """Every way a call reaches its stub, run by marshaller `m` in a fresh
    world: its outcomes, what the implementation saw, the `Mem` trace, and
    the live blocks and closures at the end.
    `prepare(mem, words)`, if given, sets up the world first and returns
    the raw words for the stub."""
    lines: list[str] = []
    seen: list[list] = []

    def impl(*values):
        seen.append([(type(v), v) for v in values])
        return result

    mem = Mem(trace=lines.append)
    if prepare is not None:
        words = prepare(mem, words)
    n = reference_marshal.plan_of(sig, desc).arity
    stub = m.skeleton(sig, impl, mem, desc)
    lib = mem.register_library("flat.dll")
    sym = mem.register_function(lib, "Flat", stub, arity=n)
    loose = mem.register_function(lib, "Loose", stub)          # arity unknown
    targets = [sym, sym.addr, stub, loose, Symbol("Flat", sym.addr, "pascal", n + 1),
               Symbol("Flat", loose.addr + 4, "pascal", n)]     # stale
    outcomes = [_outcome(lambda: m.call(sig, t, args, mem, desc)) for t in targets]
    outcomes.append(_outcome(lambda: [stub(list(words))]))
    return outcomes, seen, lines, mem.live_count, mem.closure_count


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_flat_calls_match_the_reference_marshaller(desc, data):
    kinds = data.draw(hs.lists(hs.sampled_from(sorted(FLAT_KINDS)), max_size=9))
    ret = data.draw(hs.sampled_from([None, *sorted(FLAT_KINDS)]))
    sig = LiftedSig("Flat", tuple(ParamSig(f"p{i}", k, FLAT_KINDS[k][0])
                                  for i, k in enumerate(kinds)),
                    None if ret is None else RetSig(ret, FLAT_KINDS[ret][0]))
    args = [data.draw(FLAT_KINDS[k][1]) for k in kinds]
    result = None if ret is None else data.draw(FLAT_KINDS[ret][1])
    # at most one hostile value, so that no other error hides it
    hostile = data.draw(hs.sampled_from(["none", "arg", "result", "arity"]))
    if hostile == "arg" and args:
        args[data.draw(hs.integers(0, len(args) - 1))] = \
            data.draw(hs.sampled_from(HOSTILE_VALUES))
    elif hostile == "result":
        result = data.draw(hs.sampled_from(HOSTILE_VALUES)
                           | (hs.builds(Single, FLAT_KINDS[ret][1]) if ret else hs.nothing()))
    elif hostile == "arity" and args:
        args.pop()
    words = data.draw(hs.lists(hs.integers(0, 2**32 - 1)
                               | hs.sampled_from(HOSTILE_WORDS) | hs.integers(-2**40, 2**40),
                               min_size=len(kinds), max_size=len(kinds) + 1))
    got = _flat_run(marshal, sig, desc, args, result, words)
    assert got == _flat_run(reference_marshal, sig, desc, args, result, words)


def test_every_hostile_value_of_every_kind_matches_the_reference_marshaller(desc):
    # the hypothesis test above draws these; this sweep makes sure each one
    # reaches each kind, as an argument and as a result
    valid = {"int32": -5, "word32": 0xFFFFFFFF, "handle": 7, "opaque": 0,
             "bool": True, "enum": "MODE_HIGH"}
    words = [0xFFFFFFFF, 2**32 + 1]
    for kind, ret in itertools.product(sorted(FLAT_KINDS), [None, *sorted(FLAT_KINDS)]):
        sig = LiftedSig("Flat", (ParamSig("p0", "int32", st.INT32),
                                 ParamSig("p1", kind, FLAT_KINDS[kind][0])),
                        None if ret is None else RetSig(ret, FLAT_KINDS[ret][0]))
        result = None if ret is None else valid[ret]
        cases = [([-1, bad], result) for bad in HOSTILE_VALUES]
        cases += [([-1, valid[kind]], bad) for bad in HOSTILE_VALUES + [Single(result)]]
        for args, res in cases:
            assert _flat_run(marshal, sig, desc, args, res, words) == \
                _flat_run(reference_marshal, sig, desc, args, res, words), (kind, ret, args, res)


class IndexOnly:
    """A word that `struct` would take through `__index__`, but that has no
    `&`: masking it raises TypeError."""

    def __index__(self) -> int:
        return 7

    def __repr__(self) -> str:
        return "IndexOnly()"


# raw words a stub may be handed: in range, negative, past 2**32, bools, and
# values that are no integer at all
RAW_WORDS = (hs.integers(0, 2**32 - 1) | hs.integers(-2**40, -1) | hs.integers(2**32, 2**40)
             | hs.booleans() | hs.sampled_from([2.0, "7", None, b"\x01", [1], IndexOnly()]))


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_flat_kernels_match_the_reference_marshaller(desc, data):
    # the per-plan client and stub of every flat signature: up to 12 wires
    # of any flat kind, and a return of any flat kind or none
    kinds = data.draw(hs.lists(hs.sampled_from(sorted(FLAT_KINDS)), max_size=12))
    ret = data.draw(hs.sampled_from([None, *sorted(FLAT_KINDS)]))
    sig = LiftedSig("Flat", tuple(ParamSig(f"p{i}", k, FLAT_KINDS[k][0])
                                  for i, k in enumerate(kinds)),
                    None if ret is None else RetSig(ret, FLAT_KINDS[ret][0]))
    args = [data.draw(FLAT_KINDS[k][1]) for k in kinds]
    for at in data.draw(hs.lists(hs.integers(0, len(args) - 1), max_size=2)) if args else ():
        args[at] = data.draw(hs.sampled_from(HOSTILE_VALUES))
    if data.draw(hs.booleans()):
        args = args[:-1] if data.draw(hs.booleans()) else args + [0]
    result = None if ret is None else data.draw(FLAT_KINDS[ret][1])
    result = data.draw(hs.just(result) | hs.sampled_from(HOSTILE_VALUES + [()])
                       | hs.builds(Single, hs.just(result)))
    words = data.draw(hs.lists(RAW_WORDS, min_size=max(len(kinds) - 1, 0),
                               max_size=len(kinds) + 1))
    runs = [_masked_with_and(_flat_run(m, sig, desc, args, result, words))
            for m in (marshal, reference_marshal)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kinds", [["word32"], ["int32"], ["handle", "int32", "opaque"]],
                         ids=["unsigned", "signed", "mixed"])
def test_an_integer_stub_masks_a_word_that_has_no_and(desc, kinds):
    # `struct` would take the word through `__index__`; masking refuses it,
    # as the reference does, wherever it stands and whatever the wires
    sig = LiftedSig("Flat", tuple(ParamSig(f"p{i}", k, FLAT_KINDS[k][0])
                                  for i, k in enumerate(kinds)), None)
    for at in range(len(kinds)):
        words = [1] * len(kinds)
        words[at] = IndexOnly()
        runs = [_masked_with_and(_flat_run(m, sig, desc, [1] * len(kinds), None, words))
                for m in (marshal, reference_marshal)]
        assert runs[0] == runs[1]
        assert runs[0][0][-1] == \
            (TypeError, "unsupported operand type(s) for &: 'IndexOnly' and 'int'")


def _masked_with_and(run):
    """`run` with the one message in which the stubs differ: a word that is
    no integer raises the TypeError of masking it with `&`, where an int32
    wire decoded through `to_signed` uses `&=` (every int32 wire of the
    reference, and one of a plan with a bool or enum wire on both sides)."""
    outcomes, *rest = run
    return ([(TypeError, o[1].replace("for &=:", "for &:"))
             if isinstance(o, tuple) and o[0] is TypeError else o for o in outcomes],
            *rest)


def _echo(words):
    return words[0]


def _twice(words):
    return 2 * words[0]


# the one-word wires: the flat kinds, strings and callbacks.  A callback
# value is None or a callable that the world registered before the call,
# since the reference never releases the registration a call makes: so
# both sides hand out the same addresses and keep the same closures.
ONE_WORD_KINDS = {
    **FLAT_KINDS,
    "string8": (st.STRING8, hs.text(max_size=8)),
    "string16": (st.STRING16, hs.text(max_size=8)),
    "callback": (st.SemType("callback", name="CB"), hs.sampled_from([_echo, _twice, None])),
}
# values a string or callback wire refuses: an int, bytes, a NUL, a lone
# surrogate, a non-callable, and None where a string belongs
ONE_WORD_HOSTILE = [5, b"x", "a\x00b", "\ud800", [1], None]


class At(NamedTuple):
    """A raw word that names an address of the prepared world."""
    name: str


def _one_word_world(mem, words):
    """Register the callables, and lay out the blocks that `At` words name:
    a string of each kind, a freed block and a block with no NUL unit."""
    at = {"closure": mem.fun_to_addr(_echo)}
    mem.fun_to_addr(_twice)
    at["string8"] = reference_marshal.pack_string8(mem, "héllo")
    at["string16"] = reference_marshal.pack_string16(mem, "wörld")
    at["unaligned"] = at["string8"] + 2
    at["freed"] = mem.alloc(1)
    mem.free(at["freed"])
    at["no_nul"] = mem.alloc(2)
    mem.store(at["no_nul"], [0x41414141, 0x42424242])
    return [at[w.name] if isinstance(w, At) else w for w in words]


ONE_WORD_WORDS = RAW_WORDS | hs.sampled_from(
    [0, *map(At, ["closure", "string8", "string16", "unaligned", "freed", "no_nul"])])


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_one_word_kernels_match_the_reference_marshaller(desc, data):
    # the per-plan client and stub of a signature that mixes flat wires
    # with at least one string or callback wire
    kinds = data.draw(hs.lists(hs.sampled_from(sorted(ONE_WORD_KINDS)), min_size=1,
                               max_size=6).filter(lambda ks: set(ks) - set(FLAT_KINDS)))
    ret = data.draw(hs.sampled_from([None, *sorted(FLAT_KINDS)]))
    sig = LiftedSig("OneWord", tuple(ParamSig(f"p{i}", k, ONE_WORD_KINDS[k][0])
                                     for i, k in enumerate(kinds)),
                    None if ret is None else RetSig(ret, FLAT_KINDS[ret][0]))
    assert plan_of(sig, desc).client is not None
    args = [data.draw(ONE_WORD_KINDS[k][1]) for k in kinds]
    for at in data.draw(hs.lists(hs.integers(0, len(args) - 1), max_size=2)):
        args[at] = data.draw(hs.sampled_from(ONE_WORD_HOSTILE + HOSTILE_VALUES))
    if data.draw(hs.booleans()):
        args = args[:-1] if data.draw(hs.booleans()) else args + [0]
    result = None if ret is None else data.draw(FLAT_KINDS[ret][1])
    result = data.draw(hs.just(result) | hs.sampled_from(HOSTILE_VALUES + [()])
                       | hs.builds(Single, hs.just(result)))
    words = data.draw(hs.lists(ONE_WORD_WORDS, min_size=len(kinds) - 1,
                               max_size=len(kinds) + 1))
    runs = [_flat_run(m, sig, desc, args, result, words, _one_word_world)
            for m in (marshal, reference_marshal)]
    assert runs[0] == runs[1]


LABEL_T = st.SemType("record", name="LABEL")
LABELS = hs.builds(label, hs.text(max_size=4), _boundary_ints(-2**31, 2**31 - 1),
                   hs.sampled_from(["MODE_OFF", "MODE_ON", "MODE_HIGH"]))
POINTS = hs.fixed_dictionaries({"x": _boundary_ints(-2**31, 2**31 - 1),
                                "y": _boundary_ints(-2**31, 2**31 - 1)})
INTS = _boundary_ints(-2**31, 2**31 - 1)

# the wires of the general path: per kind, its parameter's direction, type
# and whether it is passed by reference, and strategies of its in-value
# and of its result (None where it has none).  An array kind adds an [in]
# count parameter, before or after it.
GENERAL_KINDS = {
    "out_int": ("out", st.INT32, True, None, INTS),
    "out_label": ("out", LABEL_T, True, None, LABELS),
    "out_string": ("out", st.STRING8, True, None, hs.text(max_size=6)),
    "inout_int": ("inout", st.INT32, True, INTS, INTS),
    "inout_label": ("inout", LABEL_T, True, LABELS, LABELS),
    "ref_label": ("in", LABEL_T, True, LABELS, None),
    "point": ("in", st.SemType("record", name="POINT"), False, POINTS, None),
    "label": ("in", LABEL_T, False, LABELS, None),
    "int_array": ("in", st.INT32, False, hs.lists(INTS, max_size=3), None),
    "label_array": ("in", LABEL_T, False, hs.lists(LABELS, max_size=3), None),
}
# values that some general wire refuses: a bad or missing field, a bad
# element, a string with a NUL, a bool where an int belongs
GENERAL_HOSTILE = [label("x", mode="MODE_MAX"), {"text": "x"}, [label(b"x")], ["x"], 2**32,
                   label("a\x00b"), {"x": 1, "y": True}]
GENERAL_WORDS = ONE_WORD_WORDS | hs.sampled_from([At("label"), At("ints"), At("out")])


def _general_world(mem, words):
    """`_one_word_world`, with a block holding a LABEL, one of four ints,
    and a three-word block for an out parameter, that `At` words name."""
    at = {"label": mem.alloc(3), "ints": mem.alloc(4), "out": mem.alloc(3)}
    mem.store(at["label"], [reference_marshal.pack_string8(mem, "lab"), 7, 1])
    mem.store(at["ints"], [1, 0xFFFFFFFF, 3, 4])
    return _one_word_world(mem, [at.get(w.name, w) if isinstance(w, At) else w for w in words])


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_general_plans_match_the_reference_marshaller(desc, data):
    # the per-plan client and stub of a signature that mixes one-word wires
    # with out, in-out, by-reference, by-value and size_is array wires
    names = data.draw(hs.lists(hs.sampled_from(sorted(GENERAL_KINDS) + sorted(ONE_WORD_KINDS)),
                               min_size=1, max_size=5)
                      .filter(lambda ks: set(ks) & set(GENERAL_KINDS)))
    params, args, results, words = [], [], [], []
    for i, kind in enumerate(names):
        if kind in ONE_WORD_KINDS:
            params.append(ParamSig(f"p{i}", kind, ONE_WORD_KINDS[kind][0]))
            args.append(data.draw(ONE_WORD_KINDS[kind][1]))
            words.append(data.draw(ONE_WORD_WORDS))
            continue
        direction, sem, byref, ins, outs = GENERAL_KINDS[kind]
        if kind.endswith("_array"):
            value = data.draw(ins)
            count = ParamSig(f"n{i}", "INT", st.INT32)
            array = ParamSig(f"p{i}", kind, st.SemType("array", elem=sem, len_from=f"n{i}"))
            first = data.draw(hs.booleans())
            params += [array, count] if first else [count, array]
            args += [value, len(value)] if first else [len(value), value]
            words += [data.draw(GENERAL_WORDS), data.draw(GENERAL_WORDS)]
            continue
        params.append(ParamSig(f"p{i}", kind, sem, direction, byref))
        if ins is not None:
            args.append(data.draw(ins))
        if outs is not None:
            results.append(data.draw(outs))
        width = 2 if kind == "point" else 3 if kind == "label" else 1
        words += [At("out")] if direction == "out" else \
            [data.draw(GENERAL_WORDS) for _ in range(width)]
    ret = data.draw(hs.sampled_from([None, "string8", *sorted(FLAT_KINDS)]))
    if ret is not None:
        results.append(data.draw(hs.text(max_size=6) if ret == "string8"
                                 else FLAT_KINDS[ret][1]))
    sig = LiftedSig("General", tuple(params), None if ret is None else
                    RetSig(ret, st.STRING8 if ret == "string8" else FLAT_KINDS[ret][0]))
    # at most one hostile value, so that no other error hides it; a result
    # is refused before the stub packs any (a later one would find the
    # stub giving back what it packed, which the reference does not)
    hostile = data.draw(hs.sampled_from(["none", "arg", "count", "result", "arity", "words"]))
    if hostile == "arg" and args:
        args[data.draw(hs.integers(0, len(args) - 1))] = \
            data.draw(hs.sampled_from(GENERAL_HOSTILE + ONE_WORD_HOSTILE + HOSTILE_VALUES))
    elif hostile == "count" and any(k.endswith("_array") for k in names):
        at = next(k for k, p in enumerate(sig.ins) if p.name.startswith("n"))
        args[at] = data.draw(hs.sampled_from([args[at] + 1, -1, True, "2"]))
    elif hostile == "result" and results:
        results[0] = data.draw(hs.sampled_from([b"x", None, (1, 2)]))
    elif hostile == "arity":
        results = data.draw(hs.sampled_from([results + [0], results[:-1]]))
    elif hostile == "words":
        words = words[:-1] if data.draw(hs.booleans()) else words + [0]
    result = None if not results else results[0] if len(results) == 1 else tuple(results)
    runs = [_flat_run(m, sig, desc, args, result, words, _general_world)
            for m in (marshal, reference_marshal)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_every_shape_matches_the_reference_marshaller(desc, case):
    name, args, impl = TRACE_CASES[case]
    sig = op(desc, name)
    runs = []
    for m in (marshal, reference_marshal):
        for through_symbol in (True, False):    # one world each: no address is reused
            lines: list[str] = []
            mem = Mem(trace=lines.append)
            stub = m.skeleton(sig, impl, mem, desc)
            sym = mem.register_function(mem.register_library("shapes.dll"), name, stub)
            target = sym if through_symbol else stub
            runs.append((_outcome(lambda: m.call(sig, target, args, mem, desc)),
                         lines, mem.live_count))
    assert runs[:2] == runs[2:]


# -- failure paths: a value of the wrong type, an interface that cannot bind -------

@pytest.mark.parametrize("name,args,message", [
    ("Str8", [5], "expected a string, got 5"),
    ("Callback", [5, 3], "expected a callable or None, got 5"),
    ("ByValue", [[2, -3], 7], "expected a field map for POINT, got [2, -3]"),
    ("IntArray", ["abc", 3], "expected a list for array, got 'abc'"),
    ("ByRef", [{"text": 5, "id": 1, "mode": "MODE_ON"}], "expected a string, got 5"),
    # each after the call packed the first record's string
    ("RecordArray", [2, [label("a", 1), 5]], "expected a field map for LABEL, got 5"),
    ("RecordArray", [2, [label("a", 1), label(b"b", 2)]], "expected a string, got b'b'"),
], ids=["string", "callback", "record", "array", "string_in_record",
        "record_in_array", "string_in_second_record"])
def test_a_value_of_the_wrong_type_is_refused_and_leaves_nothing(desc, name, args, message):
    sig = op(desc, name)
    mem = Mem()
    called = []
    stub = skeleton(sig, lambda *a: called.append(a) or 0, mem, desc)
    before = (mem.live_count, mem.closure_count)
    with pytest.raises(TypeMismatch) as info:
        call(sig, stub, args, mem, desc)
    assert str(info.value) == message
    assert (mem.live_count, mem.closure_count) == before
    assert called == []


def test_an_interface_with_no_source_library_cannot_be_bound():
    unit = parse_text("interface I { void F (); }")
    with pytest.raises(MarshalError) as info:
        marshal.BoundInterface(build_binding(unit, "dynamic", "auto"), "I", Mem())
    assert str(info.value) == "interface 'I' has no source library"


def test_binding_skips_an_op_that_is_not_a_method():
    f = LiftedSig("F", (ParamSig("k", "Int32.int", st.INT32),), RetSig("Int32.int", st.INT32))
    qi = LiftedSig("QueryInterface",
                   (ParamSig("iid", "'a Com.IID", st.SemType("record", name="IID"),
                             byref=True),),
                   RetSig("'a Com.interface", st.OPAQUE), kind="query_interface")
    desc = BindingDesc("M", "dynamic", "auto",
                       interfaces=(InterfaceDesc("I", (qi, f), source="m.dll"),))
    mem = Mem()
    lib = mem.register_library("m.dll")     # no QueryInterface symbol in it
    mem.register_function(lib, "F", skeleton(f, lambda k: k + 1, mem, desc))
    bound = marshal.BoundInterface(desc, "I", mem)
    assert bound.F(41) == 42
    assert not hasattr(bound, "QueryInterface")
