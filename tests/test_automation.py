from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import count_mlidl_calls
from mlidl import marshal
from mlidl import semtypes as st
from mlidl.automation import (
    AutomationError,
    DISP_E_BADPARAMCOUNT,
    DISP_E_BADVARTYPE,
    DISP_E_MEMBERNOTFOUND,
    DISP_E_TYPEMISMATCH,
    DISP_E_UNKNOWNNAME,
    Variant,
    VT_BOOL,
    VT_BSTR,
    VT_DISPATCH,
    VT_EMPTY,
    VT_I4,
    VT_UI4,
    VT_UNKNOWN,
    get_ids_of_names,
    invoke,
    make_dual,
)
from mlidl.binding import build_binding
from mlidl.binding.model import BindingDesc, LiftedSig, ParamSig, RetSig
from mlidl.com import (
    Clsid,
    ComError,
    ComObject,
    Guid,
    IID_IDISPATCH,
    Iid,
    Registry,
    co_create_instance,
    co_register_class_object,
    get_method,
    query_interface,
    release,
    simple_factory,
)
from mlidl.idl import parse_text
from mlidl.wordmem import BadRegion, to_signed, word

IID_ICALC = Iid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0020}"), "ICalc")


def new_desc():
    """A fresh description for the signatures a test builds itself, so that
    their plans die with it."""
    return BindingDesc("Test", "com", "auto")


def calc_sigs():
    return [
        LiftedSig("Add", (ParamSig("a", "Int32.int", st.INT32),
                          ParamSig("b", "Int32.int", st.INT32)),
                  RetSig("Int32.int", st.INT32)),
        LiftedSig("Negate", (ParamSig("a", "Int32.int", st.INT32),),
                  RetSig("Int32.int", st.INT32)),
        LiftedSig("IsUpper", (ParamSig("s", "STRING", st.STRING8),),
                  RetSig("BOOL", st.BOOL)),
        LiftedSig("Ping", (), None),
    ]


def make_calc(mem):
    obj = ComObject(mem)
    trace: list[tuple] = []
    impls = [
        lambda a, b: (trace.append(("Add", a, b)), a + b)[1],
        lambda a: (trace.append(("Negate", a)), -a)[1],
        lambda s: (trace.append(("IsUpper", s)), s.isupper())[1],
        lambda: trace.append(("Ping",)),
    ]
    dual = make_dual(calc_sigs(), impls, obj, IID_ICALC, new_desc())
    return obj, dual, trace


# -- variants -------------------------------------------------------------------


def test_variant_tag_payload_agreement():
    assert Variant.empty().value is None
    with pytest.raises(ValueError):
        Variant(VT_EMPTY, 5)
    with pytest.raises(ValueError):
        Variant(999, 5)


# -- coercion, as Invoke meets it --------------------------------------------------
# (make_mix and make_kinds are defined below)


def test_coerce_exact_and_reinterpret(mem):
    dual, calls = make_mix(mem)
    args = [Variant(VT_UI4, 0xFFFFFFFF), Variant(VT_BSTR, "x"), Variant(VT_BOOL, True),
            Variant(VT_I4, -1)]
    assert invoke(dual, 1, args) == Variant(VT_I4, -1)
    assert invoke(dual, 1, [Variant(VT_I4, 7)] + args[1:]) == Variant(VT_I4, 7)
    assert calls == [(-1, "x", True, 0xFFFFFFFF), (7, "x", True, 0xFFFFFFFF)]
    assert type(calls[0][2]) is bool


def test_coerce_rejects_lenient_conversions(mem):
    dual, calls = make_mix(mem)
    for index, bad in ((0, Variant(VT_BSTR, "5")), (2, Variant(VT_I4, 1)),
                       (0, Variant(VT_BOOL, True)), (0, Variant.empty())):
        args = list(MIX_ARGS)
        args[index] = bad
        with pytest.raises(AutomationError) as exc:
            invoke(dual, 1, args)
        assert (exc.value.hresult, exc.value.arg_index) == (DISP_E_TYPEMISMATCH, index)
    assert calls == []


def test_coerce_enum(mem, win32_desc):
    _, dual = make_kinds(mem, win32_desc)
    echo = get_ids_of_names(dual, "Echo_enum")
    create = win32_desc.enum("WM").to_int("WM_CREATE")
    assert invoke(dual, echo, [Variant(VT_I4, create)]) == Variant(VT_I4, create)
    assert win32_desc.enum("WM").from_int(0x777) is None
    with pytest.raises(AutomationError) as exc:
        invoke(dual, echo, [Variant(VT_I4, 0x777)])
    assert (exc.value.hresult, exc.value.arg_index) == (DISP_E_TYPEMISMATCH, 0)


def test_coerce_marshal_round_trip(mem, win32_desc):
    dual, calls = make_mix(mem)
    invoke(dual, 1, [Variant(VT_I4, -5)] + list(MIX_ARGS[1:]))
    v = calls[0][0]
    codec = marshal.codec_of(st.INT32, win32_desc)
    words: list[int] = []
    codec.pack(mem, v, words, [])
    assert codec.unpack(mem, words, 0, None) == v == -5


def test_variant_of_inverse(mem, win32_desc):
    dual, _ = make_mix(mem)
    assert invoke(dual, 1, [Variant(VT_I4, 5)] + list(MIX_ARGS[1:])) == Variant(VT_I4, 5)
    _, kinds = make_kinds(mem, win32_desc)
    assert invoke(kinds, get_ids_of_names(kinds, "Echo_bool"),
                  [Variant(VT_BOOL, False)]) == Variant(VT_BOOL, True)
    assert invoke(kinds, get_ids_of_names(kinds, "Echo_string8"),
                  [Variant(VT_BSTR, "s")]) == Variant(VT_BSTR, "s")


# -- dispatch tables --------------------------------------------------------------


def test_dispids_dense_from_one_in_declaration_order(mem):
    _, dual, _ = make_calc(mem)
    assert get_ids_of_names(dual, "Add") == 1
    assert get_ids_of_names(dual, "Negate") == 2
    assert get_ids_of_names(dual, "IsUpper") == 3
    assert get_ids_of_names(dual, "Ping") == 4


def test_lookup_case_insensitive_and_stable(mem):
    _, dual, _ = make_calc(mem)
    assert get_ids_of_names(dual, "add") == 1
    assert get_ids_of_names(dual, "ADD") == 1
    assert get_ids_of_names(dual, "Add") == get_ids_of_names(dual, "Add")


def test_unknown_name(mem):
    _, dual, _ = make_calc(mem)
    with pytest.raises(AutomationError) as exc:
        get_ids_of_names(dual, "Quux")
    assert exc.value.hresult == DISP_E_UNKNOWNNAME


# -- invoke -----------------------------------------------------------------------


def test_invoke_void_returns_empty_with_same_effect(mem):
    _, dual, trace = make_calc(mem)
    result = invoke(dual, get_ids_of_names(dual, "Ping"), [])
    assert result == Variant.empty()
    marshal.call(calc_sigs()[3], get_method(dual, 10), [], mem, new_desc())
    assert trace == [("Ping",), ("Ping",)]


def test_invoke_bad_dispid(mem):
    _, dual, _ = make_calc(mem)
    with pytest.raises(AutomationError) as exc:
        invoke(dual, 99, [])
    assert exc.value.hresult == DISP_E_MEMBERNOTFOUND


def test_invoke_bad_param_count(mem):
    _, dual, _ = make_calc(mem)
    with pytest.raises(AutomationError) as exc:
        invoke(dual, 4, [Variant(VT_I4, 1)])
    assert exc.value.hresult == DISP_E_BADPARAMCOUNT


def test_invoke_type_mismatch_carries_arg_index(mem):
    _, dual, _ = make_calc(mem)
    with pytest.raises(AutomationError) as exc:
        invoke(dual, 1, [Variant(VT_I4, 1), Variant(VT_BSTR, "x")])
    assert exc.value.hresult == DISP_E_TYPEMISMATCH
    assert exc.value.arg_index == 1


def test_dual_vtable_slot_count(mem):
    obj = ComObject(mem)
    dual = make_dual([calc_sigs()[3]], [lambda: None], obj, IID_ICALC, new_desc())
    vtable = mem.read(dual.addr, 1)[0]
    # 3 IUnknown + 4 IDispatch + 1 method
    assert len(mem.read(vtable, 8)) == 8
    with pytest.raises(Exception):
        mem.read(vtable, 9)


def test_dual_answers_idispatch(mem):
    obj, dual, _ = make_calc(mem)
    ref = query_interface(dual, IID_IDISPATCH)
    assert ref.addr == dual.addr
    from mlidl.com import release
    release(ref)


def test_get_type_info_count_zero(mem):
    _, dual, _ = make_calc(mem)
    out = mem.alloc(1)
    hr = get_method(dual, 3)([dual.addr, out])
    assert hr == 0 and mem.read(out, 1) == [0]
    mem.free(out)


def test_get_type_info_not_implemented(mem):
    _, dual, _ = make_calc(mem)
    assert get_method(dual, 4)([dual.addr, 0, 0, 0]) == 0x80004001


def test_dual_equivalence_random(mem):
    obj, dual, trace = make_calc(mem)
    sigs, desc = calc_sigs(), new_desc()
    rng = random.Random(0xD0A1)
    result_tags = {"Add": VT_I4, "Negate": VT_I4, "IsUpper": VT_BOOL}
    for _ in range(100):
        idx = rng.randrange(3)
        sig = sigs[idx]
        slot = 7 + idx
        if sig.name == "Add":
            args = [rng.randint(-1000, 1000), rng.randint(-1000, 1000)]
            variants = [Variant(VT_I4, a) for a in args]
        elif sig.name == "Negate":
            args = [rng.randint(-1000, 1000)]
            variants = [Variant(VT_I4, args[0])]
        else:
            args = [rng.choice(["HELLO", "shout", "MiXeD"])]
            variants = [Variant(VT_BSTR, args[0])]

        trace.clear()
        vt_results = marshal.call(sig, get_method(dual, slot), args, mem, desc)
        vt_trace = list(trace)

        trace.clear()
        disp_result = invoke(dual, get_ids_of_names(dual, sig.name), variants)
        disp_trace = list(trace)

        assert disp_trace == vt_trace
        assert disp_result == Variant(result_tags[sig.name], vt_results[0])


def test_raw_invoke_through_memory(mem):
    _, dual, trace = make_calc(mem)
    args_blk = mem.alloc(4)
    mem.store(args_blk, [VT_I4, 20, VT_I4, 22])
    dp = mem.alloc(2)
    mem.store(dp, [2, args_blk])
    vres = mem.alloc(2)
    hr = get_method(dual, 6)([dual.addr, 1, 0, 0, 0, dp, vres, 0, 0])
    assert hr == 0
    tag, payload = mem.read(vres, 2)
    assert tag == VT_I4 and to_signed(payload) == 42
    for a in (args_blk, dp, vres):
        mem.free(a)


def test_raw_invoke_of_an_unknown_dispid_is_member_not_found(mem):
    _, dual, _ = make_calc(mem)
    assert get_method(dual, 6)([dual.addr, 99, 0, 0, 0, 0, 0, 0, 0]) == DISP_E_MEMBERNOTFOUND


def test_raw_invoke_reports_arg_error_index(mem):
    _, dual, _ = make_calc(mem)
    args_blk = mem.alloc(4)
    sblk = marshal.pack_string8(mem, "oops")
    mem.store(args_blk, [VT_I4, 1, VT_BSTR, sblk])
    dp = mem.alloc(2)
    mem.store(dp, [2, args_blk])
    argerr = mem.alloc(1)
    hr = get_method(dual, 6)([dual.addr, 1, 0, 0, 0, dp, 0, 0, argerr])
    assert hr == DISP_E_TYPEMISMATCH
    assert mem.read(argerr, 1) == [1]
    for a in (args_blk, sblk, dp, argerr):
        mem.free(a)


def test_raw_get_ids_of_names(mem):
    _, dual, _ = make_calc(mem)
    name = marshal.pack_string8(mem, "isupper")
    names = mem.alloc(1)
    mem.store(names, [name])
    ids = mem.alloc(1)
    hr = get_method(dual, 5)([dual.addr, 0, names, 1, 0, ids])
    assert hr == 0 and mem.read(ids, 1) == [3]
    bad = marshal.pack_string8(mem, "nope")
    mem.store(names, [bad])
    hr = get_method(dual, 5)([dual.addr, 0, names, 1, 0, ids])
    assert hr == DISP_E_UNKNOWNNAME
    assert mem.read(ids, 1) == [0xFFFFFFFF]
    for a in (name, names, ids, bad):
        mem.free(a)


def test_raw_get_ids_of_names_reads_each_name_once_and_stores_once():
    from mlidl.wordmem import Mem

    lines: list[str] = []
    mem = Mem(trace=lines.append)
    _, dual, _ = make_calc(mem)
    strings = [marshal.pack_string8(mem, n) for n in ("add", "nope", "ISUPPER")]
    names = mem.alloc(3)
    mem.store(names, strings)
    ids = mem.alloc(3)
    get_ids = get_method(dual, 5)
    lines.clear()
    hr = get_ids([dual.addr, 0, names, 3, 0, ids])
    # one read of the pointer array, one of each whole string, one store
    assert [line.split(" ")[:3] for line in lines] == [
        ["read", f"{names:#x}", "3"], ["read", f"{strings[0]:#x}", "1"],
        ["read", f"{strings[1]:#x}", "2"], ["read", f"{strings[2]:#x}", "2"],
        ["store", f"{ids:#x}", "['0x1',"]]
    assert hr == DISP_E_UNKNOWNNAME
    assert mem.read(ids, 3) == [1, 0xFFFFFFFF, 3]
    mem.store(names, [strings[2], strings[0], strings[2]])
    assert get_ids([dual.addr, 0, names, 3, 0, ids]) == 0
    assert mem.read(ids, 3) == [3, 1, 3]
    for a in strings + [names, ids]:
        mem.free(a)


# -- one interface reference ------------------------------------------------------


IID_IPLAIN = Iid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0021}"), "IPlain")
CLSID_CALC = Clsid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0022}"), "Calc")


def check_calc(ref):
    assert get_ids_of_names(ref, "negate") == 2
    assert invoke(ref, 1, (Variant(VT_I4, 20), Variant(VT_I4, 22))) == Variant(VT_I4, 42)


def test_dual_reached_by_query_interface_is_the_make_dual_ref(mem):
    obj, dual, _ = make_calc(mem)
    for ref in (query_interface(obj.identity, IID_ICALC),
                query_interface(dual, IID_IDISPATCH)):
        assert ref == dual
        check_calc(ref)
        release(ref)
    assert obj.refcount == 1


def test_dual_from_co_create_instance_is_the_make_dual_ref(mem):
    made = []

    def build():
        obj, dual, _ = make_calc(mem)
        made.append(dual)
        return obj

    reg = Registry()
    co_register_class_object(reg, CLSID_CALC, simple_factory(CLSID_CALC, build))
    ref = co_create_instance(reg, CLSID_CALC, IID_ICALC)
    assert ref == made[0]
    check_calc(ref)
    disp = query_interface(ref, IID_IDISPATCH)
    assert disp == ref
    check_calc(disp)
    release(disp)
    assert release(ref) == 0


def test_invoke_on_non_dual_ref_raises_com_error(mem):
    obj, _, _ = make_calc(mem)
    wide = obj.add_interface(IID_IPLAIN, [lambda ws: 0] * 5)   # 8 slots, none IDispatch
    for ref in (obj.identity, wide):
        with pytest.raises(ComError, match="not a dual interface"):
            invoke(ref, 1, (Variant(VT_I4, 1), Variant(VT_I4, 2)))
        with pytest.raises(ComError, match="not a dual interface"):
            get_ids_of_names(ref, "Add")


# -- raw slot word counts ---------------------------------------------------------


@pytest.mark.parametrize("slot,method,n", [
    (0, "QueryInterface", 3), (1, "AddRef", 1), (2, "Release", 1),
    (3, "GetTypeInfoCount", 2), (4, "GetTypeInfo", 4), (5, "GetIDsOfNames", 6),
    (6, "Invoke", 9),
])
def test_raw_slot_checks_word_count(mem, slot, method, n):
    obj, dual, trace = make_calc(mem)
    live = mem.live_count
    fn = get_method(dual, slot)
    for count in (n - 1, n + 1):
        with pytest.raises(ComError) as exc:
            fn([dual.addr] + [0] * (count - 1) if count else [])
        assert str(exc.value) == f"{method} takes {n} words, got {count}"
    assert obj.refcount == 1 and obj.alive
    assert mem.live_count == live and trace == []


# -- plans and their binding description ------------------------------------------


def test_plans_built_once_per_signature_and_description(mem, monkeypatch):
    built = []
    build = marshal._build_plan
    monkeypatch.setattr(marshal, "_build_plan",
                        lambda sig, desc: (built.append(sig.name), build(sig, desc))[1])
    _, dual, _ = make_calc(mem)
    assert sorted(built) == ["Add", "IsUpper", "Negate", "Ping"]   # one per skeleton
    for i in range(100):
        assert invoke(dual, 2, (Variant(VT_I4, i),)) == Variant(VT_I4, -i)
    sig, desc = calc_sigs()[0], new_desc()
    for i in range(100):
        assert marshal.call(sig, lambda ws: ws[0] + ws[1], [i, 1], mem, desc) == [i + 1]
    assert sorted(built) == ["Add", "Add", "IsUpper", "Negate", "Ping"]


def test_a_signature_has_a_plan_per_description_freed_with_it(mem):
    sig, first, second = calc_sigs()[1], new_desc(), new_desc()
    assert marshal.call(sig, lambda ws: ws[0], [5], mem, first) == [5]
    assert marshal.call(sig, lambda ws: ws[0], [6], mem, second) == [6]
    plans = [weakref.ref(first.plans[id(sig)]), weakref.ref(second.plans[id(sig)])]
    assert plans[0]() is not plans[1]()
    assert marshal.plan_of(sig, first) is plans[0]()
    del first
    gc.collect()
    assert plans[0]() is None and plans[1]() is not None
    del second
    gc.collect()
    assert plans[1]() is None


# -- one method per Automation kind ------------------------------------------------


IID_IKINDS = Iid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0023}"), "IKinds")

_WM = st.SemType("enum", name="WM")
# (semantic type, host implementation, tag of a host value's Variant)
_KINDS = {
    "int32": (st.INT32, lambda a: to_signed(a + 1), VT_I4),
    "word32": (st.WORD32, lambda w: w ^ 0xFFFF, VT_UI4),
    "handle": (st.HANDLE, lambda h: h, VT_UI4),
    "bool": (st.BOOL, lambda b: not b, VT_BOOL),
    "enum": (_WM, lambda name: name, VT_I4),        # the enum value
    "string8": (st.STRING8, lambda s: s[::-1], VT_BSTR),
}


def kind_sigs():
    return [LiftedSig(f"Echo_{kind}", (ParamSig("x", kind, sem),), RetSig(kind, sem))
            for kind, (sem, _, _) in _KINDS.items()]


def make_kinds(mem, desc):
    obj = ComObject(mem)
    dual = make_dual(kind_sigs(), [impl for _, impl, _ in _KINDS.values()], obj,
                     IID_IKINDS, desc)
    return obj, dual


def kind_variant(kind, value, desc):
    if kind == "enum":
        value = desc.enum("WM").to_int(value)
    return Variant(_KINDS[kind][2], value)


def raw_invoke(mem, ref, dispid, arg_words, argerr=0):
    """Invoke through vtable slot 6 with the VARIANT words `arg_words`;
    (HRESULT, result tag, result payload)."""
    blocks = []
    try:
        args_addr = 0
        if arg_words:
            args_addr = mem.alloc(len(arg_words))
            blocks.append(args_addr)
            mem.store(args_addr, arg_words)
        dp = mem.alloc(2)
        blocks.append(dp)
        mem.store(dp, [len(arg_words) // 2, args_addr])
        res = mem.alloc(2)
        blocks.append(res)
        mem.store(res, [VT_EMPTY, 0])
        hr = get_method(ref, 6)([ref.addr, dispid, 0, 0, 0, dp, res, 0, argerr])
        tag, payload = mem.read(res, 2)
        return hr, tag, payload
    finally:
        for b in blocks:
            mem.free(b)


def test_a_raw_store_over_a_method_slot_redirects_slot_callers_not_invoke(mem):
    before = mem.live_count, mem.closure_count
    _, dual, trace = make_calc(mem)
    other = lambda ws: 99  # noqa: E731
    addr = mem.fun_to_addr(other)
    mem.store(mem.offset(mem.read(dual.addr, 1)[0], 7), [addr])
    assert get_method(dual, 7) is other
    # both Invoke paths call the skeleton that make_dual installed
    assert invoke(dual, 1, [Variant(VT_I4, 20), Variant(VT_I4, 22)]) == Variant(VT_I4, 42)
    assert raw_invoke(mem, dual, 1, [VT_I4, 20, VT_I4, 22]) == (0, VT_I4, 42)
    assert trace == [("Add", 20, 22)] * 2
    release(dual)
    mem.release_closure(addr)
    assert (mem.live_count, mem.closure_count) == before


# -- pinned behaviour of the value model --------------------------------------------


def make_echo(mem, sem):
    """A dual of one method, Echo, that takes and returns a `sem`."""
    calls = []
    sig = LiftedSig("Echo", (ParamSig("x", sem.kind, sem),), RetSig(sem.kind, sem))
    dual = make_dual([sig], [lambda x: (calls.append(x), x)[1]], ComObject(mem),
                     IID_IMIX, new_desc())
    return dual, calls


def test_dispatch_and_unknown_payloads_coerce_to_opaque(mem):
    _, dual, _ = make_calc(mem)
    echo, calls = make_echo(mem, st.OPAQUE)
    assert invoke(echo, 1, [Variant(VT_DISPATCH, dual)]) == Variant(VT_UI4, dual.addr)
    assert invoke(echo, 1, [Variant(VT_UNKNOWN, 0x1234)]) == Variant(VT_UI4, 0x1234)
    assert calls == [dual.addr, 0x1234]


def test_dispatch_is_rejected_for_handle(mem, win32_desc):
    _, dual, _ = make_calc(mem)
    _, kinds = make_kinds(mem, win32_desc)
    with pytest.raises(AutomationError) as exc:
        invoke(kinds, get_ids_of_names(kinds, "Echo_handle"), [Variant(VT_DISPATCH, dual)])
    assert exc.value.hresult == DISP_E_TYPEMISMATCH


def test_variant_of_string16_is_a_bstr(mem):
    echo, calls = make_echo(mem, st.STRING16)
    assert invoke(echo, 1, [Variant(VT_BSTR, "wide")]) == Variant(VT_BSTR, "wide")
    assert calls == ["wide"]


def test_raw_invoke_reads_bool_payload_2_as_true(mem, win32_desc):
    _, dual = make_kinds(mem, win32_desc)
    hr, tag, payload = raw_invoke(mem, dual, get_ids_of_names(dual, "Echo_bool"),
                                  [VT_BOOL, 2])
    # the implementation saw True and answered `not True`
    assert (hr, tag, payload) == (0, VT_BOOL, 0)


def test_raw_invoke_rejects_unknown_tag_in_memory(mem):
    _, dual, trace = make_calc(mem)
    argerr = mem.alloc(1)
    for index, words in ((0, [99, 5, VT_I4, 22]), (1, [VT_I4, 20, 99, 5])):
        mem.store(argerr, [0xFFFFFFFF])
        assert raw_invoke(mem, dual, 1, words, argerr) == (DISP_E_BADVARTYPE, VT_EMPTY, 0)
        assert mem.read(argerr, 1) == [index]
    assert trace == []
    mem.free(argerr)


def test_raw_invoke_bstr_result_is_freed_by_the_caller(mem, win32_desc):
    _, dual = make_kinds(mem, win32_desc)
    arg = marshal.pack_string8(mem, "abc")
    live = mem.live_count
    hr, tag, payload = raw_invoke(mem, dual, get_ids_of_names(dual, "Echo_string8"),
                                  [VT_BSTR, arg])
    assert (hr, tag) == (0, VT_BSTR)
    assert mem.live_count == live + 1           # the callee allocated the result
    assert marshal.read_string8(mem, payload) == "cba"
    mem.free(payload)
    assert mem.live_count == live
    mem.free(arg)


# -- strict coercion ------------------------------------------------------------------


IID_IMIX = Iid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0024}"), "IMix")
MIX_SIG = LiftedSig("Mix", (ParamSig("a", "Int32.int", st.INT32),
                            ParamSig("s", "STRING", st.STRING8),
                            ParamSig("b", "BOOL", st.BOOL),
                            ParamSig("w", "Word32.word", st.WORD32)),
                    RetSig("Int32.int", st.INT32))
MIX_ARGS = (Variant(VT_I4, 1), Variant(VT_BSTR, "s"), Variant(VT_BOOL, True),
            Variant(VT_UI4, 2))


def make_mix(mem):
    calls = []
    dual = make_dual([MIX_SIG], [lambda a, s, b, w: (calls.append((a, s, b, w)), a)[1]],
                     ComObject(mem), IID_IMIX, new_desc())
    return dual, calls


@pytest.mark.parametrize("bad, index", [
    (Variant(VT_I4, "5"), 0), (Variant(VT_I4, "5"), 3),
    (Variant(VT_I4, 1.7), 0), (Variant(VT_I4, 1.7), 3),
    (Variant(VT_I4, 2**40), 0), (Variant(VT_I4, 2**40), 3),
    (Variant(VT_I4), 0), (Variant(VT_I4), 3),
    (Variant(VT_BSTR, 5), 1),
    (Variant(VT_BOOL, 5), 2),
], ids=lambda x: str(x))
def test_invoke_rejects_payloads_the_tag_cannot_carry(mem, bad, index):
    dual, calls = make_mix(mem)
    args = list(MIX_ARGS)
    args[index] = bad
    live = mem.live_count
    with pytest.raises(AutomationError) as exc:
        invoke(dual, 1, args)
    assert exc.value.hresult == DISP_E_TYPEMISMATCH
    assert exc.value.arg_index == index
    assert calls == [] and mem.live_count == live


@pytest.mark.parametrize("bad", ["a\x00b", "x\ud800"], ids=["nul", "lone_surrogate"])
def test_invoke_rejects_a_bstr_no_string_block_can_hold(mem, bad):
    dual, calls = make_mix(mem)
    args = list(MIX_ARGS)
    args[1] = Variant(VT_BSTR, bad)
    live = mem.live_count
    with pytest.raises(AutomationError) as exc:
        invoke(dual, 1, args)
    assert exc.value.hresult == DISP_E_TYPEMISMATCH
    assert exc.value.arg_index == 1
    assert calls == [] and mem.live_count == live
    with pytest.raises(marshal.BadString) as packed:
        marshal.pack_string8(mem, bad)
    assert str(packed.value) in str(exc.value)


def test_raw_invoke_frees_the_result_bstr_when_its_slot_faults(mem):
    sig = LiftedSig("Name", (ParamSig("k", "Int32.int", st.INT32),),
                    RetSig("STRING", st.STRING8))
    dual = make_dual([sig], [lambda k: "n" * k], ComObject(mem), IID_IMIX, new_desc())
    args_blk = mem.alloc(2)
    mem.store(args_blk, [VT_I4, 3])
    dp = mem.alloc(2)
    mem.store(dp, [1, args_blk])
    live = mem.live_count
    with pytest.raises(BadRegion):
        get_method(dual, 6)([dual.addr, 1, 0, 0, 0, dp, 0x0FFFFFFC, 0, 0])
    assert mem.live_count == live
    for a in (args_blk, dp):
        mem.free(a)


@pytest.mark.parametrize("index, bad_words", [
    (0, [VT_BSTR, None]), (1, [VT_I4, 5]), (2, [VT_I4, 5]), (3, [VT_BOOL, 1]),
])
def test_raw_invoke_writes_the_failing_index_to_puargerr(mem, index, bad_words):
    dual, calls = make_mix(mem)
    text = marshal.pack_string8(mem, "s")
    words = [VT_I4, 1, VT_BSTR, text, VT_BOOL, 1, VT_UI4, 2]
    words[2 * index:2 * index + 2] = [bad_words[0], text if bad_words[1] is None
                                      else bad_words[1]]
    argerr = mem.alloc(1)
    mem.store(argerr, [0xFFFFFFFF])
    live = mem.live_count
    hr, _, _ = raw_invoke(mem, dual, 1, words, argerr)
    assert hr == DISP_E_TYPEMISMATCH
    assert mem.read(argerr, 1) == [index]
    assert calls == [] and mem.live_count == live
    assert raw_invoke(mem, dual, 1, [VT_I4, 1, VT_BSTR, text, VT_BOOL, 1, VT_UI4, 2]) \
        == (0, VT_I4, 1)
    for a in (text, argerr):
        mem.free(a)


@pytest.mark.parametrize("cargs", [0, 1, 3, 5])
def test_raw_invoke_checks_cargs_before_reading_rgvarg(mem, cargs):
    _, dual, trace = make_calc(mem)
    args_blk = mem.alloc(4)
    mem.store(args_blk, [VT_I4, 20, VT_I4, 22])
    dp = mem.alloc(2)
    mem.store(dp, [cargs, args_blk])
    argerr = mem.alloc(1)
    mem.store(argerr, [0xFFFFFFFF])
    live = mem.live_count
    hr = get_method(dual, 6)([dual.addr, 1, 0, 0, 0, dp, 0, 0, argerr])
    assert hr == DISP_E_BADPARAMCOUNT
    assert mem.read(argerr, 1) == [0xFFFFFFFF]
    assert trace == [] and mem.live_count == live
    for a in (args_blk, dp, argerr):
        mem.free(a)


def test_raw_invoke_reads_rgvarg_in_one_read(mem, monkeypatch):
    _, dual, _ = make_calc(mem)
    args_blk = mem.alloc(4)
    mem.store(args_blk, [VT_I4, 20, VT_I4, 22])
    dp = mem.alloc(2)
    mem.store(dp, [2, args_blk])
    block = {mem.offset(args_blk, k) for k in range(4)}
    reads = []
    read = mem.read
    monkeypatch.setattr(mem, "read", lambda addr, n: (reads.append((addr, n)), read(addr, n))[1])
    assert get_method(dual, 6)([dual.addr, 1, 0, 0, 0, dp, 0, 0, 0]) == 0
    assert [r for r in reads if r[0] in block] == [(args_blk, 4)]
    for a in (args_blk, dp):
        mem.free(a)


# -- typed, raw and vtable calls agree ----------------------------------------------


def _text():
    return hs.text(hs.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                   max_size=12)


_VALUES = {
    "int32": hs.integers(-2**31, 2**31 - 1),
    "word32": hs.integers(0, 2**32 - 1),
    "handle": hs.integers(0, 2**32 - 1),
    "bool": hs.booleans(),
    "enum": hs.sampled_from(["WM_NULL", "WM_CREATE", "WM_PAINT", "WM_VSCROLL"]),
    "string8": _text(),
}


def _variant_words(mem, v):
    """The VARIANT words of `v`; a BSTR payload is a fresh string block."""
    if v.tag == VT_BSTR:
        return [VT_BSTR, marshal.pack_string8(mem, v.value)]
    return [v.tag, int(v.value) if v.tag == VT_BOOL else word(v.value)]


@settings(max_examples=150, deadline=None)
@given(data=hs.data())
def test_typed_raw_and_vtable_calls_agree(win32_desc, data):
    from mlidl.wordmem import Mem

    mem = Mem()
    _, dual = make_kinds(mem, win32_desc)
    live = mem.live_count
    kind = data.draw(hs.sampled_from(sorted(_KINDS)))
    value = data.draw(_VALUES[kind])
    sem, impl, _ = _KINDS[kind]
    index = list(_KINDS).index(kind)
    sig = kind_sigs()[index]
    dispid = get_ids_of_names(dual, sig.name)
    want = kind_variant(kind, impl(value), win32_desc)

    assert invoke(dual, dispid, [kind_variant(kind, value, win32_desc)]) == want

    direct = marshal.call(sig, get_method(dual, 7 + index), [value], mem, win32_desc)
    assert kind_variant(kind, direct[0], win32_desc) == want

    arg_words = _variant_words(mem, kind_variant(kind, value, win32_desc))
    hr, tag, payload = raw_invoke(mem, dual, dispid, arg_words)
    if tag == VT_BSTR:
        mem.free(arg_words[1])
        text = marshal.read_string8(mem, payload)
        mem.free(payload)
        assert (hr, tag, text) == (0, VT_BSTR, want.value)
    else:
        assert [hr, tag, payload] == [0] + _variant_words(mem, want)
    assert mem.live_count == live


def test_invoke_result_from_an_out_or_inout_parameter(mem):
    sigs = [LiftedSig("Get", (ParamSig("x", "BOOL", st.BOOL, dir="out"),), None),
            LiftedSig("Bump", (ParamSig("x", "Word32.word", st.WORD32, dir="inout"),), None)]
    dual = make_dual(sigs, [lambda: True, lambda x: x + 1], ComObject(mem), IID_IMIX,
                     new_desc())
    live = mem.live_count
    assert invoke(dual, 1, []) == Variant(VT_BOOL, True)
    assert invoke(dual, 2, [Variant(VT_I4, -2)]) == Variant(VT_UI4, 0xFFFFFFFF)
    assert raw_invoke(mem, dual, 2, [VT_UI4, 41]) == (0, VT_UI4, 42)
    assert mem.live_count == live


# -- Python-call budgets ------------------------------------------------------------


def _typed_invoke(mem, dual):
    return invoke, (dual, 1, (Variant(VT_I4, 20), Variant(VT_I4, 22))), Variant(VT_I4, 42)


def _raw_invoke(mem, dual):
    args = mem.alloc(4)
    mem.store(args, [VT_I4, 20, VT_I4, 22])
    dp = mem.alloc(2)
    mem.store(dp, [2, args])
    return get_method(dual, 6), ([dual.addr, 1, 0, 0, 0, dp, mem.alloc(2), 0, 0],), 0


def _get_ids_of_names(mem, dual):
    return get_ids_of_names, (dual, "negate"), 2


def _query_interface(mem, dual):
    iid = mem.alloc(4)
    mem.store(iid, IID_ICALC.guid.to_words())
    return get_method(dual, 0), ([dual.addr, iid, mem.alloc(1)],), 0


def _release(mem, dual):
    add_ref = get_method(dual, 1)
    add_ref([dual.addr])
    add_ref([dual.addr])        # neither Release below destroys the object
    return get_method(dual, 2), ([dual.addr],), 1


def _co_create_instance(mem, dual):
    reg = Registry()
    co_register_class_object(reg, CLSID_CALC,
                             simple_factory(CLSID_CALC, lambda: make_calc(mem)[0]))
    return co_create_instance, (reg, CLSID_CALC, IID_ICALC), None


# operation: (its set-up on make_calc's object, Python calls of one warm call
# on CPython 3.11, counted with conftest.count_mlidl_calls).  Before Invoke
# rows, one-word plans, and the inline `get_method`, `Mem.read` and
# `Mem.store`: typed Invoke 27, raw Invoke 36, GetIDsOfNames 10, slot-0
# QueryInterface 13, co_create_instance 124.
COM_CALL_CAPS = {
    "typed_invoke": (_typed_invoke, 14),
    "raw_invoke": (_raw_invoke, 24),
    "get_ids_of_names": (_get_ids_of_names, 5),
    "query_interface_slot0": (_query_interface, 10),
    "release_slot2": (_release, 4),
    "co_create_instance": (_co_create_instance, 116),
}


@pytest.mark.parametrize("name", sorted(COM_CALL_CAPS))
def test_python_calls_of_a_com_operation_are_capped(mem, name):
    set_up, cap = COM_CALL_CAPS[name]
    fn, args, want = set_up(mem, make_calc(mem)[1])
    fn(*args)
    result, calls = count_mlidl_calls(fn, *args)
    if want is not None:
        assert result == want
    assert calls <= cap


# -- failure paths, pinned by message ----------------------------------------------


SHAPES_IDL = """
typedef struct { int x; int y; } POINT;
interface IShapes {
  void Origin ([out] POINT *p);
  int Two ([out] int *a);
}
"""
IID_ISHAPES = Iid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0030}"), "IShapes")


@pytest.mark.parametrize("dispid,message", [
    (1, "cannot wrap a record result as a VARIANT"),
    (2, "Two has 2 results; Invoke carries at most one"),
], ids=["record_result", "two_results"])
def test_a_result_invoke_cannot_carry_is_pinned(mem, dispid, message):
    desc = build_binding(parse_text(SHAPES_IDL, "shapes.idl"), "dynamic", "auto")
    ref = make_dual(desc.interfaces[0].ops, [lambda: {"x": 1, "y": 2}, lambda: (3, 4)],
                    ComObject(mem), IID_ISHAPES, desc)
    counts = (mem.live_count, mem.closure_count)
    with pytest.raises(AutomationError) as info:
        invoke(ref, dispid, [])
    assert str(info.value) == message
    assert info.value.hresult == DISP_E_TYPEMISMATCH
    assert (mem.live_count, mem.closure_count) == counts
    # the raw slot returns the same HRESULT and leaves the result slot empty
    assert raw_invoke(mem, ref, dispid, []) == (DISP_E_TYPEMISMATCH, VT_EMPTY, 0)
    assert (mem.live_count, mem.closure_count) == counts


def _renamed(sigs, i, name):
    return sigs[:i] + [LiftedSig(name, sigs[i].params, sigs[i].ret)] + sigs[i + 1:]


@pytest.mark.parametrize("sigs,n_impls,message", [
    (calc_sigs(), 3, "signature and implementation lists are not aligned"),
    (_renamed(calc_sigs(), 1, "ADD"), 4, "dispatch name clash on 'ADD'"),
], ids=["not_aligned", "name_clash"])
def test_a_dual_that_cannot_be_built_is_pinned(mem, sigs, n_impls, message):
    obj = ComObject(mem)
    counts = (mem.live_count, mem.closure_count)
    with pytest.raises(ComError) as info:
        make_dual(sigs, [lambda *a: 0] * n_impls, obj, IID_ICALC, new_desc())
    assert str(info.value) == message
    assert (mem.live_count, mem.closure_count) == counts
    assert IID_ICALC.guid not in obj._interfaces
