from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from conftest import read_idl
from mlidl.idl import (
    BaseType,
    Const,
    DuplicateName,
    FuncType,
    IdlUnit,
    Interface,
    NamedType,
    ParseError,
    PtrType,
    RecordDecl,
    SmlName,
    Typedef,
    parse_text,
    pretty,
    resolve,
)
from mlidl.idl.ast import ArrayType


def test_time_unit_shape(time_unit):
    decls = time_unit.decls
    records = [d for d in decls if isinstance(d, RecordDecl)]
    ifaces = [d for d in decls if isinstance(d, Interface)]
    assert len(records) == 1 and len(ifaces) == 1
    tv = records[0]
    assert tv.name == "timeval_t"
    assert [(f.name, f.type) for f in tv.fields] == [
        ("sec", BaseType("long")), ("usec", BaseType("long")),
    ]
    time = ifaces[0]
    assert [op.name for op in time.ops] == ["gettime", "timeofday"]
    gettime = time.ops[0]
    assert [p.dir for p in gettime.params] == ["out", "out", "out"]
    assert all(p.type == PtrType(NamedType("timeval_t")) for p in gettime.params)
    assert len(time.ops[1].params) == 1


def test_nested_typedef_is_hoisted_before_interface(time_unit):
    names = [type(d).__name__ for d in time_unit.decls]
    assert names.index("RecordDecl") < names.index("Interface")


def test_win32_corpus_interfaces(win32_unit):
    user = win32_unit.find("User")
    gdi = win32_unit.find("Gdi")
    assert [op.name for op in user.ops] == [
        "RegisterClassExA", "UnregisterClassA", "CreateWindowExA",
        "ShowWindow", "UpdateWindow", "BeginPaint", "EndPaint", "LoadIconA",
    ]
    assert [op.name for op in gdi.ops] == ["LineTo", "PolyLineTo"]
    assert user.sml_source == "user32.dll"
    assert gdi.sml_source == "gdi32.dll"
    assert win32_unit.sml_name() == "W32"


def test_register_class_param_is_in_ref(win32_unit):
    op = win32_unit.find("User").ops[0]
    (p,) = op.params
    assert p.dir == "in" and p.ref
    assert p.type == PtrType(NamedType("WNDCLASSEX"))


def test_size_is_becomes_array_type(win32_unit):
    poly = win32_unit.find("Gdi").ops[1]
    lppt = poly.params[1]
    assert isinstance(lppt.type, ArrayType)
    assert lppt.type.len_param == "cPoints"
    assert lppt.size_is == "cPoints"


def test_enum_values_are_exact_words(win32_unit):
    opts = win32_unit.find("OPTS")
    values = {v.name: v.value for v in opts.variants}
    assert values["WS_POPUP"] == 0x80000000
    assert values["CS_VREDRAW"] == 1
    assert values["CW_USEDEFAULT"] == 0x80000000
    wm = win32_unit.find("WM")
    wm_values = {v.name: v.value for v in wm.variants}
    assert wm_values["WM_CREATE"] == 1
    assert wm_values["WM_DESTROY"] == 2
    assert wm_values["WM_SIZE"] == 5
    assert wm_values["WM_PAINT"] == 0xF
    assert wm_values["WM_TIMER"] == 0x113


def test_mixed_decimal_and_hex_in_one_enum(win32_unit):
    opts = win32_unit.find("OPTS")
    forms = {v.name: v.hex for v in opts.variants}
    assert forms["CS_VREDRAW"] is False
    assert forms["WS_POPUP"] is True


def test_func_typedef():
    unit = parse_text(
        "typedef int *WNDPROC ([in] int hwnd, [in] int msg);")
    td = unit.decls[0]
    assert isinstance(td, Typedef) and isinstance(td.type, FuncType)
    assert td.type.ret == BaseType("int")
    assert [p.name for p in td.type.params] == ["hwnd", "msg"]


def test_iunknown_style_declaration_parses():
    unit = parse_text("""
        interface IFoo {
          HRESULT QueryInterface ([in] const IID& iid,
                                  [out,iid_is (iid)] void **ppv);
          unsigned long AddRef ();
          unsigned long Release ();
        }
    """)
    iface = unit.decls[0]
    qi = iface.ops[0]
    assert qi.params[0].type == PtrType(NamedType("IID"))
    assert qi.params[1].iid_is == "iid"
    assert qi.params[1].type == PtrType(PtrType(BaseType("void")))
    assert iface.ops[1].ret == BaseType("unsigned long")
    resolve(unit)


def test_undefined_parent_is_resolve_error():
    unit = parse_text("interface X : Y { }")
    from mlidl.idl import UnresolvedType
    with pytest.raises(UnresolvedType):
        resolve(unit)


def test_parent_iunknown_is_predeclared():
    resolve(parse_text("interface X : IUnknown { }"))


def test_duplicate_decl_name():
    with pytest.raises(DuplicateName):
        parse_text("typedef int A; typedef long A;")


def test_duplicate_op_name():
    with pytest.raises(DuplicateName):
        parse_text("interface I { void f (); void f (); }")


def test_duplicate_param_name():
    with pytest.raises(DuplicateName):
        parse_text("interface I { void f ([in] int a, [in] int a); }")


def test_duplicate_sml_name():
    with pytest.raises(ParseError):
        parse_text('sml_name ("A"); sml_name ("B");')


def test_unknown_annotation():
    with pytest.raises(ParseError):
        parse_text('frobnicate ("A");')


def test_rpc_only_attribute_rejected_with_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse_text('[uuid ("123")] interface I { }')
    assert "RPC" in str(exc.value)


def test_unknown_attribute_rejected():
    with pytest.raises(ParseError):
        parse_text("interface I { void f ([in,frob] int a); }")


def test_enum_value_must_fit_32_bits():
    with pytest.raises(ParseError):
        parse_text("typedef enum { A = 4294967296 } E;")


def test_pointer_depth_limited_to_two():
    with pytest.raises(ParseError):
        parse_text("interface I { void f ([out] int ***p); }")


def test_parse_error_carries_expected_set_and_location():
    with pytest.raises(ParseError) as exc:
        parse_text("typedef int ;")
    assert exc.value.line == 1
    assert exc.value.expected


def test_string_const_value_stored_verbatim(win32_unit):
    const = win32_unit.find("IDI_APPLICATION")
    assert const.value == "#32512"


@pytest.mark.parametrize("name", ["win32.idl", "time.idl", "bar.idl"])
def test_pretty_round_trip(name):
    unit = parse_text(read_idl(name), name)
    text = pretty(unit)
    again = parse_text(text, name + "#pp")
    assert again.decls == unit.decls
    # and pretty is a fixed point
    assert pretty(again) == text


def test_idispatch_style_declaration_parses():
    unit = parse_text("""
        typedef int UINT_T;
        typedef int LCID;
        typedef int DISPID;
        typedef int WORD_T;
        typedef [string] char *LPOLESTR;
        typedef struct { int tag; int value; } VARIANT;
        typedef struct { int argc; int args; } DISPPARAMS;
        typedef struct { int code; } EXCEPINFO;

        interface IDispatchLike : IUnknown {
          HRESULT GetTypeInfoCount ([out] UINT_T* pctinfo);
          HRESULT GetIDsofNames ([in] const IID& riid,
                                 [in,size_is (cNames)] LPOLESTR* rgszNames,
                                 [in] UINT_T cNames,
                                 [in] LCID lcid,
                                 [out, size_is (cNames)] DISPID* rgDispId);
          HRESULT Invoke ([in] DISPID dispIdMember,
                          [in] const IID& riid,
                          [in] LCID lcid,
                          [in] WORD_T wFlags,
                          [in,out] DISPPARAMS* pDispParams,
                          [out] VARIANT* pVarResult,
                          [out] EXCEPINFO* pExcepInfo,
                          [out] UINT_T* puArgErr);
        }
    """)
    iface = unit.find("IDispatchLike")
    assert iface.parent == "IUnknown"
    invoke = iface.ops[2]
    assert invoke.params[4].dir == "inout"
    resolve(unit)


def test_size_is_on_non_pointer_rejected():
    with pytest.raises(ParseError):
        parse_text("interface I { void f ([in,size_is (n)] int a, [in] int n); }")


_AWKWARD = hs.text(alphabet=hs.sampled_from('\\"\n\r\t\x00a\'é'), max_size=12)


@settings(max_examples=100, deadline=None)
@example(name='a"b', source="x\\y", value="a\nb", other="")
@given(name=_AWKWARD, source=hs.one_of(hs.none(), _AWKWARD), value=_AWKWARD,
       other=hs.text(max_size=8))
def test_pretty_round_trips_strings_the_lexer_must_unescape(name, source, value, other):
    unit = IdlUnit((
        SmlName(name),
        Const("X", PtrType(BaseType("char")), value + other),
        Interface("I", (), sml_source=source),
    ), "s.idl")
    text = pretty(unit)
    assert parse_text(text, "s.idl").decls == unit.decls
    assert pretty(parse_text(text, "s.idl")) == text

