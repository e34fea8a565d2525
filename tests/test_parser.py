from __future__ import annotations

import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import reference_lowering
from conftest import IDL_DIR, SHIPPED_IDL, read_idl
from pretty import pretty
from mlidl.binding import (
    BindingError,
    build_binding,
    emit_binding_file,
    emit_sig_text,
    load_binding_file,
    load_manifest,
)
from mlidl.idl import IdlError, ast, parse_text, parse_unit, resolve, tokenize
from mlidl.idl.ast import (
    BASE_TYPES,
    ArrayType,
    BaseType,
    Const,
    FuncType,
    IdlUnit,
    Interface,
    NamedType,
    OpDecl,
    ParamDecl,
    PtrType,
    RecordDecl,
    SmlName,
    Typedef,
)
from mlidl.idl.errors import DuplicateName, ParseError
from mlidl.idl.resolve import _PRELUDE, symbol_table


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
    user = symbol_table(win32_unit)["User"]
    gdi = symbol_table(win32_unit)["Gdi"]
    assert [op.name for op in user.ops] == [
        "RegisterClassExA", "UnregisterClassA", "CreateWindowExA",
        "ShowWindow", "UpdateWindow", "BeginPaint", "EndPaint", "LoadIconA",
    ]
    assert [op.name for op in gdi.ops] == ["LineTo", "PolyLineTo"]
    assert user.sml_source == "user32.dll"
    assert gdi.sml_source == "gdi32.dll"
    assert win32_unit.sml_name() == "W32"


def test_register_class_param_is_in_ref(win32_unit):
    op = symbol_table(win32_unit)["User"].ops[0]
    (p,) = op.params
    assert p.dir == "in" and p.ref
    assert p.type == PtrType(NamedType("WNDCLASSEX"))


def test_size_is_becomes_array_type(win32_unit):
    poly = symbol_table(win32_unit)["Gdi"].ops[1]
    lppt = poly.params[1]
    assert isinstance(lppt.type, ArrayType)
    assert lppt.type.len_param == "cPoints"
    assert lppt.size_is == "cPoints"


def test_enum_values_are_exact_words(win32_unit):
    opts = symbol_table(win32_unit)["OPTS"]
    values = {v.name: v.value for v in opts.variants}
    assert values["WS_POPUP"] == 0x80000000
    assert values["CS_VREDRAW"] == 1
    assert values["CW_USEDEFAULT"] == 0x80000000
    wm = symbol_table(win32_unit)["WM"]
    wm_values = {v.name: v.value for v in wm.variants}
    assert wm_values["WM_CREATE"] == 1
    assert wm_values["WM_DESTROY"] == 2
    assert wm_values["WM_SIZE"] == 5
    assert wm_values["WM_PAINT"] == 0xF
    assert wm_values["WM_TIMER"] == 0x113


def test_mixed_decimal_and_hex_in_one_enum(win32_unit):
    opts = symbol_table(win32_unit)["OPTS"]
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


def test_a_base_type_node_names_a_base_type():
    with pytest.raises(ValueError) as exc:
        BaseType("float")
    assert str(exc.value) == "not a base type: 'float'"


def test_an_operation_result_may_start_with_const():
    # inside an interface, `const` starts a const declaration or an
    # operation; the token after the declarator tells them apart
    unit = parse_text("""
        typedef int T;
        interface I {
          const T f ();
          const int K = 3;
          const unsigned long g ([in] int a);
        }
    """)
    assert unit.decls[1] == Const("K", BaseType("int"), 3)
    f, g = unit.decls[2].ops
    assert f == OpDecl("f", NamedType("T", const=True), ())
    assert g.ret == BaseType("unsigned long") and [p.name for p in g.params] == ["a"]
    resolve(unit)


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
    from mlidl.idl.errors import UnresolvedType
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
    const = symbol_table(win32_unit)["IDI_APPLICATION"]
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
    iface = symbol_table(unit)["IDispatchLike"]
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



# parameters with every attribute pretty writes; types with `const`, `*`,
# `**`, `&` and a `&` under `*`s, as parameters and as operation results;
# and int consts.  Parse reads neither the names nor the types against a
# declaration, so any of them will do
_NAMES = hs.sampled_from(["a", "b", "n", "riid", "T", "HWND"])


@hs.composite
def _types(draw):
    """A type: a `&` binds first, then up to two `*`s."""
    t = draw(hs.one_of(hs.sampled_from(BASE_TYPES).map(BaseType),
                       hs.builds(NamedType, _NAMES, const=hs.booleans())))
    spelling = draw(hs.sampled_from(["", "*", "**", "&", "&*", "&**"]))
    for c in spelling:
        t = PtrType(t, amp=c == "&")
    return t


@hs.composite
def _params(draw, name):
    t = draw(_types())
    size_is = draw(hs.none() | _NAMES) if isinstance(t, PtrType) else None
    return ParamDecl(name, ArrayType(t.to, size_is) if size_is else t,
                     dir=draw(hs.sampled_from(["in", "out", "inout"])),
                     ref=draw(hs.booleans()), string=draw(hs.booleans()),
                     size_is=size_is, iid_is=draw(hs.none() | _NAMES))


@hs.composite
def _units(draw):
    ops = []
    for op in draw(hs.lists(hs.sampled_from(["f", "g", "h"]), unique=True, max_size=3)):
        names = draw(hs.lists(_NAMES, unique=True, max_size=4))
        ops.append(OpDecl(op, draw(_types()), tuple(draw(_params(n)) for n in names)))
    return IdlUnit((
        Const("N", BaseType(draw(hs.sampled_from(["int", "unsigned long"]))),
              draw(hs.integers(0, 0xFFFFFFFF))),
        Interface("I", tuple(ops)),
    ), "g.idl")


@settings(max_examples=100, deadline=None)
@given(unit=_units())
def test_pretty_round_trips_every_attribute_and_spelling(unit):
    text = pretty(unit)
    assert parse_text(text, "g.idl").decls == unit.decls
    assert pretty(parse_text(text, "g.idl")) == text


def test_pretty_refuses_what_no_declaration_spells():
    with pytest.raises(TypeError, match="^not a declaration: ParamDecl"):
        pretty(IdlUnit((ParamDecl("a", BaseType("int")),)))
    with pytest.raises(TypeError, match="^cannot format type ArrayType"):
        pretty(IdlUnit((Typedef("T", ArrayType(BaseType("int"), "n")),)))


# one input for each way the parser refuses a text: class, message, line,
# column and expected set
_PARSE_ERRORS = [
    ("duplicate_sml_name", 'sml_name ("A");\nsml_name ("B");\ntypedef int T;',
     ParseError, "duplicate sml_name annotation", 2, 1, set()),
    ("duplicate_sml_name_at_end", 'sml_name ("A");\nsml_name ("B");',
     ParseError, "duplicate sml_name annotation", 2, 1, set()),
    ("not_a_declaration", 'frobnicate ("A");',
     ParseError, "expected a declaration, found 'frobnicate'", 1, 1,
     {"const", "interface", "sml_name", "typedef"}),
    ("duplicate_name", "typedef int A;\ntypedef long A;",
     DuplicateName, "duplicate name 'A' (already declared as typedef)", 2, 14, set()),
    ("duplicate_name_of_variant", "typedef enum { A = 1 } E;\nconst int A = 2;",
     DuplicateName, "duplicate name 'A' (already declared as enum variant)", 2, 11, set()),
    ("function_typedef_without_star", "typedef int F ([in] int a);",
     ParseError, "function typedef requires the `*NAME` spelling", 1, 13, set()),
    ("function_typedef_with_amp", "typedef int &F ([in] int a);",
     ParseError, "function typedef requires the `*NAME` spelling", 1, 14, set()),
    ("duplicate_field", "typedef struct {\n  int a;\n  long a; } R;",
     DuplicateName, "duplicate field 'a'", 3, 8, set()),
    ("enum_value_too_wide", "typedef enum { A = 4294967296 } E;",
     ParseError, "enum value 4294967296 does not fit in 32 bits", 1, 20, set()),
    ("enum_value_not_literal", "typedef enum { A = B } E;",
     ParseError, "expected an integer or 0wx word literal", 1, 20, {"int", "word"}),
    ("const_value_not_literal", "const int X = Y;",
     ParseError, "expected a literal", 1, 15, {"char", "int", "string", "word"}),
    ("duplicate_operation", "interface I {\n  void f ();\n  int f (); }",
     DuplicateName, "duplicate operation 'f'", 3, 3, set()),
    ("duplicate_parameter", "interface I { void f ([in] int a,\n  [in] long a); }",
     DuplicateName, "duplicate parameter 'a'", 2, 8, set()),
    ("size_is_on_non_pointer",
     "interface I { void f ([in,size_is (n)] int a, [in] int n); }",
     ParseError, "size_is requires a pointer parameter", 1, 44, set()),
    ("attribute_name_missing", "interface I { void f ([in, 3] int a); }",
     ParseError, "expected an attribute name", 1, 28, set()),
    ("attribute_argument_missing", "interface I { void f ([size_is (3)] int *a); }",
     ParseError, "expected an attribute argument", 1, 33, set()),
    ("rpc_only_attribute", '[uuid ("123")] interface I { }',
     ParseError, "attribute 'uuid' is RPC-distribution IDL and is not part of this dialect",
     1, 2, set()),
    ("param_attribute_on_typedef", "typedef [in] int A;",
     ParseError, "attribute 'in' not allowed on a typedef", 1, 10, set()),
    ("param_attribute_on_interface", "[in] interface I { }",
     ParseError, "attribute 'in' not allowed on a interface", 1, 2, set()),
    ("interface_attribute_on_param", 'interface I { void f ([sml_source ("x")] int a); }',
     ParseError, "attribute 'sml_source' not allowed on a param", 1, 24, set()),
    ("duplicate_attribute", "interface I { void f ([in,in] int a); }",
     ParseError, "duplicate attribute 'in'", 1, 27, set()),
    ("not_a_type", "interface I { void f ([in] 3 a); }",
     ParseError, "expected a type, found '3'", 1, 28, {"type"}),
    ("pointer_depth", "interface I { void f ([out] int ***p); }",
     ParseError, "pointer depth greater than 2 is not supported", 1, 35, set()),
    ("expect_ident", "typedef int ;",
     ParseError, "expected 'ident', found ';'", 1, 13, {"ident"}),
    ("expect_at_eof", "typedef int A",
     ParseError, "expected ';', found 'eof'", 1, 14, {";"}),
    ("expect_keyword", '[sml_source ("x")] typedef int A;',
     ParseError, "expected 'interface', found 'typedef'", 1, 20, {"interface"}),
]


@pytest.mark.parametrize("text,cls,message,line,col,expected",
                         [c[1:] for c in _PARSE_ERRORS],
                         ids=[c[0] for c in _PARSE_ERRORS])
def test_parse_error_is_pinned(text, cls, message, line, col, expected):
    with pytest.raises(ParseError) as info:
        parse_text(text, "t.idl")
    e = info.value
    assert (type(e), e.message, e.line, e.col, e.source, e.expected) == \
        (cls, message, line, col, "t.idl", expected)


def _dump(x):
    """A dataclass tree as nested tuples of every field, locations and the
    fields that equality leaves out included."""
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(_dump(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(_dump(y) for y in x)
    return x


def _mutants(toks):
    """Each token deleted, duplicated, and swapped with the next; eof stays."""
    body, eof = toks[:-1], toks[-1:]
    for i in range(len(body)):
        yield body[:i] + body[i + 1:] + eof
        yield body[:i + 1] + body[i:] + eof
        if i + 1 < len(body):
            yield body[:i] + [body[i + 1], body[i]] + body[i + 2:] + eof


# sha256 over the outcome of every mutant, in order: the unit as `_dump`
# gives it, or the error's class, message, line, column and expected set
_MUTANT_DIGESTS = {
    "win32.idl": "7fac16af773e95a89373a68f1d6fe9d0f6eaa65fb315dd4153858f19284e0984",
    "time.idl": "c4052f737b15948a795b0b531d4794bb2b5a9c8a8973901365a38bc65a756721",
    "bar.idl": "d89482dee1e165e958108db512d4fe4fc38c6cc162daca17ff359d23bad15386",
}


@pytest.mark.parametrize("name", sorted(_MUTANT_DIGESTS))
def test_token_mutants_parse_as_pinned(name):
    digest = hashlib.sha256()
    for toks in _mutants(tokenize(read_idl(name), name)):
        try:
            outcome = _dump(parse_unit(toks, name))
        except ParseError as e:
            outcome = (type(e).__name__, e.message, e.line, e.col, sorted(e.expected))
        digest.update(repr(outcome).encode())
    assert digest.hexdigest() == _MUTANT_DIGESTS[name]


# -- the nodes are plain dataclasses, and no stage changes one ----------------


def _compiled_units():
    """Each shipped file in every mode and level, and the unit of every
    form of `tests/reference_lowering.py`, as (unit, mode, level, manifest)."""
    bar = load_manifest(IDL_DIR / "bar.manifest.json")
    for path in SHIPPED_IDL:
        for mode, level in itertools.product(("static", "dynamic", "com"),
                                             ("auto", "abstract")):
            yield (parse_text(path.read_text(encoding="utf-8"), path.name), mode, level,
                   bar if path.name == "bar.idl" else None)
    for form in reference_lowering.FORMS:
        try:
            yield parse_text(reference_lowering.unit_text(form), "form.idl"), \
                "dynamic", "auto", None
        except IdlError:
            pass


def test_no_stage_mutates_the_ast():
    prelude = _dump(tuple(_PRELUDE.items()))
    for unit, mode, level, manifest in _compiled_units():
        before = _dump(unit)
        try:
            resolve(unit)
            desc = build_binding(unit, mode, level, manifest)
            emit_sig_text(desc)
            load_binding_file(emit_binding_file(desc))
        except (IdlError, BindingError):
            pass
        assert _dump(unit) == before, (unit.source_name, mode, level)
    assert _dump(tuple(_PRELUDE.items())) == prelude


# one node of each class; `_UNCOMPARED` gives two values of each field that
# equality leaves out
_NODES = [
    ast.Loc(1, 2), BaseType("int"), NamedType("T"), PtrType(BaseType("int")),
    ArrayType(BaseType("int"), "n"), FuncType((ParamDecl("a", BaseType("int")),), NamedType("T")),
    ParamDecl("a", PtrType(NamedType("T")), "inout", True, True, None, "riid"),
    ast.FieldDecl("x", BaseType("long")), Typedef("T", BaseType("int"), string=True),
    RecordDecl("R", (ast.FieldDecl("x", BaseType("long")),), tag="tagR"),
    ast.EnumVariant("A", 16), ast.EnumDecl("E", (ast.EnumVariant("A", 16),)),
    Const("C", BaseType("int"), 3), OpDecl("f", BaseType("void"), ()),
    Interface("I", (OpDecl("f", BaseType("void"), ()),), parent="IUnknown", sml_source="s"),
    SmlName("m"), IdlUnit((SmlName("m"),), "u.idl"),
]
_UNCOMPARED = {"loc": (None, ast.Loc(3, 4)), "const": (False, True), "amp": (False, True),
               "hex": (False, True)}


@pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
def test_equality_and_hash_cover_the_compared_fields_only(node):
    fields = dataclasses.fields(node)
    assert hash(node) == hash(tuple(getattr(node, f.name) for f in fields if f.compare))
    for f in fields:
        if not f.compare:
            a, b = (dataclasses.replace(node, **{f.name: v}) for v in _UNCOMPARED[f.name])
            assert _dump(a) != _dump(b)
            assert a == b and hash(a) == hash(b)


def test_every_node_class_and_uncompared_field_is_checked():
    classes = {c for c in vars(ast).values()
               if isinstance(c, type) and dataclasses.is_dataclass(c)}
    assert {type(n) for n in _NODES} == classes
    assert {f.name for c in classes for f in dataclasses.fields(c) if not f.compare} \
        == set(_UNCOMPARED)
