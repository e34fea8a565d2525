from __future__ import annotations

from dataclasses import dataclass

import pytest

from mlidl.idl import IdlError, parse_text, resolve
from mlidl.idl.errors import BadAttrTarget, InheritanceCycle, UnresolvedType
from mlidl.binding import build_binding
from mlidl.idl import ast


def test_time_unit_resolves_unchanged(time_unit):
    assert resolve(time_unit) is time_unit


def test_win32_unit_resolves(win32_unit):
    assert resolve(win32_unit) is win32_unit


def test_unresolved_type():
    unit = parse_text("interface I { void f ([in] BOGUS x); }")
    with pytest.raises(UnresolvedType):
        resolve(unit)


def test_size_is_missing_target():
    unit = parse_text("interface I { void f ([in,size_is (cNames)] int *a); }")
    with pytest.raises(BadAttrTarget):
        resolve(unit)


def test_size_is_target_must_be_integer():
    unit = parse_text("""
        typedef [string] char *STRING;
        interface I { void f ([in,size_is (s)] int *a, [in] STRING s); }
    """)
    with pytest.raises(BadAttrTarget):
        resolve(unit)


def test_size_is_target_may_follow_the_array(win32_unit):
    # PolyLineTo names cPoints, declared after the array parameter
    resolve(win32_unit)


def test_iid_is_must_name_earlier_param():
    unit = parse_text(
        "interface I { void f ([out,iid_is (iid)] void **ppv, "
        "[in] const IID& iid); }")
    with pytest.raises(BadAttrTarget):
        resolve(unit)


def test_iid_is_target_must_be_iid():
    unit = parse_text(
        "interface I { void f ([in] int iid, "
        "[out,iid_is (iid)] void **ppv); }")
    with pytest.raises(BadAttrTarget):
        resolve(unit)


def test_two_cycle_inheritance():
    unit = parse_text("interface A : B { } interface B : A { }")
    with pytest.raises(InheritanceCycle):
        resolve(unit)


def test_longer_inheritance_chain_ok():
    resolve(parse_text("interface A { } interface B : A { } interface C : B { }"))


def test_hresult_accepted_without_typedef():
    resolve(parse_text("interface I { HRESULT f (); }"))


def test_hresult_accepted_with_typedef(win32_unit):
    # the win32 corpus typedefs HRESULT itself
    resolve(win32_unit)


@dataclass(frozen=True)
class _Opaque(ast.IdlType):
    """A type node that no parser makes."""


_ERROR_CASES = [
    ("typedef", "typedef BOGUS T;",
     UnresolvedType, "unresolved type 'BOGUS'", 1, 1),
    ("record_field", "typedef struct { int a;\n  BOGUS b; } R;",
     UnresolvedType, "unresolved type 'BOGUS'", 2, 9),
    ("const", "\nconst BOGUS X = 1;",
     UnresolvedType, "unresolved type 'BOGUS'", 2, 1),
    ("callback_param", "typedef int *CB ([in] int a,\n   [in] BOGUS b);",
     UnresolvedType, "unresolved type 'BOGUS'", 2, 9),
    ("op_return", "interface I {\n  BOGUS f (); }",
     UnresolvedType, "unresolved type 'BOGUS'", 2, 3),
    ("size_is_missing", "interface I { void f ([in,size_is (n)] int *a); }",
     BadAttrTarget, "size_is target 'n' is not a parameter of this operation",
     1, 40),
    ("size_is_not_integer",
     "typedef [string] char *STRING;\n"
     "interface I { void f ([in,size_is (s)] int *a, [in] STRING s); }",
     BadAttrTarget, "size_is target 's' is not an integer parameter", 2, 40),
    ("iid_is_later",
     "interface I { void f ([out,iid_is (iid)] void **ppv,\n"
     " [in] const IID& iid); }",
     BadAttrTarget, "iid_is target 'iid' must name an earlier parameter", 1, 42),
    ("iid_is_not_iid",
     "interface I { void f ([in] int iid, [out,iid_is (iid)] void **ppv); }",
     BadAttrTarget, "iid_is target 'iid' is not an IID parameter", 1, 56),
    ("undefined_parent", "\ninterface A : B { }",
     UnresolvedType, "interface 'A' inherits from undefined interface 'B'",
     2, 1),
    ("inheritance_cycle", "interface A : B { }\ninterface B : A { }",
     InheritanceCycle, "interface inheritance cycle: A -> B -> A", 1, 1),
    ("type_error_before_inheritance_error",
     "interface A : B { }\ninterface B : A { }\ntypedef BOGUS T;",
     UnresolvedType, "unresolved type 'BOGUS'", 3, 1),
    ("first_type_error_in_declaration_order",
     "typedef struct { NOPE a; } R;\ntypedef BOGUS T;",
     UnresolvedType, "unresolved type 'NOPE'", 1, 23),
]


@pytest.mark.parametrize("text,cls,message,line,col",
                         [c[1:] for c in _ERROR_CASES],
                         ids=[c[0] for c in _ERROR_CASES])
def test_resolve_error_is_pinned(text, cls, message, line, col):
    with pytest.raises(IdlError) as info:
        resolve(parse_text(text, "t.idl"))
    e = info.value
    assert (type(e), e.message, e.line, e.col, e.source) == \
        (cls, message, line, col, "t.idl")
    assert str(e) == f"t.idl:{line}:{col}: {message}"


def test_unknown_type_node_is_pinned():
    unit = ast.IdlUnit((ast.Typedef("T", _Opaque(), loc=ast.Loc(3, 4)),), "h.idl")
    with pytest.raises(IdlError) as info:
        resolve(unit)
    e = info.value
    assert (type(e), e.message, e.line, e.col, e.source) == \
        (UnresolvedType, "unknown type node _Opaque()", 3, 4, "h.idl")


def test_unlocated_error_reports_line_zero():
    unit = ast.IdlUnit((ast.Typedef("T", ast.NamedType("BOGUS")),), "h.idl")
    with pytest.raises(UnresolvedType) as info:
        resolve(unit)
    assert (info.value.line, info.value.col) == (0, 0)
    assert str(info.value) == "h.idl: unresolved type 'BOGUS'"


_TYPEDEF_CYCLES = {    # reported at the first typedef of the cycle
    "two_aliases": ("typedef A B;\ntypedef B A;", "t.idl:1:1: typedef cycle: B -> A -> B"),
    "self": ("\ntypedef A A;", "t.idl:2:1: typedef cycle: A -> A"),
    "pointers": ("typedef B *A;\ntypedef A *B;", "t.idl:1:1: typedef cycle: A -> B -> A"),
    # the cycle, not the size_is target that reaches it, is reported
    "after_an_interface": ("interface I { void f([in] A n, [in, size_is(n)] int *a); }\n"
                           "typedef B A;\ntypedef A B;",
                           "t.idl:2:1: typedef cycle: A -> B -> A"),
}


@pytest.mark.parametrize("name", sorted(_TYPEDEF_CYCLES))
@pytest.mark.parametrize("entry", [resolve, build_binding], ids=["resolve", "build"])
def test_a_typedef_cycle_is_an_unresolved_type(name, entry):
    text, message = _TYPEDEF_CYCLES[name]
    with pytest.raises(UnresolvedType) as info:
        entry(parse_text(text, "t.idl"))
    assert str(info.value) == message


def test_only_a_typedef_on_the_cycle_reports_it():
    with pytest.raises(UnresolvedType) as info:
        resolve(parse_text("typedef B D;\ntypedef A B;\ntypedef B A;", "t.idl"))
    assert str(info.value) == "t.idl:2:1: typedef cycle: B -> A -> B"


@pytest.mark.parametrize("text", [
    "typedef struct tagN { N *next; int v; } N;",
    "typedef int *CB ([in] CB x);",
    "typedef int X;\ntypedef X *Y;\ntypedef Y Z;",
], ids=["record", "callback", "chain"])
def test_a_record_or_callback_may_refer_to_itself(text):
    desc = build_binding(parse_text(text, "t.idl"))
    assert (desc.records, desc.callbacks, desc.aliases) != ((), (), ())


def test_a_typedef_cycle_through_an_array_is_an_unresolved_type():
    # the parser makes an ArrayType only for a size_is parameter
    unit = ast.IdlUnit((
        ast.Typedef("A", ast.ArrayType(ast.NamedType("B"), "n"), loc=ast.Loc(1, 1)),
        ast.Typedef("B", ast.PtrType(ast.NamedType("A")), loc=ast.Loc(2, 1)),
    ), "h.idl")
    with pytest.raises(UnresolvedType) as info:
        resolve(unit)
    assert str(info.value) == "h.idl:1:1: typedef cycle: A -> B -> A"


def test_a_cycle_through_a_declared_iunknown_is_an_inheritance_cycle():
    unit = parse_text("interface IUnknown : IFoo { }\ninterface IFoo : IUnknown { }", "t.idl")
    with pytest.raises(InheritanceCycle) as info:
        resolve(unit)
    assert str(info.value) == \
        "t.idl:1:1: interface inheritance cycle: IUnknown -> IFoo -> IUnknown"


@pytest.mark.parametrize("text", [
    "interface A : IUnknown { }",
    "interface IUnknown { }\ninterface A : IUnknown { }",
    "typedef int HRESULT;\ninterface A { HRESULT f ([in] IID *iid); }",
    "typedef struct { int a; } IID;\ninterface A { void f ([in] IID *iid); }",
], ids=["predeclared", "declared_iunknown", "declared_hresult", "declared_iid"])
def test_the_predeclared_names_resolve_or_are_replaced(text):
    resolve(parse_text(text))
