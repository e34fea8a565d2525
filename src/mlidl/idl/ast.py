"""AST for the reduced IDL dialect.

Source locations and purely lexical details (hex vs decimal literals, the
`&` reference spelling, `const` on a named type) are carried for diagnostics
and pretty-printing but excluded from equality and hash, so that parse ->
pretty -> parse is an identity on the comparable part of the tree.

The nodes are plain dataclasses with `unsafe_hash=True`, not frozen ones:
a frozen dataclass's `__init__` sets every field through
`object.__setattr__`, which made an 8-field `ParamDecl` cost about four
times as much to build on CPython 3.11, and the parser builds a node every
few tokens.  They keep the hash over their compared fields, and no stage
assigns to a node after the parser has built it: the resolver, the
builder, both emitters and the loader only read the tree, and the
resolver's prelude is shared by every unit.  `test_no_stage_mutates_the_ast`
in `tests/test_parser.py` pins that.  The AST carries no cache; the binding
model, which does, stays frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

BASE_TYPES = ("void", "int", "long", "boolean", "char", "wchar_t", "unsigned long", "UINT")


@dataclass(unsafe_hash=True)
class Loc:
    line: int
    col: int


def _loc_field() -> Loc:
    return field(default=None, compare=False, repr=False)  # type: ignore[return-value]


class IdlType:
    """Base class for type expressions."""


@dataclass(unsafe_hash=True)
class BaseType(IdlType):
    name: str  # one of BASE_TYPES

    def __post_init__(self) -> None:
        if self.name not in BASE_TYPES:
            raise ValueError(f"not a base type: {self.name!r}")


@dataclass(unsafe_hash=True)
class NamedType(IdlType):
    name: str
    const: bool = field(default=False, compare=False)


@dataclass(unsafe_hash=True)
class PtrType(IdlType):
    to: IdlType
    amp: bool = field(default=False, compare=False)  # spelled `&` rather than `*`


@dataclass(unsafe_hash=True)
class ArrayType(IdlType):
    """Conformant array: a pointer param with a size_is attribute."""

    elem: IdlType
    len_param: str


@dataclass(unsafe_hash=True)
class FuncType(IdlType):
    params: tuple["ParamDecl", ...]
    ret: IdlType


@dataclass(unsafe_hash=True)
class ParamDecl:
    name: str
    type: IdlType
    dir: str = "in"                      # in | out | inout
    ref: bool = False
    string: bool = False
    size_is: Optional[str] = None
    iid_is: Optional[str] = None
    loc: Loc = _loc_field()


@dataclass(unsafe_hash=True)
class FieldDecl:
    name: str
    type: IdlType
    loc: Loc = _loc_field()


@dataclass(unsafe_hash=True)
class Typedef:
    name: str
    type: IdlType
    string: bool = False                 # [string] attribute
    loc: Loc = _loc_field()


@dataclass(unsafe_hash=True)
class RecordDecl:
    name: str
    fields: tuple[FieldDecl, ...]
    tag: Optional[str] = None            # struct tag, e.g. tagPOINT
    loc: Loc = _loc_field()


@dataclass(unsafe_hash=True)
class EnumVariant:
    name: str
    value: int                           # 32-bit word
    hex: bool = field(default=False, compare=False)  # spelled 0wx...
    loc: Loc = _loc_field()


@dataclass(unsafe_hash=True)
class EnumDecl:
    name: str
    variants: tuple[EnumVariant, ...]
    tag: Optional[str] = None
    loc: Loc = _loc_field()


@dataclass(unsafe_hash=True)
class Const:
    name: str
    type: IdlType
    value: Union[int, str]
    loc: Loc = _loc_field()


@dataclass(unsafe_hash=True)
class OpDecl:
    name: str
    ret: IdlType
    params: tuple[ParamDecl, ...]
    loc: Loc = _loc_field()


@dataclass(unsafe_hash=True)
class Interface:
    name: str
    ops: tuple[OpDecl, ...]
    parent: Optional[str] = None
    sml_source: Optional[str] = None     # [sml_source ("...")] attribute
    loc: Loc = _loc_field()


@dataclass(unsafe_hash=True)
class SmlName:
    """Top-level `sml_name ("...")` annotation."""

    value: str
    loc: Loc = _loc_field()


Decl = Union[Typedef, RecordDecl, EnumDecl, Const, Interface, SmlName]


@dataclass(unsafe_hash=True)
class IdlUnit:
    decls: tuple[Decl, ...]
    source_name: str = "<idl>"

    def sml_name(self) -> Optional[str]:
        for d in self.decls:
            if isinstance(d, SmlName):
                return d.value
        return None
