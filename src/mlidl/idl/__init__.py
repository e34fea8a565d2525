"""IDL frontend: lexer, parser, resolver."""

from mlidl.idl.ast import (
    BaseType,
    Const,
    Decl,
    EnumDecl,
    EnumVariant,
    FieldDecl,
    FuncType,
    IdlType,
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
from mlidl.idl.errors import (
    BadAttrTarget,
    DuplicateName,
    IdlError,
    InheritanceCycle,
    LexError,
    ParseError,
    ResolveError,
    UnresolvedType,
)
from mlidl.idl.lexer import Token, tokenize
from mlidl.idl.parser import parse_text, parse_unit
from mlidl.idl.resolve import resolve

__all__ = [
    "BadAttrTarget", "BaseType", "Const", "Decl", "DuplicateName", "EnumDecl",
    "EnumVariant", "FieldDecl", "FuncType", "IdlError", "IdlType", "IdlUnit",
    "InheritanceCycle", "Interface", "LexError", "NamedType", "OpDecl",
    "ParamDecl", "ParseError", "PtrType", "RecordDecl", "ResolveError",
    "SmlName", "Token", "Typedef", "UnresolvedType", "parse_text",
    "parse_unit", "resolve", "tokenize",
]
