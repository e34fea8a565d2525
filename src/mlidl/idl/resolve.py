"""Name and attribute resolution over a parsed unit.

Every symbol table starts from a prelude of the predeclared COM names, as
ordinary declarations: HRESULT is an int typedef, IID an empty record and
IUnknown a parentless interface; a unit's own declaration replaces one.
Resolution validates every type reference, size_is/iid_is attribute targets,
typedef cycles and interface inheritance; the unit itself is returned
unchanged.  The checks are module-level functions of the symbol table and the
unit, so no closure refers back to the unit and reference counting alone
frees it.
"""

from __future__ import annotations

from typing import Optional

from mlidl.idl import ast
from mlidl.idl.errors import BadAttrTarget, InheritanceCycle, UnresolvedType

_PRELUDE = {
    "HRESULT": ast.Typedef("HRESULT", ast.BaseType("int")),
    "IID": ast.RecordDecl("IID", ()),
    "IUnknown": ast.Interface("IUnknown", ()),
}

_INTEGER_BASES = frozenset({"int", "long", "unsigned long", "UINT"})


def symbol_table(unit: ast.IdlUnit) -> dict[str, ast.Decl]:
    table: dict[str, ast.Decl] = dict(_PRELUDE)
    for d in unit.decls:
        if not isinstance(d, ast.SmlName):
            table[d.name] = d
    return table


def resolve(unit: ast.IdlUnit) -> ast.IdlUnit:
    table = symbol_table(unit)
    for d in unit.decls:
        if isinstance(d, ast.Typedef):
            _check_type(d.type, d.loc, table, unit)
            if isinstance(d.type, ast.FuncType):
                _check_params(d.type.params, table, unit)
            else:
                _check_alias_cycle(d, table, unit)
        elif isinstance(d, ast.RecordDecl):
            for f in d.fields:
                _check_type(f.type, f.loc, table, unit)
        elif isinstance(d, ast.Const):
            _check_type(d.type, d.loc, table, unit)
        elif isinstance(d, ast.Interface):
            for op in d.ops:
                _check_type(op.ret, op.loc, table, unit)
                _check_params(op.params, table, unit)

    _check_inheritance(unit, table)
    return unit


def _error(cls: type, msg: str, loc: Optional[ast.Loc], unit: ast.IdlUnit) -> Exception:
    return cls(msg, loc.line if loc else 0, loc.col if loc else 0, unit.source_name)


def _check_type(t: ast.IdlType, loc: Optional[ast.Loc], table: dict[str, ast.Decl],
                unit: ast.IdlUnit) -> None:
    if isinstance(t, ast.NamedType):
        if t.name not in table:
            raise _error(UnresolvedType, f"unresolved type {t.name!r}", loc, unit)
    elif isinstance(t, ast.PtrType):
        _check_type(t.to, loc, table, unit)
    elif isinstance(t, ast.ArrayType):
        _check_type(t.elem, loc, table, unit)
    elif isinstance(t, ast.FuncType):
        _check_type(t.ret, loc, table, unit)
        for p in t.params:
            _check_type(p.type, p.loc, table, unit)
    elif not isinstance(t, ast.BaseType):
        raise _error(UnresolvedType, f"unknown type node {t!r}", loc, unit)


def _check_alias_cycle(d: ast.Typedef, table: dict[str, ast.Decl],
                       unit: ast.IdlUnit) -> None:
    """Refuse a typedef that reaches itself through aliases, pointers or
    arrays.  A record or a callback typedef ends the walk, so either may
    refer to itself."""
    chain = [d.name]
    t = d.type
    while True:
        if isinstance(t, ast.PtrType):
            t = t.to
        elif isinstance(t, ast.ArrayType):
            t = t.elem
        elif not isinstance(t, ast.NamedType) or t.name in chain[1:]:
            return
        elif t.name == d.name:
            raise _error(UnresolvedType, "typedef cycle: " + " -> ".join(chain + [t.name]),
                         d.loc, unit)
        else:
            alias = table.get(t.name)
            if not isinstance(alias, ast.Typedef) or isinstance(alias.type, ast.FuncType):
                return
            chain.append(t.name)
            t = alias.type


def strip_aliases(t: ast.IdlType, table: dict[str, ast.Decl]) -> ast.IdlType:
    """What `t` names once every typedef that is not a callback is followed."""
    seen: set[str] = set()
    while isinstance(t, ast.NamedType):
        if t.name in seen:
            break
        seen.add(t.name)
        d = table.get(t.name)
        if isinstance(d, ast.Typedef) and not isinstance(d.type, ast.FuncType):
            t = d.type
        else:
            break
    return t


def _is_integer(t: ast.IdlType, table: dict[str, ast.Decl]) -> bool:
    t = strip_aliases(t, table)
    return isinstance(t, ast.BaseType) and t.name in _INTEGER_BASES


def _is_iid(t: ast.IdlType, table: dict[str, ast.Decl]) -> bool:
    while isinstance(t, ast.PtrType):
        t = t.to
    t = strip_aliases(t, table)
    return isinstance(t, ast.NamedType) and t.name == "IID"


def _check_params(params: tuple[ast.ParamDecl, ...], table: dict[str, ast.Decl],
                  unit: ast.IdlUnit) -> None:
    index = {p.name: i for i, p in enumerate(params)}
    for i, p in enumerate(params):
        _check_type(p.type, p.loc, table, unit)
        if p.size_is is not None:
            j = index.get(p.size_is)
            if j is None:
                raise _error(BadAttrTarget, f"size_is target {p.size_is!r} is not a "
                             f"parameter of this operation", p.loc, unit)
            if not _is_integer(params[j].type, table):
                raise _error(BadAttrTarget, f"size_is target {p.size_is!r} is not an "
                             f"integer parameter", p.loc, unit)
        if p.iid_is is not None:
            j = index.get(p.iid_is)
            if j is None or j >= i:
                raise _error(BadAttrTarget, f"iid_is target {p.iid_is!r} must name an "
                             f"earlier parameter", p.loc, unit)
            if not _is_iid(params[j].type, table):
                raise _error(BadAttrTarget, f"iid_is target {p.iid_is!r} is not an IID "
                             f"parameter", p.loc, unit)


def _check_inheritance(unit: ast.IdlUnit, table: dict[str, ast.Decl]) -> None:
    for iface in unit.interfaces():
        seen = [iface.name]
        parent = iface.parent
        while parent is not None:
            d = table.get(parent)
            if not isinstance(d, ast.Interface):
                raise _error(UnresolvedType, f"interface {iface.name!r} inherits from "
                             f"undefined interface {parent!r}", iface.loc, unit)
            if parent in seen:
                raise _error(InheritanceCycle, "interface inheritance cycle: "
                             + " -> ".join(seen + [parent]), iface.loc, unit)
            seen.append(parent)
            parent = d.parent
