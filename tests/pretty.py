"""Canonical IDL formatter, an oracle for the parser: parse(pretty(unit))
equals unit structurally, and pretty is a fixed point of that round trip.
Nothing in the pipeline prints IDL, so it lives with the tests."""

from __future__ import annotations

from typing import Union

from mlidl.idl import ast


def pretty(unit: ast.IdlUnit) -> str:
    out: list[str] = []
    for d in unit.decls:
        out.append(_decl(d))
    return "\n".join(out) + "\n"


def _decl(d: ast.Decl) -> str:
    if isinstance(d, ast.SmlName):
        return f"sml_name ({_literal(d.value)});\n"
    if isinstance(d, ast.Typedef):
        attrs = "[string] " if d.string else ""
        if isinstance(d.type, ast.FuncType):
            ret = _type(d.type.ret)
            params = ", ".join(_param(p) for p in d.type.params)
            return f"typedef {ret} *{d.name} ({params});\n"
        return f"typedef {attrs}{_type_prefix(d.type)}{d.name};\n"
    if isinstance(d, ast.RecordDecl):
        tag = f" {d.tag}" if d.tag else ""
        lines = [f"typedef struct{tag} {{"]
        for f in d.fields:
            lines.append(f"  {_type_prefix(f.type)}{f.name};")
        lines.append(f"}} {d.name};\n")
        return "\n".join(lines)
    if isinstance(d, ast.EnumDecl):
        tag = f" {d.tag}" if d.tag else ""
        lines = [f"typedef enum{tag} {{"]
        for v in d.variants:
            value = f"0wx{v.value:x}" if v.hex else str(v.value)
            lines.append(f"  {v.name} = {value},")
        if d.variants:
            lines[-1] = lines[-1].rstrip(",")
        lines.append(f"}} {d.name};\n")
        return "\n".join(lines)
    if isinstance(d, ast.Const):
        return f"const {_type_prefix(d.type)}{d.name} = {_literal(d.value)};\n"
    if isinstance(d, ast.Interface):
        lines = []
        if d.sml_source is not None:
            lines.append(f"[sml_source ({_literal(d.sml_source)})]")
        parent = f" : {d.parent}" if d.parent else ""
        lines.append(f"interface {d.name}{parent} {{")
        for op in d.ops:
            params = ", ".join(_param(p) for p in op.params)
            lines.append(f"  {_type(op.ret)} {op.name} ({params});")
        lines.append("}\n")
        return "\n".join(lines)
    raise TypeError(f"not a declaration: {d!r}")


def _param(p: ast.ParamDecl) -> str:
    attrs: list[str] = []
    if p.dir == "inout":
        attrs += ["in", "out"]
    else:
        attrs.append(p.dir)
    if p.ref:
        attrs.append("ref")
    if p.string:
        attrs.append("string")
    if p.size_is is not None:
        attrs.append(f"size_is ({p.size_is})")
    if p.iid_is is not None:
        attrs.append(f"iid_is ({p.iid_is})")
    ptype = p.type
    if isinstance(ptype, ast.ArrayType):
        # spelled as a pointer param carrying size_is
        return f"[{','.join(attrs)}] {_type_prefix(ast.PtrType(ptype.elem))}{p.name}"
    return f"[{','.join(attrs)}] {_type_prefix(ptype)}{p.name}"


def _type(t: ast.IdlType) -> str:
    return _type_prefix(t).rstrip()


def _type_prefix(t: ast.IdlType) -> str:
    """Type as a declaration prefix, e.g. ``int ``, ``char *`` or
    ``IID& *``: the parser reads a `&` first and the `*`s after it."""
    stars = ""
    while isinstance(t, ast.PtrType) and not t.amp:
        stars += "*"
        t = t.to
    amp = ""
    if isinstance(t, ast.PtrType):
        amp = "&"
        t = t.to
    if isinstance(t, ast.BaseType):
        base = t.name
    elif isinstance(t, ast.NamedType):
        base = ("const " if t.const else "") + t.name
    else:
        raise TypeError(f"cannot format type {t!r}")
    return f"{base}{amp} {stars}"


_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
                          "\t": "\\t", "\0": "\\0"})


def _literal(v: Union[int, str]) -> str:
    """`v` as IDL text: every string pretty writes (an `sml_name`, an
    `sml_source`, a string const) with its backslashes, double quotes,
    newlines, CRs, tabs and NULs escaped as the lexer reads them back."""
    if isinstance(v, int):
        return str(v)
    return '"' + v.translate(_ESCAPES) + '"'
