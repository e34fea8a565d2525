"""Deterministic SML signature text for a binding.

Layout: a fixed header (the generation timestamp is replaced by a content
hash so output is reproducible), a pervasives block, consts, type
declarations, then one sub-block per interface.  Enum types get toInt and
fromInt helpers in a structure of their own.  Lines are 2-space indented
per level and soft-wrapped at 72 columns.
"""

from __future__ import annotations

from mlidl.binding import model

WIDTH = 72

_HEADER = """\
(**********************************************************************
 *
 *  This file was automatically generated by ml-idl
 *  (input sha256 {digest})
 *
 **********************************************************************)
"""

_PERVASIVES = [
    "    (*",
    "     * Pervasives",
    "     *)",
    "    type 'a pointer",
    "    val null : 'a pointer",
    "    val free : 'a pointer -> unit",
    "    type UINT = Word32.word",
]


def emit_sig_text(desc: model.BindingDesc) -> str:
    # hashlib loads OpenSSL's libcrypto, about 3.5 MB of resident memory;
    # only a written .sig needs the digest, so a process that imports the
    # binding package to load or run a binding never pays for it
    import hashlib

    from mlidl.binding.bindfile import emit_binding_file

    digest = hashlib.sha256(emit_binding_file(desc).encode("utf-8")).hexdigest()[:16]
    chunks: list[list[str]] = [list(_PERVASIVES)]

    if desc.consts:
        chunks.append([_const_line(c) for c in desc.consts])

    if desc.aliases:
        block: list[str] = []
        for a in desc.aliases:
            block.extend(_alias_chunk(a, desc.level))
        chunks.append(block)

    for cb in desc.callbacks:
        chunks.append([_callback_line(cb)])

    for rec in desc.records:
        chunks.append(_record_chunk(rec, desc.level))

    for enum in desc.enums:
        chunks.append(_enum_chunk(enum))

    if desc.mode == "com" and desc.clsid is not None:
        chunks.append([f"    val {desc.module}CLSID : Com.CLSID"])

    for iface in desc.interfaces:
        if desc.mode == "com":
            chunks.append(_com_interface_chunk(iface))
        else:
            chunks.append(_interface_chunk(iface))

    body = "\n\n".join("\n".join(chunk) for chunk in chunks)
    sig_name = f"{desc.module.upper()}_SIG"
    return (
        _HEADER.format(digest=digest)
        + "\n"
        + f"signature {sig_name} =\n"
        + "  sig\n"
        + body
        + "\n  end\n"
    )


def _const_line(c: model.ConstDef) -> str:
    return f"    val {c.name} : {c.display}"


def _alias_chunk(a: model.AliasDef, level: str) -> list[str]:
    if level == "abstract":
        return [
            f"    type {a.name}",
            f"    val mk{a.name} : {a.display} -> {a.name}",
            f"    val rd{a.name} : {a.name} -> {a.display}",
        ]
    return [f"    type {a.name} = {a.display}"]


def _callback_line(cb: model.CallbackDef) -> str:
    ret = cb.sig.ret.display if cb.sig.ret is not None else "unit"
    return f"    type {cb.name} = ({_group([p.display for p in cb.sig.ins])} -> {ret})"


def _fields_text(rec: model.RecordLayout) -> str:
    return ",".join(f"{f.name}:{f.display}" for f in rec.fields)


def _braced(prefix: str, rec: model.RecordLayout, suffix: str = "") -> list[str]:
    """`prefix{f1:T1,f2:T2}suffix`, one field per line when over-wide."""
    single = f"{prefix}{{{_fields_text(rec)}}}{suffix}"
    if len(single) <= WIDTH or not rec.fields:
        return [single]
    col = len(prefix) + 1
    lines = []
    for i, f in enumerate(rec.fields):
        text = f"{f.name}:{f.display}"
        if i == 0:
            line = f"{prefix}{{{text}"
        else:
            line = " " * col + text
        if i < len(rec.fields) - 1:
            line += ","
        else:
            line += "}" + suffix
        lines.append(line)
    return lines


def _record_chunk(rec: model.RecordLayout, level: str) -> list[str]:
    if level == "abstract":
        lines = [f"    type {rec.name}"]
        lines += _braced(f"    val mk{rec.name} : ", rec, f" -> {rec.name}")
        lines += _braced(f"    val rd{rec.name} : {rec.name} -> ", rec)
        return lines
    return _braced(f"    datatype {rec.name} = {rec.name} of ", rec)


def _enum_chunk(enum: model.EnumMap) -> list[str]:
    head = f"    datatype {enum.name} = "
    pipe_col = len(head) - 2
    lines = []
    for i, (name, _) in enumerate(enum.variants):
        if i == 0:
            lines.append(f"{head}{name}")
        else:
            lines.append(" " * pipe_col + f"| {name}")
    lines += [
        f"    structure {enum.name} : sig",
        f"      val toInt : {enum.name} -> Int32.int",
        f"      val fromInt : Int32.int -> {enum.name} option",
        "    end",
    ]
    return lines


def _group(parts: list[str]) -> str:
    if not parts:
        return "unit"
    if len(parts) == 1:
        return parts[0]
    return "(" + " * ".join(parts) + ")"


def _val_line(indent: str, name: str, lhs_parts: list[str], rhs: str) -> list[str]:
    """`val name : (A * B) -> R`, wrapping the tuple at WIDTH columns."""
    lhs = _group(lhs_parts)
    single = f"{indent}val {name} : {lhs} -> {rhs}"
    if len(single) <= WIDTH or len(lhs_parts) <= 1:
        return [single]
    open_prefix = f"{indent}val {name} : ("
    col = len(open_prefix)
    tokens = [f"{p} *" for p in lhs_parts[:-1]] + [f"{lhs_parts[-1]}) -> {rhs}"]
    lines = []
    cur = open_prefix
    first_on_line = True
    for tok in tokens:
        candidate = cur + ("" if first_on_line else " ") + tok
        if not first_on_line and len(candidate) > WIDTH:
            lines.append(cur)
            cur = " " * col + tok
        else:
            cur = candidate
        first_on_line = False
    lines.append(cur)
    return lines


def _op_lines(op: model.LiftedSig, indent: str) -> list[str]:
    ins = [p.display for p in op.ins]
    results = [r.display for r in op.results]
    return _val_line(indent, op.name, ins, _group(results))


def _interface_chunk(iface: model.InterfaceDesc) -> list[str]:
    lines = [f"    structure {iface.name} : sig"]
    for op in iface.ops:
        lines.extend(_op_lines(op, "      "))
    lines.append("    end")
    return lines


def _com_interface_chunk(iface: model.InterfaceDesc) -> list[str]:
    name = iface.name
    lines = [
        f"    structure {name} : sig",
        f"      type {name}",
        f"      val {name} : {name} Com.IID",
    ]
    for op in iface.ops:
        if op.kind == "query_interface":
            lines.append(
                f"      val QueryInterface : {name} Com.interface -> "
                f"'a Com.IID -> 'a Com.interface")
            continue
        ins = _group([p.display for p in op.ins])
        results = _group([r.display for r in op.results])
        lines.append(f"      val {op.name} : {name} Com.interface -> {ins} -> {results}")
    lines.append("    end")
    return lines
