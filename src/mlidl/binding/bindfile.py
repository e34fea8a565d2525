"""Machine-readable binding files.

JSON with top-level keys `module`, `mode`, `level`, `interfaces`, `enums`,
`records`, `consts`, `callbacks` plus `aliases`; arrays keep source order,
plain integers are decimal, and 32-bit word values are spelled as "0x..."
strings.  `load_binding_file` is the exact inverse of `emit_binding_file`
and reports violations with a JSON-path to the offending field.

The text is byte-identical to `json.dumps(doc, indent=2)` plus a newline,
where `doc` is the file's JSON value, but no `doc` is built for the bulk of
it: each interface's and callback's ops are written straight from their
`LiftedSig`/`ParamSig`, and each `sem` fragment is rendered once per
(SemType, indentation) and found again by identity, which pays because a
description holds one object per distinct type.  The smaller tables go
through `_write`, a writer that lays out dicts and lists itself and hands
each string to the C string encoder (any `indent` sends `json.dumps`
to its pure-Python encoder).  The text is rendered once per description and
kept on it, so the signature's digest and the emitted file share one render.

Loading runs C `json.loads` and then one walk that rebuilds the model.  The
walk interns semantic types through a table that belongs to one
`load_binding_file` call (see `semtypes.sem_from_json`), so the loaded
description, like a built one, holds one object per distinct type.  A
record's `size` and `offset`s must be those of `model.lay_out`, the layout
rule the builder uses, given the records before it in the file.  Every enum,
record or callback that a semantic type names must be declared in the file,
except COM's built-in `record IID`.  The declared names are collected before
the walk, so a type that names an undeclared one is refused where the walk
first meets it, in file order.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from mlidl import semtypes as st
from mlidl.binding import model
from mlidl.binding.build import LEVELS, MODES
from mlidl.semtypes import SchemaViolation   # defined there, raised here too


def emit_binding_file(desc: model.BindingDesc) -> str:
    """The binding file's text, rendered once per description."""
    return desc.binding_text


def render_binding_file(desc: model.BindingDesc) -> str:
    """The binding file's text; `desc.binding_text` keeps it."""
    frags: dict[tuple[int, str], str] = {}
    out = [f'{{{_NL2}"module": {_quote(desc.module)},{_NL2}"mode": {_quote(desc.mode)},'
           f'{_NL2}"level": {_quote(desc.level)},{_NL2}"interfaces": ']
    sep = "["
    for i in desc.interfaces:
        out.append(f'{sep}{_NL4}{{{_NL6}"name": {_quote(i.name)},'
                   f'{_NL6}"source": {_str_or_null(i.source)},'
                   f'{_NL6}"parent": {_str_or_null(i.parent)},'
                   f'{_NL6}"iid": {_str_or_null(i.iid)},{_NL6}"ops": ')
        sep2 = "["
        for op in i.ops:
            out.append(f"{sep2}{_NL8}")
            _write_sig(op, _NL8, out, frags)
            sep2 = ","
        out.append(f"{_NL6}]{_NL4}}}" if i.ops else f"[]{_NL4}}}")
        sep = ","
    out.append(f"{_NL2}]" if desc.interfaces else "[]")
    tables: dict[str, Any] = {
        "enums": [
            {"name": e.name,
             "variants": [[n, f"0x{v:x}"] for n, v in e.variants]}
            for e in desc.enums
        ],
        "records": [
            {"name": r.name,
             "size": r.size,
             "fields": [
                 {"name": f.name, "type": f.display,
                  "sem": st.sem_to_json(f.sem), "offset": f.offset}
                 for f in r.fields
             ]}
            for r in desc.records
        ],
        "consts": [
            {"name": c.name, "type": c.display, "form": c.form,
             "value": f"0x{c.value:x}" if c.form == "word" else c.value}
            for c in desc.consts
        ],
    }
    for key, value in tables.items():
        out.append(f',{_NL2}"{key}": ')
        _write(value, _NL2, out)
    out.append(f',{_NL2}"callbacks": ')
    sep = "["
    for c in desc.callbacks:
        out.append(f'{sep}{_NL4}{{{_NL6}"name": {_quote(c.name)},{_NL6}"sig": ')
        _write_sig(c.sig, _NL6, out, frags)
        out.append(_NL4 + "}")
        sep = ","
    out.append(f"{_NL2}]" if desc.callbacks else "[]")
    out.append(f',{_NL2}"aliases": ')
    _write([{"name": a.name, "type": a.display, "sem": st.sem_to_json(a.sem)}
            for a in desc.aliases], _NL2, out)
    if desc.clsid is not None:
        out.append(f',{_NL2}"clsid": {_quote(desc.clsid)}')
    out.append("\n}\n")
    return "".join(out)


_NL2, _NL4, _NL6, _NL8 = ("\n" + " " * n for n in (2, 4, 6, 8))


def _write_sig(sig: model.LiftedSig, newline: str, out: list[str],
               frags: dict[tuple[int, str], str]) -> None:
    """Append what `_write` makes of the op's JSON object {"name", "kind",
    "callback", "params", "ret"}, nested where `newline` starts a line."""
    keys = newline + "  "
    item = keys + "  "
    field = item + "  "
    out.append(f'{{{keys}"name": {_quote(sig.name)},{keys}"kind": {_quote(sig.kind)},'
               f'{keys}"callback": {"true" if sig.callback else "false"},'
               f'{keys}"params": ')
    sep = "["
    for p in sig.params:
        out.append(f'{sep}{item}{{{field}"name": {_quote(p.name)},'
                   f'{field}"type": {_quote(p.display)},'
                   f'{field}"sem": {_sem_at(p.sem, field, frags)},'
                   f'{field}"dir": {_quote(p.dir)},'
                   f'{field}"byref": {"true" if p.byref else "false"}{item}}}')
        sep = ","
    out.append(f"{keys}]" if sig.params else "[]")
    ret = sig.ret
    if ret is None:
        out.append(f',{keys}"ret": null{newline}}}')
    else:
        out.append(f',{keys}"ret": {{{item}"type": {_quote(ret.display)},'
                   f'{item}"sem": {_sem_at(ret.sem, item, frags)}{keys}}}{newline}}}')


def _sem_at(sem: st.SemType, newline: str, frags: dict[tuple[int, str], str]) -> str:
    """`sem`'s JSON nested where `newline` starts a line, rendered once per
    (object, indentation) in one render; `frags` lives as long as the render,
    and the description keeps every `sem` alive, so an `id` names one."""
    key = (id(sem), newline)
    text = frags.get(key)
    if text is None:
        parts: list[str] = []
        _write(st.sem_to_json(sem), newline, parts)
        text = frags[key] = "".join(parts)
    return text


def _str_or_null(x: Optional[str]) -> str:
    return "null" if x is None else _quote(x)


# -- the writer --------------------------------------------------------------

_quote = json.encoder.encode_basestring_ascii   # what json.dumps uses by default


def _write(x: Any, newline: str, out: list[str]) -> None:
    """Append `json.dumps(x, indent=2)` to `out`, with `x` nested where
    `newline` ("\n" plus its indentation) starts a line."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in x.items():
            out.append(sep + _quote(key) + ": ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in x:
            out.append(sep)
            _write(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    else:   # a float from a loaded file, or the TypeError json.dumps raises
        out.append(json.dumps(x))


# -- loading -----------------------------------------------------------------

def load_binding_file(text: str) -> model.BindingDesc:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation("$", f"not valid JSON: {exc}") from None
    _need(doc, dict, "$")
    for key in ("module", "mode", "level", "interfaces", "enums", "records",
                "consts", "callbacks", "aliases"):
        if key not in doc:
            raise SchemaViolation("$", f"missing key {key!r}")

    module = _str(doc, "module", "$")
    mode = _str(doc, "mode", "$")
    if mode not in MODES:
        raise SchemaViolation("$.mode", f"unknown mode {mode!r}")
    level = _str(doc, "level", "$")
    if level not in LEVELS:
        raise SchemaViolation("$.level", f"unknown level {level!r}")
    clsid = _guid(doc, "clsid", "$")

    sems = st.sem_table()       # this call's intern table; it dies on return
    declared = _declared(doc)
    interfaces = tuple(
        _load_iface(x, f"$.interfaces[{i}]", sems, declared)
        for i, x in enumerate(_list(doc, "interfaces", "$"))
    )
    enums = tuple(
        _load_enum(x, f"$.enums[{i}]")
        for i, x in enumerate(_list(doc, "enums", "$"))
    )
    earlier: dict[str, model.RecordLayout] = {}
    records = tuple(
        _load_record(x, f"$.records[{i}]", sems, declared, earlier)
        for i, x in enumerate(_list(doc, "records", "$"))
    )
    consts = tuple(
        _load_const(x, f"$.consts[{i}]")
        for i, x in enumerate(_list(doc, "consts", "$"))
    )
    callbacks = tuple(
        _load_callback(x, f"$.callbacks[{i}]", sems, declared)
        for i, x in enumerate(_list(doc, "callbacks", "$"))
    )
    aliases = tuple(
        _load_alias(x, f"$.aliases[{i}]", sems, declared)
        for i, x in enumerate(_list(doc, "aliases", "$"))
    )
    return model.BindingDesc(
        module=module, mode=mode, level=level, interfaces=interfaces,
        enums=enums, records=records, consts=consts, callbacks=callbacks,
        aliases=aliases, clsid=clsid,
    )


def _declared(doc: dict) -> set[tuple[str, str]]:
    """The (kind, name) of each enum, record and callback that `doc`
    declares, and COM's built-in `record IID`, which needs no declaration.
    A table that is no array, or a declaration without a name, is reported
    here, as the walk would report it, before any use of a name."""
    declared = {("record", "IID")}
    for kind, key in (("enum", "enums"), ("record", "records"), ("callback", "callbacks")):
        for i, x in enumerate(_list(doc, key, "$")):
            name = x.get("name") if isinstance(x, dict) else None
            if not isinstance(name, str) or not name:
                _need(x, dict, f"$.{key}[{i}]")
                _type_name(x, f"$.{key}[{i}]")     # raises
            declared.add((kind, name))
    return declared


def _load_callback(x: Any, path: str, sems: dict, declared: set) -> model.CallbackDef:
    _need(x, dict, path)
    return model.CallbackDef(name=_type_name(x, path),
                             sig=_load_sig(_need_key(x, "sig", path), f"{path}.sig", sems,
                                           declared))


def _load_alias(x: Any, path: str, sems: dict, declared: set) -> model.AliasDef:
    _need(x, dict, path)
    return model.AliasDef(
        name=_str(x, "name", path),
        display=_str(x, "type", path),
        sem=st.sem_from_json(_need_key(x, "sem", path), f"{path}.sem", sems, declared),
    )


def _load_iface(x: Any, path: str, sems: dict, declared: set) -> model.InterfaceDesc:
    _need(x, dict, path)
    source = x.get("source")
    parent = x.get("parent")
    for key, val in (("source", source), ("parent", parent)):
        if val is not None and not isinstance(val, str):
            raise SchemaViolation(f"{path}.{key}", "expected a string or null")
    iid = _guid(x, "iid", path)
    ops = tuple(
        _load_sig(op, f"{path}.ops[{i}]", sems, declared)
        for i, op in enumerate(_list(x, "ops", path))
    )
    return model.InterfaceDesc(name=_str(x, "name", path), ops=ops,
                               source=source, parent=parent, iid=iid)


def _guid(x: dict, key: str, path: str) -> Optional[str]:
    val = x.get(key)
    if val is not None and (not isinstance(val, str) or st._GUID_TEXT.fullmatch(val) is None):
        raise SchemaViolation(f"{path}.{key}", "expected braced GUID text or null")
    return val


def _load_sig(x: Any, path: str, sems: dict, declared: set) -> model.LiftedSig:
    _need(x, dict, path)
    kind = x.get("kind", "method")
    if kind not in ("method", "query_interface"):
        raise SchemaViolation(f"{path}.kind", f"unknown kind {kind!r}")
    params = []
    for i, p in enumerate(_list(x, "params", path)):
        ppath = f"{path}.params[{i}]"
        _need(p, dict, ppath)
        direction = _str(p, "dir", ppath)
        if direction not in ("in", "out", "inout"):
            raise SchemaViolation(f"{ppath}.dir", f"unknown direction {direction!r}")
        params.append(model.ParamSig(
            name=_str(p, "name", ppath),
            display=_str(p, "type", ppath),
            sem=st.sem_from_json(_need_key(p, "sem", ppath), f"{ppath}.sem", sems, declared),
            dir=direction,
            byref=_flag(p, "byref", ppath),
        ))
    ret_obj = x.get("ret")
    ret: Optional[model.RetSig] = None
    if ret_obj is not None:
        rpath = f"{path}.ret"
        _need(ret_obj, dict, rpath)
        ret = model.RetSig(
            display=_str(ret_obj, "type", rpath),
            sem=st.sem_from_json(_need_key(ret_obj, "sem", rpath), f"{rpath}.sem", sems,
                                 declared),
        )
    return model.LiftedSig(name=_str(x, "name", path), params=tuple(params),
                           ret=ret, kind=kind, callback=_flag(x, "callback", path))


def _load_enum(x: Any, path: str) -> model.EnumMap:
    _need(x, dict, path)
    variants = []
    for i, pair in enumerate(_list(x, "variants", path)):
        vpath = f"{path}.variants[{i}]"
        if (not isinstance(pair, list) or len(pair) != 2
                or not isinstance(pair[0], str)):
            raise SchemaViolation(vpath, "expected [name, \"0x...\"]")
        variants.append((pair[0], _word(pair[1], vpath)))
    return model.EnumMap(name=_type_name(x, path), variants=tuple(variants))


def _load_record(x: Any, path: str, sems: dict, declared: set,
                 earlier: dict[str, model.RecordLayout]) -> model.RecordLayout:
    """The record at `path`, laid out by the rule given `earlier`, the records
    before it by name (the first of a name wins); it joins `earlier`."""
    _need(x, dict, path)
    fields = []
    offsets = []
    for i, f in enumerate(_list(x, "fields", path)):
        fpath = f"{path}.fields[{i}]"
        _need(f, dict, fpath)
        offsets.append(_count(f, "offset", fpath))
        fields.append((
            _str(f, "name", fpath),
            _str(f, "type", fpath),
            st.sem_from_json(_need_key(f, "sem", fpath), f"{fpath}.sem", sems, declared),
        ))
    size = _count(x, "size", path)
    name = _type_name(x, path)
    layout = model.lay_out(name, fields, earlier, lambda i, message:
                           SchemaViolation(f"{path}.fields[{i}].sem", message))
    laid = [(f"{path}.fields[{i}].offset", f.offset, offset)
            for i, (f, offset) in enumerate(zip(layout.fields, offsets))]
    for where, rule, given in laid + [(f"{path}.size", layout.size, size)]:
        if rule != given:
            raise SchemaViolation(where, f"expected {rule} by the layout rule, got {given}")
    earlier.setdefault(name, layout)
    return layout


def _load_const(x: Any, path: str) -> model.ConstDef:
    _need(x, dict, path)
    form = _str(x, "form", path)
    if form not in ("string", "int", "word"):
        raise SchemaViolation(f"{path}.form", f"unknown const form {form!r}")
    value = x.get("value")
    if form == "string":
        if not isinstance(value, str):
            raise SchemaViolation(f"{path}.value", "expected a string")
    elif form == "int":
        if type(value) is not int:      # JSON true and false are bools, not ints
            raise SchemaViolation(f"{path}.value", "expected a decimal integer")
    else:
        value = _word(value, f"{path}.value")
    return model.ConstDef(name=_str(x, "name", path),
                          display=_str(x, "type", path), value=value, form=form)


def _word(value: Any, path: str) -> int:
    """A word in the one spelling the emitter writes, `f"0x{n:x}"`, so that
    a loaded word re-emits byte for byte: `int` alone would also take
    underscores, spaces, other scripts' digits and leading zeros."""
    if not isinstance(value, str) or not value.startswith("0x"):
        raise SchemaViolation(path, 'expected a word as "0x..."')
    try:
        n: Optional[int] = int(value, 16)
    except ValueError:
        n = None
    if n is None or value != f"0x{n:x}":
        raise SchemaViolation(path, f"bad hex word {value!r}")
    if n > 0xFFFFFFFF:
        raise SchemaViolation(path, f"word {value} does not fit in 32 bits")
    return n


def _need(x: Any, typ: type, path: str) -> None:
    if not isinstance(x, typ):
        raise SchemaViolation(path, f"expected {typ.__name__}")


def _need_key(x: dict, key: str, path: str) -> Any:
    if key not in x:
        raise SchemaViolation(path, f"missing key {key!r}")
    return x[key]


def _str(x: dict, key: str, path: str) -> str:
    v = x.get(key)
    if not isinstance(v, str):
        raise SchemaViolation(f"{path}.{key}", "expected a string")
    return v


def _type_name(x: dict, path: str) -> str:
    """The `name` of an enum, record or callback: a semantic type names it,
    so it must not be empty."""
    v = _str(x, "name", path)
    if not v:
        raise SchemaViolation(f"{path}.name", "expected a non-empty name")
    return v


def _count(x: dict, key: str, path: str) -> int:
    v = x.get(key)
    if type(v) is not int or v < 0:     # JSON true and false are bools, not ints
        raise SchemaViolation(f"{path}.{key}", "expected a non-negative int")
    return v


def _flag(x: dict, key: str, path: str) -> bool:
    """An optional flag; a missing one is false."""
    v = x.get(key, False)
    if type(v) is not bool:
        raise SchemaViolation(f"{path}.{key}", "expected true or false")
    return v


def _list(x: dict, key: str, path: str) -> list:
    v = x.get(key)
    if not isinstance(v, list):
        raise SchemaViolation(f"{path}.{key}", "expected an array")
    return v
