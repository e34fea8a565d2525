"""Lower a resolved IDL unit to a BindingDesc.

Lifting rules: out parameters disappear from the in-side and reappear as
results (declaration order), with the function result last when the return
type is not void.  `[in,ref]` record parameters stay in-parameters and are
shown as plain values; at the ABI they travel as the address of a packed
block.  In com mode every interface implicitly derives from IUnknown, a
QueryInterface signature is synthesized, and AddRef/Release never reach the
client-visible signature; interface IIDs come from a companion manifest.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Optional, Union

from mlidl import semtypes as st
from mlidl.idl import ast
from mlidl.idl.resolve import resolve, symbol_table
from mlidl.binding import model

MODES = ("static", "dynamic", "com")
LEVELS = ("abstract", "auto")

_BASE_SEM = {
    "int": st.INT32,
    "long": st.INT32,
    "unsigned long": st.WORD32,
    "UINT": st.WORD32,
    "boolean": st.BOOL,
    "char": st.INT32,
    "wchar_t": st.INT32,
}

_BASE_DISPLAY = {
    "int": "Int32.int",
    "long": "Int32.int",
    "unsigned long": "Word32.word",
    "UINT": "UINT",
    "boolean": "Bool.bool",
    "char": "Char.char",
    "wchar_t": "Word32.word",
    "void": "unit",
}


# The one braced GUID grammar: the compiler and the binding loader check
# against it, and `com.Guid.parse` reads it.
_GUID_TEXT = re.compile(r"\{[0-9A-Fa-f]{8}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-"
                        r"[0-9A-Fa-f]{4}-[0-9A-Fa-f]{12}\}")


class BindingError(Exception):
    pass


class MissingIid(BindingError):
    pass


def load_manifest(path: Union[str, Path]) -> Any:
    """Read a {"iids": {...}, "clsids": {...}} manifest file; `build_binding`
    checks its shape."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise BindingError(f"manifest {path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise BindingError(f"manifest {path}: not UTF-8: {exc.reason} "
                           f"at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise BindingError(f"manifest {path}: not valid JSON: {exc}") from None
    return data


def build_binding(
    unit: ast.IdlUnit,
    mode: str = "dynamic",
    level: str = "auto",
    manifest: Optional[dict] = None,
) -> model.BindingDesc:
    if mode not in MODES:
        raise BindingError(f"unknown mode {mode!r}; expected one of {MODES}")
    if level not in LEVELS:
        raise BindingError(f"unknown level {level!r}; expected one of {LEVELS}")
    manifest = {} if manifest is None else manifest
    if not isinstance(manifest, dict):
        raise BindingError(f"manifest: expected a JSON object, got {manifest!r}")
    for key in ("iids", "clsids"):
        if not isinstance(manifest.get(key, {}), dict):
            raise BindingError(f"manifest: {key!r} must be an object")
    resolve(unit)
    return _Builder(unit, mode, level, manifest).build()


class _Builder:
    def __init__(self, unit: ast.IdlUnit, mode: str, level: str, manifest: dict) -> None:
        self.unit = unit
        self.mode = mode
        self.level = level
        self.manifest = manifest
        self.table = symbol_table(unit)
        self.layouts: dict[str, model.RecordLayout] = {}
        # one SemType object per distinct type in this description
        self.sems = st.sem_table()
        self.query_interface = model.LiftedSig(
            name="QueryInterface",
            params=(model.ParamSig(name="iid", display="'a Com.IID",
                                   sem=st.interned(self.sems, "record", "IID"),
                                   dir="in", byref=True),),
            ret=model.RetSig("'a Com.interface", st.OPAQUE),
            kind="query_interface",
        )

    def build(self) -> model.BindingDesc:
        module = self.unit.sml_name() or Path(self.unit.source_name).stem
        interfaces: list[model.InterfaceDesc] = []
        enums: list[model.EnumMap] = []
        records: list[model.RecordLayout] = []
        consts: list[model.ConstDef] = []
        callbacks: list[model.CallbackDef] = []
        aliases: list[model.AliasDef] = []

        for d in self.unit.decls:
            if isinstance(d, ast.SmlName):
                continue
            if isinstance(d, ast.Typedef):
                if isinstance(d.type, ast.FuncType):
                    callbacks.append(self.callback_def(d))
                else:
                    aliases.append(model.AliasDef(
                        name=d.name,
                        display=self.display(d.type, string=d.string),
                        sem=self.sem(d.type, string=d.string),
                    ))
            elif isinstance(d, ast.RecordDecl):
                layout = self.record_layout(d)
                self.layouts[d.name] = layout
                records.append(layout)
            elif isinstance(d, ast.EnumDecl):
                enums.append(model.EnumMap(
                    d.name, tuple((v.name, v.value) for v in d.variants)))
            elif isinstance(d, ast.Const):
                consts.append(self.const_def(d))
            elif isinstance(d, ast.Interface):
                interfaces.append(self.interface_desc(d))

        clsid = None
        if self.mode == "com":
            clsid = self.manifest.get("clsids", {}).get(module)
            if clsid is not None:
                _check_guid(clsid, f"CLSID of module {module!r}")

        return model.BindingDesc(
            module=module,
            mode=self.mode,
            level=self.level,
            interfaces=tuple(interfaces),
            enums=tuple(enums),
            records=tuple(records),
            consts=tuple(consts),
            callbacks=tuple(callbacks),
            aliases=tuple(aliases),
            clsid=clsid,
        )

    # -- declarations ---------------------------------------------------------

    def const_def(self, d: ast.Const) -> model.ConstDef:
        if isinstance(d.value, str):
            # both `const char *X = "..."` and char literals land as text
            return model.ConstDef(d.name, "String.string", d.value, "string")
        t = d.type
        if isinstance(t, ast.BaseType) and t.name in ("unsigned long", "UINT"):
            return model.ConstDef(d.name, "Word32.word", d.value, "word")
        return model.ConstDef(d.name, "Int32.int", d.value, "int")

    def callback_def(self, d: ast.Typedef) -> model.CallbackDef:
        ft = d.type
        assert isinstance(ft, ast.FuncType)
        params = tuple(self.param_sig(p, d.name) for p in ft.params)
        ret = self.ret_sig(ft.ret, d.name)
        sig = model.LiftedSig(name=d.name, params=params, ret=ret, callback=True)
        return model.CallbackDef(name=d.name, sig=sig)

    def record_layout(self, d: ast.RecordDecl) -> model.RecordLayout:
        fields: list[model.FieldLayout] = []
        offset = 0
        for f in d.fields:
            sem = self.sem(f.type)
            fields.append(model.FieldLayout(
                name=f.name,
                display=self.display(f.type),
                sem=sem,
                offset=offset,
            ))
            offset += self.size_of(sem, d.name)
        return model.RecordLayout(name=d.name, fields=tuple(fields), size=offset)

    def size_of(self, sem: st.SemType, context: str) -> int:
        if sem.kind == "record":
            layout = self.layouts.get(sem.name)
            if layout is None:
                raise BindingError(
                    f"record {sem.name!r} used in {context!r} before its "
                    f"declaration")
            return layout.size
        if sem.kind == "unit":
            raise BindingError(f"void is not a value type (in {context!r})")
        return 1

    def interface_desc(self, d: ast.Interface) -> model.InterfaceDesc:
        parent = d.parent
        iid = None
        ops: list[model.LiftedSig] = []
        if self.mode == "com":
            if parent is None:
                parent = "IUnknown"
            iid = self.manifest.get("iids", {}).get(d.name)
            if iid is None:
                raise MissingIid(
                    f"com-mode interface {d.name!r} has no IID in the manifest")
            _check_guid(iid, f"IID of interface {d.name!r}")
            ops.append(self.query_interface)
        for op in d.ops:
            if self.mode == "com" and op.name in ("QueryInterface", "AddRef", "Release"):
                continue
            ops.append(self.lift_op(op, d.name))
        return model.InterfaceDesc(
            name=d.name, ops=tuple(ops), source=d.sml_source, parent=parent, iid=iid)

    # -- signature lifting ---------------------------------------------------

    def lift_op(self, op: ast.OpDecl, iface: str) -> model.LiftedSig:
        where = f"{iface}.{op.name}"
        params = tuple(self.param_sig(p, where) for p in op.params)
        ret = self.ret_sig(op.ret, where)
        return model.LiftedSig(name=op.name, params=params, ret=ret)

    def ret_sig(self, t: ast.IdlType, where: str) -> Optional[model.RetSig]:
        if isinstance(t, ast.BaseType) and t.name == "void":
            return None
        if isinstance(t, ast.PtrType):
            raise BindingError(f"{where}: pointer return types are not supported")
        return model.RetSig(self.display(t), self.sem(t))

    def param_sig(self, p: ast.ParamDecl, where: str) -> model.ParamSig:
        t = p.type
        byref = False
        if isinstance(t, ast.ArrayType):
            sem: st.SemType = self.sem(t)
            if sem.elem.kind == "callback":
                raise BindingError(f"{where}.{p.name}: arrays of callbacks are "
                                   f"not supported")
            display = f"{self.display(t.elem)} list"
        elif isinstance(t, ast.PtrType):
            inner = t.to
            if isinstance(inner, ast.PtrType):
                # pointer-to-pointer: an out slot for an address-sized value
                inner = inner.to
                sem = st.OPAQUE
                if isinstance(inner, ast.BaseType) and inner.name == "void":
                    display = "Word32.word"
                else:
                    display = self.display(inner)
                if p.dir == "in":
                    raise BindingError(
                        f"{where}.{p.name}: in-parameters of pointer-to-pointer "
                        f"type are not supported")
            else:
                sem = self.sem(inner, string=p.string)
                display = self.display(inner, string=p.string)
                if p.dir in ("in", "inout") and sem.kind not in ("string8", "string16"):
                    byref = True
        else:
            sem = self.sem(t, string=p.string)
            display = self.display(t, string=p.string)
            if p.dir in ("out", "inout"):
                raise BindingError(
                    f"{where}.{p.name}: out parameters must be pointers")
        if p.dir in ("out", "inout") and sem.kind == "callback":
            raise BindingError(
                f"{where}.{p.name}: out parameters of callback type are not "
                f"supported")
        return model.ParamSig(name=p.name, display=display, sem=sem,
                              dir=p.dir, byref=byref)

    # -- type mapping -----------------------------------------------------------

    def sem(self, t: ast.IdlType, string: bool = False) -> st.SemType:
        """The interned semantic type of `t`."""
        if isinstance(t, ast.BaseType):
            if t.name == "void":
                return st.UNIT
            return _BASE_SEM[t.name]
        if isinstance(t, ast.NamedType):
            d = self.table.get(t.name)
            if d is None:
                if t.name == "IID":
                    return st.interned(self.sems, "record", "IID")
                if t.name == "HRESULT":
                    return st.INT32
                if t.name == "IUnknown":
                    return st.OPAQUE
                raise BindingError(f"unresolved type {t.name!r}")
            if isinstance(d, ast.Typedef):
                if isinstance(d.type, ast.FuncType):
                    return st.interned(self.sems, "callback", d.name)
                if d.name == "HANDLE":
                    return st.HANDLE
                return self.sem(d.type, string=d.string)
            if isinstance(d, ast.RecordDecl):
                return st.interned(self.sems, "record", d.name)
            if isinstance(d, ast.EnumDecl):
                return st.interned(self.sems, "enum", d.name)
            if isinstance(d, ast.Interface):
                return st.OPAQUE
            raise BindingError(f"cannot use {t.name!r} as a type")
        if isinstance(t, ast.PtrType):
            inner = t.to
            if string and isinstance(inner, ast.BaseType):
                return st.STRING16 if inner.name == "wchar_t" else st.STRING8
            return st.OPAQUE
        if isinstance(t, ast.ArrayType):
            return st.interned(self.sems, "array", elem=self.sem(t.elem),
                               len_from=t.len_param)
        raise BindingError(f"cannot map type {t!r}")

    def display(self, t: ast.IdlType, string: bool = False) -> str:
        if isinstance(t, ast.BaseType):
            return _BASE_DISPLAY[t.name]
        if isinstance(t, ast.NamedType):
            return t.name
        if isinstance(t, ast.PtrType):
            inner = t.to
            if string and isinstance(inner, ast.BaseType):
                return "String.string"
            if isinstance(inner, ast.NamedType):
                return inner.name
            return "Word32.word"
        if isinstance(t, ast.ArrayType):
            return f"{self.display(t.elem)} list"
        raise BindingError(f"cannot display type {t!r}")


def _check_guid(value: object, what: str) -> None:
    if not isinstance(value, str) or _GUID_TEXT.fullmatch(value) is None:
        raise BindingError(f"{what} in the manifest is not a GUID of the form "
                           f"{{XXXXXXXX-XXXX-XXXX-XXXX-XXXXXXXXXXXX}}: {value!r}")

