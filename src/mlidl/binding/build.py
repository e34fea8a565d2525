"""Lower a resolved IDL unit to a BindingDesc.

Lifting rules: out parameters disappear from the in-side and reappear as
results (declaration order), with the function result last when the return
type is not void, directly or through typedefs.  An `in` or `in,out` pointer
to a value, a string included, is passed by reference; an `in` one is shown
as the plain value.
A pointer to a pointer is an out slot for an address-sized value.
`void` is no value, and a pointer to `void` is an opaque word: `[in] void
*p` lowers as `[in] LPVOID p` does.
`[string]`, on a parameter or a typedef, makes a pointer to `char` or
`wchar_t`, directly or through typedefs, one string8 or string16 value, and
does nothing to any other pointer.  In com mode every interface implicitly
derives from IUnknown, a QueryInterface signature is synthesized, and
AddRef/Release never reach the client-visible signature; interface IIDs
come from a companion manifest.
Each IDL type is lowered to its SML text and interned semantic type in one
walk (`_Builder.lower`), and each record is laid out by `model.lay_out`, the
one layout rule, which the binding-file loader checks loaded records against.
A type name is looked up wherever it stands, behind a pointer or a pointer
to a pointer too, so a name that is not a type (a const) is refused there.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from mlidl import semtypes as st
from mlidl.idl import ast
from mlidl.idl.resolve import resolve, strip_aliases, symbol_table
from mlidl.binding import model

MODES = ("static", "dynamic", "com")
LEVELS = ("abstract", "auto")

# base type -> (SML text, semantic type)
_BASE = {
    "int": ("Int32.int", st.INT32),
    "long": ("Int32.int", st.INT32),
    "unsigned long": ("Word32.word", st.WORD32),
    "UINT": ("UINT", st.WORD32),
    "boolean": ("Bool.bool", st.BOOL),
    "char": ("Char.char", st.INT32),
    "wchar_t": ("Word32.word", st.INT32),
    "void": ("unit", st.UNIT),
}

# the string `[string]` makes of a pointer to each base type it applies to
_TEXT = {"char": st.STRING8, "wchar_t": st.STRING16}


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

        for d in self.unit.decls:     # an sml_name annotation lowers to nothing
            if isinstance(d, ast.Typedef):
                if isinstance(d.type, ast.FuncType):
                    callbacks.append(self.callback_def(d))
                else:
                    aliases.append(model.AliasDef(
                        d.name, *self.lower(d.type, string=d.string)))
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
        return model.CallbackDef(d.name, self.lift(d.name, ft.params, ft.ret, d.name,
                                                   callback=True))

    def record_layout(self, d: ast.RecordDecl) -> model.RecordLayout:
        # a generator: a field is lowered once the fields before it are placed
        return model.lay_out(d.name, ((f.name, *self.lower(f.type)) for f in d.fields),
                             self.layouts, lambda i, message: BindingError(message))

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
            ops.append(self.lift(op.name, op.params, op.ret, f"{d.name}.{op.name}"))
        return model.InterfaceDesc(
            name=d.name, ops=tuple(ops), source=d.sml_source, parent=parent, iid=iid)

    # -- signature lifting ---------------------------------------------------

    def lift(self, name: str, params: tuple[ast.ParamDecl, ...], ret: ast.IdlType,
             where: str, callback: bool = False) -> model.LiftedSig:
        return model.LiftedSig(name, tuple(self.param_sig(p, where) for p in params),
                               self.ret_sig(ret, where), callback=callback)

    def ret_sig(self, t: ast.IdlType, where: str) -> Optional[model.RetSig]:
        if isinstance(t, ast.BaseType) and t.name == "void":
            return None
        if isinstance(t, ast.PtrType):
            raise BindingError(f"{where}: pointer return types are not supported")
        display, sem = self.lower(t)
        if sem.kind == "unit":          # void through typedefs
            return None
        return model.RetSig(display, sem)

    def param_sig(self, p: ast.ParamDecl, where: str) -> model.ParamSig:
        # one walk down at most two pointers above the value; a `[string]` one is the value
        t, depth = p.type, 0
        while depth < 2 and isinstance(t, ast.PtrType) \
                and not (p.string and self.string_of(t)):
            t, depth = t.to, depth + 1
        if depth == 2:
            # pointer-to-pointer: an out slot for an address-sized value
            if p.dir == "in":
                raise BindingError(
                    f"{where}.{p.name}: in-parameters of pointer-to-pointer "
                    f"type are not supported")
            sem = st.OPAQUE
            display = ("Word32.word" if isinstance(t, ast.BaseType) and t.name == "void"
                       else self.lower(t)[0])
        else:
            display, sem = self.lower(t, string=p.string)
            if sem.kind == "unit":      # void, directly or through typedefs
                if depth == 0:
                    raise BindingError(f"{where}.{p.name}: void is not a value type")
                # a pointer to void is an opaque word, as `typedef void *LPVOID` is
                display = "Word32.word" if isinstance(t, ast.BaseType) else display
                sem, depth = st.OPAQUE, 0
            if isinstance(t, ast.ArrayType):
                if sem.elem.kind == "callback":
                    raise BindingError(f"{where}.{p.name}: arrays of callbacks are "
                                       f"not supported")
            elif depth == 0 and p.dir != "in":
                raise BindingError(
                    f"{where}.{p.name}: out parameters must be pointers")
        if p.dir in ("out", "inout") and sem.kind == "callback":
            raise BindingError(
                f"{where}.{p.name}: out parameters of callback type are not "
                f"supported")
        return model.ParamSig(name=p.name, display=display, sem=sem,
                              dir=p.dir, byref=depth == 1 and p.dir != "out")

    def string_of(self, t: ast.PtrType) -> Optional[st.SemType]:
        """What `[string]` makes of pointer `t`: string8 if it points to `char`,
        string16 if to `wchar_t`, through typedefs too; otherwise None."""
        to = strip_aliases(t.to, self.table)
        return _TEXT.get(to.name) if isinstance(to, ast.BaseType) else None

    # -- type mapping -----------------------------------------------------------

    def lower(self, t: ast.IdlType, string: bool = False) -> tuple[str, st.SemType]:
        """`t`'s SML text and interned semantic type, from one walk."""
        if isinstance(t, ast.BaseType):
            return _BASE[t.name]
        if isinstance(t, ast.NamedType):
            d = self.table.get(t.name)
            if isinstance(d, ast.Typedef):
                if isinstance(d.type, ast.FuncType):
                    return t.name, st.interned(self.sems, "callback", d.name)
                if d.name == "HANDLE":
                    return t.name, st.HANDLE
                return t.name, self.lower(d.type, string=d.string)[1]
            if isinstance(d, ast.RecordDecl):
                return t.name, st.interned(self.sems, "record", d.name)
            if isinstance(d, ast.EnumDecl):
                return t.name, st.interned(self.sems, "enum", d.name)
            if isinstance(d, ast.Interface):
                return t.name, st.OPAQUE
            raise BindingError(f"cannot use {t.name!r} as a type")
        if isinstance(t, ast.PtrType):
            inner = t.to
            if string:
                # a plain `char *` skips the alias walk: one call fewer per string typedef
                sem = _TEXT.get(inner.name) if isinstance(inner, ast.BaseType) \
                    else self.string_of(t)
                if sem is not None:
                    return "String.string", sem
            if isinstance(inner, ast.NamedType):
                return self.lower(inner)[0], st.OPAQUE
            return "Word32.word", st.OPAQUE
        if isinstance(t, ast.ArrayType):
            display, elem = self.lower(t.elem)
            return f"{display} list", st.interned(self.sems, "array", elem=elem,
                                                  len_from=t.len_param)
        raise BindingError(f"cannot map type {t!r}")


def _check_guid(value: object, what: str) -> None:
    if not isinstance(value, str) or st._GUID_TEXT.fullmatch(value) is None:
        raise BindingError(f"{what} in the manifest is not a GUID of the form "
                           f"{{XXXXXXXX-XXXX-XXXX-XXXX-XXXXXXXXXXXX}}: {value!r}")

