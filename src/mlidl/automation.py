"""Dynamic invocation: VARIANTs, DISPID tables, Invoke, dual interfaces.

A dual interface derives from IDispatch: its vtable is the IUnknown triple,
the IDispatch quadruple (GetTypeInfoCount, GetTypeInfo, GetIDsofNames,
Invoke), then the interface's own methods.  The dispatch table is generated
from the same signatures, with DISPIDs assigned densely from 1 in
declaration order, and Invoke calls through the very closure installed in
the vtable slot, so both invocation paths share one implementation.

A dual interface is a plain `InterfaceRef`, however it was reached.  Its
DISPID table and binding description live with the IDispatch closures of
slots 3..6, and the typed `invoke` and `get_ids_of_names` find them through
slot 6 of any ref to it.  IUnknown is implemented once, in `com.ComObject`.

Arguments are positional VARIANTs.  Coercion is strict: exact tag matches,
bit-exact VT_I4/VT_UI4 reinterpretation, and nothing else; type libraries,
locales and named arguments are out of scope (GetTypeInfoCount reports 0
and GetTypeInfo is not implemented, riid/lcid arguments are ignored).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from mlidl import marshal
from mlidl.binding.model import BindingDesc, LiftedSig
from mlidl.com import (
    ComError,
    ComObject,
    E_NOTIMPL,
    IID_IDISPATCH,
    Iid,
    InterfaceRef,
    S_OK,
    check_words,
    get_method,
)
from mlidl.semtypes import SemType
from mlidl.wordmem import Mem, OutOfBounds, to_signed, word

VT_EMPTY = 0
VT_I4 = 3
VT_BSTR = 8
VT_DISPATCH = 9
VT_BOOL = 11
VT_UNKNOWN = 13
VT_UI4 = 19

_VT_NAMES = {
    VT_EMPTY: "VT_EMPTY", VT_I4: "VT_I4", VT_BSTR: "VT_BSTR",
    VT_DISPATCH: "VT_DISPATCH", VT_BOOL: "VT_BOOL", VT_UNKNOWN: "VT_UNKNOWN",
    VT_UI4: "VT_UI4",
}

DISP_E_MEMBERNOTFOUND = 0x80020003
DISP_E_TYPEMISMATCH = 0x80020005
DISP_E_UNKNOWNNAME = 0x80020006
DISP_E_BADPARAMCOUNT = 0x8002000E


class AutomationError(ComError):
    def __init__(self, message: str, hresult: int,
                 arg_index: Optional[int] = None) -> None:
        super().__init__(message, hresult)
        self.arg_index = arg_index


@dataclass(frozen=True)
class Variant:
    tag: int
    value: Any = None

    def __post_init__(self) -> None:
        if self.tag not in _VT_NAMES:
            raise ValueError(f"unknown variant tag {self.tag}")
        if self.tag == VT_EMPTY and self.value is not None:
            raise ValueError("VT_EMPTY carries no payload")

    @staticmethod
    def empty() -> "Variant":
        return Variant(VT_EMPTY)

    @staticmethod
    def i4(value: int) -> "Variant":
        return Variant(VT_I4, to_signed(value))

    @staticmethod
    def ui4(value: int) -> "Variant":
        return Variant(VT_UI4, word(value))

    @staticmethod
    def boolean(value: bool) -> "Variant":
        return Variant(VT_BOOL, bool(value))

    @staticmethod
    def bstr(value: str) -> "Variant":
        return Variant(VT_BSTR, value)

    def __str__(self) -> str:
        name = _VT_NAMES[self.tag]
        return name if self.tag == VT_EMPTY else f"{name}({self.value!r})"


@dataclass(frozen=True)
class DispParams:
    """Positional argument pack for Invoke."""

    args: tuple[Variant, ...] = ()


@dataclass(frozen=True)
class DispEntry:
    dispid: int
    sig: LiftedSig
    slot: int            # vtable slot carrying the implementation


# -- coercion -------------------------------------------------------------------


def coerce(v: Variant, t: SemType, desc: Optional[BindingDesc] = None) -> Any:
    """Variant to host value for semantic type `t`; strict, no string/number
    bridging, VT_I4/VT_UI4 reinterpreted bit-exactly."""

    def reject() -> AutomationError:
        return AutomationError(
            f"cannot coerce {_VT_NAMES[v.tag]} to {t.kind}", DISP_E_TYPEMISMATCH)

    kind = t.kind
    if kind == "int32":
        if v.tag == VT_I4:
            return int(v.value)
        if v.tag == VT_UI4:
            return to_signed(int(v.value))
        raise reject()
    if kind in ("word32", "handle", "opaque"):
        if v.tag in (VT_I4, VT_UI4):
            return word(int(v.value))
        if v.tag in (VT_DISPATCH, VT_UNKNOWN) and kind == "opaque":
            payload = v.value
            if isinstance(payload, InterfaceRef):
                return payload.addr
            if isinstance(payload, int):
                return word(payload)
        raise reject()
    if kind == "bool":
        if v.tag == VT_BOOL:
            return bool(v.value)
        raise reject()
    if kind in ("string8", "string16"):
        if v.tag == VT_BSTR:
            return str(v.value)
        raise reject()
    if kind == "enum":
        if v.tag in (VT_I4, VT_UI4):
            if desc is None:
                raise AutomationError(f"enum {t.name!r} needs a binding "
                                      f"description", DISP_E_TYPEMISMATCH)
            name = desc.enum(t.name).from_int(word(int(v.value)))
            if name is None:
                raise reject()
            return name
        raise reject()
    raise reject()


def variant_of(value: Any, t: SemType, desc: Optional[BindingDesc] = None) -> Variant:
    kind = t.kind
    if kind == "int32":
        return Variant.i4(value)
    if kind in ("word32", "handle", "opaque"):
        return Variant.ui4(value)
    if kind == "bool":
        return Variant.boolean(value)
    if kind in ("string8", "string16"):
        return Variant.bstr(value)
    if kind == "enum":
        if desc is None:
            raise ComError(f"enum {t.name!r} needs a binding description")
        return Variant.i4(desc.enum(t.name).to_int(value))
    raise ComError(f"cannot wrap a {kind} result as a VARIANT")


# -- dual interface construction ---------------------------------------------


def make_dual(
    sigs: Sequence[LiftedSig],
    impls: Sequence,
    owner: ComObject,
    iid: Iid,
    desc: Optional[BindingDesc] = None,
) -> InterfaceRef:
    """Build a dual interface on `owner` from aligned signatures and host
    implementations."""
    if len(sigs) != len(impls):
        raise ComError("signature and implementation lists are not aligned")
    mem = owner.mem
    method_fns = [marshal.skeleton(sig, impl, mem, desc)
                  for sig, impl in zip(sigs, impls)]
    d = _Dispatch(sigs, mem, desc)
    d.ref = owner.add_interface(iid, [d._raw_get_type_info_count, d._raw_get_type_info,
                                      d._raw_get_ids_of_names, d._raw_invoke]
                                + method_fns)
    owner.alias_interface(IID_IDISPATCH, d.ref)
    return d.ref


class _Dispatch:
    """IDispatch of one dual interface: the DISPID table (dense from 1 in
    declaration order, methods from slot 7) and the binding description,
    with the bound `_raw_*` methods that fill vtable slots 3..6."""

    def __init__(self, sigs: Sequence[LiftedSig], mem: Mem,
                 desc: Optional[BindingDesc]) -> None:
        self.mem = mem
        self.desc = desc
        self.ref: InterfaceRef     # set once the vtable is laid out
        self.by_id = {i + 1: DispEntry(i + 1, sig, 7 + i) for i, sig in enumerate(sigs)}
        self.by_name: dict[str, DispEntry] = {}
        for entry in self.by_id.values():
            key = entry.sig.name.casefold()
            if key in self.by_name:
                raise ComError(f"dispatch name clash on {entry.sig.name!r}")
            self.by_name[key] = entry

    def _raw_get_type_info_count(self, words: list[int]) -> int:
        # no type libraries: always report zero
        _this, out_addr = check_words("GetTypeInfoCount", words, 2)
        self.mem.store(out_addr, [0])
        return S_OK

    def _raw_get_type_info(self, words: list[int]) -> int:
        check_words("GetTypeInfo", words, 4)
        return E_NOTIMPL

    def _raw_get_ids_of_names(self, words: list[int]) -> int:
        _this, _riid, names_addr, cnames, _lcid, out_addr = check_words(
            "GetIDsOfNames", words, 6)
        mem = self.mem
        hr = S_OK
        for i in range(cnames):
            name_addr = mem.read(mem.offset(names_addr, i), 1)[0]
            entry = self.by_name.get(marshal.read_string8(mem, name_addr).casefold())
            if entry is None:
                mem.store(mem.offset(out_addr, i), [0xFFFFFFFF])
                hr = DISP_E_UNKNOWNNAME
            else:
                mem.store(mem.offset(out_addr, i), [entry.dispid])
        return hr

    def _raw_invoke(self, words: list[int]) -> int:
        (_this, dispid, _riid, _lcid, _wflags, dp_addr, result_addr,
         _excep_addr, argerr_addr) = check_words("Invoke", words, 9)
        mem = self.mem
        entry = self.by_id.get(dispid)
        if entry is None:
            return DISP_E_MEMBERNOTFOUND
        argc, args_addr = mem.read(dp_addr, 2) if dp_addr else (0, 0)
        variants = []
        for i in range(argc):
            tag, payload = mem.read(mem.offset(args_addr, 2 * i), 2)
            variants.append(_variant_from_words(tag, payload, mem))
        try:
            result = self.call(entry, variants)
        except AutomationError as exc:
            if exc.arg_index is not None and argerr_addr:
                mem.store(argerr_addr, [exc.arg_index])
            return exc.hresult
        if result_addr:
            mem.store(result_addr, _variant_to_words(result, mem))
        return S_OK

    def call(self, entry: DispEntry, args: list[Variant]) -> Variant:
        """Coerce `args` and call the method through its vtable slot."""
        sig = entry.sig
        ins = sig.ins
        if len(args) != len(ins):
            raise AutomationError(
                f"{sig.name} takes {len(ins)} arguments, got {len(args)}",
                DISP_E_BADPARAMCOUNT)
        values = []
        for i, (v, p) in enumerate(zip(args, ins)):
            try:
                values.append(coerce(v, p.sem, self.desc))
            except AutomationError as exc:
                raise AutomationError(f"argument {i}: {exc}", exc.hresult,
                                      arg_index=i) from None
        results = marshal.call(sig, get_method(self.ref, entry.slot), values,
                               self.mem, self.desc)
        if not results:
            return Variant.empty()
        if len(results) == 1:
            return variant_of(results[0], sig.results[0].sem, self.desc)
        raise AutomationError(
            f"{sig.name} has {len(results)} results; Invoke carries at most one",
            DISP_E_TYPEMISMATCH)


def _variant_from_words(tag: int, payload: int, mem: Mem) -> Variant:
    if tag == VT_EMPTY:
        return Variant.empty()
    if tag == VT_I4:
        return Variant.i4(payload)
    if tag == VT_UI4:
        return Variant.ui4(payload)
    if tag == VT_BOOL:
        return Variant.boolean(payload != 0)
    if tag == VT_BSTR:
        return Variant.bstr(marshal.read_string8(mem, payload))
    if tag in (VT_DISPATCH, VT_UNKNOWN):
        return Variant(tag, payload)
    raise ComError(f"unsupported variant tag {tag} in memory")


def _variant_to_words(v: Variant, mem: Mem) -> list[int]:
    if v.tag == VT_EMPTY:
        return [VT_EMPTY, 0]
    if v.tag in (VT_I4, VT_UI4):
        return [v.tag, word(int(v.value))]
    if v.tag == VT_BOOL:
        return [VT_BOOL, 1 if v.value else 0]
    if v.tag == VT_BSTR:
        # callee-allocated: the caller owns and frees the string block
        return [VT_BSTR, marshal.pack_string8(mem, str(v.value))]
    if v.tag in (VT_DISPATCH, VT_UNKNOWN):
        payload = v.value
        addr = payload.addr if isinstance(payload, InterfaceRef) else word(payload)
        return [v.tag, addr]
    raise ComError(f"cannot store variant {v}")


# -- client-side operations ---------------------------------------------------


def _dispatch_of(ref: InterfaceRef) -> _Dispatch:
    """The IDispatch behind `ref`, found through vtable slot 6."""
    try:
        disp = getattr(get_method(ref, 6), "__self__", None)
    except OutOfBounds:         # a vtable of fewer than 7 slots
        disp = None
    if not isinstance(disp, _Dispatch):
        raise ComError(f"{ref.iid} is not a dual interface")
    return disp


def get_ids_of_names(ref: InterfaceRef, name: str) -> int:
    entry = _dispatch_of(ref).by_name.get(name.casefold())
    if entry is None:
        raise AutomationError(f"unknown name {name!r}", DISP_E_UNKNOWNNAME)
    return entry.dispid


def invoke(ref: InterfaceRef, dispid: int,
           params: "DispParams | Sequence[Variant]") -> Variant:
    disp = _dispatch_of(ref)
    entry = disp.by_id.get(dispid)
    if entry is None:
        raise AutomationError(f"no member with DISPID {dispid}",
                              DISP_E_MEMBERNOTFOUND)
    return disp.call(entry, list(params.args if isinstance(params, DispParams)
                                 else params))


def get_type_info_count(ref: InterfaceRef) -> int:
    """Dispatch-level type info count; always 0 (no type libraries)."""
    return 0
