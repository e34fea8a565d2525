"""Dynamic invocation: VARIANTs, DISPID tables, Invoke, dual interfaces.

A dual interface derives from IDispatch: its vtable is the IUnknown triple,
the IDispatch quadruple (GetTypeInfoCount, GetTypeInfo, GetIDsofNames,
Invoke), then the interface's own methods.  The dispatch table is generated
from the same signatures, with DISPIDs assigned densely from 1 in
declaration order, and Invoke calls the skeleton that `make_dual` installed
in the method's slot, so both invocation paths share one implementation; a
later raw store over a vtable word redirects slot callers, not Invoke.

A dual interface is a plain `InterfaceRef`, however it was reached.  Its
DISPID table, skeletons and binding description live with the closures of
slots 3..6, and the typed `invoke` and `get_ids_of_names` find them through
slot 6 of any ref to it.  IUnknown is implemented once, in `com.ComObject`.

Arguments are positional VARIANTs: a tag and one payload word.  One table
gives each tag the marshal codec of its payload, another each semantic kind
the tags it accepts and its result's tag.  Coercion is strict: the payload
codec's `to_word` checks the value and the parameter codec's `from_word`
reads the word back, so VT_I4/VT_UI4 are reinterpreted bit-exactly,
nothing is bridged between strings, numbers and bools, and a BSTR holding a
NUL or a lone surrogate is refused as a string pack refuses it
(DISP_E_TYPEMISMATCH with the argument's index).  A result is wrapped the
same way back; one that no VARIANT can carry, such as a record, is
DISP_E_TYPEMISMATCH on both Invoke paths.  The typed `invoke` takes its
arguments as a sequence of VARIANTs, and reads one row per signature
(`_row_of`), cached on the binding description as plans are: a VT_I4 or
VT_UI4 int on an integer parameter is converted there inline, and every
other argument through the tables.  Raw Invoke reads and writes
payloads with the codecs' unpack and pack (a tag it does not know is
DISP_E_BADVARTYPE, with the argument's index).  Type libraries, locales and
named arguments are out of scope (GetTypeInfoCount reports 0, GetTypeInfo
is not implemented, riid/lcid are ignored).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, NamedTuple, Optional, Sequence

from mlidl import marshal
from mlidl import semtypes as st
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
from mlidl.wordmem import WORD_MASK, Mem, MemFault, OutOfBounds, WordFn

VT_EMPTY = 0
VT_I4 = 3
VT_BSTR = 8
VT_DISPATCH = 9
VT_BOOL = 11
VT_UNKNOWN = 13
VT_UI4 = 19

_VT_NAMES = {tag: name for name, tag in list(globals().items()) if name.startswith("VT_")}

DISP_E_MEMBERNOTFOUND = 0x80020003
DISP_E_TYPEMISMATCH = 0x80020005
DISP_E_UNKNOWNNAME = 0x80020006
DISP_E_BADVARTYPE = 0x80020008
DISP_E_BADPARAMCOUNT = 0x8002000E

_DISPID_UNKNOWN = 0xFFFFFFFF        # what GetIDsOfNames writes for an unknown name


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

    def __str__(self) -> str:
        name = _VT_NAMES[self.tag]
        return name if self.tag == VT_EMPTY else f"{name}({self.value!r})"


# -- the value model ------------------------------------------------------------


_OPAQUE = marshal.codec_of(st.OPAQUE)
# an interface payload: opaque, and coercion takes an InterfaceRef as its address
_INTERFACE = replace(_OPAQUE, to_word=lambda v: _OPAQUE.to_word(
    v.addr if isinstance(v, InterfaceRef) else v))

# the codec of each tag's payload word; VT_EMPTY's is a 0 read back as None
_PAYLOAD: dict[int, marshal.Codec] = {
    VT_EMPTY: marshal.Codec(1, lambda mem, v, words, temps: words.append(0),
                            lambda mem, ws, at, owned: None),
    VT_I4: marshal.codec_of(st.INT32),
    VT_UI4: marshal.codec_of(st.WORD32),
    VT_BOOL: marshal.codec_of(st.BOOL),
    VT_BSTR: marshal.codec_of(st.STRING8),
    VT_DISPATCH: _INTERFACE,
    VT_UNKNOWN: _INTERFACE,
}

_NUMBERS = (VT_I4, VT_UI4)
# semantic kind -> (the tags it accepts, the tag of its result)
_KINDS: dict[str, tuple[tuple[int, ...], Optional[int]]] = {
    "int32": (_NUMBERS, VT_I4),
    "word32": (_NUMBERS, VT_UI4),
    "handle": (_NUMBERS, VT_UI4),
    "opaque": (_NUMBERS + (VT_DISPATCH, VT_UNKNOWN), VT_UI4),
    "enum": (_NUMBERS, VT_I4),
    "bool": ((VT_BOOL,), VT_BOOL),
    "string8": ((VT_BSTR,), VT_BSTR),
    "string16": ((VT_BSTR,), VT_BSTR),
}


def _text(value: Any) -> str:
    """A BSTR payload: a str that a string8 block can hold, checked as a pack
    checks it (a string codec has no word conversions)."""
    if not isinstance(value, str):
        raise marshal.TypeMismatch(f"expected a string, got {value!r}")
    marshal._encoded(value, "utf-8")
    return value


def _coerce(i: int, v: Variant, kind: str, tags: tuple[int, ...],
            codec: marshal.Codec) -> Any:
    """`v`, argument `i`, as `codec` holds it: its payload word, read back.
    `tags` are the tags that `kind` accepts."""
    try:
        if v.tag not in tags:
            raise marshal.TypeMismatch(f"{kind} takes no {_VT_NAMES[v.tag]}")
        to_word = _PAYLOAD[v.tag].to_word
        return codec.from_word(to_word(v.value)) if to_word else _text(v.value)
    except marshal.MarshalError as exc:
        raise AutomationError(f"argument {i}: cannot coerce {v} to {kind}: {exc}",
                              DISP_E_TYPEMISMATCH, arg_index=i) from None


def _variant_of(value: Any, kind: str, codec: marshal.Codec) -> Variant:
    """`value`, a result that `marshal.call` decoded with `codec`, as a
    VARIANT: such a value always re-encodes, so only its kind can fail."""
    tag = _KINDS.get(kind, ((), None))[1]
    if tag is None:
        raise AutomationError(f"cannot wrap a {kind} result as a VARIANT",
                              DISP_E_TYPEMISMATCH)
    return Variant(tag, _PAYLOAD[tag].from_word(codec.to_word(value))
                   if codec.to_word else value)


class _Arg(NamedTuple):
    kind: str
    tags: tuple[int, ...]           # the tags it accepts
    codec: marshal.Codec
    sign: Optional[int]             # an integer's sign bit, or None


class _Row(NamedTuple):
    """What typed Invoke reads of one signature, once per description."""

    plan: marshal.Plan
    args: tuple[_Arg, ...]          # one per in-parameter
    result: Optional[tuple[str, marshal.Codec]]     # of a single result


def _row_of(sig: LiftedSig, desc: BindingDesc) -> _Row:
    """The Invoke row of `sig`, built once per binding description.  An
    integer parameter (int32: sign bit 31, any other: none) converts a
    VT_I4 or VT_UI4 int inline, as `_coerce` would; every other argument
    goes through `_coerce`."""
    row = desc.invoke_rows.get(id(sig))
    if row is None:
        plan = marshal.plan_of(sig, desc)
        args = []
        for p, step in zip(sig.ins, [s for s in plan.steps if s.dir != "out"]):
            kind = p.sem.kind
            args.append(_Arg(kind, _KINDS.get(kind, ((), None))[0], step.codec,
                             0x80000000 if kind == "int32" else
                             0 if kind in ("word32", "handle", "opaque") else None))
        result = None
        if len(sig.results) == 1:
            result = (sig.results[0].sem.kind,
                      plan.ret or next(s.codec for s in plan.steps if s.dir != "in"))
        # the row holds the plan, which holds `sig`: its id stays unique
        row = desc.invoke_rows[id(sig)] = _Row(plan, tuple(args), result)
    return row


# -- dual interface construction ---------------------------------------------


def make_dual(
    sigs: Sequence[LiftedSig],
    impls: Sequence,
    owner: ComObject,
    iid: Iid,
    desc: BindingDesc,
) -> InterfaceRef:
    """Build a dual interface on `owner` from aligned signatures and host
    implementations."""
    if len(sigs) != len(impls):
        raise ComError("signature and implementation lists are not aligned")
    mem = owner.mem
    method_fns = [marshal.skeleton(sig, impl, mem, desc)
                  for sig, impl in zip(sigs, impls)]
    d = _Dispatch(sigs, method_fns, mem, desc)
    ref = owner.add_interface(iid, [d._raw_get_type_info_count, d._raw_get_type_info,
                                    d._raw_get_ids_of_names, d._raw_invoke] + method_fns)
    owner.alias_interface(IID_IDISPATCH, ref)
    return ref


class _Dispatch:
    """IDispatch of one dual interface: the DISPID table (dense from 1 in
    declaration order), the skeletons of slots 7 and up and the binding
    description, with the bound `_raw_*` methods that fill slots 3..6."""

    def __init__(self, sigs: Sequence[LiftedSig], methods: list[WordFn], mem: Mem,
                 desc: BindingDesc) -> None:
        self.mem = mem
        self.desc = desc
        self.by_id = dict(enumerate(sigs, 1))      # DISPID -> its signature
        self.methods = methods                     # DISPID - 1 -> its skeleton
        self.by_name: dict[str, int] = {}
        for dispid, sig in self.by_id.items():
            key = sig.name.casefold()
            if key in self.by_name:
                raise ComError(f"dispatch name clash on {sig.name!r}")
            self.by_name[key] = dispid

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
        dispids = [self.by_name.get(marshal.read_string8(mem, a).casefold(), _DISPID_UNKNOWN)
                   for a in mem.read(names_addr, cnames)]
        mem.store(out_addr, dispids)
        return DISP_E_UNKNOWNNAME if _DISPID_UNKNOWN in dispids else S_OK

    def _raw_invoke(self, words: list[int]) -> int:
        (_this, dispid, _riid, _lcid, _wflags, dp_addr, result_addr,
         _excep_addr, argerr_addr) = check_words("Invoke", words, 9)
        mem = self.mem
        sig = self.by_id.get(dispid)
        if sig is None:
            return DISP_E_MEMBERNOTFOUND
        argc, args_addr = mem.read(dp_addr, 2) if dp_addr else (0, 0)
        if argc != len(sig.ins):
            return DISP_E_BADPARAMCOUNT
        ws = mem.read(args_addr, 2 * argc) if argc else []
        variants = []
        for at in range(0, len(ws), 2):
            codec = _PAYLOAD.get(ws[at])
            if codec is None:
                if argerr_addr:
                    mem.store(argerr_addr, [at // 2])
                return DISP_E_BADVARTYPE
            variants.append(Variant(ws[at], codec.unpack(mem, ws, at + 1, None)))
        try:
            result = self.call(dispid, variants)
        except AutomationError as exc:
            if exc.arg_index is not None and argerr_addr:
                mem.store(argerr_addr, [exc.arg_index])
            return exc.hresult
        if result_addr:
            # a BSTR is callee-allocated: the caller owns and frees the block,
            # unless the store into the result slot faults
            words, packed = [result.tag], []
            _PAYLOAD[result.tag].pack(mem, result.value, words, packed)
            try:
                mem.store(result_addr, words)
            except MemFault:
                mem.give_back(packed)
                raise
        return S_OK

    def call(self, dispid: int, args: list[Variant]) -> Variant:
        """Coerce `args` and call the skeleton installed in the method's slot."""
        sig = self.by_id[dispid]
        row = self.desc.invoke_rows.get(id(sig)) or _row_of(sig, self.desc)
        if len(args) != row.plan.n_ins:
            raise AutomationError(
                f"{sig.name} takes {row.plan.n_ins} arguments, got {len(args)}",
                DISP_E_BADPARAMCOUNT)
        values = []
        for i, (v, (kind, tags, codec, sign)) in enumerate(zip(args, row.args)):
            x = v.value
            if sign is not None and (v.tag == VT_I4 or v.tag == VT_UI4) \
                    and type(x) is int and -0x80000000 <= x <= 0xFFFFFFFF:
                values.append(((x & WORD_MASK) ^ sign) - sign)
            else:
                values.append(_coerce(i, v, kind, tags, codec))
        results = marshal.call(sig, self.methods[dispid - 1], values, self.mem, self.desc)
        if not results:
            return Variant.empty()
        if len(results) == 1:
            return _variant_of(results[0], *row.result)
        raise AutomationError(
            f"{sig.name} has {len(results)} results; Invoke carries at most one",
            DISP_E_TYPEMISMATCH)


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
    dispid = _dispatch_of(ref).by_name.get(name.casefold())
    if dispid is None:
        raise AutomationError(f"unknown name {name!r}", DISP_E_UNKNOWNNAME)
    return dispid


def invoke(ref: InterfaceRef, dispid: int, args: Sequence[Variant]) -> Variant:
    disp = _dispatch_of(ref)
    if dispid not in disp.by_id:
        raise AutomationError(f"no member with DISPID {dispid}",
                              DISP_E_MEMBERNOTFOUND)
    return disp.call(dispid, list(args))
