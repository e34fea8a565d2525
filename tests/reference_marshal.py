"""Independent marshalling oracle: the client `call` and the server
`skeleton`, flat path and general path, with the codecs and plans they run
on, as they stood before the flat path got per-plan conversion kernels.

A frozen copy, kept only so that tests can check `mlidl.marshal` against it
result for result, error for error and `Mem` operation for `Mem`
operation.  Do not edit it to follow the marshaller; a difference between
the two is what the tests look for.  It shares only the error classes, the
binding model and `wordmem` with the program, and it builds a fresh plan on
every call instead of caching one on the description, which changes no
result and no `Mem` operation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

from mlidl.binding.model import BindingDesc, EnumMap, LiftedSig, RecordLayout
from mlidl.marshal import (
    ArityMismatch,
    BadString,
    DecodeError,
    MarshalError,
    TypeMismatch,
    Unsupported,
)
from mlidl.semtypes import SemType
from mlidl.wordmem import WORD_MASK, Mem, OutOfBounds, Symbol, WordFn, to_signed, word

Value = Any


# -- strings -------------------------------------------------------------------


def _encoded(s: str, encoding: str) -> bytes:
    """`s` encoded; a NUL or a character `encoding` cannot carry is BadString."""
    if "\x00" in s:
        raise BadString("string contains NUL")
    try:
        return s.encode(encoding)
    except UnicodeEncodeError as exc:     # a lone surrogate
        raise BadString(f"string is not encodable as {encoding.upper()}: "
                        f"{exc.reason} at index {exc.start}") from None


def _pack_text(mem: Mem, s: str, encoding: str, nul: bytes) -> int:
    """One block holding `s` encoded, one NUL unit, and zero padding to a
    whole word; packed with one alloc and one store."""
    data = _encoded(s, encoding) + nul
    data += bytes(-len(data) % 4)
    addr = mem.alloc(len(data) // 4)
    mem.store(addr, list(struct.unpack(f"<{len(data) // 4}I", data)))
    return addr


def _read_text(mem: Mem, addr: int, encoding: str, nul: bytes, kind: str) -> str:
    """The text at `addr`, up to the first NUL unit inside the block that
    holds `addr`, read with one `Mem.read_rest`; a missing NUL is an overrun."""
    if addr == 0:
        return ""
    ws = mem.read_rest(addr)
    raw = struct.pack(f"<{len(ws)}I", *ws)
    end = raw.find(nul)
    while end > 0 and end % len(nul):       # a NUL unit starts on a unit boundary
        end = raw.find(nul, end + 1)
    if end < 0:
        raise OutOfBounds(f"{kind} at {addr:#x} has no NUL before the end of its block")
    try:
        return raw[:end].decode(encoding)
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{kind} at {addr:#x} is not valid {encoding.upper()}: "
                          f"{exc.reason} at byte {exc.start}") from None


def pack_string8(mem: Mem, s: str) -> int:
    return _pack_text(mem, s, "utf-8", b"\0")


def read_string8(mem: Mem, addr: int) -> str:
    return _read_text(mem, addr, "utf-8", b"\0", "string8")


def pack_string16(mem: Mem, s: str) -> int:
    return _pack_text(mem, s, "utf-16-le", b"\0\0")


def read_string16(mem: Mem, addr: int) -> str:
    return _read_text(mem, addr, "utf-16-le", b"\0\0", "string16")


# -- codecs ---------------------------------------------------------------------


@dataclass(frozen=True)
class Codec:
    """`pack(mem, value, words, temps)` appends `width` words to `words` and
    every block it allocates to `temps`.  `unpack(mem, words, at, owned)` is
    its inverse: it decodes the `width` words starting at `words[at]`; if
    `owned` is a list, it also gets the callee-allocated strings decoded.

    A one-word value kind (integers, handles, bools, enums) also has
    `to_word(value)` and `from_word(word)`, which check and convert one value
    with no memory; its pack and unpack are derived from them."""

    width: int
    pack: Callable[[Mem, Value, list[int], list[int]], None]
    unpack: Callable[[Mem, Sequence[int], int, Optional[list[int]]], Value]
    to_word: Optional[Callable[[Value], int]] = None
    from_word: Optional[Callable[[int], Value]] = None


def _word_codec(to_word: Callable[[Value], int],
                from_word: Callable[[int], Value]) -> Codec:
    return Codec(1, lambda mem, v, words, temps: words.append(to_word(v)),
                 lambda mem, ws, at, owned: from_word(ws[at]),
                 to_word=to_word, from_word=from_word)


def _int_codec(kind: str, from_word: Callable[[int], int]) -> Codec:
    def to_word(v: Value) -> int:
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
            raise TypeMismatch(f"expected an integer for {kind}, got {v!r}")
        if not (-0x80000000 <= v <= 0xFFFFFFFF):
            raise TypeMismatch(f"integer {v} does not fit in 32 bits")
        return v & WORD_MASK

    return _word_codec(to_word, from_word)


def _bool_to_word(v: Value) -> int:
    if v is True:
        return 1
    if v is False:
        return 0
    raise TypeMismatch(f"expected a bool, got {v!r}")


def _bool_from_word(w: int) -> bool:
    return (w & WORD_MASK) != 0


def _string_codec(pack_str: Callable[[Mem, str], int],
                  read_str: Callable[[Mem, int], str]) -> Codec:
    def pack(mem: Mem, v: Value, words: list[int], temps: list[int]) -> None:
        if not isinstance(v, str):
            raise TypeMismatch(f"expected a string, got {v!r}")
        temps.append(pack_str(mem, v))
        words.append(temps[-1])

    def unpack(mem: Mem, ws: Sequence[int], at: int,
               owned: Optional[list[int]]) -> str:
        addr = word(ws[at])
        s = read_str(mem, addr)
        if owned is not None and addr and addr not in owned:
            owned.append(addr)
        return s

    return Codec(1, pack, unpack)


def _pack_callback(mem: Mem, v: Value, words: list[int], temps: list[int]) -> None:
    if v is None:
        words.append(0)
    elif callable(v):
        words.append(mem.fun_to_addr(v))
    else:
        raise TypeMismatch(f"expected a callable or None, got {v!r}")


def _unpack_callback(mem: Mem, ws: Sequence[int], at: int,
                     owned: Optional[list[int]]) -> Value:
    w = word(ws[at])
    return None if w == 0 else mem.addr_to_fun(w)


def _no_iid(*_: Any) -> Value:
    raise MarshalError("unknown record type 'IID'")


# kinds whose codec needs no binding description
_CODECS: dict[str, Codec] = {
    "int32": _int_codec("int32", to_signed),
    "word32": _int_codec("word32", word),
    "handle": _int_codec("handle", word),
    "opaque": _int_codec("opaque", word),
    "bool": _word_codec(_bool_to_word, _bool_from_word),
    "string8": _string_codec(pack_string8, read_string8),
    "string16": _string_codec(pack_string16, read_string16),
    "callback": Codec(1, _pack_callback, _unpack_callback),
}

# COM's IID has a 4-word layout, but no values cross yet
_IID = Codec(4, _no_iid, _no_iid)


def codec_of(t: SemType, desc: Optional[BindingDesc] = None) -> Codec:
    """The codec of `t`; enum and record codecs are resolved against `desc`."""
    if t.kind in _CODECS:
        return _CODECS[t.kind]
    if t.kind == "array":
        return _array_codec(codec_of(t.elem, desc))
    if t.kind == "unit":
        raise MarshalError("void is not a value type")
    found = desc.lookup(t.kind, t.name) if desc else None
    if isinstance(found, RecordLayout):
        return _record_codec(found, desc)
    if isinstance(found, EnumMap):
        return _enum_codec(found)
    if t.kind == "record" and t.name == "IID":
        return _IID
    raise MarshalError(f"unknown {t.kind} type {t.name!r}")


def _enum_codec(enum: EnumMap) -> Codec:
    def to_word(v: Value) -> int:
        if not isinstance(v, str):
            raise TypeMismatch(f"expected a {enum.name} variant name, got {v!r}")
        try:
            return enum.to_int(v)
        except KeyError as exc:
            raise TypeMismatch(str(exc)) from None

    def from_word(w: int) -> str:
        name = enum.from_int(w)
        if name is None:
            raise DecodeError(f"{enum.name} has no variant with value {word(w):#x}")
        return name

    return _word_codec(to_word, from_word)


def _record_codec(layout: RecordLayout, desc: BindingDesc) -> Codec:
    fields: list[tuple[str, int, Codec]] = []    # name, offset, codec
    width = 0
    try:
        for f in layout.fields:
            fields.append((f.name, width, codec_of(f.sem, desc)))
            width += fields[-1][2].width
    except RecursionError:      # a description built in code may nest a record in itself
        raise MarshalError(f"record {layout.name!r} contains itself") from None
    names = {f.name for f in layout.fields}

    def pack(mem: Mem, v: Value, words: list[int], temps: list[int]) -> None:
        if not isinstance(v, dict):
            raise TypeMismatch(f"expected a field map for {layout.name}, got {v!r}")
        if v.keys() != names:
            raise TypeMismatch(
                f"field set {sorted(v.keys())} does not match record "
                f"{layout.name} {sorted(names)}")
        for name, _, codec in fields:
            codec.pack(mem, v[name], words, temps)

    def unpack(mem: Mem, ws: Sequence[int], at: int,
               owned: Optional[list[int]]) -> dict:
        return {name: codec.unpack(mem, ws, at + off, owned)
                for name, off, codec in fields}

    return Codec(width, pack, unpack)


def _ref_codec(codec: Codec) -> Codec:
    """One word: the address of a fresh block holding the value."""
    pack_value, unpack_value, width = codec.pack, codec.unpack, codec.width

    def pack(mem: Mem, v: Value, words: list[int], temps: list[int]) -> None:
        block: list[int] = []
        pack_value(mem, v, block, temps)
        temps.append(mem.alloc(max(len(block), 1)))
        mem.store(temps[-1], block)
        words.append(temps[-1])

    return Codec(1, pack, lambda mem, ws, at, owned:
                 unpack_value(mem, mem.read(ws[at], width), 0, owned))


def _array_codec(elem: Codec, where: str = "", count: Optional[Step] = None) -> Codec:
    """One word: the address of a block of elements.  Unpack reads how many
    through `count`, the plan step of the count of parameter `where`."""
    def pack(mem: Mem, v: Value, words: list[int], temps: list[int]) -> None:
        if not isinstance(v, list):
            raise TypeMismatch(f"expected a list for array, got {v!r}")
        elems: list[int] = []
        for item in v:
            elem.pack(mem, item, elems, temps)
        temps.append(mem.alloc(max(len(elems), 1)))
        mem.store(temps[-1], elems)
        words.append(temps[-1])

    def unpack(mem: Mem, ws: Sequence[int], at: int,
               owned: Optional[list[int]]) -> list:
        if count is None:
            raise MarshalError("an array needs its element count")
        n = count.codec.unpack(mem, ws, count.at, None)
        if n < 0:
            raise TypeMismatch(f"{where}: bad element count {n}")
        block = mem.read(ws[at], n * elem.width)
        return [elem.unpack(mem, block, k, owned)
                for k in range(0, len(block), elem.width)]

    return Codec(1, pack, unpack)


# -- plans ----------------------------------------------------------------------


class Step(NamedTuple):
    name: str
    dir: str                    # in | out | inout
    codec: Codec                # the value's codec
    wire: Codec                 # the codec of its argument words
    at: int                     # index of its first argument word
    count: Optional[int] = None     # arrays: the in-argument index of the count


@dataclass(frozen=True)
class Plan:
    sig: LiftedSig
    steps: tuple[Step, ...]
    arity: int                  # argument words
    n_ins: int
    n_results: int
    ret: Optional[Codec]
    # flat plans only: each wire's to_word, then its from_word
    to_words: Optional[tuple[Callable[[Value], int], ...]] = None
    from_words: Optional[tuple[Callable[[int], Value], ...]] = None


def plan_of(sig: LiftedSig, desc: Optional[BindingDesc] = None) -> Plan:
    """A fresh plan of `sig`."""
    return _build_plan(sig, desc)


def _build_plan(sig: LiftedSig, desc: Optional[BindingDesc]) -> Plan:
    ins = [p for p in sig.params if p.dir != "out"]
    steps: list[Step] = []
    arity = 0
    for p in sig.params:
        if p.sem.kind == "array" and p.dir != "in":
            raise Unsupported(f"{sig.name}.{p.name}: {p.dir} arrays are not supported")
        codec = codec_of(p.sem, desc)
        wire = _ref_codec(codec) if p.dir != "in" or p.byref else codec
        steps.append(Step(p.name, p.dir, codec, wire, arity))
        arity += wire.width
    for i, p in enumerate(sig.params):
        if p.sem.kind != "array":
            continue
        n = next((q for q in ins if q.name == p.sem.len_from), None)
        if n is None or n.dir != "in" or n.byref \
                or n.sem.kind not in ("int32", "word32", "handle"):
            raise Unsupported(f"{sig.name}.{p.name}: size_is({p.sem.len_from}) "
                              f"is not an [in] integer parameter")
        wire = _array_codec(codec_of(p.sem.elem, desc), f"{sig.name}.{p.name}",
                            steps[sig.params.index(n)])
        steps[i] = steps[i]._replace(wire=wire, count=ins.index(n))
    ret = None
    if sig.ret is not None:
        if sig.ret.sem.kind in ("record", "array"):
            raise Unsupported(f"{sig.name}.return: {sig.ret.sem.kind} return "
                              f"values are not supported")
        ret = codec_of(sig.ret.sem, desc)
    flat = all(s.wire.to_word is not None for s in steps) \
        and (ret is None or ret.to_word is not None)
    return Plan(sig, tuple(steps), arity, len(ins), len(sig.results), ret,
                tuple(s.wire.to_word for s in steps) if flat else None,
                tuple(s.wire.from_word for s in steps) if flat else None)


# -- client call driver ---------------------------------------------------------


def _target(f: Union[WordFn, Symbol, int], mem: Mem, sig: LiftedSig,
            nwords: int) -> Union[WordFn, int]:
    """A host callable as given, or a checked closure address for `Mem.call`."""
    if isinstance(f, Symbol):
        if f.arity is not None and f.arity != nwords:
            raise ArityMismatch(
                f"{sig.name}: symbol expects {f.arity} argument words "
                f"({f.convention} convention), got {nwords}")
        f = f.addr
    if isinstance(f, int):
        mem.addr_to_fun(f)   # fail early on a stale address
        return f
    if callable(f):
        return f
    raise TypeMismatch(f"not callable: {f!r}")


def call(sig: LiftedSig, f: Union[WordFn, Symbol, int], ins: Sequence[Value],
         mem: Mem, desc: Optional[BindingDesc] = None) -> list[Value]:
    plan = plan_of(sig, desc)
    if len(ins) != plan.n_ins:
        raise ArityMismatch(
            f"{sig.name} takes {plan.n_ins} in-arguments, got {len(ins)}")
    target = _target(f, mem, sig, plan.arity)

    if plan.to_words is not None:
        words = [to_word(v) for to_word, v in zip(plan.to_words, ins)]
        ret_word = mem.call(target, words) if isinstance(target, int) \
            else word(target(words))
        return [] if plan.ret is None else [plan.ret.from_word(ret_word)]

    temps: list[int] = []
    outs: list[tuple[Codec, int]] = []
    try:
        words = []
        args = iter(ins)
        for name, direction, codec, wire, _, count in plan.steps:
            if direction == "out":
                temps.append(mem.alloc(codec.width))
                words.append(temps[-1])
            else:
                v = next(args)
                if count is not None and isinstance(v, list) \
                        and isinstance(ins[count], int) and ins[count] != len(v):
                    raise TypeMismatch(f"{sig.name}.{name}: array has {len(v)} elements "
                                       f"but {sig.ins[count].name} is {ins[count]}")
                wire.pack(mem, v, words, temps)
            if direction != "in":
                outs.append((codec, words[-1]))

        ret_word = mem.call(target, words) if isinstance(target, int) \
            else word(target(words))

        results = [codec.unpack(mem, mem.read(addr, codec.width), 0, temps)
                   for codec, addr in outs]
        if plan.ret is not None:
            results.append(plan.ret.unpack(mem, (ret_word,), 0, temps))
        return results
    finally:
        for addr in temps:
            mem.free(addr)


# -- server-side skeleton -----------------------------------------------------


def _results(plan: Plan, result: Any) -> tuple[Value, ...]:
    """An implementation's result as the tuple of its signature's results."""
    if result is None:
        values: tuple[Value, ...] = ()
    elif isinstance(result, tuple):
        values = result
    else:
        values = (result,)
    if len(values) != plan.n_results:
        raise ArityMismatch(
            f"{plan.sig.name}: implementation returned {len(values)} values, "
            f"signature has {plan.n_results} results")
    return values


def skeleton(sig: LiftedSig, impl: Callable[..., Any], mem: Mem,
             desc: Optional[BindingDesc] = None) -> WordFn:
    """Wrap a host function as a raw word-list closure.

    The implementation receives the in-parameters as host values (declaration
    order) and returns the results in signature order: one value per out
    parameter, then the return value last if the operation is not void.  A
    void operation with no outs may return None.
    """
    plan = plan_of(sig, desc)

    def stub(words: list[int]) -> int:
        if len(words) != plan.arity:
            raise ArityMismatch(
                f"{sig.name}: expected {plan.arity} argument words, got {len(words)}")
        from_words = plan.from_words
        if from_words is not None:
            values = _results(plan, impl(*[from_word(w) for from_word, w
                                           in zip(from_words, words)]))
            return 0 if plan.ret is None else plan.ret.to_word(values[0])
        args: list[Value] = []
        outs: list[tuple[Codec, int]] = []
        for _, direction, codec, wire, at, _ in plan.steps:
            if direction != "out":
                args.append(wire.unpack(mem, words, at, None))
            if direction != "in":
                outs.append((codec, words[at]))

        values = _results(plan, impl(*args))
        given: list[int] = []    # blocks packed here now belong to the caller
        for (codec, addr), v in zip(outs, values):
            block: list[int] = []
            codec.pack(mem, v, block, given)
            mem.store(addr, block)
        if plan.ret is not None:
            ret: list[int] = []
            plan.ret.pack(mem, values[-1], ret, given)
            return ret[0]
        return 0

    return stub
