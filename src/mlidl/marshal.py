"""Value marshalling and the call drivers.

Each semantic type kind has one codec (`codec_of`): its width in words, a
pack function that appends a value's words to a list the caller passes in
(recording the blocks it allocates), and an unpack function that decodes a
value at an offset into the words it is given.  Inline values are thus
packed into, and decoded from, the argument list itself, with no word list
per value.  A codec may be looked up without a binding description (only
an enum's or a record's needs one), but a plan is always built against one:
each signature has one plan per description (`plan_of`), cached on it and
read by both the client `call` and the server `skeleton`.
The plan gives every parameter, in declaration order (the ABI argument
order), its IDL direction, on which alone the drivers branch, and the wire
codec of its argument words:

    in            the value's own codec: its words inline
    in, byref     by reference: the address of a block holding the value
    in, size_is   the address of a block of elements; it reads its count
                  from the [in] integer argument that size_is names
    out, inout    by reference: a block the callee writes back

Scalars, handles, bools and enums are one word; strings and callbacks are an
address; a record is its fields' codecs end to end, in declaration order with
no padding, and its unpack reads each field where its pack put it.  That is
the layout rule of `binding.model.lay_out`, so it agrees with every layout.
A string's block holds its text (UTF-8 for string8, UTF-16 for string16),
one NUL unit and zero padding to a whole word.  One codec maker,
`_string_codec`, owns that rule for both kinds: a pack is one `alloc` and one
`store`, a read is one `Mem.read_rest`, NULL reads as "", and a block with no
NUL unit is `OutOfBounds`, never a read into the next block.

A plan is flat when every wire is a one-word value passed inline (int32,
word32, handle, opaque, bool or enum) and so is the return value, if any:
the shape of the GDI calls the bounce demo makes on each tick.  Those codecs
have a `to_word` and a `from_word`.  A flat plan is compiled, when it is
built, into its own client and stub maker: closures that hold what they read
of the plan.  A flat call makes one `Mem.call` and converts the returned
word; neither side allocates.  `call` checks the target and hands the client
the arguments; `skeleton` hands the stub maker the implementation.  What the
closures do differs by the plan's wires, chosen once per plan:

    integer wires only   the client checks and masks the arguments in one
                         loop, going through each wire's `to_word` only when
                         a value fails that check (the first bad value
                         raises there).  The stub masks the words in one
                         loop and, if any wire is int32, takes them as
                         signed through one shared `struct.Struct` pack and
                         unpack.  Both loops run in the closure's own frame:
                         on CPython 3.11 that is cheaper than a
                         comprehension, and than `map` over a builtin.
    a bool or enum wire  the client converts each argument through its
                         wire's `to_word`, and the stub decodes each word
                         through its `from_word`.

Both sides encode or decode an int or bool return inline; any other return,
and a result that is not one plain value, goes through its codec and the
result count check.  Every other plan takes the general path below.  Both
paths raise the same errors in the same order.

When the call returns, the caller frees every block it packed and releases
each closure registration its packing made for a host callable (an `[in]`
callback, or a callback field of a record it passes): a callee that keeps
the address registers the callable itself, as `SimWorld.SetTimer` and
`RegisterClassExA` do.  Each string and callback the callee hands back (in
an out parameter, an out record's field or the return value) comes with a
block or a registration of its own, which the caller frees or releases once
it has decoded it; the stub makes them as it packs the results, and gives
them back itself if a later result fails to pack.  Out and in-out arrays
and record return values are rejected with `Unsupported` when the plan is
built.  An array's count comes from the caller's words, and the block its
address names bounds it: `Mem.read` of count times stride words faults past
the block's end.  The stride is the element's width, or one unused word for
an element that takes none (a record with no fields), so that no element
count goes unbounded.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

from mlidl.binding.model import BindingDesc, EnumMap, LiftedSig, RecordLayout
from mlidl.semtypes import SemType
from mlidl.wordmem import WORD_MASK, Mem, OutOfBounds, Symbol, WordFn, to_signed, word

Value = Any


class MarshalError(Exception):
    pass


class TypeMismatch(MarshalError):
    pass


class BadString(MarshalError):
    pass


class DecodeError(MarshalError):
    pass


class ArityMismatch(MarshalError):
    pass


class Unsupported(MarshalError):
    """A signature shape the word ABI cannot carry."""


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


def _encoded(s: str, encoding: str) -> bytes:
    """`s` encoded; a NUL or a character `encoding` cannot carry is BadString."""
    if "\x00" in s:
        raise BadString("string contains NUL")
    try:
        return s.encode(encoding)
    except UnicodeEncodeError as exc:     # a lone surrogate
        raise BadString(f"string is not encodable as {encoding.upper()}: "
                        f"{exc.reason} at index {exc.start}") from None


def _string_codec(kind: str, encoding: str, nul: bytes) -> Codec:
    """The codec of string kind `kind`, whose text is `encoding` ended by
    the NUL unit `nul`: the one owner of the string rule (module docstring)."""

    def pack(mem: Mem, v: Value, words: list[int], temps: list[int]) -> None:
        if not isinstance(v, str):
            raise TypeMismatch(f"expected a string, got {v!r}")
        data = _encoded(v, encoding) + nul
        data += bytes(-len(data) % 4)
        temps.append(mem.alloc(len(data) // 4))
        mem.store(temps[-1], list(struct.unpack(f"<{len(data) // 4}I", data)))
        words.append(temps[-1])

    def unpack(mem: Mem, ws: Sequence[int], at: int,
               owned: Optional[list[int]]) -> str:
        addr = ws[at] & WORD_MASK
        if addr == 0:
            return ""
        block = mem.read_rest(addr)
        raw = struct.pack(f"<{len(block)}I", *block)
        end = raw.find(nul)
        while end > 0 and end % len(nul):       # a NUL unit starts on a unit boundary
            end = raw.find(nul, end + 1)
        if end < 0:
            raise OutOfBounds(f"{kind} at {addr:#x} has no NUL before the end of its block")
        try:
            s = raw[:end].decode(encoding)
        except UnicodeDecodeError as exc:
            raise DecodeError(f"{kind} at {addr:#x} is not valid {encoding.upper()}: "
                              f"{exc.reason} at byte {exc.start}") from None
        if owned is not None and addr not in owned:
            owned.append(addr)
        return s

    return Codec(1, pack, unpack)


def _pack_callback(mem: Mem, v: Value, words: list[int], temps: list[int]) -> None:
    """A host callable is registered for the call: its address joins `temps`,
    so the packer releases the registration with the call's blocks."""
    if v is None:
        words.append(0)
    elif callable(v):
        temps.append(mem.fun_to_addr(v))
        words.append(temps[-1])
    else:
        raise TypeMismatch(f"expected a callable or None, got {v!r}")


def _unpack_callback(mem: Mem, ws: Sequence[int], at: int,
                     owned: Optional[list[int]]) -> Value:
    w = word(ws[at])
    fn = None if w == 0 else mem.addr_to_fun(w)
    if w and owned is not None:
        owned.append(w)     # a result's registration, for the caller to release
    return fn


def _no_iid(*_: Any) -> Value:
    raise MarshalError("unknown record type 'IID'")


# kinds whose codec needs no binding description
_CODECS: dict[str, Codec] = {
    "int32": _int_codec("int32", to_signed),
    "word32": _int_codec("word32", word),
    "handle": _int_codec("handle", word),
    "opaque": _int_codec("opaque", word),
    "bool": _word_codec(_bool_to_word, _bool_from_word),
    "string8": _string_codec("string8", "utf-8", b"\0"),
    "string16": _string_codec("string16", "utf-16-le", b"\0\0"),
    "callback": Codec(1, _pack_callback, _unpack_callback),
}

# COM's IID has a 4-word layout, but no values cross yet
_IID = Codec(4, _no_iid, _no_iid)


def pack_string8(mem: Mem, s: str) -> int:
    """The address of a fresh string8 block holding `s`."""
    words: list[int] = []
    _CODECS["string8"].pack(mem, s, words, [])
    return words[0]


def read_string8(mem: Mem, addr: int) -> str:
    """The string8 at `addr`, or "" for NULL."""
    return _CODECS["string8"].unpack(mem, (addr,), 0, None)


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
    through `count`, the plan step of the count of parameter `where`.  An
    element that takes no words holds one unused word of the block, so the
    block bounds the count of any array."""
    stride = max(elem.width, 1)

    def pack(mem: Mem, v: Value, words: list[int], temps: list[int]) -> None:
        if not isinstance(v, list):
            raise TypeMismatch(f"expected a list for array, got {v!r}")
        elems: list[int] = []
        for item in v:
            elem.pack(mem, item, elems, temps)
        if stride != elem.width:
            elems = [0] * len(v)
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
        block = mem.read(ws[at], n * stride)
        return [elem.unpack(mem, block, k * stride, owned) for k in range(n)]

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
    # flat plans only: the client, which `call` hands a checked target, the
    # in-arguments and the world, and the stub maker, which `skeleton` hands
    # the implementation
    client: Optional[Callable[[Union[WordFn, int], Sequence[Value], Mem],
                              list[Value]]] = None
    stub: Optional[Callable[[Callable[..., Any]], WordFn]] = None


# one reinterpreting Struct per format, shared by every plan that uses it
_STRUCTS: dict[str, struct.Struct] = {}


def plan_of(sig: LiftedSig, desc: BindingDesc) -> Plan:
    """The plan of `sig`, built once per binding description."""
    plan = desc.plans.get(id(sig))
    if plan is None:
        # the plan holds `sig`, so its id stays unique while cached
        plan = desc.plans[id(sig)] = _build_plan(sig, desc)
    return plan


def _build_plan(sig: LiftedSig, desc: BindingDesc) -> Plan:
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
    flat = all([s.wire.to_word is not None for s in steps]) \
        and (ret is None or ret.to_word is not None)
    if not flat:
        return Plan(sig, tuple(steps), arity, len(ins), len(sig.results), ret)

    # The flat kernels, built here once per plan.  They close over what
    # they read of the plan, never over the plan or a world, so nothing a
    # plan keeps refers back to it.
    name = sig.name
    to_words = tuple([s.wire.to_word for s in steps])
    from_words = tuple([s.wire.from_word for s in steps])
    # an integer wire decodes with to_signed (int32) or word; a plan with
    # any other wire (a bool or an enum) converts every value through its
    # codec, since a plain 1 on a bool wire is a TypeMismatch
    codes = "".join(["i" if f is to_signed else "I" if f is word else "?"
                     for f in from_words])
    masks = "?" not in codes
    # the return: an integer's sign bit (int32: bit 31, word32: none), or
    # a bool, or any other one-word kind through its codec
    rsign = None if ret is None or ret.from_word not in (to_signed, word) \
        else 0x80000000 if ret.from_word is to_signed else 0
    rbool = ret is not None and ret.from_word is _bool_from_word
    # int32 words are reinterpreted as signed in one pack and unpack
    pack = unpack = None
    if masks and "i" in codes:
        fmt = "<" + "I" * arity
        pack = (_STRUCTS.get(fmt) or _STRUCTS.setdefault(fmt, struct.Struct(fmt))).pack
        fmt = "<" + codes
        unpack = (_STRUCTS.get(fmt) or _STRUCTS.setdefault(fmt, struct.Struct(fmt))).unpack

    def client(target: Union[WordFn, int], values: Sequence[Value],
               mem: Mem) -> list[Value]:
        # an integer plan checks and masks every value in one pass; a value
        # that pass refuses (a bool, an int subclass, a non-int, an
        # out-of-range int) sends the whole list through each wire's
        # to_word, which raises for the first bad value or converts an int
        # subclass.  Any other plan's values always go that way.
        words = []
        for v in values:
            if masks and type(v) is int and -0x80000000 <= v <= 0xFFFFFFFF:
                words.append(v & WORD_MASK)
            else:
                words = [to_word(v) for to_word, v in zip(to_words, values)]
                break
        w = mem.call(target, words) if isinstance(target, int) \
            else target(words) & WORD_MASK
        if rsign is not None:
            return [(w ^ rsign) - rsign]
        if ret is None:
            return []
        return [w != 0] if rbool else [ret.from_word(w)]

    def make_stub(impl: Callable[..., Any]) -> WordFn:
        def stub(words: list[int]) -> int:
            if len(words) != arity:
                raise ArityMismatch(
                    f"{name}: expected {arity} argument words, got {len(words)}")
            if masks:
                masked = []
                for w in words:
                    masked.append(w & WORD_MASK)
                result = impl(*unpack(pack(*masked))) if unpack is not None \
                    else impl(*masked)
            else:
                result = impl(*[from_word(w) for from_word, w in zip(from_words, words)])
            # a plain int or bool result is encoded here; anything else goes
            # through the result count check and the return's to_word
            if rsign is not None:
                if type(result) is int and -0x80000000 <= result <= 0xFFFFFFFF:
                    return result & WORD_MASK
            elif rbool:
                if result is True:
                    return 1
                if result is False:
                    return 0
            elif ret is None:
                if result is not None:
                    _results(name, 0, result)
                return 0
            if result is None or isinstance(result, tuple):
                result = _results(name, 1, result)[0]
            return ret.to_word(result)

        return stub

    return Plan(sig, tuple(steps), arity, len(ins), len(sig.results), ret,
                client, make_stub)


def abi_arity(sig: LiftedSig, desc: BindingDesc) -> int:
    return plan_of(sig, desc).arity


# -- client call driver ---------------------------------------------------------


def call(sig: LiftedSig, f: Union[WordFn, Symbol, int], ins: Sequence[Value],
         mem: Mem, desc: BindingDesc) -> list[Value]:
    plan = desc.plans.get(id(sig)) or plan_of(sig, desc)
    if len(ins) != plan.n_ins:
        raise ArityMismatch(
            f"{sig.name} takes {plan.n_ins} in-arguments, got {len(ins)}")
    target = f      # a host callable as given, or a checked closure address
    if isinstance(f, Symbol):
        if f.arity is not None and f.arity != plan.arity:
            raise ArityMismatch(
                f"{sig.name}: symbol expects {f.arity} argument words "
                f"({f.convention} convention), got {plan.arity}")
        target = f.addr
    if isinstance(target, int):
        if target not in mem._closures:
            mem.addr_to_fun(target)   # fail early on a stale address: NotCallable
    elif not callable(target):
        raise TypeMismatch(f"not callable: {target!r}")

    client = plan.client
    if client is not None:
        return client(target, ins, mem)

    temps: list[int] = []
    outs: list[tuple[Codec, int]] = []
    try:
        words = []
        args = iter(ins)
        for name, direction, codec, wire, _, count in plan.steps:
            if direction == "out":
                temps.append(mem.alloc(max(codec.width, 1)))     # as `_ref_codec`'s block
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
        if temps:       # a plan that packed nothing pays for no call here
            mem.give_back(temps)


# -- server-side skeleton -----------------------------------------------------


def _results(name: str, n_results: int, result: Any) -> tuple[Value, ...]:
    """An implementation's result as the tuple of the `n_results` results of
    operation `name`."""
    if result is None:
        values: tuple[Value, ...] = ()
    elif isinstance(result, tuple):
        values = result
    else:
        values = (result,)
    if len(values) != n_results:
        raise ArityMismatch(
            f"{name}: implementation returned {len(values)} values, "
            f"signature has {n_results} results")
    return values


def skeleton(sig: LiftedSig, impl: Callable[..., Any], mem: Mem,
             desc: BindingDesc) -> WordFn:
    """Wrap a host function as a raw word-list closure.

    The implementation receives the in-parameters as host values (declaration
    order) and returns the results in signature order: one value per out
    parameter, then the return value last if the operation is not void.  A
    void operation with no outs may return None.
    """
    plan = plan_of(sig, desc)
    if plan.stub is not None:
        return plan.stub(impl)

    def stub(words: list[int]) -> int:
        if len(words) != plan.arity:
            raise ArityMismatch(
                f"{sig.name}: expected {plan.arity} argument words, got {len(words)}")
        args: list[Value] = []
        outs: list[tuple[Codec, int]] = []
        for _, direction, codec, wire, at, _ in plan.steps:
            if direction != "out":
                args.append(wire.unpack(mem, words, at, None))
            if direction != "in":
                outs.append((codec, words[at]))

        values = _results(sig.name, plan.n_results, impl(*args))
        given: list[int] = []    # blocks packed here now belong to the caller
        try:
            for (codec, addr), v in zip(outs, values):
                block: list[int] = []
                codec.pack(mem, v, block, given)
                mem.store(addr, block)
            if plan.ret is None:
                return 0
            ret: list[int] = []
            plan.ret.pack(mem, values[-1], ret, given)
            return ret[0]
        except BaseException:
            mem.give_back(given)    # as `call` gives back its temps; the caller gets none
            raise

    return stub


# -- client-side binder ---------------------------------------------------------


class BoundInterface:
    """Callable attributes for every operation of one interface."""

    def __init__(self, desc: BindingDesc, name: str, mem: Mem) -> None:
        iface = desc.interface(name)
        if iface.source is None:
            raise MarshalError(f"interface {name!r} has no source library")
        lib = mem.open_library(iface.source)
        for op in iface.ops:
            if op.kind != "method":
                continue
            sym = mem.get_symbol(lib, op.name)
            setattr(self, op.name, _bound_op(op, sym, mem, desc))


def _bound_op(sig: LiftedSig, sym: Symbol, mem: Mem, desc: BindingDesc):
    def invoke(*args: Value) -> Value:
        results = call(sig, sym, args, mem, desc)
        if not results:
            return None
        if len(results) == 1:
            return results[0]
        return tuple(results)

    invoke.__name__ = sig.name
    return invoke


def bind(desc: BindingDesc, mem: Mem) -> dict[str, BoundInterface]:
    """Bind every interface of a dynamic-mode description to its library."""
    return {i.name: BoundInterface(desc, i.name, mem) for i in desc.interfaces}
