"""COM object model over the virtual ABI.

An interface is a one-word heap block holding the address of its vtable
block; vtable slots are closure addresses with QueryInterface, AddRef and
Release always in slots 0..2.  An object registers each of those three
once, and every vtable it lays out holds the same three addresses.
Reference counting is per object: all of an object's interfaces share one
count, and when it reaches zero the object hands its one owned list, every
block and registration it made in the order it made them, to
`Mem.give_back`, so a call through a stale slot raises `NotCallable` and
the world keeps nothing of the object alive.  A failed
construction is undone the same way: an object whose IUnknown cannot be
built is `_destroy`ed, so it holds no block, no slot and no reference to
itself, and is not `alive`; and when the builder of a `simple_factory`
raises, every object made during that build is destroyed too.
QueryInterface for IUnknown returns the same interface from any starting
interface, which makes its address usable as the object's identity.

IUnknown is implemented once, by `ComObject.query_interface/add_ref/release`.
Vtable slots 0..2 only check and decode their words and call them.  The
client helpers `query_interface` and `release` call them directly, packing
nothing; a client adds a reference through slot 1, as a COM client does.

The QueryInterface ABI is (this, iid-block-addr, out-slot-addr) -> HRESULT,
with the IID packed as a 4-word block, so the whole model stays callable
through raw memory alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from mlidl.semtypes import _GUID_TEXT
from mlidl.wordmem import WORD_BYTES, Mem, MemFault, WordFn

S_OK = 0x00000000
E_NOTIMPL = 0x80004001
E_NOINTERFACE = 0x80004002
E_FAIL = 0x80004005
CLASS_E_NOAGGREGATION = 0x80040110
REGDB_E_CLASSNOTREG = 0x80040154


class ComError(Exception):
    hresult = E_FAIL

    def __init__(self, message: str, hresult: Optional[int] = None) -> None:
        super().__init__(message)
        if hresult is not None:
            self.hresult = hresult


class NoInterface(ComError):
    hresult = E_NOINTERFACE


class ClassNotRegistered(ComError):
    hresult = REGDB_E_CLASSNOTREG


class DeadObject(ComError):
    pass


@dataclass(frozen=True, order=True)
class Guid:
    """128-bit identifier, printed `{XXXXXXXX-XXXX-XXXX-XXXX-XXXXXXXXXXXX}`."""

    data1: int  # 32 bits
    data2: int  # 16 bits
    data3: int  # 16 bits
    data4: bytes  # 8 bytes

    @staticmethod
    def parse(text: str) -> "Guid":
        braced = text.strip()
        if _GUID_TEXT.fullmatch(braced) is None:
            raise ValueError(f"malformed GUID {text!r}")
        hexes = braced[1:-1].replace("-", "")
        return Guid(int(hexes[:8], 16), int(hexes[8:12], 16), int(hexes[12:16], 16),
                    bytes.fromhex(hexes[16:]))

    def __str__(self) -> str:
        d4 = self.data4.hex().upper()
        return (f"{{{self.data1:08X}-{self.data2:04X}-{self.data3:04X}-"
                f"{d4[:4]}-{d4[4:]}}}")

    def to_words(self) -> list[int]:
        """4 little-endian words: data1, data2|data3<<16, data4 halves."""
        return [
            self.data1,
            self.data2 | (self.data3 << 16),
            int.from_bytes(self.data4[:4], "little"),
            int.from_bytes(self.data4[4:], "little"),
        ]

    @staticmethod
    def from_words(words: list[int]) -> "Guid":
        if len(words) != 4:
            raise ValueError("a GUID occupies exactly 4 words")
        return Guid(
            words[0] & 0xFFFFFFFF,
            words[1] & 0xFFFF,
            (words[1] >> 16) & 0xFFFF,
            (words[2] & 0xFFFFFFFF).to_bytes(4, "little")
            + (words[3] & 0xFFFFFFFF).to_bytes(4, "little"),
        )


@dataclass(frozen=True)
class Iid:
    """Interface identifier: a Guid witnessing one named interface.

    InterfaceRefs are only ever minted paired with the vtable laid out for
    their Iid (add_interface, query_interface), so holding a ref is holding
    the witness; lookups go by guid and hand back the canonical pairing.
    """

    guid: Guid
    name: str

    def __str__(self) -> str:
        return f"{self.name}:{self.guid}"


@dataclass(frozen=True)
class Clsid:
    guid: Guid
    name: str = ""

    def __str__(self) -> str:
        return str(self.guid)


IID_IUNKNOWN = Iid(Guid.parse("{00000000-0000-0000-C000-000000000046}"), "IUnknown")
IID_IDISPATCH = Iid(Guid.parse("{00020400-0000-0000-C000-000000000046}"), "IDispatch")


@dataclass(frozen=True)
class InterfaceRef:
    """Typed interface pointer: a heap word whose content is the vtable addr."""

    addr: int
    iid: Iid
    owner: "ComObject" = field(compare=False, repr=False)


def check_words(method: str, words: list[int], n: int) -> list[int]:
    """`words` unchanged if a raw vtable slot got its `n` argument words."""
    if len(words) != n:
        raise ComError(f"{method} takes {n} words, got {len(words)}")
    return words


# per thread, the `open` tuple holds one list for each `simple_factory` build
# under way; every ComObject made meanwhile adds itself to each
_builds = threading.local()


class ComObject:
    """Refcounted object with one vtable block per supported interface."""

    def __init__(self, mem: Mem, clsid: Optional[Clsid] = None) -> None:
        self.mem = mem
        self.clsid = clsid
        self.refcount = 1
        self.alive = True
        self._interfaces: dict[Guid, InterfaceRef] = {}
        # every block and registration it made, in order; IUnknown's first
        self._owned: list[int] = []
        try:
            for fn in (self._raw_query_interface, self._raw_add_ref, self._raw_release):
                self._owned.append(mem.fun_to_addr(fn))
            self._identity = self.add_interface(IID_IUNKNOWN, []).addr
        except BaseException:
            self._destroy()
            raise
        for made in getattr(_builds, "open", ()):
            made.append(self)

    @property
    def identity(self) -> InterfaceRef:
        """The IUnknown interface, whose address is the object's identity;
        made on each read, so that a destroyed object holds no reference
        to itself and is freed without the cycle collector."""
        return InterfaceRef(self._identity, IID_IUNKNOWN, self)

    # -- construction ----------------------------------------------------------

    def add_interface(self, iid: Iid, methods: list[WordFn]) -> InterfaceRef:
        """Lay out [qi, addref, release] ++ methods and its interface word."""
        self._check_alive()
        if iid.guid in self._interfaces:
            raise ComError(f"interface {iid} already present")
        vtable = self.mem.alloc(3 + len(methods))
        made = [vtable]         # then its method slots, then the interface word
        try:
            for fn in methods:
                made.append(self.mem.fun_to_addr(fn))
            self.mem.store(vtable, self._owned[:3] + made[1:])
            made.append(self.mem.alloc(1))
        except MemFault:
            # nothing is recorded yet: leave no block and no registration
            self.mem.give_back(made)
            raise
        iface = made[-1]
        self.mem.store(iface, [vtable])
        self._owned += made
        ref = InterfaceRef(addr=iface, iid=iid, owner=self)
        self._interfaces[iid.guid] = ref
        return ref

    def alias_interface(self, iid: Iid, ref: InterfaceRef) -> None:
        """Answer `iid` with an interface already laid out for another IID."""
        self._check_alive()
        if iid.guid not in self._interfaces:
            self._interfaces[iid.guid] = ref

    def _check_alive(self) -> None:
        if not self.alive:
            raise DeadObject("object has been destroyed")

    def _destroy(self) -> None:
        """Free every block and release every vtable slot, and drop the
        references back to this object that the interfaces and slots hold."""
        self.mem.give_back(self._owned)
        self._owned.clear()
        self._interfaces.clear()
        self.alive = False

    # -- IUnknown, implemented once --------------------------------------------

    def query_interface(self, guid: Guid) -> Optional[InterfaceRef]:
        """The interface for `guid`, with a reference added; None if absent."""
        self._check_alive()
        ref = self._interfaces.get(guid)
        if ref is not None:
            self.refcount += 1
        return ref

    def add_ref(self) -> int:
        self._check_alive()
        self.refcount += 1
        return self.refcount

    def release(self) -> int:
        self._check_alive()
        self.refcount -= 1
        if self.refcount == 0:
            self._destroy()
        return self.refcount

    # -- vtable slots 0..2 (shared by every interface of the object) --------

    def _raw_query_interface(self, words: list[int]) -> int:
        _this, iid_addr, out_addr = check_words("QueryInterface", words, 3)
        ref = self.query_interface(Guid.from_words(self.mem.read(iid_addr, 4)))
        self.mem.store(out_addr, [0 if ref is None else ref.addr])
        return E_NOINTERFACE if ref is None else S_OK

    def _raw_add_ref(self, words: list[int]) -> int:
        check_words("AddRef", words, 1)
        return self.add_ref()

    def _raw_release(self, words: list[int]) -> int:
        check_words("Release", words, 1)
        return self.release()


# -- client-side operations ------------------------------------------------------


def get_method(ref: InterfaceRef, index: int) -> WordFn:
    """Slot `index` of the interface's vtable, as a callable: the Python
    function behind the slot, valid while the object lives, as a C function
    pointer is.  Once the object is destroyed a call through the slot's
    address raises `NotCallable`, and a kept slot 0..2 raises `DeadObject`.
    The liveness test, the slot's offset and the closure lookup are inline,
    as in `marshal.call`: this runs on every slot call a client makes."""
    owner = ref.owner
    if not owner.alive:
        owner._check_alive()
    mem = owner.mem
    vtable = mem.read(ref.addr, 1)[0]
    return mem._closures[mem.read(vtable + index * WORD_BYTES, 1)[0]]


def query_interface(ref: InterfaceRef, iid: Iid) -> InterfaceRef:
    found = ref.owner.query_interface(iid.guid)
    if found is None:
        raise NoInterface(f"{iid} not supported")
    return found


def release(ref: InterfaceRef) -> int:
    return ref.owner.release()


# -- activation ---------------------------------------------------------------


@dataclass
class ClassFactory:
    """Creates instances of one component class."""

    clsid: Clsid
    create: Callable[[Iid], InterfaceRef]
    label: str = ""


class Registry:
    def __init__(self) -> None:
        self._factories: dict[Guid, ClassFactory] = {}

    def dump(self) -> str:
        lines = [f"{factory.clsid.guid} {factory.label or factory.clsid.name}"
                 for factory in self._factories.values()]
        return "\n".join(sorted(lines)) + ("\n" if lines else "")


def co_register_class_object(reg: Registry, clsid: Clsid,
                             factory: ClassFactory) -> None:
    """Register `factory` under `clsid`.  The factory must make that very
    class, and its dump text (the label, or the class's name) must be
    printable, so that each class dumps as one line naming itself."""
    if clsid.guid in reg._factories:
        raise ComError(f"class {clsid} is already registered")
    if factory.clsid.guid != clsid.guid:
        raise ComError(f"a factory of class {factory.clsid} cannot be registered "
                       f"as class {clsid}")
    text = factory.label or factory.clsid.name
    if not text.isprintable():
        raise ComError(f"class {clsid} has unprintable dump text {text!r}")
    reg._factories[clsid.guid] = factory


def co_get_class_object(reg: Registry, clsid: Clsid) -> ClassFactory:
    factory = reg._factories.get(clsid.guid)
    if factory is None:
        raise ClassNotRegistered(f"class {clsid} is not registered")
    return factory


def co_create_instance(reg: Registry, clsid: Clsid, iid: Iid) -> InterfaceRef:
    return co_get_class_object(reg, clsid).create(iid)


def simple_factory(clsid: Clsid, build: Callable[[], ComObject],
                   label: str = "") -> ClassFactory:
    """Factory from an object builder.

    The builder returns a fresh object holding its creation reference; the
    requested interface is taken via QueryInterface and the creation
    reference dropped, so a failed request destroys the partial object and
    leaks nothing.  If `build` itself raises, every `ComObject` that this
    thread made while it ran, through nested factories too, and that is
    still alive is destroyed (`_destroy`), and the error passes on: the
    world is left as the build found it, whatever the builder still held.
    """

    def create(iid: Iid) -> InterfaceRef:
        made: list[ComObject] = []
        outer = getattr(_builds, "open", ())
        _builds.open = outer + (made,)
        try:
            obj = build()
        except BaseException:
            for o in made:
                if o.alive:
                    o._destroy()
            raise
        finally:
            _builds.open = outer
        try:
            ref = query_interface(obj.identity, iid)
        except NoInterface:
            release(obj.identity)
            raise
        release(obj.identity)
        return ref

    return ClassFactory(clsid=clsid, create=create, label=label)
