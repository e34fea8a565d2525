"""Virtual ABI: a word-addressed heap, a closure registry, and symbol libraries.

Everything that crosses the binding boundary is a 32-bit word.  A foreign
function is a ``word list -> word`` callable; its "code address" is an entry
in the closure registry, not machine code.  Addresses are plain ints split
into three regions:

    0                       the null address
    [0x1000, 0x8000000)     heap data (word-aligned, 4 bytes per word)
    [0x8000000, 0xFFFFFFFC] closure registry ("code")

Heap allocations are page-granular internally so that any address can be
mapped back to its allocation in O(1): the page table is three columns
indexed by page number, filled for every page a block spans.  `_cells`
holds the block's words, `_first` its first page (so its base) and `_size`
its size in words.  A block of at most 1,024 words starts on the page it
lies in, so an access to it reads only `_cells`: `read`, `store` and
`read_rest` resolve such an address inline and hand any other, and so every
fault, to `_find`.
Reads and stores are bounds-checked against the owning allocation.
`read_rest` reads from an address to the end of its allocation, so data of
unknown length (a NUL-terminated string) is read in one checked step and
can never run on into the next block.

Pages are never reused.  A freed block stays in the page table as a
tombstone, `None` in `_cells` beside its `_first` and `_size` entries (8
bytes a page), so a later access still raises `UseAfterFree`, `DoubleFree`
or `OutOfBounds` exactly as it would on the live block, while its words are
dropped at `free`.

A closure address is counted per registration: `fun_to_addr` returns one
address per callable and counts each call, and `release_closure` undoes one
of them.  The last release unregisters the callable, so the world no longer
keeps it alive, and a call through the address raises `NotCallable`.
Closure addresses are never reused, so a stale one can reach no other
function; once the last word address, 0xFFFFFFFC, is handed out, a new
registration raises `BadSize`, as a full heap does, and changes nothing.
`close` drops every closure at once; a later release of one of them does
nothing.  The closure table, `Mem._closures`, is a dict whose
missing key raises `NotCallable`: `marshal.call` tests an address against it
and `SimWorld._dispatch` subscripts it, on paths every bound call and every
message take, where `addr_to_fun` would cost a Python call.

`give_back` is the one rule for handing back addresses that crossed a call:
it frees a heap block and releases a closure registration.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

WORD_MASK = 0xFFFFFFFF
WORD_BYTES = 4

NULL_ADDR = 0
HEAP_BASE = 0x1000
CLOSURE_BASE = 0x8000000

_PAGE_BYTES = 0x1000
_PAGE_WORDS = _PAGE_BYTES // WORD_BYTES

WordFn = Callable[[list[int]], int]


def word(value: int) -> int:
    """Truncate an int to an unsigned 32-bit word."""
    return value & WORD_MASK


def to_signed(w: int) -> int:
    """Reinterpret a 32-bit word as a signed int."""
    w &= WORD_MASK
    return w - 0x100000000 if w >= 0x80000000 else w


class MemFault(Exception):
    """Base class for virtual-ABI faults."""


class BadSize(MemFault):
    pass


class BadRegion(MemFault):
    pass


class DoubleFree(MemFault):
    pass


class UseAfterFree(MemFault):
    pass


class OutOfBounds(MemFault):
    pass


class NotCallable(MemFault):
    pass


class UnknownLibrary(MemFault):
    pass


class UnknownSymbol(MemFault):
    pass


def region_of(addr: int) -> str:
    """Classify an address: 'null', 'heap' or 'closure'.

    Every nonzero address below the closure base counts as heap; whether it
    maps to a live allocation is checked at read/store time.
    """
    if addr == NULL_ADDR:
        return "null"
    if addr >= CLOSURE_BASE:
        return "closure"
    return "heap"


class _Closures(dict):
    """Closure address -> callable; a missing address is NotCallable."""

    def __missing__(self, addr: int) -> WordFn:
        raise NotCallable(f"address {addr:#x} is not a registered closure")


@dataclass(frozen=True)
class Symbol:
    name: str
    addr: int
    convention: str    # "pascal" | "cdecl"
    arity: Optional[int]


@dataclass
class Library:
    name: str
    symbols: dict[str, Symbol] = field(default_factory=dict)


class Mem:
    """One mutable world: heap + closure table + library registry.

    All operations on one world are externally serialized (single-threaded
    contract); distinct worlds are fully independent.
    """

    def __init__(self, trace: Optional[Callable[[str], None]] = None) -> None:
        # page number -> its block's words (None once freed), first page, size
        self._cells: list[Optional[list[int]]] = []
        self._first = array("i")
        self._size = array("i")
        self._live = 0
        self._closures: dict[int, WordFn] = _Closures()
        self._closure_refs: dict[int, int] = {}    # addr -> registrations
        # id(fn) -> addr; `_closures` keeps every registered callable alive
        # until its last release, so no id() key is reused while it is here
        self._closure_addrs: dict[int, int] = {}
        self._next_closure = CLOSURE_BASE
        self._dropped_below = CLOSURE_BASE     # addresses `close` dropped
        self._libraries: dict[str, Library] = {}
        self._trace = trace

    # -- heap ------------------------------------------------------------

    @property
    def live_count(self) -> int:
        return self._live

    def alloc(self, nwords: int) -> int:
        if nwords <= 0:
            raise BadSize(f"alloc of {nwords} words")
        npages = (nwords + _PAGE_WORDS - 1) // _PAGE_WORDS
        page = len(self._cells)
        base = HEAP_BASE + page * _PAGE_BYTES
        if base + npages * _PAGE_BYTES > CLOSURE_BASE:
            raise BadSize("heap region exhausted")
        self._cells.append([0] * nwords)
        self._first.append(page)
        self._size.append(nwords)
        if npages > 1:      # a block fills the entries of every page it spans
            self._cells += self._cells[-1:] * (npages - 1)
            self._first.extend([page] * (npages - 1))
            self._size.extend([nwords] * (npages - 1))
        self._live += 1
        if self._trace is not None:
            self._trace(f"alloc {nwords} -> {base:#x}")
        return base

    def _find(self, addr: int) -> tuple[list[int], int]:
        """Map an address to (its block's words, word index); check liveness."""
        if addr == NULL_ADDR or addr >= CLOSURE_BASE:
            raise BadRegion(f"address {addr:#x} is not a heap address")
        if addr % WORD_BYTES:
            raise OutOfBounds(f"address {addr:#x} is not word-aligned")
        page = (addr - HEAP_BASE) // _PAGE_BYTES
        if not 0 <= page < len(self._cells):
            raise OutOfBounds(f"address {addr:#x} outside any allocation")
        cells = self._cells[page]
        base = HEAP_BASE + self._first[page] * _PAGE_BYTES
        idx = (addr - base) // WORD_BYTES
        if idx >= self._size[page]:
            raise OutOfBounds(f"address {addr:#x} past the end of allocation {base:#x}")
        if cells is None:
            raise UseAfterFree(f"address {addr:#x} in freed allocation {base:#x}")
        return cells, idx

    def free(self, addr: int) -> None:
        if addr == NULL_ADDR or addr >= CLOSURE_BASE:
            raise BadRegion(f"free of {region_of(addr)} address {addr:#x}")
        page = (addr - HEAP_BASE) // _PAGE_BYTES
        if (addr % _PAGE_BYTES or not 0 <= page < len(self._cells)
                or self._first[page] != page):
            raise OutOfBounds(f"free of {addr:#x}, which is not an allocation base")
        cells = self._cells[page]
        if cells is None:
            raise DoubleFree(f"double free of {addr:#x}")
        self._cells[page] = None
        if len(cells) > _PAGE_WORDS:        # and the entries of its later pages
            npages = (len(cells) + _PAGE_WORDS - 1) // _PAGE_WORDS
            self._cells[page:page + npages] = [None] * npages
        self._live -= 1
        if self._trace is not None:
            self._trace(f"free {addr:#x}")

    def offset(self, addr: int, nwords: int) -> int:
        """Address `nwords` words past `addr`; checked only at read/store."""
        return addr + nwords * WORD_BYTES

    def store(self, addr: int, words: list[int]) -> None:
        if not words:
            return
        # a block of at most a page, resolved inline; anything else, and
        # every fault, goes through `_find`
        cells = None
        if type(addr) is int and not addr % WORD_BYTES:
            page = (addr - HEAP_BASE) // _PAGE_BYTES
            if 0 <= page < len(self._cells):
                cells = self._cells[page]
                idx = addr % _PAGE_BYTES // WORD_BYTES
        if cells is None or not idx < len(cells) <= _PAGE_WORDS:
            cells, idx = self._find(addr)
        if idx + len(words) > len(cells):
            raise OutOfBounds(
                f"store of {len(words)} words at {addr:#x} overruns "
                f"allocation {addr - idx * WORD_BYTES:#x} ({len(cells)} words)"
            )
        masked = []
        for w in words:
            masked.append(w & WORD_MASK)
        cells[idx:idx + len(masked)] = masked
        if self._trace is not None:
            self._trace(f"store {addr:#x} {[hex(w) for w in masked]}")

    def read(self, addr: int, nwords: int) -> list[int]:
        if nwords < 0:
            raise BadSize(f"read of {nwords} words")
        if nwords == 0:
            return []
        # inline as in `store`
        cells = None
        if type(addr) is int and not addr % WORD_BYTES:
            page = (addr - HEAP_BASE) // _PAGE_BYTES
            if 0 <= page < len(self._cells):
                cells = self._cells[page]
                idx = addr % _PAGE_BYTES // WORD_BYTES
        if cells is None or not idx < len(cells) <= _PAGE_WORDS:
            cells, idx = self._find(addr)
        if idx + nwords > len(cells):
            raise OutOfBounds(
                f"read of {nwords} words at {addr:#x} overruns "
                f"allocation {addr - idx * WORD_BYTES:#x} ({len(cells)} words)"
            )
        out = cells[idx:idx + nwords]
        if self._trace is not None:
            self._trace(f"read {addr:#x} {nwords} -> {[hex(w) for w in out]}")
        return out

    def read_rest(self, addr: int) -> list[int]:
        """The words from `addr` to the end of the allocation that holds it,
        as one `read`: for data such as a NUL-terminated string, whose length
        the reader finds in the words and must find inside this block."""
        cells = None        # resolved inline as in `read`
        if type(addr) is int and not addr % WORD_BYTES:
            page = (addr - HEAP_BASE) // _PAGE_BYTES
            if 0 <= page < len(self._cells):
                cells = self._cells[page]
                idx = addr % _PAGE_BYTES // WORD_BYTES
        if cells is None or not idx < len(cells) <= _PAGE_WORDS:
            cells, idx = self._find(addr)
        return self.read(addr, len(cells) - idx)

    # -- closures ---------------------------------------------------------

    @property
    def closure_count(self) -> int:
        return len(self._closures)

    def fun_to_addr(self, fn: WordFn) -> int:
        """Register a ``word list -> word`` callable; idempotent per identity,
        but each call is one registration for `release_closure` to undo."""
        key = id(fn)
        addr = self._closure_addrs.get(key)
        if addr is not None:
            self._closure_refs[addr] += 1
            return addr
        addr = self._next_closure
        if addr > WORD_MASK:
            raise BadSize("closure region exhausted")
        self._next_closure += WORD_BYTES
        self._closures[addr] = fn
        self._closure_refs[addr] = 1
        self._closure_addrs[key] = addr
        return addr

    def release_closure(self, addr: int) -> None:
        """Undo one `fun_to_addr` registration of `addr`; the last one
        unregisters the callable.  The address is never handed out again.
        An address that `close` dropped has nothing left to release."""
        refs = self._closure_refs.get(addr)
        if refs is None:
            if CLOSURE_BASE <= addr < self._dropped_below:
                return
            raise NotCallable(f"release of {addr:#x}, which is not a registered closure")
        if refs > 1:
            self._closure_refs[addr] = refs - 1
            return
        del self._closure_refs[addr]
        del self._closure_addrs[id(self._closures.pop(addr))]

    def give_back(self, addrs: list[int]) -> None:
        """Hand back each address in order: release a closure address, and
        free any other (a heap block) as `free` does."""
        for addr in addrs:
            if addr >= CLOSURE_BASE:
                self.release_closure(addr)
            else:
                self.free(addr)

    def addr_to_fun(self, addr: int) -> WordFn:
        return self._closures[addr]

    def call(self, addr: int, args: list[int]) -> int:
        """Invoke a closure address with raw word arguments.

        The callee gets `args` itself, not a copy: a caller passes a list it
        built for this call and does not use again."""
        result = self._closures[addr](args) & WORD_MASK
        if self._trace is not None:
            self._trace(f"call {addr:#x} {args} -> {result:#x}")
        return result

    def close(self) -> None:
        """Drop every registered closure and library, which may refer back
        to this world; the heap and `live_count` stay readable, and a later
        release of a dropped closure (a COM object destroyed after the
        world is closed) does nothing."""
        self._dropped_below = self._next_closure
        self._closures.clear()
        self._closure_refs.clear()
        self._closure_addrs.clear()
        self._libraries.clear()

    # -- libraries ----------------------------------------------------------

    def register_library(self, name: str) -> Library:
        lib = self._libraries.get(name)
        if lib is None:
            lib = Library(name=name)
            self._libraries[name] = lib
        return lib

    def register_function(
        self,
        lib: Library,
        name: str,
        fn: WordFn,
        convention: str = "pascal",
        arity: Optional[int] = None,
    ) -> Symbol:
        sym = Symbol(name=name, addr=self.fun_to_addr(fn), convention=convention, arity=arity)
        lib.symbols[name] = sym
        return sym

    def open_library(self, name: str) -> Library:
        lib = self._libraries.get(name)
        if lib is None:
            raise UnknownLibrary(f"unknown library {name!r}")
        return lib

    def get_symbol(self, lib: Library, name: str) -> Symbol:
        sym = lib.symbols.get(name)
        if sym is None:
            raise UnknownSymbol(f"no symbol {name!r} in library {lib.name!r}")
        return sym
