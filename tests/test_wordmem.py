from __future__ import annotations

import gc
import random
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import in_a_fresh_interpreter
from mlidl.winsim.bounce import BounceDemo
from mlidl.wordmem import (
    BadRegion,
    BadSize,
    CLOSURE_BASE,
    DoubleFree,
    HEAP_BASE,
    Mem,
    MemFault,
    NotCallable,
    OutOfBounds,
    UnknownLibrary,
    UnknownSymbol,
    UseAfterFree,
    WORD_BYTES,
    WORD_MASK,
    region_of,
    to_signed,
    word,
)


def test_alloc_zero_initialized(mem):
    a = mem.alloc(1)
    assert a != 0
    assert mem.read(a, 1) == [0]


def test_an_exhausted_heap_refuses_the_next_block(mem):
    # one page per block: 32,767 one-word blocks fill the heap region
    blocks = []
    for i in range(32_767):
        blocks.append(mem.alloc(1))
        mem.store(blocks[-1], [i])
    with pytest.raises(BadSize, match="^heap region exhausted$"):
        mem.alloc(1)
    assert mem.live_count == 32_767
    assert [mem.read(b, 1)[0] for b in blocks] == list(range(32_767))


def test_alloc_twelve_words(mem):
    a = mem.alloc(12)
    assert mem.read(a, 12) == [0] * 12


def test_alloc_bad_size(mem):
    with pytest.raises(BadSize):
        mem.alloc(0)
    with pytest.raises(BadSize):
        mem.alloc(-3)


def test_read_of_a_negative_count_is_bad_size(mem):
    a = mem.alloc(1)
    assert mem.read(a, 0) == []
    with pytest.raises(BadSize) as exc:
        mem.read(a, -1)
    assert str(exc.value) == "read of -1 words"


def test_free_lifecycle(mem):
    a = mem.alloc(4)
    mem.free(a)
    with pytest.raises(DoubleFree):
        mem.free(a)


def test_free_null_is_bad_region(mem):
    with pytest.raises(BadRegion):
        mem.free(0)


def test_free_closure_addr_is_bad_region(mem):
    a = mem.fun_to_addr(lambda ws: 0)
    with pytest.raises(BadRegion):
        mem.free(a)


def test_free_non_base_address(mem):
    a = mem.alloc(4)
    with pytest.raises(OutOfBounds):
        mem.free(mem.offset(a, 1))


def test_use_after_free(mem):
    a = mem.alloc(2)
    mem.free(a)
    with pytest.raises(UseAfterFree):
        mem.read(a, 1)
    with pytest.raises(UseAfterFree):
        mem.store(a, [1])


def test_offset_identity(mem):
    a = mem.alloc(4)
    assert mem.offset(a, 0) == a


def test_offset_is_word_granular(mem):
    a = mem.alloc(4)
    mem.store(a, [10, 20, 30, 40])
    assert mem.read(mem.offset(a, 1), 1) == [20]
    assert mem.read(mem.offset(a, 3), 1) == [40]


def test_offset_negative_then_read_out_of_bounds(mem):
    a = mem.alloc(1)
    with pytest.raises(OutOfBounds):
        mem.read(mem.offset(a, -1), 1)


def test_store_read_round_trip(mem):
    a = mem.alloc(2)
    mem.store(a, [7, 9])
    assert mem.read(a, 2) == [7, 9]


def test_high_bit_word_survives(mem):
    a = mem.alloc(1)
    mem.store(a, [0x80000000])
    assert mem.read(a, 1) == [0x80000000]


def test_read_past_end(mem):
    a = mem.alloc(2)
    with pytest.raises(OutOfBounds):
        mem.read(a, 3)
    with pytest.raises(OutOfBounds):
        mem.read(mem.offset(a, 2), 1)


def test_read_rest_reads_to_the_end_of_the_block():
    lines: list[str] = []
    mem = Mem(trace=lines.append)
    a = mem.alloc(3)
    mem.store(a, [1, 2, 3])
    b = mem.alloc(1)
    lines.clear()
    assert mem.read_rest(a) == [1, 2, 3]
    assert mem.read_rest(mem.offset(a, 2)) == [3]
    assert lines == ["read 0x1000 3 -> ['0x1', '0x2', '0x3']",
                     "read 0x1008 1 -> ['0x3']"]
    with pytest.raises(OutOfBounds):
        mem.read_rest(mem.offset(a, 3))
    with pytest.raises(BadRegion):
        mem.read_rest(0)
    mem.free(a)
    with pytest.raises(UseAfterFree):
        mem.read_rest(a)
    mem.free(b)


def _faulting_world() -> Mem:
    """A 3-word block at 0x1000, a 1,025-word block at 0x2000 (pages
    0x2000 and 0x3000), a freed 1,025-word block at 0x4000 (pages 0x4000
    and 0x5000), a closure at 0x8000000, and nothing from 0x6000 on."""
    mem = Mem()
    assert [mem.alloc(3), mem.alloc(1025), mem.alloc(1025)] == [0x1000, 0x2000, 0x4000]
    mem.free(0x4000)
    assert mem.fun_to_addr(lambda ws: 0) == CLOSURE_BASE
    return mem


def _exhaust(mem: Mem) -> None:
    for _ in range(32_767):
        mem.alloc(1)
    mem.alloc(1)


# every fault text `Mem` raises for a heap access, pinned as it reads
_FAULTS = [
    ("alloc_0", lambda m: m.alloc(0), BadSize, "alloc of 0 words"),
    ("heap_exhausted", lambda m: _exhaust(Mem()), BadSize, "heap region exhausted"),
    ("read_minus_1", lambda m: m.read(0x1000, -1), BadSize, "read of -1 words"),
    ("read_null", lambda m: m.read(0, 1), BadRegion, "address 0x0 is not a heap address"),
    ("store_null", lambda m: m.store(0, [1]), BadRegion,
     "address 0x0 is not a heap address"),
    ("free_null", lambda m: m.free(0), BadRegion, "free of null address 0x0"),
    ("read_closure", lambda m: m.read(CLOSURE_BASE, 1), BadRegion,
     "address 0x8000000 is not a heap address"),
    ("store_closure", lambda m: m.store(CLOSURE_BASE, [1]), BadRegion,
     "address 0x8000000 is not a heap address"),
    ("free_closure", lambda m: m.free(CLOSURE_BASE), BadRegion,
     "free of closure address 0x8000000"),
    ("unaligned", lambda m: m.read(0x1002, 1), OutOfBounds,
     "address 0x1002 is not word-aligned"),
    ("outside", lambda m: m.read(0x6000, 1), OutOfBounds,
     "address 0x6000 outside any allocation"),
    ("below_the_heap", lambda m: m.read(0x0ffc, 1), OutOfBounds,
     "address 0xffc outside any allocation"),
    ("past_3_words", lambda m: m.read(0x100c, 1), OutOfBounds,
     "address 0x100c past the end of allocation 0x1000"),
    ("past_1025_words", lambda m: m.read(0x3004, 1), OutOfBounds,
     "address 0x3004 past the end of allocation 0x2000"),
    ("read_rest_past_1025_words", lambda m: m.read_rest(0x3004), OutOfBounds,
     "address 0x3004 past the end of allocation 0x2000"),
    ("past_a_freed_block", lambda m: m.read(0x5004, 1), OutOfBounds,
     "address 0x5004 past the end of allocation 0x4000"),
    ("store_overrun", lambda m: m.store(0x1008, [1, 2]), OutOfBounds,
     "store of 2 words at 0x1008 overruns allocation 0x1000 (3 words)"),
    ("read_overrun", lambda m: m.read(0x1004, 3), OutOfBounds,
     "read of 3 words at 0x1004 overruns allocation 0x1000 (3 words)"),
    ("read_overrun_on_a_second_page", lambda m: m.read(0x3000, 2), OutOfBounds,
     "read of 2 words at 0x3000 overruns allocation 0x2000 (1025 words)"),
    ("use_after_free_first_page", lambda m: m.read(0x4000, 1), UseAfterFree,
     "address 0x4000 in freed allocation 0x4000"),
    ("use_after_free_second_page", lambda m: m.store(0x5000, [1]), UseAfterFree,
     "address 0x5000 in freed allocation 0x4000"),
    ("read_rest_after_free", lambda m: m.read_rest(0x5000), UseAfterFree,
     "address 0x5000 in freed allocation 0x4000"),
    ("free_inside_a_second_page", lambda m: m.free(0x3000), OutOfBounds,
     "free of 0x3000, which is not an allocation base"),
    ("free_inside_a_freed_block", lambda m: m.free(0x5000), OutOfBounds,
     "free of 0x5000, which is not an allocation base"),
    ("free_unaligned", lambda m: m.free(0x1002), OutOfBounds,
     "free of 0x1002, which is not an allocation base"),
    ("free_outside", lambda m: m.free(0x6000), OutOfBounds,
     "free of 0x6000, which is not an allocation base"),
    ("double_free", lambda m: m.free(0x4000), DoubleFree, "double free of 0x4000"),
]


@pytest.mark.parametrize("run, fault, message", [case[1:] for case in _FAULTS],
                         ids=[case[0] for case in _FAULTS])
def test_every_heap_fault_is_pinned(run, fault, message):
    mem = _faulting_world()
    with pytest.raises(MemFault) as exc:
        run(mem)
    assert type(exc.value) is fault
    assert str(exc.value) == message
    assert mem.live_count == 2


def test_store_past_end(mem):
    a = mem.alloc(2)
    with pytest.raises(OutOfBounds):
        mem.store(mem.offset(a, 1), [1, 2])


def test_misaligned_address(mem):
    a = mem.alloc(1)
    with pytest.raises(OutOfBounds):
        mem.read(a + 2, 1)


def test_closure_behavioral_identity(mem):
    f = lambda ws: sum(ws)  # noqa: E731
    g = mem.addr_to_fun(mem.fun_to_addr(f))
    assert g([1, 2, 3]) == 6


def test_fun_to_addr_idempotent_per_identity(mem):
    f = lambda ws: 0  # noqa: E731
    assert mem.fun_to_addr(f) == mem.fun_to_addr(f)
    g = lambda ws: 0  # noqa: E731
    assert mem.fun_to_addr(f) != mem.fun_to_addr(g)


def test_addr_to_fun_on_heap_addr(mem):
    a = mem.alloc(1)
    with pytest.raises(NotCallable):
        mem.addr_to_fun(a)


def test_addr_to_fun_on_null(mem):
    with pytest.raises(NotCallable):
        mem.addr_to_fun(0)


def test_region_classification(mem):
    assert region_of(0) == "null"
    assert region_of(mem.alloc(1)) == "heap"
    assert region_of(mem.fun_to_addr(lambda ws: 0)) == "closure"
    assert HEAP_BASE < CLOSURE_BASE


def test_closure_region_is_not_data(mem):
    a = mem.fun_to_addr(lambda ws: 0)
    with pytest.raises(BadRegion):
        mem.read(a, 1)
    with pytest.raises(BadRegion):
        mem.store(a, [1])


def test_every_data_access_outside_the_heap_is_one_bad_region(mem):
    closure = mem.fun_to_addr(lambda ws: 0)
    for addr in (0, closure, CLOSURE_BASE + 0x1000):
        assert region_of(addr) != "heap"
        for access in (lambda: mem.read(addr, 1), lambda: mem.store(addr, [1]),
                       lambda: mem.read_rest(addr)):
            with pytest.raises(BadRegion) as err:
                access()
            assert str(err.value) == f"address {addr:#x} is not a heap address"


def test_call_and_addr_to_fun_refuse_an_address_with_one_message():
    lines: list[str] = []
    mem = Mem(trace=lines.append)
    released = mem.fun_to_addr(lambda ws: 0)
    mem.release_closure(released)
    for addr in (0, mem.alloc(1), released, CLOSURE_BASE + 0x1000):
        for use in (lambda: mem.addr_to_fun(addr), lambda: mem.call(addr, [1])):
            with pytest.raises(NotCallable) as err:
                use()
            assert str(err.value) == f"address {addr:#x} is not a registered closure"
    assert mem.closure_count == 0
    assert not [line for line in lines if line.startswith("call")]


def test_libraries(mem):
    lib = mem.register_library("user32.dll")
    mem.register_function(lib, "ShowWindow", lambda ws: 1)
    opened = mem.open_library("user32.dll")
    addr = mem.get_symbol(opened, "ShowWindow").addr
    assert mem.addr_to_fun(addr)([5, 1]) == 1


def test_unknown_library(mem):
    with pytest.raises(UnknownLibrary):
        mem.open_library("nope.dll")


def test_unknown_symbol(mem):
    lib = mem.register_library("user32.dll")
    with pytest.raises(UnknownSymbol):
        mem.get_symbol(lib, "Nope")


def test_get_symbol_finds_the_registered_symbol(mem):
    lib = mem.register_library("user32.dll")
    sym = mem.register_function(lib, "ShowWindow", lambda ws: 1)
    assert mem.get_symbol(lib, "ShowWindow") is sym
    with pytest.raises(UnknownSymbol) as exc:
        mem.get_symbol(lib, "Nope")
    assert str(exc.value) == "no symbol 'Nope' in library 'user32.dll'"


def test_symbol_metadata(mem):
    lib = mem.register_library("user32.dll")
    sym = mem.register_function(lib, "ShowWindow", lambda ws: 1,
                                convention="pascal", arity=2)
    assert (sym.convention, sym.arity) == ("pascal", 2)
    assert region_of(sym.addr) == "closure"


def test_live_count_tracks_allocations(mem):
    assert mem.live_count == 0
    a = mem.alloc(1)
    b = mem.alloc(2)
    assert mem.live_count == 2
    mem.free(a)
    assert mem.live_count == 1
    mem.free(b)
    assert mem.live_count == 0


def test_allocations_are_disjoint(mem):
    blocks = [(mem.alloc(n), n) for n in (1, 4, 12, 1024, 2000)]
    spans = sorted((a, a + 4 * n) for a, n in blocks)
    for (_, end), (start, _) in zip(spans, spans[1:]):
        assert end <= start


def test_word_helpers():
    assert word(0x1_0000_0005) == 5
    assert to_signed(0xFFFFFFFF) == -1
    assert to_signed(5) == 5


def test_store_read_property_ten_thousand_cases():
    rng = random.Random(0x1D)
    mem = Mem()
    live: list[tuple[int, int]] = []
    rounds = 10_000
    for _ in range(rounds):
        if not live or rng.random() < 0.3:
            n = rng.randint(1, 40)
            live.append((mem.alloc(n), n))
        a, n = live[rng.randrange(len(live))]
        start = rng.randrange(n)
        count = rng.randint(1, n - start)
        ws = [rng.getrandbits(32) for _ in range(count)]
        at = mem.offset(a, start)
        mem.store(at, ws)
        assert mem.read(at, count) == ws
        if rng.random() < 0.1:
            i = rng.randrange(len(live))
            mem.free(live[i][0])
            live.pop(i)


def test_closure_identity_property_thousand_functions():
    rng = random.Random(0xC105)
    mem = Mem()
    ops = [
        lambda ws, k: (sum(ws) + k) & 0xFFFFFFFF,
        lambda ws, k: (len(ws) * k) & 0xFFFFFFFF,
        lambda ws, k: k if not ws else (ws[0] ^ k),
    ]
    for _ in range(1000):
        k = rng.getrandbits(32)
        op = ops[rng.randrange(len(ops))]
        f = (lambda op, k: lambda ws: op(ws, k))(op, k)
        g = mem.addr_to_fun(mem.fun_to_addr(f))
        args = [rng.getrandbits(32) for _ in range(rng.randrange(5))]
        assert g(list(args)) == f(list(args))


def test_trace_lines_pin_format():
    lines: list[str] = []
    mem = Mem(trace=lines.append)
    a = mem.alloc(3)
    mem.store(a, [1, -1, 0x1_0000_0002])
    assert mem.read(a, 3) == [1, 0xFFFFFFFF, 2]
    mem.read(mem.offset(a, 2), 1)
    f = mem.fun_to_addr(lambda ws: ws[0] - ws[1])
    mem.call(f, [5, 7])
    b = mem.alloc(1025)
    mem.store(mem.offset(b, 1024), [0xABCD])
    mem.free(b)
    mem.free(a)
    assert lines == [
        "alloc 3 -> 0x1000",
        "store 0x1000 ['0x1', '0xffffffff', '0x2']",
        "read 0x1000 3 -> ['0x1', '0xffffffff', '0x2']",
        "read 0x1008 1 -> ['0x2']",
        "call 0x8000000 [5, 7] -> 0xfffffffe",
        "alloc 1025 -> 0x2000",
        "store 0x3000 ['0xabcd']",
        "free 0x2000",
        "free 0x1000",
    ]

    # a bound all-scalar call touches the heap not at all: one call line
    demo = BounceDemo(mem=Mem(trace=lines.append))
    sym = demo.mem.get_symbol(demo.mem.open_library("gdi32.dll"), "BitBlt")
    lines.clear()
    assert demo.gdi.BitBlt(1, 2, 3, 4, 5, 6, 7, 8, -9) is True
    assert lines == [
        f"call {sym.addr:#x} [1, 2, 3, 4, 5, 6, 7, 8, 4294967287] -> 0x1"]


# -- counted closure release ----------------------------------------------------


def test_release_closure_makes_the_address_not_callable(mem):
    addr = mem.fun_to_addr(lambda ws: 7)
    assert mem.closure_count == 1
    mem.release_closure(addr)
    assert mem.closure_count == 0
    with pytest.raises(NotCallable):
        mem.call(addr, [])
    with pytest.raises(NotCallable):
        mem.release_closure(addr)


def test_give_back_frees_blocks_and_releases_closures_in_order(mem):
    f = lambda ws: 7  # noqa: E731
    addrs = [mem.alloc(2), mem.fun_to_addr(f), mem.alloc(1), mem.fun_to_addr(f)]
    assert (mem.live_count, mem.closure_count) == (2, 1)
    mem.give_back(addrs)
    assert (mem.live_count, mem.closure_count) == (0, 0)
    with pytest.raises(DoubleFree):
        mem.give_back(addrs[:1])
    with pytest.raises(BadRegion):
        mem.give_back([0])
    block = mem.alloc(1)
    with pytest.raises(NotCallable):    # faults at the closure, after the block
        mem.give_back([block, addrs[1]])
    assert mem.live_count == 0


def test_a_shared_closure_lives_until_its_last_release(mem):
    f = lambda ws: 7  # noqa: E731
    lib = mem.register_library("x.dll")
    addr = mem.register_function(lib, "F", f).addr
    assert mem.fun_to_addr(f) == mem.fun_to_addr(f) == addr   # two vtables
    for _ in range(2):
        mem.release_closure(addr)
        assert mem.call(addr, []) == 7
    mem.release_closure(addr)                      # the library's own
    with pytest.raises(NotCallable):
        mem.call(addr, [])


def test_a_released_address_is_never_handed_out_again(mem):
    f = lambda ws: 1  # noqa: E731
    old = mem.fun_to_addr(f)
    mem.release_closure(old)
    g = lambda ws: 2  # noqa: E731
    assert mem.fun_to_addr(g) > old
    assert mem.fun_to_addr(f) > old                # re-registered at a new address
    with pytest.raises(NotCallable):
        mem.call(old, [])


def test_release_of_a_non_closure_address_is_not_callable(mem):
    for addr in (0, mem.alloc(1), CLOSURE_BASE):
        with pytest.raises(NotCallable):
            mem.release_closure(addr)


def test_an_exhausted_closure_region_refuses_the_next_registration(mem):
    # set near the top: the region holds one more address, the last word
    mem._next_closure = 0xFFFFFFFC
    f = lambda ws: 1  # noqa: E731
    assert mem.fun_to_addr(f) == 0xFFFFFFFC
    state = mem.closure_count, mem._next_closure, dict(mem._closure_refs)
    with pytest.raises(BadSize, match="^closure region exhausted$"):
        mem.fun_to_addr(lambda ws: 2)
    assert (mem.closure_count, mem._next_closure, dict(mem._closure_refs)) == state
    assert mem.fun_to_addr(f) == 0xFFFFFFFC        # a registered callable still counts
    assert mem.call(0xFFFFFFFC, []) == 1


# -- freed blocks are small tombstones --------------------------------------------


def test_a_freed_block_keeps_under_24_bytes():
    """Machine-independent memory gate: a freed 3-word block stays as a
    tombstone, `None` in the page table beside its first page and size, and
    drops its words.  17.1 bytes on CPython 3.11; 96.5 while each page held
    an object with a boxed base."""
    mem = Mem()
    for _ in range(100):        # let the page table and free lists settle
        a = mem.alloc(3)
        mem.free(a)
    gc.collect()
    rounds = 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(rounds):
            a = mem.alloc(3)
            mem.store(a, [1, 2, 3])
            mem.free(a)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert mem.live_count == 0
    assert kept / rounds < 24, f"{kept / rounds:.1f} bytes kept per freed block"
    with pytest.raises(UseAfterFree):
        mem.read(a, 1)
    with pytest.raises(DoubleFree):
        mem.free(a)
    with pytest.raises(OutOfBounds):
        mem.read(mem.offset(a, 3), 1)


def page_table_of_a_full_heap() -> float:
    """MB that tracemalloc sees kept by one world, from its creation on,
    once it has allocated and freed 32,767 one-word blocks: the whole heap
    region, each page a tombstone."""
    def churn():
        mem = Mem()
        for _ in range(32_767):
            mem.free(mem.alloc(1))
        return mem

    churn()                     # warm up the free lists
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mem = churn()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    with pytest.raises(BadSize):
        mem.alloc(1)
    assert mem.live_count == 0
    return kept / 1e6


def test_the_page_table_of_a_full_heap_is_budgeted():
    # 0.55 MB on CPython 3.11; 3.16 MB while each page held an object
    # with a boxed base
    kept = in_a_fresh_interpreter("test_wordmem", "page_table_of_a_full_heap")
    assert kept < 0.75, f"{kept:.3f} MB"


# -- Mem against a dict model -------------------------------------------------------

_PAGE_BYTES = 0x1000
_FNS = [lambda ws, k=k: k * 1000 + sum(ws) - 3 for k in range(4)]
_SIZES = [1, 2, 3, 7, 1023, 1025]       # offsets up to `size` stay in the block's pages


class MemModel(RuleBasedStateMachine):
    """Every operation of `Mem` against a model of dicts: each fault class is
    raised exactly where the model predicts it, and nothing else differs."""

    def __init__(self) -> None:
        super().__init__()
        self.mem = Mem()
        self.blocks: dict[int, list[int]] = {}     # base -> words, live blocks
        self.sizes: dict[int, int] = {}            # base -> size, freed ones too
        self.next_base = HEAP_BASE
        self.closures: dict[int, list] = {}        # addr -> [fn, registrations]
        self.released: list[int] = []
        self.next_closure = CLOSURE_BASE

    # addresses: (block, word offset) pairs, or ones that belong to no block

    def addr(self, pick: int, offset: int, odd: int) -> tuple[int, object]:
        """An address and the block it lies in: a base, 'outside' or
        'misaligned', or the region name of a null or closure address."""
        bases = list(self.sizes)
        strange = [(0, "null"), (CLOSURE_BASE, "closure"), (4, "outside"),
                   (self.next_base, "outside"), (HEAP_BASE + 2, "misaligned")]
        if not bases or pick % 5 == 4:
            return strange[odd % len(strange)]
        base = bases[pick % len(bases)]
        at = base + WORD_BYTES * (offset % (self.sizes[base] + 1))
        return (at + 2, "misaligned") if odd % 7 == 6 else (at, base)

    def expect(self, fault, run):
        if fault is None:
            return run()
        with pytest.raises(fault) as exc:
            run()
        assert type(exc.value) is fault
        return None

    def fault_at(self, at: int, where, nwords: int):
        """The fault a `nwords` access at `at` raises, or None."""
        if where in ("null", "closure"):
            return BadRegion
        if where in ("outside", "misaligned"):
            return OutOfBounds
        idx = (at - where) // WORD_BYTES
        if idx >= self.sizes[where]:
            return OutOfBounds
        if where not in self.blocks:
            return UseAfterFree
        return OutOfBounds if idx + nwords > self.sizes[where] else None

    @rule(size=st.sampled_from(_SIZES + [0, -2]))
    def alloc(self, size):
        if size <= 0:
            self.expect(BadSize, lambda: self.mem.alloc(size))
            return
        base = self.mem.alloc(size)
        assert base == self.next_base
        self.next_base += _PAGE_BYTES * -(-size * WORD_BYTES // _PAGE_BYTES)
        self.blocks[base] = [0] * size
        self.sizes[base] = size

    @rule(pick=st.integers(0, 99), offset=st.integers(0, 2000), odd=st.integers(0, 99))
    def free(self, pick, offset, odd):
        at, where = self.addr(pick, offset, odd)
        if where in ("null", "closure"):
            fault = BadRegion
        elif where != at:
            fault = OutOfBounds                 # not an allocation base
        else:
            fault = None if at in self.blocks else DoubleFree
        self.expect(fault, lambda: self.mem.free(at))
        if fault is None:
            del self.blocks[at]

    @rule(pick=st.integers(0, 99), offset=st.integers(0, 2000), odd=st.integers(0, 99),
          words=st.lists(st.integers(-2**32, 2**33), max_size=4))
    def store(self, pick, offset, odd, words):
        at, where = self.addr(pick, offset, odd)
        fault = self.fault_at(at, where, len(words)) if words else None
        self.expect(fault, lambda: self.mem.store(at, words))
        if fault is None and words:
            idx = (at - where) // WORD_BYTES
            self.blocks[where][idx:idx + len(words)] = [w & WORD_MASK for w in words]

    @rule(pick=st.integers(0, 99), offset=st.integers(0, 2000), odd=st.integers(0, 99),
          nwords=st.integers(-1, 4))
    def read(self, pick, offset, odd, nwords):
        at, where = self.addr(pick, offset, odd)
        if nwords < 0:
            fault = BadSize
        else:
            fault = self.fault_at(at, where, nwords) if nwords else None
        got = self.expect(fault, lambda: self.mem.read(at, nwords))
        if fault is None:
            idx = (at - where) // WORD_BYTES if nwords else 0
            assert got == ([] if not nwords else self.blocks[where][idx:idx + nwords])

    @rule(pick=st.integers(0, 99), offset=st.integers(0, 2000), odd=st.integers(0, 99))
    def read_rest(self, pick, offset, odd):
        at, where = self.addr(pick, offset, odd)
        fault = self.fault_at(at, where, 1)
        got = self.expect(fault, lambda: self.mem.read_rest(at))
        if fault is None:
            assert got == self.blocks[where][(at - where) // WORD_BYTES:]

    @rule(k=st.integers(0, len(_FNS) - 1))
    def fun_to_addr(self, k):
        fn = _FNS[k]
        addr = self.mem.fun_to_addr(fn)
        known = [a for a, (f, _) in self.closures.items() if f is fn]
        if known:
            assert addr == known[0]
            self.closures[addr][1] += 1
        else:
            assert addr == self.next_closure
            self.next_closure += WORD_BYTES
            self.closures[addr] = [fn, 1]

    def closure_addr(self, pick: int) -> int:
        addrs = list(self.closures) + self.released + [0, HEAP_BASE, self.next_closure]
        return addrs[pick % len(addrs)]

    @rule(pick=st.integers(0, 99))
    def release_closure(self, pick):
        addr = self.closure_addr(pick)
        fault = None if addr in self.closures else NotCallable
        self.expect(fault, lambda: self.mem.release_closure(addr))
        if fault is None:
            self.closures[addr][1] -= 1
            if self.closures[addr][1] == 0:
                del self.closures[addr]
                self.released.append(addr)

    @rule(pick=st.integers(0, 99), args=st.lists(st.integers(0, WORD_MASK), max_size=3))
    def call(self, pick, args):
        addr = self.closure_addr(pick)
        entry = self.closures.get(addr)
        got = self.expect(None if entry else NotCallable, lambda: self.mem.call(addr, args))
        if entry:
            assert got == word(entry[0](args))

    @invariant()
    def counts_match(self):
        assert self.mem.live_count == len(self.blocks)
        assert self.mem.closure_count == len(self.closures)


MemModel.TestCase.settings = settings(max_examples=60, stateful_step_count=40,
                                      deadline=None, database=None)
test_mem_matches_its_model = MemModel.TestCase
