from __future__ import annotations

import random

import pytest

from mlidl.winsim.bounce import BounceDemo
from mlidl.wordmem import (
    BadRegion,
    BadSize,
    CLOSURE_BASE,
    DoubleFree,
    HEAP_BASE,
    Mem,
    NotCallable,
    OutOfBounds,
    UnknownLibrary,
    UnknownSymbol,
    UseAfterFree,
    region_of,
    to_signed,
    word,
)


def test_alloc_zero_initialized(mem):
    a = mem.alloc(1)
    assert a != 0
    assert mem.read(a, 1) == [0]


def test_alloc_twelve_words(mem):
    a = mem.alloc(12)
    assert mem.read(a, 12) == [0] * 12


def test_alloc_bad_size(mem):
    with pytest.raises(BadSize):
        mem.alloc(0)
    with pytest.raises(BadSize):
        mem.alloc(-3)


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


def test_libraries(mem):
    lib = mem.register_library("user32.dll")
    mem.register_function(lib, "ShowWindow", lambda ws: 1)
    opened = mem.open_library("user32.dll")
    addr = mem.get_function(opened, "ShowWindow")
    assert mem.addr_to_fun(addr)([5, 1]) == 1


def test_unknown_library(mem):
    with pytest.raises(UnknownLibrary):
        mem.open_library("nope.dll")


def test_unknown_symbol(mem):
    lib = mem.register_library("user32.dll")
    with pytest.raises(UnknownSymbol):
        mem.get_function(lib, "Nope")


def test_get_function_and_get_symbol_agree(mem):
    lib = mem.register_library("user32.dll")
    sym = mem.register_function(lib, "ShowWindow", lambda ws: 1)
    assert mem.get_function(lib, "ShowWindow") == mem.get_symbol(lib, "ShowWindow").addr \
        == sym.addr
    for lookup in (mem.get_function, mem.get_symbol):
        with pytest.raises(UnknownSymbol) as exc:
            lookup(lib, "Nope")
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
