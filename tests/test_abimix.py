"""A deterministic abi-mix in Tier-1: perfbench's seeded operation stream,
cut to 2,000 operations, gated by counts that do not depend on the machine.

perfbench's `idlgen`, `wl_abimix` and `common` are imported read-only, so
their module API (`abi_library`, `World`, `Client.prepare`, `KIND_METRIC`
and `program_errors`) is a dependency of this test.
"""
from __future__ import annotations

import random
import sys
from collections import Counter

from conftest import REPO, count_mlidl_calls

SEED = 2801
N_OPS = 2_000


def _stream(world, kinds, wl_abimix, errors, by_kind=None):
    """Run `kinds` through one client of `world`, checking every result;
    the client, and the number of operations that failed.  If `by_kind` is
    a Counter, each operation's Python calls into mlidl are added to the
    kind it ran as, counted around its timed thunk alone."""
    client = wl_abimix.Client(world, SEED)
    failed = 0
    for n, kind in enumerate(kinds):
        kind, label, thunk, check = client.prepare(kind)
        try:
            if by_kind is None:
                got = thunk()
            else:
                got, calls = count_mlidl_calls(thunk)
                by_kind[kind] += calls
        except errors:
            failed += 1
            continue
        assert check(got), f"op {n} {kind} {label}: wrong result {got!r}"
    return client, failed


def abi_mix_counts() -> dict[str, int]:
    """The counts of one set-up and one stream of `N_OPS` operations.  The
    stream runs three times, in three worlds: once for the Python calls of
    the whole stream, once for those of each kind's operations (as
    `calls <kind>`), and once with a `Mem` trace that counts its
    operations, whose formatting would add calls to the others."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import common
        import idlgen
        import wl_abimix
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    # every module the set-up imports is loaded before anything is counted
    from mlidl import automation, binding, com, idl, marshal  # noqa: F401

    lib = idlgen.abi_library(SEED)
    kinds = random.Random(f"abi-kinds-{SEED}").choices(list(wl_abimix.KIND_METRIC),
                                                       k=N_OPS)
    errors = common.program_errors()
    counts: dict[str, int] = {}

    world, counts["setup_calls"] = count_mlidl_calls(wl_abimix.World, lib, SEED)
    (_, failed), counts["stream_calls"] = count_mlidl_calls(
        _stream, world, kinds, wl_abimix, errors)

    world = wl_abimix.World(lib, SEED)
    by_kind: Counter[str] = Counter()
    _stream(world, kinds, wl_abimix, errors, by_kind)
    counts.update({f"calls {kind}": n for kind, n in by_kind.items()})

    world = wl_abimix.World(lib, SEED)
    ops: Counter[str] = Counter()
    world.mem._trace = lambda line: ops.update([line.split(" ", 1)[0]])
    client, counts["failed"] = _stream(world, kinds, wl_abimix, errors)
    assert counts["failed"] == failed
    world.mem._trace = None
    counts.update(ops)
    counts["pages"] = len(world.mem._cells)      # no heap page is reused yet
    for ref in client.pool + [world.calc]:       # teardown
        com.release(ref)
    counts["live_count"] = world.mem.live_count
    counts["closure_count"] = world.mem.closure_count
    return counts


# count: (measured with CPython 3.11, cap).  The caps of Python calls and
# `Mem` operations are the measured value plus 0.5%; failures, and the
# blocks and closures that teardown leaves, have no margin.  `closure_count`
# is the 192 functions of the generated library, which the world keeps.
# A change that lowers a count lowers its cap; one that must raise a cap
# says so in CHANGES.md.
ABI_MIX_CAPS = {
    "setup_calls": (18_505, 18_598),        # 18,793 before every plan was
                                            # compiled, 19,781 before each
                                            # enum and record codec was
                                            # cached on its description
    "stream_calls": (84_386, 84_808),       # 88,042 before every plan was
                                            # compiled and `Mem.read_rest`
                                            # resolved inline, 105,770
                                            # before one-word plans, Invoke
                                            # rows, and `Mem.read`,
                                            # `Mem.store` and `get_method`
                                            # did their common case inline
    "alloc": (2_658, 2_671),
    "free": (2_604, 2_617),
    "store": (2_816, 2_830),
    "read": (3_518, 3_536),
    "call": (1_287, 1_293),
    "pages": (2_662, 2_675),
    "failed": (0, 0),
    "live_count": (0, 0),
    "closure_count": (192, 192),
}

# operation kind: (Python calls of its operations in the stream, cap), with
# the same margin.  The stream total alone would let a change move calls
# from one kind to another unseen.  Before every plan was compiled and
# `Mem.read_rest` resolved inline, the kinds that moved made: string8
# 2,267, string16 2,602, record_in 7,703, record_out 6,969, inout 10,076,
# array 11,407, typed Invoke 4,079 and raw Invoke 9,671.  Before one-word
# plans, Invoke rows and
# the inline `Mem` and `get_method` paths, the kinds that moved made:
# string8 3,555, string16 4,084, callback 3,356, typed Invoke 6,376, raw
# Invoke 13,328, GetIDsOfNames 1,480, slot-0 QI 4,927, Release 4,320,
# create 12,816, scalar 1,999, record_in 8,297, record_out 7,407, inout
# 11,024 and array 11,866.
ABI_MIX_KIND_CAPS = {
    "call.scalar": (1_811, 1_820),
    "call.string8": (2_137, 2_148),
    "call.string16": (2_454, 2_466),
    "call.record_in": (6_567, 6_600),
    "call.record_out": (6_589, 6_622),
    "call.inout": (9_642, 9_690),
    "call.array": (10_188, 10_239),
    "call.callback": (1_711, 1_720),
    "automation.invoke": (4_004, 4_024),
    "automation.invoke_raw": (9_537, 9_585),
    "automation.get_ids_of_names": (740, 744),
    "com.create": (11_088, 11_143),
    "com.qi_slot0": (3_338, 3_355),
    "com.release": (3_645, 3_663),
}


def test_abi_mix_counts_are_capped():
    counts = abi_mix_counts()
    caps = {**ABI_MIX_CAPS, **{f"calls {kind}": cap
                               for kind, cap in ABI_MIX_KIND_CAPS.items()}}
    assert counts.keys() == caps.keys()
    over = {name: (n, caps[name][1]) for name, n in counts.items()
            if n > caps[name][1]}
    assert not over, f"abi-mix counts over their cap (count, cap): {over}"
