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


def _stream(world, kinds, wl_abimix, errors):
    """Run `kinds` through one client of `world`, checking every result;
    the client, and the number of operations that failed."""
    client = wl_abimix.Client(world, SEED)
    failed = 0
    for n, kind in enumerate(kinds):
        kind, label, thunk, check = client.prepare(kind)
        try:
            got = thunk()
        except errors:
            failed += 1
            continue
        assert check(got), f"op {n} {kind} {label}: wrong result {got!r}"
    return client, failed


def abi_mix_counts() -> dict[str, int]:
    """The counts of one set-up and one stream of `N_OPS` operations.  The
    stream runs twice, in two worlds: once for the Python calls, and once
    with a `Mem` trace that counts its operations, whose formatting would
    add calls to the first."""
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
    "setup_calls": (19_783, 19_882),
    "stream_calls": (108_703, 109_247),
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


def test_abi_mix_counts_are_capped():
    counts = abi_mix_counts()
    assert counts.keys() == ABI_MIX_CAPS.keys()
    over = {name: (n, ABI_MIX_CAPS[name][1]) for name, n in counts.items()
            if n > ABI_MIX_CAPS[name][1]}
    assert not over, f"abi-mix counts over their cap (count, cap): {over}"
