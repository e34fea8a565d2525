"""Paths, statistics and result plumbing shared by the workloads."""

from __future__ import annotations

import math
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Files of the repository the benchmark reads; all are part of a checkout.
REQUIRED = (
    SRC / "mlidl" / "__init__.py",
    ROOT / "idl" / "win32.idl",
    ROOT / "tests" / "golden" / "win32.sig",
    ROOT / "tests" / "reference_bounce.py",
)


class CheckFailed(Exception):
    """An output differed from its oracle; the message names the operation."""


def require_program() -> Optional[str]:
    """Put the program's sources on sys.path; return a reason if absent."""
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        return "missing " + ", ".join(missing)
    sys.path.insert(0, str(SRC))
    return None


def program_errors() -> tuple[type[Exception], ...]:
    """The errors the program raises when an operation fails; a workload
    counts them as failed operations instead of stopping."""
    from mlidl.binding import BindingError, SchemaViolation
    from mlidl.com import ComError
    from mlidl.idl.errors import IdlError
    from mlidl.marshal import MarshalError
    from mlidl.wordmem import MemFault

    return (IdlError, BindingError, SchemaViolation, MemFault, MarshalError, ComError)


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of unsorted `values`."""
    if not values:
        return 0.0
    v = sorted(values)
    k = (len(v) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def tail_percentile(n: int) -> float:
    """p99, or the highest percentile that still has ten samples above it."""
    if n <= 0:
        return 99.0
    return max(50.0, min(99.0, 100.0 * (1.0 - 10.0 / n)))


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far: valid for one workload per
    process, which is why `--workload all` runs each in a child."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measured:
    """What one workload measured, untraced or traced."""

    work_per_s: float            # the workload's unit of work per second
    raw_work_per_s: float        # the same, before scaling to reference speed
    item_ms: list[float]         # latency of each successful item, in ms
    setup_s: list[float]         # every set-up timed during the run
    attempted: int
    failed: int
    units: int = 0               # repeatable chunks run (corpus passes, demo runs, worlds)
    items: int = 0               # files, ticks or operations in those units
    failures: dict[str, int] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)   # untraced per-layer figures
