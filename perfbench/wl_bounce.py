"""bounce / bounce-adapter: the shipped demo, run the way users run it.

Every unit builds a `BounceDemo` (parse and build the simulated API, install
its skeletons, bind the client) and runs it for a fixed number of ticks.
`bounce` runs the wndproc as a plain closure; `bounce-adapter` threads it
through the queue adapter, the only thread hand-off in the system.  Both
check every run's trace against the independent oracle in
tests/reference_bounce.py, which is imported read-only.
"""

from __future__ import annotations

import importlib.util
import random
import time
from typing import Optional

from clock import Clock
from common import ROOT, CheckFailed, Measured, median, program_errors
from spans import Tracer

TICKS = 500


def _reference_trace(ticks: int, width: int, height: int) -> list[str]:
    path = ROOT / "tests" / "reference_bounce.py"
    spec = importlib.util.spec_from_file_location("reference_bounce", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    trace, code = mod.reference_trace(ticks=ticks, width=width, height=height)
    if code != 0:
        raise CheckFailed(f"reference bounce exited with {code}")
    return trace


class BounceWorkload:
    def __init__(self, seed: int, seconds: float, adapter: bool) -> None:
        self.name = "bounce-adapter" if adapter else "bounce"
        self.adapter = adapter
        rng = random.Random(f"bounce-{seed}")
        self.width = rng.randrange(320, 801)
        self.height = rng.randrange(240, 601)
        self.reference = _reference_trace(TICKS, self.width, self.height)

    def _unit(self, adapter: bool, clock: Clock) -> tuple[float, float, float, object]:
        """(set-up s, run s, raw run s, demo); times scaled by `clock`."""
        from mlidl.winsim.bounce import BounceDemo

        t0 = time.perf_counter_ns()
        demo = BounceDemo(width=self.width, height=self.height, adapter=adapter)
        t1 = time.perf_counter_ns()
        setup = (t1 - t0) * clock.factor()
        t1 = time.perf_counter_ns()
        code = demo.run(TICKS)
        t2 = time.perf_counter_ns()
        run = (t2 - t1) * clock.factor()
        mode = "adapter" if adapter else "direct"
        if code != 0:
            raise CheckFailed(f"bounce {mode} run exited with {code}")
        if demo.world.trace != self.reference:
            raise CheckFailed(f"bounce {mode} trace differs from the reference trace")
        if demo.mem.live_count != 0:
            raise CheckFailed(f"bounce {mode} run left {demo.mem.live_count} live blocks")
        return setup / 1e9, run / 1e9, (t2 - t1) / 1e9, demo

    def precheck(self) -> None:
        """One direct and one adapter run, each equal to the reference, so
        the adapter trace equals the direct trace."""
        self._unit(adapter=False, clock=Clock())
        self._unit(adapter=True, clock=Clock())

    def measure(self, budget_s: float, tracer: Optional[Tracer] = None) -> Measured:
        errors = program_errors()
        deadline = time.perf_counter() + budget_s
        clock = Clock()
        setups: list[float] = []
        rates: list[float] = []
        raw_rates: list[float] = []
        item_ms: list[float] = []
        failures: dict[str, int] = {}
        attempted = 0
        while not attempted or time.perf_counter() < deadline \
                or (tracer is not None and attempted < 2):
            if tracer is not None:
                tracer.run_id = attempted
                tracer.begin_unit()
            attempted += 1
            try:
                setup, run, raw, demo = self._unit(self.adapter, clock)
            except errors as exc:
                key = type(exc).__name__
                failures[key] = failures.get(key, 0) + 1
                if tracer is not None:
                    tracer.end_unit()
                continue
            if tracer is not None:
                tracer.add("winsim.trace_lines", len(demo.world.trace))
                tracer.add("wordmem.live_blocks_end", demo.mem.live_count)
                tracer.end_unit()
            setups.append(setup)
            rates.append(TICKS / run)
            raw_rates.append(TICKS / raw)
            item_ms.append(run * 1e3 / TICKS)
        return Measured(work_per_s=median(rates), raw_work_per_s=median(raw_rates),
                        item_ms=item_ms, setup_s=setups,
                        attempted=attempted, failed=sum(failures.values()),
                        units=attempted, items=attempted * TICKS, failures=failures)
