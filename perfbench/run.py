"""mlidl benchmark: one seeded workload per run, checked against oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: compile, bounce, bounce-adapter, abi-mix, or `all` (each in turn,
each in a child process of its own).  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics of BENCHMARK.json; with --trace 1 it holds
the per-layer metrics, measured by wrapping each layer's public calls (see
spans.py), and the spans are written under perfbench/out/.  Earlier lines
give the same figures under the names the documentation uses.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (OUT, ROOT, CheckFailed, Measured, median, peak_rss_mb,  # noqa: E402
                    percentile, program_errors, require_program, tail_percentile)

WORKLOADS = ("compile", "bounce", "bounce-adapter", "abi-mix")

# Each workload's unit of work, and the names the documentation gives its
# end-to-end figures: (work_per_s name, unit, latency prefix, latency unit).
_NAMING = {
    "compile": ("compile_lines_per_s", "lines/s", "compile_file_ms", "ms"),
    "bounce": ("bounce_ticks_per_s", "ticks/s", "bounce_tick_ms", "ms"),
    "bounce-adapter": ("bounce_adapter_ticks_per_s", "ticks/s",
                       "bounce_adapter_tick_ms", "ms"),
    "abi-mix": ("abi_ok_calls_per_s", "ops/s", "abi_call_us", "us"),
}


def _make(name: str, seed: int, seconds: float):
    if name == "compile":
        from wl_compile import CompileWorkload
        return CompileWorkload(seed, seconds)
    if name in ("bounce", "bounce-adapter"):
        from wl_bounce import BounceWorkload
        return BounceWorkload(seed, seconds, adapter=name == "bounce-adapter")
    from wl_abimix import AbiMixWorkload
    return AbiMixWorkload(seed, seconds)


def end_to_end(name: str, m: Measured, report: list[str]) -> dict[str, float]:
    tail = tail_percentile(len(m.item_ms))
    ok_ratio = (m.attempted - m.failed) / m.attempted
    out = {
        "work_per_s": m.work_per_s,
        "item_ms_p50": percentile(m.item_ms, 50.0),
        "item_ms_p99": percentile(m.item_ms, tail),
        "ok_ratio": ok_ratio,
        "setup_s": median(m.setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }
    work, unit, lat, lat_unit = _NAMING[name]
    scale = 1e3 if lat_unit == "us" else 1.0
    report += [
        f"{work} {out['work_per_s']:.1f} {unit} (raw, unscaled: {m.raw_work_per_s:.1f})",
        f"{lat}_p50 {out['item_ms_p50'] * scale:.4f} {lat_unit}"
        f" (n={len(m.item_ms)})",
        f"{lat}_p99 {out['item_ms_p99'] * scale:.4f} {lat_unit}"
        f" (p{tail:.2f} of n={len(m.item_ms)})",
        f"failed_ratio {1 - ok_ratio:.5f} ({m.failed} of {m.attempted} attempted"
        + (f"; {m.failures}" if m.failures else "") + ")",
        f"setup_s {out['setup_s']:.5f} s (median of {len(m.setup_s)})",
        f"peak_rss_mb {out['peak_rss_mb']:.1f} MB",
    ]
    return out


def per_layer(wl, args: argparse.Namespace,
              report: list[str]) -> tuple[dict[str, float], Measured]:
    import spans
    from wl_abimix import KIND_METRIC

    seconds = args.seconds
    plain = wl.measure(seconds / 2)
    tr = spans.Tracer()
    patches = spans.install(tr)
    try:
        traced = wl.measure(seconds / 2, tracer=tr)
    finally:
        patches.restore()
    first = tr.unit_counts[0]
    for k, counts in enumerate(tr.unit_counts[1:], start=1):
        if counts != first:
            diff = sorted(set(counts.items()) ^ set(first.items()))[:4]
            raise CheckFailed(f"{wl.name}: traced unit {k} counts differ from unit 0: {diff}")
    report.append(f"deterministic counts identical across {len(tr.unit_counts)} traced units")
    out = spans.layer_metrics(tr, traced.units, traced.items)
    for metric in KIND_METRIC.values():
        out[metric] = plain.layer.get(metric, 0.0)
    out["bench.untraced_work_per_s"] = plain.work_per_s
    out["bench.traced_work_per_s"] = traced.work_per_s
    out["bench.trace_overhead_pct"] = (plain.work_per_s / traced.work_per_s - 1.0) * 100.0
    path = OUT / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
    tr.dump(path)
    report.append(f"spans written to {path.relative_to(ROOT)}"
                  f" ({len(tr.s_start)} kept, {tr.dropped} dropped)")
    report += [f"{k} {v:.6g}" for k, v in sorted(out.items())]
    return out, plain


def run_one(name: str, args: argparse.Namespace, spec: dict) -> dict[str, Any]:
    wl = _make(name, args.seed, args.seconds)
    report: list[str] = [f"# workload {name}, seed {args.seed}, {args.seconds} s, "
                         f"trace {args.trace}"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: dict[str, float] = {}
    correct = True
    attempted, failed = 1, 0
    try:
        wl.precheck()
        if args.trace:
            metrics, m = per_layer(wl, args, report)
        else:
            m = wl.measure(args.seconds)
            metrics = end_to_end(name, m, report)
        attempted, failed = m.attempted, m.failed
    except CheckFailed as exc:
        correct = False
        report.append(f"CHECK FAILED: {exc}")
        print(f"perfbench: {exc}", file=sys.stderr)
    except program_errors() as exc:
        # raised where an oracle expected a value: before the measured loop,
        # which counts such errors as failed operations instead
        correct = False
        report.append(f"CHECK FAILED: {name}: {type(exc).__name__}: {exc}")
        print(f"perfbench: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    print("\n".join(report), flush=True)
    missing = [d["name"] for d in wanted if d["name"] not in metrics]
    if correct and missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": float(metrics.get(d["name"], 0.0)),
                                "unit": d["unit"]} for d in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    problem = require_program() if spec_path.is_file() else "missing BENCHMARK.json"
    if problem:
        print(f"perfbench: cannot run: {problem} (run from a checkout of the repository)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    # One CPU for the whole run: the adapter's hand-offs then cost a thread
    # switch, not a cross-core wake-up whose latency the host decides.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args, spec)))
        return 0
    # A child per workload, so that each reports its own peak_rss_mb.
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
