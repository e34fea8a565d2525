"""compile: the whole compiler pipeline over a seeded IDL corpus.

Each file is parsed (tokenize, parse), lowered with build_binding (which
resolves the unit), emitted as signature text and as a binding file, and the
binding file is loaded back.  The corpus is the four shipped IDL files plus
a seeded synthetic ladder from tens of lines to about ten times win32.idl.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

import idlgen
from clock import PROBE_SOURCE, REF_NS, Clock
from common import ROOT, SRC, CheckFailed, Measured, median, program_errors
from spans import Tracer

SETUP_REPEATS = 9

# A command-line compile pays for importing the compiler on every run.  The
# child scales its import time by the probe run around it (see clock.py).
_IMPORT_PROBE = PROBE_SOURCE + (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "before = probe_ns()\n"
    "t = perf_counter_ns()\n"
    "import mlidl.idl, mlidl.binding\n"
    "took = perf_counter_ns() - t\n"
    f"print(took * 2 * {REF_NS} / (before + probe_ns()) / 1e9)\n"
)


@dataclass
class CorpusFile:
    name: str
    text: str
    mode: str
    level: str
    manifest: Optional[dict]
    golden: Optional[str]
    expected: Optional[dict]

    @property
    def lines(self) -> int:
        return self.text.count("\n")


def _shipped() -> list[CorpusFile]:
    from mlidl.binding import load_manifest

    idl = ROOT / "idl"
    golden = ROOT / "tests" / "golden"
    read = lambda p: p.read_text(encoding="utf-8")   # noqa: E731
    return [
        CorpusFile("win32.idl", read(idl / "win32.idl"), "dynamic", "auto", None,
                   read(golden / "win32.sig"), None),
        CorpusFile("time.idl", read(idl / "time.idl"), "static", "auto", None,
                   read(golden / "time.sig"), None),
        CorpusFile("bar.idl", read(idl / "bar.idl"), "com", "auto",
                   load_manifest(idl / "bar.manifest.json"), read(golden / "bar.sig"), None),
        CorpusFile("win32sim.idl",
                   read(SRC / "mlidl" / "winsim" / "data" / "win32sim.idl"),
                   "dynamic", "auto", None, None, None),
    ]


class CompileWorkload:
    name = "compile"

    def __init__(self, seed: int, seconds: float) -> None:
        self.corpus = _shipped() + [
            CorpusFile(g.name, g.text, g.mode, g.level, g.manifest, None, g.expected)
            for g in idlgen.synthetic_corpus(seed)]
        self.first: dict[str, tuple[str, str]] = {}

    def setup_times(self) -> list[float]:
        out = []
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                                  capture_output=True, text=True, timeout=120, check=True)
            out.append(float(proc.stdout.strip().splitlines()[-1]))
        return out

    def precheck(self) -> None:
        """Compile every file once and check it against its oracles.  A file
        the program fails on is left unchecked; the measured passes count it
        as failed."""
        from mlidl import binding, idl

        for f in self.corpus:
            try:
                desc = binding.build_binding(idl.parse_text(f.text, f.name), mode=f.mode,
                                             level=f.level, manifest=f.manifest)
                sig = binding.emit_sig_text(desc)
                bfile = binding.emit_binding_file(desc)
                self._check(f, desc, sig, bfile, binding.load_binding_file(bfile))
            except program_errors():
                continue

    def _check(self, f: CorpusFile, desc, sig: str, bfile: str, loaded) -> None:
        from mlidl import binding

        if f.golden is not None and sig != f.golden:
            raise CheckFailed(f"compile {f.name}: signature text differs from its golden")
        if f.expected is not None:
            got = {(i.name, op.name): (len(op.ins), len(op.results))
                   for i in desc.interfaces for op in i.ops}
            if got != f.expected:
                bad = sorted(set(got.items()) ^ set(f.expected.items()))[:3]
                raise CheckFailed(f"compile {f.name}: in/result counts differ: {bad}")
        if binding.emit_binding_file(loaded) != bfile \
                or binding.emit_sig_text(loaded) != sig:
            raise CheckFailed(f"compile {f.name}: emit -> load -> emit is not a fixed point")
        self.first[f.name] = (sig, bfile)

    def measure(self, budget_s: float, tracer: Optional[Tracer] = None) -> Measured:
        from mlidl import binding, idl

        errors = program_errors()
        deadline = time.perf_counter() + budget_s
        clock = Clock()
        pass_rates: list[float] = []
        raw_rates: list[float] = []
        item_ms: list[float] = []
        failures: dict[str, int] = {}
        files = 0
        while not files or time.perf_counter() < deadline \
                or (tracer is not None and files < 2 * len(self.corpus)):
            if tracer is not None:
                tracer.begin_unit()
            busy = raw = 0.0
            lines = 0
            for n, f in enumerate(self.corpus):
                if tracer is not None:
                    tracer.run_id = files + n
                t0 = time.perf_counter_ns()
                try:
                    unit = idl.parse_text(f.text, f.name)
                    desc = binding.build_binding(unit, mode=f.mode, level=f.level,
                                                 manifest=f.manifest)
                    sig = binding.emit_sig_text(desc)
                    bfile = binding.emit_binding_file(desc)
                    loaded = binding.load_binding_file(bfile)
                    t1 = time.perf_counter_ns()
                    if f.name not in self.first:      # failed in precheck
                        self._check(f, desc, sig, bfile, loaded)
                except errors as exc:
                    key = f"{f.name}: {type(exc).__name__}"
                    failures[key] = failures.get(key, 0) + 1
                    continue
                if (sig, bfile) != self.first[f.name] or loaded.module != desc.module:
                    raise CheckFailed(f"compile {f.name}: output differs from the checked pass")
                took = (t1 - t0) * clock.factor()
                raw += t1 - t0
                busy += took
                lines += f.lines
                item_ms.append(took / 1e6)
            files += len(self.corpus)
            if lines:
                pass_rates.append(lines / (busy / 1e9))
                raw_rates.append(lines / (raw / 1e9))
            if tracer is not None:
                tracer.end_unit()
        return Measured(work_per_s=median(pass_rates), raw_work_per_s=median(raw_rates),
                        item_ms=item_ms,
                        setup_s=[] if tracer is not None else self.setup_times(),
                        attempted=files, failed=sum(failures.values()),
                        units=files // len(self.corpus), items=files, failures=failures)
