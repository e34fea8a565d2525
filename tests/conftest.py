from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

import pytest

from mlidl.binding import build_binding, load_manifest
from mlidl.idl import parse_text, resolve
from mlidl.wordmem import BadSize, Mem, WordFn

REPO = Path(__file__).resolve().parents[1]
IDL_DIR = REPO / "idl"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# every IDL file the project ships
SHIPPED_IDL = [IDL_DIR / "win32.idl", IDL_DIR / "time.idl", IDL_DIR / "bar.idl",
               REPO / "src" / "mlidl" / "winsim" / "data" / "win32sim.idl"]


class FailingMem(Mem):
    """A world whose `fail_in`-th allocation from now raises BadSize, and
    whose `fail_registration_in`-th closure registration from now does."""

    fail_in = 0
    fail_registration_in = 0

    def alloc(self, nwords: int) -> int:
        self.fail_in -= 1
        if self.fail_in == 0:
            raise BadSize("injected")
        return super().alloc(nwords)

    def fun_to_addr(self, fn: WordFn) -> int:
        self.fail_registration_in -= 1
        if self.fail_registration_in == 0:
            raise BadSize("injected")
        return super().fun_to_addr(fn)


def read_idl(name: str) -> str:
    return (IDL_DIR / name).read_text(encoding="utf-8")


def count_mlidl_calls(fn: Callable[..., Any], *args: Any) -> tuple[Any, int]:
    """`fn(*args)` and the number of Python `call` events in `mlidl.*`
    frames that it made, counted with `sys.setprofile`."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").startswith("mlidl."):
            calls += 1

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def peak_mb(fn: Callable[..., Any], *args: Any) -> float:
    """The peak of the memory `fn(*args)` held at once, in MB, as tracemalloc
    counts it: bytes, not time, so the same on any machine with this Python.
    Free lists left by earlier work move it by a few kB, so a budget
    measures it with `in_a_fresh_interpreter`, after one warm-up call."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _run_in_a_new_interpreter(code: str) -> str:
    """The standard output of `code`, run in a new interpreter with `tests/`
    and `src/` on its path and a fixed hash seed; it must exit with 0."""
    path = os.pathsep.join(filter(None, [str(REPO / "tests"), str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0"),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def in_a_fresh_interpreter(module: str, fn: str) -> Any:
    """`module.fn()`, a function of a test module that returns JSON data,
    run in a new interpreter with a fixed hash seed: the same steps in the
    same state on every run, whatever tests ran before."""
    return json.loads(_run_in_a_new_interpreter(
        f"import json, {module}; print(json.dumps({module}.{fn}()))"))


def modules_loaded_by(code: str) -> list[str]:
    """The sorted names of `sys.modules` once `code` has run in a new
    interpreter, which imports only what the code does and `sys`."""
    out = _run_in_a_new_interpreter(f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))")
    return out.splitlines()[-1].split()


@contextmanager
def nothing_for_the_cycle_collector():
    """Run the body with the cycle collector off, then require that a
    collection finds nothing unreachable: reference counting alone freed
    everything the body made and dropped."""
    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
        found = gc.collect()
        kinds = sorted({type(o).__name__ for o in gc.garbage})
        assert found == 0, f"{found} objects left for the cycle collector: {kinds[:12]}"
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()


@pytest.fixture(scope="session")
def win32_unit():
    return resolve(parse_text(read_idl("win32.idl"), "win32.idl"))


@pytest.fixture(scope="session")
def time_unit():
    return resolve(parse_text(read_idl("time.idl"), "time.idl"))


@pytest.fixture(scope="session")
def bar_unit():
    return resolve(parse_text(read_idl("bar.idl"), "bar.idl"))


@pytest.fixture(scope="session")
def bar_manifest():
    return load_manifest(IDL_DIR / "bar.manifest.json")


@pytest.fixture(scope="session")
def win32_desc(win32_unit):
    return build_binding(win32_unit, mode="dynamic", level="auto")


@pytest.fixture(scope="session")
def time_desc(time_unit):
    return build_binding(time_unit, mode="static", level="auto")


@pytest.fixture(scope="session")
def bar_desc(bar_unit, bar_manifest):
    return build_binding(bar_unit, mode="com", level="auto", manifest=bar_manifest)


@pytest.fixture
def mem():
    return Mem()


@pytest.fixture(autouse=True)
def no_leaked_adapter_worker():
    """Fail a test that leaves a queue-adapter worker thread running."""
    before = {t for t in threading.enumerate() if t.name == "wndproc-worker"}
    yield
    leaked = [t for t in threading.enumerate()
              if t.name == "wndproc-worker" and t not in before]
    assert not leaked, f"{len(leaked)} wndproc-worker thread(s) left running"
