from __future__ import annotations

import threading
from pathlib import Path

import pytest

from mlidl.binding import build_binding, load_manifest
from mlidl.idl import parse_text, resolve
from mlidl.wordmem import Mem

REPO = Path(__file__).resolve().parents[1]
IDL_DIR = REPO / "idl"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def read_idl(name: str) -> str:
    return (IDL_DIR / name).read_text(encoding="utf-8")


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
