"""Each process loads only what its work uses.

`hashlib` loads OpenSSL's libcrypto, about 3.5 MB of resident memory, and
only `emit_sig_text` needs it, for the digest in a `.sig` header.  The
command-line driver imports the runtime only for `run-demo`.  Each gate runs
one process's work in a new interpreter and reads its `sys.modules`.
"""
from __future__ import annotations

import pytest

from conftest import IDL_DIR, REPO, modules_loaded_by

RUNTIME = ("mlidl.wordmem", "mlidl.marshal", "mlidl.com", "mlidl.automation",
           "mlidl.winsim")
OPENSSL = "_hashlib"        # the extension module that links libcrypto

# perfbench's abi-mix world: a library built from IDL text, a skeleton for
# every operation, `bind`, `make_dual`, `co_create_instance` through a
# registry, and a seeded stream of every call shape, Invoke and COM churn
ABI_MIX = f"""
import random, sys
sys.path.insert(0, {str(REPO / "perfbench")!r})
import common, idlgen, wl_abimix
world = wl_abimix.World(idlgen.abi_library(3301), 3301)
client = wl_abimix.Client(world, 3301)
errors = common.program_errors()
ran = set()
for kind in random.Random(3301).choices(list(wl_abimix.KIND_METRIC), k=400):
    kind, label, thunk, check = client.prepare(kind)
    ran.add(kind)
    try:
        assert check(thunk()), label
    except errors:
        pass
assert ran == set(wl_abimix.KIND_METRIC), ran
"""


def _cli(argv: list[str]) -> str:
    return f"from mlidl.cli import main\nassert main({argv!r}) == 0"


def test_the_command_line_driver_loads_no_runtime_and_no_hashlib():
    loaded = modules_loaded_by("import mlidl.cli")
    assert "mlidl.cli" in loaded
    assert [m for m in loaded if m.startswith(RUNTIME) or m in ("hashlib", OPENSSL)] == []


@pytest.mark.parametrize("argv", [
    ["check", str(IDL_DIR / "win32.idl")],
    ["compile", str(IDL_DIR / "win32.idl"), "--emit", "binding", "-o", "{out}"],
    ["run-demo", "bounce", "--ticks", "20"],
], ids=["check", "compile-binding", "run-demo"])
def test_a_process_that_writes_no_sig_loads_no_openssl(tmp_path, argv):
    argv = [a.format(out=tmp_path) for a in argv]
    assert OPENSSL not in modules_loaded_by(_cli(argv))


def test_an_abi_mix_world_loads_no_openssl():
    loaded = modules_loaded_by(ABI_MIX)
    assert "mlidl.automation" in loaded and "mlidl.com" in loaded
    assert OPENSSL not in loaded


def test_a_written_sig_takes_its_digest_from_hashlib(tmp_path):
    argv = ["compile", str(IDL_DIR / "win32.idl"), "--emit", "sig", "-o", str(tmp_path)]
    assert OPENSSL in modules_loaded_by(_cli(argv))
    assert (tmp_path / "win32.sig").exists()
