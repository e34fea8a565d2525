from __future__ import annotations

import json

import pytest

from conftest import IDL_DIR
from mlidl.cli import main


def test_compile_writes_requested_emissions(tmp_path, capsys):
    code = main(["compile", str(IDL_DIR / "win32.idl"), "--mode", "dynamic",
                 "--level", "auto", "--emit", "sig,binding",
                 "-o", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "win32.sig").exists()
    assert (tmp_path / "win32.binding.json").exists()
    out = capsys.readouterr().out
    assert "win32.sig" in out and "win32.binding.json" in out


def test_compile_sig_only(tmp_path):
    code = main(["compile", str(IDL_DIR / "time.idl"), "--emit", "sig",
                 "-o", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "time.sig").exists()
    assert not (tmp_path / "time.binding.json").exists()


def test_compile_outputs_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["compile", str(IDL_DIR / "win32.idl"), "-o", str(out)]) == 0
    assert (a / "win32.sig").read_bytes() == (b / "win32.sig").read_bytes()
    assert (a / "win32.binding.json").read_bytes() == \
        (b / "win32.binding.json").read_bytes()


def test_compile_missing_file_exits_2(capsys):
    assert main(["compile", "missing.idl"]) == 2
    assert "missing.idl" in capsys.readouterr().err


def test_compile_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.idl"
    bad.write_text("interface { }")
    assert main(["compile", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.idl:1:" in err


def test_compile_com_needs_manifest(tmp_path, capsys):
    assert main(["compile", str(IDL_DIR / "bar.idl"), "--mode", "com",
                 "-o", str(tmp_path)]) == 2
    assert "IID" in capsys.readouterr().err


def test_compile_com_with_manifest(tmp_path):
    code = main(["compile", str(IDL_DIR / "bar.idl"), "--mode", "com",
                 "--manifest", str(IDL_DIR / "bar.manifest.json"),
                 "-o", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "bar.sig").read_text()
    assert "val BarCLSID : Com.CLSID" in text


@pytest.mark.parametrize("content, reason", [
    (b'{"iids": {', "not valid JSON"),
    (b'{"iids": {"IX": "\xff"}}', "not UTF-8"),
    (None, "cannot read"),
], ids=["malformed-json", "not-utf8", "missing"])
def test_compile_bad_manifest_exits_2(tmp_path, capsys, content, reason):
    manifest = tmp_path / "m.json"
    if content is not None:
        manifest.write_bytes(content)
    assert main(["compile", str(IDL_DIR / "bar.idl"), "--mode", "com",
                 "--manifest", str(manifest), "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"manifest {manifest}: {reason}")
    assert not (tmp_path / "bar.sig").exists()


def test_compile_manifest_iid_not_a_guid_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"iids": {"IX": "nope", "IY": 5}}))
    assert main(["compile", str(IDL_DIR / "bar.idl"), "--mode", "com",
                 "--manifest", str(manifest), "-o", str(tmp_path)]) == 2
    assert "IID of interface 'IX'" in capsys.readouterr().err
    assert not (tmp_path / "bar.binding.json").exists()


def test_compile_manifest_of_the_wrong_shape_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"iids": ["IX"]}))
    assert main(["compile", str(IDL_DIR / "bar.idl"), "--mode", "com",
                 "--manifest", str(manifest), "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "manifest: 'iids' must be an object\n"
    assert not (tmp_path / "bar.sig").exists()


def test_unknown_flag_exits_1(capsys):
    assert main(["compile", str(IDL_DIR / "time.idl"), "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_1(capsys):
    assert main(["explode"]) == 1


def test_no_command_exits_1():
    assert main([]) == 1


def test_bad_emission_exits_1():
    assert main(["compile", str(IDL_DIR / "time.idl"), "--emit", "llvm"]) == 1


def test_check_ok():
    assert main(["check", str(IDL_DIR / "time.idl")]) == 0


def test_check_resolve_error(tmp_path, capsys):
    bad = tmp_path / "bad.idl"
    bad.write_text("interface X : Y { }")
    assert main(["check", str(bad)]) == 2


@pytest.mark.parametrize("command", ["check", "compile"])
@pytest.mark.parametrize("text, cycle", [
    ("typedef A B;\ntypedef B A;\n", "B -> A -> B"),
    ("typedef A A;\n", "A -> A"),
    ("typedef B *A;\ntypedef A *B;\n", "A -> B -> A"),
], ids=["two_aliases", "self", "pointers"])
def test_a_typedef_cycle_exits_2(tmp_path, capsys, command, text, cycle):
    bad = tmp_path / "cyc.idl"
    bad.write_text(text)
    assert main([command, str(bad), "-o", str(tmp_path)] if command == "compile"
                else [command, str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}:1:1: typedef cycle: {cycle}\n"
    assert not (tmp_path / "cyc.sig").exists()


def test_run_demo_writes_deterministic_trace(tmp_path):
    t1 = tmp_path / "t1.log"
    t2 = tmp_path / "t2.log"
    assert main(["run-demo", "bounce", "--ticks", "40",
                 "--trace", str(t1)]) == 0
    assert main(["run-demo", "bounce", "--ticks", "40",
                 "--trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()
    assert t1.read_text().startswith("TICK 0 DRAW LoadIconA")


def test_run_demo_adapter_matches_direct(tmp_path):
    t1 = tmp_path / "direct.log"
    t2 = tmp_path / "adapter.log"
    assert main(["run-demo", "bounce", "--ticks", "40", "--trace", str(t1)]) == 0
    assert main(["run-demo", "bounce", "--ticks", "40", "--adapter",
                 "--trace", str(t2)]) == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_run_demo_rejects_zero_ticks():
    assert main(["run-demo", "bounce", "--ticks", "0"]) == 1


def test_run_demo_mlidl_trace_logs_memory_ops(tmp_path, capsys, monkeypatch):
    plain, traced = tmp_path / "plain.log", tmp_path / "traced.log"
    monkeypatch.delenv("MLIDL_TRACE", raising=False)
    assert main(["run-demo", "bounce", "--ticks", "40", "--trace", str(plain)]) == 0
    assert capsys.readouterr().err == ""

    monkeypatch.setenv("MLIDL_TRACE", "1")
    assert main(["run-demo", "bounce", "--ticks", "40", "--trace", str(traced)]) == 0
    ops = [line.split(" ", 1)[0] for line in capsys.readouterr().err.splitlines()]
    assert set(ops) == {"alloc", "store", "read", "call", "free"}
    assert ops.count("alloc") == ops.count("free")
    assert traced.read_bytes() == plain.read_bytes()
