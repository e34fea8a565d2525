"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every criterion also enforces its runtime budget.
"""

from __future__ import annotations

import random
import re
import time
from contextlib import contextmanager

import pytest

from conftest import GOLDEN_DIR, IDL_DIR, read_idl
from reference_bounce import reference_trace

from mlidl import marshal
from mlidl import semtypes as st
from mlidl.binding import build_binding, emit_sig_text
from mlidl.cli import main as cli_main
from mlidl.com import (
    ComObject,
    E_NOINTERFACE,
    Guid,
    IID_IUNKNOWN,
    Iid,
    NoInterface,
    query_interface,
    release,
)
from mlidl.idl import ast, parse_text, resolve
from mlidl.idl.resolve import symbol_table
from mlidl.automation import (
    AutomationError,
    DISP_E_BADPARAMCOUNT,
    DISP_E_TYPEMISMATCH,
    VT_BOOL,
    VT_BSTR,
    VT_I4,
    VT_UI4,
    Variant,
    get_ids_of_names,
    invoke,
    make_dual,
)
from mlidl.com import get_method
from mlidl.winsim.bounce import BounceDemo
from mlidl.wordmem import BadRegion, Mem, NotCallable, OutOfBounds


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s")
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {label}")


def test_criterion_01_parser_golden():
    with criterion(1, "parser golden: corpus parses; User x8 ops, Gdi x2", 1.0):
        unit = resolve(parse_text(read_idl("win32.idl"), "win32.idl"))
        user = symbol_table(unit)["User"]
        gdi = symbol_table(unit)["Gdi"]
        assert [op.name for op in user.ops] == [
            "RegisterClassExA", "UnregisterClassA", "CreateWindowExA",
            "ShowWindow", "UpdateWindow", "BeginPaint", "EndPaint",
            "LoadIconA",
        ]
        assert [op.name for op in gdi.ops] == ["LineTo", "PolyLineTo"]


def test_criterion_02_codegen_golden():
    with criterion(2, "codegen golden: byte-for-byte signature text", 1.0):
        win32 = build_binding(
            parse_text(read_idl("win32.idl"), "win32.idl"), "dynamic", "auto")
        text = emit_sig_text(win32)
        assert text == (GOLDEN_DIR / "win32.sig").read_text(encoding="utf-8")
        assert "val BeginPaint : HWND -> (PAINTSTRUCT * HDC)" in text

        time_desc = build_binding(
            parse_text(read_idl("time.idl"), "time.idl"), "static", "auto")
        time_text = emit_sig_text(time_desc)
        assert time_text == (GOLDEN_DIR / "time.sig").read_text(encoding="utf-8")
        assert ("val gettime : unit -> (timeval_t * timeval_t * timeval_t)"
                in time_text)


def _oracle_byte_size(t: ast.IdlType, table) -> int:
    """Brute-force layout oracle: sum declared field sizes, 4 bytes per
    scalar/pointer/string/callback, recursing into records."""
    if isinstance(t, (ast.PtrType, ast.ArrayType, ast.FuncType)):
        return 4
    if isinstance(t, ast.BaseType):
        return 4
    if isinstance(t, ast.NamedType):
        d = table.get(t.name)
        if isinstance(d, ast.RecordDecl):
            return sum(_oracle_byte_size(f.type, table) for f in d.fields)
        if isinstance(d, ast.Typedef):
            if isinstance(d.type, ast.FuncType):
                return 4
            return _oracle_byte_size(d.type, table)
        return 4  # enums, predeclared scalars
    raise AssertionError(f"oracle cannot size {t!r}")


def test_criterion_03_layout_against_byte_oracle():
    with criterion(3, "layout: WNDCLASSEX 12 words (48 bytes), POINT 2", 1.0):
        unit = resolve(parse_text(read_idl("win32.idl"), "win32.idl"))
        table = symbol_table(unit)
        desc = build_binding(unit, "dynamic", "auto")
        assert marshal.codec_of(st.SemType("record", name="WNDCLASSEX"), desc).width == 12
        assert _oracle_byte_size(ast.NamedType("WNDCLASSEX"), table) == 48
        assert marshal.codec_of(st.SemType("record", name="POINT"), desc).width == 2
        assert _oracle_byte_size(ast.NamedType("POINT"), table) == 8
        for rec in desc.records:
            oracle_bytes = _oracle_byte_size(ast.NamedType(rec.name), table)
            assert oracle_bytes == 4 * rec.size == \
                4 * marshal.codec_of(st.SemType("record", name=rec.name), desc).width


def test_criterion_04_wordmem_properties():
    with criterion(4, "wordmem: 10^4 round trips, 10^3 closures, regions", 5.0):
        rng = random.Random(0xACC4)
        mem = Mem()
        live = []
        for _ in range(10_000):
            if not live or rng.random() < 0.3:
                n = rng.randint(1, 32)
                live.append((mem.alloc(n), n))
            base, n = live[rng.randrange(len(live))]
            start = rng.randrange(n)
            count = rng.randint(1, n - start)
            ws = [rng.getrandbits(32) for _ in range(count)]
            at = mem.offset(base, start)
            mem.store(at, ws)
            assert mem.read(at, count) == ws
            if rng.random() < 0.05:
                i = rng.randrange(len(live))
                mem.free(live[i][0])
                live.pop(i)

        for _ in range(1_000):
            k = rng.getrandbits(32)
            f = (lambda k: lambda ws: (sum(ws) ^ k) & 0xFFFFFFFF)(k)
            args = [rng.getrandbits(32) for _ in range(rng.randrange(4))]
            assert mem.addr_to_fun(mem.fun_to_addr(f))(list(args)) == f(args)

        code = mem.fun_to_addr(lambda ws: 0)
        data = mem.alloc(1)
        with pytest.raises(BadRegion):
            mem.read(code, 1)
        with pytest.raises(BadRegion):
            mem.free(code)
        with pytest.raises(BadRegion):
            mem.free(0)
        with pytest.raises(NotCallable):
            mem.addr_to_fun(data)
        with pytest.raises(NotCallable):
            mem.addr_to_fun(0)
        with pytest.raises(OutOfBounds):
            mem.read(mem.offset(data, 1), 1)


def _three_interface_object(mem):
    clsid = None
    iids = [Iid(Guid.parse(f"{{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D00{i:02X}}}"),
                f"I{i}") for i in (0x30, 0x31, 0x32)]
    obj = ComObject(mem, clsid)
    for iid in iids:
        obj.add_interface(iid, [lambda ws: 0])
    return obj, iids


def test_criterion_05_com_invariants():
    with criterion(5, "com: identity, refcount conservation, exact destruction",
                   2.0):
        mem = Mem()
        baseline = mem.live_count
        obj, iids = _three_interface_object(mem)
        refs = [obj._interfaces[iid.guid] for iid in iids] + [obj.identity]
        unknowns = [query_interface(r, IID_IUNKNOWN) for r in refs]
        assert len({u.addr for u in unknowns}) == 1
        for u in unknowns:
            release(u)

        rng = random.Random(0xACC5)
        start = obj.refcount
        held = [obj.identity]
        depth = 0
        for _ in range(1_000):
            if depth and rng.random() < 0.5:
                release(held.pop())
                depth -= 1
            else:
                base = held[rng.randrange(len(held))]
                if rng.random() < 0.5:
                    held.append(query_interface(
                        base, rng.choice(iids + [IID_IUNKNOWN])))
                else:
                    get_method(base, 1)([base.addr])      # AddRef
                    held.append(base)
                depth += 1
            assert obj.refcount == start + depth > 0
        while depth:
            release(held.pop())
            depth -= 1
        assert obj.refcount == start

        bad = Iid(Guid.parse("{DEADBEEF-0000-0000-0000-000000000000}"), "bad")
        with pytest.raises(NoInterface) as exc:
            query_interface(obj.identity, bad)
        assert exc.value.hresult == E_NOINTERFACE == 0x80004002

        blocks = len(obj._blocks)
        assert mem.live_count == baseline + blocks
        release(obj.identity)
        assert mem.live_count == baseline


def test_criterion_06_raw_abi_matches_query_interface():
    with criterion(6, "raw ABI: vtable slot 0 equals query_interface, 100 cases",
                   2.0):
        mem = Mem()
        obj, iids = _three_interface_object(mem)
        entry = obj._interfaces[iids[0].guid]
        bad = Iid(Guid.parse("{DEADBEEF-0000-0000-0000-000000000000}"), "bad")
        rng = random.Random(0xACC6)
        pool = iids + [IID_IUNKNOWN, bad]
        for _ in range(100):
            iid = pool[rng.randrange(len(pool))]
            iid_blk = mem.alloc(4)
            out_blk = mem.alloc(1)
            mem.store(iid_blk, iid.guid.to_words())
            vtable = mem.read(entry.addr, 1)[0]
            slot0 = mem.read(vtable, 1)[0]
            hr = mem.addr_to_fun(slot0)([entry.addr, iid_blk, out_blk])
            raw = mem.read(out_blk, 1)[0]
            if hr == 0:
                ref = query_interface(entry, iid)
                assert raw == ref.addr
                release(ref)
                release(ref)   # drop the raw path's reference as well
            else:
                assert hr == E_NOINTERFACE and raw == 0
                with pytest.raises(NoInterface):
                    query_interface(entry, iid)
            mem.free(iid_blk)
            mem.free(out_blk)


def test_criterion_07_dual_equivalence():
    with criterion(7, "automation: Invoke equals vtable on 100 random calls",
                   2.0):
        mem = Mem()
        obj = ComObject(mem)
        trace: list = []
        desc = build_binding(parse_text("""
            sml_name ("Calc");
            typedef boolean BOOL;
            typedef [string] char *STRING;
            interface ICalc {
              int Add ([in] int a, [in] int b);
              unsigned long Mask ([in] unsigned long w);
              BOOL Shout ([in] STRING s);
            }
        """, "calc.idl"), "dynamic", "auto")
        sigs = list(desc.interface("ICalc").ops)
        impls = [
            lambda a, b: (trace.append(("Add", a, b)), (a + b) & 0x7FFFFFFF)[1],
            lambda w: (trace.append(("Mask", w)), w & 0xFFFF0000)[1],
            lambda s: (trace.append(("Shout", s)), s.isupper())[1],
        ]
        iid = Iid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0040}"), "IC")
        dual = make_dual(sigs, impls, obj, iid, desc)
        rng = random.Random(0xACC7)
        for _ in range(100):
            idx = rng.randrange(3)
            sig = sigs[idx]
            if idx == 0:
                args = [rng.randint(-999, 999), rng.randint(-999, 999)]
                variants = [Variant(VT_I4, a) for a in args]
            elif idx == 1:
                args = [rng.getrandbits(32)]
                variants = [Variant(VT_UI4, args[0])]
            else:
                args = [rng.choice(["LOUD", "quiet", "Mixed", "X"])]
                variants = [Variant(VT_BSTR, args[0])]
            trace.clear()
            vt = marshal.call(sig, get_method(dual, 7 + idx), args, mem, desc)
            vt_effects = list(trace)
            trace.clear()
            disp = invoke(dual, get_ids_of_names(dual, sig.name), variants)
            assert list(trace) == vt_effects
            assert disp == Variant((VT_I4, VT_UI4, VT_BOOL)[idx], vt[0])

        with pytest.raises(AutomationError) as exc:
            invoke(dual, 1, [Variant(VT_I4, 1)])
        assert exc.value.hresult == DISP_E_BADPARAMCOUNT
        with pytest.raises(AutomationError) as exc:
            invoke(dual, 1, [Variant(VT_BSTR, "x"), Variant(VT_I4, 1)])
        assert exc.value.hresult == DISP_E_TYPEMISMATCH
        assert exc.value.arg_index == 0


def _physics_holds(trace_lines):
    centers = []
    for line in trace_lines:
        m = re.match(r"TICK (\d+) DRAW BitBlt \d+ (-?\d+) (-?\d+) ", line)
        if m:
            centers.append((int(m.group(2)) + 79, int(m.group(3)) + 65))
    assert len(centers) == 500
    for (x0, y0), (x1, y1) in zip(centers, centers[1:]):
        assert abs(x1 - x0) == 10 and abs(y1 - y0) == 10
    for (x0, y0), (x1, y1), (x2, y2) in zip(centers, centers[1:], centers[2:]):
        assert ((x2 - x1) == -(x1 - x0)) == (x1 + 59 >= 500 or x1 - 59 <= 0)
        assert ((y2 - y1) == -(y1 - y0)) == (y1 + 45 >= 300 or y1 - 45 <= 0)


def test_criterion_08_bounce_integration(tmp_path):
    with criterion(8, "bounce: CLI trace equals reference pump; physics hold",
                   2.0):
        trace_path = tmp_path / "bounce.log"
        assert cli_main(["run-demo", "bounce", "--ticks", "500",
                         "--trace", str(trace_path)]) == 0
        demo_lines = trace_path.read_text(encoding="utf-8").splitlines()
        ref_lines, ref_code = reference_trace(ticks=500)
        assert ref_code == 0
        assert demo_lines == ref_lines
        _physics_holds(demo_lines)
        codes = [int(l.split()[4]) for l in demo_lines if l.split()[2] == "MSG"]
        assert codes[0] == 1 and codes[1] == 5 and codes[-1] == 2
        assert set(codes[2:-1]) == {0x113}


def test_criterion_09_queue_adapter_equivalence():
    with criterion(9, "adapter: queue-threaded wndproc trace identical", 5.0):
        direct = BounceDemo()
        assert direct.run(500) == 0
        threaded = BounceDemo(adapter=True)
        assert threaded.run(500) == 0
        assert direct.world.trace == threaded.world.trace


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "determinism: emissions and traces byte-identical", 5.0):
        pairs = []
        for run in ("one", "two"):
            out = tmp_path / run
            assert cli_main(["compile", str(IDL_DIR / "win32.idl"),
                             "--mode", "dynamic", "--level", "auto",
                             "--emit", "sig,binding", "-o", str(out)]) == 0
            assert cli_main(["compile", str(IDL_DIR / "bar.idl"),
                             "--mode", "com",
                             "--manifest", str(IDL_DIR / "bar.manifest.json"),
                             "-o", str(out)]) == 0
            assert cli_main(["run-demo", "bounce", "--ticks", "120",
                             "--trace", str(out / "bounce.log")]) == 0
            pairs.append({
                "sig": (out / "win32.sig").read_bytes(),
                "binding": (out / "win32.binding.json").read_bytes(),
                "com_sig": (out / "bar.sig").read_bytes(),
                "com_binding": (out / "bar.binding.json").read_bytes(),
                "trace": (out / "bounce.log").read_bytes(),
            })
        assert pairs[0] == pairs[1]
