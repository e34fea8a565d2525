from __future__ import annotations

import gc
import hashlib
import re
import weakref
from collections import Counter

import pytest

from conftest import (count_mlidl_calls, in_a_fresh_interpreter,
                      nothing_for_the_cycle_collector, peak_mb)
from reference_bounce import reference_trace
from mlidl.winsim.bounce import BALL_TIMER, TIMER_RATE, BounceDemo, BounceState, DemoError
from mlidl.winsim.world import WM_SIZE, WM_TIMER, SimWorld
from mlidl.wordmem import Mem

LOGO_HALF_W = 158 // 2
LOGO_HALF_H = 131 // 2
RADIUS_X = 59
RADIUS_Y = 45
MOVE = 10


@pytest.fixture(scope="module")
def demo_run():
    demo = BounceDemo()
    code = demo.run(500)
    return demo.world.trace, code


@pytest.fixture(scope="module")
def reference_run():
    return reference_trace(ticks=500)


def blit_centers(trace):
    centers = []
    for line in trace:
        m = re.match(r"TICK (\d+) DRAW BitBlt \d+ (-?\d+) (-?\d+) ", line)
        if m:
            centers.append((int(m.group(1)),
                            int(m.group(2)) + LOGO_HALF_W,
                            int(m.group(3)) + LOGO_HALF_H))
    return centers


def test_demo_exits_zero(demo_run):
    assert demo_run[1] == 0


def test_demo_trace_equals_reference(demo_run, reference_run):
    demo_trace, code = demo_run
    ref_trace, ref_code = reference_run
    assert code == ref_code == 0
    assert demo_trace == ref_trace


def test_adapter_trace_identical(demo_run):
    demo = BounceDemo(adapter=True)
    assert demo.run(500) == 0
    assert demo.world.trace == demo_run[0]


@pytest.mark.parametrize("adapter", [False, True], ids=["direct", "adapter"])
def test_trace_is_pinned(adapter):
    # reference_bounce renders through SimWorld too, so only a fixed digest
    # catches a change to the trace format itself
    demo = BounceDemo(adapter=adapter)
    assert demo.run(500) == 0
    assert len(demo.world.trace) == 3516
    assert hashlib.sha256(demo.world.trace_text().encode()).hexdigest() == \
        "dd0b3a6f4d654d522b9bf6e1dabca1136569aee6d739a7b22c3e1c540b78ced3"


def test_first_blit_at_window_center(demo_run):
    centers = blit_centers(demo_run[0])
    assert centers[0][1:] == (250, 150)


def test_per_tick_displacement_is_move_rate(demo_run):
    centers = blit_centers(demo_run[0])
    assert len(centers) == 500
    for (t0, x0, y0), (t1, x1, y1) in zip(centers, centers[1:]):
        assert t1 == t0 + 1
        assert abs(x1 - x0) == MOVE
        assert abs(y1 - y0) == MOVE


def test_sign_flips_exactly_at_boundary_contact(demo_run):
    centers = blit_centers(demo_run[0])
    cx_client, cy_client = 500, 300
    for (t0, x0, y0), (t1, x1, y1), (t2, x2, y2) in zip(
            centers, centers[1:], centers[2:]):
        dx0, dx1 = x1 - x0, x2 - x1
        dy0, dy1 = y1 - y0, y2 - y1
        # after the move to (x1, y1), contact forces the flip for the next move
        assert (dx1 == -dx0) == (x1 + RADIUS_X >= cx_client or x1 - RADIUS_X <= 0)
        assert (dy1 == -dy0) == (y1 + RADIUS_Y >= cy_client or y1 - RADIUS_Y <= 0)


def test_lifecycle_ordering(demo_run):
    codes = [int(line.split()[4])
             for line in demo_run[0] if line.split()[2] == "MSG"]
    assert codes[0] == 1          # WM_CREATE
    assert codes[1] == 5          # WM_SIZE
    assert codes[-1] == 2         # WM_DESTROY
    assert set(codes[2:-1]) == {0x113}


def test_kill_timer_observed_in_trace(demo_run):
    assert any("KillTimer" in line for line in demo_run[0])


def test_trace_deterministic_across_runs(demo_run):
    demo = BounceDemo()
    assert demo.run(500) == demo_run[1]
    assert demo.world.trace == demo_run[0]


def test_unhandled_message_reaches_default_handler():
    from mlidl.winsim.bounce import BounceDemo
    from mlidl.winsim.world import WM_DESTROY, WM_SETFOCUS

    demo = BounceDemo()
    world = demo.world
    wndproc = demo._make_wndproc()
    demo.user.RegisterClassExA({
        "cbSize": 48, "style": 3, "lpfnWndProc": wndproc, "cbClsExtra": 0,
        "cbWndExtra": 0, "hInstance": 0, "hIcon": 1, "hCursor": 2,
        "hbrBackground": 3, "lpszMenuName": "", "lpszClassName": "X",
        "hIconSm": 1})
    hwnd = demo.user.CreateWindowExA(0, "X", "t", 0, 0, 0, 300, 200, 0, 0, 0, 0)
    world.PostMessageA(hwnd, WM_SETFOCUS, 0, 0)
    world.pump(1)
    assert any(line.endswith(f"DRAW DefWindowProcA {hwnd} {WM_SETFOCUS} 0 0")
               for line in world.trace)
    world.PostMessageA(hwnd, WM_DESTROY, 0, 0)
    assert world.pump(2) == 0


def test_mem_operation_counts_of_a_run_are_pinned():
    # set-up and tear-down only touch the heap: 500 ticks of scalar calls
    # allocate, store, read and free nothing, whatever machine runs this;
    # set-up reads each of its 8 strings in one read, and the WNDCLASSEX record
    ops = Counter()
    demo = BounceDemo(mem=Mem(trace=lambda line: ops.update([line.split(" ", 1)[0]])))
    assert demo.run(500) == 0
    assert ops == {"call": 3017, "alloc": 9, "store": 9, "read": 9, "free": 9}
    assert demo.mem.live_count == 0


@pytest.mark.parametrize("adapter", [False, True], ids=["direct", "adapter"])
def test_finished_demo_is_freed_without_the_cycle_collector(adapter):
    # a plan that kept a closure referring back to the plan would keep the
    # description, and every plan in it, for the cycle collector
    demo = BounceDemo(adapter=adapter)
    assert demo.run(5) == 0
    refs = [weakref.ref(demo.world), weakref.ref(demo.mem), weakref.ref(demo.desc),
            weakref.ref(next(iter(demo.desc.plans.values())))]
    gc.disable()
    try:
        del demo
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


@pytest.mark.parametrize("adapter", [False, True], ids=["direct", "adapter"])
def test_a_demo_leaves_nothing_for_the_cycle_collector(adapter):
    # set-up compiles win32sim.idl; its resolved unit must die with it
    with nothing_for_the_cycle_collector():
        demo = BounceDemo(adapter=adapter)
        assert demo.run(50) == 0
        del demo


def test_python_calls_of_a_run_are_gated():
    # a count, not a time: every Python-level call into mlidl during a
    # 500-tick run (ticks, pump, stubs, simulation); each bound call of the
    # run converts its integer arguments and words inline, on both sides
    demo = BounceDemo(width=640, height=480)
    code, calls = count_mlidl_calls(demo.run, 500)
    assert code == 0
    assert calls <= 24_854          # on CPython 3.11; 24,955 while
                                    # `Mem.read` and `Mem.store` called `_find`
                                    # and `store` masked in a comprehension,
                                    # 24,954 before
                                    # UnregisterClassA released the wndproc,
                                    # 24,994 while strings went through
                                    # wrappers of their codec, 25,038 while `Mem._find`
                                    # called `region_of`, 25,539 while ReleaseDC
                                    # went through gdi_record, 40,099 before the
                                    # flat kernels and the recorder looped in their
                                    # own frames, 49,143 before the per-plan
                                    # kernels, 85,251 before any kernel


def run_peaks() -> dict[str, float]:
    """The peak of a set-up plus a 500-tick run, direct and with the
    adapter, each after one such run to warm up."""
    peaks = {}
    for adapter in (False, True):
        def run():
            assert BounceDemo(adapter=adapter).run(500) == 0

        run()
        peaks["adapter" if adapter else "direct"] = peak_mb(run)
    return peaks


@pytest.fixture(scope="module")
def run_peak():
    return in_a_fresh_interpreter("test_bounce", "run_peaks")


@pytest.mark.parametrize("how", ["direct", "adapter"])
def test_memory_peak_of_a_run_is_budgeted(run_peak, how):
    # tracemalloc peak of a set-up plus a 500-tick run: 0.4616 MB direct and
    # 0.4625 with the adapter on CPython 3.11.  It was 0.5255 and 0.5263
    # while each tick built its state through `_replace`, whose `_make`
    # fills the tuple free list from a `map`.  A run keeps nothing per
    # tick; keeping one extra four-word list per tick breaks the budget.
    assert run_peak[how] <= 0.47, f"{run_peak[how]:.4f} MB"


@pytest.mark.parametrize("patch, message", [
    # the simulation refuses the window
    (("CreateWindowExA", lambda self, *args: 0), "window creation failed"),
    # the program's PostQuitMessage is lost, so no tick ends the demo
    (("PostQuitMessage", lambda self, code: None), "demo did not reach the quit message"),
], ids=["no_window", "no_quit"])
def test_a_demo_that_cannot_finish_raises_demo_error(monkeypatch, patch, message):
    monkeypatch.setattr(SimWorld, *patch)     # before the demo installs its stubs
    demo = BounceDemo()
    with pytest.raises(DemoError) as info:
        demo.run(5)
    assert str(info.value) == message
    assert demo.mem.live_count == 0


class SkipsReleaseDC(BounceDemo):
    def _create(self, state, hwnd):
        self.user.GetDC(hwnd)
        self.user.SetTimer(hwnd, BALL_TIMER, TIMER_RATE, None)
        return state, 0


class KeepsAMemoryDC(BounceDemo):
    def _timer_ball(self, state, hwnd):
        self.gdi.CreateCompatibleDC(0)
        return super()._timer_ball(state, hwnd)


class SkipsDeleteObject(BounceDemo):
    def _destroy(self, state, hwnd):
        return super()._destroy(state._replace(hbitmap=0), hwnd)


@pytest.mark.parametrize("demo_class, message", [
    # Petzold's classic leak: WM_CREATE's DC is never released
    (SkipsReleaseDC, "DC 6"),
    # each of two ticks makes a memory DC that it never deletes
    (KeepsAMemoryDC, "memory DC 8, memory DC 12"),
    (SkipsDeleteObject, "bitmap 7"),
], ids=["ReleaseDC", "DeleteDC", "DeleteObject"])
def test_a_handle_the_program_keeps_is_demo_error(demo_class, message):
    demo = demo_class()
    with pytest.raises(DemoError) as info:
        demo.run(2)
    assert str(info.value) == f"demo left GDI handles live: {message}"
    assert demo.mem.live_count == 0


def test_an_undeclared_const_is_demo_error():
    with pytest.raises(DemoError) as info:
        BounceDemo()._const("IDI_NOPE")
    assert str(info.value) == "the simulated API declares no const 'IDI_NOPE'"


# -- the handler's branches that a run does not reach -----------------------------

def test_a_timer_other_than_the_balls_changes_nothing():
    demo = BounceDemo()
    state = BounceState(hbitmap=1, cxclient=300, cyclient=200)
    assert demo.handle(state, (1, WM_TIMER, BALL_TIMER + 1, 0)) == (state, 0)
    assert demo.world.trace == []


def test_a_second_size_deletes_the_old_bitmap():
    demo = BounceDemo()
    first, ret = demo.handle(BounceState(), (1, WM_SIZE, 0, (200 << 16) | 300))
    assert ret == 0 and first.hbitmap == 1
    second, ret = demo.handle(first, (1, WM_SIZE, 0, (100 << 16) | 400))
    assert ret == 0
    assert second == first._replace(hbitmap=2, cxclient=400, cyclient=100,
                                    xcenter=200, ycenter=50)
    assert demo.world.trace == [
        'TICK 0 DRAW LoadImageA 0 "smlnj.bmp" 0 0 0 16',
        "TICK 0 DRAW DeleteObject 1",
        'TICK 0 DRAW LoadImageA 0 "smlnj.bmp" 0 0 0 16',
    ]


def test_a_ball_tick_before_any_bitmap_draws_nothing():
    demo = BounceDemo()
    assert demo.handle(BounceState(), (1, WM_TIMER, BALL_TIMER, 0)) == (BounceState(), 0)
    assert demo.world.trace == []
