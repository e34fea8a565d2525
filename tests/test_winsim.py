from __future__ import annotations

from enum import IntEnum

import pytest

from mlidl.winsim.util import hi_word, lo_word, util_or
from mlidl.winsim.world import (
    MS_PER_TICK,
    WM_CREATE,
    WM_DESTROY,
    WM_MOVE,
    WM_SIZE,
    WM_TIMER,
    Msg,
    PumpError,
    SimWorld,
)
from mlidl.wordmem import Mem, NotCallable


def make_world():
    mem = Mem()
    return SimWorld(mem), mem


def make_class(world, log, name="C", ret=0):
    def wndproc(words):
        log.append(tuple(words))
        return ret
    wc = {"lpszClassName": name, "lpfnWndProc": wndproc, "style": 3}
    return world.RegisterClassExA(wc)


# -- utilities ------------------------------------------------------------------


def test_util_or():
    assert util_or([2, 1]) == 3
    assert util_or([]) == 0
    assert util_or([0x80000000, 1]) == 0x80000001


def test_word_split():
    assert lo_word(0x0005000A) == 0x000A
    assert hi_word(0x0005000A) == 0x0005


# -- classes ----------------------------------------------------------------------


def test_register_class_returns_nonzero_atom():
    world, _ = make_world()
    atom = make_class(world, [], "BouncingSMLNJ")
    assert atom != 0


def test_duplicate_class_returns_zero():
    world, _ = make_world()
    make_class(world, [], "C")
    assert make_class(world, [], "C") == 0


def test_unregister_then_reregister():
    world, _ = make_world()
    make_class(world, [], "C")
    assert world.UnregisterClassA("C", 0) is True
    assert make_class(world, [], "C") != 0
    assert world.UnregisterClassA("Nope", 0) is False


def test_register_unregister_churn_gives_back_the_wndproc():
    world, mem = make_world()
    for _ in range(3):
        assert make_class(world, [], "C") != 0
        assert mem.closure_count == 1
        assert world.UnregisterClassA("C", 0) is True
        assert mem.closure_count == 0


# -- windows ----------------------------------------------------------------------


def test_create_window_dispatches_create_then_size():
    world, _ = make_world()
    log = []
    make_class(world, log, "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 500, 300, 0, 0, 0, 0)
    assert hwnd != 0
    assert log[0][1] == WM_CREATE
    assert log[1][1] == WM_SIZE
    lparam = log[1][3]
    assert lo_word(lparam) == 500
    assert hi_word(lparam) == 300


def test_create_window_unknown_class_returns_zero():
    world, _ = make_world()
    assert world.CreateWindowExA(0, "Nope", "T", 0, 0, 0, 1, 1, 0, 0, 0, 0) == 0


def test_cw_usedefault_resolves_to_zero():
    world, _ = make_world()
    make_class(world, [], "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0x80000000, -2147483648,
                                 500, 300, 0, 0, 0, 0)
    assert world.windows[hwnd].rect[:2] == (0, 0)


def test_hwnds_unique():
    world, _ = make_world()
    make_class(world, [], "C")
    h1 = world.CreateWindowExA(0, "C", "a", 0, 0, 0, 1, 1, 0, 0, 0, 0)
    h2 = world.CreateWindowExA(0, "C", "b", 0, 0, 0, 1, 1, 0, 0, 0, 0)
    assert h1 != h2 != 0


# -- timers and pump ---------------------------------------------------------------


def test_timer_fires_every_tick_at_ms_per_tick():
    assert MS_PER_TICK == 20
    world, _ = make_world()
    log = []
    make_class(world, log, "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    world.SetTimer(hwnd, 2, 20, None)
    log.clear()
    assert world.pump(5) is None
    timers = [m for m in log if m[1] == WM_TIMER]
    assert len(timers) == 5
    assert all(m[2] == 2 for m in timers)


def test_timer_period_rounds_up():
    world, _ = make_world()
    log = []
    make_class(world, log, "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    world.SetTimer(hwnd, 1, 50, None)  # ceil(50/20) = 3 ticks
    log.clear()
    world.pump(6)
    timers = [m for m in log if m[1] == WM_TIMER]
    assert len(timers) == 2


def test_kill_timer_stops_events():
    world, _ = make_world()
    log = []
    make_class(world, log, "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    world.SetTimer(hwnd, 2, 20, None)
    world.pump(2)
    assert world.KillTimer(hwnd, 2) is True
    log.clear()
    world.pump(3)
    assert [m for m in log if m[1] == WM_TIMER] == []
    assert world.KillTimer(hwnd, 2) is False


def test_set_kill_timer_churn_gives_back_the_callback():
    world, mem = make_world()
    make_class(world, [], "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    before = mem.closure_count
    for _ in range(3):
        world.SetTimer(hwnd, 2, 20, lambda ws: 0)
        assert mem.closure_count == before + 1
        assert world.KillTimer(hwnd, 2) is True
        assert mem.closure_count == before


def test_a_replaced_timer_holds_one_registration():
    world, mem = make_world()
    make_class(world, [], "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    before = mem.closure_count
    world.SetTimer(hwnd, 2, 20, lambda ws: 0)
    world.SetTimer(hwnd, 2, 20, lambda ws: 1)
    assert mem.closure_count == before + 1
    assert [mem._closure_refs[t.cb_addr] for t in world.timers.values()] == [1]
    cb = mem.addr_to_fun(world.timers[(hwnd, 2)].cb_addr)
    kept = world.timers[(hwnd, 2)].cb_addr
    world.SetTimer(hwnd, 2, 40, cb)                 # the same callable keeps its address
    assert world.timers[(hwnd, 2)].cb_addr == kept
    assert mem._closure_refs[kept] == 1
    world.SetTimer(hwnd, 2, 20, None)
    assert mem.closure_count == before


def test_post_quit_then_pump_exits():
    world, _ = make_world()
    world.PostQuitMessage(0)
    assert world.pump(10) == 0
    assert world.tick == 0


def test_pump_empty_world_counts_ticks():
    world, _ = make_world()
    assert world.pump(5) is None
    assert world.tick == 5


def test_message_enqueued_at_tick_dispatches_same_tick():
    world, _ = make_world()
    log = []
    make_class(world, log, "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)

    def chained(words):
        log.append(tuple(words))
        if words[1] == WM_MOVE and words[2] == 0:
            world.PostMessageA(hwnd, WM_MOVE, 1, 0)
        return 0

    world.classes["C"] = world.mem.fun_to_addr(chained)
    world.PostMessageA(hwnd, WM_MOVE, 0, 0)
    log.clear()
    world.pump(1)
    moves = [m for m in log if m[1] == WM_MOVE]
    assert len(moves) == 2
    assert world.tick == 1


def test_def_window_proc_returns_zero():
    world, _ = make_world()
    assert world.DefWindowProcA(5, WM_MOVE, 0, 0) == 0
    assert world.DefWindowProcA(5, WM_DESTROY, 0, 0) == 0


def test_quit_mid_drain_leaves_rest_queued():
    world, _ = make_world()
    log = []
    make_class(world, log, "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)

    def quitproc(words):
        log.append(tuple(words))
        if words[1] == WM_DESTROY:
            world.PostQuitMessage(7)
        return 0

    world.classes["C"] = world.mem.fun_to_addr(quitproc)
    world.PostMessageA(hwnd, WM_DESTROY, 0, 0)
    world.PostMessageA(hwnd, WM_MOVE, 0, 0)
    assert world.pump(5) == 7
    assert len(world.queue) == 1


def test_wndproc_error_aborts_pump_with_message():
    world, _ = make_world()

    def bad(words):
        raise ValueError("boom")

    world.RegisterClassExA({"lpszClassName": "C", "lpfnWndProc": bad, "style": 0})

    # create dispatches WM_CREATE synchronously, so the error surfaces here
    with pytest.raises(PumpError) as exc:
        world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    assert exc.value.msg.code == WM_CREATE


# -- recording -------------------------------------------------------------------


def test_gdi_handles_fresh_and_nonzero():
    world, _ = make_world()
    handles = [world.GetDC(1), world.CreateCompatibleDC(2),
               world.GetStockObject(0), world.LoadIconA(0, "#32512"),
               world.LoadCursorA(0, "#32512"), world.SelectObject(1, 2),
               world.LoadImageA(0, "smlnj.bmp", 0, 0, 0, 16)]
    assert 0 not in handles
    assert len(set(handles)) == len(handles)


def test_delete_object_zero_recorded():
    world, _ = make_world()
    assert world.DeleteObject(0) is False
    assert world.trace[-1] == "TICK 0 DRAW DeleteObject 0"


def test_line_to_trace_entry():
    world, _ = make_world()
    world.LineTo(3, 10, 20)
    assert world.trace[-1] == "TICK 0 DRAW LineTo 3 10 20"


class Level(IntEnum):
    HIGH = 3


class Tagged(int):
    def __str__(self) -> str:
        return f"tag{int(self)}"


class Opaque:
    def __repr__(self) -> str:
        return "Opaque()"


# every C0 and C1 control character but the three with a short escape
_CONTROLS = "".join(chr(c) for c in (*range(0x20), *range(0x7F, 0xA0)) if c not in (9, 10, 13))
RENDERED = [
    (True, "1"),
    (False, "0"),
    (None, "0"),
    (-7, "-7"),
    (0xFFFFFFFF, "4294967295"),
    (Level.HIGH, "3"),
    (Tagged(5), "tag5"),
    ('a\\b"c\nd\re\tf\u2028g\u2029h é', '"a\\\\b\\"c\\nd\\re\\tf\\u2028g\\u2029h é"'),
    (_CONTROLS, '"' + "".join(f"\\x{ord(c):02x}" for c in _CONTROLS) + '"'),
    ("", '""'),
    ({"x": 1, "s": "q", "b": True, "n": None}, '{x=1,s="q",b=1,n=0}'),
    ([1, True, "a", [2]], '[1,1,"a",[2]]'),
    ((2, -3), "[2,-3]"),
    ([], "[]"),
    # a record's keys take the string escapes, without quotes
    ([{"a\nTICK 9 DRAW X": 1, 'k"\\\t': 2}], '[{a\\nTICK 9 DRAW X=1,k\\"\\\\\\t=2}]'),
    (len, "<fn>"),
    (2.5, "2.5"),
    (Opaque(), "Opaque()"),
]


@pytest.mark.parametrize("value, text", RENDERED, ids=[type(v).__name__ for v, _ in RENDERED])
def test_record_renders_each_argument_kind(value, text):
    world, _ = make_world()
    world.record("Op", [value])
    world.record("Op", [1, value, False])
    assert world.trace == [f"TICK 0 DRAW Op {text}", f"TICK 0 DRAW Op 1 {text} 0"]


def test_record_of_no_arguments_ends_at_the_op():
    world, _ = make_world()
    world.record("Op", [])
    assert world.trace == ["TICK 0 DRAW Op"]


# -- dispatch fallbacks -----------------------------------------------------------


def test_dispatch_to_no_live_window_of_a_known_class_does_nothing():
    world, _ = make_world()
    log = []
    make_class(world, log, "C")
    gone = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    world.PostMessageA(gone, WM_DESTROY, 0, 0)
    world.pump(1)
    orphan = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    assert world.UnregisterClassA("C", 0) is True
    before, seen = list(world.trace), len(log)
    for hwnd in (gone, orphan, 999):     # destroyed, class unregistered, unknown
        assert world._dispatch(Msg(hwnd, WM_MOVE, 0, 0, world.tick)) is None
    assert world.trace == before
    assert len(log) == seen


def test_dispatch_through_a_dropped_closure_is_not_callable():
    world, mem = make_world()
    make_class(world, [], "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    mem.close()
    with pytest.raises(NotCallable) as info:
        world._dispatch(Msg(hwnd, WM_MOVE, 0, 0, world.tick))
    assert str(info.value) == "address 0x8000000 is not a registered closure"


def test_a_nested_pump_error_is_not_wrapped_again():
    world, _ = make_world()

    def bad(words):
        raise ValueError("boom")

    def outer(words):
        if words[1] == WM_MOVE:
            world.CreateWindowExA(0, "Bad", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
        return 0

    world.RegisterClassExA({"lpszClassName": "Bad", "lpfnWndProc": bad, "style": 0})
    world.RegisterClassExA({"lpszClassName": "Outer", "lpfnWndProc": outer, "style": 0})
    hwnd = world.CreateWindowExA(0, "Outer", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    world.PostMessageA(hwnd, WM_MOVE, 0, 0)
    with pytest.raises(PumpError) as info:
        world.pump(1)
    assert info.value.msg.code == WM_CREATE and info.value.msg.hwnd != hwnd
    assert isinstance(info.value.cause, ValueError)
    assert str(info.value) == f"wndproc failed on {info.value.msg}: boom"


def test_register_class_with_a_wndproc_that_is_not_callable_returns_zero():
    world, _ = make_world()
    assert world.RegisterClassExA({"lpszClassName": "C", "lpfnWndProc": 5, "style": 0}) == 0
    assert world.classes == {}
    assert world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0) == 0


def test_trace_line_shapes():
    world, _ = make_world()
    log = []
    make_class(world, log, "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 20, 10, 0, 0, 0, 0)
    world.LoadIconA(0, "#32512")
    msg_lines = [l for l in world.trace if " MSG " in l]
    draw_lines = [l for l in world.trace if " DRAW " in l]
    assert msg_lines[0] == f"TICK 0 MSG {hwnd} 1 0 0"
    assert msg_lines[1] == f"TICK 0 MSG {hwnd} 5 0 {(10 << 16) | 20}"
    assert draw_lines[-1] == 'TICK 0 DRAW LoadIconA 0 "#32512"'


def test_determinism_identical_worlds():
    def run():
        world, _ = make_world()
        log = []
        make_class(world, log, "C")
        hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 50, 40, 0, 0, 0, 0)
        world.SetTimer(hwnd, 1, 20, None)
        world.pump(10)
        world.PostMessageA(hwnd, WM_DESTROY, 0, 0)
        world.pump(1)
        return world.trace

    assert run() == run()


def test_lifecycle_ordering():
    world, _ = make_world()
    log = []
    make_class(world, log, "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    world.SetTimer(hwnd, 1, 20, None)
    world.pump(3)
    world.PostMessageA(hwnd, WM_DESTROY, 0, 0)
    world.pump(1)
    codes = [m[1] for m in log]
    assert codes[0] == WM_CREATE
    assert codes[1] == WM_SIZE
    assert set(codes[2:-1]) <= {WM_TIMER}
    assert codes[-1] == WM_DESTROY
    assert world.windows[hwnd].destroyed


def test_begin_end_paint():
    world, _ = make_world()
    log = []
    make_class(world, log, "C")
    hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 30, 20, 0, 0, 0, 0)
    ps, hdc = world.BeginPaint(hwnd)
    assert ps["hdc"] == hdc
    assert ps["rcPaint"] == {"left": 0, "top": 0, "right": 30, "bottom": 20}
    assert world.EndPaint(hwnd, ps) is True
    assert "EndPaint" in world.trace[-1]
