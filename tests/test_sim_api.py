from __future__ import annotations

import pytest

from conftest import read_idl
from mlidl.binding import build_binding, emit_binding_file, load_binding_file
from mlidl.idl import parse_text
from mlidl.marshal import BoundInterface, MarshalError, bind
from mlidl.winsim.api import install_libraries, sim_binding, sim_idl_text
from mlidl.winsim.world import (
    Msg,
    PumpError,
    SimWorld,
    WM_CREATE,
    WM_DESTROY,
    WM_PAINT,
    WM_SIZE,
    WM_TIMER,
)
from mlidl.wordmem import Mem, UnknownSymbol


def test_packaged_corpus_parses_and_builds():
    desc = sim_binding()
    assert desc.module == "W32"
    user = desc.interface("User")
    gdi = desc.interface("Gdi")
    assert {op.name for op in user.ops} >= {
        "RegisterClassExA", "CreateWindowExA", "SetTimer", "KillTimer",
        "PostQuitMessage", "PostMessageA", "DefWindowProcA", "GetDC",
        "ReleaseDC", "LoadImageA", "SetForegroundWindow",
    }
    assert {op.name for op in gdi.ops} >= {
        "CreateCompatibleDC", "SelectObject", "BitBlt", "DeleteObject",
        "DeleteDC", "GetStockObject",
    }
    assert desc.enum("OPTS").to_int("WS_OVERLAPPEDWINDOW") == 0xCF0000
    assert desc.enum("CONSTS").to_int("SRCCOPY") == 0xCC0020
    assert desc.enum("OPTS").to_int("LR_LOADFROMFILE") == 0x10


def test_packaged_corpus_is_a_superset_of_the_golden_corpus():
    text = sim_idl_text()
    for op in ("RegisterClassExA", "UnregisterClassA", "CreateWindowExA",
               "ShowWindow", "UpdateWindow", "BeginPaint", "EndPaint",
               "LoadIconA", "LineTo", "PolyLineTo"):
        assert op in text and op in read_idl("win32.idl")


def test_every_op_has_a_simulation_implementation():
    mem = Mem()
    world = SimWorld(mem)
    desc = install_libraries(world)
    for iface in desc.interfaces:
        lib = mem.open_library(iface.source)
        for op in iface.ops:
            assert mem.get_symbol(lib, op.name).addr


def test_an_op_the_simulation_lacks_is_a_marshal_error():
    class Partial(SimWorld):
        BitBlt = None

    with pytest.raises(MarshalError) as info:
        install_libraries(Partial(Mem()))
    assert str(info.value) == "simulation has no implementation for Gdi.BitBlt"


def test_begin_paint_through_the_full_pipeline():
    mem = Mem()
    world = SimWorld(mem)
    desc = install_libraries(world)
    user = BoundInterface(desc, "User", mem)

    user.RegisterClassExA({
        "cbSize": 48, "style": 0, "lpfnWndProc": (lambda ws: 0),
        "cbClsExtra": 0, "cbWndExtra": 0, "hInstance": 0, "hIcon": 0,
        "hCursor": 0, "hbrBackground": 0, "lpszMenuName": "",
        "lpszClassName": "P", "hIconSm": 0})
    hwnd = user.CreateWindowExA(0, "P", "t", 0, 0, 0, 320, 200, 0, 0, 0, 0)
    before = mem.live_count
    ps, hdc = user.BeginPaint(hwnd)
    assert ps["hdc"] == hdc
    assert ps["fErase"] is False
    assert ps["rcPaint"] == {"left": 0, "top": 0, "right": 320, "bottom": 200}
    assert user.EndPaint(hwnd, ps) is True
    assert mem.live_count == before


def test_poly_line_to_through_the_full_pipeline():
    mem = Mem()
    world = SimWorld(mem)
    desc = install_libraries(world)
    gdi = BoundInterface(desc, "Gdi", mem)
    pts = [{"x": 1, "y": 2}, {"x": 3, "y": 4}, {"x": 5, "y": 6}]
    assert gdi.PolyLineTo(7, pts, 3) is True
    assert world.trace[-1] == \
        "TICK 0 DRAW PolyLineTo 7 [{x=1,y=2},{x=3,y=4},{x=5,y=6}] 3"


def test_string_arguments_cannot_forge_trace_lines():
    mem = Mem()
    world = SimWorld(mem)
    user = BoundInterface(install_libraries(world), "User", mem)
    user.LoadIconA(0, "x\nTICK 0 MSG 1 2 3 4")
    user.LoadCursorA(0, 'q"\\ \t\x01\x7f\u2028 é')
    assert world.trace_text().count("\n") == len(world.trace) == 2
    assert world.trace == [
        'TICK 0 DRAW LoadIconA 0 "x\\nTICK 0 MSG 1 2 3 4"',
        'TICK 0 DRAW LoadCursorA 0 "q\\"\\\\ \\t\\x01\\x7f\\u2028 é"',
    ]


def test_timer_callback_address_carried_in_lparam():
    mem = Mem()
    world = SimWorld(mem)
    seen = []

    def wndproc(words):
        seen.append(tuple(words))
        return 0

    world.RegisterClassExA({"lpszClassName": "C", "lpfnWndProc": wndproc,
                            "style": 0})
    hwnd = world.CreateWindowExA(0, "C", "t", 0, 0, 0, 9, 9, 0, 0, 0, 0)
    tick_cb = lambda ws: 0  # noqa: E731
    world.SetTimer(hwnd, 3, 20, tick_cb)
    cb_addr = mem.fun_to_addr(tick_cb)
    world.pump(1)
    timers = [m for m in seen if m[1] == WM_TIMER]
    assert timers == [(hwnd, WM_TIMER, 3, cb_addr)]


def test_unknown_symbol_surfaces_from_binder():
    mem = Mem()
    mem.register_library("user32.dll")
    desc = sim_binding()
    with pytest.raises(UnknownSymbol):
        BoundInterface(desc, "User", mem)


def _painting_world(wndproc):
    mem = Mem()
    world = SimWorld(mem)
    desc = install_libraries(world)
    user, gdi = BoundInterface(desc, "User", mem), BoundInterface(desc, "Gdi", mem)
    start = mem.live_count
    user.RegisterClassExA({
        "cbSize": 48, "style": 0, "lpfnWndProc": wndproc,
        "cbClsExtra": 0, "cbWndExtra": 0, "hInstance": 0, "hIcon": 0,
        "hCursor": 0, "hbrBackground": 0, "lpszMenuName": "",
        "lpszClassName": "P", "hIconSm": 0})
    hwnd = user.CreateWindowExA(0, "P", "t", 0, 5, 6, 64, 32, 0, 0, 0, 0)
    return mem, world, user, gdi, hwnd, start


def test_paint_calls_render_records_and_arrays_in_their_trace_lines():
    mem, world, user, gdi, hwnd, start = _painting_world(lambda ws: 0)
    ps, hdc = user.BeginPaint(hwnd)
    assert (hwnd, hdc) == (2, 3)        # the class atom took handle 1
    assert ps == {"hdc": 3, "fErase": False,
                  "rcPaint": {"left": 0, "top": 0, "right": 64, "bottom": 32}}
    assert user.EndPaint(hwnd, ps) is True
    assert gdi.PolyLineTo(hdc, [{"x": 1, "y": 2}, {"x": -3, "y": 4}], 2) is True
    assert world.trace[-3:] == [
        "TICK 0 DRAW BeginPaint 2",
        "TICK 0 DRAW EndPaint 2 {hdc=3,fErase=0,rcPaint={left=0,top=0,right=64,bottom=32}}",
        "TICK 0 DRAW PolyLineTo 3 [{x=1,y=2},{x=-3,y=4}] 2",
    ]
    assert mem.live_count == start


def test_a_wndproc_that_raises_surfaces_as_a_pump_error():
    boom = RuntimeError("boom")

    def wndproc(words):
        if words[1] == WM_PAINT:
            raise boom
        return 0

    mem, world, user, _, hwnd, start = _painting_world(wndproc)
    assert user.PostMessageA(hwnd, WM_PAINT, 7, 8) is True
    with pytest.raises(PumpError) as info:
        world.pump(1)
    assert info.value.msg == Msg(hwnd, WM_PAINT, 7, 8, 0)
    assert info.value.cause is boom and info.value.__cause__ is boom
    assert str(info.value) == f"wndproc failed on {info.value.msg}: boom"
    assert mem.live_count == start


def test_def_window_proc_destroys_the_window():
    seen = []
    mem, world, user, _, hwnd, start = _painting_world(
        lambda ws: seen.append(ws[1]) or 0)
    assert user.DefWindowProcA(hwnd, WM_DESTROY, 0, 0) == 0
    assert world.windows[hwnd].destroyed
    assert world.trace[-1] == f"TICK 0 DRAW DefWindowProcA {hwnd} {WM_DESTROY} 0 0"
    user.PostMessageA(hwnd, WM_PAINT, 0, 0)
    world.pump(1)
    assert seen == [WM_CREATE, WM_SIZE]     # nothing reaches a destroyed window
    assert mem.live_count == start


def _win32_session(user, gdi, wndproc):
    """Every operation of idl/win32.idl once, in an order that makes each
    meaningful; each call's result in order."""
    results = [user.RegisterClassExA({
        "cbSize": 48, "style": 3, "lpfnWndProc": wndproc,
        "cbClsExtra": 0, "cbWndExtra": 0, "hInstance": 0, "hIcon": 0,
        "hCursor": 0, "hbrBackground": 0, "lpszMenuName": "",
        "lpszClassName": "W", "hIconSm": 0})]
    hwnd = user.CreateWindowExA(0, "W", "title", 0x10000000, 5, 6, 64, 32, 0, 0, 0, 0)
    results += [hwnd, user.ShowWindow(hwnd, 1), user.UpdateWindow(hwnd)]
    ps, hdc = user.BeginPaint(hwnd)
    results += [ps, hdc, user.EndPaint(hwnd, ps), user.LoadIconA(0, "#32512"),
                gdi.LineTo(hdc, 10, -20),
                gdi.PolyLineTo(hdc, [{"x": 1, "y": 2}, {"x": -3, "y": 4}], 2),
                user.UnregisterClassA("W", 0)]
    return results


def test_the_paper_idl_binds_and_calls_the_simulated_libraries():
    # the paper's pipeline, end to end: compile idl/win32.idl, emit its binding
    # file, load it back, bind it to the simulated user32 and gdi32, and call
    # each of its ten operations; each must do what a direct call does
    built = build_binding(parse_text(read_idl("win32.idl"), "win32.idl"), "dynamic", "auto")
    desc = load_binding_file(emit_binding_file(built))
    assert sum(len(i.ops) for i in desc.interfaces) == 10
    mem = Mem()
    world = SimWorld(mem)
    install_libraries(world)
    bound = bind(desc, mem)
    start = mem.live_count
    seen = []
    got = _win32_session(bound["User"], bound["Gdi"],
                         lambda ws: seen.append(tuple(ws)) or 0)

    direct = SimWorld(Mem())
    direct_seen = []
    want = _win32_session(direct, direct,
                          lambda ws: direct_seen.append(tuple(ws)) or 0)
    assert got == want
    assert world.trace == direct.trace and len(world.trace) == 9
    assert seen == direct_seen and len(seen) == 2       # WM_CREATE and WM_SIZE
    assert mem.live_count == start
