"""The simulated window system.

One SimWorld holds the class registry, windows, a FIFO message queue, the
timer table and an append-only trace.  Time is a discrete tick counter;
every tick the pump fires due timers and then drains the queue, dispatching
each message to its window's wndproc through the closure registry.  GDI and
the other painting-adjacent calls never fail: they append a trace entry and
hand out fresh opaque handles.

A class holds one closure registration of its wndproc, and a timer one of
its callback; `UnregisterClassA`, `KillTimer` and a `SetTimer` that replaces
a timer give theirs back, so a world in use keeps only what is still set.

Each simulated call is a method named as its operation in win32sim.idl.

Trace lines, one event per line (the golden-test artifact):

    TICK <n> MSG <hwnd> <code> <wparam> <lparam>
    TICK <n> DRAW <op> <args...>

A string argument is written between double quotes.  A backslash, a double
quote, and each control or line-separator character in it is written as a
backslash escape, so no argument can end its line or its quotes early; all
other text is written as it is.  A record's keys are written with the same
escapes, without quotes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Optional

from mlidl.wordmem import WORD_MASK, Mem, word

WM_NULL = 0x0
WM_CREATE = 0x1
WM_DESTROY = 0x2
WM_MOVE = 0x3
WM_SIZE = 0x5
WM_SETFOCUS = 0x7
WM_PAINT = 0xF
WM_TIMER = 0x113

CW_USEDEFAULT = 0x80000000

MS_PER_TICK = 20


class PumpError(Exception):
    """A wndproc failed; carries the message being dispatched."""

    def __init__(self, msg: "Msg", cause: BaseException) -> None:
        super().__init__(f"wndproc failed on {msg}: {cause}")
        self.msg = msg
        self.cause = cause


@dataclass
class Window:
    class_name: str
    rect: tuple[int, int, int, int]    # x, y, w, h
    destroyed: bool = False


class Msg(NamedTuple):
    hwnd: int
    code: int
    wparam: int
    lparam: int
    tick: int


@dataclass
class Timer:
    hwnd: int
    timer_id: int
    period: int        # ticks
    start_tick: int
    cb_addr: int = 0


# the backslash, the quote, every Cc character, and the two separators that
# str.splitlines also breaks at
_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}
_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n",
                 ord("\r"): "\\r", ord("\t"): "\\t",
                 0x2028: "\\u2028", 0x2029: "\\u2029"})


def _render_arg(v: Any) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if v is None:
        return "0"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return f'"{v.translate(_ESCAPES)}"'
    if isinstance(v, dict):
        inner = ",".join(f"{str(k).translate(_ESCAPES)}={_render_arg(x)}"
                         for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_render_arg(x) for x in v) + "]"
    if callable(v):
        return "<fn>"
    return repr(v)


class SimWorld:
    """Deterministic window-system state over one memory world."""

    def __init__(self, mem: Mem) -> None:
        self.mem = mem
        self.classes: dict[str, int] = {}    # class name -> wndproc address
        self.windows: dict[int, Window] = {}
        self.queue: deque[Msg] = deque()
        self.timers: dict[tuple[int, int], Timer] = {}
        self.tick = 0
        self.trace: list[str] = []
        self.quit_code: Optional[int] = None
        self._next_handle = 1

    # -- plumbing ---------------------------------------------------------------

    def fresh_handle(self) -> int:
        h = self._next_handle
        self._next_handle += 1
        return h

    def record(self, op: str, args: list[Any]) -> None:
        parts = [f"TICK {self.tick} DRAW {op}"]
        for a in args:
            parts.append(str(a) if type(a) is int else _render_arg(a))
        self.trace.append(" ".join(parts).rstrip())

    def gdi_record(self, op: str, args: list[Any]) -> int:
        """Record a never-failing call that returns a fresh nonzero handle."""
        self.record(op, args)
        h = self._next_handle
        self._next_handle += 1
        return h

    def trace_text(self) -> str:
        return "\n".join(self.trace) + ("\n" if self.trace else "")

    def _dispatch(self, msg: Msg) -> Optional[int]:
        window = self.windows.get(msg.hwnd)
        if window is None or window.destroyed:
            return None
        wndproc_addr = self.classes.get(window.class_name)
        if wndproc_addr is None:
            return None
        wparam, lparam = msg.wparam & WORD_MASK, msg.lparam & WORD_MASK
        self.trace.append(
            f"TICK {self.tick} MSG {msg.hwnd} {msg.code} {wparam} {lparam}")
        fn = self.mem._closures[wndproc_addr]     # a stale address is NotCallable
        try:
            ret = fn([msg.hwnd & WORD_MASK, msg.code & WORD_MASK, wparam, lparam])
        except PumpError:
            raise
        except BaseException as exc:
            raise PumpError(msg, exc) from exc
        if msg.code == WM_DESTROY:
            window.destroyed = True
        return ret

    # -- classes and windows --------------------------------------------------

    def RegisterClassExA(self, wndclass: Mapping[str, Any]) -> int:
        name = wndclass["lpszClassName"]
        if name in self.classes:
            return 0
        wndproc = wndclass["lpfnWndProc"]
        if not callable(wndproc):
            return 0
        atom = self.fresh_handle()
        self.classes[name] = self.mem.fun_to_addr(wndproc)
        return atom

    def UnregisterClassA(self, class_name: str, hinstance: int) -> bool:
        wndproc_addr = self.classes.pop(class_name, None)
        if wndproc_addr is None:
            return False
        self.mem.release_closure(wndproc_addr)
        return True

    def CreateWindowExA(self, exstyle: int, classname: str, windowname: str,
                        style: int, x: int, y: int, w: int, h: int,
                        parent: int, menu: int, hinstance: int,
                        param: int) -> int:
        if classname not in self.classes:
            return 0
        if word(x) == CW_USEDEFAULT:
            x = 0
        if word(y) == CW_USEDEFAULT:
            y = 0
        hwnd = self.fresh_handle()
        self.windows[hwnd] = Window(classname, (x, y, w, h))
        self._dispatch(Msg(hwnd, WM_CREATE, 0, 0, self.tick))
        size_lparam = ((word(h) & 0xFFFF) << 16) | (word(w) & 0xFFFF)
        self._dispatch(Msg(hwnd, WM_SIZE, 0, size_lparam, self.tick))
        return hwnd

    # -- timers, queue, loop ------------------------------------------------------

    def SetTimer(self, hwnd: int, timer_id: int, period_ms: int,
                 cb: Any = None) -> int:
        period = max(1, -(-int(period_ms) // MS_PER_TICK))
        cb_addr = self.mem.fun_to_addr(cb) if callable(cb) else 0
        # a timer set again replaces the old one, whose registration goes
        # after the new one is made: the same callable keeps its address
        old = self.timers.get((hwnd, timer_id))
        self.timers[(hwnd, timer_id)] = Timer(
            hwnd=hwnd, timer_id=timer_id, period=period,
            start_tick=self.tick, cb_addr=cb_addr)
        if old is not None and old.cb_addr:
            self.mem.release_closure(old.cb_addr)
        self.record("SetTimer", [hwnd, timer_id, period_ms, cb_addr])
        return timer_id

    def KillTimer(self, hwnd: int, timer_id: int) -> bool:
        timer = self.timers.pop((hwnd, timer_id), None)
        if timer is not None and timer.cb_addr:
            self.mem.release_closure(timer.cb_addr)
        self.record("KillTimer", [hwnd, timer_id])
        return timer is not None

    def PostMessageA(self, hwnd: int, code: int, wparam: int,
                     lparam: int) -> bool:
        self.queue.append(Msg(hwnd, code, wparam, lparam, self.tick))
        return True

    def PostQuitMessage(self, code: int) -> None:
        self.quit_code = int(code)
        self.record("PostQuitMessage", [code])

    def DefWindowProcA(self, hwnd: int, code: int, wparam: int,
                       lparam: int) -> int:
        if code == WM_DESTROY:
            window = self.windows.get(hwnd)
            if window is not None:
                window.destroyed = True
        self.record("DefWindowProcA", [hwnd, code, wparam, lparam])
        return 0

    def pump(self, max_ticks: int) -> Optional[int]:
        """Run up to `max_ticks` ticks; stop early when the quit flag is set.

        Per tick: fire due timers (registration order), then drain the queue,
        dispatching each message; a message enqueued during the drain is
        delivered in the same tick.
        """
        for _ in range(max_ticks):
            if self.quit_code is not None:
                return self.quit_code
            self.tick += 1
            for timer in list(self.timers.values()):
                elapsed = self.tick - timer.start_tick
                if elapsed > 0 and elapsed % timer.period == 0:
                    self.queue.append(Msg(timer.hwnd, WM_TIMER, timer.timer_id,
                                          timer.cb_addr, self.tick))
            while self.queue:
                self._dispatch(self.queue.popleft())
                if self.quit_code is not None:
                    return self.quit_code
        return self.quit_code

    # -- trace-only user calls ----------------------------------------------------

    def ShowWindow(self, hwnd: int, cmdshow: int) -> bool:
        self.record("ShowWindow", [hwnd, cmdshow])
        return True

    def UpdateWindow(self, hwnd: int) -> bool:
        self.record("UpdateWindow", [hwnd])
        return True

    def SetForegroundWindow(self, hwnd: int) -> bool:
        self.record("SetForegroundWindow", [hwnd])
        return True

    def BeginPaint(self, hwnd: int) -> tuple[dict[str, Any], int]:
        window = self.windows.get(hwnd)
        w, h = (window.rect[2], window.rect[3]) if window else (0, 0)
        hdc = self.gdi_record("BeginPaint", [hwnd])
        ps = {"hdc": hdc, "fErase": False,
              "rcPaint": {"left": 0, "top": 0, "right": w, "bottom": h}}
        return ps, hdc

    def EndPaint(self, hwnd: int, ps: dict[str, Any]) -> bool:
        self.record("EndPaint", [hwnd, ps])
        return True

    def LoadIconA(self, h: int, name: str) -> int:
        return self.gdi_record("LoadIconA", [h, name])

    def LoadCursorA(self, h: int, name: str) -> int:
        return self.gdi_record("LoadCursorA", [h, name])

    def LoadImageA(self, h: int, name: str, image_type: int, cx: int, cy: int,
                   load_flags: int) -> int:
        return self.gdi_record("LoadImageA", [h, name, image_type, cx, cy, load_flags])

    def GetDC(self, hwnd: int) -> int:
        return self.gdi_record("GetDC", [hwnd])

    def ReleaseDC(self, hwnd: int, hdc: int) -> int:
        self.record("ReleaseDC", [hwnd, hdc])
        return 1

    # -- gdi ----------------------------------------------------------------------

    def LineTo(self, hdc: int, x: int, y: int) -> bool:
        self.record("LineTo", [hdc, x, y])
        return True

    def PolyLineTo(self, hdc: int, points: list, count: int) -> bool:
        self.record("PolyLineTo", [hdc, points, count])
        return True

    def CreateCompatibleDC(self, hdc: int) -> int:
        return self.gdi_record("CreateCompatibleDC", [hdc])

    def SelectObject(self, hdc: int, handle: int) -> int:
        return self.gdi_record("SelectObject", [hdc, handle])

    def BitBlt(self, hdc_dest: int, x: int, y: int, w: int, h: int,
               hdc_src: int, x_src: int, y_src: int, rop: int) -> bool:
        self.record("BitBlt", [hdc_dest, x, y, w, h, hdc_src, x_src, y_src, rop])
        return True

    def DeleteObject(self, handle: int) -> bool:
        self.record("DeleteObject", [handle])
        return handle != 0

    def DeleteDC(self, hdc: int) -> bool:
        self.record("DeleteDC", [hdc])
        return True

    def GetStockObject(self, index: int) -> int:
        return self.gdi_record("GetStockObject", [index])
