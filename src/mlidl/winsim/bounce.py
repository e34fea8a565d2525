"""Bouncing-logo demo.

The program talks to the simulated window system exclusively through the
compiled binding: its wndproc and window setup call bound user32/gdi32
operations, which cross the word-level ABI into the simulation.  The logo
bitmap's blit box is 158x131; each timer event moves the center by the move
rate on both axes and reflects an axis when the ball's bounding radius
touches the client edge.

The message handler is a pure step function over an explicit state value,
runnable either as a plain closure over a state cell or threaded through
the queue-backed wndproc adapter; both produce identical traces.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from mlidl.binding.model import BindingDesc
from mlidl.marshal import BoundInterface
from mlidl.winsim.adapter import wndproc_queue_adapter
from mlidl.winsim.api import install_libraries
from mlidl.winsim.util import hi_word, lo_word, util_or
from mlidl.winsim.world import SimWorld, WM_CREATE, WM_DESTROY, WM_SIZE, WM_TIMER
from mlidl.wordmem import Mem

APP_NAME = "BouncingSMLNJ"
WINDOW_TITLE = "Bouncing SML/NJ"
BALL_TIMER = 2
MOVE_RATE = 10
TIMER_RATE = 20
LOGO_NAME = "smlnj.bmp"
LOGO_W = 158
LOGO_H = 131


class DemoError(Exception):
    """The demo cannot run to its end: a constant its program names is not
    declared, its window is not created, or it never reaches the quit
    message; or it ends with a DC or bitmap it never gave back."""


class BounceState(NamedTuple):
    hbitmap: int = 0
    cxclient: int = 0
    cyclient: int = 0
    xcenter: int = 0
    ycenter: int = 0
    cxtotal: int = 0
    cytotal: int = 0
    cxradius: int = 0
    cyradius: int = 0
    cxmove: int = 0
    cymove: int = 0


class BounceDemo:
    def __init__(self, mem: Optional[Mem] = None, width: int = 500,
                 height: int = 300, adapter: bool = False) -> None:
        self.mem = mem if mem is not None else Mem()
        self.world = SimWorld(self.mem)
        self.desc: BindingDesc = install_libraries(self.world)
        self.user = BoundInterface(self.desc, "User", self.mem)
        self.gdi = BoundInterface(self.desc, "Gdi", self.mem)
        self.opts = self.desc.enum("OPTS")
        self.consts = self.desc.enum("CONSTS")
        self.srccopy = self.consts.to_int("SRCCOPY")    # every tick's raster op
        self.width = width
        self.height = height
        self.adapter = adapter
        self.worker = None

    def _const(self, name: str) -> str:
        for c in self.desc.consts:
            if c.name == name:
                return str(c.value)
        raise DemoError(f"the simulated API declares no const {name!r}")

    # -- message handling -------------------------------------------------------

    def handle(self, state: BounceState,
               msg: tuple[int, int, int, int]) -> tuple[BounceState, int]:
        hwnd, code, wparam, lparam = msg
        if code == WM_CREATE:
            return self._create(state, hwnd)
        if code == WM_SIZE:
            return self._size(state, hwnd, lo_word(lparam), hi_word(lparam))
        if code == WM_DESTROY:
            return self._destroy(state, hwnd)
        if code == WM_TIMER:
            if wparam == BALL_TIMER:
                return self._timer_ball(state, hwnd)
            return state, 0
        return state, self.user.DefWindowProcA(hwnd, code, wparam, lparam)

    def _create(self, state: BounceState, hwnd: int) -> tuple[BounceState, int]:
        hdc = self.user.GetDC(hwnd)
        self.user.ReleaseDC(hwnd, hdc)
        self.user.SetTimer(hwnd, BALL_TIMER, TIMER_RATE, None)
        return state, 0

    def _size(self, state: BounceState, hwnd: int, xsize: int,
              ysize: int) -> tuple[BounceState, int]:
        if state.hbitmap != 0:
            self.gdi.DeleteObject(state.hbitmap)
        hbitmap = self.user.LoadImageA(
            0, LOGO_NAME, self.consts.to_int("IMAGE_BITMAP"), 0, 0,
            util_or([self.opts.to_int("LR_LOADFROMFILE")]))
        state = state._replace(
            cxclient=xsize, cyclient=ysize,
            xcenter=xsize // 2, ycenter=ysize // 2,
            cxmove=MOVE_RATE, cymove=MOVE_RATE,
            cxtotal=LOGO_W, cytotal=LOGO_H,
            cxradius=118 // 2, cyradius=90 // 2,
            hbitmap=hbitmap,
        )
        return state, 0

    def _timer_ball(self, state: BounceState, hwnd: int) -> tuple[BounceState, int]:
        if state.hbitmap == 0:
            return state, 0
        hdc = self.user.GetDC(hwnd)
        hdcmem = self.gdi.CreateCompatibleDC(hdc)
        self.gdi.SelectObject(hdcmem, state.hbitmap)
        self.gdi.BitBlt(hdc,
                        state.xcenter - state.cxtotal // 2,
                        state.ycenter - state.cytotal // 2,
                        state.cxtotal, state.cytotal,
                        hdcmem, 0, 0, self.srccopy)
        self.user.ReleaseDC(hwnd, hdc)
        self.gdi.DeleteDC(hdcmem)
        xcenter = state.xcenter + state.cxmove
        ycenter = state.ycenter + state.cymove
        cxmove = state.cxmove
        cymove = state.cymove
        if xcenter + state.cxradius >= state.cxclient or \
                xcenter - state.cxradius <= 0:
            cxmove = -cxmove
        if ycenter + state.cyradius >= state.cyclient or \
                ycenter - state.cyradius <= 0:
            cymove = -cymove
        return BounceState(state.hbitmap, state.cxclient, state.cyclient,
                           xcenter, ycenter, state.cxtotal, state.cytotal,
                           state.cxradius, state.cyradius, cxmove, cymove), 0

    def _destroy(self, state: BounceState, hwnd: int) -> tuple[BounceState, int]:
        self.user.KillTimer(hwnd, BALL_TIMER)
        if state.hbitmap != 0:
            self.gdi.DeleteObject(state.hbitmap)
        self.user.PostQuitMessage(0)
        return state, 0

    # -- program ---------------------------------------------------------------

    def _make_wndproc(self):
        if self.adapter:
            wndproc, self.worker = wndproc_queue_adapter(self.handle, BounceState())
            self.worker.start()
            return wndproc
        cell = [BounceState()]

        def wndproc(words: list[int]) -> int:
            cell[0], ret = self.handle(cell[0], tuple(words))
            return ret

        return wndproc

    def run(self, ticks: int = 500) -> int:
        user, gdi, world = self.user, self.gdi, self.world
        hinstance = 0
        try:
            wndproc = self._make_wndproc()
            hicon = user.LoadIconA(0, self._const("IDI_APPLICATION"))
            hcursor = user.LoadCursorA(0, self._const("IDC_ARROW"))
            hbrush = gdi.GetStockObject(self.consts.to_int("WHITE_BRUSH"))
            wndclassex = {
                "cbSize": 48,
                "style": util_or([self.opts.to_int("CS_HREDRAW"),
                                  self.opts.to_int("CS_VREDRAW")]),
                "lpfnWndProc": wndproc,
                "cbClsExtra": 0,
                "cbWndExtra": 0,
                "hInstance": hinstance,
                "hIcon": hicon,
                "hCursor": hcursor,
                "hbrBackground": hbrush,
                "lpszMenuName": "",
                "lpszClassName": APP_NAME,
                "hIconSm": hicon,
            }
            user.RegisterClassExA(wndclassex)
            hwnd = user.CreateWindowExA(
                0, APP_NAME, WINDOW_TITLE,
                util_or([self.opts.to_int("WS_OVERLAPPEDWINDOW")]),
                util_or([self.opts.to_int("CW_USEDEFAULT")]),
                util_or([self.opts.to_int("CW_USEDEFAULT")]),
                self.width, self.height, 0, 0, hinstance, 0)
            if hwnd == 0:
                raise DemoError("window creation failed")
            user.ShowWindow(hwnd, 1)
            user.UpdateWindow(hwnd)
            user.SetForegroundWindow(hwnd)
            code = world.pump(ticks)
            if code is None:
                user.PostMessageA(hwnd, WM_DESTROY, 0, 0)
                code = world.pump(4)
            user.UnregisterClassA(APP_NAME, hinstance)
            if code is None:
                raise DemoError("demo did not reach the quit message")
            if world.gdi_live:
                raise DemoError("demo left GDI handles live: " + ", ".join(
                    f"{kind} {h}" for h, kind in world.gdi_live.items()))
            return code
        finally:
            # the worker's handler and the registered wndproc and stubs
            # refer back to this demo and its world; dropping them frees a
            # finished demo without the cycle collector
            if self.worker is not None:
                self.worker.stop()
                self.worker = None
            self.mem.close()
