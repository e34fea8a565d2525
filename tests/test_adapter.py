from __future__ import annotations

import threading

import pytest

from mlidl.winsim import AdapterError, SimWorld, wndproc_queue_adapter
from mlidl.wordmem import Mem


def test_state_threads_through_messages():
    def handler(count, msg):
        return count + 1, count + 1

    wndproc, worker = wndproc_queue_adapter(handler, 0)
    worker.start()
    try:
        for i in range(1, 11):
            assert wndproc([1, 2, 3, 4]) == i
        assert worker.state == 10
        assert worker.messages_handled == 10
    finally:
        worker.stop()


def test_reply_equals_handler_return_word():
    def handler(state, msg):
        hwnd, code, wparam, lparam = msg
        return state, (code + wparam) & 0xFFFFFFFF

    wndproc, worker = wndproc_queue_adapter(handler, None)
    worker.start()
    try:
        assert wndproc([1, 5, 7, 0]) == 12
        assert wndproc([1, 0xFFFFFFFF, 1, 0]) == 0
    finally:
        worker.stop()


def test_worker_failure_propagates_to_caller():
    def handler(state, msg):
        if msg[1] == 13:
            raise RuntimeError("unlucky")
        return state, 0

    wndproc, worker = wndproc_queue_adapter(handler, None)
    worker.start()
    try:
        assert wndproc([1, 1, 0, 0]) == 0
        with pytest.raises(AdapterError):
            wndproc([1, 13, 0, 0])
        # the worker survives and keeps serving
        assert wndproc([1, 2, 0, 0]) == 0
    finally:
        worker.stop()


def test_wndproc_requires_four_words():
    wndproc, worker = wndproc_queue_adapter(lambda s, m: (s, 0), None)
    worker.start()
    try:
        with pytest.raises(AdapterError):
            wndproc([1, 2, 3])
    finally:
        worker.stop()


def _call_in_thread(wndproc):
    """What wndproc([1, 2, 3, 4]) returned or raised, or None if it never
    returned."""
    outcome = []

    def call():
        try:
            outcome.append(wndproc([1, 2, 3, 4]))
        except Exception as exc:
            outcome.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=5)
    return outcome[0] if outcome else None


def test_wndproc_refuses_when_worker_not_running():
    wndproc, worker = wndproc_queue_adapter(lambda s, m: (s, 0), None)
    assert isinstance(_call_in_thread(wndproc), AdapterError)   # not started
    worker.start()
    assert _call_in_thread(wndproc) == 0
    worker.stop()
    assert isinstance(_call_in_thread(wndproc), AdapterError)   # stopped
    assert worker.messages_handled == 1


def test_adapter_trace_equals_direct_trace():
    def run(use_adapter):
        mem = Mem()
        world = SimWorld(mem)

        def step(state, msg):
            hwnd, code, wparam, lparam = msg
            world.LineTo(1, state, code)
            return state + 1, 0

        if use_adapter:
            wndproc, worker = wndproc_queue_adapter(step, 0)
            worker.start()
        else:
            cell = [0]

            def wndproc(words):
                cell[0], ret = step(cell[0], tuple(words))
                return ret

            worker = None
        world.RegisterClassExA(
            {"lpszClassName": "C", "lpfnWndProc": wndproc, "style": 0})
        hwnd = world.CreateWindowExA(0, "C", "T", 0, 0, 0, 10, 10, 0, 0, 0, 0)
        world.SetTimer(hwnd, 1, 20, None)
        world.pump(5)
        if worker is not None:
            worker.stop()
        return world.trace

    assert run(True) == run(False)
