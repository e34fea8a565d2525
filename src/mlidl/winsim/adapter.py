"""Queue-backed wndproc: state threading instead of mutable cells.

The returned wndproc sends its 4-word message to the worker and blocks for
the reply, so at most one message is in flight; a single worker thread
receives the messages and threads a state value through a step function
``handler(state, (hwnd, code, wparam, lparam)) -> (state, return_word)``.

Contract: the message pump must never run on the worker thread itself, or
the rendezvous deadlocks.  A handler failure is re-raised in the blocked
caller as AdapterError; the worker stays alive with its state unchanged.
A wndproc called while the worker is not running (before `start` or after
`stop`) raises AdapterError instead of waiting for a reply that never comes.
"""

from __future__ import annotations

import threading
from queue import SimpleQueue
from typing import Any, Callable

from mlidl.wordmem import WordFn

Handler = Callable[[Any, tuple[int, int, int, int]], tuple[Any, int]]

_STOP = object()


class AdapterError(Exception):
    pass


class AdapterWorker:
    """Owns the worker thread and the state it threads between messages."""

    def __init__(self, handler: Handler, initial_state: Any) -> None:
        self.requests: SimpleQueue = SimpleQueue()
        self.replies: SimpleQueue = SimpleQueue()   # a return word or the failure
        self.state = initial_state
        self.messages_handled = 0
        self.running = False    # set by `start`, cleared by `stop`
        self._handler = handler
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="wndproc-worker")

    def start(self) -> "AdapterWorker":
        self._thread.start()
        self.running = True
        return self

    def stop(self) -> None:
        if self.running:
            self.running = False
            self.requests.put(_STOP)
            self._thread.join()

    def _run(self) -> None:
        while True:
            msg = self.requests.get()
            if msg is _STOP:
                return
            try:
                self.state, ret = self._handler(self.state, msg)
            except BaseException as exc:
                self.replies.put(exc)
                continue
            self.messages_handled += 1
            self.replies.put(ret)


def wndproc_queue_adapter(handler: Handler,
                          initial_state: Any) -> tuple[WordFn, AdapterWorker]:
    """Build (wndproc, worker); start the worker before pumping messages."""
    worker = AdapterWorker(handler, initial_state)

    def wndproc(words: list[int]) -> int:
        if len(words) != 4:
            raise AdapterError(f"wndproc takes 4 words, got {len(words)}")
        if not worker.running:
            raise AdapterError("wndproc worker is not running")
        worker.requests.put((words[0], words[1], words[2], words[3]))
        reply = worker.replies.get()
        if isinstance(reply, BaseException):
            raise AdapterError(f"wndproc worker failed: {reply}") from reply
        return reply

    return wndproc, worker
