"""Spans around the public calls into each mlidl layer, for the traced run.

Nothing in the program is edited: `install` replaces module functions in
every loaded `mlidl` module that holds them, and methods on their classes,
with wrappers that open and close a span; `Patches.restore` puts the
originals back.  A span is (name, start, end, parent, run id); the run id is
the benchmark item (file, demo run or operation) the span belongs to.

Calls into one world are serialized: the queue adapter's wndproc blocks
while its worker thread runs the handler.  One stack of open spans therefore
serves both threads, and the handler's spans nest under the wndproc span
that caused them.
"""

from __future__ import annotations

import gzip
import sys
import weakref
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Optional

# Spans kept for the dump; aggregates keep counting past this.
MAX_KEPT_SPANS = 1_000_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        self.extra: dict[str, int] = {}
        self.com_objects: list = []     # every ComObject built while tracing
        self.run_id = 0
        self.unit_counts: list[dict[str, int]] = []
        self._unit_start: Optional[dict[str, int]] = None
        self._stack: list[list[int]] = []   # [name id, start, child ns, span index]
        self._origin = perf_counter_ns()
        self.s_name = array("l")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("l")
        self.s_run = array("l")
        self.dropped = 0

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl_ns.append(0)
            self.self_ns.append(0)
        return i

    def add(self, counter: str, n: int) -> None:
        self.extra[counter] = self.extra.get(counter, 0) + n

    def enter(self, nid: int) -> None:
        stack = self._stack
        start = perf_counter_ns()
        idx = len(self.s_start)
        if idx < MAX_KEPT_SPANS:
            self.s_name.append(nid)
            self.s_start.append(start - self._origin)
            self.s_end.append(0)
            self.s_parent.append(stack[-1][3] if stack else -1)
            self.s_run.append(self.run_id)
        else:
            idx = -1
            self.dropped += 1
        stack.append([nid, start, 0, idx])

    def exit(self) -> None:
        end = perf_counter_ns()
        nid, start, child, idx = self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.incl_ns[nid] += dur
        self.self_ns[nid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.s_end[idx] = end - self._origin

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[[Any, tuple], None]] = None) -> Callable:
        nid = self.nid(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- units: the repeatable chunks whose counts must agree ----------------

    def _snapshot(self) -> dict[str, int]:
        snap = {f"calls.{n}": self.calls[i] for i, n in enumerate(self.names)}
        snap.update(self.extra)
        return snap

    def begin_unit(self) -> None:
        self._unit_start = self._snapshot()

    def end_unit(self) -> None:
        before = self._unit_start or {}
        after = self._snapshot()
        self.unit_counts.append({k: v - before.get(k, 0) for k, v in after.items()
                                 if v - before.get(k, 0)})
        self._unit_start = None

    # -- reading the aggregates --------------------------------------------

    def incl(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else self.incl_ns[i]

    def self_time(self, prefix: str) -> int:
        return sum(self.self_ns[i] for i, n in enumerate(self.names)
                   if n.startswith(prefix))

    def count(self, name: str) -> int:
        i = self._ids.get(name)
        return 0 if i is None else self.calls[i]

    def dump(self, path: Path) -> None:
        """Write the kept spans as gzip'd tab-separated text."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write(f"# spans kept {len(self.s_start)}, dropped {self.dropped}\n")
            out.write("# name\tstart_ns\tend_ns\tparent\trun\n")
            names = self.names
            for i in range(len(self.s_start)):
                out.write(f"{names[self.s_name[i]]}\t{self.s_start[i]}\t"
                          f"{self.s_end[i]}\t{self.s_parent[i]}\t{self.s_run[i]}\n")


class Patches:
    """Replacements made from outside the program, undone by `restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def function(self, orig: Callable, replacement: Callable) -> None:
        """Replace `orig` in every loaded mlidl module that refers to it."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("mlidl"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, orig))

    def method(self, cls: type, attr: str, replacement: Callable) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)


def install(tr: Tracer) -> Patches:
    """Wrap the public entry points of idl, binding, wordmem, marshal, com,
    automation and winsim."""
    from mlidl import automation, binding, com, idl, marshal
    from mlidl.winsim.bounce import BounceDemo
    from mlidl.winsim.world import SimWorld
    from mlidl.wordmem import Mem

    p = Patches()
    p.function(idl.tokenize, tr.wrap(
        "idl.tokenize", idl.tokenize,
        after=lambda r, a: tr.add("idl.tokens", len(r))))
    p.function(idl.parse_unit, tr.wrap(
        "idl.parse", idl.parse_unit,
        after=lambda r, a: tr.add("idl.decls", len(r.decls))))
    p.function(idl.resolve, tr.wrap("idl.resolve", idl.resolve))
    p.function(binding.build_binding, tr.wrap("binding.build", binding.build_binding))
    p.function(binding.emit_sig_text, tr.wrap(
        "binding.sigtext", binding.emit_sig_text,
        after=lambda r, a: tr.add("binding.sig_bytes", len(r.encode()))))
    p.function(binding.emit_binding_file, tr.wrap(
        "binding.emit", binding.emit_binding_file,
        after=lambda r, a: tr.add("binding.file_bytes", len(r.encode()))))
    p.function(binding.load_binding_file,
               tr.wrap("binding.load", binding.load_binding_file))

    # wordmem: heap pages and closure addresses are counted from the
    # arguments and results seen at the boundary, not read from Mem's state.
    page_words = 0x1000 // 4
    p.method(Mem, "alloc", tr.wrap(
        "wordmem.alloc", Mem.alloc,
        after=lambda r, a: tr.add("wordmem.pages", -(-a[1] // page_words))))
    for name in ("free", "store", "read", "call"):
        p.method(Mem, name, tr.wrap(f"wordmem.{name}", Mem.__dict__[name]))
    seen: "weakref.WeakKeyDictionary[Mem, set[int]]" = weakref.WeakKeyDictionary()

    def closure_seen(addr: int, args: tuple) -> None:
        addrs = seen.setdefault(args[0], set())
        if addr not in addrs:
            addrs.add(addr)
            tr.add("wordmem.closures", 1)

    p.method(Mem, "fun_to_addr", tr.wrap("wordmem.fun_to_addr", Mem.fun_to_addr,
                                         after=closure_seen))

    p.function(marshal.call, tr.wrap("marshal.call", marshal.call))
    orig_skeleton = marshal.skeleton

    def traced_skeleton(sig, impl, mem, desc=None):
        host = "winsim.api" if isinstance(getattr(impl, "__self__", None), SimWorld) \
            else "host.impl"
        return tr.wrap("marshal.stub", orig_skeleton(sig, tr.wrap(host, impl), mem, desc))

    p.function(orig_skeleton, traced_skeleton)

    orig_init = com.ComObject.__init__

    def counted_init(self, *args, **kwargs):
        tr.com_objects.append(self)
        tr.add("com.objects", 1)
        orig_init(self, *args, **kwargs)

    p.method(com.ComObject, "__init__", counted_init)
    for attr, name in (("_raw_query_interface", "com.qi"), ("_raw_add_ref", "com.addref"),
                       ("_raw_release", "com.release")):
        p.method(com.ComObject, attr, tr.wrap(name, com.ComObject.__dict__[attr]))
    p.function(com.co_create_instance, tr.wrap("com.create", com.co_create_instance))
    p.function(automation.invoke, tr.wrap("automation.invoke", automation.invoke))
    p.function(automation.get_ids_of_names,
               tr.wrap("automation.get_ids_of_names", automation.get_ids_of_names))

    p.method(SimWorld, "pump", tr.wrap("winsim.pump", SimWorld.pump))
    p.method(BounceDemo, "handle", tr.wrap("winsim.handler", BounceDemo.handle))
    orig_make = BounceDemo._make_wndproc
    p.method(BounceDemo, "_make_wndproc",
             lambda self: tr.wrap("winsim.wndproc", orig_make(self)))
    return p


def layer_metrics(tr: Tracer, units: int, items: int) -> dict[str, float]:
    """Per-layer figures from `units` traced units holding `items` benchmark
    items (files, ticks or operations) in all.  Counts come from the first
    unit, which every other unit matched exactly; times are averaged over
    all units."""
    per_unit = 1.0 / max(units, 1)
    per_item = 1.0 / max(items, 1)
    unit_items = max(items // max(units, 1), 1)
    first = tr.unit_counts[0] if tr.unit_counts else {}
    ms = lambda ns: ns / 1e6 * per_unit                   # noqa: E731
    us_item = lambda ns: ns / 1e3 * per_item              # noqa: E731
    count = lambda k: first.get(k, 0)                     # noqa: E731
    calls_item = lambda n: count(f"calls.{n}") / unit_items   # noqa: E731
    msgs = tr.count("winsim.wndproc")
    out = {
        "idl.tokenize_ms": ms(tr.incl("idl.tokenize")),
        "idl.parse_ms": ms(tr.incl("idl.parse")),
        "idl.resolve_ms": ms(tr.incl("idl.resolve")),
        "idl.tokens": count("idl.tokens"),
        "idl.decls": count("idl.decls"),
        # build_binding resolves the unit itself; its resolve is counted
        # under idl.resolve_ms, so build reports self time
        "binding.build_ms": ms(tr.self_time("binding.build")),
        "binding.sigtext_ms": ms(tr.incl("binding.sigtext")),
        "binding.emit_ms": ms(tr.incl("binding.emit")),
        "binding.load_ms": ms(tr.incl("binding.load")),
        "binding.sig_bytes": count("binding.sig_bytes"),
        "binding.file_bytes": count("binding.file_bytes"),
    }
    for op in ("alloc", "free", "store", "read", "call"):
        out[f"wordmem.{op}"] = calls_item(f"wordmem.{op}")
    out.update({
        "wordmem.self_us": us_item(tr.self_time("wordmem.")),
        "wordmem.heap_pages_used": count("wordmem.pages"),
        "wordmem.closures_registered": count("wordmem.closures"),
        "wordmem.live_blocks_end": count("wordmem.live_blocks_end"),
        "marshal.call_self_us": us_item(tr.self_time("marshal.call")),
        "marshal.stub_self_us": us_item(tr.self_time("marshal.stub")),
        "com.objects_created": count("com.objects"),
        "com.objects_live_end": count("com.objects_live_end"),
        "winsim.pump_self_us": us_item(tr.self_time("winsim.pump")),
        "winsim.api_self_us": us_item(tr.self_time("winsim.api")),
        "winsim.wndproc_us": tr.incl("winsim.wndproc") / 1e3 / msgs if msgs else 0.0,
        "winsim.msgs_per_tick": calls_item("winsim.wndproc"),
        "winsim.trace_lines": count("winsim.trace_lines"),
        "winsim.adapter_handoff_us":
            (tr.incl("winsim.wndproc") - tr.incl("winsim.handler")) / 1e3 / msgs
            if msgs else 0.0,
    })
    return out
