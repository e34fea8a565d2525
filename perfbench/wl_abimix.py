"""abi-mix: a long-lived client driving one `Mem` world with mixed traffic.

The world holds a generated library (one interface per parameter shape,
installed with `marshal.skeleton`), a long-lived dual-interface object for
Automation, and a registered COM class for create / QueryInterface / Release
churn.  The run is sized by operation count, never by wall time, and never
starts a second world for its operations, so the share of operations that
fail does not depend on speed and the heap-exhaustion defect shows.

The mix is synthetic coverage, not measured traffic: each of the 14
operation kinds is drawn with equal weight.  The per-kind medians
(`marshal.call_us.*`, `com.*_us`, `automation.*_us`) give each kind's cost
apart from the mix.

Oracles: every bound call equals its host implementation called directly;
typed Invoke equals the expected VARIANT of that implementation, raw Invoke
through vtable slot 6 the same words; a QueryInterface through slot 0 equals
`com.query_interface`.  Before the run, a throwaway set-up world also checks
Invoke against a plain call through the method's own vtable slot.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Callable, Optional

import idlgen
from clock import Clock
from common import CheckFailed, Measured, median, program_errors
from spans import Tracer

# Operations in one run, whatever --seconds says: a faster program runs the
# same operations in less time, and the share that fails stays put.
N_OPS = 60_000
SETUP_REPEATS = 81
POOL_MAX = 16
BATCH = 16          # operations between two probes of the clock

# operation kind -> per-layer metric reporting its median latency; the mix
# draws every kind with equal weight
KIND_METRIC = {f"call.{s}": f"marshal.call_us.{s}" for s in idlgen.SHAPES}
KIND_METRIC.update({
    "automation.invoke": "automation.invoke_us",
    "automation.invoke_raw": "automation.invoke_raw_us",
    "automation.get_ids_of_names": "automation.get_ids_of_names_us",
    "com.create": "com.create_us",
    "com.qi_slot0": "com.qi_slot0_us",
    "com.release": "com.release_us",
})

MASK = 0xFFFFFFFF
_TEXT8 = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-éßΩ€中"
_TEXT16 = _TEXT8 + "ДЖשׁ"


def _guid(text: str):
    from mlidl.com import Guid
    return Guid.parse(text)


def _mix(h: int, x: int) -> int:
    return ((h ^ (x & MASK)) * 0x01000193 + 0x9E37) & MASK


def _digest(v: Any, h: int) -> int:
    if isinstance(v, bool):
        return _mix(h, 2 if v else 1)
    if isinstance(v, int):
        return _mix(h, v)
    if isinstance(v, str):
        for ch in v:
            h = _mix(h, ord(ch))
        return _mix(h, len(v))
    if isinstance(v, dict):
        for key in sorted(v):
            h = _digest(v[key], _digest(key, h))
        return h
    if isinstance(v, list):
        for item in v:
            h = _digest(item, h)
        return _mix(h, len(v))
    if callable(v):
        return _mix(h, v([h & 0xFFFF, 7]))
    raise TypeError(f"cannot digest {v!r}")


class Host:
    """Pure host implementations; results are a function of the inputs."""

    def __init__(self, desc) -> None:
        self.desc = desc

    def produce(self, t, h: int) -> Any:
        from mlidl.wordmem import to_signed

        k = t.kind
        if k == "int32":
            return to_signed(h)
        if k in ("word32", "handle", "opaque"):
            return h
        if k == "bool":
            return bool(h & 1)
        if k == "enum":
            variants = self.desc.enum(t.name).variants
            return variants[h % len(variants)][0]
        if k == "record":
            rec = self.desc.record(t.name)
            return {f.name: self.produce(f.sem, _mix(h, i + 1))
                    for i, f in enumerate(rec.fields)}
        raise TypeError(f"host results of kind {k} are not generated")

    def impl(self, sig, salt: int) -> Callable:
        results = sig.results

        def impl(*ins: Any) -> Any:
            h = salt
            for v in ins:
                h = _digest(v, h)
            out = tuple(self.produce(r.sem, _mix(h, i + 1)) for i, r in enumerate(results))
            if not out:
                return None
            return out if len(out) > 1 else out[0]

        return impl


def _raw_result(v) -> tuple[int, int, int]:
    """What a successful raw Invoke returns for the VARIANT result `v`:
    S_OK and the (tag, payload) words it stores."""
    return 0, v.tag, (v.value or 0) & MASK


def _callables() -> list[Callable[[list[int]], int]]:
    def make(k: int):
        return lambda words: (words[0] * (2 * k + 3) + words[1] + k) & MASK
    return [make(k) for k in range(4)]


class World:
    """One client world: everything a user of the library sets up per run."""

    IID_CALC = "{5A1E0000-0000-4000-8000-00000000C001}"
    IID_CHURN = "{5A1E0000-0000-4000-8000-00000000C002}"
    IID_AUX = "{5A1E0000-0000-4000-8000-00000000C003}"
    IID_MISSING = "{5A1E0000-0000-4000-8000-00000000C0FF}"
    CLSID_CHURN = "{5A1E0000-0000-4000-8000-00000000C100}"

    def __init__(self, lib_text: str, seed: int) -> None:
        from mlidl import automation, binding, com, idl, marshal
        from mlidl.wordmem import Mem

        self.mem = mem = Mem()
        self.desc = desc = binding.build_binding(idl.parse_text(lib_text, "abilib.idl"),
                                                 mode="dynamic", level="auto")
        host = Host(desc)
        salts = random.Random(f"abi-salts-{seed}")
        lib = mem.register_library(idlgen.ABI_LIBRARY)
        self.ops: dict[str, list[tuple[Any, Callable, Callable]]] = {}
        impls: dict[str, Callable] = {}
        for iface in desc.interfaces:
            for sig in iface.ops:
                impls[sig.name] = host.impl(sig, salts.getrandbits(32))
                stub = marshal.skeleton(sig, impls[sig.name], mem, desc)
                mem.register_function(lib, sig.name, stub, convention="pascal",
                                      arity=marshal.abi_arity(sig, desc))
        for name, bound in marshal.bind(desc, mem).items():
            shape = idlgen.shape_of_interface(name)
            self.ops[shape] = [(sig, getattr(bound, sig.name), impls[sig.name])
                               for sig in desc.interface(name).ops]

        self.auto = [(sig, impl) for sig, _, impl in self.ops["scalar"] + self.ops["string8"]]
        self.calc = automation.make_dual([s for s, _ in self.auto],
                                         [i for _, i in self.auto],
                                         com.ComObject(mem),
                                         com.Iid(_guid(self.IID_CALC), "ICalc"), desc)
        self.iid_churn = com.Iid(_guid(self.IID_CHURN), "IChurn")
        iid_aux = com.Iid(_guid(self.IID_AUX), "IAux")
        churn = self.ops["scalar"][:3]
        aux = self.ops["scalar"][3:5]
        clsid = com.Clsid(_guid(self.CLSID_CHURN), "Churn")

        def build_churn():
            obj = com.ComObject(mem, clsid)
            automation.make_dual([s for s, _, _ in churn], [i for _, _, i in churn],
                                 obj, self.iid_churn, desc)
            obj.add_interface(iid_aux, [marshal.skeleton(s, i, mem, desc)
                                        for s, _, i in aux])
            return obj

        self.registry = com.Registry()
        com.co_register_class_object(self.registry, clsid,
                                     com.simple_factory(clsid, build_churn, "Churn"))
        self.clsid = clsid
        self.qi_targets = [com.IID_IUNKNOWN, com.IID_IDISPATCH, self.iid_churn, iid_aux,
                           com.Iid(_guid(self.IID_MISSING), "IMissing")]
        self.callables = _callables()


class Client:
    """Generates one seeded operation stream and checks every result."""

    def __init__(self, world: World, seed: int) -> None:
        self.w = world
        self.rng = random.Random(f"abi-args-{seed}")
        self.pool: list = []

    # -- inputs -----------------------------------------------------------

    def value(self, t) -> Any:
        rng = self.rng
        k = t.kind
        if k == "int32":
            return rng.randrange(-0x80000000, 0x80000000)
        if k in ("word32", "handle", "opaque"):
            return rng.getrandbits(32)
        if k == "bool":
            return rng.random() < 0.5
        if k == "enum":
            return rng.choice(self.w.desc.enum(t.name).variants)[0]
        if k in ("string8", "string16"):
            alphabet = _TEXT8 if k == "string8" else _TEXT16
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
        if k == "record":
            return {f.name: self.value(f.sem) for f in self.w.desc.record(t.name).fields}
        if k == "array":
            return [self.value(t.elem) for _ in range(rng.randint(1, 8))]
        if k == "callback":
            return rng.choice(self.w.callables)
        raise TypeError(f"no generator for {k}")

    def ins(self, sig) -> list[Any]:
        values = {p.name: self.value(p.sem) for p in sig.ins}
        for p in sig.ins:
            if p.sem.kind == "array":
                values[p.sem.len_from] = len(values[p.name])
        return [values[p.name] for p in sig.ins]

    def variant(self, v: Any, t):
        from mlidl.automation import VT_BOOL, VT_BSTR, VT_I4, VT_UI4, Variant
        from mlidl.wordmem import to_signed

        k = t.kind
        if k == "int32":
            return Variant(VT_I4, v)
        if k in ("word32", "handle", "opaque"):
            return Variant(VT_UI4, v)
        if k == "bool":
            return Variant(VT_BOOL, v)
        if k == "enum":
            return Variant(VT_I4, to_signed(self.w.desc.enum(t.name).to_int(v)))
        if k == "string8":
            return Variant(VT_BSTR, v)
        raise TypeError(f"no VARIANT for {k}")

    def expected_variant(self, sig, impl, values):
        from mlidl.automation import Variant

        result = impl(*values)
        if not sig.results:
            return Variant.empty()
        return self.variant(result, sig.results[0].sem)

    # -- operations --------------------------------------------------------

    def prepare(self, kind: str) -> tuple[str, str, Callable[[], Any], Callable[[Any], bool]]:
        """(kind run, label, timed thunk, check of its result).  COM churn
        creates when no object is live and releases when the pool is full."""
        from mlidl import automation, com

        w = self.w
        rng = self.rng
        if kind.startswith("com."):
            if not self.pool:
                kind = "com.create"
            elif kind == "com.create" and len(self.pool) >= POOL_MAX:
                kind = "com.release"
        if kind.startswith("call."):
            sig, fn, impl = rng.choice(w.ops[kind[5:]])
            args = self.ins(sig)
            return kind, sig.name, lambda: fn(*args), lambda got: got == impl(*args)
        if kind.startswith("automation."):
            i = rng.randrange(len(w.auto))
            sig, impl = w.auto[i]
            if kind == "automation.get_ids_of_names":
                name = "".join(c.upper() if rng.random() < 0.5 else c.lower()
                               for c in sig.name)
                return (kind, f"GetIDsOfNames({name})",
                        lambda: automation.get_ids_of_names(w.calc, name),
                        lambda got: got == i + 1)
            values = self.ins(sig)
            want = self.expected_variant(sig, impl, values)
            if kind == "automation.invoke":
                variants = [self.variant(v, p.sem) for v, p in zip(values, sig.ins)]
                return (kind, f"Invoke({sig.name})",
                        lambda: automation.invoke(w.calc, i + 1, variants),
                        lambda got: got == want)
            return (kind, f"raw Invoke({sig.name})",
                    lambda: self.raw_invoke(i + 1, values, sig),
                    lambda got: got == _raw_result(want))
        if kind == "com.release":
            ref = self.pool.pop(rng.randrange(len(self.pool)))
            return (kind, "Release", lambda: com.get_method(ref, 2)([ref.addr]),
                    lambda got: got == 0 and not ref.owner.alive)
        if kind == "com.qi_slot0":
            ref = rng.choice(self.pool)
            iid = rng.choice(w.qi_targets)
            return (kind, f"QueryInterface({iid.name})", lambda: self.raw_qi(ref, iid),
                    lambda got: got == self.client_qi(ref, iid))

        def create():
            ref = com.co_create_instance(w.registry, w.clsid, w.iid_churn)
            self.pool.append(ref)
            return ref

        return (kind, "CoCreateInstance", create,
                lambda ref: ref.iid == w.iid_churn and ref.owner.refcount == 1
                and ref.owner.alive)

    def raw_invoke(self, dispid: int, values: list, sig) -> tuple[int, int, int]:
        from mlidl import com, marshal
        from mlidl.automation import VT_BSTR
        from mlidl.wordmem import word

        mem = self.w.mem
        blocks: list[int] = []
        try:
            words: list[int] = []
            for v, p in zip(values, sig.ins):
                if p.sem.kind == "string8":
                    blocks.append(marshal.pack_string8(mem, v))
                    words += [VT_BSTR, blocks[-1]]
                else:
                    var = self.variant(v, p.sem)
                    words += [var.tag, word(int(var.value))]
            blocks.append(mem.alloc(len(words)))
            mem.store(blocks[-1], words)
            dp = mem.alloc(2)
            blocks.append(dp)
            mem.store(dp, [len(values), blocks[-2]])
            res = mem.alloc(2)
            blocks.append(res)
            hr = com.get_method(self.w.calc, 6)(
                [self.w.calc.addr, dispid, 0, 0, 0, dp, res, 0, 0])
            tag, payload = mem.read(res, 2)
            return hr, tag, payload
        finally:
            for b in blocks:
                mem.free(b)

    def raw_qi(self, ref, iid) -> tuple[int, int]:
        """QueryInterface through vtable slot 0; Release the result through
        its own slot 2."""
        from mlidl import com

        mem = self.w.mem
        iid_blk = mem.alloc(4)
        try:
            mem.store(iid_blk, iid.guid.to_words())
            out = mem.alloc(1)
            try:
                hr = com.get_method(ref, 0)([ref.addr, iid_blk, out])
                got = mem.read(out, 1)[0]
            finally:
                mem.free(out)
        finally:
            mem.free(iid_blk)
        if hr == com.S_OK:
            vtable = mem.read(got, 1)[0]
            mem.call(mem.read(mem.offset(vtable, 2), 1)[0], [got])
        return hr, got

    def client_qi(self, ref, iid) -> tuple[int, int]:
        from mlidl import com

        try:
            found = com.query_interface(ref, iid)
        except com.NoInterface:
            return com.E_NOINTERFACE, 0
        com.release(found)
        return com.S_OK, found.addr

    def vtable_checks(self) -> None:
        """Invoke, raw Invoke and a direct call through the method's vtable
        slot must agree; slot-0 QI must agree with query_interface."""
        from mlidl import automation, com, marshal

        w = self.w
        for i, (sig, impl) in enumerate(w.auto):
            values = self.ins(sig)
            typed = automation.invoke(w.calc, i + 1,
                                      [self.variant(v, p.sem) for v, p in zip(values, sig.ins)])
            direct = marshal.call(sig, com.get_method(w.calc, 7 + i), values, w.mem, w.desc)
            want = self.expected_variant(sig, impl, values)
            if typed != want or self.variant(direct[0], sig.results[0].sem) != want:
                raise CheckFailed(f"abi-mix Invoke({sig.name}) differs from its vtable call")
            if self.raw_invoke(i + 1, values, sig) != _raw_result(want):
                raise CheckFailed(f"abi-mix raw Invoke({sig.name}) differs from Invoke")
        ref = com.co_create_instance(w.registry, w.clsid, w.iid_churn)
        for iid in w.qi_targets:
            if self.raw_qi(ref, iid) != self.client_qi(ref, iid):
                raise CheckFailed(f"abi-mix slot-0 QueryInterface({iid.name}) differs "
                                  f"from query_interface")
        com.release(ref)
        for shape, ops in w.ops.items():
            for sig, fn, impl in ops:
                args = self.ins(sig)
                if fn(*args) != impl(*args):
                    raise CheckFailed(f"abi-mix {sig.name} differs from its host "
                                      f"implementation")


class AbiMixWorkload:
    name = "abi-mix"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.n_ops = N_OPS
        self.lib_text = idlgen.abi_library(seed)
        kinds = random.Random(f"abi-kinds-{seed}")
        self.kinds = kinds.choices(list(KIND_METRIC), k=self.n_ops)

    def precheck(self) -> None:
        Client(World(self.lib_text, self.seed), self.seed).vtable_checks()

    def _stream(self, world: World, tracer: Optional[Tracer]):
        errors = program_errors()
        client = Client(world, self.seed)
        clock = Clock()
        by_kind: dict[str, list[float]] = {k: [] for k in KIND_METRIC}
        failures: dict[str, int] = {}
        batch: list[tuple[str, int]] = []     # (kind or "", raw ns) since the last probe
        busy = raw = 0.0

        def settle() -> None:
            nonlocal busy, raw
            f = clock.factor()
            for kind, ns in batch:
                busy += ns * f
                raw += ns
                if kind:
                    by_kind[kind].append(ns * f / 1e3)
            batch.clear()

        for n, kind in enumerate(self.kinds):
            if len(batch) == BATCH:
                settle()
            kind, label, thunk, check = client.prepare(kind)
            if tracer is not None:
                tracer.run_id = n
            t0 = time.perf_counter_ns()
            try:
                got = thunk()
            except errors as exc:
                batch.append(("", time.perf_counter_ns() - t0))
                key = type(exc).__name__
                failures[key] = failures.get(key, 0) + 1
                continue
            t1 = time.perf_counter_ns()
            batch.append((kind, t1 - t0))
            if not check(got):
                raise CheckFailed(f"abi-mix op {n} {kind} {label}: wrong result {got!r}")
        settle()
        return by_kind, failures, busy, raw

    def measure(self, budget_s: float, tracer: Optional[Tracer] = None) -> Measured:
        setups: list[float] = []
        units = 2 if tracer is not None else 1
        for _ in range(units):
            if tracer is not None:
                tracer.begin_unit()
                world = World(self.lib_text, self.seed)
            else:
                clock = Clock()
                for _ in range(SETUP_REPEATS):
                    # the previous worlds' garbage is collected untimed, so
                    # each set-up starts from the same heap
                    world = None
                    gc.collect()
                    t0 = time.perf_counter()
                    world = World(self.lib_text, self.seed)
                    setups.append((time.perf_counter() - t0) * clock.factor())
            by_kind, failures, busy, raw = self._stream(world, tracer)
            if tracer is not None:
                tracer.add("wordmem.live_blocks_end", world.mem.live_count)
                tracer.add("com.objects_live_end",
                           sum(o.alive for o in tracer.com_objects))
                tracer.com_objects.clear()
                tracer.end_unit()
        ok = [us for times in by_kind.values() for us in times]
        failed = sum(failures.values())
        layer = {metric: median(by_kind[kind]) for kind, metric in KIND_METRIC.items()}
        return Measured(work_per_s=len(ok) / (busy / 1e9), raw_work_per_s=len(ok) / (raw / 1e9),
                        item_ms=[us / 1e3 for us in ok],
                        setup_s=setups, attempted=self.n_ops, failed=failed,
                        units=units, items=units * self.n_ops, failures=failures,
                        layer=layer)
