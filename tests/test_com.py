from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FailingMem, nothing_for_the_cycle_collector
from mlidl import marshal
from mlidl.com import (
    ClassNotRegistered,
    Clsid,
    ComObject,
    DeadObject,
    E_NOINTERFACE,
    Guid,
    IID_IUNKNOWN,
    Iid,
    NoInterface,
    Registry,
    S_OK,
    co_create_instance,
    co_get_class_object,
    co_register_class_object,
    ComError,
    get_method,
    query_interface,
    release,
    simple_factory,
)
from mlidl.automation import make_dual
from mlidl.binding.model import BindingDesc, LiftedSig, RetSig
from mlidl.semtypes import INT32
from mlidl.wordmem import BadSize, Mem, NotCallable

CLSID_BAR = Clsid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0001}"), "Bar")
IID_IX = Iid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0002}"), "IX")
IID_IY = Iid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0003}"), "IY")
IID_IZ = Iid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0004}"), "IZ")
IID_NONE = Iid(Guid.parse("{DEADBEEF-0000-0000-0000-000000000000}"), "INone")


def build_bar(mem, log=None):
    log = log if log is not None else []
    obj = ComObject(mem, CLSID_BAR)
    obj.add_interface(IID_IX, [lambda ws: (log.append("FooX"), 0)[1]])
    obj.add_interface(IID_IY, [lambda ws: (log.append("FooY"), 0)[1]])
    return obj, log


# -- guids ----------------------------------------------------------------------


def test_guid_parse_print_round_trip():
    text = "{00000001-0002-0003-0405-060708090A0B}"
    assert str(Guid.parse(text)) == text


def test_guid_case_normalized():
    assert str(Guid.parse("{c9e1d3a0-4b5a-4c7e-9a10-2f6b8a1d0001}")) == \
        "{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0001}"


def test_guid_malformed():
    with pytest.raises(ValueError):
        Guid.parse("not-a-guid")
    with pytest.raises(ValueError):
        Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D000}")


def test_guid_words_round_trip():
    g = Guid.parse("{12345678-9ABC-DEF0-1122-334455667788}")
    assert Guid.from_words(g.to_words()) == g
    assert g.to_words()[0] == 0x12345678


def test_guid_from_words_needs_four_words():
    with pytest.raises(ValueError) as exc:
        Guid.from_words([1, 2, 3])
    assert str(exc.value) == "a GUID occupies exactly 4 words"


def test_iunknown_canonical_value():
    assert str(IID_IUNKNOWN.guid) == "{00000000-0000-0000-C000-000000000046}"


# -- vtable layout ---------------------------------------------------------------


def test_make_interface_slot_counts(mem):
    obj = ComObject(mem, CLSID_BAR)
    ix = obj.add_interface(IID_IX, [lambda ws: 0])
    vtable = mem.read(ix.addr, 1)[0]
    assert len(mem.read(vtable, 4)) == 4  # qi, addref, release, fooX
    iz = obj.add_interface(IID_IZ, [])
    vt2 = mem.read(iz.addr, 1)[0]
    assert len(mem.read(vt2, 3)) == 3


def test_vtable_slots_are_closure_addresses(mem):
    obj, _ = build_bar(mem)
    ix = obj._interfaces[IID_IX.guid]
    vtable = mem.read(ix.addr, 1)[0]
    for slot in mem.read(vtable, 4):
        mem.addr_to_fun(slot)  # raises NotCallable if not a closure


def test_get_method_runs_method(mem):
    obj, log = build_bar(mem)
    ix = obj._interfaces[IID_IX.guid]
    get_method(ix, 3)([])
    assert log == ["FooX"]


def test_get_method_slot_zero_is_queryinterface(mem):
    obj, _ = build_bar(mem)
    ix = obj._interfaces[IID_IX.guid]
    qi = get_method(ix, 0)
    blk = mem.alloc(4)
    out = mem.alloc(1)
    mem.store(blk, IID_IY.guid.to_words())
    assert qi([ix.addr, blk, out]) == 0
    assert mem.read(out, 1)[0] == obj._interfaces[IID_IY.guid].addr
    release(ix)  # balance the raw QI's reference
    mem.free(blk)
    mem.free(out)


def test_get_method_out_of_range(mem):
    from mlidl.wordmem import OutOfBounds

    obj, _ = build_bar(mem)
    ix = obj._interfaces[IID_IX.guid]
    with pytest.raises(OutOfBounds):
        get_method(ix, 99)


# -- IUnknown semantics ---------------------------------------------------------


def test_query_interface_returns_other_interface(mem):
    obj, _ = build_bar(mem)
    ix = obj._interfaces[IID_IX.guid]
    before = obj.refcount
    iy = query_interface(ix, IID_IY)
    assert iy.iid == IID_IY
    assert obj.refcount == before + 1
    release(iy)


def test_iunknown_identity_shared(mem):
    obj, _ = build_bar(mem)
    ix = obj._interfaces[IID_IX.guid]
    iy = obj._interfaces[IID_IY.guid]
    a = query_interface(ix, IID_IUNKNOWN)
    b = query_interface(iy, IID_IUNKNOWN)
    assert a.addr == b.addr == obj.identity.addr
    release(a)
    release(b)


def test_identity_differs_across_objects(mem):
    obj1, _ = build_bar(mem)
    obj2 = ComObject(mem, CLSID_BAR)
    obj2.add_interface(IID_IX, [])
    assert obj1.identity.addr != obj2.identity.addr


def test_unknown_iid_raises_no_interface(mem):
    obj, _ = build_bar(mem)
    with pytest.raises(NoInterface) as exc:
        query_interface(obj._interfaces[IID_IX.guid], IID_NONE)
    assert exc.value.hresult == 0x80004002
    assert E_NOINTERFACE == 0x80004002


def test_refcount_lifecycle(mem):
    obj, _ = build_bar(mem)
    ix = obj._interfaces[IID_IX.guid]
    assert obj.refcount == 1
    assert get_method(ix, 1)([ix.addr]) == 2    # AddRef through vtable slot 1
    assert release(ix) == 1
    assert release(ix) == 0
    assert not obj.alive
    with pytest.raises(DeadObject):
        get_method(ix, 3)
    with pytest.raises(DeadObject):
        release(ix)


def test_qi_then_release_restores_count(mem):
    obj, _ = build_bar(mem)
    ix = obj._interfaces[IID_IX.guid]
    start = obj.refcount
    iy = query_interface(ix, IID_IY)
    release(iy)
    assert obj.refcount == start


def test_destruction_frees_exactly_object_blocks(mem):
    baseline = mem.live_count
    obj, _ = build_bar(mem)
    created = mem.live_count - baseline
    assert created == 6  # 3 interfaces x (vtable + slot)
    release(obj.identity)
    assert mem.live_count == baseline


def test_refcount_conservation_random_balanced(mem):
    rng = random.Random(0xBA1)
    obj, _ = build_bar(mem)
    refs = [obj.identity]
    start = obj.refcount
    depth = 0
    for _ in range(1000):
        if depth > 0 and rng.random() < 0.5:
            release(refs.pop())
            depth -= 1
        else:
            base = refs[rng.randrange(len(refs))]
            if rng.random() < 0.5:
                refs.append(query_interface(
                    base, rng.choice((IID_IX, IID_IY, IID_IUNKNOWN))))
            else:
                get_method(base, 1)([base.addr])      # AddRef
                refs.append(base)
            depth += 1
        assert obj.refcount == start + depth
        assert obj.refcount > 0
    while depth:
        release(refs.pop())
        depth -= 1
    assert obj.refcount == start


# -- activation ------------------------------------------------------------------


def test_factory_create_starts_at_one(mem):
    factory = simple_factory(CLSID_BAR, lambda: build_bar(mem)[0], label="Bar")
    ref = factory.create(IID_IX)
    assert ref.owner.refcount == 1
    release(ref)


def test_registry_roundtrip(mem):
    reg = Registry()
    factory = simple_factory(CLSID_BAR, lambda: build_bar(mem)[0], label="Bar")
    co_register_class_object(reg, CLSID_BAR, factory)
    assert co_get_class_object(reg, CLSID_BAR) is factory
    ref = co_create_instance(reg, CLSID_BAR, IID_IX)
    assert ref.iid == IID_IX
    release(ref)


def test_duplicate_registration_rejected(mem):
    reg = Registry()
    factory = simple_factory(CLSID_BAR, lambda: build_bar(mem)[0], label="Bar")
    co_register_class_object(reg, CLSID_BAR, factory)
    with pytest.raises(ComError):
        co_register_class_object(reg, CLSID_BAR, factory)


def test_unknown_clsid(mem):
    reg = Registry()
    with pytest.raises(ClassNotRegistered):
        co_get_class_object(reg, CLSID_BAR)
    with pytest.raises(ClassNotRegistered) as exc:
        co_create_instance(reg, CLSID_BAR, IID_IX)
    assert exc.value.hresult == 0x80040154
    assert str(exc.value) == f"class {CLSID_BAR.guid} is not registered"


def test_failed_create_leaves_no_live_object(mem):
    reg = Registry()
    factory = simple_factory(CLSID_BAR, lambda: build_bar(mem)[0], label="Bar")
    co_register_class_object(reg, CLSID_BAR, factory)
    baseline = mem.live_count
    with pytest.raises(NoInterface):
        co_create_instance(reg, CLSID_BAR, IID_NONE)
    assert mem.live_count == baseline


PING = LiftedSig("Ping", (), RetSig("INT", INT32))
BUILDS = {
    "ComObject": lambda obj: ComObject(obj.mem),
    "add_interface": lambda obj: obj.add_interface(IID_IZ, [lambda ws: 0]),
    "make_dual": lambda obj: make_dual([PING], [lambda: 1], obj, IID_IZ,
                                       BindingDesc("Z", "com", "auto")),
}


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("nth", [1, 2])
def test_failed_alloc_leaves_no_block(build, nth):
    mem = FailingMem()
    obj = ComObject(mem)
    before = mem.live_count, mem.closure_count
    mem.fail_in = nth
    with pytest.raises(BadSize, match="injected"):
        BUILDS[build](obj)
    assert (mem.live_count, mem.closure_count) == before
    BUILDS[build](obj)      # nothing of the failed attempt was recorded


@pytest.mark.parametrize("free_pages", [0, 1], ids=["first_alloc", "second_alloc"])
def test_an_object_that_failed_to_build_leaves_nothing_for_the_cycle_collector(free_pages):
    # a heap with no page left fails the vtable's allocation; one page
    # left fails the interface word's
    mem = Mem()
    for _ in range(32_767 - free_pages):
        mem.alloc(1)
    before = mem.live_count, mem.closure_count
    with nothing_for_the_cycle_collector():
        with pytest.raises(BadSize, match="^heap region exhausted$"):
            ComObject(mem)
        # the object itself, as a caller that wraps `__init__` holds it
        obj = ComObject.__new__(ComObject)
        with pytest.raises(BadSize, match="^heap region exhausted$"):
            obj.__init__(mem)
        assert obj.alive is False
        del obj
    assert (mem.live_count, mem.closure_count) == before


CLSID_INNER = Clsid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0005}"), "Inner")
OPS = [LiftedSig(f"Op{i}", (), RetSig("INT", INT32)) for i in range(3)]


def churn_factory(mem, made, fail=None):
    """A factory whose builder is shaped like abi-mix's: an object, a dual
    of three operations, then a second interface of one skeleton.  It adds
    each object it makes to `made`; given an exception class `fail`, it
    raises one once the object is whole, after a nested factory made one
    more."""
    desc = BindingDesc("Z", "com", "auto")

    def build():
        obj = ComObject(mem, CLSID_BAR)
        made.append(obj)
        make_dual(OPS, [lambda: 1, lambda: 2, lambda: 3], obj, IID_IZ, desc)
        obj.add_interface(IID_IX, [marshal.skeleton(PING, lambda: 4, mem, desc)])
        if fail is not None:
            made.append(co_create_instance(reg, CLSID_INNER, IID_IX).owner)
            raise fail("no")
        return obj

    reg = Registry()
    co_register_class_object(reg, CLSID_BAR, simple_factory(CLSID_BAR, build))
    co_register_class_object(reg, CLSID_INNER, simple_factory(
        CLSID_INNER, lambda: build_bar(mem)[0]))
    return reg


def _all_destroyed_and_freed(made):
    """Every object in `made` is destroyed, and freed once `made` lets go."""
    assert [obj.alive for obj in made] == [False] * len(made)
    dead = [weakref.ref(obj) for obj in made]
    made.clear()
    assert [w() for w in dead] == [None] * len(dead)


def test_a_failed_alloc_in_a_factory_build_leaves_the_world_as_it_found_it():
    mem = FailingMem()
    made = []
    reg = churn_factory(mem, made)
    before = mem.live_count, mem.closure_count
    for k in itertools.count(1):
        mem.fail_in = k
        with nothing_for_the_cycle_collector():
            try:
                ref = co_create_instance(reg, CLSID_BAR, IID_IZ)
            except BadSize as exc:
                assert str(exc) == "injected"
            else:
                break
            assert (mem.live_count, mem.closure_count) == before
            _all_destroyed_and_freed(made)
    assert k == 7           # an alloc for each vtable and interface word
    assert get_method(ref, 7)([]) == 1
    release(ref)
    assert (mem.live_count, mem.closure_count) == before


def test_a_factory_destroys_what_a_build_made_before_it_raised(mem):
    made = []
    reg = churn_factory(mem, made, ValueError)
    before = mem.live_count, mem.closure_count
    with nothing_for_the_cycle_collector():
        with pytest.raises(ValueError, match="^no$"):
            co_create_instance(reg, CLSID_BAR, IID_IZ)
        assert len(made) == 2       # the outer object and the nested one
        assert (mem.live_count, mem.closure_count) == before
        _all_destroyed_and_freed(made)


class CountingMem(Mem):
    """A world that counts its `fun_to_addr` registrations."""

    registrations = 0

    def fun_to_addr(self, fn):
        self.registrations += 1
        return super().fun_to_addr(fn)


@pytest.mark.parametrize("methods", [[], [1], [2, 0, 3]], ids=["none", "one", "three"])
def test_an_object_registers_each_iunknown_slot_once(methods):
    mem = CountingMem()
    start = mem.closure_count
    obj = ComObject(mem)
    iids = [Iid(Guid.parse(f"{{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D01{i:02X}}}"), f"I{i}")
            for i in range(len(methods))]
    for iid, m in zip(iids, methods):
        obj.add_interface(iid, [lambda ws: 0 for _ in range(m)])
    assert mem.registrations == 3 + sum(methods)
    vtables = [mem.read(ref.addr, 1)[0]
               for ref in [obj.identity] + [obj._interfaces[iid.guid] for iid in iids]]
    unknown = {tuple(mem.read(vtable, 3)) for vtable in vtables}
    assert len(unknown) == 1
    release(obj.identity)
    assert mem.closure_count == start
    for addr in unknown.pop():
        with pytest.raises(NotCallable):
            mem.call(addr, [0])


def test_kept_iunknown_slots_raise_dead_object_once_the_object_is_destroyed(mem):
    # `get_method` hands out the callable behind a slot, valid while the
    # object lives; slots 0..2 check that it still does
    obj, _ = build_bar(mem)
    ix = obj._interfaces[IID_IX.guid]
    query, release_slot = get_method(ix, 0), get_method(ix, 2)
    iid, out = mem.alloc(4), mem.alloc(1)
    mem.store(iid, IID_IY.guid.to_words())
    release(obj.identity)
    with pytest.raises(DeadObject):
        query([ix.addr, iid, out])
    with pytest.raises(DeadObject):
        release_slot([ix.addr])


def test_destroy_releases_every_closure_but_shared_ones(mem):
    shared = lambda ws: 5  # noqa: E731
    lib = mem.register_library("x.dll")
    addr = mem.register_function(lib, "Shared", shared).addr
    before = mem.closure_count
    obj = ComObject(mem)
    obj.add_interface(IID_IX, [shared])
    obj.add_interface(IID_IY, [shared, lambda ws: 6])
    assert mem.closure_count == before + 4        # qi, addref, release, the lambda
    release(obj.identity)
    assert mem.closure_count == before
    assert mem.call(addr, []) == 5                # the library still holds it


def test_an_object_outliving_its_closed_world_is_still_destroyed(mem):
    obj, _ = build_bar(mem)
    mem.close()
    assert release(obj.identity) == 0
    assert (obj.alive, mem.live_count) == (False, 0)
    with pytest.raises(NotCallable):
        mem.release_closure(mem.fun_to_addr(lambda ws: 0) + 4)


def test_churn_in_one_world_releases_every_object_and_closure():
    """CoCreateInstance, QueryInterface through slot 0 and Release through
    slot 2, 3,000 times in one world: every object is freed without the
    cycle collector, and no closure or block is left behind."""
    mem = Mem()
    reg = Registry()
    desc = BindingDesc("Z", "com", "auto")

    def build():
        obj = ComObject(mem, CLSID_BAR)
        make_dual([PING], [lambda: 1], obj, IID_IZ, desc)
        obj.add_interface(IID_IX, [lambda ws: 0])
        return obj

    co_register_class_object(reg, CLSID_BAR, simple_factory(CLSID_BAR, build))
    closures, live = mem.closure_count, mem.live_count
    dead = []
    gc.disable()
    try:
        for _ in range(3_000):
            ref = co_create_instance(reg, CLSID_BAR, IID_IZ)
            blk, out = mem.alloc(4), mem.alloc(1)
            mem.store(blk, IID_IX.guid.to_words())
            assert mem.call(mem.read(mem.read(ref.addr, 1)[0], 1)[0],
                            [ref.addr, blk, out]) == S_OK
            ix = mem.read(out, 1)[0]
            mem.free(blk)
            mem.free(out)
            for iface, left in ((ix, 1), (ref.addr, 0)):
                vtable = mem.read(iface, 1)[0]
                stale = mem.read(mem.offset(vtable, 2), 1)[0]
                assert mem.call(stale, [iface]) == left
            dead.append(weakref.ref(ref.owner))
            del ref
        assert all(w() is None for w in dead)
    finally:
        gc.enable()
    assert (mem.closure_count, mem.live_count) == (closures, live)
    with pytest.raises(NotCallable):
        mem.call(stale, [iface])


def test_registry_dump_text_is_pinned(mem):
    reg = Registry()
    assert reg.dump() == ""
    unlabelled = Clsid(Guid.parse("{00000000-0000-0000-0000-000000000001}"), "Plain")
    co_register_class_object(reg, CLSID_BAR,
                             simple_factory(CLSID_BAR, lambda: build_bar(mem)[0], label="Bar"))
    co_register_class_object(reg, unlabelled,
                             simple_factory(unlabelled, lambda: build_bar(mem)[0]))
    # one line per class, sorted: the CLSID, then the label or the class's name
    assert reg.dump() == (f"{unlabelled.guid} Plain\n"
                          f"{CLSID_BAR.guid} Bar\n")


def test_a_factory_of_another_class_is_refused(mem):
    other = Clsid(Guid.parse("{00000000-0000-0000-0000-000000000002}"), "B")
    reg = Registry()
    with pytest.raises(ComError) as info:
        co_register_class_object(reg, CLSID_BAR,
                                 simple_factory(other, lambda: build_bar(mem)[0]))
    assert str(info.value) == (f"a factory of class {other.guid} cannot be registered "
                               f"as class {CLSID_BAR.guid}")
    assert reg.dump() == ""


@pytest.mark.parametrize("label,name", [
    ("a\n{00000000-0000-0000-0000-000000000002} B", "Bar"),
    ("", "Bar\tX"),
], ids=["label", "name"])
def test_an_unprintable_dump_text_is_refused(mem, label, name):
    clsid = Clsid(CLSID_BAR.guid, name)
    reg = Registry()
    with pytest.raises(ComError) as info:
        co_register_class_object(reg, clsid, simple_factory(
            clsid, lambda: build_bar(mem)[0], label=label))
    assert str(info.value) == (f"class {CLSID_BAR.guid} has unprintable dump text "
                               f"{(label or name)!r}")
    assert reg.dump() == ""


def test_adding_a_present_interface_is_pinned(mem):
    baseline = mem.live_count
    obj, _ = build_bar(mem)
    counts = (mem.live_count, mem.closure_count)
    with pytest.raises(ComError) as info:
        obj.add_interface(IID_IX, [lambda ws: 0])
    assert str(info.value) == f"interface {IID_IX} already present"
    assert (mem.live_count, mem.closure_count) == counts
    # the object owns no more blocks than before: destroying it frees them all
    release(obj.identity)
    assert mem.live_count == baseline


# -- raw ABI ---------------------------------------------------------------------


def test_raw_vtable_call_matches_query_interface(mem):
    rng = random.Random(0xAB1)
    obj, _ = build_bar(mem)
    ix = obj._interfaces[IID_IX.guid]
    iids = [IID_IX, IID_IY, IID_IUNKNOWN, IID_NONE, IID_IZ]
    for _ in range(100):
        iid = iids[rng.randrange(len(iids))]
        blk = mem.alloc(4)
        out = mem.alloc(1)
        mem.store(blk, iid.guid.to_words())
        hr = mem.addr_to_fun(mem.read(mem.read(ix.addr, 1)[0], 1)[0])(
            [ix.addr, blk, out])
        raw_addr = mem.read(out, 1)[0]
        if hr == 0:
            ref = query_interface(ix, iid)
            assert raw_addr == ref.addr
            release(ref)
            release(ref)  # balance the raw call's reference too
        else:
            assert hr == E_NOINTERFACE and raw_addr == 0
            with pytest.raises(NoInterface):
                query_interface(ix, iid)
        mem.free(blk)
        mem.free(out)


# -- one IUnknown: client helpers and raw slots agree ----------------------------


_IUNKNOWN_OPS = ("qi", "raw_qi", "raw_add_ref", "release", "raw_release")
_QI_TARGETS = (IID_IX, IID_IY, IID_IUNKNOWN, IID_NONE)


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(_IUNKNOWN_OPS), st.integers(0, 99)),
                max_size=40))
def test_client_and_raw_iunknown_interleaved(ops):
    mem = Mem()
    baseline = mem.live_count
    obj, _ = build_bar(mem)
    identity = obj.identity.addr
    slots = [get_method(obj.identity, i) for i in range(3)]   # kept past death
    held = [obj.identity]             # one entry per reference the model owns

    def raw_qi(fn, ref, iid):
        blk, out = mem.alloc(4), mem.alloc(1)
        mem.store(blk, iid.guid.to_words())
        try:
            return fn([ref.addr, blk, out]), mem.read(out, 1)[0]
        finally:
            mem.free(blk)
            mem.free(out)

    for op, pick in ops:
        iid = _QI_TARGETS[pick % len(_QI_TARGETS)]
        if not held:
            ref = obj.identity
            with pytest.raises(DeadObject):
                get_method(ref, 0)
            with pytest.raises(DeadObject):
                {"qi": lambda: query_interface(ref, iid),
                 "raw_qi": lambda: raw_qi(slots[0], ref, iid),
                 "raw_add_ref": lambda: slots[1]([ref.addr]),
                 "release": lambda: release(ref),
                 "raw_release": lambda: slots[2]([ref.addr])}[op]()
            assert mem.live_count == baseline
            continue
        ref = held[pick % len(held)]
        live = mem.live_count
        if op == "qi":
            try:
                got = query_interface(ref, iid)
            except NoInterface:
                got = None
            assert got == obj._interfaces.get(iid.guid)
        elif op == "raw_qi":
            hr, out = raw_qi(get_method(ref, 0), ref, iid)
            got = obj._interfaces.get(iid.guid)
            assert (hr, out) == ((0, got.addr) if got else (E_NOINTERFACE, 0))
        elif op == "raw_add_ref":
            got = ref
            count = get_method(ref, 1)([ref.addr])
            assert count == len(held) + 1
        else:
            fn = get_method(ref, 2) if op == "raw_release" else None
            held.remove(ref)
            got = None
            count = fn([ref.addr]) if fn else release(ref)
            assert count == len(held)
        if got is not None:
            held.append(got)
        if iid == IID_IUNKNOWN and op.endswith("qi"):
            assert got.addr == identity
        assert obj.refcount == len(held)
        assert obj.alive == bool(held)
        assert mem.live_count == (live if held else baseline)
