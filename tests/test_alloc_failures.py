"""Every public runtime operation survives a failed `Mem.alloc` at any step.

As in SQLite's out-of-memory tests, the k-th `alloc` of an operation raises
`BadSize`, for k = 1, 2, … until the operation succeeds.  Each failed
attempt raises only `BadSize`, leaves `live_count` and `closure_count`
where they were, and leaves every object it made and did not return not
`alive` and freed without the cycle collector.  The operations are every
call shape of `tests/test_plan.py`, through `call` on the address of its
`skeleton`; typed and raw Invoke of every Automation kind of
`tests/test_automation.py`; and `ComObject`, `add_interface` and
`make_dual`.  A `BounceDemo` set-up makes no `alloc`, so it has no case.
"""
from __future__ import annotations

import itertools
import weakref

import pytest

import test_automation
import test_com
import test_plan
from conftest import FailingMem, nothing_for_the_cycle_collector
from mlidl import marshal
from mlidl.automation import VT_BSTR, invoke
from mlidl.binding import build_binding
from mlidl.com import ComObject
from mlidl.idl import parse_text
from mlidl.wordmem import BadSize


def fail_each_alloc_in_turn(mem, op):
    """Run `op(made)` with its k-th `alloc` failing, for k = 1, 2, … until
    it returns, and return what it returned.  `op` adds each object it
    makes to `made` before that object can fail."""
    before = mem.live_count, mem.closure_count
    for k in itertools.count(1):
        made = []
        mem.fail_in = k
        with nothing_for_the_cycle_collector():
            try:
                result = op(made)
            except BadSize as exc:
                assert str(exc) == "injected"
            else:
                mem.fail_in = 0
                return result
            assert (mem.live_count, mem.closure_count) == before, f"alloc {k}"
            assert [obj.alive for obj in made] == [False] * len(made)
            dead = [weakref.ref(obj) for obj in made]
            del made
            assert [w() for w in dead] == [None] * len(dead)


@pytest.fixture(scope="module")
def descs(win32_desc):
    shapes = build_binding(parse_text(test_plan.SHAPES_IDL, "shapes.idl"),
                           mode="dynamic", level="auto")
    return {"shapes": shapes, "win32": win32_desc}


def _shape(case):
    def set_up(descs):
        name, args, impl = test_plan.CASES[case]
        desc = descs["shapes"]
        sig = test_plan.op(desc, name)
        mem = FailingMem()
        addr = mem.fun_to_addr(marshal.skeleton(sig, impl, mem, desc))
        return (mem, lambda made: marshal.call(sig, addr, args, mem, desc),
                test_plan.as_results(impl(*args)))
    return set_up


_VALUES = {"int32": -7, "word32": 0xFFFF0000, "handle": 0x1234, "bool": True,
           "enum": "WM_PAINT", "string8": "hello"}


def _invoke(kind, raw):
    def set_up(descs):
        desc = descs["win32"]
        mem = FailingMem()
        _, dual = test_automation.make_kinds(mem, desc)
        dispid = 1 + list(test_automation._KINDS).index(kind)
        value = _VALUES[kind]
        arg = test_automation.kind_variant(kind, value, desc)
        want = test_automation.kind_variant(
            kind, test_automation._KINDS[kind][1](value), desc)
        if not raw:
            return mem, lambda made: invoke(dual, dispid, [arg]), want
        arg_words = test_automation._variant_words(mem, arg)

        def op(made):
            hr, tag, payload = test_automation.raw_invoke(mem, dual, dispid, arg_words)
            if tag == VT_BSTR:
                text = marshal.read_string8(mem, payload)
                mem.free(payload)
                return hr, tag, text
            return hr, tag, payload

        if want.tag == VT_BSTR:
            return mem, op, (0, VT_BSTR, want.value)
        return mem, op, (0, *test_automation._variant_words(mem, want))
    return set_up


def _new_object(mem, made):
    obj = ComObject.__new__(ComObject)
    made.append(obj)
    obj.__init__(mem)
    return obj


def _build(name):
    def set_up(descs):
        mem = FailingMem()
        if name == "ComObject":
            return mem, lambda made: _new_object(mem, made).alive, True
        obj = ComObject(mem)
        return mem, lambda made: test_com.BUILDS[name](obj).iid, test_com.IID_IZ
    return set_up


OPERATIONS = {
    **{f"call-{case}": _shape(case) for case in test_plan.CASES},
    **{f"invoke-{kind}": _invoke(kind, raw=False) for kind in test_automation._KINDS},
    **{f"raw_invoke-{kind}": _invoke(kind, raw=True) for kind in test_automation._KINDS},
    **{f"build-{name}": _build(name) for name in test_com.BUILDS},
}


@pytest.mark.parametrize("case", sorted(OPERATIONS))
def test_a_failed_alloc_at_any_step_leaves_the_world_as_it_found_it(descs, case):
    mem, op, want = OPERATIONS[case](descs)
    assert fail_each_alloc_in_turn(mem, op) == want
