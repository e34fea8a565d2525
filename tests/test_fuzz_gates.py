"""Fuzz gates on the input boundaries: a mutated manifest and a one-character
edit of a shipped IDL file fail only with the compiler's own error classes,
and raw Invoke and GetIDsOfNames words fail only with an HRESULT or the
runtime's own error classes, leaving no block behind, and so do the raw
words of the stub of every shipped operation, and of two operations whose
results hand the caller a block or a registration."""

from __future__ import annotations

import copy
import json
import tracemalloc

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hs

from conftest import IDL_DIR, REPO
from mlidl import semtypes as st
from mlidl.automation import (VT_BOOL, VT_BSTR, VT_DISPATCH, VT_EMPTY, VT_I4, VT_UI4,
                              VT_UNKNOWN, make_dual)
from mlidl.binding import (
    BindingError,
    SchemaViolation,
    build_binding,
    emit_binding_file,
    emit_sig_text,
    load_binding_file,
)
from mlidl.binding.model import BindingDesc, LiftedSig, ParamSig, RetSig
from mlidl.com import S_OK, ComError, ComObject, Guid, Iid, get_method
from mlidl.idl import IdlError, parse_text
from mlidl.marshal import (MarshalError, abi_arity, codec_of, pack_string8, plan_of,
                           skeleton)
from mlidl.wordmem import CLOSURE_BASE, Mem, MemFault


def pack_string16(mem, s):
    words = []
    codec_of(st.STRING16).pack(mem, s, words, [])
    return words[0]


_GUID = "{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D00FF}"

# Replacement and added values: every JSON kind, text that is not a GUID,
# and GUID text.
_VALUES = [None, 0, -1, 1 << 40, 1.5, True, False, [], [1], [_GUID], {}, {"IX": _GUID},
           {"IX": 5}, "", "nope", "IX", _GUID, _GUID.lower(), _GUID.strip("{}")]
_KEYS = ["iids", "clsids", "IX", "IY", "IZ", "Bar", "x", ""]


def _node_paths(x, path=()):
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _node_paths(v, path + (k,))


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
def test_mutated_manifest_raises_only_binding_error(bar_unit, bar_manifest, data):
    m = copy.deepcopy(bar_manifest)
    op = data.draw(hs.sampled_from(["replace", "delete", "add"]))
    if op == "replace":
        path = data.draw(hs.sampled_from([()] + list(_node_paths(m))))
        value = data.draw(hs.sampled_from(_VALUES))
        if path:
            _owner(m, path)[path[-1]] = value
        else:
            m = value
    elif op == "delete":
        path = data.draw(hs.sampled_from(list(_node_paths(m))))
        del _owner(m, path)[path[-1]]
    else:
        dicts = [()] + [p for p in _node_paths(m) if isinstance(_owner(m, p)[p[-1]], dict)]
        where = data.draw(hs.sampled_from(dicts))
        target = _owner(m, where)[where[-1]] if where else m
        target[data.draw(hs.sampled_from(_KEYS))] = data.draw(hs.sampled_from(_VALUES))
    try:
        desc = build_binding(bar_unit, "com", manifest=m)
    except BindingError:
        return
    assert load_binding_file(emit_binding_file(desc)) == desc


def _owner(doc, path):
    for k in path[:-1]:
        doc = doc[k]
    return doc


# -- one-character edits of the shipped IDL, through the whole pipeline -------

_SHIPPED = [
    (IDL_DIR / "win32.idl", "dynamic"),
    (IDL_DIR / "time.idl", "static"),
    (IDL_DIR / "bar.idl", "com"),
    (REPO / "src" / "mlidl" / "winsim" / "data" / "win32sim.idl", "dynamic"),
]
_TEXTS = {path.name: path.read_text(encoding="utf-8") for path, _ in _SHIPPED}
_MODES = {path.name: mode for path, mode in _SHIPPED}

# Characters that open, close or continue a lexeme or a declaration, some
# that no rule takes, and digits that `str.isdigit` accepts but `int` does
# not ("²", "①"), beside one it does ("٣").
_WIDE_CHARS = "azAZ_09wx/*\"'\\\n\t {}[]();,=&:<>-+.#$@é€²³¹①٣\x00\ud800"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=hs.sampled_from(sorted(_TEXTS)), at=hs.integers(0, 1 << 20),
       op=hs.sampled_from(["insert", "delete", "replace"]),
       ch=hs.sampled_from(_WIDE_CHARS))
def test_one_character_edit_of_shipped_idl_raises_only_compiler_errors(
        bar_manifest, name, at, op, ch):
    text = _TEXTS[name]
    i = at % len(text)
    text = text[:i] + ("" if op == "delete" else ch) + text[i + (op != "insert"):]
    mode = _MODES[name]
    try:
        desc = build_binding(parse_text(text, name), mode=mode,
                             manifest=bar_manifest if mode == "com" else None)
        emit_sig_text(desc)
        bfile = emit_binding_file(desc)
        assert bfile == json.dumps(json.loads(bfile), indent=2) + "\n"
        loaded = load_binding_file(bfile)
    except (IdlError, BindingError, SchemaViolation):
        return
    assert loaded == desc and emit_binding_file(loaded) == bfile


# -- raw Invoke (slot 6) and GetIDsOfNames (slot 5) words ----------------------

_IID_IFUZZ = Iid(Guid.parse("{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0030}"), "IFuzz")
_INT = ParamSig("k", "Int32.int", st.INT32)
_MEMBERS = [
    (LiftedSig("Num", (_INT,), RetSig("Int32.int", st.INT32)), lambda k: k + 1),
    (LiftedSig("Len", (ParamSig("s", "STRING", st.STRING8),), RetSig("Int32.int", st.INT32)),
     len),
    (LiftedSig("Name", (_INT,), RetSig("STRING", st.STRING8)), lambda k: "n" * (k & 7)),
]
# blocks of the world, by name, with their sizes in words; "text" is the
# string "Len" (one word) and "name" the string "name" (two words)
_BLOCKS = {"dp": 2, "rgvarg": 4, "names": 2, "result": 2, "out": 2}
# any word: a block address, one word into a block, the interface pointer,
# a small int or any 32-bit word
_WORD = hs.one_of(
    hs.sampled_from(sorted(_BLOCKS) + [f"{b}+1" for b in sorted(_BLOCKS)]
                    + ["text", "name", "this"]),
    hs.integers(0, 20), hs.integers(0, 2**32 - 1))
_TAGS = [VT_EMPTY, VT_I4, VT_UI4, VT_BOOL, VT_BSTR, VT_DISPATCH, VT_UNKNOWN]


@hs.composite
def _words(draw, *sensible):
    """The words of a well-formed call, one drawn from each strategy, with
    up to three of them replaced by any word."""
    words = [draw(s) for s in sensible]
    for i, w in draw(hs.dictionaries(hs.integers(0, len(words) - 1), _WORD,
                                     max_size=3)).items():
        words[i] = w
    return tuple(words)


def _fuzz_world(contents):
    mem = Mem()
    dual = make_dual([sig for sig, _ in _MEMBERS], [impl for _, impl in _MEMBERS],
                     ComObject(mem), _IID_IFUZZ, BindingDesc("Fuzz", "com", "auto"))
    addrs = {"this": dual.addr, "text": pack_string8(mem, "Len"),
             "name": pack_string8(mem, "name")}
    for name, size in _BLOCKS.items():
        addrs[name] = mem.alloc(size)
        addrs[f"{name}+1"] = mem.offset(addrs[name], 1)

    def word(w):
        return addrs[w] if isinstance(w, str) else w

    for name, ws in contents.items():
        mem.store(addrs[name], [word(w) for w in ws])
    return mem, dual, word


def _call_slot(slot, words, contents):
    """Call vtable slot `slot` with `words`: only an HRESULT or a runtime
    error comes out, and `live_count` comes back once a BSTR handed back
    through Invoke's result slot is freed."""
    mem, dual, word = _fuzz_world(contents)
    args = [word(w) for w in words]
    live = mem.live_count
    try:
        hr = mem.call(mem.fun_to_addr(get_method(dual, slot)), args)
    except (MemFault, MarshalError, ComError):
        hr = None
    if slot == 6 and hr == S_OK and args[6]:
        tag, payload = mem.read(args[6], 2)
        if tag == VT_BSTR:          # the caller owns a BSTR handed back
            mem.free(payload)
    assert mem.live_count == live


_NAME_CALL = ["this", 3, 0, 0, 0, "dp", "result", 0, "out"]


@settings(max_examples=400, deadline=None)
@given(words=_words(hs.just("this"), hs.sampled_from([1, 2, 3]), hs.just(0), hs.just(0),
                    hs.just(1), hs.just("dp"),
                    # no result wanted, a result slot, or one a word short
                    hs.sampled_from([0, "result", "result+1"]), hs.just(0),
                    hs.just("out")),
       dp=_words(hs.just(1), hs.just("rgvarg")),
       rgvarg=_words(hs.sampled_from(_TAGS), hs.sampled_from([3, "text", "name"]),
                     hs.sampled_from(_TAGS), hs.sampled_from([3, "text", "name"])))
# a string handed back through a result slot that faults on the store
@example(words=_NAME_CALL[:6] + [0x0FFFFFFC] + _NAME_CALL[7:], dp=(1, "rgvarg"),
         rgvarg=(VT_I4, 3, 0, 0))
@example(words=_NAME_CALL[:6] + ["result+1"] + _NAME_CALL[7:], dp=(1, "rgvarg"),
         rgvarg=(VT_I4, 3, 0, 0))
@example(words=_NAME_CALL, dp=(1, "rgvarg"), rgvarg=(VT_I4, 3, 0, 0))
def test_raw_invoke_words_fail_only_with_an_hresult_or_runtime_errors(words, dp, rgvarg):
    _call_slot(6, words, {"dp": dp, "rgvarg": rgvarg})


@settings(max_examples=200, deadline=None)
@given(words=_words(hs.just("this"), hs.just(0), hs.just("names"), hs.sampled_from([0, 1, 2]),
                    hs.just(0), hs.just("out")),
       names=_words(hs.sampled_from(["text", "name"]), hs.sampled_from(["text", "name"])))
@example(words=("this", 0, "names", 2, 0, "out"), names=("text", "name"))
def test_raw_get_ids_of_names_words_fail_only_with_an_hresult_or_runtime_errors(words, names):
    _call_slot(5, words, {"names": names})


# -- raw words into the skeleton stub of every shipped operation ----------------


def _callback(words):
    return 0


def _valid(sem, desc):
    """A host value of semantic type `sem` that its codec packs."""
    if sem.kind == "bool":
        return False
    if sem.kind in ("string8", "string16"):
        return "ok"
    if sem.kind == "enum":
        return desc.enum(sem.name).variants[0][0]
    if sem.kind == "record":
        return {f.name: _valid(f.sem, desc) for f in desc.record(sem.name).fields}
    if sem.kind == "callback":
        return _callback
    return 0


def _host(sig, desc):
    """An implementation of `sig` that takes any in-values and returns a
    valid value for each result."""
    results = tuple(_valid(r.sem, desc) for r in sig.results)
    value = None if not results else results[0] if len(results) == 1 else results
    return lambda *ins: value


# no shipped result is a string or a callback: these hand the caller a block
# or a registration, and the stub gives back what it packed for an earlier
# result when a later one fails to store
_GIVE_BACK_IDL = """
typedef [string] char *STRING;
typedef int *CB ([in] int a);
interface GiveBack {
  void Two ([out] STRING *s, [out] int *n);
  CB Hook ([in] int k);
}
"""

_STUB_OPS = []
for _path, _mode in [(IDL_DIR / "win32.idl", "dynamic"), (IDL_DIR / "time.idl", "static"),
                     (REPO / "src" / "mlidl" / "winsim" / "data" / "win32sim.idl", "dynamic")]:
    _desc = build_binding(parse_text(_path.read_text(encoding="utf-8"), _path.name), mode=_mode)
    _STUB_OPS += [(_desc, op) for iface in _desc.interfaces for op in iface.ops]
_desc = build_binding(parse_text(_GIVE_BACK_IDL, "give_back.idl"), mode="dynamic")
_TWO, _HOOK = len(_STUB_OPS), len(_STUB_OPS) + 1
_STUB_OPS += [(_desc, op) for op in _desc.interfaces[0].ops]
# one more word than the widest operation takes
_WORDS = max(abi_arity(op, desc) for desc, op in _STUB_OPS) + 1

# blocks and a closure of the world, by name: two strings, a short and a long
# block, one word into the short one, and a registered closure
_STUB_ADDRS = ["str8", "str16", "short", "long", "short+1", "fn"]
_HOSTILE = [True, False, -1, -2**31 - 1, 2**32, 2**32 + 5, -2**40, 2**63]
# any word: one of those, null or a small int, a count up to 2**31, any
# 32-bit word, or a hostile one (a bool, or an int outside every word)
_STUB_WORD = hs.one_of(
    hs.sampled_from(_STUB_ADDRS), hs.integers(0, 20), hs.integers(0, 2**31),
    hs.integers(0, 2**32 - 1), hs.sampled_from(_HOSTILE))
# the word of a result's address: a block of its own by name, or a word that
# names no heap block, so that no result overwrites another
_RESULT_WORD = hs.one_of(
    hs.sampled_from(_STUB_ADDRS), hs.integers(0, 20), hs.integers(CLOSURE_BASE, 2**32 - 1),
    hs.sampled_from(_HOSTILE))
# the tracemalloc peak of one stub call; a valid call of a shipped operation
# takes a few kB, and a count the stub does not bound takes far more
_STUB_PEAK_BYTES = 1 << 20


def _named(mem, name, blocks):
    """The address `name` stands for, from `blocks`, made on first use."""
    base = name.removesuffix("+1")
    if base not in blocks:
        blocks[base] = (pack_string8(mem, "text") if base == "str8"
                        else pack_string16(mem, "text") if base == "str16"
                        else mem.fun_to_addr(lambda ws: 0) if base == "fn"
                        else mem.alloc(4 if base == "short" else 64))
    return blocks[base] if base == name else mem.offset(blocks[base], 1)


@settings(max_examples=400, deadline=None)
@given(at=hs.integers(0, len(_STUB_OPS) - 1),
       # the right arity three times in four, else one word short or over
       skew=hs.sampled_from([0] * 6 + [-1, 1]),
       ins=hs.lists(_STUB_WORD, min_size=_WORDS, max_size=_WORDS),
       results=hs.lists(_RESULT_WORD, min_size=_WORDS, max_size=_WORDS))
# the string is stored, then the int's store faults
@example(at=_TWO, skew=0, ins=[0] * _WORDS, results=["short", 0] + [0] * (_WORDS - 2))
@example(at=_TWO, skew=0, ins=[0] * _WORDS, results=["short", "long"] + [0] * (_WORDS - 2))
@example(at=_HOOK, skew=0, ins=[0] * _WORDS, results=[0] * _WORDS)
def test_raw_stub_words_fail_only_with_runtime_errors(at, skew, ins, results):
    desc, sig = _STUB_OPS[at]
    mem = Mem()
    stub = skeleton(sig, _host(sig, desc), mem, desc)
    plan = plan_of(sig, desc)
    outs = {step.at: step.codec for step in plan.steps if step.dir != "in"}
    shared, words = {}, []
    for i in range(max(plan.arity + skew, 0)):
        w = results[i] if i in outs else ins[i]
        words.append(_named(mem, w, {} if i in outs else shared) if isinstance(w, str) else w)
    before = (mem.live_count, mem.closure_count)
    tracemalloc.start()
    try:
        ret = stub(words)
    except (MarshalError, MemFault):
        ret = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < _STUB_PEAK_BYTES
    if ret is not None:
        # take what the call handed over, as `call` does, and give it back
        owned = []
        for i, codec in outs.items():
            codec.unpack(mem, mem.read(words[i], codec.width), 0, owned)
        if plan.ret is not None:
            plan.ret.unpack(mem, (ret,), 0, owned)
        mem.give_back(owned)
    assert (mem.live_count, mem.closure_count) == before
