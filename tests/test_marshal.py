from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from mlidl import semtypes as st
from mlidl.binding.model import BindingDesc, LiftedSig, ParamSig, RetSig
from mlidl.marshal import (
    ArityMismatch,
    BadString,
    DecodeError,
    TypeMismatch,
    Unsupported,
    abi_arity,
    call,
    codec_of,
    pack_string8,
    read_string8,
    skeleton,
)
from mlidl.wordmem import Mem, OutOfBounds


def sig_of(desc, iface, name):
    return next(o for o in desc.interface(iface).ops if o.name == name)


def packed(v, t, mem, desc=None):
    """The words of `v` under the codec of `t`."""
    words: list[int] = []
    codec_of(t, desc).pack(mem, v, words, [])
    return words


def unpacked(words, t, mem, desc=None):
    """The value of `words`, as many as `t` takes, under the codec of `t`."""
    codec = codec_of(t, desc)
    assert len(words) == codec.width
    return codec.unpack(mem, words, 0, None)


def pack_string16(mem, s):
    return packed(s, st.STRING16, mem)[0]


def read_string16(mem, addr):
    return unpacked([addr], st.STRING16, mem)


# -- layout ---------------------------------------------------------------------


def test_layout_examples(win32_desc):
    assert codec_of(st.SemType("record", name="POINT"), win32_desc).width == 2
    assert codec_of(st.SemType("record", name="WNDCLASSEX"), win32_desc).width == 12
    assert codec_of(st.BOOL).width == 1
    assert codec_of(st.INT32).width == 1
    assert codec_of(st.STRING8).width == 1
    assert codec_of(st.SemType("callback", name="WNDPROC")).width == 1
    assert codec_of(st.SemType("array", elem=st.INT32, len_from="n")).width == 1
    assert codec_of(st.SemType("record", name="IID")).width == 4


def test_layout_unknown_record(win32_desc):
    from mlidl.marshal import MarshalError
    with pytest.raises(MarshalError):
        codec_of(st.SemType("record", name="NOPE"), win32_desc)


def test_a_null_string_address_reads_as_the_empty_string(mem):
    assert read_string8(mem, 0) == read_string16(mem, 0) == ""


def test_an_array_semantic_type_needs_its_element_and_count():
    for partial in ({"elem": st.INT32}, {"len_from": "n"}):
        with pytest.raises(ValueError) as exc:
            st.SemType("array", **partial)
        assert str(exc.value) == "array semantic type needs elem and len_from"


# -- scalar and record marshalling ---------------------------------------------


def test_bool_marshals_to_one_word(mem):
    assert packed(True, st.BOOL, mem) == [1]
    assert packed(False, st.BOOL, mem) == [0]


def test_any_nonzero_unmarshals_true(mem):
    assert unpacked([2], st.BOOL, mem) is True
    assert unpacked([0], st.BOOL, mem) is False


def test_point_field_order(mem, win32_desc):
    words = packed({"x": 3, "y": 4}, st.SemType("record", name="POINT"), mem, win32_desc)
    assert words == [3, 4]


def test_record_field_set_must_match(mem, win32_desc):
    point = st.SemType("record", name="POINT")
    with pytest.raises(TypeMismatch):
        packed({"x": 3}, point, mem, win32_desc)
    with pytest.raises(TypeMismatch):
        packed({"x": 3, "y": 4, "z": 5}, point, mem, win32_desc)


def test_int32_range(mem):
    assert packed(-1, st.INT32, mem) == [0xFFFFFFFF]
    assert packed(0x80000000, st.INT32, mem) == [0x80000000]
    with pytest.raises(TypeMismatch):
        packed(2**32, st.INT32, mem)
    with pytest.raises(TypeMismatch):
        packed(True, st.INT32, mem)
    assert unpacked([0xFFFFFFFF], st.INT32, mem) == -1
    assert unpacked([0xFFFFFFFF], st.WORD32, mem) == 0xFFFFFFFF


def test_enum_marshal_through_map(mem, win32_desc):
    opts = st.SemType("enum", name="OPTS")
    assert packed("CS_HREDRAW", opts, mem, win32_desc) == [2]
    assert unpacked([2], opts, mem, win32_desc) == "CS_HREDRAW"
    with pytest.raises(DecodeError):
        unpacked([0x12345], opts, mem, win32_desc)
    with pytest.raises(TypeMismatch):
        packed("NOPE", opts, mem, win32_desc)


def test_string_pack_little_endian(mem):
    words = packed("ab", st.STRING8, mem)
    addr = words[0]
    assert mem.read(addr, 1)[0] == 0x00006261
    assert read_string8(mem, addr) == "ab"
    mem.free(addr)


def test_string_nul_rejected(mem):
    with pytest.raises(BadString):
        pack_string8(mem, "a\x00b")
    with pytest.raises(BadString):
        pack_string16(mem, "a\x00b")


@pytest.mark.parametrize("value", [5, b"ab", None])
def test_pack_string8_of_a_non_string_is_a_type_mismatch(mem, value):
    with pytest.raises(TypeMismatch, match="^expected a string, got "):
        pack_string8(mem, value)
    assert mem.live_count == 0


@pytest.mark.parametrize("pack", [pack_string8, pack_string16])
def test_lone_surrogate_is_bad_string(mem, pack):
    with pytest.raises(BadString, match="not encodable"):
        pack(mem, "a\ud800")
    assert mem.live_count == 0


def test_lone_surrogate_in_a_bound_call_is_bad_string_and_leaks_nothing(mem):
    sig = LiftedSig("Two", (ParamSig("a", "String.string", st.STRING8),
                            ParamSig("b", "String.string", st.STRING8)),
                    RetSig("Int32.int", st.INT32))
    hits = []
    before = mem.live_count
    with pytest.raises(BadString):
        call(sig, lambda ws: hits.append(ws) or 0, ["ok", "x\ud800"], mem,
             BindingDesc("Test", "dynamic", "auto"))
    assert hits == [] and mem.live_count == before


def test_string16_round_trip(mem):
    addr = pack_string16(mem, "héllo wörld")
    assert read_string16(mem, addr) == "héllo wörld"
    mem.free(addr)


def test_empty_strings(mem):
    a8 = pack_string8(mem, "")
    a16 = pack_string16(mem, "")
    assert read_string8(mem, a8) == ""
    assert read_string16(mem, a16) == ""
    mem.free(a8)
    mem.free(a16)


def _reference_words8(s):
    """string8 packed a byte at a time: the words the codec must store."""
    data = s.encode("utf-8") + b"\x00"
    nwords = (len(data) + 3) // 4
    data = data.ljust(nwords * 4, b"\x00")
    return [int.from_bytes(data[i:i + 4], "little") for i in range(0, len(data), 4)]


def _reference_words16(s):
    """string16 packed a UTF-16 unit at a time: the words the codec must store."""
    raw = s.encode("utf-16-le")
    units = [int.from_bytes(raw[i:i + 2], "little") for i in range(0, len(raw), 2)]
    units.append(0)
    if len(units) % 2:
        units.append(0)
    return [units[i] | (units[i + 1] << 16) for i in range(0, len(units), 2)]


_STRINGS = [(pack_string8, read_string8, _reference_words8),
            (pack_string16, read_string16, _reference_words16)]


@settings(max_examples=200, deadline=None)
@given(text=hs.text(hs.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")))
@example(text="A\u4100")        # units 0041 4100: bytes 41 00 00 41, zero bytes but no NUL unit
@example(text="\U0001d11e\U0010ffff")
@pytest.mark.parametrize("pack, read, reference", _STRINGS, ids=["string8", "string16"])
def test_strings_pack_to_the_reference_words_and_read_back(pack, read, reference, text):
    ops: list[str] = []
    mem = Mem(trace=lambda line: ops.append(line.split(" ", 1)[0]))
    addr = pack(mem, text)
    assert ops == ["alloc", "store"]
    want = reference(text)
    assert mem.read_rest(addr) == want          # the block is exactly these words
    ops.clear()
    assert read(mem, addr) == text
    assert ops == ["read"]


@pytest.mark.parametrize("kind, read", [("string8", read_string8), ("string16", read_string16)])
def test_string_with_no_nul_in_its_block_does_not_run_into_the_next(mem, kind, read):
    full = mem.alloc(1024)          # one whole page: the next block starts where it ends
    mem.store(full, [0x41414141] * 1024)
    after = pack_string8(mem, "BBBB")
    assert after == mem.offset(full, 1024)
    for at in (full, mem.offset(full, 1023)):
        with pytest.raises(OutOfBounds, match=rf"^{kind} at {at:#x} has no NUL"):
            read(mem, at)
    assert read_string8(mem, after) == "BBBB"
    mem.free(after)
    mem.free(full)


def test_string16_nul_is_a_whole_aligned_unit(mem):
    addr = mem.alloc(2)
    mem.store(addr, [0x41000041, 0x41414141])   # bytes 41 00 00 41 41 41 41 41
    assert read_string8(mem, addr) == "A"
    with pytest.raises(OutOfBounds, match="string16"):
        read_string16(mem, addr)
    mem.free(addr)


@pytest.mark.parametrize("sem, reader, bad", [
    (st.STRING8, read_string8, 0x000000FF),     # bytes ff 00: not UTF-8
    (st.STRING16, read_string16, 0x0000D800),   # a lone surrogate
])
def test_bad_string_bytes_raise_decode_error(mem, sem, reader, bad):
    addr = mem.alloc(1)
    mem.store(addr, [bad])
    where = rf"^{sem.kind} at {addr:#x} is not valid "
    with pytest.raises(DecodeError, match=where):
        reader(mem, addr)
    take = LiftedSig("Take", (ParamSig("s", "STRING", sem),), RetSig("INT", st.INT32))
    stub = skeleton(take, lambda s: len(s), mem, BindingDesc("Test", "dynamic", "auto"))
    with pytest.raises(DecodeError, match=where):
        stub([addr])
    mem.free(addr)


def test_callback_identity(mem):
    fn = lambda ws: 7  # noqa: E731
    words = packed(fn, st.SemType("callback", name="CB"), mem)
    assert unpacked(words, st.SemType("callback", name="CB"), mem) is fn
    assert packed(None, st.SemType("callback", name="CB"), mem) == [0]
    assert unpacked([0], st.SemType("callback", name="CB"), mem) is None


def test_record_round_trip_random(mem, win32_desc):
    rng = random.Random(7)
    for _ in range(200):
        v = {"left": rng.randint(-2**31, 2**31 - 1),
             "top": rng.randint(-2**31, 2**31 - 1),
             "right": rng.randint(-2**31, 2**31 - 1),
             "bottom": rng.randint(-2**31, 2**31 - 1)}
        t = st.SemType("record", name="RECT")
        assert unpacked(packed(v, t, mem, win32_desc), t, mem, win32_desc) == v


def test_scalar_round_trip_random(mem, win32_desc):
    rng = random.Random(8)
    kinds = [st.INT32, st.WORD32, st.BOOL, st.HANDLE, st.OPAQUE]
    for _ in range(500):
        t = kinds[rng.randrange(len(kinds))]
        if t.kind == "bool":
            v = rng.random() < 0.5
        elif t.kind == "int32":
            v = rng.randint(-2**31, 2**31 - 1)
        else:
            v = rng.getrandbits(32)
        assert unpacked(packed(v, t, mem, win32_desc), t, mem, win32_desc) == v


def test_packed_record_fields_match_layout_offsets(mem, win32_desc):
    layout = win32_desc.record("PAINTSTRUCT")
    ps = {"hdc": 9, "fErase": True,
          "rcPaint": {"left": 1, "top": 2, "right": 3, "bottom": 4}}
    words = packed(ps, st.SemType("record", name="PAINTSTRUCT"), mem, win32_desc)
    addr = mem.alloc(layout.size)
    mem.store(addr, words)
    for f in layout.fields:
        width = codec_of(f.sem, win32_desc).width
        got = mem.read(mem.offset(addr, f.offset), width)
        assert got == words[f.offset:f.offset + width]
    mem.free(addr)


# -- call driver -------------------------------------------------------------


def test_gettime_call_against_stub(mem, time_desc):
    gettime = sig_of(time_desc, "Time", "gettime")

    def stub(words):
        assert len(words) == 3
        for i, addr in enumerate(words):
            mem.store(addr, [2 * i + 1, 2 * i + 2])
        return 0

    before = mem.live_count
    results = call(gettime, stub, [], mem, time_desc)
    assert results == [{"sec": 1, "usec": 2}, {"sec": 3, "usec": 4},
                       {"sec": 5, "usec": 6}]
    assert mem.live_count == before


def test_showwindow_spy_receives_declaration_order(mem, win32_desc):
    sw = sig_of(win32_desc, "User", "ShowWindow")
    seen = []

    def spy(words):
        seen.append(list(words))
        return 1

    results = call(sw, spy, [5, 1], mem, win32_desc)
    assert seen == [[5, 1]]
    assert results == [True]


def test_mixed_out_positions_follow_declaration_order(mem, win32_desc):
    bp = sig_of(win32_desc, "User", "BeginPaint")
    seen = []

    def stub(words):
        seen.append(list(words))
        hwnd, ps_addr = words
        mem.store(ps_addr, [11, 1, 0, 0, 500, 300])
        return 77

    results = call(bp, stub, [4], mem, win32_desc)
    assert seen[0][0] == 4
    assert results[0]["hdc"] == 11
    assert results[0]["rcPaint"]["right"] == 500
    assert results[1] == 77


def test_call_wrong_in_count(mem, win32_desc):
    sw = sig_of(win32_desc, "User", "ShowWindow")
    with pytest.raises(ArityMismatch):
        call(sw, lambda ws: 1, [5], mem, win32_desc)


def test_symbol_arity_checked(mem, win32_desc):
    sw = sig_of(win32_desc, "User", "ShowWindow")
    lib = mem.register_library("user32.dll")
    sym = mem.register_function(lib, "ShowWindow", lambda ws: 1,
                                convention="pascal", arity=3)
    with pytest.raises(ArityMismatch) as exc:
        call(sw, sym, [5, 1], mem, win32_desc)
    assert "pascal" in str(exc.value)


def test_marshal_error_aborts_before_invoking(mem, win32_desc):
    sw = sig_of(win32_desc, "User", "ShowWindow")
    hits = []

    def spy(words):
        hits.append(1)
        return 1

    before = mem.live_count
    with pytest.raises(TypeMismatch):
        call(sw, spy, [5, "not an int"], mem, win32_desc)
    assert hits == []
    assert mem.live_count == before


def test_call_leaks_nothing_with_strings_and_records(mem, win32_desc):
    rc = sig_of(win32_desc, "User", "RegisterClassExA")
    wc = {"cbSize": 48, "style": 3, "lpfnWndProc": (lambda ws: 0),
          "cbClsExtra": 0, "cbWndExtra": 0, "hInstance": 0, "hIcon": 1,
          "hCursor": 2, "hbrBackground": 3, "lpszMenuName": "",
          "lpszClassName": "C", "hIconSm": 1}
    before = mem.live_count
    results = call(rc, lambda ws: 1, [wc], mem, win32_desc)
    assert results == [1]
    assert mem.live_count == before


def test_array_call_packs_elements(mem, win32_desc):
    poly = sig_of(win32_desc, "Gdi", "PolyLineTo")
    pts = [{"x": 1, "y": 2}, {"x": 3, "y": 4}]
    seen = []

    def spy(words):
        seen.append(list(words))
        assert mem.read(words[1], 4) == [1, 2, 3, 4]
        return 1

    before = mem.live_count
    call(poly, spy, [9, pts, 2], mem, win32_desc)
    assert len(seen[0]) == 3
    assert mem.live_count == before


def test_array_length_cross_checked(mem, win32_desc):
    poly = sig_of(win32_desc, "Gdi", "PolyLineTo")
    with pytest.raises(TypeMismatch):
        call(poly, lambda ws: 1, [9, [{"x": 1, "y": 2}], 5], mem, win32_desc)


def test_abi_arity(win32_desc, time_desc):
    assert abi_arity(sig_of(win32_desc, "User", "CreateWindowExA"), win32_desc) == 12
    assert abi_arity(sig_of(win32_desc, "User", "BeginPaint"), win32_desc) == 2
    assert abi_arity(sig_of(time_desc, "Time", "gettime"), time_desc) == 3


def test_inline_record_param():
    # a record passed by value occupies its full width in the word list
    mem = Mem()
    pt = ParamSig("pt", "POINT", st.SemType("record", name="POINT"), dir="in", byref=False)
    n = ParamSig("n", "Int32.int", st.INT32, dir="in")
    sig = LiftedSig("f", (pt, n), RetSig("Int32.int", st.INT32))
    from conftest import read_idl
    from mlidl.binding import build_binding
    from mlidl.idl import parse_text
    desc = build_binding(parse_text(read_idl("win32.idl"), "w"), "dynamic", "auto")
    assert abi_arity(sig, desc) == 3
    seen = []

    def spy(words):
        seen.append(list(words))
        return 9

    results = call(sig, spy, [{"x": 5, "y": 6}, 7], mem, desc)
    assert seen == [[5, 6, 7]]
    assert results == [9]
    # and the skeleton decodes it back
    stub = skeleton(sig, lambda p, k: p["x"] + p["y"] + k, mem, desc)
    assert call(sig, stub, [{"x": 5, "y": 6}, 7], mem, desc) == [18]


def test_inout_param_round_trip(mem, win32_desc):
    p = ParamSig("pt", "POINT", st.SemType("record", name="POINT"), dir="inout", byref=True)
    sig = LiftedSig("bump", (p,), None)
    stub = skeleton(sig, lambda pt: ({"x": pt["x"] + 1, "y": pt["y"] + 1},),
                    mem, win32_desc)
    before = mem.live_count
    results = call(sig, stub, [{"x": 1, "y": 2}], mem, win32_desc)
    assert results == [{"x": 2, "y": 3}]
    assert mem.live_count == before


# -- skeleton -------------------------------------------------------------------


def test_skeleton_unpacks_strings_and_arrays(mem, win32_desc):
    poly = sig_of(win32_desc, "Gdi", "PolyLineTo")
    got = []

    def impl(hdc, pts, n):
        got.append((hdc, pts, n))
        return True

    stub = skeleton(poly, impl, mem, win32_desc)
    results = call(poly, stub, [3, [{"x": 9, "y": 8}], 1], mem, win32_desc)
    assert got == [(3, [{"x": 9, "y": 8}], 1)]
    assert results == [True]


EMPTY_ARRAY_IDL = ("typedef struct tagE { } E;\ninterface I {\n"
                   "  void Take ([in] int n, [in, size_is(n)] E *a);\n}")


@pytest.mark.parametrize("n", [0, 2])
def test_skeleton_unpacks_an_array_of_empty_records(mem, n):
    from mlidl.binding import build_binding
    from mlidl.idl import parse_text
    desc = build_binding(parse_text(EMPTY_ARRAY_IDL), "dynamic", "auto")
    take = sig_of(desc, "I", "Take")
    got = []
    stub = skeleton(take, lambda count, a: got.append((count, a)), mem, desc)
    assert call(take, stub, [n, [{}] * n], mem, desc) == []
    assert got == [(n, [{}] * n)]
    assert mem.live_count == 0


@pytest.mark.parametrize("count", [2, 100000, 0x7FFFFFFF])
def test_a_raw_count_of_empty_records_is_bounded_by_its_block(mem, count):
    # an element that takes no words holds one word of the block: without
    # it, a raw [100000, a] would hand the implementation 100,000 dicts
    from mlidl.binding import build_binding
    from mlidl.idl import parse_text
    desc = build_binding(parse_text(EMPTY_ARRAY_IDL), "dynamic", "auto")
    got = []
    stub = skeleton(sig_of(desc, "I", "Take"), lambda n, a: got.append(a), mem, desc)
    a = mem.alloc(1)
    stub([1, a])
    assert got == [[{}]]
    with pytest.raises(OutOfBounds):
        stub([count, a])
    assert got == [[{}]]
    mem.free(a)
    assert mem.live_count == 0


@pytest.mark.parametrize("count", [2, 100000, 0x7FFFFFFF])
def test_a_raw_array_count_is_bounded_by_its_block(mem, count):
    from mlidl.binding import build_binding
    from mlidl.idl import parse_text
    desc = build_binding(parse_text("typedef struct tagP { int x; } P;\ninterface I {\n"
                                    "  void Take ([in] int n, [in, size_is(n)] P *a);\n}"),
                         "dynamic", "auto")
    got = []
    stub = skeleton(sig_of(desc, "I", "Take"), lambda n, a: got.append(a), mem, desc)
    a = mem.alloc(1)
    with pytest.raises(OutOfBounds):
        stub([count, a])
    assert got == []
    mem.free(a)
    assert mem.live_count == 0


def test_skeleton_arity_check(mem, time_desc):
    gettime = sig_of(time_desc, "Time", "gettime")
    stub = skeleton(gettime, lambda: ({}, {}, {}), mem, time_desc)
    with pytest.raises(ArityMismatch):
        stub([1, 2])


def test_skeleton_result_count_check(mem, time_desc):
    gettime = sig_of(time_desc, "Time", "gettime")
    stub = skeleton(gettime, lambda: ({"sec": 0, "usec": 0},), mem, time_desc)
    with pytest.raises(ArityMismatch):
        call(gettime, stub, [], mem, time_desc)


def test_skeleton_string_param(mem, win32_desc):
    li = sig_of(win32_desc, "User", "LoadIconA")
    seen = []

    def impl(h, name):
        seen.append((h, name))
        return 42

    stub = skeleton(li, impl, mem, win32_desc)
    results = call(li, stub, [0, "#32512"], mem, win32_desc)
    assert seen == [(0, "#32512")]
    assert results == [42]
