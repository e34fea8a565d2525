from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from mlidl import marshal
from mlidl import semtypes as st
from mlidl.binding import (
    BindingError,
    MissingIid,
    build_binding,
    emit_binding_file,
    emit_sig_text,
    load_binding_file,
    load_manifest,
)
from mlidl.binding.model import (
    BindingDesc,
    CallbackDef,
    EnumMap,
    FieldLayout,
    InterfaceDesc,
    LiftedSig,
    RecordLayout,
)
from conftest import (count_mlidl_calls, in_a_fresh_interpreter,
                      nothing_for_the_cycle_collector, peak_mb)
from mlidl.binding.bindfile import render_binding_file
from mlidl.idl import ast, parse_text, parse_unit, resolve, tokenize
from mlidl.wordmem import Mem

REPO = Path(__file__).resolve().parents[1]


def op(desc, iface, name):
    return next(o for o in desc.interface(iface).ops if o.name == name)


def test_gettime_lifting(time_desc):
    gettime = op(time_desc, "Time", "gettime")
    assert gettime.ins == ()
    assert [r.display for r in gettime.results] == ["timeval_t"] * 3
    assert [r.sem.kind for r in gettime.results] == ["record"] * 3
    assert gettime.ret is None


def test_timeofday_lifting(time_desc):
    timeofday = op(time_desc, "Time", "timeofday")
    assert len(timeofday.results) == 1


def test_beginpaint_results_out_param_then_return(win32_desc):
    bp = op(win32_desc, "User", "BeginPaint")
    assert [p.display for p in bp.ins] == ["HWND"]
    assert [r.display for r in bp.results] == ["PAINTSTRUCT", "HDC"]


def test_lifted_sig_views_cached_without_changing_equality(win32_unit):
    first = op(build_binding(win32_unit), "User", "BeginPaint")
    fresh = op(build_binding(win32_unit), "User", "BeginPaint")
    assert first is not fresh and first == fresh
    before = hash(first)
    views = (first.ins, first.results)
    assert (first.ins, first.results) == views
    assert first.ins is views[0] and first.results is views[1]
    assert first == fresh and hash(first) == before == hash(fresh)
    assert views == (fresh.ins, fresh.results)
    assert first.results[-1] == first.ret


def test_in_ref_record_stays_in_param(win32_desc):
    rc = op(win32_desc, "User", "RegisterClassExA")
    (p,) = rc.ins
    assert p.byref and p.sem.kind == "record" and p.display == "WNDCLASSEX"
    assert [q for q in rc.params if q.dir != "in"] == []


def test_out_params_never_in_ins(win32_desc, time_desc):
    for desc in (win32_desc, time_desc):
        for iface in desc.interfaces:
            for sig in iface.ops:
                in_names = {p.name for p in sig.ins}
                for p in sig.params:
                    if p.dir == "out":
                        assert p.name not in in_names


def test_result_count_invariant(win32_desc, time_desc, bar_desc):
    for desc in (win32_desc, time_desc, bar_desc):
        for iface in desc.interfaces:
            for sig in iface.ops:
                expected = len([p for p in sig.params if p.dir in ("out", "inout")])
                expected += 1 if sig.ret is not None else 0
                assert len(sig.results) == expected


def test_array_param_lifting(win32_desc):
    poly = op(win32_desc, "Gdi", "PolyLineTo")
    lppt = poly.params[1]
    assert lppt.sem.kind == "array"
    assert lppt.sem.elem.kind == "record"
    assert lppt.sem.len_from == "cPoints"
    assert lppt.display == "POINT list"
    # the length parameter stays an in-parameter
    assert [p.name for p in poly.ins] == ["hdc", "lppt", "cPoints"]


def test_enum_map_to_int_total(win32_desc):
    opts = win32_desc.enum("OPTS")
    assert opts.to_int("WS_POPUP") == 0x80000000
    assert opts.to_int("CS_HREDRAW") == 2
    with pytest.raises(KeyError):
        opts.to_int("NOPE")


def test_enum_from_int_first_declared_wins(win32_desc):
    consts = win32_desc.enum("CONSTS")
    # SW_SHOWNORMAL and SW_NORMAL are both 1; first declaration wins
    assert consts.from_int(1) == "SW_SHOWNORMAL"
    assert consts.from_int(3) == "SW_SHOWMAXIMIZED"
    assert consts.from_int(99) is None


def test_enum_right_inverse(win32_desc):
    for enum in win32_desc.enums:
        for name, value in enum.variants:
            decoded = enum.from_int(value)
            assert enum.to_int(decoded) == value


def test_record_layout_offsets(win32_desc):
    wc = win32_desc.record("WNDCLASSEX")
    assert wc.size == 12
    offsets = [f.offset for f in wc.fields]
    assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)
    assert {f.name: f for f in wc.fields}["lpfnWndProc"].sem.kind == "callback"
    assert win32_desc.record("POINT").size == 2
    assert win32_desc.record("RECT").size == 4
    # nested record: hdc + fErase + RECT
    assert win32_desc.record("PAINTSTRUCT").size == 6


def test_callbacks_collected(win32_desc):
    wndproc = win32_desc.lookup("callback", "WNDPROC")
    assert wndproc.sig.callback
    assert len(wndproc.sig.ins) == 4
    assert wndproc.sig.ret is not None


def test_com_mode_bar(bar_desc):
    assert bar_desc.mode == "com"
    assert bar_desc.clsid == "{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0001}"
    ix = bar_desc.interface("IX")
    assert ix.parent == "IUnknown"
    assert ix.iid == "{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0002}"
    assert [o.name for o in ix.ops] == ["QueryInterface", "FooX"]
    assert ix.ops[0].kind == "query_interface"
    names = [o.name for o in ix.ops]
    assert "AddRef" not in names and "Release" not in names


def test_com_mode_drops_user_declared_iunknown_methods(bar_manifest):
    unit = parse_text("""
        sml_name ("Bar");
        interface IX {
          void QueryInterface ();
          void AddRef ();
          void Release ();
          void FooX ();
        }
    """)
    manifest = dict(bar_manifest)
    desc = build_binding(unit, "com", "auto", manifest)
    assert [o.name for o in desc.interface("IX").ops] == ["QueryInterface", "FooX"]
    assert desc.interface("IX").ops[0].kind == "query_interface"


def test_com_mode_missing_iid(bar_unit):
    with pytest.raises(MissingIid):
        build_binding(bar_unit, "com", "auto", {"iids": {"IX": "{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0002}"}})


@pytest.mark.parametrize("bad", [5, 1.5, "nope", "C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0002",
                                 " {C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0002}", ["x"]])
def test_com_mode_rejects_iid_and_clsid_that_are_not_guid_text(bar_unit, bar_manifest, bad):
    iids = dict(bar_manifest["iids"], IY=bad)
    with pytest.raises(BindingError, match="IID of interface 'IY'"):
        build_binding(bar_unit, "com", "auto", {"iids": iids})
    with pytest.raises(BindingError, match="CLSID of module 'Bar'"):
        build_binding(bar_unit, "com", "auto",
                      {"iids": bar_manifest["iids"], "clsids": {"Bar": bad}})


def test_com_mode_emits_guid_text_unchanged(bar_manifest):
    lower = {k: v.lower() for k, v in bar_manifest["iids"].items()}
    desc = build_binding(parse_text("interface IX { void F(); }", "m.idl"), "com", "auto",
                         {"iids": lower, "clsids": {"m": bar_manifest["clsids"]["Bar"]}})
    assert desc.interface("IX").iid == lower["IX"]
    assert desc.clsid == bar_manifest["clsids"]["Bar"]


def test_double_pointer_out_param_is_an_address_slot():
    unit = parse_text("""
        interface I {
          HRESULT Probe ([in] const IID& iid, [out,iid_is (iid)] void **ppv);
        }
    """)
    desc = build_binding(unit, "dynamic", "auto")
    probe = desc.interface("I").ops[0]
    ppv = probe.params[1]
    assert ppv.sem.kind == "opaque"
    assert ppv.display == "Word32.word"
    assert [r.display for r in probe.results] == ["Word32.word", "HRESULT"]


@pytest.mark.parametrize("decl", [
    "interface I { void F ([out] K **p); }",
    "interface I { void F ([out] K *p); }",
    "typedef struct { K *p; } R;",
])
def test_a_const_is_not_a_type_behind_any_pointer(decl):
    unit = parse_text("const int K = 3;\n" + decl)
    with pytest.raises(BindingError, match="^cannot use 'K' as a type$"):
        build_binding(unit, "dynamic", "auto")


def test_out_callback_param_unsupported():
    unit = parse_text("""
        typedef int *CB ([in] int x);
        interface I { void f ([out] CB *cb); }
    """)
    with pytest.raises(BindingError):
        build_binding(unit, "dynamic", "auto")


def test_pointer_return_unsupported():
    unit = parse_text("interface I { int *f (); }")
    with pytest.raises(BindingError):
        build_binding(unit, "dynamic", "auto")


def test_unknown_mode_and_level(time_unit):
    with pytest.raises(BindingError):
        build_binding(time_unit, "fancy", "auto")
    with pytest.raises(BindingError):
        build_binding(time_unit, "dynamic", "lazy")


def test_mode_level_recorded_verbatim(win32_unit):
    desc = build_binding(win32_unit, "static", "abstract")
    assert (desc.mode, desc.level) == ("static", "abstract")


def test_handle_semantics(win32_desc):
    sw = op(win32_desc, "User", "ShowWindow")
    assert sw.params[0].sem.kind == "handle"
    assert sw.params[0].display == "HWND"
    assert sw.params[1].sem.kind == "int32"


def test_name_lookup_first_declaration_wins_and_errors_unchanged():
    one = st.INT32
    first = RecordLayout("R", (FieldLayout("a", "int", one, 0),), 1)
    second = RecordLayout("R", (FieldLayout("a", "int", one, 0),
                                FieldLayout("b", "int", one, 1)), 2)
    e1, e2 = EnumMap("E", (("A", 1),)), EnumMap("E", (("B", 2),))
    sig = LiftedSig("f", ())
    c1, c2 = CallbackDef("CB", sig), CallbackDef("CB", LiftedSig("g", ()))
    i1, i2 = InterfaceDesc("I", (sig,)), InterfaceDesc("I", ())
    desc = BindingDesc("M", "dynamic", "auto", interfaces=(i1, i2), enums=(e1, e2),
                       records=(first, second), callbacks=(c1, c2))
    assert desc.record("R") is first and desc.enum("E") is e1
    assert desc.lookup("callback", "CB") is c1 and desc.interface("I") is i1
    assert marshal.codec_of(st.SemType("record", name="R"), desc).width == 1
    assert marshal.codec_of(st.SemType("enum", name="E"), desc).width == 1
    assert desc.lookup("callback", "Nope") is None
    for lookup, kind in ((desc.record, "record"), (desc.enum, "enum"),
                         (desc.interface, "interface")):
        with pytest.raises(KeyError, match=f"no {kind} 'Nope' in binding 'M'"):
            lookup("Nope")
    with pytest.raises(marshal.MarshalError, match="unknown record type 'Nope'"):
        marshal.codec_of(st.SemType("record", name="Nope"), desc)


@pytest.mark.parametrize("manifest", [
    {"iids": ["IX"]}, {"iids": None}, {"clsids": ["Bar"]},
    ["iids"], "iids", 5,
], ids=["iids-list", "iids-null", "clsids-list", "list", "str", "int"])
def test_manifest_of_the_wrong_shape_is_a_binding_error(bar_unit, manifest):
    with pytest.raises(BindingError, match="^manifest: "):
        build_binding(bar_unit, "com", "auto", manifest)


# sha256 of emit_sig_text + emit_binding_file for each shipped IDL file in
# every mode and level, or the error class and message where it does not build
_EMITTED = {
    ("win32.idl", "static", "abstract"): "a5866dea189bb51ce9a51b0533197fd1c424e2b8f0781e7ec4aaafb69b1d88ea",
    ("win32.idl", "static", "auto"): "e2fbe6e01cfbfca59ba891fb7eb30ec017a5ea3f36b70ddbf6b9e9a8d393044f",
    ("win32.idl", "dynamic", "abstract"): "63ef835c2227f25d7a8c2ba4771f6ec1a8d610a98ce512d9b66970bad929a5e9",
    ("win32.idl", "dynamic", "auto"): "916f01bd0d57596a464f6a6d20d5cab0f100e64b7335812b6d74b6292a3962d1",
    ("win32.idl", "com", "abstract"): "MissingIid: com-mode interface 'User' has no IID in the manifest",
    ("win32.idl", "com", "auto"): "MissingIid: com-mode interface 'User' has no IID in the manifest",
    ("time.idl", "static", "abstract"): "52b94abdbcf239ae81da84f84867ae9fb8ab5b43cb6d5d4be6ca9629bb348ad4",
    ("time.idl", "static", "auto"): "2260517c0692e1bde971c1fd86d739e4fcb25bed52c70e0a0ee61f0c46a796a1",
    ("time.idl", "dynamic", "abstract"): "79dff230238586f8831b5b1a7fddb67890a990519185a0ca74e58c9694542c67",
    ("time.idl", "dynamic", "auto"): "d03bacdad3cf4bff13e78fd71882978463fcff9dcb7e30126c3f10e58a013d00",
    ("time.idl", "com", "abstract"): "MissingIid: com-mode interface 'Time' has no IID in the manifest",
    ("time.idl", "com", "auto"): "MissingIid: com-mode interface 'Time' has no IID in the manifest",
    ("bar.idl", "static", "abstract"): "e5c67d9d4f428b1d07dee906431c3fd7b5bd28df4a51abbc73f787ef03274cfb",
    ("bar.idl", "static", "auto"): "450f3ba893a800efd760146d189f544591dd67cc6ccfd8747deae9d1a1bda94c",
    ("bar.idl", "dynamic", "abstract"): "a0cddfd3c0d1e7926639b32fd4a36774538c65584da875f4f68c393831a5f452",
    ("bar.idl", "dynamic", "auto"): "fdd46ef3a6ebb7a0a68fe0eb12168b6c456ee61de6eea7a55ce593f9fe261336",
    ("bar.idl", "com", "abstract"): "f60b373cea4425248bce134f8b12843a8507e53259a2d5b01fc8a28f23e51223",
    ("bar.idl", "com", "auto"): "8ac4612a80413a93215926b794adcd5ded7dd60c54b96bff89b27882a4de48a8",
    ("win32sim.idl", "static", "abstract"): "b3e9c5f744783eff8e70622a0a35dade4fa57c73c9cede56fe58cb2a58a7cdb0",
    ("win32sim.idl", "static", "auto"): "0fcd19a42e1b6e25efc68f4ec3894314d90f30ef5e2a7e2515f87d4e13ffe638",
    ("win32sim.idl", "dynamic", "abstract"): "2b66d6d914866883e6ebc17c5e224375b80c4a2ab9b7c66482cd0b8e48b55a26",
    ("win32sim.idl", "dynamic", "auto"): "dbcf56400302afa47918401ec2f567a16d091993bae51a1b44194b14888dd078",
    ("win32sim.idl", "com", "abstract"): "MissingIid: com-mode interface 'User' has no IID in the manifest",
    ("win32sim.idl", "com", "auto"): "MissingIid: com-mode interface 'User' has no IID in the manifest",
}


def _shipped(name):
    path = (REPO / "src" / "mlidl" / "winsim" / "data" / name if name == "win32sim.idl"
            else REPO / "idl" / name)
    manifest = load_manifest(REPO / "idl" / "bar.manifest.json") if name == "bar.idl" else None
    return path, manifest


@pytest.mark.parametrize("name,mode,level", sorted(_EMITTED))
def test_emitted_text_is_pinned(name, mode, level):
    path, manifest = _shipped(name)
    try:
        desc = build_binding(parse_text(path.read_text(encoding="utf-8"), name),
                             mode=mode, level=level, manifest=manifest)
        text = emit_sig_text(desc) + emit_binding_file(desc)
        got = hashlib.sha256(text.encode("utf-8")).hexdigest()
    except BindingError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == _EMITTED[name, mode, level]


@pytest.mark.parametrize("name,mode,level",
                         sorted(k for k, v in _EMITTED.items() if ":" not in v))
def test_compiling_leaves_nothing_for_the_cycle_collector(name, mode, level):
    path, manifest = _shipped(name)
    text = path.read_text(encoding="utf-8")
    with nothing_for_the_cycle_collector():
        desc = build_binding(parse_text(text, name), mode=mode, level=level,
                             manifest=manifest)
        emit_sig_text(desc)
        load_binding_file(emit_binding_file(desc))
        del desc


# Python calls into mlidl of each compile phase of each shipped file, in its
# perfbench mode (`sys.setprofile`, CPython 3.11).  "emit binding" is the
# render itself: `emit_binding_file` returns the text `emit_sig_text` cached.
# A change that must raise a cap says so in CHANGES.md.
_PHASES = ("tokenize", "parse", "resolve", "build", "emit sig", "emit binding", "load")
COMPILE_CALL_CAPS = {
    ("win32.idl", "dynamic"): (595, 848, 139, 566, 676, 458, 900),
    ("win32sim.idl", "dynamic"): (965, 1348, 241, 1008, 993, 559, 1542),
    ("time.idl", "static"): (54, 84, 19, 75, 83, 41, 111),
    ("bar.idl", "com"): (25, 50, 9, 38, 56, 30, 101),
}


@pytest.mark.parametrize("name,mode", sorted(COMPILE_CALL_CAPS))
def test_python_calls_of_each_compile_phase_are_capped(name, mode):
    path, manifest = _shipped(name)
    text = path.read_text(encoding="utf-8")
    tokens, tokenize_calls = count_mlidl_calls(tokenize, text, name)
    unit, parse_calls = count_mlidl_calls(parse_unit, tokens, name)
    _, resolve_calls = count_mlidl_calls(resolve, unit)
    desc, build_calls = count_mlidl_calls(build_binding, unit, mode, "auto", manifest)
    _, sig_calls = count_mlidl_calls(emit_sig_text, desc)
    bfile, render_calls = count_mlidl_calls(render_binding_file, desc)
    loaded, load_calls = count_mlidl_calls(load_binding_file, bfile)
    assert emit_binding_file(loaded) == bfile
    calls = (tokenize_calls, parse_calls, resolve_calls, build_calls, sig_calls,
             render_calls, load_calls)
    over = {phase: (n, cap) for phase, n, cap
            in zip(_PHASES, calls, COMPILE_CALL_CAPS[name, mode]) if n > cap}
    assert not over, f"phases over their cap (calls, cap): {over}"


# tracemalloc peak, in MB, of one whole compile (parse, build, emit sig, emit
# binding, load) of each shipped IDL file in its perfbench mode, a little
# above its peak in `compile_peaks` on CPython 3.11: win32 0.1299, win32sim
# 0.2125, time 0.0196, bar 0.0185.  Keeping one extra Token per token breaks
# each.  A change that must raise a budget says so in CHANGES.md.
COMPILE_PEAK_MB = {
    ("win32.idl", "dynamic"): 0.14,
    ("win32sim.idl", "dynamic"): 0.23,
    ("time.idl", "static"): 0.021,
    ("bar.idl", "com"): 0.0195,
}


def compile_peaks() -> dict[str, float]:
    """The peak of each budgeted compile, by file name, each after one
    compile of that file to warm up."""
    peaks = {}
    for name, mode in sorted(COMPILE_PEAK_MB):
        path, manifest = _shipped(name)
        text = path.read_text(encoding="utf-8")

        def compile_():
            desc = build_binding(parse_text(text, name), mode, "auto", manifest)
            load_binding_file(emit_binding_file(desc))
            emit_sig_text(desc)

        compile_()
        peaks[name] = peak_mb(compile_)
    return peaks


@pytest.fixture(scope="module")
def compile_peak():
    return in_a_fresh_interpreter("test_binding", "compile_peaks")


@pytest.mark.parametrize("name,mode", sorted(COMPILE_PEAK_MB))
def test_memory_peak_of_a_compile_is_budgeted(compile_peak, name, mode):
    assert compile_peak[name] <= COMPILE_PEAK_MB[name, mode], f"{compile_peak[name]:.4f} MB"


@pytest.mark.parametrize("param,message", [
    ("[in,size_is (n)] CB *a, [in] int n", "I.F.a: arrays of callbacks are not supported"),
    ("[in] int **p", "I.F.p: in-parameters of pointer-to-pointer type are not supported"),
    ("[out] int p", "I.F.p: out parameters must be pointers"),
    ("[in,out] POINT p", "I.F.p: out parameters must be pointers"),
    ("[in,out] CB *cb", "I.F.cb: out parameters of callback type are not supported"),
    ("[in] void v", "I.F.v: void is not a value type"),
], ids=["callback_array", "in_pointer_to_pointer", "out_value", "inout_value",
        "inout_callback", "void_value"])
def test_unsupported_parameter_shape_is_pinned(param, message):
    unit = parse_text("typedef int *CB ([in] int x);\n"
                      "typedef struct { int x; } POINT;\n"
                      f"interface I {{ void F ({param}); }}")
    with pytest.raises(BindingError) as info:
        build_binding(unit, "dynamic", "auto")
    assert str(info.value) == message


def test_a_void_return_through_a_typedef_is_no_result():
    desc = build_binding(parse_text("typedef void V;\ntypedef V W;\n"
                                    "interface I { V F ([in] int n); W G (); };"),
                         "dynamic", "auto")
    assert [op.ret for op in desc.interfaces[0].ops] == [None, None]
    sig_text = emit_sig_text(desc)
    assert "val F : Int32.int -> unit\n" in sig_text and "val G : unit -> unit\n" in sig_text
    mem = Mem()
    seen = []
    for sig, args in zip(desc.interfaces[0].ops, ([5], [])):
        stub = marshal.skeleton(sig, lambda *a: seen.append(a), mem, desc)
        assert marshal.call(sig, stub, args, mem, desc) == []
    assert seen == [(5,), ()]
    assert mem.live_count == 0


def test_a_type_node_with_no_lowering_is_a_binding_error():
    # the parser makes a FuncType only inside a callback typedef
    fn = ast.FuncType((), ast.BaseType("int"))
    op_decl = ast.OpDecl("F", ast.BaseType("void"), (ast.ParamDecl("p", fn),))
    unit = ast.IdlUnit((ast.Interface("I", (op_decl,)),), "h.idl")
    with pytest.raises(BindingError) as info:
        build_binding(unit, "dynamic", "auto")
    assert str(info.value) == f"cannot map type {fn!r}"


def test_unsigned_consts_are_words():
    desc = build_binding(parse_text("const unsigned long K = 0wx80000000;\n"
                                    "const UINT U = 7;\nconst long L = 5;"))
    assert [(c.name, c.display, c.value, c.form) for c in desc.consts] == [
        ("K", "Word32.word", 0x80000000, "word"), ("U", "Word32.word", 7, "word"),
        ("L", "Int32.int", 5, "int")]


def test_an_interface_name_lowers_to_an_opaque_word():
    desc = build_binding(parse_text(
        "interface J { }\ninterface I { void F ([in] J p, [in] J *q, [out] IUnknown **r); }"))
    assert [(p.display, p.sem.kind, p.dir, p.byref)
            for p in op(desc, "I", "F").params] == [
        ("J", "opaque", "in", False), ("J", "opaque", "in", True),
        ("IUnknown", "opaque", "out", False)]


def test_the_binding_model_and_semtype_stay_frozen():
    # plans cached by signature identity, the rendered binding file and the
    # interned types hold only while these objects cannot change, unlike the
    # AST's nodes, which carry no cache
    import dataclasses

    from mlidl.binding import model
    classes = [c for c in vars(model).values() if isinstance(c, type)
               and dataclasses.is_dataclass(c) and c.__module__ == model.__name__]
    assert len(classes) >= 10
    assert [c.__name__ for c in classes + [st.SemType]
            if not c.__dataclass_params__.frozen] == []
