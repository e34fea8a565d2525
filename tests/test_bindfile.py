from __future__ import annotations

import functools
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from conftest import IDL_DIR, SHIPPED_IDL, modules_loaded_by
from mlidl import marshal
from mlidl import semtypes as st
from mlidl.binding import (
    SchemaViolation,
    build_binding,
    emit_binding_file,
    load_binding_file,
    load_manifest,
)
from mlidl.binding.bindfile import _write
from mlidl.idl import parse_text
from mlidl.wordmem import Mem, MemFault


@pytest.mark.parametrize("fixture", ["win32_desc", "time_desc", "bar_desc"])
def test_round_trip(fixture, request):
    desc = request.getfixturevalue(fixture)
    assert load_binding_file(emit_binding_file(desc)) == desc


def test_emission_is_deterministic(win32_desc):
    assert emit_binding_file(win32_desc) == emit_binding_file(win32_desc)


def test_top_level_schema(time_desc):
    doc = json.loads(emit_binding_file(time_desc))
    for key in ("module", "mode", "level", "interfaces", "enums", "records",
                "consts", "callbacks", "aliases"):
        assert key in doc
    rec = doc["records"][0]
    assert rec["name"] == "timeval_t" and rec["size"] == 2


def test_word_values_as_hex_strings(win32_desc):
    doc = json.loads(emit_binding_file(win32_desc))
    opts = next(e for e in doc["enums"] if e["name"] == "OPTS")
    variants = dict(tuple(v) for v in opts["variants"])
    assert variants["WS_POPUP"] == "0x80000000"
    assert variants["CS_VREDRAW"] == "0x1"


def test_duplicate_enum_values_accepted(win32_desc):
    text = emit_binding_file(win32_desc)
    desc = load_binding_file(text)
    consts = desc.enum("CONSTS")
    assert consts.to_int("SW_SHOWNORMAL") == consts.to_int("SW_NORMAL") == 1


def test_unknown_semantic_type_is_schema_violation(time_desc):
    doc = json.loads(emit_binding_file(time_desc))
    doc["records"][0]["fields"][0]["sem"] = {"k": "quux"}
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert "$.records[0].fields[0].sem" in str(exc.value)


@pytest.mark.parametrize("table", ["records", "enums", "callbacks"])
def test_an_empty_type_name_is_schema_violation(win32_desc, table):
    doc = json.loads(emit_binding_file(win32_desc))
    doc[table][0]["name"] = ""
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert (exc.value.path, exc.value.message) == \
        (f"$.{table}[0].name", "expected a non-empty name")


_POINT_SUM = parse_text("typedef struct { int x; int y; } POINT;\n"
                        "interface I { int Sum ([in,ref] POINT *p, [in] int n); }\n")


_SEM_SITES = {    # the node that holds a `sem`, by the path of that `sem`
    "$.records[0].fields[0].sem": lambda doc: doc["records"][0]["fields"][0],
    "$.interfaces[0].ops[0].params[1].sem":
        lambda doc: doc["interfaces"][0]["ops"][0]["params"][1],
    "$.interfaces[0].ops[0].ret.sem": lambda doc: doc["interfaces"][0]["ops"][0]["ret"],
}


@pytest.mark.parametrize("path", sorted(_SEM_SITES))
@pytest.mark.parametrize("kind", ["enum", "record", "callback"])
def test_a_type_that_no_declaration_names_is_schema_violation(path, kind):
    doc = json.loads(emit_binding_file(build_binding(_POINT_SUM, "dynamic", "auto")))
    _SEM_SITES[path](doc)["sem"] = {"k": kind, "name": "NOPE"}
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert exc.value.path == path


def test_an_undeclared_array_element_type_is_schema_violation():
    doc = json.loads(emit_binding_file(build_binding(_POINT_SUM, "dynamic", "auto")))
    doc["aliases"] = [{"name": "A", "type": "A", "sem": {
        "k": "array", "len_from": "n", "elem": {"k": "callback", "name": "NOPE"}}}]
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert (exc.value.path, exc.value.message) == \
        ("$.aliases[0].sem.elem", "no callback named 'NOPE' is declared")


@pytest.mark.parametrize("sem, message", [
    ({"k": "int32", "name": "WHATEVER"}, "int32 semantic type takes no name"),
    ({"k": "record", "name": "POINT", "elem": {"k": "int32"}, "len_from": "n"},
     "record semantic type takes no elem or len_from"),
], ids=["scalar-with-name", "record-with-elem"])
def test_a_field_that_its_kind_does_not_have_is_schema_violation(sem, message):
    doc = json.loads(emit_binding_file(build_binding(_POINT_SUM, "dynamic", "auto")))
    doc["interfaces"][0]["ops"][0]["params"][0]["sem"] = sem
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert (exc.value.path, exc.value.message) == \
        ("$.interfaces[0].ops[0].params[0].sem", message)


def test_the_first_undeclared_type_is_reported_in_file_order():
    # records come before callbacks in the file, so the field is first
    unit = parse_text("typedef enum { A = 0 } E;\n"
                      "typedef struct { E e; } R;\n"
                      "typedef int *CB ([in] E e);\n")
    doc = json.loads(emit_binding_file(build_binding(unit, "dynamic", "auto")))
    assert doc["records"][0]["fields"][0]["sem"] == \
        doc["callbacks"][0]["sig"]["params"][0]["sem"] == {"k": "enum", "name": "E"}
    doc["enums"] = []
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert (exc.value.path, exc.value.message) == \
        ("$.records[0].fields[0].sem", "no enum named 'E' is declared")


def test_an_undeclared_type_is_reported_where_the_file_first_uses_it():
    # the interface comes before the records, so its parameter is the first
    # use, although a record field that names it would fail its layout too
    unit = parse_text("typedef struct { int x; int y; } POINT;\n"
                      "typedef struct { POINT p; int z; } SEG;\n"
                      "interface I { int Sum ([in,ref] SEG *s, [in] int n); }\n")
    doc = json.loads(emit_binding_file(build_binding(unit, "dynamic", "auto")))
    nope = {"k": "record", "name": "NOPE"}
    doc["interfaces"][0]["ops"][0]["params"][0]["sem"] = nope
    doc["records"][1]["fields"][0]["sem"] = nope
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert (exc.value.path, exc.value.message) == \
        ("$.interfaces[0].ops[0].params[0].sem", "no record named 'NOPE' is declared")
    # named only in a record field, it is refused as undeclared there
    doc["interfaces"][0]["ops"][0]["params"][0]["sem"] = {"k": "record", "name": "SEG"}
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert (exc.value.path, exc.value.message) == \
        ("$.records[1].fields[0].sem", "no record named 'NOPE' is declared")


def test_the_query_interface_iid_needs_no_declaration(bar_desc):
    text = emit_binding_file(bar_desc)
    assert "IID" not in [r["name"] for r in json.loads(text)["records"]]
    qi = [op for iface in load_binding_file(text).interfaces for op in iface.ops
          if op.kind == "query_interface"]
    assert qi and all(op.params[0].sem == st.SemType("record", name="IID") for op in qi)


def test_missing_key_is_schema_violation(time_desc):
    doc = json.loads(emit_binding_file(time_desc))
    del doc["enums"]
    with pytest.raises(SchemaViolation):
        load_binding_file(json.dumps(doc))


def test_bad_mode_is_schema_violation(time_desc):
    doc = json.loads(emit_binding_file(time_desc))
    doc["mode"] = "quantum"
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert "$.mode" in str(exc.value)


def test_bad_word_spelling_is_schema_violation(time_desc):
    doc = json.loads(emit_binding_file(time_desc))
    doc["enums"] = [{"name": "E", "variants": [["A", 5]]}]
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert "$.enums[0].variants[0]" in str(exc.value)


# words written as the emitter writes them, f"0x{n:x}", in an enum variant
# and in a word const
_WORDS_TEXT = ("const unsigned long W = 0wx80000000;\nconst UINT Z = 0;\n"
               "typedef enum { A = 0wx10, B = 7 } E;\n"
               "interface I { void f ([in] E e); }")


@functools.cache
def _words_file():
    return emit_binding_file(build_binding(parse_text(_WORDS_TEXT, "w.idl"),
                                           "dynamic", "auto"))


@pytest.fixture
def words_doc():
    return json.loads(_words_file())


def test_a_word_const_loads_and_re_emits_byte_for_byte(words_doc):
    text = json.dumps(words_doc, indent=2) + "\n"
    desc = load_binding_file(text)
    assert [(c.name, c.form, c.value) for c in desc.consts] == \
        [("W", "word", 0x80000000), ("Z", "word", 0)]
    assert desc.enum("E").variants == (("A", 0x10), ("B", 7))
    assert emit_binding_file(desc) == text


def test_an_unknown_const_form_is_schema_violation(words_doc):
    words_doc["consts"][0]["form"] = "float"
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(words_doc))
    assert str(exc.value) == "$.consts[0].form: unknown const form 'float'"


_NOT_A_WORD = 'expected a word as "0x..."'


@pytest.mark.parametrize("value,message", [
    (16, _NOT_A_WORD),
    ("16", _NOT_A_WORD),
    ("0X10", _NOT_A_WORD),
    ("0x", "bad hex word '0x'"),
    ("0xg", "bad hex word '0xg'"),
    ("0x-1", "bad hex word '0x-1'"),
    # int(value, 16) takes each of these as 16, or 1; the emitter writes none
    ("0x1_0", "bad hex word '0x1_0'"),
    ("0x10 ", "bad hex word '0x10 '"),
    ("0x\u0661\u0660", "bad hex word '0x\u0661\u0660'"),   # Arabic-Indic 1, 0
    ("0x\u0660\u0661", "bad hex word '0x\u0660\u0661'"),
    ("0x010", "bad hex word '0x010'"),
    ("0x00", "bad hex word '0x00'"),
    ("0xA", "bad hex word '0xA'"),
    ("0x100000000", "word 0x100000000 does not fit in 32 bits"),
])
@pytest.mark.parametrize("where", ["const", "variant"])
def test_a_word_not_spelled_as_emitted_is_schema_violation(words_doc, value, message, where):
    if where == "const":
        words_doc["consts"][1]["value"] = value
        path = "$.consts[1].value"
    else:
        words_doc["enums"][0]["variants"][1][1] = value
        path = "$.enums[0].variants[1]"
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(words_doc))
    assert (exc.value.path, exc.value.message) == (path, message)


@settings(max_examples=200, deadline=None)
@given(value=hs.one_of(hs.integers(0, 0xFFFFFFFF).map(lambda n: f"0x{n:x}"),
                       hs.text(max_size=12).map(lambda t: "0x" + t)))
def test_a_word_that_loads_re_emits_as_the_same_string(value):
    words_doc = json.loads(_words_file())
    words_doc["consts"][0]["value"] = value
    try:
        desc = load_binding_file(json.dumps(words_doc))
    except SchemaViolation:
        return
    assert f"0x{desc.consts[0].value:x}" == value
    assert json.loads(emit_binding_file(desc))["consts"][0]["value"] == value


def test_not_json_is_schema_violation():
    with pytest.raises(SchemaViolation):
        load_binding_file("not json at all {")


def test_bad_direction_is_schema_violation(time_desc):
    doc = json.loads(emit_binding_file(time_desc))
    doc["interfaces"][0]["ops"][0]["params"][0]["dir"] = "sideways"
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert ".dir" in str(exc.value)


def test_a_loaded_unit_parameter_is_refused_when_its_plan_is_built(time_desc):
    # the compiler gives no parameter the unit sem; an edited file can
    doc = json.loads(emit_binding_file(time_desc))
    doc["interfaces"][0]["ops"][1]["params"][0]["sem"] = {"k": "unit"}
    desc = load_binding_file(json.dumps(doc))
    with pytest.raises(marshal.MarshalError) as exc:
        marshal.plan_of(desc.interfaces[0].ops[1], desc)
    assert str(exc.value) == "void is not a value type"


def test_hand_written_file_loads():
    text = json.dumps({
        "module": "M", "mode": "static", "level": "auto",
        "interfaces": [], "enums": [], "records": [],
        "consts": [{"name": "N", "type": "Int32.int", "form": "int", "value": 3}],
        "callbacks": [], "aliases": [],
    })
    desc = load_binding_file(text)
    assert desc.consts[0].value == 3


def test_sig_round_trips_through_file(win32_desc):
    from mlidl.binding import emit_sig_text

    loaded = load_binding_file(emit_binding_file(win32_desc))
    assert emit_sig_text(loaded) == emit_sig_text(win32_desc)


def test_abstract_level_round_trips(win32_unit):
    from mlidl.binding import build_binding

    desc = build_binding(win32_unit, "static", "abstract")
    loaded = load_binding_file(emit_binding_file(desc))
    assert loaded == desc
    assert loaded.level == "abstract"


@pytest.mark.parametrize("entry", [1, "x", None, [1]], ids=repr)
@pytest.mark.parametrize("key", ["callbacks", "aliases"])
def test_non_object_entry_is_schema_violation(win32_desc, key, entry):
    doc = json.loads(emit_binding_file(win32_desc))
    doc[key].append(entry)
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert f"$.{key}[{len(doc[key]) - 1}]" in str(exc.value)


# -- the writer is json.dumps(doc, indent=2), byte for byte -------------------

@pytest.mark.parametrize("path, mode", [
    (path, mode) for path in SHIPPED_IDL for mode in ("static", "dynamic")
] + [(IDL_DIR / "bar.idl", "com")], ids=lambda x: getattr(x, "name", x))
@pytest.mark.parametrize("level", ["auto", "abstract"])
def test_shipped_files_emit_as_json_dumps_indent_2(path, mode, level):
    manifest = load_manifest(IDL_DIR / "bar.manifest.json") if mode == "com" else None
    desc = build_binding(parse_text(path.read_text(encoding="utf-8"), path.name),
                         mode=mode, level=level, manifest=manifest)
    text = emit_binding_file(desc)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert emit_binding_file(load_binding_file(text)) == text


def test_binding_file_is_rendered_once_per_description(win32_desc):
    assert emit_binding_file(win32_desc) is emit_binding_file(win32_desc)
    again = load_binding_file(emit_binding_file(win32_desc))
    assert again == win32_desc and hash(again) == hash(win32_desc)


# -- every shipped file in every mode: the direct writer and interning --------

def _manifest_for(unit):
    """An IID for every interface of `unit`, and the bar manifest's own."""
    from mlidl.idl import ast

    names = [d.name for d in unit.decls if isinstance(d, ast.Interface)]
    iids = {n: f"{{00000000-0000-0000-0000-{i:012X}}}" for i, n in enumerate(names)}
    shipped = load_manifest(IDL_DIR / "bar.manifest.json")
    return {"iids": {**iids, **shipped["iids"]}, "clsids": shipped["clsids"]}


def _sems(desc):
    """Every SemType object `desc` holds, element types included."""
    sigs = [op for i in desc.interfaces for op in i.ops] + [c.sig for c in desc.callbacks]
    todo = ([p.sem for s in sigs for p in s.params]
            + [s.ret.sem for s in sigs if s.ret is not None]
            + [f.sem for r in desc.records for f in r.fields]
            + [a.sem for a in desc.aliases])
    out = []
    while todo:
        t = todo.pop()
        out.append(t)
        if t.elem is not None:
            todo.append(t.elem)
    return out


def _one_object_per_type(desc):
    sems = _sems(desc)
    by_value = {}
    for t in sems:
        assert by_value.setdefault(t, t) is t, t
    return sems


@pytest.mark.parametrize("path", SHIPPED_IDL, ids=lambda p: p.name)
@pytest.mark.parametrize("mode", ["static", "dynamic", "com"])
@pytest.mark.parametrize("level", ["auto", "abstract"])
def test_every_shipped_file_in_every_mode_writes_loads_and_interns(path, mode, level):
    from mlidl import semtypes as st

    unit = parse_text(path.read_text(encoding="utf-8"), path.name)
    desc = build_binding(unit, mode=mode, level=level,
                         manifest=_manifest_for(unit) if mode == "com" else None)
    text = emit_binding_file(desc)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    loaded = load_binding_file(text)
    assert loaded == desc and hash(loaded) == hash(desc)
    assert emit_binding_file(loaded) == text
    built_sems = _one_object_per_type(desc)
    loaded_sems = _one_object_per_type(loaded)
    assert len({id(t) for t in built_sems}) == len({id(t) for t in loaded_sems})
    # a loaded scalar is the builder's own constant
    assert all(t is getattr(st, t.kind.upper()) for t in loaded_sems
               if t.kind in ("int32", "word32", "bool", "string8", "string16",
                             "handle", "opaque", "unit"))


def test_a_record_named_iid_is_the_query_interface_parameter_type(bar_manifest):
    text = ("typedef struct { long a; long b; long c; long d; } IID;\n"
            "interface IX { void Take ([in] IID *iid); }\n")
    desc = build_binding(parse_text(text, "bar.idl"), "com", manifest=bar_manifest)
    qi, take = desc.interfaces[0].ops
    assert qi.params[0].sem is take.params[0].sem
    _one_object_per_type(desc)


def test_sem_from_json_interns_through_its_table():
    from mlidl import semtypes as st

    arr = {"k": "array", "elem": {"k": "record", "name": "P"}, "len_from": "n"}
    table, declared = st.sem_table(), {("record", "P")}
    a = st.sem_from_json(arr, "$", table, declared)
    assert a is st.sem_from_json(dict(arr), "$", table, declared)
    assert a.elem is st.sem_from_json(arr["elem"], "$", table, declared)
    assert st.sem_from_json({"k": "int32"}, "$", table, declared) is st.INT32
    # an unhashable kind is reported, not looked up
    with pytest.raises(SchemaViolation) as exc:
        st.sem_from_json({"k": ["int32"]}, "$.x", table, declared)
    assert str(exc.value) == "$.x: unknown semantic type kind ['int32']"
    with pytest.raises(SchemaViolation):
        st.sem_from_json({"k": "quux"}, "$", table, declared)
    assert all(key[0] != "quux" for key in table)


# ASCII, the characters json escapes, and non-ASCII up to a lone surrogate
# and the astral plane.
_CHARS = hs.sampled_from('aZ0 "\\/\x00\t\n\x1f\x7f\xffé€\u2028\ud800𝄞\U0010ffff')
_LEAVES = (hs.none() | hs.booleans()
           | hs.integers(-(1 << 70), 1 << 70) | hs.sampled_from([-1, 1 << 32, 1 << 40])
           | hs.floats() | hs.text(_CHARS, max_size=8))
_DOCS = hs.recursive(
    _LEAVES,
    lambda kids: hs.lists(kids, max_size=4)
    | hs.dictionaries(hs.text(_CHARS, max_size=5), kids, max_size=4),
    max_leaves=16)


@settings(max_examples=200, deadline=None)
@given(_DOCS)
@example({"a": {}, "b": [None, True, False, 1.5, []]})
def test_writer_equals_json_dumps_indent_2(doc):
    out: list[str] = []
    _write(doc, "\n", out)
    assert "".join(out) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("path", ["$.interfaces[0].iid", "$.clsid"])
@pytest.mark.parametrize("bad", ["nope", 5, "C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0002",
                                 "{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D0002} ",
                                 "{C9E1D3A0-4B5A-4C7E-9A10-2F6B8A1D000G}"])
def test_iid_and_clsid_that_are_not_guid_text_are_schema_violations(bar_desc, path, bad):
    doc = json.loads(emit_binding_file(bar_desc))
    owner = doc["interfaces"][0] if path.endswith(".iid") else doc
    key = path.rsplit(".", 1)[1]
    assert owner[key]
    owner[key] = bad
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert exc.value.path == path


def test_null_iid_and_lowercase_guid_text_load(bar_desc):
    doc = json.loads(emit_binding_file(bar_desc))
    doc["interfaces"][0]["iid"] = None
    doc["clsid"] = doc["clsid"].lower()
    desc = load_binding_file(json.dumps(doc))
    assert desc.interfaces[0].iid is None and desc.clsid == doc["clsid"]


@pytest.mark.parametrize("key, bad", [("name", {}), ("name", [1]), ("len_from", {}),
                                      ("len_from", 5)])
def test_sem_name_or_len_from_that_is_not_a_string_is_schema_violation(win32_desc, key, bad):
    doc = json.loads(emit_binding_file(win32_desc))
    sem = doc["callbacks"][0]["sig"]["params"][0]["sem"]
    sem[key] = bad
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert exc.value.path == f"$.callbacks[0].sig.params[0].sem.{key}"


def _const(doc, value):
    doc["consts"].append({"name": "N", "type": "int", "form": "int", "value": value})
    return f"$.consts[{len(doc['consts']) - 1}].value"


def _set(keys, value):
    def mutate(doc):
        owner = doc
        for k in keys[:-1]:
            owner = owner[k]
        owner[keys[-1]] = value
        return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    return mutate


@pytest.mark.parametrize("fixture, mutate", [
    pytest.param("time_desc", _set(("records", 0, "size"), False), id="size-false"),
    pytest.param("time_desc", _set(("records", 0, "size"), True), id="size-true"),
    pytest.param("time_desc", _set(("records", 0, "fields", 1, "offset"), True),
                 id="offset-true"),
    pytest.param("time_desc", _set(("records", 0, "fields", 0, "offset"), False),
                 id="offset-false"),
    pytest.param("time_desc", lambda doc: _const(doc, True), id="int-const-true"),
    pytest.param("time_desc", lambda doc: _const(doc, False), id="int-const-false"),
    pytest.param("time_desc", _set(("interfaces", 0, "ops", 0, "params", 0, "byref"), "no"),
                 id="byref-string"),
    pytest.param("win32_desc", _set(("interfaces", 0, "ops", 0, "params", 0, "byref"), 1),
                 id="byref-int"),
    pytest.param("win32_desc", _set(("interfaces", 0, "ops", 0, "params", 0, "byref"), None),
                 id="byref-null"),
    pytest.param("win32_desc", _set(("callbacks", 0, "sig", "callback"), "yes"),
                 id="callback-string"),
    pytest.param("win32_desc", _set(("interfaces", 0, "ops", 0, "callback"), 0),
                 id="callback-int"),
])
def test_a_bool_for_an_int_or_a_non_bool_flag_is_schema_violation(fixture, mutate, request):
    doc = json.loads(emit_binding_file(request.getfixturevalue(fixture)))
    path = mutate(doc)
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert exc.value.path == path


def _drop_sem(doc):
    doc["interfaces"][0]["ops"][0]["params"][0].pop("sem")
    return "$.interfaces[0].ops[0].params[0]"


_PARAM_SEM = ("interfaces", 0, "ops", 0, "params", 0, "sem")


@pytest.mark.parametrize("mutate, message", [
    pytest.param(_set(("module",), 5), "expected a string", id="module"),
    pytest.param(_set(("level",), "concrete"), "unknown level 'concrete'", id="level"),
    pytest.param(_set(("interfaces",), {}), "expected an array", id="interfaces"),
    pytest.param(_set(("interfaces", 0, "source"), 5), "expected a string or null",
                 id="source"),
    pytest.param(_set(("interfaces", 0, "ops", 0, "kind"), "static"),
                 "unknown kind 'static'", id="op-kind"),
    pytest.param(_set(("enums", 0, "variants", 0), ["CS_VREDRAW"]),
                 'expected [name, "0x..."]', id="variant"),
    pytest.param(_set(("consts", 0, "value"), 5), "expected a string", id="string-const"),
    pytest.param(_drop_sem, "missing key 'sem'", id="no-sem"),
    pytest.param(_set(_PARAM_SEM, 5), "expected a semantic type object with key 'k'",
                 id="sem-int"),
    pytest.param(_set(_PARAM_SEM, {"k": "enum"}), "enum semantic type needs a name",
                 id="sem-no-name"),
])
def test_a_node_of_the_wrong_shape_is_pinned(win32_desc, mutate, message):
    doc = json.loads(emit_binding_file(win32_desc))
    path = mutate(doc)
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert (exc.value.path, exc.value.message) == (path, message)


def test_a_missing_flag_is_false(win32_desc):
    doc = json.loads(emit_binding_file(win32_desc))
    op = doc["interfaces"][0]["ops"][0]
    del op["params"][0]["byref"], op["callback"]
    loaded = load_binding_file(json.dumps(doc)).interfaces[0].ops[0]
    assert loaded.params[0].byref is False and loaded.callback is False


# -- record layouts: a loaded file must follow the layout rule ----------------

_POINT_IDL = """
typedef int INT;
typedef struct { INT x; INT y; } POINT;
typedef struct { POINT a; INT k; POINT b; } SEGMENT;

[sml_source ("pt.dll")]
interface Pt {
  INT Sum ([in,ref] POINT *p);
  void Get ([out] POINT *p);
}
"""


def _point_doc():
    desc = build_binding(parse_text(_POINT_IDL, "pt.idl"), mode="dynamic", level="auto")
    return json.loads(emit_binding_file(desc))


def _offsets(offsets):
    def mutate(doc):
        for f, offset in zip(doc["records"][0]["fields"], offsets):
            f["offset"] = offset
    return mutate


def _swap_records(doc):
    doc["records"].reverse()


def _self_field(doc):
    doc["records"][0]["fields"][1]["sem"] = {"k": "record", "name": "POINT"}


def _void_field(doc):
    doc["records"][0]["fields"][1]["sem"] = {"k": "unit"}


@pytest.mark.parametrize("mutate, path, message", [
    pytest.param(_set(("records", 0, "size"), 1), "$.records[0].size",
                 "expected 2 by the layout rule, got 1", id="size-1"),
    pytest.param(_set(("records", 0, "size"), 3), "$.records[0].size",
                 "expected 2 by the layout rule, got 3", id="size-3"),
    pytest.param(_offsets([0, 5]), "$.records[0].fields[1].offset",
                 "expected 1 by the layout rule, got 5", id="offsets-0-5"),
    pytest.param(_offsets([0, 0]), "$.records[0].fields[1].offset",
                 "expected 1 by the layout rule, got 0", id="offsets-0-0"),
    pytest.param(_set(("records", 1, "fields", 2, "offset"), 4),
                 "$.records[1].fields[2].offset",
                 "expected 3 by the layout rule, got 4", id="nested-offset"),
    pytest.param(_set(("records", 1, "size"), 3), "$.records[1].size",
                 "expected 5 by the layout rule, got 3", id="nested-size"),
    pytest.param(_swap_records, "$.records[0].fields[0].sem",
                 "record 'POINT' used in 'SEGMENT' before its declaration",
                 id="declared-later"),
    pytest.param(_self_field, "$.records[0].fields[1].sem",
                 "record 'POINT' used in 'POINT' before its declaration", id="itself"),
    pytest.param(_void_field, "$.records[0].fields[1].sem",
                 "void is not a value type (in 'POINT')", id="void"),
])
def test_a_record_layout_that_breaks_the_rule_is_a_schema_violation(mutate, path, message):
    doc = _point_doc()
    mutate(doc)
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert (exc.value.path, exc.value.message) == (path, message)


def test_an_array_record_field_is_a_schema_violation():
    # no IDL form builds one, and no call could carry it: an array's count
    # comes from a parameter, which a field has none of
    doc = _point_doc()
    doc["records"][0]["fields"][1]["sem"] = {"k": "array", "elem": {"k": "int32"},
                                             "len_from": "x"}
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert (exc.value.path, exc.value.message) == \
        ("$.records[0].fields[1].sem", "an array cannot be a record field (in 'POINT')")


def test_a_record_layout_that_keeps_the_rule_loads_and_binds():
    desc = load_binding_file(json.dumps(_point_doc()))
    assert [(r.size, [f.offset for f in r.fields]) for r in desc.records] == \
        [(2, [0, 1]), (5, [0, 2, 3])]
    mem = Mem()
    lib = mem.register_library("pt.dll")
    for name, impl in (("Sum", lambda p: p["x"] + p["y"]),
                       ("Get", lambda: {"x": 3, "y": 4})):
        sig = next(o for o in desc.interface("Pt").ops if o.name == name)
        mem.register_function(lib, name, marshal.skeleton(sig, impl, mem, desc))
    pt = marshal.bind(desc, mem)["Pt"]
    assert pt.Sum({"x": 3, "y": 4}) == 7
    assert pt.Get() == {"x": 3, "y": 4}
    assert mem.live_count == 0


# -- fuzz gate: one node of an emitted file mutated ----------------------------

_DELETE = object()
_MUTANTS = [None, True, False, 0, -1, 1 << 40, 1.5, "", "x", "int32", [], [1], {},
            {"k": "int32"}, {"k": "record", "name": "POINT"},
            {"k": "array", "elem": {"k": "int32"}, "len_from": "n"}, _DELETE]


def _node_paths(x, path=()):
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield path + (k,)
        yield from _node_paths(v, path + (k,))


@settings(max_examples=300, deadline=None)
@given(data=hs.data())
@pytest.mark.parametrize("which", ["win32_desc", "time_desc", "bar_desc"])
def test_one_mutated_node_loads_or_is_a_schema_violation(win32_desc, time_desc, bar_desc,
                                                         which, data):
    desc = {"win32_desc": win32_desc, "time_desc": time_desc, "bar_desc": bar_desc}[which]
    doc = json.loads(emit_binding_file(desc))
    path = data.draw(hs.sampled_from(list(_node_paths(doc))))
    owner = doc
    for k in path[:-1]:
        owner = owner[k]
    mutant = data.draw(hs.sampled_from(_MUTANTS))
    if mutant is _DELETE and isinstance(owner, dict):
        del owner[path[-1]]
    elif mutant is not _DELETE:
        owner[path[-1]] = mutant
    try:
        loaded = load_binding_file(json.dumps(doc))
    except SchemaViolation:
        return
    hash(loaded)
    assert load_binding_file(emit_binding_file(loaded)) == loaded
    text = emit_binding_file(loaded)
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    _one_object_per_type(loaded)
    for iface in loaded.interfaces:
        for op in iface.ops:
            try:
                marshal.plan_of(op, loaded)
            except marshal.MarshalError:
                pass
    for record in loaded.records:
        sem = st.SemType("record", name=record.name)
        value = _sample(sem, loaded, itertools.count(1))
        mem = Mem()
        try:
            codec = marshal.codec_of(sem, loaded)
            words: list[int] = []
            codec.pack(mem, value, words, [])
            assert len(words) == codec.width
            assert codec.unpack(mem, words, 0, None) == value
        except (marshal.MarshalError, MemFault):
            pass


def _sample(sem, desc, ints):
    """A value of type `sem`: a distinct int per integer field, True for a
    bool, "" for a string, an enum's first variant, None for a callback and
    [] for an array."""
    if sem.kind == "record":
        record = desc.lookup("record", sem.name)
        return {} if record is None else \
            {f.name: _sample(f.sem, desc, ints) for f in record.fields}
    if sem.kind == "enum":
        enum = desc.lookup("enum", sem.name)
        return enum.variants[0][0] if enum is not None and enum.variants else ""
    if sem.kind in _SAMPLES:
        return _SAMPLES[sem.kind]
    return next(ints)


_SAMPLES = {"bool": True, "string8": "", "string16": "", "callback": None, "array": []}


def test_compiler_imports_no_runtime_module():
    # a command-line compile pays for every module it imports
    loaded = [m for m in modules_loaded_by("import mlidl.idl, mlidl.binding")
              if m.startswith("mlidl")]
    assert "mlidl.binding.bindfile" in loaded
    runtime = ("mlidl.wordmem", "mlidl.marshal", "mlidl.com", "mlidl.automation",
               "mlidl.winsim")
    assert [m for m in loaded if m.startswith(runtime)] == []


def test_the_com_runtime_imports_no_compiler_module():
    # `com` shares the GUID grammar with the compiler through `semtypes`
    loaded = [m for m in modules_loaded_by("import mlidl.com") if m.startswith("mlidl")]
    assert loaded == ["mlidl", "mlidl.com", "mlidl.semtypes", "mlidl.wordmem"]
