from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import IDL_DIR, REPO
from mlidl import marshal
from mlidl.binding import (
    SchemaViolation,
    build_binding,
    emit_binding_file,
    load_binding_file,
    load_manifest,
)
from mlidl.binding.bindfile import render_json
from mlidl.idl import parse_text


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


def test_not_json_is_schema_violation():
    with pytest.raises(SchemaViolation):
        load_binding_file("not json at all {")


def test_bad_direction_is_schema_violation(time_desc):
    doc = json.loads(emit_binding_file(time_desc))
    doc["interfaces"][0]["ops"][0]["params"][0]["dir"] = "sideways"
    with pytest.raises(SchemaViolation) as exc:
        load_binding_file(json.dumps(doc))
    assert ".dir" in str(exc.value)


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

_SHIPPED = [IDL_DIR / "win32.idl", IDL_DIR / "time.idl", IDL_DIR / "bar.idl",
            REPO / "src" / "mlidl" / "winsim" / "data" / "win32sim.idl"]


@pytest.mark.parametrize("path, mode", [
    (path, mode) for path in _SHIPPED for mode in ("static", "dynamic")
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
def test_writer_equals_json_dumps_indent_2(doc):
    assert render_json(doc) == json.dumps(doc, indent=2)


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
    for iface in loaded.interfaces:
        for op in iface.ops:
            try:
                marshal.plan_of(op, loaded)
            except marshal.MarshalError:
                pass
