from __future__ import annotations

import json

import pytest

from mlidl.binding import (
    SchemaViolation,
    emit_binding_file,
    load_binding_file,
)


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
