"""Semantic types: the value-level classification every IDL type lowers to.

A SemType says how a value is represented at the word level and how it
converts to and from host values.  Scalars occupy one word inline; strings,
arrays and callbacks cross the boundary as a one-word address.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class SemType:
    kind: str
    name: Optional[str] = None          # enum / record / callback name
    elem: Optional["SemType"] = None    # array element type
    len_from: Optional[str] = None      # array length parameter name

    SCALARS = ("int32", "word32", "bool", "handle", "opaque")

    def __post_init__(self) -> None:
        if self.kind not in (
            "int32", "word32", "bool", "string8", "string16", "handle",
            "enum", "record", "array", "callback", "opaque", "unit",
        ):
            raise ValueError(f"unknown semantic type kind {self.kind!r}")
        if self.kind in ("enum", "record", "callback") and not self.name:
            raise ValueError(f"{self.kind} semantic type needs a name")
        if self.kind == "array" and (self.elem is None or not self.len_from):
            raise ValueError("array semantic type needs elem and len_from")


INT32 = SemType("int32")
WORD32 = SemType("word32")
BOOL = SemType("bool")
STRING8 = SemType("string8")
STRING16 = SemType("string16")
HANDLE = SemType("handle")
OPAQUE = SemType("opaque")
UNIT = SemType("unit")


def enum_t(name: str) -> SemType:
    return SemType("enum", name=name)


def record_t(name: str) -> SemType:
    return SemType("record", name=name)


def callback_t(name: str) -> SemType:
    return SemType("callback", name=name)


def array_t(elem: SemType, len_from: str) -> SemType:
    return SemType("array", elem=elem, len_from=len_from)


def sem_to_json(t: SemType) -> dict:
    out: dict = {"k": t.kind}
    if t.name is not None:
        out["name"] = t.name
    if t.elem is not None:
        out["elem"] = sem_to_json(t.elem)
    if t.len_from is not None:
        out["len_from"] = t.len_from
    return out


def sem_from_json(obj: object, path: str = "$") -> SemType:
    from mlidl.binding.bindfile import SchemaViolation  # cycle-free at call time

    if not isinstance(obj, dict) or "k" not in obj:
        raise SchemaViolation(path, "expected a semantic type object with key 'k'")
    for key in ("name", "len_from"):
        if obj.get(key) is not None and not isinstance(obj[key], str):
            raise SchemaViolation(f"{path}.{key}", "expected a string")
    kind = obj["k"]
    try:
        return SemType(
            kind=kind,
            name=obj.get("name"),
            elem=sem_from_json(obj["elem"], path + ".elem") if "elem" in obj else None,
            len_from=obj.get("len_from"),
        )
    except ValueError as exc:
        raise SchemaViolation(path, str(exc)) from None
