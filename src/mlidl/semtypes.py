"""Semantic types: the value-level classification every IDL type lowers to.

A SemType says how a value is represented at the word level and how it
converts to and from host values.  Scalars occupy one word inline; strings,
arrays and callbacks cross the boundary as a one-word address.

A description holds one SemType object per distinct type: the builder and
the binding-file loader each make the types of one description through
`interned` and a `sem_table` that they own and drop (hash consing), so equal
types are one object there, and the binding-file writer renders each once.
Nothing is kept between descriptions.  `SchemaViolation`, the loader's
error, is defined here so that this module needs no import of the binding
package; its public home stays `mlidl.binding`.  The braced GUID grammar
lives here too, so that `com` reaches it without importing the compiler.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional


# The one braced GUID grammar: the compiler and the binding loader check
# against it, and `com.Guid.parse` reads it.
_GUID_TEXT = re.compile(r"\{[0-9A-Fa-f]{8}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-"
                        r"[0-9A-Fa-f]{4}-[0-9A-Fa-f]{12}\}")


class SchemaViolation(Exception):
    """A binding file that breaks its schema, at a JSON path such as
    `$.interfaces[0].ops[2].params[1].sem`."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@dataclass(frozen=True)
class SemType:
    kind: str
    name: Optional[str] = None          # enum / record / callback name
    elem: Optional["SemType"] = None    # array element type
    len_from: Optional[str] = None      # array length parameter name

    def __post_init__(self) -> None:
        if self.kind not in (
            "int32", "word32", "bool", "string8", "string16", "handle",
            "enum", "record", "array", "callback", "opaque", "unit",
        ):
            raise ValueError(f"unknown semantic type kind {self.kind!r}")
        if self.kind in ("enum", "record", "callback"):
            if not self.name:
                raise ValueError(f"{self.kind} semantic type needs a name")
        elif self.name is not None:
            raise ValueError(f"{self.kind} semantic type takes no name")
        if self.kind == "array":
            if self.elem is None or not self.len_from:
                raise ValueError("array semantic type needs elem and len_from")
        elif self.elem is not None or self.len_from is not None:
            raise ValueError(f"{self.kind} semantic type takes no elem or len_from")


INT32 = SemType("int32")
WORD32 = SemType("word32")
BOOL = SemType("bool")
STRING8 = SemType("string8")
STRING16 = SemType("string16")
HANDLE = SemType("handle")
OPAQUE = SemType("opaque")
UNIT = SemType("unit")


def sem_to_json(t: SemType) -> dict:
    out: dict = {"k": t.kind}
    if t.name is not None:
        out["name"] = t.name
    if t.elem is not None:
        out["elem"] = sem_to_json(t.elem)
    if t.len_from is not None:
        out["len_from"] = t.len_from
    return out


def sem_table() -> dict:
    """A fresh intern table for `interned`, holding the scalar constants so
    that an interned scalar is the module's own object."""
    return {(t.kind, None, id(None), None): t
            for t in (INT32, WORD32, BOOL, STRING8, STRING16, HANDLE, OPAQUE, UNIT)}


def interned(table: dict, kind: str, name: Optional[str] = None,
             elem: Optional[SemType] = None,
             len_from: Optional[str] = None) -> SemType:
    """The one SemType in `table` with these fields, made and added if new.

    The table maps (kind, name, id of elem, len_from) to the type, so `elem`
    must come from the same table; every argument is a str or None, and a
    type that fails its checks raises ValueError and never gets in.
    """
    key = (kind, name, id(elem), len_from)
    t = table.get(key)
    if t is None:
        t = table[key] = SemType(kind, name, elem, len_from)
    return t


def sem_from_json(obj: object, path: str, table: dict, declared: set) -> SemType:
    """The SemType `obj` spells, interned in `table`, or a SchemaViolation
    at `path`.  `declared` holds the (kind, name) of every enum, record and
    callback that may be named; a type that names one not in it is refused
    where it is met."""
    if not isinstance(obj, dict) or "k" not in obj:
        raise SchemaViolation(path, "expected a semantic type object with key 'k'")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaViolation(f"{path}.name", "expected a string")
    len_from = obj.get("len_from")
    if len_from is not None and not isinstance(len_from, str):
        raise SchemaViolation(f"{path}.len_from", "expected a string")
    elem = (sem_from_json(obj["elem"], path + ".elem", table, declared)
            if "elem" in obj else None)
    kind = obj["k"]
    if type(kind) is not str:
        raise SchemaViolation(path, f"unknown semantic type kind {kind!r}")
    if name and kind in ("enum", "record", "callback") and (kind, name) not in declared:
        raise SchemaViolation(path, f"no {kind} named {name!r} is declared")
    try:
        return interned(table, kind, name, elem, len_from)
    except ValueError as exc:
        raise SchemaViolation(path, str(exc)) from None
