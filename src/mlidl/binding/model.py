"""Codegen-ready binding model.

A LiftedSig keeps the declaration-ordered parameter list (which is also the
ABI argument order) and derives the two client-facing views from it: the
in-parameters, and the results list (out parameters in declaration order,
then the function result last if the operation is not void).

`lay_out` holds the one record layout rule: the builder makes every
RecordLayout through it, and the binding-file loader checks each loaded
record's size and offsets against it.

Every class here, like `SemType`, stays a frozen dataclass, although the
IDL AST is a plain one.  The model carries caches that hold only while it
cannot change: `BindingDesc.plans`, the one home of marshalling plans, keys
them by the identity of a signature and derives them from its parameters,
as `BindingDesc.invoke_rows` does Automation's rows, `BindingDesc.codecs`
holds the codec of each enum and record type, by kind and name,
`BindingDesc.binding_text` renders the description once, and the intern
table and the binding-file writer's fragments key semantic types by
identity.  An assignment to any of these objects would leave a stale plan
or text behind; freezing makes it raise instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Optional, Union

from mlidl.semtypes import SemType


@dataclass(frozen=True)
class ParamSig:
    name: str
    display: str          # SML-facing type text, e.g. "HWND" or "POINT list"
    sem: SemType
    dir: str = "in"       # in | out | inout
    byref: bool = False   # packed to a heap block; the address is the ABI word


@dataclass(frozen=True)
class RetSig:
    display: str
    sem: SemType


@dataclass(frozen=True)
class LiftedSig:
    name: str
    params: tuple[ParamSig, ...]
    ret: Optional[RetSig] = None
    kind: str = "method"          # method | query_interface
    callback: bool = False

    @cached_property
    def ins(self) -> tuple[ParamSig, ...]:
        return tuple(p for p in self.params if p.dir in ("in", "inout"))

    @cached_property
    def results(self) -> tuple[RetSig, ...]:
        out = tuple(RetSig(p.display, p.sem) for p in self.params if p.dir != "in")
        if self.ret is not None:
            out = out + (self.ret,)
        return out


@dataclass(frozen=True)
class EnumMap:
    name: str
    variants: tuple[tuple[str, int], ...]   # (variant, 32-bit word), source order

    @cached_property
    def _to_int(self) -> dict[str, int]:
        return {name: value for name, value in self.variants}

    @cached_property
    def _from_int(self) -> dict[int, str]:
        table: dict[int, str] = {}
        for name, value in self.variants:
            table.setdefault(value, name)   # first declaration wins for aliases
        return table

    def to_int(self, name: str) -> int:
        try:
            return self._to_int[name]
        except KeyError:
            raise KeyError(f"{self.name} has no variant {name!r}") from None

    def from_int(self, value: int) -> Optional[str]:
        return self._from_int.get(value & 0xFFFFFFFF)


@dataclass(frozen=True)
class FieldLayout:
    name: str
    display: str
    sem: SemType
    offset: int           # words from the start of the record


@dataclass(frozen=True)
class RecordLayout:
    name: str
    fields: tuple[FieldLayout, ...]
    size: int             # words


def lay_out(name: str, fields: Iterable[tuple[str, str, SemType]],
            earlier: Mapping[str, RecordLayout],
            fail: Callable[[int, str], Exception]) -> RecordLayout:
    """Record `name`'s (name, display, sem) fields laid out by the rule:
    declaration order, no padding, a record field as wide as its record in
    `earlier` (the records declared before), any other field one word.  A
    void or array field, or a record not in `earlier`, raises
    `fail(index, message)`."""
    laid: list[FieldLayout] = []
    offset = 0
    for i, (fname, display, sem) in enumerate(fields):
        laid.append(FieldLayout(fname, display, sem, offset))
        if sem.kind == "record":
            inner = earlier.get(sem.name)
            if inner is None:
                raise fail(i, f"record {sem.name!r} used in {name!r} before its "
                              f"declaration")
            offset += inner.size
        elif sem.kind == "unit":
            raise fail(i, f"void is not a value type (in {name!r})")
        elif sem.kind == "array":       # its count would have no parameter to come from
            raise fail(i, f"an array cannot be a record field (in {name!r})")
        else:
            offset += 1
    return RecordLayout(name, tuple(laid), offset)


@dataclass(frozen=True)
class ConstDef:
    name: str
    display: str
    value: Union[int, str]
    form: str             # string | int | word


@dataclass(frozen=True)
class CallbackDef:
    name: str
    sig: LiftedSig        # callback=True, name == typedef name


@dataclass(frozen=True)
class AliasDef:
    name: str
    display: str          # rendering of the aliased type
    sem: SemType


@dataclass(frozen=True)
class InterfaceDesc:
    name: str
    ops: tuple[LiftedSig, ...]
    source: Optional[str] = None    # sml_source library
    parent: Optional[str] = None
    iid: Optional[str] = None       # GUID text, com mode only


@dataclass(frozen=True)
class BindingDesc:
    module: str
    mode: str                       # static | dynamic | com
    level: str                      # abstract | auto
    interfaces: tuple[InterfaceDesc, ...] = ()
    enums: tuple[EnumMap, ...] = ()
    records: tuple[RecordLayout, ...] = ()
    consts: tuple[ConstDef, ...] = ()
    callbacks: tuple[CallbackDef, ...] = ()
    aliases: tuple[AliasDef, ...] = ()
    clsid: Optional[str] = None     # GUID text, com mode only

    @cached_property
    def plans(self) -> dict:
        """Marshalling plans built against this description, by signature
        identity; they die with it."""
        return {}

    @cached_property
    def codecs(self) -> dict:
        """Marshalling codecs of its enum and record types, by (kind, name);
        they die with it."""
        return {}

    @cached_property
    def invoke_rows(self) -> dict:
        """Automation's typed-Invoke rows, by signature identity, as `plans`;
        they die with it."""
        return {}

    @cached_property
    def binding_text(self) -> str:
        """This description's binding file, rendered once; it dies with it."""
        from mlidl.binding.bindfile import render_binding_file  # cycle-free at call time

        return render_binding_file(self)

    @cached_property
    def _by_name(self) -> dict[str, dict[str, Any]]:
        """kind -> name -> the first declaration of that name."""
        index: dict[str, dict[str, Any]] = {}
        for kind, decls in (("record", self.records), ("enum", self.enums),
                            ("callback", self.callbacks),
                            ("interface", self.interfaces)):
            table = index[kind] = {}
            for decl in decls:
                table.setdefault(decl.name, decl)
        return index

    def lookup(self, kind: str, name: str) -> Any:
        """The first `kind` declaration named `name`, or None."""
        return self._by_name[kind].get(name)

    def _named(self, kind: str, name: str) -> Any:
        found = self.lookup(kind, name)
        if found is None:
            raise KeyError(f"no {kind} {name!r} in binding {self.module!r}")
        return found

    def record(self, name: str) -> RecordLayout:
        return self._named("record", name)

    def enum(self, name: str) -> EnumMap:
        return self._named("enum", name)

    def interface(self, name: str) -> InterfaceDesc:
        return self._named("interface", name)
