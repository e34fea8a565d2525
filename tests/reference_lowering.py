"""Independent lowering oracle: what each parameter form lowers to.

A table stated as rules of the dialect, not derived from
`mlidl.binding.build`, so that tests can check `build_binding` against it
form for form.  A form is a direction, a pointer depth of 0-2, the
parameter's own `[string]` attribute and a base; it is written either
directly or through a typedef.  A form lowers to a `Lowered` (the
parameter's `dir`, sem kind, `byref` and SML display) or to the diagnostic
class it must raise.

The rules:

- `[string]` on a pointer to a base type (`int` or `char` here) makes that
  pointer one string8 value.  The rest of the form then applies to the
  string value.
- A value (depth 0) is an `in` parameter passed inline; `out` or `in,out`
  raises.
- A pointer to a value (depth 1) is by reference unless it is `out`,
  strings included.  A callback is only passed `in`.
- A pointer to a pointer (depth 2) is an `out` or `in,out` slot for an
  address-sized value (opaque, not by reference); `in` raises.
- A form written through a typedef lowers like its direct form and shows
  the typedef's name.  Its typedef holds the base, or, for a `[string]`
  pointer to a base type, the base, the innermost pointer and `[string]`:
  `typedef [string] char *ALIAS; [in] ALIAS *s` is `[in,string] char **s`.
- The predeclared `HRESULT` is an int alias, `IID` a record and `IUnknown`
  an interface, which lowers to an opaque word; a unit may declare its own
  `HRESULT`.

`size_is` targets have a table of their own: the target must be an integer
parameter, and the predeclared `HRESULT` is one.

Do not edit the table to follow the compiler; a difference between the two
is what the tests look for.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Union

from mlidl.binding import BindingError
from mlidl.idl import BadAttrTarget

PREAMBLE = """\
typedef [string] char *STRING;
typedef int INT;
typedef int *CB ([in] INT a, [in] INT b);
typedef struct tagPOINT {
    INT x;
    INT y;
} POINT;
typedef enum {
    MODE_OFF = 0,
    MODE_ON = 1
} MODE;
"""


class Base(NamedTuple):
    spelling: str
    kind: str           # sem kind of a value of this base
    display: str        # SML display of a value of this base
    base_type: bool     # a dialect base type, which `[string]` can make a string
    unit_decl: str = ""     # a declaration the unit adds to the preamble


BASES = {
    "int": Base("int", "int32", "Int32.int", True),
    "char": Base("char", "int32", "Char.char", True),
    "STRING": Base("STRING", "string8", "STRING", False),
    "record": Base("POINT", "record", "POINT", False),
    "enum": Base("MODE", "enum", "MODE", False),
    "callback": Base("CB", "callback", "CB", False),
    "HRESULT": Base("HRESULT", "int32", "HRESULT", False),
    "IID": Base("IID", "record", "IID", False),
    "IUnknown": Base("IUnknown", "opaque", "IUnknown", False),
    "unit HRESULT": Base("HRESULT", "int32", "HRESULT", False, "typedef int HRESULT;\n"),
}

DIRS = {"in": "in", "out": "out", "inout": "in,out"}


class Form(NamedTuple):
    dir: str            # in | out | inout
    depth: int          # pointer depth, 0-2
    string: bool        # the parameter's own [string]
    base: str           # a key of BASES
    typedef: bool       # written through a typedef

    @property
    def id(self) -> str:
        return "-".join([self.dir, f"depth{self.depth}", "string" if self.string else "plain",
                         self.base.replace(" ", "_"),
                         "typedef" if self.typedef else "direct"])


class Lowered(NamedTuple):
    dir: str
    kind: str
    byref: bool
    display: str


FORMS = [Form(*f) for f in itertools.product(DIRS, (0, 1, 2), (False, True), BASES,
                                             (False, True))]


def _text_pointer(form: Form) -> bool:
    """Whether the form's innermost pointer is a `[string]` pointer to a base
    type, that is one string value."""
    return form.string and form.depth >= 1 and BASES[form.base].base_type


def unit_text(form: Form) -> str:
    """A unit whose one op takes the form as its parameter `p`."""
    base = BASES[form.base]
    attrs = [DIRS[form.dir]]
    stars = form.depth
    decls = base.unit_decl
    if not form.typedef:
        if form.string:
            attrs.append("string")
        spelling = base.spelling
    elif _text_pointer(form):
        decls += f"typedef [string] {base.spelling} *ALIAS;\n"
        spelling, stars = "ALIAS", stars - 1
    else:
        decls += f"typedef {base.spelling} ALIAS;\n"
        if form.string:
            attrs.append("string")
        spelling = "ALIAS"
    param = f"[{','.join(attrs)}] {spelling} {'*' * stars}p"
    return f"{PREAMBLE}{decls}\ninterface I {{\n  void F ({param});\n}}\n"


def lowering(form: Form) -> Union[Lowered, type[Exception]]:
    base = BASES[form.base]
    kind, display, depth = base.kind, base.display, form.depth
    if _text_pointer(form):
        kind, display, depth = "string8", "String.string", depth - 1
    if form.typedef:
        display = "ALIAS"
    if depth == 0:
        if form.dir != "in":
            return BindingError         # out parameters must be pointers
        return Lowered("in", kind, False, display)
    if depth == 1:
        if kind == "callback" and form.dir != "in":
            return BindingError         # a callback is only passed in
        return Lowered(form.dir, kind, form.dir != "out", display)
    if form.dir == "in":
        return BindingError             # no in pointer to a pointer
    return Lowered(form.dir, "opaque", False, display)


# -- size_is targets ------------------------------------------------------------

SIZE_TARGETS = [(b, t) for b in BASES for t in (False, True)]


def size_target_text(base_name: str, typedef: bool) -> str:
    """A unit whose array's `size_is` names a parameter of the given base,
    written directly or through a typedef."""
    base = BASES[base_name]
    decls = base.unit_decl
    spelling = base.spelling
    if typedef:
        decls += f"typedef {base.spelling} ALIAS;\n"
        spelling = "ALIAS"
    return (f"{PREAMBLE}{decls}\ninterface I {{\n"
            f"  int F ([in,size_is (n)] int *a, [in] {spelling} n);\n}}\n")


def size_target(base_name: str) -> Union[str, type[Exception]]:
    """The sem kind of a valid target, or the class its array raises."""
    base = BASES[base_name]
    if base.spelling in ("int", "HRESULT"):
        return "int32"
    return BadAttrTarget
