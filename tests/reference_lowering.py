"""Independent lowering oracle: what each parameter form lowers to.

A table stated as rules of the dialect, not derived from
`mlidl.binding.build`, so that tests can check `build_binding` against it
form for form.  A form is a direction, a pointer depth of 0-2, the
parameter's own `[string]` attribute and a base; it is written either
directly or through a typedef, each over the base itself or over an alias
of it.  A form lowers to a `Lowered` (the parameter's `dir`, sem kind,
`byref` and SML display) or to the diagnostic class it must raise.

The rules:

- `[string]` makes a pointer one string value exactly when the pointer's
  target is `char` (string8) or `wchar_t` (string16), directly or through
  typedefs.  The rest of the form then applies to the string value.  On
  any other pointer, and on a value, `[string]` has no effect.
- `void` is no value: a `void` parameter raises.  A pointer to `void` is an
  opaque word, as `typedef void *LPVOID` is, so the rest of the form
  applies to that word with one pointer fewer: `[in] void *p` is an opaque
  word passed inline, and `[out] void *p` raises.  A pointer to a pointer
  to `void` follows the pointer-to-pointer rule below.
- A value (depth 0) is an `in` parameter passed inline; `out` or `in,out`
  raises.
- A pointer to a value (depth 1) is by reference unless it is `out`,
  strings included.  A callback is only passed `in`.
- A pointer to a pointer (depth 2) is an `out` or `in,out` slot for an
  address-sized value (opaque, not by reference); `in` raises.
- A form written through a typedef lowers like its direct form and shows
  the typedef's name.  Its typedef holds the base, or, for a `[string]`
  pointer to `char` or `wchar_t`, the base, the innermost pointer and
  `[string]`: `typedef [string] char *ALIAS; [in] ALIAS *s` is
  `[in,string] char **s`.
- Each of those two spellings is also written over an alias of its base,
  `typedef <base> BASE;`, which lowers as the base does and shows as
  `BASE`: `typedef char BASE; [in,string] BASE *s` is a string8, and so is
  `typedef char BASE; typedef [string] BASE *ALIAS; [in] ALIAS s`.
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
    display: str        # SML display of a value of this base (of a pointer to void)
    text: str           # the string kind `[string]` makes of a pointer to it, or ""
    unit_decl: str = ""     # a declaration the unit adds to the preamble


BASES = {
    "int": Base("int", "int32", "Int32.int", ""),
    "char": Base("char", "int32", "Char.char", "string8"),
    "wchar_t": Base("wchar_t", "int32", "Word32.word", "string16"),
    "STRING": Base("STRING", "string8", "STRING", ""),
    "record": Base("POINT", "record", "POINT", ""),
    "enum": Base("MODE", "enum", "MODE", ""),
    "callback": Base("CB", "callback", "CB", ""),
    "HRESULT": Base("HRESULT", "int32", "HRESULT", ""),
    "IID": Base("IID", "record", "IID", ""),
    "IUnknown": Base("IUnknown", "opaque", "IUnknown", ""),
    "unit HRESULT": Base("HRESULT", "int32", "HRESULT", "", "typedef int HRESULT;\n"),
    "void": Base("void", "unit", "Word32.word", ""),
}

DIRS = {"in": "in", "out": "out", "inout": "in,out"}


class Form(NamedTuple):
    dir: str            # in | out | inout
    depth: int          # pointer depth, 0-2
    string: bool        # the parameter's own [string]
    base: str           # a key of BASES
    typedef: bool       # written through a typedef
    alias: bool         # the base spelled through `typedef <base> BASE;`

    @property
    def id(self) -> str:
        return "-".join([self.dir, f"depth{self.depth}", "string" if self.string else "plain",
                         self.base.replace(" ", "_"),
                         "typedef" if self.typedef else "direct"]
                        + (["alias"] if self.alias else []))


class Lowered(NamedTuple):
    dir: str
    kind: str
    byref: bool
    display: str


FORMS = [Form(*f) for f in itertools.product(DIRS, (0, 1, 2), (False, True), BASES,
                                             (False, True), (False, True))]


def _text_pointer(form: Form) -> bool:
    """Whether the form's innermost pointer is a `[string]` pointer to `char`
    or `wchar_t`, that is one string value."""
    return form.string and form.depth >= 1 and bool(BASES[form.base].text)


def unit_text(form: Form) -> str:
    """A unit whose one op takes the form as its parameter `p`."""
    base = BASES[form.base]
    attrs = [DIRS[form.dir]]
    stars = form.depth
    decls = base.unit_decl
    spelling = base.spelling
    if form.alias:
        decls += f"typedef {spelling} BASE;\n"
        spelling = "BASE"
    if form.typedef and _text_pointer(form):
        decls += f"typedef [string] {spelling} *ALIAS;\n"
        spelling, stars = "ALIAS", stars - 1
    else:
        if form.typedef:
            decls += f"typedef {spelling} ALIAS;\n"
            spelling = "ALIAS"
        if form.string:
            attrs.append("string")
    param = f"[{','.join(attrs)}] {spelling} {'*' * stars}p"
    return f"{PREAMBLE}{decls}\ninterface I {{\n  void F ({param});\n}}\n"


def lowering(form: Form) -> Union[Lowered, type[Exception]]:
    base = BASES[form.base]
    kind, display, depth = base.kind, base.display, form.depth
    if form.alias:
        display = "BASE"
    if _text_pointer(form):
        kind, display, depth = base.text, "String.string", depth - 1
    if form.typedef:
        display = "ALIAS"
    if kind == "unit":
        if depth == 0:
            return BindingError         # void is not a value type
        if depth == 1:
            kind, depth = "opaque", 0   # a pointer to void is an opaque word
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
