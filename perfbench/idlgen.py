"""Seeded IDL inputs: the synthetic compile corpus and the abi-mix library.

Every generator takes a `random.Random` and returns plain text plus what the
generator itself knows about that text (per-operation in/result counts, a
com manifest).  Those expectations are the compile workload's oracle: they
come from the generator, never from the compiler under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

# Target sizes, in lines, of the synthetic files of one corpus pass: from
# tens of lines up to about ten times idl/win32.idl (157 lines).  The ladder,
# and each file's mode and level, are fixed so that every seed compiles the
# same amount of text; the seed only changes what the text says.  The 80-line
# rung keeps that file clearly faster than win32.idl, so the median file of a
# pass is the same file for every seed.
SIZE_LADDER = (25, 50, 80, 200, 400, 800, 1600)
MODE_CYCLE = ("dynamic", "static", "com")
LEVEL_CYCLE = ("auto", "abstract")

BASE_TYPEDEFS = (
    "typedef int INT;",
    "typedef int HANDLE;",
    "typedef HANDLE HWND;",
    "typedef boolean BOOL;",
    "typedef [string] char *STRING;",
    "typedef [string] wchar_t *WSTRING;",
    "typedef void *LPVOID;",
)

_SCALAR_TYPES = ("INT", "HWND", "BOOL", "UINT", "long", "unsigned long", "HANDLE")


def _guid(rng: random.Random) -> str:
    h = f"{rng.getrandbits(128):032X}"
    return f"{{{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}}}"


@dataclass
class GenFile:
    name: str
    text: str
    mode: str
    level: str
    manifest: Optional[dict]
    # (interface, op) -> (in-parameter count, result count)
    expected: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)

    @property
    def lines(self) -> int:
        return self.text.count("\n")


class _Writer:
    """Builds one IDL unit declaration by declaration."""

    def __init__(self, rng: random.Random, tag: str, mode: str) -> None:
        self.rng = rng
        self.tag = tag
        self.mode = mode
        self.out: list[str] = []
        self.records: list[tuple[str, bool]] = []   # (name, has string/callback field)
        self.enums: list[str] = []
        self.callbacks: list[str] = []
        self.interfaces: list[str] = []
        self.expected: dict[tuple[str, str], tuple[int, int]] = {}
        self.serial = 0

    def fresh(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.tag}_{self.serial}"

    # -- declarations -----------------------------------------------------

    def enum(self) -> None:
        name = self.fresh("E")
        n = self.rng.randint(3, 8)
        values = self.rng.sample(range(0, 4096), n)
        lines = [f"typedef enum {{"]
        for i, v in enumerate(values):
            lit = f"0wx{v:x}" if self.rng.random() < 0.4 else str(v)
            sep = "," if i + 1 < n else ""
            lines.append(f"  {name}_V{i} = {lit}{sep}")
        lines.append(f"}} {name};")
        self.out += lines + [""]
        self.enums.append(name)

    def callback(self) -> None:
        name = self.fresh("CB")
        n = self.rng.randint(1, 4)
        params = ", ".join(f"[in] {self.rng.choice(('INT', 'HWND', 'UINT'))} a{i}"
                           for i in range(n))
        self.out += [f"typedef int *{name} ({params});", ""]
        self.callbacks.append(name)

    def record(self) -> None:
        name = self.fresh("R")
        n = self.rng.randint(2, 8)
        rich = False
        lines = [f"typedef struct tag{name} {{"]
        for i in range(n):
            r = self.rng.random()
            if r < 0.15 and self.records:
                ftype = self.rng.choice(self.records)[0]
            elif r < 0.25 and self.enums:
                ftype = self.rng.choice(self.enums)
            elif r < 0.35:
                ftype, rich = "STRING", True
            elif r < 0.42 and self.callbacks:
                ftype, rich = self.rng.choice(self.callbacks), True
            else:
                ftype = self.rng.choice(_SCALAR_TYPES)
            lines.append(f"    {ftype} f{i};")
        lines.append(f"}} {name};")
        self.out += lines + [""]
        self.records.append((name, rich))

    def const(self) -> None:
        name = self.fresh("K")
        if self.rng.random() < 0.5:
            self.out.append(f'const char *{name} = "#{self.rng.randint(0, 99999)}";')
        else:
            self.out.append(f"const int {name} = {self.rng.randint(0, 1 << 20)};")

    def param(self, i: int, extra: list[str]) -> tuple[str, str]:
        """One parameter declaration and its direction (in/out/inout)."""
        r = self.rng.random()
        pname = f"p{i}"
        plain = [n for n, rich in self.records if not rich]
        if r < 0.30:
            return f"[in] {self.rng.choice(_SCALAR_TYPES)} {pname}", "in"
        if r < 0.38 and self.enums:
            return f"[in] {self.rng.choice(self.enums)} {pname}", "in"
        if r < 0.46:
            return f"[in] {self.rng.choice(('STRING', 'WSTRING'))} {pname}", "in"
        if r < 0.56 and self.records:
            return f"[in,ref] {self.rng.choice(self.records)[0]} *{pname}", "in"
        if r < 0.64 and plain:
            return f"[out] {self.rng.choice(plain)} *{pname}", "out"
        if r < 0.70:
            return f"[out] INT *{pname}", "out"
        if r < 0.76 and plain:
            return f"[in,out] {self.rng.choice(plain)} *{pname}", "inout"
        if r < 0.80:
            return f"[in,out] INT *{pname}", "inout"
        if r < 0.88:
            count = f"{pname}n"
            elem = self.rng.choice([n for n, _ in self.records] + ["INT"])
            extra.append(f"[in] INT {count}")
            return f"[in,size_is ({count})] {elem} *{pname}", "in"
        if self.callbacks:
            return f"[in] {self.rng.choice(self.callbacks)} {pname}", "in"
        return f"[in] INT {pname}", "in"

    def interface(self) -> None:
        name = self.fresh("I")
        header = []
        if self.mode == "dynamic":
            header.append(f'[sml_source ("{name.lower()}.dll")]')
        parent = ""
        if self.interfaces and self.rng.random() < 0.4:
            parent = f" : {self.rng.choice(self.interfaces)}"
        lines = header + [f"interface {name}{parent} {{"]
        if self.mode == "com":
            self.expected[(name, "QueryInterface")] = (1, 1)
        for j in range(self.rng.randint(3, 9)):
            op = f"Op{j}"
            ret = self.rng.choice(("void", "INT", "BOOL", "HWND", "UINT")
                                  + tuple(self.enums[:2]))
            params: list[str] = []
            n_in = n_res = 0
            for i in range(self.rng.randint(0, 5)):
                extra: list[str] = []
                decl, direction = self.param(i, extra)
                params.append(decl)
                params.extend(extra)
                n_in += (direction != "out") + len(extra)
                n_res += direction != "in"
            n_res += ret != "void"
            self.expected[(name, op)] = (n_in, n_res)
            if self.rng.random() < 0.3:
                lines.append(f"  // operation {j} of {name}")
            if not params:
                lines.append(f"  {ret} {op} ();")
                continue
            pad = " " * (len(ret) + len(op) + 5)
            lines.append(f"  {ret} {op} ({params[0]}" + ("," if len(params) > 1 else ");"))
            for k, decl in enumerate(params[1:], start=1):
                lines.append(pad + decl + ("," if k + 1 < len(params) else ");"))
        lines.append("}")
        self.out += lines + [""]
        self.interfaces.append(name)


def synthetic_file(rng: random.Random, index: int, target_lines: int) -> GenFile:
    mode = MODE_CYCLE[index % len(MODE_CYCLE)]
    tag = f"{index}"
    w = _Writer(rng, tag, mode)
    module = f"Gen{index}"
    w.out += [f"// synthetic unit {index}, about {target_lines} lines", "",
              f'sml_name ("{module}");', ""]
    w.out += list(BASE_TYPEDEFS) + [""]
    w.enum()
    w.callback()
    w.record()
    # declaration kinds cycle in a fixed order; the seed fills them in
    makers = (w.interface, w.record, w.enum, w.interface, w.const,
              w.record, w.interface, w.callback)
    n = 0
    while len(w.out) < target_lines or not w.interfaces:
        makers[n % len(makers)]()
        n += 1
    manifest = None
    if mode == "com":
        manifest = {"clsids": {module: _guid(rng)},
                    "iids": {i: _guid(rng) for i in w.interfaces}}
    text = "\n".join(w.out) + "\n"
    level = LEVEL_CYCLE[index % len(LEVEL_CYCLE)]
    return GenFile(f"gen{index}.idl", text, mode, level, manifest, w.expected)


def synthetic_corpus(seed: int) -> list[GenFile]:
    rng = random.Random(f"compile-corpus-{seed}")
    return [synthetic_file(rng, i, n) for i, n in enumerate(SIZE_LADDER)]


# -- the abi-mix library ------------------------------------------------------

# Parameter shapes of bound calls; every shape has OPS_PER_SHAPE operations.
SHAPES = ("scalar", "string8", "string16", "record_in", "record_out",
          "inout", "array", "callback")
OPS_PER_SHAPE = 24

ABI_LIBRARY = "abilib.dll"

_ABI_HEADER = """\
// Generated client library for the abi-mix workload.

sml_name ("AbiLib");

{typedefs}

typedef int *CBA ([in] INT a, [in] INT b);
typedef int *CBB ([in] INT a, [in] INT b);

typedef enum {{
  COLOR_RED = 0,
  COLOR_GREEN = 7,
  COLOR_BLUE = 0wx80000000,
  COLOR_ALPHA = 0wxfffffffe
}} COLOR;

typedef enum {{
  MODE_OFF = 0,
  MODE_ON = 1,
  MODE_AUTO = 2
}} MODE;

typedef struct tagPOINT {{
    INT x;
    INT y;
}} POINT;

typedef struct tagRECT {{
    INT left;
    INT top;
    INT right;
    INT bottom;
}} RECT;

typedef struct tagPAINT {{
    HWND  hdc;
    BOOL  fErase;
    RECT  rcPaint;
    COLOR tint;
    UINT  flags;
}} PAINT;

typedef struct tagLABEL {{
    STRING text;
    INT    id;
    CBA    onClick;
    MODE   mode;
}} LABEL;
"""

_ABI_SCALARS = ("INT", "UINT", "BOOL", "HWND", "COLOR", "MODE", "long",
                "unsigned long")
_ABI_RETS = ("INT", "UINT", "BOOL", "HWND", "COLOR")


def _abi_op(rng: random.Random, shape: str, name: str, i: int) -> str:
    """Operation `i` of a shape's interface.  Sizes and record types cycle
    with `i`, so every seed's library holds the same mix of work; the seed
    picks the scalar types, return types and order."""
    def scalars(n: int) -> list[str]:
        return [f"[in] {rng.choice(_ABI_SCALARS)} s{k}" for k in range(n)]

    ret = rng.choice(_ABI_RETS)
    if shape == "scalar":
        params = scalars(1 + i % 6)
    elif shape in ("string8", "string16"):
        text = "[in] STRING text" if shape == "string8" else "[in] WSTRING wtext"
        params = [text] + scalars(i % 3)
        ret = rng.choice(("INT", "BOOL", "UINT"))
    elif shape == "record_in":
        rec = ("POINT", "RECT", "PAINT", "LABEL")[i % 4]
        params = [f"[in,ref] {rec} *r"] + scalars(i // 4 % 3)
        ret = "INT"
    elif shape == "record_out":
        rec = ("POINT", "RECT", "PAINT")[i % 3]
        params = scalars(i // 3 % 3) + [f"[out] {rec} *r"]
        ret = ("void", "INT")[i // 12 % 2]
    elif shape == "inout":
        target = ("POINT", "RECT", "PAINT", "INT")[i % 4]
        params = [f"[in,out] {target} *io"] + scalars(i // 4 % 3)
        ret = ("void", "INT")[i // 12 % 2]
    elif shape == "array":
        elem = ("POINT", "RECT", "INT")[i % 3]
        params = [f"[in,size_is (count)] {elem} *items", "[in] INT count"] \
            + scalars(i // 3 % 2)
        ret = "INT"
    else:
        params = [f"[in] {rng.choice(('CBA', 'CBB'))} cb"] + scalars(1 + i % 2)
        ret = "INT"
    pad = " " * (len(ret) + len(name) + 5)
    lines = [f"  {ret} {name} ({params[0]}" + ("," if len(params) > 1 else ");")]
    for k, decl in enumerate(params[1:], start=1):
        lines.append(pad + decl + ("," if k + 1 < len(params) else ");"))
    return "\n".join(lines)


def abi_library(seed: int) -> str:
    """IDL text of the abi-mix library: one interface per parameter shape."""
    rng = random.Random(f"abi-library-{seed}")
    chunks = [_ABI_HEADER.format(typedefs="\n".join(BASE_TYPEDEFS))]
    for shape in SHAPES:
        iface = "Abi" + "".join(part.title() for part in shape.split("_"))
        order = list(range(OPS_PER_SHAPE))
        rng.shuffle(order)
        ops = [_abi_op(rng, shape, f"{iface}{n}", i) for n, i in enumerate(order)]
        chunks.append(f'[sml_source ("{ABI_LIBRARY}")]\ninterface {iface} {{\n'
                      + "\n\n".join(ops) + "\n}\n")
    return "\n".join(chunks)


def shape_of_interface(name: str) -> str:
    """Inverse of the interface naming in `abi_library`."""
    for shape in SHAPES:
        if name == "Abi" + "".join(part.title() for part in shape.split("_")):
            return shape
    raise KeyError(name)
