"""`src/` keeps only what a caller outside the tests reaches.

Every function, class and method defined in `src/mlidl` (dunders aside)
must be named by some caller that is not a test:

- a `Name`, an `Attribute` or a `from ... import` name in `src/mlidl`,
  outside the package `__init__.py` files;
- the same in `perfbench/*.py`, which is read as text and never imported;
- an operation of `winsim/data/win32sim.idl`, since `winsim.api` reaches
  the simulator's methods through `getattr`.

The check goes by name alone, so a caller of another definition with the
same name lets a definition pass: a collision can only let a name pass,
never fail one.  Such a name is checked by hand.  `Registry.dump` passes
only through perfbench's `Tracer.dump`, and stays on purpose: it is the one
reader of the label that perfbench passes to `simple_factory`.  A name that
nothing but the tests reaches is deleted, together with the tests of it
alone, or gets a caller; the tests reach the rest through the API that the
callers use.

The same rule covers a package's exports: every name that a package
`__init__.py` imports is imported through that package by a program
caller, as `from mlidl.<pkg> import name` in a `src/` module outside the
`__init__` files or in `perfbench/*.py`, or as `<pkg>.name` where `<pkg>`
was bound by `from mlidl import <pkg>`.  Every other name is imported from
its module, by the program and the tests alike.
"""
from __future__ import annotations

import ast
from pathlib import Path

from conftest import REPO
from mlidl.idl import parse_text
from mlidl.idl.ast import Interface

SRC = REPO / "src" / "mlidl"

# name -> why it stays without a caller in the program
EXEMPT = {
    "closure_count": "Mem.closure_count, the leak counter of closure registrations, "
                     "is the pair of live_count, which perfbench reads; a user of "
                     "a long-lived world needs both to see what it keeps",
}


def _names(tree: ast.AST) -> set[str]:
    """The names that `tree` mentions as a Name, an Attribute or a name
    imported with `from ... import`."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions() -> list[tuple[Path, int, str]]:
    """(file, line, name) of each function, class and method of `src/mlidl`."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _is_dunder(node.name)):
                found.append((path, node.lineno, node.name))
    return found


def program_modules() -> list[Path]:
    """The `src/` modules outside the package `__init__` files, and perfbench's."""
    return ([path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
            + sorted((REPO / "perfbench").glob("*.py")))


def callers() -> set[str]:
    """Every name that a caller outside the tests mentions."""
    named: set[str] = set()
    for path in program_modules():
        named |= _names(ast.parse(path.read_text(encoding="utf-8")))
    sim = SRC / "winsim" / "data" / "win32sim.idl"
    unit = parse_text(sim.read_text(encoding="utf-8"), sim.name)
    named |= {op.name for d in unit.decls if isinstance(d, Interface) for op in d.ops}
    return named


def exports() -> list[tuple[str, str]]:
    """(package, name) of every name that a package `__init__.py` imports."""
    found = []
    for init in sorted(SRC.glob("*/__init__.py")):
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [(init.parent.name, alias.asname or alias.name)
                          for alias in node.names]
    return found


def imported_through_packages() -> set[tuple[str, str]]:
    """(package, name) of each `from mlidl.<package> import name`, and each
    `<package>.name` after `from mlidl import <package>`, of a program module."""
    found: set[tuple[str, str]] = set()
    for path in program_modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound: dict[str, str] = {}      # local name -> package of mlidl
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "mlidl":
                bound.update((alias.asname or alias.name, alias.name)
                             for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mlidl."):
                found.update((node.module[len("mlidl."):], alias.name)
                             for alias in node.names)
        found.update((bound[node.value.id], node.attr) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in bound)
    return found


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    named = callers() | set(EXEMPT)
    unreached = [f"{path.relative_to(REPO)}:{line}: {name}"
                 for path, line, name in definitions() if name not in named]
    assert unreached == [], "defined in src/ but reached only by tests:\n" + \
        "\n".join(unreached)


def test_the_exemptions_are_still_needed():
    # an exempt name that gained a caller, or was deleted, leaves the list
    named, defined = callers(), {name for _, _, name in definitions()}
    assert [name for name in EXEMPT if name in named or name not in defined] == []


def test_a_package_exports_only_what_a_program_imports_through_it():
    imported = imported_through_packages()
    unused = [f"mlidl.{pkg}.{name}" for pkg, name in exports() if (pkg, name) not in imported]
    assert unused == [], "exported by a package but imported from it only by tests " \
        "(import it from its module):\n" + "\n".join(unused)
