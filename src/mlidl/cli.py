"""Command-line driver.

    mlidl compile <input.idl> [--mode M] [--level L] [--emit sig,binding]
                  [-o DIR] [--manifest FILE]
    mlidl check <input.idl>
    mlidl run-demo bounce [--ticks N] [--trace FILE]

Exit codes: 0 success, 1 usage error, 2 compile error, 3 runtime error.
Outputs carry no timestamps; identical inputs give byte-identical files.
Set MLIDL_TRACE=1 to log raw memory operations to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from mlidl.binding import (
    BindingError,
    SchemaViolation,
    build_binding,
    emit_binding_file,
    emit_sig_text,
    load_manifest,
)
from mlidl.binding.build import LEVELS, MODES
from mlidl.idl import IdlError, parse_text, resolve
from mlidl.winsim.bounce import BounceDemo
from mlidl.wordmem import Mem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPILE = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlidl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    comp = sub.add_parser("compile", help="compile an IDL file")
    comp.add_argument("input", help="IDL source file")
    comp.add_argument("--mode", choices=MODES, default="dynamic")
    comp.add_argument("--level", choices=LEVELS, default="auto")
    comp.add_argument("--emit", default="sig,binding",
                      help="comma-separated: sig, binding")
    comp.add_argument("-o", "--out-dir", default=".")
    comp.add_argument("--manifest", default=None,
                      help="IID/CLSID manifest (required for com mode)")

    chk = sub.add_parser("check", help="parse and resolve only")
    chk.add_argument("input", help="IDL source file")

    demo = sub.add_parser("run-demo", help="run a built-in demo")
    demo.add_argument("name", choices=("bounce",))
    demo.add_argument("--ticks", type=int, default=500)
    demo.add_argument("--trace", default=None, help="write the event trace here")
    demo.add_argument("--adapter", action="store_true",
                      help="run the wndproc through the queue adapter")

    return parser


def _read_unit(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IdlError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_text(text, source=path)


def _cmd_compile(args: argparse.Namespace) -> int:
    emissions = [e.strip() for e in args.emit.split(",") if e.strip()]
    for e in emissions:
        if e not in ("sig", "binding"):
            raise _UsageError(f"unknown emission {e!r}")
    if not emissions:
        raise _UsageError("--emit selects nothing")

    unit = _read_unit(args.input)
    manifest = load_manifest(args.manifest) if args.manifest else None
    desc = build_binding(unit, mode=args.mode, level=args.level,
                         manifest=manifest)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.input).stem
    if "sig" in emissions:
        path = out_dir / f"{stem}.sig"
        path.write_text(emit_sig_text(desc), encoding="utf-8")
        print(f"wrote {path}")
    if "binding" in emissions:
        path = out_dir / f"{stem}.binding.json"
        path.write_text(emit_binding_file(desc), encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    resolve(_read_unit(args.input))
    return EXIT_OK


def _cmd_run_demo(args: argparse.Namespace) -> int:
    if args.ticks < 1:
        raise _UsageError("--ticks must be at least 1")
    mem = Mem(trace=(lambda line: print(line, file=sys.stderr))
              if os.environ.get("MLIDL_TRACE") == "1" else None)
    demo = BounceDemo(mem=mem, adapter=args.adapter)
    try:
        code = demo.run(ticks=args.ticks)
    except Exception as exc:
        print(f"mlidl: demo failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.trace is not None:
        Path(args.trace).write_text(demo.world.trace_text(), encoding="utf-8")
    return EXIT_OK if code == 0 else EXIT_RUNTIME


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("no command given")
        if args.command == "compile":
            return _cmd_compile(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_run_demo(args)
    except _UsageError as exc:
        print(f"usage: {parser.format_usage().strip()}", file=sys.stderr)
        print(f"mlidl: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IdlError, BindingError, SchemaViolation) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_COMPILE


if __name__ == "__main__":
    sys.exit(main())
