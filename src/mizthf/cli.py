"""Command line front end.

Subcommands mirror the pipeline: ``check`` parses and translates each
statement file as the other commands do and reports each file's error,
``translate`` shows the higher-order form of one statement,
``emit`` assembles a THF0 problem from a conjecture and axiom files,
``match`` recovers a scheme instantiation, and ``prove`` hands an
emitted problem to an external prover and reads back its SZS status.

Exit status: 0 success, 1 diagnostics or no match or not proved,
2 usage and I/O errors, and a prover that exits nonzero with no SZS
status line on its stdout.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, TypeVar

from . import hol, thf
from .mizar import MStatement, Signature, SourceError
from .parser import parse_signature, parse_statement
from .patterns import MatchError, recover_scheme_instantiation
from .thfcheck import check_thf
from .translate import MAX_ARITY, TranslationError, translate_statement

_T = TypeVar("_T")
_TOO_DEEP = "input nests too deeply to process"


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise OSError(f"{path}: not UTF-8 text: {e}") from None


def _load(path: str, parse: Callable[..., _T], *args: object) -> _T:
    """``parse`` run on the text of ``path``; a ``SourceError`` it raises
    learns the path."""
    try:
        return parse(_read(path), *args)
    except SourceError as e:
        e.path = path
        raise


def _positioned(err: SourceError) -> str:
    where = [str(p) for p in (err.path, err.line, err.col) if p is not None]
    return f"{':'.join(where)}: {err}" if where else str(err)


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a count of 0 or more, got {text!r}")
    return int(text)


# the longest wait ``poll`` accepts, 2**31 - 1 ms, in whole seconds
MAX_TIMEOUT = 2_147_483


def _seconds(text: str) -> float:
    try:
        seconds = float(text)
    except ValueError:
        seconds = 0.0
    if not 0 < seconds <= MAX_TIMEOUT:  # false for nan too
        raise argparse.ArgumentTypeError(
            f"expected seconds above 0 and at most {MAX_TIMEOUT}, "
            f"got {text!r}")
    return seconds


def _axiom_name(path: str, statement: MStatement, taken: set[str]) -> str:
    base = statement.name or re.sub(r"\W", "_", Path(path).stem) or "ax"
    return thf.unique_name(base, taken)


def cmd_check(args: argparse.Namespace) -> int:
    sig = _load(args.sig, parse_signature)
    status = 0
    for path in args.files:
        try:
            _translate_file(path, sig, args.max_arity)
        except SourceError as e:
            print(_positioned(e), file=sys.stderr)
            status = 1
        except TranslationError as e:
            print(f"{path}: {e}", file=sys.stderr)
            status = 1
        except RecursionError:
            print(f"{path}: {_TOO_DEEP}", file=sys.stderr)
            status = 1
    return status


def _translate_file(path: str, sig: Signature,
                    max_arity: int) -> tuple[MStatement, hol.Term]:
    statement = _load(path, parse_statement, sig)
    return statement, translate_statement(statement, sig,
                                          max_arity=max_arity)


def cmd_translate(args: argparse.Namespace) -> int:
    sig = _load(args.sig, parse_signature)
    _, term = _translate_file(args.file, sig, args.max_arity)
    print(hol.show_term(term))
    return 0


def _assemble(args: argparse.Namespace) -> thf.Problem:
    sig = _load(args.sig, parse_signature)
    axioms: list[tuple[str, hol.Term]] = []
    taken: set[str] = set()
    for path in args.axiom or []:
        statement, term = _translate_file(path, sig, args.max_arity)
        axioms.append((_axiom_name(path, statement, taken), term))
    _, conjecture = _translate_file(args.file, sig, args.max_arity)
    return thf.assemble_problem(conjecture, axioms, sig)


def _checked_text(problem: thf.Problem) -> str | None:
    """The problem's THF text, or ``None`` once ``check_thf``'s
    diagnostics on it are reported."""
    text = thf.emit_thf(problem)
    diags = check_thf(text)
    for d in diags:
        print(f"emitted problem: {d}", file=sys.stderr)
    return None if diags else text


def cmd_emit(args: argparse.Namespace) -> int:
    text = _checked_text(_assemble(args))
    if text is None:
        return 1
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    sig = _load(args.sig, parse_signature)
    scheme_stmt, scheme = _translate_file(args.scheme, sig, args.max_arity)
    _, conjecture = _translate_file(args.file, sig, args.max_arity)
    k = args.strip if args.strip is not None else len(scheme_stmt.prefix)
    try:
        found = recover_scheme_instantiation(scheme, conjecture, k)
    except MatchError as e:
        return _fail(f"no instantiation: {e}", 1)
    for meta, value in found.substitution.items():
        print(f"{meta.name} := {hol.show_term(value)}")
    for condition in found.side_conditions:
        print(f"side condition: {hol.show_term(condition)}")
    return 0


def cmd_prove(args: argparse.Namespace) -> int:
    text = _checked_text(_assemble(args))
    if text is None:
        return 1
    with tempfile.NamedTemporaryFile(
            "w", suffix=".p", delete=False, encoding="utf-8") as handle:
        handle.write(text)
        path = handle.name
    try:
        # its own session, so a timeout can kill whatever it started too
        with subprocess.Popen(
                [args.prover, path], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
                start_new_session=True) as prover:
            try:
                stdout, _ = prover.communicate(timeout=args.timeout)
            except subprocess.TimeoutExpired:
                os.killpg(prover.pid, signal.SIGKILL)
                return _fail(f"prover timed out after {args.timeout}s", 1)
    finally:
        Path(path).unlink(missing_ok=True)
    # only a status line on stdout counts (Sutcliffe, "The SZS
    # Ontologies for Automated Reasoning Software", 2008)
    match = re.search(r"^(?:% *)?SZS status (\w+)", stdout, re.MULTILINE)
    if match is None and prover.returncode != 0:
        return _fail(f"prover exited with status {prover.returncode}", 2)
    status = match.group(1) if match else "Unknown"
    print(f"SZS status {status}")
    return 0 if status == "Theorem" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mizthf",
        description="translate Mizar-style statements to THF0 and "
                    "recover scheme instantiations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sig", required=True,
                       help="signature file naming the constants")
        p.add_argument("--max-arity", type=_count, default=MAX_ARITY,
                       metavar="N", help="largest comprehension binder count "
                                         "(default %(default)s)")

    p = sub.add_parser("check", help="report what keeps each statement "
                                     "from translating")
    p.add_argument("files", nargs="+")
    common(p)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("translate",
                       help="print the higher-order form of a statement")
    p.add_argument("file")
    common(p)
    p.set_defaults(run=cmd_translate)

    p = sub.add_parser("emit", help="write a THF0 problem")
    p.add_argument("file", help="conjecture statement")
    common(p)
    p.add_argument("--axiom", action="append", metavar="FILE",
                   help="statement to include as an axiom (repeatable)")
    p.add_argument("--out", metavar="PATH",
                   help="output file (default stdout)")
    p.set_defaults(run=cmd_emit)

    p = sub.add_parser("match",
                       help="recover how a scheme instantiates to a "
                            "conjecture")
    p.add_argument("scheme", help="scheme statement")
    p.add_argument("file", help="ground conjecture statement")
    common(p)
    p.add_argument("--strip", type=_count, metavar="K",
                   help="outer universals to open (default: the "
                        "scheme's prefix length)")
    p.set_defaults(run=cmd_match)

    p = sub.add_parser("prove", help="emit and run an external prover")
    p.add_argument("file", help="conjecture statement")
    common(p)
    p.add_argument("--axiom", action="append", metavar="FILE")
    p.add_argument("--prover", required=True,
                   help="prover executable accepting a THF file")
    p.add_argument("--timeout", type=_seconds, default=30.0, metavar="S")
    p.set_defaults(run=cmd_prove)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as e:
        return _fail(str(e), 2)
    except SourceError as e:
        return _fail(_positioned(e), 1)
    except (TranslationError, thf.UndeclaredConstant, hol.HolTypeError) as e:
        return _fail(str(e), 1)
    except RecursionError:
        # a nesting no layer bounds yet ran out of Python stack
        return _fail(_TOO_DEEP, 1)


if __name__ == "__main__":
    sys.exit(main())
