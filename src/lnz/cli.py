"""Command-line front end.

Exit codes: 0 success (or Equivalent), 1 for a failed check or a Distinct
verdict, 2 for inadmissible parameters, 3 for an Unknown equivalence
verdict, 64 for usage errors, 65 for malformed documents, 141 (128 +
SIGPIPE) when the reader of standard output goes away, as in ``| head``.

``--budget`` belongs to ``analyze`` (the sample count of the
characteristic sequence) and ``equiv`` (the height bound of the witness
grid).  ``verify-all`` has none: e_1 certifies the estimate on every
catalog row before any sample is drawn.

``main(argv)`` may be called any number of times in one process; it builds
the argument parser on the first call and reuses it, and each call parses
into a fresh namespace.  A shell invocation makes one call, so it runs as
before.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import leibniz_residual, parse, parse_fraction, serialize
from .analysis import (_annihilator_rows, char_sequence_estimate,
                       lower_central_series, natural_gradation)
from .catalog import (CATALOG_ROWS, DEFAULT_FREE_SAMPLES, SecondTypeParams,
                      catalog_index_document)
from .errors import (DimensionTooSmall, DocumentError, IndexOutOfRange,
                     ParityViolation, ToolkitError, UnknownFamily)
from .transform import (Distinct, Equivalent, apply_change, decide_equivalence,
                        parse_change)
from .verify import verify_all

EX_OK = 0
EX_FAIL = 1
EX_INADMISSIBLE = 2
EX_UNKNOWN = 3
EX_USAGE = 64
EX_DATA = 65
EX_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 64 on bad usage, per convention."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    """argparse type of every ``--budget``: an integer, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise _UsageError(f"cannot read {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise DocumentError(f"{path} is not UTF-8: {err.reason} at byte "
                            f"{err.start}") from err


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
        return
    try:
        Path(output).write_text(text, encoding="utf-8")
    except OSError as err:
        raise _UsageError(f"cannot write {output}: {err.strerror}") from err


def _csv_fractions(text: str, what: str) -> tuple:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise _UsageError(f"empty entry in {what}")
        try:
            out.append(parse_fraction(piece))
        except DocumentError as err:
            raise _UsageError(f"{what}: {err}") from err
    return tuple(out)


def _combo(terms) -> str:
    """Linear combination text like '2*e_3 - 1/2*e_7' of (column, value)
    pairs, 0-based columns in increasing order; zero values are left out."""
    parts = []
    for col, c in terms:
        if c:
            mag = abs(c)
            body = f"e_{col + 1}" if mag == 1 else f"{mag}*e_{col + 1}"
            sign = ("- " if c < 0 else "+ ") if parts else "-" * (c < 0)
            parts.append(sign + body)
    return " ".join(parts) if parts else "0"


# ----------------------------------------------------------------------
# subcommands

def cmd_check(args) -> int:
    algebra = parse(_read(args.file))
    residual = leibniz_residual(algebra)
    if residual.is_empty():
        print(f"ok: identity holds on all {algebra.dim}^3 basis triples")
        return EX_OK
    for i, j, k, vec in residual.violations:
        print(f"({i},{j},{k}): {_combo(enumerate(vec.coords))}")
    print(f"{len(residual)} violating triples", file=sys.stderr)
    return EX_FAIL


def cmd_analyze(args) -> int:
    algebra = parse(_read(args.file))
    if algebra.name:
        print(f"name: {algebra.name}")
    print(f"dim: {algebra.dim}")
    series = lower_central_series(algebra)
    print("central series dims: " + " ".join(str(d) for d in series.dims))
    if series.nilpotent:
        print(f"nilindex: {len(series)}")
        grading = natural_gradation(algebra)
        print("gradation dims: " + " ".join(str(d) for d in grading.piece_dims))
        est = char_sequence_estimate(algebra, budget=args.budget,
                                     seed=args.seed)
        print(f"characteristic sequence (sampled): {est}")
    else:
        print("nilindex: none (central series stabilizes nonzero)")
    rows = _annihilator_rows(algebra)
    print(f"right annihilator dim: {len(rows)}")
    for row in rows:            # 1 at the free column, its last
        free = row[max(row)]
        print("  " + _combo((c, Fraction(x, free))
                            for c, x in sorted(row.items())))
    return EX_OK


def _resolve_row(args):
    """``--family`` as a row id or printed label (no id is another row's
    label), else under ``--type 2 --epsilon E`` as the label ``E,<family>``."""
    label = args.family
    bare = (f"{args.epsilon},{label}" if args.type == 2 and "," not in label
            and args.epsilon is not None else None)
    rows = ([r for r in CATALOG_ROWS if label in (r.row_id, r.family_label)]
            or [r for r in CATALOG_ROWS if r.family_label == bare])
    if not rows:
        raise UnknownFamily(f"no catalog family {label!r}")
    wanted = "second" if args.type == 2 else "first"
    rows = [r for r in rows if r.kind == wanted]
    if not rows:
        raise UnknownFamily(f"family {label!r} is not type {args.type}")
    if len(rows) > 1:
        ids = ", ".join(r.row_id for r in rows)
        raise _UsageError(f"label {label!r} is ambiguous; use a row id: {ids}")
    return rows[0]


def cmd_catalog(args) -> int:
    if args.list:
        _emit(catalog_index_document(), args.output)
        return EX_OK
    missing = [flag for flag, val in (("--type", args.type),
                                      ("--family", args.family),
                                      ("--dim", args.dim)) if val is None]
    if missing:
        raise _UsageError("catalog needs " + " and ".join(missing))
    row = _resolve_row(args)
    for flag, given, has in (("epsilon", args.epsilon, row.epsilon),
                             ("beta", args.beta, row.beta)):
        if given is not None and has != given:
            print(f"error: row {row.row_id} " + (
                f"has {flag} {has}, not {given}" if row.kind == "second" else
                "is a first-type row, which has no epsilon or beta"),
                file=sys.stderr)
            return EX_INADMISSIBLE
    values = (_csv_fractions(args.params, "--params") if args.params else ())
    problems = row.violations(values, args.dim)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    if problems:
        return EX_INADMISSIBLE
    _emit(serialize(row.build(args.dim, values)), args.output)
    return EX_OK


def cmd_transform(args) -> int:
    algebra = parse(_read(args.file))
    change = parse_change(_read(args.change))
    _emit(serialize(apply_change(algebra, change)), args.output)
    return EX_OK


def cmd_equiv(args) -> int:
    if args.dim < 9:
        raise DimensionTooSmall(f"equivalence is decided for n >= 9, "
                                f"got {args.dim}")
    if args.epsilon == 1 and args.dim % 2 != 0:
        raise ParityViolation("epsilon = 1 needs an even dimension")
    p_vals = _csv_fractions(args.p, "--p")
    q_vals = _csv_fractions(args.q, "--q")
    params = []
    for vals, flag in ((p_vals, "--p"), (q_vals, "--q")):
        if len(vals) == 4:
            beta = Fraction(-1)
        elif len(vals) == 5:
            beta = vals[4]
        else:
            raise _UsageError(f"{flag} takes alpha1..alpha4 and an optional "
                              f"beta, got {len(vals)} values")
        params.append(SecondTypeParams(args.epsilon, vals[:4], beta))
    verdict = decide_equivalence(params[0], params[1], budget=args.budget)
    if isinstance(verdict, Equivalent):
        w = verdict.witness
        print("Equivalent")
        if args.epsilon == 1:
            print(f"witness: A1 = {w.A1}, A4 = {w.A4} "
                  f"(B4 pinned to A1-A4 = {w.A1 - w.A4})")
        else:
            print(f"witness: A1 = {w.A1}, A4 = {w.A4}, B4 = {w.B4}")
        return EX_OK
    if isinstance(verdict, Distinct):
        print("Distinct")
        print(f"invariant: {verdict.invariant}")
        return EX_FAIL
    print("Unknown")
    if verdict.detail:
        print(f"detail: {verdict.detail}")
    return EX_UNKNOWN


def cmd_verify_all(args) -> int:
    try:
        dims = tuple(int(piece) for piece in args.dims.split(","))
    except ValueError:
        raise _UsageError(f"--dims must be a comma list of integers, "
                          f"got {args.dims!r}")
    samples = (DEFAULT_FREE_SAMPLES if args.samples is None
               else _csv_fractions(args.samples, "--samples"))
    report = verify_all(dims=dims, samples=samples, seed=args.seed)
    sys.stdout.write(report.to_text())
    if args.report:
        _emit(report.to_json(), args.report)
    return EX_OK if report.ok else EX_FAIL


# ----------------------------------------------------------------------
# wiring

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, built once per process and shared by every
    ``main`` call, so nothing may change it after it is built."""
    parser = _Parser(prog="lnz",
                     description="Exact-arithmetic toolkit for naturally "
                                 "graded Leibniz algebras given by structure "
                                 "constants.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)

    p = sub.add_parser("check", help="test the defining identity on a document")
    p.add_argument("file", help="algebra document")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze",
                       help="central series, gradation, characteristic "
                            "sequence, right annihilator")
    p.add_argument("file", help="algebra document")
    p.add_argument("--budget", type=_budget, default=200,
                   help="sample count for the characteristic sequence")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("catalog", help="build a catalog family instance")
    p.add_argument("--type", type=int, choices=(1, 2))
    p.add_argument("--family", help="row id or printed label, e.g. 0,2 or 34")
    p.add_argument("--dim", type=int)
    p.add_argument("--params", default="",
                   help="comma list of exact fractions for the free "
                        "parameters; write --params=-1/2 when the first "
                        "value is negative")
    p.add_argument("--epsilon", type=int, choices=(0, 1),
                   help="cross-check the row's alternating-product marker")
    p.add_argument("--beta", type=int, choices=(0, -1),
                   help="cross-check the row's beta value")
    p.add_argument("-o", "--output")
    p.add_argument("--list", action="store_true",
                   help="print the machine-readable row index instead")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("transform", help="apply a basis change to a document")
    p.add_argument("file", help="algebra document")
    p.add_argument("--change", required=True, help="basis-change document")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("equiv",
                       help="decide whether two second-type parameter tuples "
                            "give the same algebra")
    p.add_argument("--epsilon", type=int, choices=(0, 1), required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--p", required=True,
                   help="alpha1,alpha2,alpha3,alpha4[,beta]; write "
                        "--p=-1,0,0,0 when the first value is negative")
    p.add_argument("--q", required=True,
                   help="alpha1,alpha2,alpha3,alpha4[,beta]; write "
                        "--q=-1,0,0,0 when the first value is negative")
    p.add_argument("--budget", type=_budget, default=6,
                   help="height bound (at most 8) of the epsilon = 0 "
                        "witness grid; epsilon = 1 searches roots only")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--dims", default="9,10")
    p.add_argument("--samples", default=None,
                   help="comma list of values for free parameters; write "
                        "--samples=-1,2 when the first value is negative")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="also write the structured report here")
    p.set_defaults(func=cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        print("lnz: error: a subcommand is required", file=sys.stderr)
        return EX_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the Python docs' recipe: send the exit-time flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_PIPE
    except _UsageError as err:
        print(f"lnz: error: {err}", file=sys.stderr)
        return EX_USAGE
    except (DocumentError, IndexOutOfRange) as err:
        print(f"lnz: malformed document: {err}", file=sys.stderr)
        return EX_DATA
    except ToolkitError as err:
        print(f"lnz: error: {err}", file=sys.stderr)
        return EX_INADMISSIBLE


if __name__ == "__main__":
    sys.exit(main())
