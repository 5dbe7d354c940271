"""Command-line surface: sieving, verification suites, table emission and the
resolvent applied to user data.

Exit codes: 0 all identities pass, 1 an identity failed, 2 usage or parse
error (including non-integrable input), 3 precision target unattainable,
4 internal error (an unexpected exception, never read as a failed identity).
Exact mode is the default everywhere; numeric mode is opt-in.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import traceback
from fractions import Fraction
from itertools import chain
from typing import Iterator

from .decomposition import (FROZEN_GROWTH_MAX, _grid_top, _split_grid, growth_max_ratio,
                            twisted_case, untwisted_case, verify_suites)
from .errors import CapacityError, DomainError, FormatError, PrecisionError
from .exactnum import GaussianRational, parse_rational
from .piecewise import PiecewiseLaurent
from .report import ReportRow, VerificationReport, write_csv_rows
from .sequences import (MAX_SIEVE, ArithSequence, kronecker_character, mobius_constants,
                        mobius_sieve, read_character_csv, read_sequence_csv, twist,
                        write_character_csv, write_sequence_csv)
from .volterra import make_case, residual, resolvent_function

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """Raises every usage error as argparse.ArgumentError, which main turns
    into an error: line and exit 2; subparsers inherit the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _parser() -> argparse.ArgumentParser:
    """The four subcommands, each with only the options it reads."""
    parser = _Parser(
        prog="errlab",
        description="Exact verification and tabulation of Volterra-equation "
                    "identities for arithmetic error terms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, summary, with_seq=True, with_grid=True):
        p = sub.add_parser(name, help=summary)
        if with_seq:
            p.add_argument("--seq", default="mu",
                           help="mu | mu_chi | file:PATH (default mu)")
            p.add_argument("--D", type=int, default=None,
                           help="fundamental discriminant for --seq mu_chi")
            p.add_argument("--chi-file", default=None,
                           help="CSV character table residue,value (alternative to --D)")
        if with_grid:
            p.add_argument("--X", default=None, help="domain end, rational (default 100)")
            p.add_argument("--denom", type=int, default=3,
                           help="grid denominator, points k/denom (default 3)")
            p.add_argument("--mode", choices=["exact", "numeric"], default="exact")
        p.add_argument("-o", "--output", default=None, help="output CSV path (default stdout)")
        return p

    pv = subcommand("verify", "run the identity suites over a grid")
    pv.add_argument("--A", action="append", default=None,
                    help="free constant of the solution family, e.g. 0, -2, 3/2+1/2*i; repeatable")
    pv.add_argument("--b-file", default=None,
                    help="CSV n,value overriding the convolution (fault injection)")

    pt = subcommand("table", "emit x, E, E_AR, E_AN over a grid")
    pt.add_argument("--precision", type=float, default=1e-6,
                    help="numeric-mode target for the series constants")

    ps = subcommand("solve", "apply the resolvent to a piecewise dump", with_seq=False)
    ps.add_argument("--input", required=True, help="piecewise dump file for the right-hand side")
    ps.add_argument("--A", action="append", default=None,
                    help="free constant added as A*x (single value)")

    pg = subcommand("sieve", "emit a sequence (or character table) as CSV", with_grid=False)
    pg.add_argument("--N", type=int, default=100, help="sieve range (default 100)")
    pg.add_argument("--emit", choices=["sequence", "character"], default="sequence")
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv, then check the values and turn --X and --A into exact
    values in place.  A FormatError here reaches main, which prints an
    error: line and exits 2."""
    args = _parser().parse_args(argv)
    if "D" in args and args.D is not None and args.chi_file is not None:
        # the character and the frozen growth row it is checked against
        # would come from different options
        raise FormatError("--D and --chi-file are alternatives; pass one of them")
    if "X" in args:
        if args.X is not None:
            args.X = parse_rational(args.X)
            if args.X <= 0:
                raise FormatError("X must be positive")
        if args.denom < 1:
            raise FormatError("grid denominator must be >= 1")
    if "A" in args:
        args.A = [GaussianRational.from_text(s) for s in args.A or ["0"]]
    if "precision" in args and not args.precision > 0:
        # written so that a NaN target fails too
        raise FormatError("precision target must be positive")
    if "N" in args and args.N < 1:
        raise FormatError("sieve range --N must be >= 1")
    return args


def _load_sequences(args, n: int):
    """Resolve --seq into (a, b_override, chi)."""
    if args.seq == "mu":
        return mobius_sieve(n), None, None
    if args.seq == "mu_chi":
        if args.chi_file:
            chi = read_character_csv(args.chi_file)
        elif args.D is not None:
            chi = kronecker_character(args.D)
        else:
            raise FormatError("--seq mu_chi requires --D or --chi-file")
        return twist(mobius_sieve(n), chi), None, chi
    if args.seq.startswith("file:"):
        a, b_override = read_sequence_csv(args.seq[5:])
        return a, b_override, None
    raise FormatError(f"unknown sequence selector {args.seq!r}")


def _load_to_X(args):
    """_load_sequences for verify and table, plus the domain end X: --X, or
    else 100 cut to a file sequence's length.  The sieve runs up to ceil(X),
    so that it covers a non-integer X."""
    X = Fraction(100) if args.X is None else args.X
    if X < 1 and not args.seq.startswith("file:"):
        raise DomainError(f"X = {X} is below 1, so there is nothing to sieve")
    a, b_override, chi = _load_sequences(args, math.ceil(X))
    if args.X is None:
        X = min(X, Fraction(a.N))
    return a, b_override, chi, X


def _split_for(seq: str, case):
    """The split of a --seq selector: plain for mu, twisted for mu_chi, else None."""
    if seq == "mu":
        return untwisted_case(case)
    if seq == "mu_chi":
        return twisted_case(case)
    return None


@contextlib.contextmanager
def _output(args):
    """The -o file, or stdout when none is given."""
    if not args.output:
        yield sys.stdout
        return
    with open(args.output, "w", newline="") as fh:
        yield fh


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_rows(args) -> Iterator[ReportRow]:
    """verify's rows as an iterator.  Every function they read is built
    here, so an error that exits 2 is raised before -o is opened."""
    a, b_override, chi, X = _load_to_X(args)
    _grid_top(X, args.denom)   # before make_case, whose cost grows with X
    if args.b_file:
        b_override, extra = read_sequence_csv(args.b_file)
        if extra is not None:
            raise FormatError("--b-file must use the n,value layout")
    case = make_case(a, X, b=b_override)
    rows = verify_suites(case, args.denom, args.A, _split_for(args.seq, case))
    # the frozen maxima cover mu and mu_chi at D = -3
    key = args.seq if args.seq == "mu" else f"{args.seq}_{args.D}"
    if args.mode == "numeric" and key in FROZEN_GROWTH_MAX:
        rows = chain(rows, _growth_row(key, chi))
    return rows


def _growth_row(key, chi):
    diff = growth_max_ratio(chi) - FROZEN_GROWTH_MAX[key]
    yield ReportRow(f"growth[{key}]", Fraction(0), diff, diff == 0.0)


def cmd_verify(args) -> int:
    rows = _verify_rows(args)
    report = VerificationReport()
    with _output(args) as fh:
        report.write_csv(fh, rows)
    fail = report.first_failure
    if fail is None:
        print(f"PASS: {len(report)} identities verified", file=sys.stderr)
        return EXIT_PASS
    print(f"FAIL: {fail.identity} at x={fail.x} "
          f"(residual {fail.residual})", file=sys.stderr)
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _constants_for_table(args, chi, X) -> tuple:
    budget = max(math.ceil(1.0 / args.precision), math.floor(X))
    if budget > MAX_SIEVE:
        raise PrecisionError(
            f"precision {args.precision:g} needs a sieve of {budget}, "
            f"beyond the budget {MAX_SIEVE}")
    return mobius_constants(budget, chi, args.precision)


def cmd_table(args) -> int:
    if args.seq.startswith("file:"):
        raise FormatError("table supports --seq mu and mu_chi (the split is "
                          "defined for those cases)")
    a, _, chi, X = _load_to_X(args)
    numeric = args.mode == "numeric"
    if numeric:
        # before the split's first piece is made, so that the sieve's peak
        # memory does not stack on the pieces
        a2, a1, (b2, b1) = _constants_for_table(args, chi, X)
    values = _split_grid(make_case(a, X), args.seq == "mu_chi", args.denom)

    def row(item):
        x, split = item
        if numeric:
            return [repr(float(x))] + [repr(v.numeric(a2, a1 or 0.0).real) for v in split]
        return [str(x)] + [v.to_text() for v in split]

    with _output(args) as fh:
        if numeric:
            fh.write(f"# a2 = {a2.real!r} +/- {b2!r}\n")
            fh.write(f"# a1 = {a1.real!r} +/- {b1!r}\n")
        write_csv_rows(fh, ["x", "E", "E_AR", "E_AN"],
                       map(row, values))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    if len(args.A) > 1:
        raise FormatError("solve takes a single --A value")
    A = args.A[0]
    with open(args.input) as fh:
        E = PiecewiseLaurent.loads(fh.read())
    end = E.X if args.X is None else min(args.X, E.X)
    top = math.floor(end * args.denom)
    if top < 1:
        raise DomainError(f"the grid k/{args.denom} on (0, {end}] is empty")
    numeric = args.mode == "numeric"
    if numeric and (A.im or not all(c.is_scalar() and not c.c1.im
                                    for p in E.pieces for c in p.values())):
        # user data has no attached series constants to evaluate A2, A1 at,
        # and a float column has no room for an imaginary part
        raise FormatError("numeric solve needs a real --A and a real dump "
                          "without A2 or A1 terms")
    F = resolvent_function(E, A)
    R = residual(F, E)
    zeros = []

    def row(k):
        x = Fraction(k, args.denom)
        val = F.eval_at(x)   # POINT, as R: the last piece at an open end
        res = R.eval_at(x)
        zeros.append(res.is_zero())
        flag = "true" if zeros[-1] else "false"
        if numeric:
            return [repr(float(x)), repr(val.numeric(0.0, 0.0).real),
                    repr(res.numeric(0.0, 0.0).real), flag]
        return [str(x), val.to_text(), res.to_text(), flag]

    with _output(args) as fh:
        write_csv_rows(fh, ["x", "F", "residual", "exact_zero"], map(row, range(1, top + 1)))
    return EXIT_PASS if all(zeros) else EXIT_FAIL


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------

def cmd_sieve(args) -> int:
    a, _, chi = _load_sequences(args, args.N)
    if args.emit == "character":
        if chi is None:
            raise FormatError("--emit character requires --seq mu_chi with --D or --chi-file")
        with _output(args) as fh:
            write_character_csv(fh, chi)
        return EXIT_PASS
    if args.seq.startswith("file:"):
        a = ArithSequence(a.name, [a.value(n) for n in range(1, min(a.N, args.N) + 1)])
    with _output(args) as fh:
        write_sequence_csv(fh, a)
    return EXIT_PASS


# ---------------------------------------------------------------------------

_DISPATCH = {
    "verify": cmd_verify,
    "table": cmd_table,
    "solve": cmd_solve,
    "sieve": cmd_sieve,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return _DISPATCH[args.command](args)
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ValueError, CapacityError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a bug, not a verdict: keep the traceback for the report
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
