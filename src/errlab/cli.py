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
import csv
import math
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from .decomposition import (FROZEN_GROWTH_MAX, growth_max_ratio, split_at,
                            twisted_case, untwisted_case, verify_suites)
from .errors import (CapacityError, DivergentAtZeroError, DomainError, FormatError,
                     LogCaseError, PrecisionError, UncertifiableSeriesError)
from .exactnum import GaussianRational, parse_rational
from .piecewise import PiecewiseLaurent
from .report import VerificationReport
from .sequences import (MAX_SIEVE, ArithSequence, CharacterSpec,
                        kronecker_character, mobius_sieve, numeric_constants,
                        read_character_csv, read_sequence_csv, twist, write_character_csv,
                        write_sequence_csv)
from .volterra import make_case, residual, resolvent_function

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4


@dataclass
class RunConfig:
    command: str
    seq: str = "mu"
    discriminant: Optional[int] = None
    chi_file: Optional[str] = None
    b_file: Optional[str] = None
    X: Fraction = Fraction(100)
    x_explicit: bool = False
    grid_denominator: int = 3
    A_list: List[GaussianRational] = field(default_factory=lambda: [GaussianRational(0)])
    output: Optional[str] = None
    mode: str = "exact"
    precision_target: float = 1e-6
    sieve_n: int = 100
    emit: str = "sequence"
    input_path: Optional[str] = None


def _parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="errlab",
        description="Exact verification and tabulation of Volterra-equation "
                    "identities for arithmetic error terms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_grid=True):
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
        p.add_argument("--precision", type=float, default=1e-6,
                       help="numeric-mode target for the series constants")
        p.add_argument("-o", "--output", default=None, help="output CSV path (default stdout)")

    pv = sub.add_parser("verify", help="run the identity suites over a grid")
    common(pv)
    pv.add_argument("--A", action="append", default=None,
                    help="free constant of the solution family, e.g. 0, -2, 3/2+1/2*i; repeatable")
    pv.add_argument("--b-file", default=None,
                    help="CSV n,value overriding the convolution (fault injection)")

    pt = sub.add_parser("table", help="emit x, E, E_AR, E_AN over a grid")
    common(pt)

    ps = sub.add_parser("solve", help="apply the resolvent to a piecewise dump")
    common(ps)
    ps.add_argument("--input", required=True, help="piecewise dump file for the right-hand side")
    ps.add_argument("--A", action="append", default=None,
                    help="free constant added as A*x (single value)")

    pg = sub.add_parser("sieve", help="emit a sequence (or character table) as CSV")
    common(pg, with_grid=False)
    pg.add_argument("--N", type=int, default=100, help="sieve range (default 100)")
    pg.add_argument("--emit", choices=["sequence", "character"], default="sequence")

    ns = parser.parse_args(argv)
    if ns.D is not None and ns.chi_file is not None:
        # the character and the frozen growth row it is checked against
        # would come from different options
        raise FormatError("--D and --chi-file are alternatives; pass one of them")
    cfg = RunConfig(command=ns.command, seq=ns.seq, discriminant=ns.D, chi_file=ns.chi_file,
                    mode=ns.mode, precision_target=ns.precision, output=ns.output)
    if hasattr(ns, "X"):
        if ns.X is not None:
            cfg.X = parse_rational(ns.X)
            cfg.x_explicit = True
        cfg.grid_denominator = ns.denom
    if getattr(ns, "A", None):
        cfg.A_list = [GaussianRational.from_text(s) for s in ns.A]
    for key, attr in (("b_file", "b_file"), ("N", "sieve_n"), ("emit", "emit"),
                      ("input", "input_path")):
        if hasattr(ns, key):   # options of one subcommand only
            setattr(cfg, attr, getattr(ns, key))
    if cfg.grid_denominator < 1:
        raise FormatError("grid denominator must be >= 1")
    if cfg.precision_target <= 0:
        raise FormatError("precision target must be positive")
    if cfg.X <= 0:
        raise FormatError("X must be positive")
    return cfg


def _character_for(cfg: RunConfig) -> Optional[CharacterSpec]:
    if cfg.chi_file:
        return read_character_csv(cfg.chi_file)
    if cfg.discriminant is not None:
        return kronecker_character(cfg.discriminant)
    return None


def _load_sequences(cfg: RunConfig, n: int):
    """Resolve --seq into (a, b_override, chi, kind)."""
    b_override = None
    chi = None
    if cfg.seq == "mu":
        a = mobius_sieve(n)
        kind = "mu"
    elif cfg.seq == "mu_chi":
        chi = _character_for(cfg)
        if chi is None:
            raise FormatError("--seq mu_chi requires --D or --chi-file")
        a = twist(mobius_sieve(n), chi)
        kind = "mu_chi"
    elif cfg.seq.startswith("file:"):
        a, b_override = read_sequence_csv(cfg.seq[5:])
        kind = "file"
    else:
        raise FormatError(f"unknown sequence selector {cfg.seq!r}")
    if cfg.b_file:
        b_override, extra = read_sequence_csv(cfg.b_file)
        if extra is not None:
            raise FormatError("--b-file must use the n,value layout")
    return a, b_override, chi, kind


def _load_to_X(cfg: RunConfig):
    """_load_sequences for verify and table, which sieve up to ceil(X) so that
    the sieve covers a non-integer X."""
    if cfg.X < 1 and not cfg.seq.startswith("file:"):
        raise DomainError(f"X = {cfg.X} is below 1, so there is nothing to sieve")
    return _load_sequences(cfg, math.ceil(cfg.X))


def _split_for(kind: str, case):
    """The split of a --seq kind: plain for mu, twisted for mu_chi, else None."""
    if kind == "mu":
        return untwisted_case(case)
    if kind == "mu_chi":
        return twisted_case(case)
    return None


@contextlib.contextmanager
def _output(cfg: RunConfig):
    """The -o file, or stdout when none is given."""
    if not cfg.output:
        yield sys.stdout
        return
    with open(cfg.output, "w", newline="") as fh:
        yield fh


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _run_verify(cfg: RunConfig) -> VerificationReport:
    a, b_override, chi, kind = _load_to_X(cfg)
    if not cfg.x_explicit and cfg.X > a.N:
        cfg.X = Fraction(a.N)
    case = make_case(a, cfg.X, 0, b=b_override)
    report = verify_suites(case, cfg.grid_denominator, cfg.A_list, _split_for(kind, case))
    # the frozen maxima cover mu and mu_chi at D = -3
    key = kind if kind == "mu" else f"{kind}_{cfg.discriminant}"
    if cfg.mode == "numeric" and key in FROZEN_GROWTH_MAX:
        diff = growth_max_ratio(chi) - FROZEN_GROWTH_MAX[key]
        report.add(f"growth[{key}]", 0, diff, exact_zero=(diff == 0.0))
    return report


def cmd_verify(cfg: RunConfig) -> int:
    report = _run_verify(cfg)
    with _output(cfg) as fh:
        report.write_csv(fh)
    fail = report.first_failure()
    if fail is None:
        print(f"PASS: {len(report)} identities verified", file=sys.stderr)
        return EXIT_PASS
    print(f"FAIL: {fail.identity} at x={fail.x} "
          f"(residual {fail.residual})", file=sys.stderr)
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _constants_for_table(cfg: RunConfig, chi) -> tuple:
    budget = max(math.ceil(1.0 / cfg.precision_target), math.floor(cfg.X))
    if budget > MAX_SIEVE:
        raise PrecisionError(
            f"precision {cfg.precision_target:g} needs a sieve of {budget}, "
            f"beyond the budget {MAX_SIEVE}")
    seq = mobius_sieve(budget)
    if chi is not None:
        seq = twist(seq, chi)   # rebinding frees the untwisted sieve
    return numeric_constants(seq, chi, cfg.precision_target)


def cmd_table(cfg: RunConfig) -> int:
    a, _, chi, kind = _load_to_X(cfg)
    if kind == "file":
        raise FormatError("table supports --seq mu and mu_chi (the split is "
                          "defined for those cases)")
    dc = _split_for(kind, make_case(a, cfg.X))
    numeric = cfg.mode == "numeric"
    if numeric:
        a2, a1, (b2, b1) = _constants_for_table(cfg, chi)

    with _output(cfg) as fh:
        if numeric:
            fh.write(f"# a2 = {a2.real!r} +/- {b2!r}\n")
            fh.write(f"# a1 = {a1.real!r} +/- {b1!r}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "E", "E_AR", "E_AN"])
        for k in range(0, math.floor(cfg.X * cfg.grid_denominator) + 1):
            x = Fraction(k, cfg.grid_denominator)
            values = split_at(dc, x)
            if numeric:
                row = [float(x)] + [v.numeric(a2, a1 or 0.0).real for v in values]
                writer.writerow([repr(v) for v in row])
            else:
                writer.writerow([str(x)] + [v.to_text() for v in values])
    return EXIT_PASS


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(cfg: RunConfig) -> int:
    if len(cfg.A_list) > 1:
        raise FormatError("solve takes a single --A value")
    A = cfg.A_list[0]
    with open(cfg.input_path) as fh:
        E = PiecewiseLaurent.loads(fh.read())
    end = min(cfg.X, E.X) if cfg.x_explicit else E.X
    top = math.floor(end * cfg.grid_denominator)
    if top < 1:
        raise DomainError(f"the grid k/{cfg.grid_denominator} on (0, {end}] is empty")
    numeric = cfg.mode == "numeric"
    if numeric and not all(c.is_scalar() for p in E.pieces for c in p.values()):
        # user data has no attached series constants to evaluate A2, A1 at
        raise FormatError("numeric solve needs a dump without A2 or A1 terms")
    F = resolvent_function(E, A)

    ok = True
    with _output(cfg) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "F", "residual", "exact_zero"])
        for k in range(1, top + 1):
            x = Fraction(k, cfg.grid_denominator)
            val = F.eval_at(x)   # POINT, as residual: the last piece at an open end
            res = residual(F, E, x)
            zero = res.is_zero()
            ok = ok and zero
            if numeric:
                writer.writerow([repr(float(x)), repr(val.numeric(0.0, 0.0).real),
                                 repr(res.numeric(0.0, 0.0).real),
                                 "true" if zero else "false"])
            else:
                writer.writerow([str(x), val.to_text(), res.to_text(),
                                 "true" if zero else "false"])
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------

def cmd_sieve(cfg: RunConfig) -> int:
    a, _, chi, kind = _load_sequences(cfg, cfg.sieve_n)
    if cfg.emit == "character":
        if chi is None:
            raise FormatError("--emit character requires --seq mu_chi with --D or --chi-file")
        with _output(cfg) as fh:
            write_character_csv(fh, chi)
        return EXIT_PASS
    if kind == "file":
        a = ArithSequence(a.name, [a.value(n) for n in range(1, min(a.N, cfg.sieve_n) + 1)])
    with _output(cfg) as fh:
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
        cfg = _parse_args(argv)
        return _DISPATCH[cfg.command](cfg)
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (FormatError, LogCaseError, DivergentAtZeroError, DomainError,
            UncertifiableSeriesError, CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a bug, not a verdict: keep the traceback for the report
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
