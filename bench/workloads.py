"""The benchmark's workloads: seeded inputs, argv, and output checks.

Every check here is independent of the CLI's own PASS/FAIL verdict.  The
arithmetic oracles (Moebius function, Kronecker symbol, Euler totient,
divisor sums) are written from their definitions and share no code with
``errlab.sequences``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

# Small fundamental discriminants for the twisted workloads; seed 0 uses -3.
DISCRIMINANTS = (-3, -4, 5, -7, 8, -8, -11, 12, 13)

# A zero residual as the verification CSV writes it: a ConstLinear, or a bare
# GaussianRational for the Mertens floor-sum rows.
ZERO_TEXTS = {"0/1 + 0/1*A2 + 0/1*A1", "GaussianRational('0/1')"}
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# arithmetic oracles
# ---------------------------------------------------------------------------

def factorize(n: int) -> dict:
    """Prime factorization of n >= 1 by trial division."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def kronecker(D: int, n: int) -> int:
    """(D|n) for n >= 1, multiplicative over the primes of n: Euler's
    criterion at odd primes and the mod-8 rule at 2."""
    result = 1
    for p, e in factorize(n).items():
        if p == 2:
            s = 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
        else:
            r = pow(D % p, (p - 1) // 2, p)
            s = 0 if r == 0 else (1 if r == 1 else -1)
        result *= s ** e
    return result


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def twisted_b(D: int, X: int) -> list:
    """b(n) = sum_{d|n} mu(d) chi_D(d) n/d for n = 0..X (index 0 unused)."""
    a = [0] + [mobius(n) * kronecker(D, n) for n in range(1, X + 1)]
    b = [0] * (X + 1)
    for d in range(1, X + 1):
        if a[d]:
            for m in range(d, X + 1, d):
                b[m] += a[d] * (m // d)
    return b


def twisted_error_at_integers(D: int, X: int) -> list:
    """Midpoint-normalized E(x) at x = 0..X as (rational part, A2 coefficient)."""
    b = twisted_b(D, X)
    out = [(Fraction(0), Fraction(0))]
    running = 0
    for x in range(1, X + 1):
        out.append((running + Fraction(b[x], 2), Fraction(-x * x, 2)))
        running += b[x]
    return out


def twisted_a2(D: int, M: int = 10 ** 6):
    """(A2, error bound) for A2 = sum mu(n) chi_D(n)/n^2 = 1/L(2, chi_D).

    L(2, chi_D) is summed to M; by partial summation against the character
    sums, which stay below q = |D| in size, the tail is at most 2q/(M+1)^2.
    """
    q = abs(D)
    table = np.array([kronecker(D, r) if r else 0 for r in range(q)], dtype=float)
    n = np.arange(1, M + 1, dtype=float)
    lval = float(np.sum(table[np.arange(1, M + 1) % q] / (n * n)))
    tail = 2 * q / (M + 1) ** 2
    return 1.0 / lval, tail / (lval * (lval - tail)) + 1e-13


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _discriminant(seed: int, name: str) -> int:
    return -3 if seed == 0 else _rng(seed, name).choice(DISCRIMINANTS)


def _gaussian_text(re: Fraction, im: Fraction = Fraction(0)) -> str:
    """The CLI's canonical text, ``p/q`` or ``p/q+r/s*i``."""
    text = f"{re.numerator}/{re.denominator}"
    return f"{text}+{im.numerator}/{im.denominator}*i" if im else text


def _read(path) -> str:
    with open(path, newline="") as fh:
        return fh.read()


class VerifyMu:
    """Every identity family of ``verify`` in the plain Moebius case."""

    name = "verify_mu"
    X = 100
    denom = 3

    def __init__(self, seed: int):
        if seed == 0:
            re, im = Fraction(3, 2), Fraction(1, 2)
        else:
            rng = _rng(seed, self.name)
            re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            im = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
        self.A = [_gaussian_text(Fraction(0)), _gaussian_text(re, im)]
        self.inputs = {"A": self.A}

    def argv(self, out: str) -> list:
        return (["verify", "--seq", "mu", "--X", str(self.X)]
                + [f"--A={a}" for a in self.A] + ["-o", out])

    def expected_rows(self) -> int:
        g = self.X * self.denom                     # grid k/3, k = 1..3X
        triv_top = min(self.X, 100) * self.denom
        triv_points = sum(1 for k in range(self.denom, triv_top + 1) if k % self.denom)
        return (len(self.A) * g                     # volterra[A=...]
                + g                                 # remainder_integral
                + 3 * g                             # homogeneous[A=0, 1, i]
                + g + g                             # resolvent, uniqueness_surrogate
                + g                                 # floor_summatory
                + 2 * self.X                        # jump[n], remainder_continuity[n]
                + (g - self.denom + 1)              # decomposition on [1, X]
                + 3 * triv_points)                  # trivial_f, trivial_g, mertens_floor

    def check(self, rc, stderr: str, path: str) -> list:
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        lines = _read(path).splitlines()
        if not lines or lines[0] != "identity,x,residual,exact_zero":
            return problems + ["missing verification CSV header"]
        rows = [line.rsplit(",", 3) for line in lines[1:]]
        want = self.expected_rows()
        if len(rows) != want:
            problems.append(f"{len(rows)} rows, expected {want}")
        if f"PASS: {want} identities verified" not in stderr:
            problems.append("no PASS summary for the expected row count")
        bad = [r for r in rows if len(r) != 4 or r[2] not in ZERO_TEXTS or r[3] != "true"]
        if bad:
            problems.append(f"{len(bad)} rows without an exact zero residual, first {bad[0]}")
        tags = {r[0] for r in rows}
        for a in self.A:
            if f"volterra[A={a}]" not in tags:
                problems.append(f"no solution-family rows for A={a}")
        return problems


class TableChi:
    """Exact twisted table at X = 1000: evaluation and scalar arithmetic on
    coefficients whose denominators reach lcm(1..1000)."""

    name = "table_chi"
    X = 1000
    denom = 3

    def __init__(self, seed: int):
        self.D = _discriminant(seed, self.name)
        self.inputs = {"D": self.D}

    def argv(self, out: str) -> list:
        return ["table", "--seq", "mu_chi", "--D", str(self.D), "--X", str(self.X), "-o", out]

    def check(self, rc, stderr: str, path: str) -> list:
        from errlab.exactnum import ConstLinear

        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        lines = _read(path).splitlines()
        if not lines or lines[0] != "x,E,E_AR,E_AN":
            return problems + ["missing table CSV header"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != self.X * self.denom + 1:
            return problems + [f"{len(rows)} rows, expected {self.X * self.denom + 1}"]
        oracle = twisted_error_at_integers(self.D, self.X)
        for k, row in enumerate(rows):
            x = Fraction(k, self.denom)
            if len(row) != 4 or row[0] != str(x):
                problems.append(f"row {k}: malformed {row[:1]}")
                break
            e, e_ar, e_an = (ConstLinear.from_text(v) for v in row[1:])
            if not (e - e_ar - e_an).is_zero():
                problems.append(f"x={x}: E - E_AR - E_AN is not exactly zero")
                break
            if x.denominator == 1:
                c1, ca2 = oracle[int(x)]
                if (e.c1.re, e.c1.im, e.cA2.re, e.cA2.im, e.cA1.re, e.cA1.im) != (
                        c1, 0, ca2, 0, 0, 0):
                    problems.append(f"x={x}: E differs from the divisor-sum oracle")
                    break
        return problems


class TableNumeric:
    """Numeric twisted table at X = 100 with constants certified to 1e-7,
    which needs a 10^7 sieve."""

    name = "table_numeric"
    X = 100
    denom = 3
    precision = "1e-7"

    def __init__(self, seed: int):
        self.D = _discriminant(seed, self.name)
        self.inputs = {"D": self.D}

    def argv(self, out: str) -> list:
        return ["table", "--seq", "mu_chi", "--D", str(self.D), "--X", str(self.X),
                "--mode", "numeric", "--precision", self.precision, "-o", out]

    def check(self, rc, stderr: str, path: str) -> list:
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        lines = _read(path).splitlines()
        if len(lines) < 3 or not lines[0].startswith("# a2 = ") or lines[2] != "x,E,E_AR,E_AN":
            return problems + ["missing numeric table header"]
        a2_text, _, bound_text = lines[0][len("# a2 = "):].partition(" +/- ")
        a2, bound = float(a2_text), float(bound_text)
        if bound > float(self.precision):
            problems.append(f"a2 bound {bound} exceeds the requested precision")
        true_a2, a2_err = twisted_a2(self.D)
        if abs(a2 - true_a2) > bound + a2_err:
            problems.append(f"a2 = {a2} is not within {bound} of 1/L(2, chi) = {true_a2}")
        rows = [[float(v) for v in line.split(",")] for line in lines[3:]]
        if len(rows) != self.X * self.denom + 1:
            return problems + [f"{len(rows)} rows, expected {self.X * self.denom + 1}"]
        oracle = twisted_error_at_integers(self.D, self.X)
        for k, (x, e, e_ar, e_an) in enumerate(rows):
            scale = abs(e) + abs(e_ar) + abs(e_an) + x * x + 1.0
            if x != k / self.denom or abs(e - e_ar - e_an) > 64 * EPS * scale:
                problems.append(f"row {k}: E - E_AR - E_AN = {e - e_ar - e_an} at x={x}")
                break
            if k % self.denom == 0:
                c1, ca2 = oracle[k // self.denom]
                if abs(e - (float(c1) + float(ca2) * a2)) > 64 * EPS * scale:
                    problems.append(f"x={x}: E = {e} differs from the divisor-sum oracle")
                    break
        return problems


WORKLOADS = {w.name: w for w in (VerifyMu, TableChi, TableNumeric)}


def negative_control(seed: int, b_path: str, out: str) -> list:
    """argv of a verify call whose b-file has one b(n) off by one, 8 < n <= 20.

    make_case spot-checks b(n) for n <= 8 and exits 2 there, so the tampered
    index stays above 8; the suites must then report an identity failure.
    """
    rng = _rng(seed, "control")
    n_bad = rng.randint(9, 20)
    delta = rng.choice([-1, 1])
    with open(b_path, "w", newline="") as fh:
        fh.write("n,value\n")
        for n in range(1, 21):
            fh.write(f"{n},{totient(n) + (delta if n == n_bad else 0)}\n")
    return ["verify", "--seq", "mu", "--X", "20", "--b-file", b_path, "-o", out]
