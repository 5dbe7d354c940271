"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.  Criteria 1-6 are exact (ConstLinear zero tests); 7 and 8
are the numeric truncation and growth checks with their stated bounds.
Criteria 1-5 read the rows of ``verify_suites``, the suite behind
``errlab verify``, and check the row count of every family they read, so a
family that emits no rows cannot pass.
"""

import functools
import time
from fractions import Fraction

import numpy as np

from conftest import divisor_sum_oracle, weighted_sum
from errlab.decomposition import (FROZEN_GROWTH_MAX, decompose, growth_max_ratio,
                                  twisted_case, untwisted_case, verify_suites)
from errlab.errors import LogCaseError
from errlab.exactnum import ConstLinear, GaussianRational
from errlab.piecewise import Side, monomial
from errlab.sequences import (convolve_id, kronecker_character, mobius_sieve,
                              numeric_constants, summatory, summatory_via_floor_identity,
                              totient_sieve, twist)
from errlab.volterra import build_fracpart_series, make_case, resolvent_function

X_MAIN = 200
A_VALUES = [GaussianRational(0), GaussianRational(1), GaussianRational(-2),
            GaussianRational(Fraction(3, 2), Fraction(1, 2))]


def report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")


@functools.lru_cache(maxsize=None)
def main_suite():
    """The rows of the suites of the plain Moebius case at X = 200 on the
    grid k/3 with the four A_VALUES, and the wall time of the whole run,
    sieve included."""
    t0 = time.perf_counter()
    case = make_case(mobius_sieve(X_MAIN), X_MAIN)
    rows = list(verify_suites(case, 3, A_VALUES, untwisted_case(case)))
    return rows, time.perf_counter() - t0


def family(name: str):
    """Rows of one family of the main suite; a name ending in "[" takes every
    row of an indexed family such as ``remainder_continuity[n]``."""
    rows = main_suite()[0]
    if name.endswith("["):
        return [r for r in rows if r.identity.startswith(name)]
    return [r for r in rows if r.identity == name]


def exact(name: str, count: int) -> bool:
    """The family has `count` rows and every residual is an exact zero."""
    rows = family(name)
    return len(rows) == count and all(r.exact_zero for r in rows)


def test_criterion_1_solution_family_residuals():
    _, elapsed = main_suite()
    ok = all(exact(f"volterra[A={A.to_text()}]", 600) for A in A_VALUES)
    ok = ok and elapsed < 30.0
    report(f"1 solution-family residuals (X=200, 4 constants; all suites {elapsed:.1f}s)", ok)
    assert ok


def test_criterion_2_remainder_identity_jumps_continuity():
    grid_ok = exact("remainder_integral", 600)

    mu = mobius_sieve(1000)
    case_big = make_case(mu, 1000)
    h_big = build_fracpart_series(case_big)
    jump_ok = True
    for n in range(1, 1001):
        jump = h_big.eval_at(n, Side.RIGHT) - h_big.eval_at(n, Side.LEFT)
        jump_ok = jump_ok and jump == ConstLinear(weighted_sum([(divisor_sum_oracle(mu, n), Fraction(1, n))]))

    cont_ok = exact("remainder_continuity[", 200)

    report("2 remainder identity on grid", grid_ok)
    report("2 jump relation b(N)/N for N <= 1000", jump_ok)
    report("2 remainder continuity at integers", cont_ok)
    assert grid_ok and jump_ok and cont_ok


def test_criterion_3_homogeneous_and_uniqueness_surrogate():
    homog_ok = all(exact(f"homogeneous[A={A.to_text()}]", 600)
                   for A in (GaussianRational(0), GaussianRational(1), GaussianRational(0, 1)))
    uniq_ok = exact("uniqueness_surrogate", 600)

    report("3 homogeneous residuals for A in {0, 1, i}", homog_ok)
    report("3 uniqueness surrogate: resolvent minus x*series is c*x", uniq_ok)
    assert homog_ok and uniq_ok


def test_criterion_4_resolvent_suite():
    solve_ok = exact("resolvent", 600)

    toy = resolvent_function(monomial(3, 2))
    toy_ok = all(toy.eval_at(x, Side.RIGHT) == ConstLinear.scalar(2 * Fraction(x) ** 2)
                 for x in (Fraction(1, 2), 1, 2, Fraction(5, 2)))

    try:
        resolvent_function(monomial(3, 1)).eval_at(1, Side.RIGHT)
        log_ok = False
    except LogCaseError:
        log_ok = True

    report("4 resolvent solves the equation on the grid", solve_ok)
    report("4 toy case t^2 -> 2x^2", toy_ok)
    report("4 toy case t raises the t^-1 error", log_ok)
    assert solve_ok and toy_ok and log_ok


def test_criterion_5_decomposition_suites():
    plain_ok = (exact("decomposition", 598)
                and min(r.x for r in family("decomposition")) == 1)

    twisted_ok = True
    for d in (-3, -4):
        chi = kronecker_character(d)
        tc = twisted_case(make_case(twist(mobius_sieve(100), chi), 100))
        for k in range(0, 301):
            twisted_ok = twisted_ok and decompose(tc, Fraction(k, 3))[2].is_zero()

    triv_ok = all(exact(name, 198) for name in ("trivial_f", "trivial_g", "mertens_floor"))

    report("5 plain decomposition exact on [1, 200]", plain_ok)
    report("5 twisted decomposition exact on [0, 100] incl. integer midpoints", twisted_ok)
    report("5 trivial-character relations exact on [1, 100]", triv_ok)
    assert plain_ok and twisted_ok and triv_ok


def test_criterion_6_convolution_and_floor_identities():
    t0 = time.perf_counter()
    n_max = 10 ** 5
    mu = mobius_sieve(n_max)
    b = convolve_id(mu)
    conv_ok = ([b.value(n) for n in range(1, n_max + 1)]
               == totient_sieve(n_max).int_array()[1:].tolist())

    arr = mu.int_array()
    mertens_ok = True
    for twice_x in range(2, 2 * 10 ** 4 + 1):
        k = twice_x // 2
        d = np.arange(1, k + 1, dtype=np.int64)
        total = int(np.dot(arr[1:k + 1], twice_x // (2 * d)))
        if total != 1:
            mertens_ok = False
            break

    floor_ok = True
    for seq, end in ((mu, X_MAIN),
                     (twist(mobius_sieve(100), kronecker_character(-3)), 100),
                     (twist(mobius_sieve(100), kronecker_character(-4)), 100)):
        b = convolve_id(seq)
        for k in range(1, 3 * end + 1):
            x = Fraction(k, 3)
            if summatory_via_floor_identity(seq, x) != summatory(b, x):
                floor_ok = False
                break

    elapsed = time.perf_counter() - t0
    timing_ok = elapsed < 60.0
    report(f"6 convolution equals the totient sieve to 1e5 ({elapsed:.1f}s)", conv_ok)
    report("6 floor sum of mu equals 1 for x in {1, 1.5, .., 1e4}", mertens_ok)
    report("6 floor-identity summatory agreement on all grids", floor_ok)
    report("6 runtime under 60 s", timing_ok)
    assert conv_ok and mertens_ok and floor_ok and timing_ok


def test_criterion_7_truncation_consistency():
    m_cut = 10 ** 5
    mu_cut = mobius_sieve(m_cut)
    arr = mu_cut.int_array()[1:].astype(np.float64)
    inv_n = 1.0 / np.arange(1, m_cut + 1, dtype=np.float64)

    big = mobius_sieve(10 ** 6)
    a2, a1, _ = numeric_constants(big, precision_target=1e-6)
    h = build_fracpart_series(make_case(mobius_sieve(100), 100))

    ok = True
    worst = 0.0
    xs = [Fraction(k, 3) for k in range(1, 301)]
    for x in xs:
        xf = float(x)
        ratios = xf * inv_n
        truncated = float(-np.sum(arr * inv_n * (ratios - np.floor(ratios))))
        exact = h.eval_at(x, Side.RIGHT).numeric(a2.real, a1.real).real
        diff = abs(truncated - exact)
        bound = xf / m_cut
        worst = max(worst, diff)
        ok = ok and diff <= bound
    at_100 = abs(float(-np.sum(arr * inv_n * ((100.0 * inv_n) - np.floor(100.0 * inv_n))))
                 - h.eval_at(100, Side.RIGHT).numeric(a2.real, a1.real).real)
    ok = ok and at_100 <= 1e-3
    report(f"7 truncation at 1e5 within x/M everywhere (worst {worst:.2e}), "
           f"<= 1e-3 at x=100 ({at_100:.2e})", ok)
    assert ok


def test_criterion_8_growth_sanity():
    got_mu = growth_max_ratio()
    got_chi = growth_max_ratio(kronecker_character(-3))
    ok = (got_mu == FROZEN_GROWTH_MAX["mu"]
          and got_chi == FROZEN_GROWTH_MAX["mu_chi_-3"]
          and 0.0 < got_mu < 1.0 and 0.0 < got_chi < 1.0)
    report(f"8 growth maxima reproduce frozen constants exactly "
           f"(mu {got_mu:.6f}, chi-3 {got_chi:.6f})", ok)
    assert ok
