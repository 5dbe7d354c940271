"""Which identity families see a wrong coefficient in each builder.

Each cell changes one builder's output on piece 37, for the Moebius case at
X = 60 with grid denominator 3, by replacing the name that
``errlab.decomposition`` looks the builder up by.  The pins are the failing
rows per family of ``verify_suites`` with the plain split.  A refactor of the
builders must leave every pin as it is: the families still see what they saw.
"""

from collections import Counter

import pytest

from errlab import decomposition
from errlab.exactnum import ConstLinear, GaussianRational
from errlab.piecewise import PiecewiseLaurent
from errlab.sequences import mobius_sieve
from errlab.volterra import make_case

X = 60
DENOM = 3
PIECE = 37


def _bumped(f: PiecewiseLaurent, exponent: int, coeff: ConstLinear) -> PiecewiseLaurent:
    """f with coeff * t^exponent added on piece PIECE."""
    pieces = [dict(p) for p in f.pieces]
    pieces[PIECE][exponent] = pieces[PIECE].get(exponent, ConstLinear.zero()) + coeff
    return PiecewiseLaurent(f.X, pieces)


def _failing_rows(monkeypatch, builder=None, exponent=0, coeff=None) -> Counter:
    """Failing rows per family (the identity up to its first '[') of the
    plain Moebius verify, with `builder` changed on piece PIECE."""
    if builder is not None:
        original = getattr(decomposition, builder)
        monkeypatch.setattr(decomposition, builder,
                            lambda *args: _bumped(original(*args), exponent, coeff))
    case = make_case(mobius_sieve(X), X)
    rows = list(decomposition.verify_suites(case, DENOM, [GaussianRational(0)],
                                            decomposition.untwisted_case(case)))
    return Counter(r.identity.split("[")[0] for r in rows if not r.exact_zero)


ONE = ConstLinear.scalar(1)
H_FAMILIES = {"volterra": 70, "remainder_integral": 70, "uniqueness_surrogate": 3,
              "jump": 2, "remainder_continuity": 2}

# cell -> (builder, exponent, added coefficient, failing rows per family)
CELLS = {
    "E constant +1": ("build_error_term", 0, ONE,
                      {"volterra": 3, "remainder_integral": 3, "uniqueness_surrogate": 70,
                       "remainder_continuity": 2, "decomposition": 3}),
    # g is built from h's constants, so a wrong one cancels in E_AR + E_AN
    # and the decomposition misses it
    "h constant +1": ("build_fracpart_series", 0, ONE, H_FAMILIES),
    "h slope +A2": ("build_fracpart_series", 1, ConstLinear.a2(1),
                    {**H_FAMILIES, "decomposition": 3}),
    "g constant +1": ("build_fracsquare_series", 0, ONE, {"decomposition": 3}),
    "solution_family + t": ("solution_family", 1, ONE,
                            {"volterra": 70, "homogeneous": 210, "decomposition": 3}),
    "resolvent_function + t": ("resolvent_function", 1, ONE,
                               {"resolvent": 70, "uniqueness_surrogate": 3}),
}


def test_unchanged_builders_pass(monkeypatch):
    assert _failing_rows(monkeypatch) == Counter()


@pytest.mark.parametrize("cell", list(CELLS))
def test_families_that_see_the_change(monkeypatch, cell):
    builder, exponent, coeff, expected = CELLS[cell]
    assert _failing_rows(monkeypatch, builder, exponent, coeff) == Counter(expected)
