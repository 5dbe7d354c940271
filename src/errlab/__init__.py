"""Exact-arithmetic verification of Volterra integral identities for the
error terms of summatory arithmetical functions.

The library keeps the two series constants A2 = sum a(n)/n^2 and
A1 = sum a(n)/n symbolic, represents every function of x as an exact
piecewise Laurent polynomial with integer breakpoints, and reduces each
identity to a residual whose zero test is a coefficient comparison.
"""

from .errors import (CapacityError, DivergentAtZeroError, DomainError, FormatError,
                     LogCaseError, PrecisionError, UncertifiableSeriesError)
from .exactnum import ConstLinear, GaussianRational
from .piecewise import PiecewiseLaurent, Side, monomial
from .report import ReportRow, VerificationReport
from .sequences import (ArithSequence, CharacterSpec, convolve_id, floor_sum,
                        is_fundamental_discriminant, kronecker_character,
                        kronecker_symbol, mobius_constants, mobius_sieve, numeric_constants,
                        summatory, summatory_via_floor_identity, totient_sieve, twist)
from .volterra import (VolterraCase, build_error_term, build_fracpart_series, make_case,
                       remainder_integral_residual, residual, resolvent_function,
                       solution_family)
from .decomposition import (DecompositionCase, build_fracsquare_series, decompose,
                            growth_max_ratio, split_at, trivial_character_relations,
                            twisted_case, untwisted_case, verify_suites)

__version__ = "0.1.0"
