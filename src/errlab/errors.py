"""Shared exception types."""


class CapacityError(RuntimeError):
    """Requested sieve range exceeds the configured memory budget."""


class PrecisionError(RuntimeError):
    """Precision target cannot be met with the configured truncation."""


class UnquotableFieldError(RuntimeError):
    """A CSV row needs quoting: a field holds a comma, a double quote or a line
    break, or the row is one empty field.  The writer never quotes and no
    command emits such a row, so this is an internal error, not a usage error."""


class UncertifiableSeriesError(ValueError):
    """A series value was requested that the sequence metadata cannot certify."""


class LogCaseError(ValueError):
    """Weighted integrand contains a t^-1 term; the power rule does not apply."""

    def __init__(self, piece: int):
        super().__init__(f"integrand has a t^-1 term on the interval ({piece}, {piece + 1})")
        self.piece = piece


class DivergentAtZeroError(ValueError):
    """Weighted integrand is non-integrable at 0+."""

    def __init__(self, exponent: int):
        super().__init__(f"weighted integrand has exponent {exponent} on the first interval; "
                         "the improper integral at 0+ diverges")
        self.exponent = exponent


class DomainError(ValueError):
    """Evaluation point outside the domain or convention of the target."""


class FormatError(ValueError):
    """Malformed exact-value, sequence, or piecewise text input."""
