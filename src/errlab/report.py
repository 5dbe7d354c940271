"""Verification rows, the sink that writes and tallies them, and the CSV
writer that takes a path or an open text stream.

The writer joins each row's fields with commas and ends the line with "\n".
It never quotes: no field any command emits holds a comma, a double quote or
a line break, so a field that does, or a row whose line would be empty, is
refused with UnquotableFieldError before its line is written."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .errors import UnquotableFieldError
from .exactnum import ConstLinear

__all__ = ["ReportRow", "VerificationReport", "write_csv_rows"]


class ReportRow(NamedTuple):
    identity: str
    x: Fraction
    residual: Union[ConstLinear, float]
    exact_zero: bool


class VerificationReport:
    """Tallies of a stream of rows: the rows and the failing rows of each
    family (an identity up to its first "["), and the first failing row.
    No other row is kept, so a report's size does not grow with the grid."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()
        self.first_failure: Optional[ReportRow] = None

    def add(self, row: ReportRow) -> None:
        family = row.identity.partition("[")[0]
        self.counts[family] += 1
        if not row.exact_zero:
            self.failures[family] += 1
            if self.first_failure is None:
                self.first_failure = row

    def write_csv(self, target, rows) -> None:
        """Write an `identity,x,residual,exact_zero` line for each row as it
        arrives, and tally it; target is a path or an open text stream."""
        def line(r):
            self.add(r)
            res = r.residual.to_text() if isinstance(r.residual, ConstLinear) else repr(r.residual)
            return [r.identity, str(r.x), res, "true" if r.exact_zero else "false"]
        write_csv_rows(target, ["identity", "x", "residual", "exact_zero"], map(line, rows))

    def __len__(self) -> int:
        return sum(self.counts.values())


def _line(row) -> str:
    """One CSV line: the fields str()ed (a str stays as it is), joined by commas."""
    fields = list(map(str, row))
    line = ",".join(fields)
    # n fields give n - 1 commas, unless a field holds one
    if (not line or line.count(",") != len(fields) - 1
            or '"' in line or "\r" in line or "\n" in line):
        raise UnquotableFieldError(f"CSV row {fields!r} needs quoting, which the writer "
                                   "never does")
    return line + "\n"


def write_csv_rows(target, header, rows) -> None:
    """Write a header and rows to target, a path or an open text stream, one
    line per row; a row that would need quoting raises UnquotableFieldError
    and nothing of it is written."""
    if not hasattr(target, "write"):
        with Path(target).open("w", newline="") as fh:
            return write_csv_rows(fh, header, rows)
    target.writelines(map(_line, chain([header], rows)))
