"""Per-case verification records, and the CSV writer that takes a path or an
open text stream.

The writer joins each row's fields with commas and ends the line with "\n".
It never quotes: no field any command emits holds a comma, a double quote or
a line break, so a field that does, or a row whose line would be empty, is
refused with UnquotableFieldError before its line is written."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import List, Optional, Union

from .errors import UnquotableFieldError
from .exactnum import ConstLinear

__all__ = ["ReportRow", "VerificationReport", "write_csv_rows"]


@dataclass(frozen=True)
class ReportRow:
    identity: str
    x: Fraction
    residual: Union[ConstLinear, float]
    exact_zero: bool


class VerificationReport:
    """Ordered list of (identity, x, residual, exact-zero) records."""

    def __init__(self):
        self.rows: List[ReportRow] = []

    def add(self, identity: str, x, residual, exact_zero: Optional[bool] = None) -> None:
        if exact_zero is None:
            exact_zero = residual.is_zero()
        if type(x) is not Fraction:
            x = Fraction(x)
        self.rows.append(ReportRow(identity, x, residual, exact_zero))

    def extend(self, other: "VerificationReport") -> None:
        self.rows.extend(other.rows)

    @property
    def all_pass(self) -> bool:
        return all(r.exact_zero for r in self.rows)

    def first_failure(self) -> Optional[ReportRow]:
        for r in self.rows:
            if not r.exact_zero:
                return r
        return None

    def write_csv(self, target) -> None:
        """Write `identity,x,residual,exact_zero` rows; target is a path or
        an open text stream."""
        def row(r):
            res = r.residual.to_text() if isinstance(r.residual, ConstLinear) else repr(r.residual)
            return [r.identity, str(r.x), res, "true" if r.exact_zero else "false"]
        write_csv_rows(target, ["identity", "x", "residual", "exact_zero"], map(row, self.rows))

    def __len__(self) -> int:
        return len(self.rows)


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
