"""The CSV line writer against csv.writer, and the verification report's tallies."""

import csv
import io
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from errlab.errors import UnquotableFieldError
from errlab.exactnum import ConstLinear
from errlab.report import ReportRow, VerificationReport, write_csv_rows

QUOTED = ',"\r\n'
# printable ASCII and tab, so that a file written in the locale's encoding
# holds the same characters as the stream
SAFE_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                  blacklist_characters=QUOTED) | st.just("\t"), max_size=8)
fields = st.one_of(SAFE_TEXT, st.integers(), st.fractions())
# a lone empty field is the one row csv.writer quotes without a special character
rows = st.lists(fields, min_size=1, max_size=5).filter(lambda r: r != [""])
tables = st.tuples(st.lists(SAFE_TEXT, min_size=2, max_size=5), st.lists(rows, max_size=8))


def csv_writer_text(header, body) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    return buf.getvalue()


@given(table=tables)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bytes_match_csv_writer(table, tmp_path):
    header, body = table
    expect = csv_writer_text(header, body)
    stream = io.StringIO()
    write_csv_rows(stream, header, iter(body))
    assert stream.getvalue() == expect
    path = tmp_path / "rows.csv"
    write_csv_rows(path, header, iter(body))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        fh.write(expect)
    assert path.read_bytes() == ref.read_bytes()
    write_csv_rows(str(path), header, iter(body))
    assert path.read_bytes() == ref.read_bytes()


@given(table=tables, bad=rows, data=st.data())
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_field_needing_quotes_raises_before_its_line(table, bad, data, tmp_path):
    header, body = table
    i = data.draw(st.integers(0, len(bad) - 1), label="field")
    char = data.draw(st.sampled_from(QUOTED), label="char")
    text = str(bad[i])
    at = data.draw(st.integers(0, len(text)), label="at")
    bad = bad[:i] + [text[:at] + char + text[at:]] + bad[i + 1:]
    tail = data.draw(st.lists(rows, max_size=3), label="tail")
    # every line before the bad row, and nothing of it
    expect = csv_writer_text(header, body)
    stream = io.StringIO()
    with pytest.raises(UnquotableFieldError):
        write_csv_rows(stream, header, body + [bad] + tail)
    assert stream.getvalue() == expect
    path = tmp_path / "rows.csv"
    with pytest.raises(UnquotableFieldError):
        write_csv_rows(path, header, body + [bad] + tail)
    assert path.read_text() == expect


@pytest.mark.parametrize("row", [[""], []], ids=["lone empty field", "no field"])
def test_empty_line_raises(row):
    stream = io.StringIO()
    with pytest.raises(UnquotableFieldError):
        write_csv_rows(stream, ["a", "b"], [["1", "2"], row])
    assert stream.getvalue() == "a,b\n1,2\n"


def test_add_tallies_rows():
    report = VerificationReport()
    assert len(report) == 0 and report.first_failure is None
    x = Fraction(7, 3)
    first = ReportRow("jump[2]", x, ConstLinear.scalar(1), False)
    for row in [ReportRow("jump[1]", Fraction(1), ConstLinear.zero(), True), first,
                ReportRow("resolvent", Fraction(2), ConstLinear.scalar(2), False),
                ReportRow("resolvent", x, ConstLinear.zero(), True)]:
        report.add(row)
    assert report.counts == {"jump": 2, "resolvent": 2}
    assert report.failures == {"jump": 1, "resolvent": 1}
    assert report.first_failure is first and len(report) == 4


def test_write_csv_streams_and_tallies():
    # each row's line is written before the next row is read
    rows = [ReportRow("a", Fraction(1, 2), ConstLinear.zero(), True),
            ReportRow("b[1]", Fraction(1), ConstLinear.scalar(-1), False),
            ReportRow("growth[mu]", Fraction(0), 0.0, True)]
    stream = io.StringIO()
    seen = []

    def feed():
        for row in rows:
            seen.append(stream.getvalue().count("\n"))
            yield row

    report = VerificationReport()
    report.write_csv(stream, feed())
    assert seen == [1, 2, 3]
    assert stream.getvalue() == ("identity,x,residual,exact_zero\n"
                                 f"a,1/2,{ConstLinear.zero().to_text()},true\n"
                                 f"b[1],1,{ConstLinear.scalar(-1).to_text()},false\n"
                                 "growth[mu],0,0.0,true\n")
    assert report.counts == {"a": 1, "b": 1, "growth": 1}
    assert report.first_failure is rows[1] and len(report) == 3
