"""Reference per-watermark sweep for the differential tests.

The sweep as it ran before it became columnar: one
``ResilienceReport`` per watermark built in a Python loop, one
distance per constructive witness, and summaries reduced from the
reports.  It takes each row's ``(minVM, nearest)`` from the join and
the rules from ``_closed_form``, ``_strength`` and ``_witness_flips``,
so it differs from ``verify_theorem`` and ``survey_range`` only in how
the rows are put together.

Also the constructive rewrites as they were built before they became
bit flips fixed by shape: one watermark at a time, each rewrite spelled
out as the watermark it yields (``proof_neighbors``).

Also the table writer as it ran before the CLI wrote its tables
straight from the sweep's arrays: one record per report, written by
``csv.writer`` or ``json.dumps``.

Also the one-zero watermark ``1 1^ell 0 1^r b`` spelled out bit by bit,
as ``strong_watermark_of`` built it before it became one formula.
"""

import csv
import io
import json

from wrpg import resilience
from wrpg.errors import InternalInvariantError
from wrpg.resilience import (
    CLOSED_FORM_MIN_BITS,
    RangeSummary,
    ResilienceReport,
    strong_watermark_of,
)
from wrpg.sip import CASE_ONE_ZERO, CASE_TWO_ZEROS, WatermarkShape, bit_shape


def one_zero_watermark(n: int, ell: int, r: int, last_bit: int) -> int:
    """The integer 1 1^ell 0 1^r b of bit-length n."""
    assert ell + r == n - 3 and ell >= 0 and r >= 0
    return int("1" + "1" * ell + "0" + "1" * r + str(last_bit), 2)


def proof_neighbors(w: int, n: int, shape: WatermarkShape) -> list[tuple[int, int, str]]:
    """``resilience.proof_neighbors(w)`` for the ``n``-bit ``w`` of ``shape``."""
    out: list[tuple[int, int, str]] = []
    if shape.case == CASE_TWO_ZEROS:
        out.append((w ^ 1, 3, "swap"))
    elif shape.case == CASE_ONE_ZERO:
        ell, r = shape.ell, shape.r
        if shape.last_bit == 0:
            if r > 0:
                out.append((w | 1, 4 + ell, "swap"))
                for j in range(1, r + 1):
                    out.append((one_zero_watermark(n, ell + j, r - j, 0), 3 + r, "move-out-pi2"))
                for i in range(1, ell + 1):
                    out.append((one_zero_watermark(n, ell - i, r + i, 0), 3 + i + r, "move-out-pi1"))
                out.append(((1 << n) - 1, 4 + r, "all-ones"))
            else:
                out.append((one_zero_watermark(n, ell - 1, 1, 0), 4, "move-out-pi1"))
        else:
            out.append((w & ~1, 4 + ell, "swap"))
            for j in range(1, r + 1):
                out.append((one_zero_watermark(n, ell + j, r - j, 1), 4 + r, "move-out-pi2"))
            out.append(((1 << n) - 2, 4 + r, "move-out-pi2"))
    else:
        if shape.last_bit == 0:
            out.append(((1 << n) - 3, 4, "move-out"))
        else:
            out.append(((1 << n) - 4, 4, "move-out"))
    return out


def join_minima(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(minVM, nearest)`` of every row of the ``n``-bit join, as
    ``minvm_oracle`` gives it."""
    minima = resilience._minima_by_row(n)
    return tuple(
        (oracle, minima.nearest_of(row)) for row, oracle in enumerate(minima.minvm.tolist())
    )


def report(w: int, oracle: int, nearest: tuple[int, ...]) -> ResilienceReport:
    n = w.bit_length()
    shape = bit_shape(w)
    if n < CLOSED_FORM_MIN_BITS:
        return ResilienceReport(w, n, shape, None, oracle, nearest, None, None)
    closed = resilience._closed_form(shape)
    if oracle > closed:
        raise InternalInvariantError(
            f"oracle minimum {oracle} exceeds closed form {closed} for w={w}; "
            "the witness constructions are wrong"
        )
    return ResilienceReport(
        w, n, shape, closed, oracle, nearest, resilience._strength(w, n, shape), oracle == closed
    )


def length_reports(n: int) -> tuple[ResilienceReport, ...]:
    """Reports for every watermark of bit-length ``n``, ascending."""
    lo = 1 << (n - 1)
    return tuple(
        report(lo + idx, oracle, nearest)
        for idx, (oracle, nearest) in enumerate(join_minima(n))
    )


def verify_theorem(n_min: int, n_max: int):
    """``(reports, summaries, mismatches)`` of the sweep over ``n_min..n_max``."""
    all_reports, summaries, mismatches = [], [], []
    for n in range(n_min, n_max + 1):
        lo = 1 << (n - 1)
        reports = length_reports(n)
        rows = resilience._encoded_range(n)
        for r in reports:
            for flip, cost, rule in resilience._witness_flips(r.shape):
                neighbor = r.w ^ flip
                if not lo <= neighbor < 2 * lo or neighbor == r.w:
                    raise InternalInvariantError(
                        f"witness {neighbor} of w={r.w} ({rule}) leaves the bit-length range"
                    )
                measured = int((rows[r.w - lo] != rows[neighbor - lo]).sum())
                if measured != cost:
                    raise InternalInvariantError(
                        f"witness {neighbor} of w={r.w} ({rule}) predicted cost "
                        f"{cost} but measures {measured}"
                    )
        n_mismatches = [r for r in reports if r.agreement is False]
        mismatches.extend(n_mismatches)
        max_minvm = max(r.minvm_oracle for r in reports)
        argmax_reports = [r for r in reports if r.minvm_oracle == max_minvm]
        argmax = tuple(r.w for r in argmax_reports)
        strong = strong_watermark_of(n)
        min_nearest = min(len(r.nearest) for r in argmax_reports)
        strong_report = next((r for r in argmax_reports if r.w == strong), None)
        summaries.append(
            RangeSummary(
                n=n,
                count=len(reports),
                max_minvm=max_minvm,
                argmax=argmax,
                strong=strong,
                strong_in_argmax=strong_report is not None,
                strong_has_min_nearest=(
                    strong_report is not None and len(strong_report.nearest) == min_nearest
                ),
                argmax_unique=len(argmax) == 1,
                mismatches=len(n_mismatches),
            )
        )
        all_reports.extend(reports)
    return tuple(all_reports), tuple(summaries), tuple(mismatches)


def report_record(report: ResilienceReport) -> dict[str, object]:
    """Flatten a report into the row that ``survey`` and ``verify-theorem``
    write for it."""
    shape = report.shape
    return {
        "n": report.n,
        "w": report.w,
        "shape_case": shape.case,
        "ell": shape.ell,
        "r": shape.r,
        "b_n": shape.last_bit,
        "minvm_closed": report.minvm_closed,
        "minvm_oracle": report.minvm_oracle,
        "agree": report.agreement,
        "nearest_count": len(report.nearest),
        "strength": report.strength,
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def rows_csv(reports) -> str:
    """The CSV table of ``reports``, as ``--format csv`` writes it."""
    records = [report_record(report) for report in reports]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(records[0])  # the column names
    writer.writerows([_cell(value) for value in record.values()] for record in records)
    return buffer.getvalue()


def rows_json(reports) -> str:
    """The JSON table of ``reports``, as ``--format json`` writes it."""
    return json.dumps([report_record(report) for report in reports], indent=2) + "\n"
