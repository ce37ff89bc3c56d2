"""Edge-modification resilience: closed form, oracle, and strength classes.

``minVM(w)`` is the minimum number of back-edge retargetings that turn
the graph of ``w`` into the graph of some other valid watermark of the
same bit-length (the modification model preserves node count, so other
bit-lengths are unreachable).  Three routes to it live here:

* a closed form driven purely by the shape of ``w``'s internal block,
* an exhaustive oracle that encodes every same-length watermark and
  measures distances directly, and
* constructive rewrites (``proof_neighbors``) with predicted costs,
  each an explicit witness for the closed-form upper bound.

The closed form is only defined for bit-length >= 4: hand checks show
bit-length 3 admits a distance-3 pair that the shape rules would price
at 4, and bit-length 2 admits distance 2.  The oracle stays available
there so the deviation can be measured rather than hidden.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    OutOfTheoremRange,
    ResourceBoundError,
    WatermarkDomainError,
)
from .rpg import dmax_map
from .sip import (
    CASE_ONE_ZERO,
    CASE_TWO_ZEROS,
    WatermarkShape,
    bit_shape,
    encode_w_to_sip,
    require_watermark,
)

DEFAULT_CAP = 14
CLOSED_FORM_MIN_BITS = 4

WEAK = "Weak"
STRONG = "Strong"
ORDINARY = "Ordinary"


def _require_closed_form_range(n: int) -> None:
    if n < CLOSED_FORM_MIN_BITS:
        raise OutOfTheoremRange(
            f"closed-form analysis requires bit-length >= {CLOSED_FORM_MIN_BITS}, got {n}"
        )


def minvm_closed_form(w: int) -> int:
    """Shape-based minimum count of valid edge modifications."""
    n = require_watermark(w)
    _require_closed_form_range(n)
    shape = bit_shape(w)
    if shape.case == CASE_TWO_ZEROS:
        return 3
    if shape.case == CASE_ONE_ZERO:
        ell, r = shape.ell, shape.r
        if shape.last_bit == 0:
            return 4 + min(ell, r - 1) if r > 0 else 4
        return 4 + min(ell, r)
    return 4


def _one_zero_watermark(n: int, ell: int, r: int, last_bit: int) -> int:
    """The integer 1 1^ell 0 1^r b of bit-length n."""
    assert ell + r == n - 3 and ell >= 0 and r >= 0
    return int("1" + "1" * ell + "0" + "1" * r + str(last_bit), 2)


def proof_neighbors(w: int) -> list[tuple[int, int, str]]:
    """Constructive same-length rewrites of ``w`` with predicted costs.

    Each entry ``(w', cost, rule)`` asserts that the graph of ``w'`` is
    reachable from the graph of ``w`` by exactly ``cost`` back-edge
    retargetings.  The cheapest entry always prices at the closed form.

    Rules: ``swap`` exchanges the two largest permutation elements,
    which flips the last bit; ``move-out-pi2``/``move-out-pi1`` shift
    the internal zero right/left (``move-out-pi2`` with every element
    but the maximum leaving pushes the zero to the end);
    ``all-ones``/``move-out`` cover the remaining displayed rewrites.
    """
    n = require_watermark(w)
    _require_closed_form_range(n)
    shape = bit_shape(w)
    out: list[tuple[int, int, str]] = []
    if shape.case == CASE_TWO_ZEROS:
        out.append((w ^ 1, 3, "swap"))
    elif shape.case == CASE_ONE_ZERO:
        ell, r = shape.ell, shape.r
        if shape.last_bit == 0:
            if r > 0:
                out.append((w | 1, 4 + ell, "swap"))
                for j in range(1, r + 1):
                    out.append((_one_zero_watermark(n, ell + j, r - j, 0), 3 + r, "move-out-pi2"))
                for i in range(1, ell + 1):
                    out.append((_one_zero_watermark(n, ell - i, r + i, 0), 3 + i + r, "move-out-pi1"))
                out.append(((1 << n) - 1, 4 + r, "all-ones"))
            else:
                out.append((_one_zero_watermark(n, ell - 1, 1, 0), 4, "move-out-pi1"))
        else:
            out.append((w & ~1, 4 + ell, "swap"))
            for j in range(1, r + 1):
                out.append((_one_zero_watermark(n, ell + j, r - j, 1), 4 + r, "move-out-pi2"))
            out.append(((1 << n) - 2, 4 + r, "move-out-pi2"))
    else:
        if shape.last_bit == 0:
            out.append(((1 << n) - 3, 4, "move-out"))
        else:
            out.append(((1 << n) - 4, 4, "move-out"))
    return out


@lru_cache(maxsize=None)
def _encoded_range(n: int) -> np.ndarray:
    """Back-edge rows for every watermark of bit-length ``n``, ascending.

    Row ``w - 2^(n-1)`` holds the domination map of ``w``'s codeword.
    """
    lo, hi = 1 << (n - 1), 1 << n
    width = 2 * n + 1
    dtype = np.uint8 if width + 1 < 256 else np.int32
    rows = np.empty((hi - lo, width), dtype=dtype)
    for idx, w in enumerate(range(lo, hi)):
        permutation, _ = encode_w_to_sip(w)
        rows[idx] = dmax_map(permutation.elements)
    rows.setflags(write=False)
    return rows


def _require_within_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ResourceBoundError(
            f"bit-length {n} exceeds the enumeration cap {cap}; raise the cap to override"
        )


def encoded_distance(w1: int, w2: int) -> int:
    """Graph distance between two same-length watermarks' codewords.

    Encodes just the two watermarks, so it costs O(n) at any bit-length.
    """
    n = require_watermark(w1)
    if require_watermark(w2) != n:
        raise WatermarkDomainError(f"{w1} and {w2} differ in bit-length")
    e1, e2 = (dmax_map(encode_w_to_sip(w)[0].elements) for w in (w1, w2))
    return sum(a != b for a, b in zip(e1, e2))


def minvm_oracle(w: int, cap: int = DEFAULT_CAP) -> tuple[int, tuple[int, ...]]:
    """Brute-force minimum distance from ``w`` to any other same-length
    watermark, with the full ascending list of minimizers."""
    n = require_watermark(w)
    _require_within_cap(n, cap)
    rows = _encoded_range(n)
    lo = 1 << (n - 1)
    diffs = (rows != rows[w - lo]).sum(axis=1)
    diffs[w - lo] = rows.shape[1] + 1  # never pick w itself
    best = int(diffs.min())
    nearest = tuple(int(lo + idx) for idx in np.flatnonzero(diffs == best))
    return best, nearest


def strong_watermark_of(n: int) -> int:
    """The unique strongest watermark form for bit-length ``n``."""
    _require_closed_form_range(n)
    if n % 2 == 1:
        ell = (n - 3) // 2
        return _one_zero_watermark(n, ell, ell, 1)
    ell = (n - 4) // 2
    return _one_zero_watermark(n, ell, ell + 1, 1)


def classify_strength(w: int) -> str:
    """Weak (cheapest to rewrite), Strong (the per-length maximizer with
    fewest nearest rewrites), or Ordinary."""
    n = require_watermark(w)
    _require_closed_form_range(n)
    if bit_shape(w).case == CASE_TWO_ZEROS:
        return WEAK
    if w == strong_watermark_of(n):
        return STRONG
    return ORDINARY


@dataclass(frozen=True)
class ResilienceReport:
    """Full per-watermark analysis.

    ``minvm_closed``, ``strength`` and ``agreement`` are None below
    bit-length 4, where only the oracle is defined.
    """

    w: int
    n: int
    shape: WatermarkShape
    minvm_closed: int | None
    minvm_oracle: int
    nearest: tuple[int, ...]
    strength: str | None
    agreement: bool | None


def analyze_watermark(w: int, cap: int = DEFAULT_CAP) -> ResilienceReport:
    n = require_watermark(w)
    shape = bit_shape(w)
    oracle, nearest = minvm_oracle(w, cap=cap)
    if n < CLOSED_FORM_MIN_BITS:
        return ResilienceReport(w, n, shape, None, oracle, nearest, None, None)
    closed = minvm_closed_form(w)
    if oracle > closed:
        raise RuntimeError(
            f"oracle minimum {oracle} exceeds closed form {closed} for w={w}; "
            "the witness constructions are wrong"
        )
    return ResilienceReport(
        w, n, shape, closed, oracle, nearest, classify_strength(w), oracle == closed
    )


REPORT_COLUMNS = (
    "n",
    "w",
    "shape_case",
    "ell",
    "r",
    "b_n",
    "minvm_closed",
    "minvm_oracle",
    "agree",
    "nearest_count",
    "strength",
)


def report_record(report: ResilienceReport) -> dict[str, object]:
    """Flatten a report into the tabular row shared by survey/verify."""
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


def survey_range(n: int, cap: int = DEFAULT_CAP) -> tuple[ResilienceReport, ...]:
    """Analyze every watermark of bit-length ``n``, ascending."""
    if n < 2:
        raise WatermarkDomainError(f"bit-length must be >= 2, got {n}")
    _require_within_cap(n, cap)
    return tuple(analyze_watermark(w, cap=cap) for w in range(1 << (n - 1), 1 << n))


@dataclass(frozen=True)
class RangeSummary:
    """Per-bit-length roll-up of a verification sweep."""

    n: int
    count: int
    max_minvm: int
    argmax: tuple[int, ...]
    strong: int
    strong_in_argmax: bool
    strong_has_min_nearest: bool
    argmax_unique: bool
    mismatches: int


@dataclass(frozen=True)
class TheoremVerification:
    reports: tuple[ResilienceReport, ...]
    summaries: tuple[RangeSummary, ...]
    mismatches: tuple[ResilienceReport, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_theorem(
    n_min: int, n_max: int, cap: int = DEFAULT_CAP
) -> TheoremVerification:
    """Sweep every watermark with ``n_min <= bit-length <= n_max``.

    Hard failures (raised, since they mean the implementation is wrong):
    the oracle exceeding the closed form, or any constructive witness
    whose measured distance differs from its predicted cost.  Closed
    form disagreeing with the oracle is a *finding*: such watermarks are
    collected as mismatch reports, never raised.

    Each per-length summary also records whether the designated strong
    watermark attains the maximum oracle value and the smallest
    nearest-set among the maximizers, and whether the maximizer is
    unique (expected for odd bit-lengths).
    """
    if n_min < CLOSED_FORM_MIN_BITS:
        raise OutOfTheoremRange(
            f"verification starts at bit-length {CLOSED_FORM_MIN_BITS}, got {n_min}"
        )
    if n_max < n_min:
        raise WatermarkDomainError(f"empty bit-length range {n_min}..{n_max}")
    _require_within_cap(n_max, cap)

    all_reports: list[ResilienceReport] = []
    summaries: list[RangeSummary] = []
    mismatches: list[ResilienceReport] = []
    for n in range(n_min, n_max + 1):
        lo = 1 << (n - 1)
        reports = [analyze_watermark(w, cap=cap) for w in range(lo, 1 << n)]
        rows = _encoded_range(n)
        for report in reports:
            for neighbor, cost, rule in proof_neighbors(report.w):
                if neighbor.bit_length() != n or neighbor == report.w:
                    raise RuntimeError(
                        f"witness {neighbor} of w={report.w} ({rule}) leaves the bit-length range"
                    )
                measured = int((rows[report.w - lo] != rows[neighbor - lo]).sum())
                if measured != cost:
                    raise RuntimeError(
                        f"witness {neighbor} of w={report.w} ({rule}) predicted cost "
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
    return TheoremVerification(tuple(all_reports), tuple(summaries), tuple(mismatches))
