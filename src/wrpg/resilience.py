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

``verify_theorem`` and ``survey_range`` need the oracle for every
watermark of a bit-length at once; they get it from one exact join per
bit-length (:func:`_minima_by_row`) instead of one full row scan per
watermark.  ``minvm_oracle`` stays the brute-force single-row scan and
is the test reference for the join.

The closed form is only defined for bit-length >= 4: hand checks show
bit-length 3 admits a distance-3 pair that the shape rules would price
at 4, and bit-length 2 admits distance 2.  The oracle stays available
there so the deviation can be measured rather than hidden.

Only the oracle needs numpy, so it is imported inside the functions
that build and search the table: the codec commands never load it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InternalInvariantError,
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


def _require_int(value: int, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WatermarkDomainError(f"{name} must be an integer, got {value!r}")


def _require_closed_form_range(n: int) -> None:
    _require_int(n, "bit-length")
    if n < CLOSED_FORM_MIN_BITS:
        raise OutOfTheoremRange(
            f"closed-form analysis requires bit-length >= {CLOSED_FORM_MIN_BITS}, got {n}"
        )


def minvm_closed_form(w: int) -> int:
    """Shape-based minimum count of valid edge modifications."""
    n = require_watermark(w)
    _require_closed_form_range(n)
    return _closed_form(bit_shape(w))


def _closed_form(shape: WatermarkShape) -> int:
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
    return _proof_neighbors(w, n, bit_shape(w))


def _proof_neighbors(w: int, n: int, shape: WatermarkShape) -> list[tuple[int, int, str]]:
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


def _physical_memory_bytes() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


# The table is built _BUILD_CHUNK rows at a time.  While a chunk is
# built, its working arrays hold at most _BUILD_CELL_BYTES bytes per
# cell of the chunk (tracemalloc peaks of 15-16 bytes per cell for
# n = 12..20, where chunks are at least 2^11 rows).
_BUILD_CHUNK = 1 << 12
_BUILD_CELL_BYTES = 32


def _require_table_fits(n: int) -> None:
    """Raise :class:`ResourceBoundError` when the ``n``-bit table and
    one chunk's working arrays would not fit in physical memory."""
    count, width = 1 << (n - 1), 2 * n + 1
    table_bytes = count * width
    work_bytes = min(count, _BUILD_CHUNK) * width * _BUILD_CELL_BYTES
    physical = _physical_memory_bytes()
    if physical is not None and table_bytes + work_bytes > physical:
        raise ResourceBoundError(
            f"the {n}-bit table needs {table_bytes} bytes (plus {work_bytes} bytes "
            f"while it is built), more than the {physical} bytes of physical memory"
        )


@lru_cache(maxsize=None)
def _encoded_range(n: int) -> np.ndarray:
    """Back-edge rows for every watermark of bit-length ``n``, ascending.

    Row ``w - 2^(n-1)`` holds the domination map of ``w``'s codeword,
    ``dmax_map(encode_w_to_sip(w)[0].elements)``, built by
    :func:`_domination_maps` a chunk of rows at a time.  The table is
    ``uint8``: its values are at most ``2n + 2``, which fits at every
    bit-length whose table could be allocated.  Raises
    :class:`ResourceBoundError` before allocating when the table and
    one chunk's working arrays would not fit in physical memory.
    """
    import numpy as np

    _require_table_fits(n)
    count, width = 1 << (n - 1), 2 * n + 1
    rows = np.empty((count, width), dtype=np.uint8)
    for start in range(0, count, _BUILD_CHUNK):
        stop = min(start + _BUILD_CHUNK, count)
        rows[start:stop] = _domination_maps(n, np.arange(start, stop)).T
    rows.setflags(write=False)
    return rows


def _domination_maps(n: int, idx: np.ndarray) -> np.ndarray:
    """Domination maps of the codewords of ``2^(n-1) + idx``, one per
    ``uint8`` column: :func:`encode_w_to_sip` and :func:`dmax_map` for
    all of them at once.  Columns keep each step's rows contiguous.

    Positions ``p`` are 0-based here.  ``B' = 0^n || b || 0`` becomes
    a 0/1 matrix; ``pi_b = X || reverse(Y)`` is the argsort of the key
    ``p`` at a 0 and ``2m - p`` at a 1; pairing the two ends of
    ``pi_b`` sets ``perm[pi_b] = reverse(pi_b) + 1``.  Then each
    position in turn gets the value at the latest earlier position
    holding a greater value (the header ``m + 1`` when none does),
    filed under its own value.
    """
    import numpy as np

    m, size = 2 * n + 1, len(idx)
    key_type = np.min_scalar_type(2 * m)
    pos = np.arange(m, dtype=key_type)[:, None]
    ones = np.zeros((m, size), dtype=bool)
    ones[n] = True  # b_1
    ones[n + 1 : 2 * n] = (idx >> np.arange(n - 2, -1, -1)[:, None]) & 1
    key = np.where(ones, 2 * m - pos, pos).astype(key_type)
    pi_b = np.argsort(key, axis=0).astype(key_type)
    perm = np.empty((m, size), dtype=np.uint8)
    np.put_along_axis(perm, pi_b, (pi_b[::-1] + 1).astype(np.uint8), axis=0)
    dominator = np.empty((m, size), dtype=np.uint8)
    dominator[0] = m + 1
    columns = np.arange(size)
    for j in range(1, m):
        # 1 + the latest earlier position holding a greater value, or 0
        latest = ((perm[:j] > perm[j]) * pos[1 : j + 1]).max(axis=0)
        found = perm[latest.astype(np.intp) - 1, columns]
        dominator[j] = np.where(latest > 0, found, m + 1)
    maps = np.empty((m, size), dtype=np.uint8)
    np.put_along_axis(maps, perm.astype(np.intp) - 1, dominator, axis=0)
    return maps


def _require_within_cap(n: int, cap: int) -> None:
    _require_int(n, "bit-length")
    _require_int(cap, "cap")
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


def _scan_row(rows: np.ndarray, idx: int, lo: int) -> tuple[int, tuple[int, ...]]:
    """Minimum distance from row ``idx`` to every other row, with the
    ascending watermarks (row + ``lo``) that attain it."""
    import numpy as np

    diffs = (rows != rows[idx]).sum(axis=1)
    diffs[idx] = rows.shape[1] + 1  # never pick the row itself
    best = int(diffs.min())
    return best, tuple(int(lo + i) for i in np.flatnonzero(diffs == best))


def minvm_oracle(w: int, cap: int = DEFAULT_CAP) -> tuple[int, tuple[int, ...]]:
    """Brute-force minimum distance from ``w`` to any other same-length
    watermark, with the full ascending list of minimizers."""
    n = require_watermark(w)
    _require_within_cap(n, cap)
    lo = 1 << (n - 1)
    return _scan_row(_encoded_range(n), w - lo, lo)


# Every watermark with two or more internal zeros has its nearest set
# at distance 3, so a join within radius 3 settles all but the 2n-2
# others, which get a full row scan.
_JOIN_RADIUS = 3
_JOIN_CHUNK = 1 << 14  # candidate pairs verified at once


def _group_key(rows: np.ndarray, columns: range) -> np.ndarray:
    """Dense id of each row's values on ``columns``: equal ids, equal values."""
    import numpy as np

    key = np.zeros(len(rows), dtype=np.int64)
    base = int(rows.max()) + 1
    for c in columns:
        _, key = np.unique(key * base + rows[:, c], return_inverse=True)
    return key.astype(np.int32)


@dataclass(frozen=True)
class _LengthMinima:
    """``(minVM, nearest)`` of every row of one bit-length's table, with
    the join's work: pairs whose distance it computed, and rows that
    had no neighbour within the radius and were scanned in full."""

    minima: tuple[tuple[int, tuple[int, ...]], ...]
    pairs_verified: int
    full_scans: int


def _minima_by_row(n: int) -> _LengthMinima:
    """Exact ``minvm_oracle`` of every watermark of bit-length ``n``.

    A pigeonhole (multi-index) join: with the columns split into the
    ``_JOIN_RADIUS + 1`` disjoint groups ``g, g + 4, g + 8, ...``, two
    rows within distance ``_JOIN_RADIUS`` agree exactly on at least one
    group.  So comparing only rows that share a key in some group finds
    every pair within the radius, hence every row's whole nearest set
    when its minimum lies within it.  A pair is verified only in the
    first group it shares, in chunks of ``_JOIN_CHUNK``, and only pairs
    within the radius are kept.  Rows with no neighbour within the
    radius get :func:`_scan_row`.
    """
    import numpy as np

    rows = _encoded_range(n)
    lo, count = 1 << (n - 1), len(rows)
    groups = [range(g, rows.shape[1], _JOIN_RADIUS + 1) for g in range(_JOIN_RADIUS + 1)]
    keys = np.stack([_group_key(rows, columns) for columns in groups])
    kept_a, kept_b = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    kept_d = [np.empty(0, np.uint8)]
    verified = 0
    for g in range(len(groups)):
        order = np.argsort(keys[g], kind="stable").astype(np.int32)
        sorted_key = keys[g][order]
        # Sorted position p pairs with positions p+1 .. end of its bucket;
        # pair number f of the group is (p, p + 1 + f - before[p]).
        starts = np.flatnonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]])
        ends = np.repeat(np.r_[starts[1:], count], np.diff(np.r_[starts, count]))
        through = np.cumsum(ends - np.arange(count) - 1)
        before, total = np.r_[0, through[:-1]], int(through[-1])
        for first in range(0, total, _JOIN_CHUNK):
            flat = np.arange(first, min(first + _JOIN_CHUNK, total))
            p = np.searchsorted(through, flat, side="right")
            a, b = order[p], order[p + 1 + flat - before[p]]
            if g:
                fresh = (keys[:g, a] != keys[:g, b]).all(axis=0)
                a, b = a[fresh], b[fresh]
            verified += len(a)
            d = np.count_nonzero(rows[a] != rows[b], axis=1)
            near = d <= _JOIN_RADIUS
            kept_a.append(a[near])
            kept_b.append(b[near])
            kept_d.append(d[near].astype(np.uint8))
    a = np.concatenate(kept_a + kept_b)
    b = np.concatenate(kept_b + kept_a)
    d = np.concatenate(kept_d + kept_d)
    by_row = np.lexsort((b, a))
    a, b, d = a[by_row], b[by_row], d[by_row]
    best = np.full(count, _JOIN_RADIUS + 1, dtype=np.uint8)
    np.minimum.at(best, a, d)
    minimal = d == best[a]
    a, nearest = a[minimal], (b[minimal].astype(np.int64) + lo).tolist()
    bounds = np.searchsorted(a, np.arange(count + 1)).tolist()
    minima = []
    full_scans = 0
    for idx in range(count):
        start, stop = bounds[idx], bounds[idx + 1]
        if start == stop:
            minima.append(_scan_row(rows, idx, lo))
            full_scans += 1
        else:
            minima.append((int(best[idx]), tuple(nearest[start:stop])))
    return _LengthMinima(tuple(minima), verified, full_scans)


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
    return _strength(w, n, bit_shape(w))


def _strength(w: int, n: int, shape: WatermarkShape) -> str:
    if shape.case == CASE_TWO_ZEROS:
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


def _report(w: int, oracle: int, nearest: tuple[int, ...]) -> ResilienceReport:
    """Assemble ``w``'s report from its oracle result, checking it
    against the closed form."""
    n = w.bit_length()
    shape = bit_shape(w)
    if n < CLOSED_FORM_MIN_BITS:
        return ResilienceReport(w, n, shape, None, oracle, nearest, None, None)
    closed = _closed_form(shape)
    if oracle > closed:
        raise InternalInvariantError(
            f"oracle minimum {oracle} exceeds closed form {closed} for w={w}; "
            "the witness constructions are wrong"
        )
    return ResilienceReport(
        w, n, shape, closed, oracle, nearest, _strength(w, n, shape), oracle == closed
    )


def analyze_watermark(w: int, cap: int = DEFAULT_CAP) -> ResilienceReport:
    return _report(w, *minvm_oracle(w, cap=cap))


def _length_reports(n: int) -> tuple[ResilienceReport, ...]:
    """Reports for every watermark of bit-length ``n``, ascending."""
    lo = 1 << (n - 1)
    return tuple(
        _report(lo + idx, oracle, nearest)
        for idx, (oracle, nearest) in enumerate(_minima_by_row(n).minima)
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
    _require_int(n, "bit-length")
    if n < 2:
        raise WatermarkDomainError(f"bit-length must be >= 2, got {n}")
    _require_within_cap(n, cap)
    return _length_reports(n)


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

    Hard failures (raised as :class:`InternalInvariantError`, since they
    mean the implementation is wrong):
    the oracle exceeding the closed form, or any constructive witness
    whose measured distance differs from its predicted cost.  Closed
    form disagreeing with the oracle is a *finding*: such watermarks are
    collected as mismatch reports, never raised.

    Each per-length summary also records whether the designated strong
    watermark attains the maximum oracle value and the smallest
    nearest-set among the maximizers, and whether the maximizer is
    unique (expected for odd bit-lengths).
    """
    _require_int(n_min, "bit-length")
    _require_int(n_max, "bit-length")
    if n_min < CLOSED_FORM_MIN_BITS:
        raise OutOfTheoremRange(
            f"verification starts at bit-length {CLOSED_FORM_MIN_BITS}, got {n_min}"
        )
    if n_max < n_min:
        raise WatermarkDomainError(f"empty bit-length range {n_min}..{n_max}")
    _require_within_cap(n_max, cap)
    _require_table_fits(n_max)  # the largest table, refused before any sweep work

    all_reports: list[ResilienceReport] = []
    summaries: list[RangeSummary] = []
    mismatches: list[ResilienceReport] = []
    for n in range(n_min, n_max + 1):
        lo = 1 << (n - 1)
        reports = _length_reports(n)
        rows = _encoded_range(n)
        for report in reports:
            for neighbor, cost, rule in _proof_neighbors(report.w, n, report.shape):
                if neighbor.bit_length() != n or neighbor == report.w:
                    raise InternalInvariantError(
                        f"witness {neighbor} of w={report.w} ({rule}) leaves the bit-length range"
                    )
                measured = int((rows[report.w - lo] != rows[neighbor - lo]).sum())
                if measured != cost:
                    raise InternalInvariantError(
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
