"""Edge-modification resilience: closed form, oracle, and strength classes.

``minVM(w)`` is the minimum number of back-edge retargetings that turn
the graph of ``w`` into the graph of some other valid watermark of the
same bit-length (the modification model preserves node count, so other
bit-lengths are unreachable).  Three routes to it live here:

* a closed form driven purely by the shape of ``w``'s internal block,
* an exhaustive oracle that encodes every same-length watermark and
  measures distances directly, and
* constructive rewrites (``proof_neighbors``) with predicted costs,
  each an explicit witness for the closed-form upper bound.  Each
  rewrite flips one or two bits of ``w``, and which bits is fixed by
  ``w``'s shape.

``verify_theorem`` and ``survey_range`` need the oracle for every
watermark of a bit-length at once; they get it from one exact join per
bit-length (:func:`_minima_by_row`) instead of one full row scan per
watermark.  ``minvm_oracle`` stays the brute-force single-row scan and
is the test reference for the join and for ``analyze_watermark``.  That
gets one watermark's oracle from an exact search over its bits
(:func:`_nearest_by_search`): the distance measured to ``w``'s nearest
witness rewrite bounds it from above, and a lower bound read from the
columns that the bits alone fix prunes every codeword beyond that.  It
builds a few codewords instead of the whole table, and falls back to
the row scan only when the bounds leave more than ``_SEARCH_ROWS`` of
them.  A sweep keeps each bit-length as the arrays it measured: the
oracle per row, and the shape, once per distinct shape, with the closed
form evaluated there only to fill in the per-row agreement.  The one
builder of ``ResilienceReport``, :func:`_report`, gives every closed
form and strength a caller sees, for ``analyze``, the library reports
and the rows of each shape in the CLI's tables, which write every
other cell straight from the arrays.  The witness check applies each
shape's flips to all of that shape's rows, one array comparison per
flip.

Each watermark is classified (:func:`~wrpg.sip.bit_shape`) once, by a
public entry point: ``analyze_watermark`` classifies ``w`` and a sweep
classifies each distinct shape.  Every private helper takes the shape
from its caller: :func:`_report`, :func:`_nearest_by_search`,
:func:`_closed_form`, :func:`_strength` and :func:`_witness_flips` as an
argument, and a sweep's reports and witness check from the sweep's
``shapes``.

The closed form is only defined for bit-length >= 4: hand checks show
bit-length 3 admits a distance-3 pair that the shape rules would price
at 4, and bit-length 2 admits distance 2.  The oracle stays available
there so the deviation can be measured rather than hidden.

Only the table needs numpy, so it is imported inside the functions
that build and search the table: the codec commands never load it, and
``analyze`` loads it only when it falls back to the row scan.
"""

import os
from collections.abc import Callable
from functools import cached_property, lru_cache
from operator import ne
from typing import NamedTuple

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
    _Value,
    _require_int,
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


def proof_neighbors(w: int) -> list[tuple[int, int, str]]:
    """Constructive same-length rewrites of ``w`` with predicted costs.

    Each entry ``(w', cost, rule)`` asserts that the graph of ``w'`` is
    reachable from the graph of ``w`` by exactly ``cost`` back-edge
    retargetings.  The cheapest entry always prices at the closed form.

    Each rule flips one or two bits of ``w``, and which bits depends
    only on ``w``'s shape (see :func:`_witness_flips`).  With ``w`` as
    ``1 1^ell 0 1^r b_n``, ``b_n`` is bit 0 and the internal zero is bit
    ``r + 1``: ``swap`` exchanges the two largest permutation elements,
    which flips ``b_n``; ``move-out-pi2``/``move-out-pi1`` move the
    internal zero ``j`` places right/left, flipping its bit and the bit
    ``j`` places away; ``all-ones``, and the last ``move-out-pi2`` when
    ``b_n = 1`` (it moves the zero to the end), flip the zero's bit and
    ``b_n``; with no internal zero, ``move-out`` flips the last two
    bits.
    """
    _require_closed_form_range(require_watermark(w))
    return [(w ^ flip, cost, rule) for flip, cost, rule in _witness_flips(bit_shape(w))]


def _witness_flips(shape: WatermarkShape) -> list[tuple[int, int, str]]:
    """The rules of :func:`proof_neighbors` for every watermark of
    ``shape``, in order: each ``(flip, cost, rule)`` rewrites ``w`` into
    ``w ^ flip``."""
    if shape.case == CASE_TWO_ZEROS:
        return [(1, 3, "swap")]
    if shape.case != CASE_ONE_ZERO:
        return [(3, 4, "move-out")]
    ell, r, zero = shape.ell, shape.r, 1 << (shape.r + 1)
    if shape.last_bit == 1:
        return [
            (1, 4 + ell, "swap"),
            *((zero | zero >> j, 4 + r, "move-out-pi2") for j in range(1, r + 1)),
            (zero | 1, 4 + r, "move-out-pi2"),
        ]
    if r == 0:
        return [(zero | zero << 1, 4, "move-out-pi1")]
    return [
        (1, 4 + ell, "swap"),
        *((zero | zero >> j, 3 + r, "move-out-pi2") for j in range(1, r + 1)),
        *((zero | zero << i, 3 + i + r, "move-out-pi1") for i in range(1, ell + 1)),
        (zero | 1, 4 + r, "all-ones"),
    ]


def _physical_memory_bytes() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


# The table is built _BUILD_CHUNK rows at a time.  While a chunk is
# built, its working arrays hold at most _BUILD_CELL_BYTES bytes per
# cell of the chunk (tracemalloc peaks of 10-12 bytes per cell for
# n = 12..20, where chunks are at least 2^11 rows).
_BUILD_CHUNK = 1 << 12
_BUILD_CELL_BYTES = 32

# A join's working arrays hold at most _JOIN_CELL_BYTES bytes per cell
# of its table plus _JOIN_FLOOR_BYTES: twice the tracemalloc peaks of
# _minima_by_row with its table built beforehand, 3.5-4.2 bytes per cell
# for n = 16..19 plus at most 2 MB for the arrays of one _JOIN_CHUNK of
# pairs, which are most of the peak below n = 16.
_JOIN_CELL_BYTES = 8
_JOIN_FLOOR_BYTES = 4 << 20


def _table_bytes(n: int) -> int:
    return (1 << (n - 1)) * (2 * n + 1)


def _build_bytes(n: int) -> int:
    return min(1 << (n - 1), _BUILD_CHUNK) * (2 * n + 1) * _BUILD_CELL_BYTES


def _join_bytes(n: int) -> int:
    return _table_bytes(n) * _JOIN_CELL_BYTES + _JOIN_FLOOR_BYTES


def _memory() -> tuple[int, str]:
    """The bytes that one result may take, and their name: physical
    memory, or a 64-bit address space when its size is unknown."""
    physical = _physical_memory_bytes()
    if physical is None:
        return (1 << 63) - 1, "a 64-bit address space"
    return physical, f"the {physical} bytes of physical memory"


def _require_fits(n: int, work_bytes: Callable[[int], int]) -> None:
    """Raise :class:`ResourceBoundError` when the ``n``-bit table plus
    ``work_bytes(n)`` bytes of working arrays would not fit in
    :func:`_memory`.  A table with at least as many rows as that has
    bytes is refused before its figures are computed, and they are
    printed only below 2^63 rows, so a huge ``n`` builds no huge
    integer."""
    limit, memory = _memory()
    if n - 1 < limit.bit_length() and _table_bytes(n) + work_bytes(n) <= limit:
        return
    needs = f"2^{n - 1} rows"
    if n - 1 < 63:
        needs = f"{_table_bytes(n)} bytes plus {work_bytes(n)} bytes of working arrays"
    raise ResourceBoundError(f"the {n}-bit table needs {needs}, more than {memory}")


@lru_cache(maxsize=1)
def _encoded_range(n: int) -> "np.ndarray":
    """Back-edge rows for every watermark of bit-length ``n``, ascending.

    Row ``w - 2^(n-1)`` holds the domination map of ``w``'s codeword,
    ``dmax_map(encode_w_to_sip(w)[0].elements)``, built by
    :func:`_domination_maps` a chunk of rows at a time.  The table is
    ``uint8``: its values are at most ``2n + 2``, which fits at every
    bit-length whose table could be allocated.  Only the latest table
    is kept: a miss releases the held one before it builds.  Raises
    :class:`ResourceBoundError` before allocating when the table and
    one chunk's working arrays would not fit in physical memory, and
    when the allocator refuses the table.
    """
    import numpy as np

    _encoded_range.cache_clear()
    _require_fits(n, _build_bytes)
    try:
        rows = np.empty((1 << (n - 1), 2 * n + 1), dtype=np.uint8)
    except MemoryError:
        raise ResourceBoundError(f"the {n}-bit table could not be allocated") from None
    for start in range(0, len(rows), _BUILD_CHUNK):
        stop = min(start + _BUILD_CHUNK, len(rows))
        rows[start:stop] = _domination_maps(n, np.arange(start, stop))
    rows.setflags(write=False)
    return rows


def _domination_maps(n: int, idx: "np.ndarray") -> "np.ndarray":
    """Domination maps of the codewords of ``2^(n-1) + idx``, one
    ``uint8`` row each: :func:`encode_w_to_sip` and :func:`dmax_map`
    for all of them at once.

    Positions are 1-based, ``m = 2n + 1`` and ``s = m + 1``.  The
    codeword ``pi`` of ``B' = 0^n || b || 0`` comes from an argsort:
    the key ``p`` at a 0-position and ``2m - p`` at a 1-position sorts
    into ``pi_b = X || reverse(Y)``, and pairing the two ends of
    ``pi_b`` sets ``pi[pi_b] = reverse(pi_b)``.  Entry ``e`` of the
    map, the target of element ``e``, then follows from the
    0-positions of ``B'``:

    * a 1-position ``e`` targets ``s`` (so bit ``j`` of ``b`` is 1
      exactly when element ``n + j`` targets ``s``);
    * a 0-position ``e > n`` targets the next 0-position of ``B'``, or
      ``s`` when ``e = m``;
    * ``e <= n`` targets ``pi(q)``, where ``q`` is the latest 0-position
      before ``pi(e)``; since positions ``1..n`` are all 0, ``q >= n``.

    Proof.  Let ``k`` be the number of ones and ``a`` the first
    0-position after ``n``, the fixed point of ``pi``.  Then
    ``pi(1..n)`` lists the 1-positions ascending, then the 0-positions
    above ``a`` descending; every other position after ``n`` holds a
    value ``<= n``.  So a 1-position is preceded only by smaller
    values.  A 0-position above ``a`` directly follows the next larger
    0-position; the largest, ``m``, follows only 1-positions.  ``a`` is
    preceded, back to position ``n``, only by values ``<= n``, and
    ``pi(n)`` is the next 0-position after ``a``; when ``b`` has no 0,
    ``a = m`` and every earlier value is smaller.  Take ``e <= n``.
    Every position strictly between ``q`` and ``pi(e)`` is a
    1-position, and it holds a rank below ``e``.  And ``pi(q) > e``:
    ``pi(n)`` and ``a`` both exceed ``n``, and a 0-position above ``a``
    holds ``k`` plus its rank from the top, which exceeds ``k`` and is
    ``e + 1`` when ``e > k``.

    So the maps need one running maximum (the latest 0-position) and
    one running minimum (the next 0-position) over the positions, and
    two gathers for ``pi(q)``.
    """
    import numpy as np

    m, s, size = 2 * n + 1, 2 * n + 2, len(idx)
    at = np.arange(1, m + 1, dtype=np.min_scalar_type(2 * m))  # 1-based positions
    ones = np.zeros((size, m), dtype=bool)
    ones[:, n] = True  # b_1
    ones[:, n + 1 : 2 * n] = (idx[:, None] >> np.arange(n - 2, -1, -1)) & 1
    pi_b = np.argsort(np.where(ones, 2 * m - at, at), axis=1).astype(at.dtype)
    perm = np.empty((size, m), dtype=np.uint8)
    np.put_along_axis(perm, pi_b, (pi_b[:, ::-1] + 1).astype(np.uint8), axis=1)
    zero_at = ~ones * at  # each 0-position, and 0 at the 1-positions
    s_at_ones = ones * np.uint8(s)
    # the latest 0-position at or before each position; for e = n+1..m-1,
    # the next 0-position after e
    latest_zero = np.maximum.accumulate(zero_at, axis=1)
    next_zero = np.minimum.accumulate((zero_at + s_at_ones)[:, :n:-1], axis=1)[:, ::-1]
    maps = np.full((size, m), s, dtype=np.uint8)
    q = np.take_along_axis(latest_zero, perm[:, :n] - 2, axis=1)  # before pi(e), e <= n
    maps[:, :n] = np.take_along_axis(perm, q - 1, axis=1)
    maps[:, n : m - 1] = np.maximum(s_at_ones[:, n : m - 1], next_zero)
    return maps


def _require_within_cap(n: int, cap: int) -> None:
    """Raise unless ``cap`` is an integer and the bit-length ``n``, which
    every caller has checked already, is at most ``cap``."""
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
    return sum(map(ne, _row(w1), _row(w2)))


def _row(w: int) -> tuple[int, ...]:
    """The back-edge targets of ``w``'s codeword graph, built by the codec."""
    return dmax_map(encode_w_to_sip(w)[0])


def _scan_row(rows: "np.ndarray", idx: int) -> tuple[int, "np.ndarray"]:
    """Minimum distance from row ``idx`` to every other row, with the
    ascending indices of the rows that attain it."""
    import numpy as np

    diffs = (rows != rows[idx]).sum(axis=1)
    diffs[idx] = rows.shape[1] + 1  # never pick the row itself
    best = int(diffs.min())
    return best, np.flatnonzero(diffs == best)


def minvm_oracle(w: int, cap: int = DEFAULT_CAP) -> tuple[int, tuple[int, ...]]:
    """Brute-force minimum distance from ``w`` to any other same-length
    watermark, with the full ascending list of minimizers: the rows
    :func:`_scan_row` finds, each plus ``2^(n-1)``."""
    n = require_watermark(w)
    _require_within_cap(n, cap)
    lo = 1 << (n - 1)
    best, nearest = _scan_row(_encoded_range(n), w - lo)
    return best, tuple(lo + i for i in nearest.tolist())


# The bounded search builds at most this many codewords besides ``w``'s
# witnesses (about 20 us each at 14 bits); analyze scans the table for a
# watermark that needs more.
_SEARCH_ROWS = 1024


def _survivors(target: tuple[int, ...], n: int, budget: int) -> list[int] | None:
    """Every watermark of bit-length ``n`` whose domination map differs
    from ``target`` in at most ``budget`` of the columns ``n+2..2n``,
    ``target``'s own watermark included; or None as soon as more than
    ``_SEARCH_ROWS`` others are found.

    By the rule proved in :func:`_domination_maps`, element ``n + j``
    targets ``s`` when ``b_j = 1`` and otherwise the next 0-position of
    ``B'`` after ``n + j`` (``m`` when there is none).  So walking the
    bits from ``b_n`` down to ``b_2`` fixes one column per bit, and a
    prefix whose columns already differ in more than ``budget`` places
    is dropped with everything below it.  (Columns ``n + 1`` and ``m``
    target ``s`` in every codeword.)"""
    s = 2 * n + 2
    found = []
    # (bit j to choose, next 0-position, bits chosen, columns still allowed to differ)
    stack = [(n, 2 * n + 1, 1 << (n - 1), budget)]
    while stack:
        j, z, v, left = stack.pop()
        if j == 1:
            if len(found) > _SEARCH_ROWS:  # so at least _SEARCH_ROWS + 1 besides w
                return None
            found.append(v)
            continue
        column = target[n + j - 1]
        if column == s or left:
            stack.append((j - 1, z, v | 1 << (n - j), left - (column != s)))
        if column == z or left:
            stack.append((j - 1, n + j, v, left - (column != z)))
    return found


def _nearest_by_search(
    w: int, n: int, shape: WatermarkShape
) -> tuple[int, tuple[int, ...]] | None:
    """``minvm_oracle(w)`` by a bounded search, without the table: or
    None when the bound leaves more than ``_SEARCH_ROWS`` rows to build.
    ``n`` and ``shape`` are ``w``'s, from the caller.

    ``w``'s witness rewrites (:func:`_witness_flips`, and always the
    flip of ``b_n``) are codewords, so the least distance measured to
    them, ``U``, bounds the minimum from above, whatever the closed form
    says.  The columns ``n+2..2n`` of a codeword depend only on its bits
    (see :func:`_survivors`), so the number of them in which another
    codeword differs from ``w``'s is a lower bound on its distance: every
    codeword within ``U`` is among the survivors of budget ``U``.  Those
    are built by the codec and measured, the witnesses not again, so the
    least distance measured is the minimum and the codewords measured at
    it are the whole nearest set.  The closed form is never used.
    """
    target = _row(w)
    flips = {1, *(flip for flip, _, _ in _witness_flips(shape) if flip < 1 << (n - 1))}
    distances = {w ^ flip: sum(map(ne, _row(w ^ flip), target)) for flip in flips}
    survivors = _survivors(target, n, min(distances.values()))
    if survivors is None:
        return None
    for v in survivors:
        if v != w and v not in distances:
            distances[v] = sum(map(ne, _row(v), target))
    best = min(distances.values())
    return best, tuple(sorted(v for v, d in distances.items() if d == best))


# Every watermark with two or more internal zeros has its nearest set
# at distance 3, so a join within radius 3 settles all but the 2n-2
# others, which get a full row scan.
_JOIN_RADIUS = 3
_JOIN_CHUNK = 1 << 14  # candidate pairs checked at once


class _LengthMinima(NamedTuple):
    """The oracle's ``minVM`` of every row of one bit-length's table and
    its nearest set as CSR: row ``i``'s ascending nearest watermarks are
    ``nearest[offsets[i]:offsets[i + 1]]``.  With the join's work: pairs
    whose distance it computed, a pair once for each group it shares,
    and rows that had no neighbour within the radius and were scanned in
    full."""

    minvm: "np.ndarray"
    offsets: "np.ndarray"
    nearest: "np.ndarray"
    pairs_verified: int
    full_scans: int

    @property
    def nearest_count(self) -> "np.ndarray":
        return self.offsets[1:] - self.offsets[:-1]

    def nearest_of(self, row: int) -> tuple[int, ...]:
        return tuple(self.nearest[self.offsets[row] : self.offsets[row + 1]].tolist())


def _minima_by_row(n: int) -> _LengthMinima:
    """Exact ``minvm_oracle`` of every watermark of bit-length ``n``.

    A pigeonhole (multi-index) join: with the columns split into the
    ``_JOIN_RADIUS + 1`` disjoint groups ``g, g + 4, g + 8, ...``, two
    rows within distance ``_JOIN_RADIUS`` agree exactly on at least one
    group.  So comparing only rows that share a key in some group finds
    every pair within the radius, hence every row's whole nearest set
    when its minimum lies within it.  Each group is joined on its own:
    its buckets come from one lexsort over its columns, its pairs are
    verified in chunks of ``_JOIN_CHUNK``, and only pairs within the
    radius are kept.  Each row's minimum is taken over its kept pairs in
    one pass; rows left above the radius get :func:`_scan_row`.  A
    minimal pair kept by two groups is dropped once, in the final sort
    by (row, neighbour) that builds the CSR.
    """
    import numpy as np

    rows = _encoded_range(n)
    lo, count = 1 << (n - 1), len(rows)
    kept_a, kept_b = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    kept_d = [np.empty(0, np.uint8)]
    verified = 0
    for g in range(_JOIN_RADIUS + 1):
        # One sort makes equal rows adjacent; a bucket starts wherever a
        # sorted row differs from the one before it.
        keys = rows[:, g :: _JOIN_RADIUS + 1]
        order = np.lexsort(keys.T).astype(np.int32)
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
        del keys
        # Sorted position p pairs with positions p+1 .. end of its bucket.
        # before[p] counts the pairs ahead of p and before[count] is the
        # group's total, so pair number f of the group is
        # (p, p + 1 + f - before[p]) for the last p with before[p] <= f.
        ends = np.repeat(np.r_[starts[1:], count], np.diff(np.r_[starts, count]))
        before = np.r_[0, np.cumsum(ends - np.arange(1, count + 1))]
        del starts, ends  # the pair loop reads only order and before
        for first in range(0, before[-1], _JOIN_CHUNK):
            flat = np.arange(first, min(first + _JOIN_CHUNK, before[-1]))
            p = np.searchsorted(before, flat, side="right") - 1
            a, b = order[p], order[p + 1 + flat - before[p]]
            verified += len(a)
            d = np.count_nonzero(rows[a] != rows[b], axis=1)
            near = d <= _JOIN_RADIUS
            kept_a.append(a[near])
            kept_b.append(b[near])
            kept_d.append(d[near].astype(np.uint8))
    a, b = np.concatenate(kept_a + kept_b), np.concatenate(kept_b + kept_a)
    d = np.concatenate(kept_d + kept_d)
    minvm = np.full(count, _JOIN_RADIUS + 1, dtype=np.uint8)
    np.minimum.at(minvm, a, d)
    minimal = d == minvm[a]
    a, b = [a[minimal]], [b[minimal]]
    scanned = np.flatnonzero(minvm > _JOIN_RADIUS)  # no neighbour within the radius
    for idx in scanned.tolist():
        minvm[idx], nearest = _scan_row(rows, idx)
        a.append(np.full(len(nearest), idx, dtype=np.int32))
        b.append(nearest)
    a, b = np.concatenate(a), np.concatenate(b)
    by_row = np.lexsort((b, a))
    a, b = a[by_row], b[by_row]
    fresh = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]  # once per pair, not per group
    a, b = a[fresh], b[fresh]
    offsets = np.searchsorted(a, np.arange(count + 1))
    nearest = b.astype(np.int64) + lo
    return _LengthMinima(minvm, offsets, nearest, verified, len(scanned))


def strong_watermark_of(n: int) -> int:
    """The unique strongest watermark form for bit-length ``n``.

    It is ``1 1^ell 0 1^r 1`` with ``ell = r`` for odd ``n`` and
    ``r = ell + 1`` for even ``n``: all ones but bit ``r + 1 = n // 2``.
    Raises :class:`ResourceBoundError`, before it builds any integer of
    ``n`` bits, when their bytes would not fit in :func:`_memory`.
    """
    _require_closed_form_range(n)
    (limit, memory), needs = _memory(), (n + 7) // 8
    if needs > limit:
        raise ResourceBoundError(f"the {n}-bit watermark needs {needs} bytes, more than {memory}")
    return ((1 << n) - 1) ^ (1 << (n // 2))


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


class ResilienceReport(NamedTuple):
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


def _oracle_above(w: int, oracle: int, closed: int) -> InternalInvariantError:
    return InternalInvariantError(
        f"oracle minimum {oracle} exceeds closed form {closed} for w={w}; "
        "the witness constructions are wrong"
    )


def _report(
    w: int, shape: WatermarkShape, oracle: int, nearest: tuple[int, ...]
) -> ResilienceReport:
    """Assemble ``w``'s report from its shape, which the caller holds,
    and its oracle result, checking it against the closed form: the only
    place a report's closed form and strength are computed."""
    n = w.bit_length()
    if n < CLOSED_FORM_MIN_BITS:
        return ResilienceReport(w, n, shape, None, oracle, nearest, None, None)
    closed = _closed_form(shape)
    if oracle > closed:
        raise _oracle_above(w, oracle, closed)
    return ResilienceReport(
        w, n, shape, closed, oracle, nearest, _strength(w, n, shape), oracle == closed
    )


def analyze_watermark(w: int, cap: int = DEFAULT_CAP) -> ResilienceReport:
    """Closed form, oracle, nearest set and strength of ``w``.

    The oracle's ``(minVM, nearest)`` comes from the bounded search
    (:func:`_nearest_by_search`), which needs neither numpy nor the
    table.  The distance measured to ``w``'s nearest witness rewrite,
    ``U``, is its budget.  Columns ``n+2..2n`` of a codeword are fixed by
    its bits alone, so another codeword is at least as far from ``w``'s
    as the number of those columns in which the two differ, and a search
    over the bits from ``b_n`` down drops every prefix that already
    differs in more than ``U`` places.  Every codeword within ``U`` is
    built and measured, which makes the minimum and the nearest set
    exact.  When the search finds more than ``_SEARCH_ROWS`` codewords
    to build, it stops, and the oracle scans ``w``'s row of the table
    instead.  The cap and the table's memory budget are checked before
    any work, whichever path runs.
    """
    n = require_watermark(w)
    _require_within_cap(n, cap)
    _require_fits(n, _build_bytes)
    shape = bit_shape(w)
    found = _nearest_by_search(w, n, shape)
    if found is None:
        found = minvm_oracle(w, cap=cap)
    return _report(w, shape, *found)


class _LengthSweep(NamedTuple):
    """Every watermark of bit-length ``n`` as arrays over the rows of its
    table (row ``i`` is ``2^(n-1) + i``): what the sweep measured, and
    no closed form or strength, which :func:`_report` derives per row.
    The shapes are the distinct ones of the bit-length, each classified
    once, with the row that represents it; ``shape_id`` and
    ``agreement`` hold one value per row, and ``agreement`` is None below
    bit-length 4.  :meth:`report` hands :func:`_report` the row's shape
    from ``shapes``, so building reports classifies nothing."""

    n: int
    minima: _LengthMinima
    shape_id: "np.ndarray"
    shapes: tuple[WatermarkShape, ...]
    representatives: "np.ndarray"
    agreement: "np.ndarray | None"

    def report(self, row: int) -> ResilienceReport:
        w, shape = (1 << (self.n - 1)) + row, self.shapes[self.shape_id[row]]
        return _report(w, shape, int(self.minima.minvm[row]), self.minima.nearest_of(row))

    def reports(self) -> tuple[ResilienceReport, ...]:
        return tuple(self.report(row) for row in range(len(self.shape_id)))

    def mismatches(self) -> tuple[ResilienceReport, ...]:
        return tuple(self.report(row) for row in (~self.agreement).nonzero()[0].tolist())


def _shape_ids(n: int) -> "tuple[np.ndarray, np.ndarray]":
    """Each row's index into the distinct shapes of bit-length ``n``, and
    the row that represents each shape.

    Every row whose internal block ``b_2..b_{n-1}`` has two or more
    zeros has the one Case1 shape, represented by the first of them;
    every other row is the only watermark of its shape.  So there are at
    most ``2n - 1`` shapes.
    """
    import numpy as np

    count = 1 << (n - 1)
    internal_zeros = ~(np.arange(count) >> 1) & ((1 << (n - 2)) - 1)
    alone = (internal_zeros & (internal_zeros - 1)) == 0  # at most one internal zero
    representatives = np.concatenate([np.flatnonzero(~alone)[:1], np.flatnonzero(alone)])
    shape_id = np.zeros(count, dtype=np.min_scalar_type(len(representatives)))
    shape_id[representatives] = np.arange(len(representatives))
    return shape_id, representatives


def _sweep_length(n: int) -> _LengthSweep:
    """The oracle and shape of every watermark of bit-length ``n``, and
    whether its oracle equals its closed form.  Each distinct shape is
    evaluated once, and so is its closed form, which serves only that
    comparison.  Raises :class:`InternalInvariantError` at the first row
    whose oracle minimum exceeds its closed form."""
    import numpy as np

    lo = 1 << (n - 1)
    minima = _minima_by_row(n)
    shape_id, representatives = _shape_ids(n)
    shapes = tuple(bit_shape(w) for w in (representatives + lo).tolist())
    agreement = None
    if n >= CLOSED_FORM_MIN_BITS:
        closed = np.array([_closed_form(shape) for shape in shapes])[shape_id]
        above = np.flatnonzero(minima.minvm > closed)
        if len(above):
            row = int(above[0])
            raise _oracle_above(lo + row, int(minima.minvm[row]), int(closed[row]))
        agreement = minima.minvm == closed
    return _LengthSweep(n, minima, shape_id, shapes, representatives, agreement)


def _check_witnesses(sweep: _LengthSweep) -> None:
    """Raise :class:`InternalInvariantError` at the first constructive
    witness, in row order and then in rule order, that leaves the
    bit-length or whose distance in the table differs from its predicted
    cost.  Each flip is measured on every row of its shape at once.  A
    flip that is not positive or reaches bit ``n - 1`` leaves the
    bit-length from every row, so it is caught on the Python int before
    any array math.  The shapes and their rows come from the sweep: only
    shape 0, the Case1 shape, can hold more than one row (see
    :func:`_shape_ids`), so it is the only one looked up in
    ``shape_id``; every other shape's one row is its representative."""
    import numpy as np

    n, rows = sweep.n, _encoded_range(sweep.n)
    first = None  # (row, rule index, message) of the first failure so far
    for s, shape in enumerate(sweep.shapes):
        idx = sweep.representatives[s : s + 1] if s else np.flatnonzero(sweep.shape_id == 0)
        for k, (flip, cost, rule) in enumerate(_witness_flips(shape)):
            if flip <= 0 or flip >> (n - 1):
                row, problem = int(idx[0]), "leaves the bit-length range"
            else:
                # flip < 2^(n-1) keeps the leading bit, so w ^ flip is row idx ^ flip
                measured = np.count_nonzero(rows[idx] != rows[idx ^ flip], axis=1)
                wrong = np.flatnonzero(measured != cost)
                if not len(wrong):
                    continue
                row = int(idx[wrong[0]])
                problem = f"predicted cost {cost} but measures {measured[wrong[0]]}"
            if first is None or (row, k) < first[:2]:
                w = (1 << (n - 1)) + row
                first = row, k, f"witness {w ^ flip} of w={w} ({rule}) {problem}"
    if first is not None:
        raise InternalInvariantError(first[2])


def _survey(n: int, cap: int) -> _LengthSweep:
    _require_int(n, "bit-length")
    if n < 2:
        raise WatermarkDomainError(f"bit-length must be >= 2, got {n}")
    _require_within_cap(n, cap)
    _require_fits(n, _join_bytes)
    return _sweep_length(n)


def survey_range(n: int, cap: int = DEFAULT_CAP) -> tuple[ResilienceReport, ...]:
    """Analyze every watermark of bit-length ``n``, ascending."""
    return _survey(n, cap).reports()


class RangeSummary(NamedTuple):
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


def _summary(sweep: _LengthSweep) -> RangeSummary:
    import numpy as np

    minvm, nearest_count = sweep.minima.minvm, sweep.minima.nearest_count
    lo = 1 << (sweep.n - 1)
    max_minvm = int(minvm.max())
    argmax = np.flatnonzero(minvm == max_minvm)
    strong = strong_watermark_of(sweep.n)
    strong_in_argmax = bool(minvm[strong - lo] == max_minvm)
    return RangeSummary(
        n=sweep.n,
        count=len(minvm),
        max_minvm=max_minvm,
        argmax=tuple((argmax + lo).tolist()),
        strong=strong,
        strong_in_argmax=strong_in_argmax,
        strong_has_min_nearest=(
            strong_in_argmax and bool(nearest_count[strong - lo] == nearest_count[argmax].min())
        ),
        argmax_unique=len(argmax) == 1,
        mismatches=int(np.count_nonzero(~sweep.agreement)),
    )


class TheoremVerification(_Value):
    """A sweep's summaries and mismatch reports: ``summaries``, one
    :class:`RangeSummary` per bit-length; ``mismatches``, the
    :class:`ResilienceReport` of each watermark whose oracle differs
    from its closed form; and ``_sweeps``, each bit-length's
    :class:`_LengthSweep`.  ``reports`` is built from the sweeps on
    first access.  An immutable value: equal and hashed by
    ``summaries`` and ``mismatches``."""

    __match_args__ = ("summaries", "mismatches", "_sweeps")
    _compared = 2

    @cached_property
    def reports(self) -> tuple[ResilienceReport, ...]:
        return tuple(report for sweep in self._sweeps for report in sweep.reports())

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
    _require_fits(n_max, _join_bytes)  # covers every smaller table, build and join

    sweeps = []
    for n in range(n_min, n_max + 1):
        sweep = _sweep_length(n)
        _check_witnesses(sweep)
        sweeps.append(sweep)
    return TheoremVerification(
        tuple(_summary(sweep) for sweep in sweeps),
        tuple(report for sweep in sweeps for report in sweep.mismatches()),
        tuple(sweeps),
    )
