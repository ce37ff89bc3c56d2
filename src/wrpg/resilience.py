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
watermark.  The table the join reads (:func:`_encoded_range`) is stored
by column, one contiguous run of cells per column, and built straight
from the bits by the rules proved in :func:`_domination_maps`: a running
minimum over the bits gives the columns after ``n``, and one pass over
the bits, counting ones, the columns up to ``n``.  Every distance
between rows of the table is measured by one kernel
(:func:`_distances`): a column at a time, each column's comparison added
into one ``uint8`` distance per compared pair.  Two codewords within
the join's radius differ in exactly one bit, as proved in the join, so
it compares each row with its ``n - 1`` single-bit flips, each bit the
two halves of a view of the columns.  The few rows with no flip within
the radius get the one brute-force scan (:func:`_scan_row`): one row
against every row.  ``minvm_oracle`` is that scan alone, and the test
reference for the join and for ``analyze_watermark``.  That gets one
watermark's oracle from an exact search over its bits
(:func:`_nearest_by_search`): the distance measured to ``w``'s nearest
witness rewrite bounds it from above, and the bound
``d >= h + |k' - k|`` proved in :func:`_domination_maps` leaves only the
codewords of a ball of bit flips around ``w`` (:func:`_ball`) within
that.  It builds those instead of the whole table, and falls back to the
row scan only when the ball holds more than ``_SEARCH_ROWS`` of them.  A
sweep keeps each bit-length as the arrays it measured: the
oracle per row, and the shape, once per distinct shape, with the closed
form evaluated there only to fill in the per-row agreement.  The one
builder of ``ResilienceReport``, :func:`_report`, gives every closed
form and strength a caller sees, for ``analyze``, the library reports
and the rows of each shape in the CLI's tables, which write every
other cell straight from the arrays.  The witness check applies each
flip of the Case1 shape to its rows, ``_BUILD_CHUNK`` table rows at a
time, and measures every witness of the other shapes, one row each, in
one more call of the kernel; each measures two gathers of the columns.

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
from itertools import combinations
from math import comb
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
# cell of the chunk (tracemalloc peaks of 8.6-8.8 bytes per cell for
# n = 16..20, where chunks are 2^12 rows).  A table is built to be
# joined, which counts its own budget, or to have a row scanned, so
# _build_bytes also covers one row scan, at 3 bytes per table row
# (tracemalloc peaks of 2.00-2.09 bytes per row for n = 14..20); the
# scan needs more than a chunk from n = 22.
_BUILD_CHUNK = 1 << 12
_BUILD_CELL_BYTES = 32

# A join's working arrays hold at most _JOIN_CELL_BYTES bytes per cell
# of its table plus _JOIN_FLOOR_BYTES.  The tracemalloc peaks of
# _minima_by_row, with its table built beforehand, are 0.21-0.29 bytes
# per cell for n = 16..23: 0.23, 1.4, 5.5 and 22.1 MB at n = 16, 18, 20
# and 22, against budgets of 12.8, 43.0, 176.2 and 759.2 MB.  Most of it
# is the flip masks and one bit's update of them, an integer or a bool
# per row each; one bit's distances hold two bytes per pair, and a far
# row's scan two bytes per row.
_JOIN_CELL_BYTES = 8
_JOIN_FLOOR_BYTES = 4 << 20


def _table_bytes(n: int) -> int:
    return (1 << (n - 1)) * (2 * n + 1)


def _build_bytes(n: int) -> int:
    return max(min(1 << (n - 1), _BUILD_CHUNK) * (2 * n + 1) * _BUILD_CELL_BYTES, 3 << (n - 1))


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
    stored by column: the rows are the read-only transpose of a
    C-contiguous ``(2n + 1, 2^(n-1))`` array, so ``_encoded_range(n).T``
    gives each column as one contiguous run of ``2^(n-1)`` cells.  The
    table is ``uint8``: its values are at most ``2n + 2``, which fits at
    every bit-length whose table could be allocated.  Only the latest
    table is kept: a miss releases the held one before it builds.
    Raises :class:`ResourceBoundError` before allocating when the table
    and the working arrays of one chunk, or of one row scan, would not
    fit in physical memory (:func:`_build_bytes`), and when the
    allocator refuses the table.
    """
    import numpy as np

    _encoded_range.cache_clear()
    _require_fits(n, _build_bytes)
    try:
        cols = np.empty((2 * n + 1, 1 << (n - 1)), dtype=np.uint8)
    except MemoryError:
        raise ResourceBoundError(f"the {n}-bit table could not be allocated") from None
    count = cols.shape[1]
    for start in range(0, count, _BUILD_CHUNK):
        stop = min(start + _BUILD_CHUNK, count)
        cols[:, start:stop] = _domination_maps(n, np.arange(start, stop)).T
    cols.setflags(write=False)
    return cols.T


def _domination_maps(n: int, idx: "np.ndarray") -> "np.ndarray":
    """Domination maps of the codewords of ``2^(n-1) + idx``, one
    ``uint8`` row each: :func:`encode_w_to_sip` and :func:`dmax_map`
    for all of them at once, built a column at a time from the bits by
    the rules below.

    Positions are 1-based, ``m = 2n + 1`` and ``s = m + 1``.  The
    codeword ``pi`` of ``B' = 0^n || b || 0`` pairs the two ends of
    ``pi_b = X || reverse(Y)``, ``X`` the 0-positions and ``Y`` the
    1-positions of ``B'``, each ascending.  Let ``k`` be the number of
    ones of ``b`` and ``a`` the first 0-position after ``n``.  Entry
    ``e`` of the map, the target of element ``e``, is:

    (R1) ``s`` at a 1-position ``e`` (so column ``n + j`` is ``s``
    exactly when ``b_j = 1``); at a 0-position ``e > n``, the next
    0-position of ``B'`` after ``e``, or ``s`` when ``e = m``.

    (R2) for ``e <= k``, with ``Z`` the number of zeros of ``b`` before
    its ``e``-th one: ``n + 2 - Z`` if ``Z >= 2``, ``a`` if ``Z = 1``,
    and the second 0-position after ``n`` if ``Z = 0`` (``2n`` when
    ``b`` has no 0).  For ``k < e < n`` it is ``e + 1``, and entry ``n``
    is ``a`` when ``k < n``.

    Proof.  ``a`` is the fixed point of ``pi``, and ``pi(1..n)`` lists
    the 1-positions ascending, then the 0-positions above ``a``
    descending; every other position after ``n`` holds a value ``<= n``.
    So a 1-position is preceded only by smaller values.  A 0-position
    above ``a`` directly follows the next larger 0-position; the
    largest, ``m``, follows only 1-positions.  ``a`` is preceded, back
    to position ``n``, only by values ``<= n``, and ``pi(n)`` is the
    next 0-position after ``a``, or the last 1-position ``2n`` when
    ``k = n``.  That is (R1).  Take ``e <= n``: it targets ``pi(q)``,
    ``q`` the latest 0-position before ``pi(e)`` (``q >= n``, as
    positions ``1..n`` are all 0).  Every position strictly between
    ``q`` and ``pi(e)`` is a 1-position, and it holds a rank below
    ``e``.  And ``pi(q) > e``: ``pi(n)`` and ``a`` both exceed ``n``,
    and a 0-position above ``a`` holds ``k`` plus its rank from the
    top, which exceeds ``k`` and is ``e + 1`` when ``e > k``.  There are
    ``n - k + 1`` 0-positions after ``n``, and the ``Z``-th of them, for
    ``Z >= 2``, lies above ``a`` with rank ``n - k + 2 - Z`` from the
    top, so it holds ``n + 2 - Z``.  For ``e <= k``, ``pi(e)`` is the
    ``e``-th 1-position, so ``q`` is the ``Z``-th 0-position after
    ``n``, or ``n`` itself when ``Z = 0``.  For ``e > k``, ``pi(e)`` is
    the 0-position of rank ``e - k`` from the top, so ``q`` is the one
    of rank ``e - k + 1``, which holds ``e + 1`` when ``e < n`` and is
    ``a`` when ``e = n``.  That is (R2).

    Bound.  Let two watermarks ``w`` and ``w'`` differ in ``h`` bits,
    have ``k <= k'`` ones, and let their rows differ in ``d`` columns.
    Then ``d >= h + k' - k``.  By (R1), columns ``n+2..2n`` differ in at
    least ``h`` places (``b_1`` is always 1).  By (R2), columns ``1..n``
    differ in at least ``k' - k``.  For ``e <= k``, column ``e`` is
    never ``e + 1``: it is ``n + 2 - Z >= e + 2``, since ``Z <= n - k <=
    n - e``, or it exceeds ``n + 1``, since ``b_1 = 1`` puts ``a`` above
    ``n + 1``.  So columns ``k + 1 .. min(k', n - 1)`` are ``e + 1`` in
    ``w`` only, which is ``k' - k`` columns when ``k' < n``.  When ``k'
    = n > k``, ``w'`` has no 0, so its columns ``1..n`` are all ``2n``,
    and one more column differs.  If ``w``'s first zero is not ``b_n``,
    column ``n`` is ``a < 2n`` in ``w``.  If it is, ``w`` is ``1^(n-1)
    0``, and column 1, outside ``k + 1 .. n - 1`` as ``k = n - 1``, is
    ``m`` in ``w``, the second 0-position after ``n``.

    The maps follow the rules: one running minimum over the bits, from
    ``b_n`` down, gives the next 0-position, and so columns ``n+1..m``
    and ``a``; column ``a``'s entry is the second 0-position after
    ``n``.  Columns ``1..n`` take one pass over the bits, from ``b_1``,
    with a ones counter: each bit writes one cell per row, a one its
    entry ``n + 2 - Z`` at the column it ranks, a zero ``e + 1`` at the
    column of the next one, which that one overwrites.  Entry ``n`` and
    the entries with ``Z <= 1`` are set last.
    """
    import numpy as np

    m, s, size = 2 * n + 1, 2 * n + 2, len(idx)
    maps = np.empty((m, size), dtype=np.uint8)  # row e - 1 is column e
    bits = (idx >> np.arange(n - 1, -1, -1)[:, None]).astype(np.uint8) & np.uint8(1)
    bits[0] = 1  # row j is b_(j+1), at position n + j + 1
    ones_at = bits * np.uint8(s)
    zero_at = np.maximum(ones_at, np.arange(n + 1, m, dtype=np.uint8)[:, None])  # s at a 1
    nxt = np.full(size, m, dtype=np.uint8)  # the next 0-position after bit j's
    for j in range(n - 1, 0, -1):
        np.maximum(ones_at[j], nxt, out=maps[n + j])
        np.minimum(nxt, zero_at[j], out=nxt)
    a = nxt
    maps[n] = maps[m - 1] = s
    at = np.arange(size)
    second = maps[a - 1, at]
    second[second == s] = 2 * n  # b has no 0
    # bit j, after `rank` ones, writes column rank + 1: a 1 its entry
    # n + 2 - Z = rank + n + 2 - j, a 0 the entry rank + 2 of k < e < n
    maps[: n - 1] = np.arange(2, n + 1, dtype=np.uint8)[:, None]
    cell = maps.reshape(-1)
    target = at.copy()
    rank = np.zeros(size, dtype=np.uint8)
    written = bits * np.arange(n, 0, -1, dtype=np.uint8)[:, None] + np.uint8(2)
    step = bits * np.intp(size)
    for j in range(n):
        cell[target] = rank + written[j]
        target += step[j]
        rank += bits[j]
    np.minimum(a, 2 * n, out=maps[n - 1])  # a when k < n; 2n, then raised to second
    # Z = 1 up to column second - n - 2 and Z = 0 up to column a - n - 1
    # (every column when b has no 0, and then second < a); both entries
    # exceed n + 2 - Z, so a maximum sets them
    e, first = np.arange(1, n + 1, dtype=np.uint8)[:, None], maps[:n]
    np.maximum(first, (e + np.uint8(n + 2) <= second) * np.minimum(a, second), out=first)
    np.maximum(first, (e + np.uint8(n + 1) <= a) * second, out=first)
    return maps.T


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


def _distances(left: "np.ndarray", right: "np.ndarray") -> "np.ndarray":
    """The number of columns in which ``left`` and ``right`` differ, at
    each position of ``left.shape[1:]``: the oracle's one distance
    kernel.  ``left`` and ``right`` are the same columns of two sets of
    rows, stored by column, or ``right`` is one row's value per column.
    Each column's comparison, made in one reused buffer, is added into
    one ``uint8`` distance, so it holds two bytes per compared pair
    besides its inputs."""
    import numpy as np

    dist = np.zeros(left.shape[1:], dtype=np.uint8)
    differs = np.empty(left.shape[1:], dtype=bool)
    for a, b in zip(left, right):
        dist += np.not_equal(a, b, out=differs).view(np.uint8)
    return dist


def _scan_row(cols: "np.ndarray", row: int) -> tuple[int, "np.ndarray"]:
    """The minimum distance from row ``row`` of the table ``cols``,
    stored by column, to every other row, with the ascending indices of
    the rows that attain it.  :func:`_distances` measures the row's
    value in each column against every row, so the scan holds two bytes
    per table row besides the table: the distance and the kernel's
    buffer, then the distance and the rows at its minimum."""
    import numpy as np

    dist = _distances(cols, cols[:, row])
    dist[row] = np.iinfo(dist.dtype).max  # never the row itself
    best = int(dist.min())
    return best, np.flatnonzero(dist == best)


def minvm_oracle(w: int, cap: int = DEFAULT_CAP) -> tuple[int, tuple[int, ...]]:
    """Brute-force minimum distance from ``w`` to any other same-length
    watermark, with the full ascending list of minimizers: the rows
    :func:`_scan_row` finds, each plus ``2^(n-1)``."""
    n = require_watermark(w)
    _require_within_cap(n, cap)
    lo = 1 << (n - 1)
    best, nearest = _scan_row(_encoded_range(n).T, w - lo)
    return best, tuple(lo + i for i in nearest.tolist())


# The bounded search builds at most this many codewords of its ball
# besides ``w`` (about 20 us each at 14 bits); analyze scans the table
# for a watermark whose ball holds more.
_SEARCH_ROWS = 1024


def _ball(w: int, n: int, budget: int) -> list[int] | None:
    """Every watermark of bit-length ``n`` whose row can lie within
    ``budget`` of ``w``'s, ``w`` included; or None, before any is
    listed, when there are more than ``_SEARCH_ROWS`` others.

    A watermark that turns ``a`` of ``w``'s ones below ``b_1`` into
    zeros and ``z`` of its zeros into ones differs from it in ``h = a +
    z`` bits and ``|k' - k| = |z - a|`` ones, so by the bound ``d >= h +
    |k' - k|`` proved in :func:`_domination_maps` its row is at least
    ``2 max(a, z)`` from ``w``'s.  So the ball is every ``w ^ A ^ Z``,
    ``A`` at most ``budget // 2`` of those ones and ``Z`` at most
    ``budget // 2`` of the zeros; and, within ``_JOIN_RADIUS``, only
    ``h <= 1``, by the lemma proved in :func:`_minima_by_row`."""
    most = budget // 2
    ones, zeros = ([1 << i for i in range(n - 1) if (w >> i & 1) == bit] for bit in (1, 0))
    sizes = [(a, z) for a in range(most + 1) for z in range(most + 1)
             if a + z <= 1 or budget > _JOIN_RADIUS]
    if sum(comb(len(ones), a) * comb(len(zeros), z) for a, z in sizes) - 1 > _SEARCH_ROWS:
        return None
    down, up = ([[sum(c) for c in combinations(g, k)] for k in range(most + 1)]
                for g in (ones, zeros))
    return [w ^ x ^ y for a, z in sizes for x in down[a] for y in up[z]]


def _nearest_by_search(
    w: int, n: int, shape: WatermarkShape
) -> tuple[int, tuple[int, ...]] | None:
    """``minvm_oracle(w)`` by a bounded search, without the table: or
    None when the bound leaves more than ``_SEARCH_ROWS`` rows to build.
    ``n`` and ``shape`` are ``w``'s, from the caller.

    ``w``'s witness rewrites (:func:`_witness_flips`, and always the
    flip of ``b_n``) are codewords, so the least distance measured to
    them, ``U``, bounds the minimum from above, whatever the closed form
    says or the witnesses hold: a flip that is not positive or reaches
    ``b_1`` is no rewrite, and is skipped.  By the bound ``d >= h + |k'
    - k|`` proved in :func:`_domination_maps`, every codeword within
    ``U`` is in the bit ball of radius ``U`` (:func:`_ball`).  Its
    codewords are built by the codec and measured, the witnesses not
    again, so the least distance measured is the minimum and the
    codewords measured at it are the whole nearest set.  The closed form
    is never used.
    """
    target = _row(w)
    flips = {1, *(flip for flip, _, _ in _witness_flips(shape) if 0 < flip < 1 << (n - 1))}
    distances = {w ^ flip: sum(map(ne, _row(w ^ flip), target)) for flip in flips}
    ball = _ball(w, n, min(distances.values()))
    if ball is None:
        return None
    for v in ball:
        if v != w and v not in distances:
            distances[v] = sum(map(ne, _row(v), target))
    best = min(distances.values())
    return best, tuple(sorted(v for v, d in distances.items() if d == best))


# Every watermark with two or more internal zeros has its nearest set
# at distance 3, so a join within radius 3 settles all but the 2n-2
# others, which get a full row scan.
_JOIN_RADIUS = 3


class _LengthMinima(NamedTuple):
    """The oracle's ``minVM`` of every row of one bit-length's table and
    its nearest set.  Bit ``j`` of ``flips[i]`` is set when row ``i ^
    2^j`` is nearest to row ``i``; a far row, one with no flip within the
    radius, has mask 0 and its ascending nearest rows in ``far[i]``.
    ``nearest_count`` (``int64``) and ``nearest_of`` read both.  With the
    join's work: pairs whose distance it computed, each row with each of
    its single-bit flips once, ``(n - 1) 2^(n-2)`` pairs; and the far
    rows, which were scanned in full."""

    minvm: "np.ndarray"
    flips: "np.ndarray"
    far: dict[int, "np.ndarray"]
    pairs_verified: int
    full_scans: int

    @property
    def nearest_count(self) -> "np.ndarray":
        import numpy as np

        count = np.bitwise_count(self.flips).astype(np.int64)
        count[list(self.far)] = [len(nearest) for nearest in self.far.values()]
        return count

    def nearest_of(self, row: int) -> tuple[int, ...]:
        lo = len(self.flips)  # 2^(n-1), the least watermark of the length
        if row in self.far:
            return tuple((self.far[row] + lo).tolist())
        mask, w = int(self.flips[row]), lo + row
        return tuple(sorted(w ^ 1 << j for j in range(mask.bit_length()) if mask >> j & 1))


def _minima_by_row(n: int) -> _LengthMinima:
    """Exact ``minvm_oracle`` of every watermark of bit-length ``n``.

    A single-flip join: row ``i`` is compared with row ``i ^ 2^j`` for
    each bit ``j`` of the row index, and with no other row.  That finds
    every pair within ``_JOIN_RADIUS``, because two codewords whose
    watermarks differ in two or more bits are at least 4 apart (the
    lemma below).  So a row whose minimum lies within the radius gets it,
    and its whole nearest set, from its ``n - 1`` flips; the rows with no
    flip within the radius are each measured against every row
    (:func:`_scan_row`).  For bit ``j``, ``cols.reshape(width, -1, 2,
    2^j)`` puts each row whose bit ``j`` is 0 beside its flip in every
    column, so both halves are views of the table stored by column: no
    gather and no sort, and each pair is compared once, ``(n - 1)
    2^(n-2)`` pairs in all, by :func:`_distances`, which holds two bytes
    per pair of the bit.  Each row keeps a running minimum over its flips
    and a mask of the flips at it; a row whose minimum stays above the
    radius is far, and its scan replaces its mask.  By the lemma, the
    flips at a near row's least distance are its whole nearest set.

    Notation, rules (R1) and (R2), and the bound ``d >= h + |k' - k|``
    as in :func:`_domination_maps`: ``h`` is the number of bits in which
    two watermarks differ, ``k`` and ``k'`` their numbers of ones, and
    ``d`` the number of columns in which their rows differ.

    Lemma: ``h >= 2`` implies ``d >= 4``.

    1. The bound settles ``h >= 4``, ``h = 3`` (``k' - k`` has the
       parity of ``h``) and ``h = 2`` with ``k' != k``.
    2. Left: ``h = 2`` and ``k = k'``, so the bits differ at ``j1 < j2``;
       let ``w`` be the one with ``b_j1 = 1``, ``b_j2 = 0``.  Besides
       columns ``n + j1`` and ``n + j2``, two more differ:

       (A) When ``b`` has a 0 before bit ``j1``, at ``n + i`` for the
       latest, column ``n + i`` is the next 0-position: ``n + j1`` in
       ``w'``, later in ``w``.  Otherwise column ``n`` is ``a`` (``k <
       n``, as ``w'`` has a 0): ``n + j1`` in ``w'``, later in ``w``.

       (B) When ``b`` has a 0 between bits ``j1`` and ``j2``, at ``n +
       i`` for the latest, column ``n + i`` is ``n + j2`` in ``w``, later
       in ``w'``.  Otherwise bits ``j1 .. j2 - 1`` of ``w`` and ``j1 + 1
       .. j2`` of ``w'`` are ones, and the first of them has the same
       rank ``r`` in both, after the ``Z0`` zeros before ``j1`` in ``w``
       and ``Z0 + 1`` in ``w'``.  By (R2), column ``r`` of ``w`` and of
       ``w'`` is ``n + 2 - Z0`` and ``n + 1 - Z0`` if ``Z0 >= 2``; ``a >
       n`` and ``n`` if ``Z0 = 1``; the second 0-position after ``n``,
       beyond ``n + j2``, and ``n + j1`` if ``Z0 = 0``.

       (A) lies below ``n + j1`` and (B) above it or in ``1..n``; both
       are ``<= n`` only when ``Z0 = 0``, and then (A) is ``n`` and (B)
       is ``r = j1 < n``.  So the four columns are distinct.
    """
    import numpy as np

    cols = _encoded_range(n).T
    width, count = cols.shape
    minvm = np.full(count, _JOIN_RADIUS + 1, dtype=np.uint8)
    flips = np.zeros(count, dtype=np.min_scalar_type(1 << (n - 2)))
    for j in range(n - 1):
        pairs = cols.reshape(width, -1, 2, 1 << j)
        dist = _distances(pairs[:, :, 0], pairs[:, :, 1])[:, None]
        least, mask = minvm.reshape(-1, 2, 1 << j), flips.reshape(-1, 2, 1 << j)
        np.copyto(mask, 0, where=dist < least)
        mask |= np.left_shift(dist <= least, j, dtype=flips.dtype)
        np.minimum(least, dist, out=least)
    scanned = np.flatnonzero(minvm > _JOIN_RADIUS)  # no flip within the radius
    far = {}
    for row in scanned.tolist():
        minvm[row], far[row] = _scan_row(cols, row)
    flips[scanned] = 0
    return _LengthMinima(minvm, flips, far, (n - 1) * count // 2, len(scanned))


def strong_watermark_of(n: int) -> int:
    """The unique strongest watermark form for bit-length ``n``.

    It is ``1 1^ell 0 1^r 1`` with ``ell = r`` for odd ``n`` and
    ``r = ell + 1`` for even ``n``: all ones but bit ``r + 1 = n // 2``.
    Raises :class:`ResourceBoundError`, before it builds any integer of
    ``n`` bits, when the bytes of the three that its construction holds
    at once would not fit in :func:`_memory`.
    """
    _require_closed_form_range(n)
    # 2^n - 1, 2^(n // 2) and their xor; tracemalloc peaks at 2.67 times
    # (n + 7) // 8 bytes for n = 8e5..8e6
    (limit, memory), needs = _memory(), 3 * ((n + 7) // 8)
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
    ``U``, is its budget.  A codeword whose watermark turns ``a`` of
    ``w``'s ones into zeros and ``z`` of its zeros into ones is at least
    ``2 max(a, z)`` from ``w``'s, by the bound ``d >= h + |k' - k|``
    proved in :func:`_domination_maps`.  So every codeword within ``U``
    lies in the ball of those flips with ``2 max(a, z) <= U``, cut to
    the single flips when ``U`` is within the join's radius
    (:func:`_ball`), and is built and measured, which makes the minimum
    and the nearest set exact.  When the ball holds more than
    ``_SEARCH_ROWS`` codewords besides ``w``, counted before any is
    built, the oracle scans ``w``'s row of the table instead.  The cap
    and the table's memory budget are checked before any work, whichever
    path runs.
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
    cost.  A flip that is not positive or reaches bit ``n - 1`` leaves
    the bit-length from every row, so it is caught on the Python int
    before any array math.  The shapes and their rows come from the
    sweep: only shape 0, the Case1 shape, can hold more than one row (see
    :func:`_shape_ids`), so each of its flips is measured on its rows
    ``_BUILD_CHUNK`` rows of the table at a time; every other shape's one
    row is its representative, and the witnesses of all those rows are
    measured in one call of :func:`_distances`, as are each chunk's; both
    compare two gathers of the columns."""
    import numpy as np

    n, cols = sweep.n, _encoded_range(sweep.n).T
    case1 = sweep.shape_id == 0
    failures = []  # (row, rule index, flip, rule, cost, measured or None if it leaves)
    single = []  # (row, rule index, flip, rule, cost) of every one-row shape
    for s, shape in enumerate(sweep.shapes):
        row = int(sweep.representatives[s])
        for k, (flip, cost, rule) in enumerate(_witness_flips(shape)):
            # flip < 2^(n-1) keeps the leading bit, so w ^ flip is row ^ flip
            if flip <= 0 or flip >> (n - 1):
                failures.append((row, k, flip, rule, cost, None))
            elif s:
                single.append((row, k, flip, rule, cost))
            else:
                for start in range(0, cols.shape[1], _BUILD_CHUNK):
                    part = start + np.flatnonzero(case1[start : start + _BUILD_CHUNK])
                    measured = _distances(cols.take(part, axis=1), cols.take(part ^ flip, axis=1))
                    for i in np.flatnonzero(measured != cost)[:1].tolist():
                        failures.append((int(part[i]), k, flip, rule, cost, int(measured[i])))
    at = np.array([(row, row ^ flip) for row, _, flip, _, _ in single], dtype=np.int64)
    measured = _distances(*(cols.take(rows, axis=1) for rows in at.reshape(-1, 2).T)).tolist()
    failures += [
        (row, k, flip, rule, cost, d)
        for (row, k, flip, rule, cost), d in zip(single, measured)
        if d != cost
    ]
    if failures:
        row, _, flip, rule, cost, measured = min(failures)
        w = (1 << (n - 1)) + row
        problem = "leaves the bit-length range"
        if measured is not None:
            problem = f"predicted cost {cost} but measures {measured}"
        raise InternalInvariantError(f"witness {w ^ flip} of w={w} ({rule}) {problem}")


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
