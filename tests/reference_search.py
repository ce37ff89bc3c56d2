"""Reference bounded search for the differential tests.

``analyze_watermark``'s search as it ran before it searched the bit
ball: it pruned on the columns ``n+2..2n``, which a watermark's bits
alone fix, walking the bits from ``b_n`` down.  It takes the witnesses,
the codec and ``_SEARCH_ROWS`` from ``wrpg.resilience``, so it differs
from ``resilience._nearest_by_search`` only in the bound it prunes with.
"""

from operator import ne

from wrpg import resilience
from wrpg.sip import WatermarkShape


def survivors(target: tuple[int, ...], n: int, budget: int) -> list[int] | None:
    """Every watermark of bit-length ``n`` whose domination map differs
    from ``target`` in at most ``budget`` of the columns ``n+2..2n``,
    ``target``'s own watermark included; or None as soon as more than
    ``_SEARCH_ROWS`` others are found."""
    s = 2 * n + 2
    found = []
    # (bit j to choose, next 0-position, bits chosen, columns still allowed to differ)
    stack = [(n, 2 * n + 1, 1 << (n - 1), budget)]
    while stack:
        j, z, v, left = stack.pop()
        if j == 1:
            if len(found) > resilience._SEARCH_ROWS:  # so at least _SEARCH_ROWS + 1 besides w
                return None
            found.append(v)
            continue
        column = target[n + j - 1]
        if column == s or left:
            stack.append((j - 1, z, v | 1 << (n - j), left - (column != s)))
        if column == z or left:
            stack.append((j - 1, n + j, v, left - (column != z)))
    return found


def nearest_by_search(
    w: int, n: int, shape: WatermarkShape
) -> tuple[int, tuple[int, ...]] | None:
    """``minvm_oracle(w)`` by the suffix-column search, or None when it
    leaves more than ``_SEARCH_ROWS`` rows to build."""
    target = resilience._row(w)
    flips = {
        1, *(flip for flip, _, _ in resilience._witness_flips(shape) if flip < 1 << (n - 1))
    }
    distances = {w ^ flip: sum(map(ne, resilience._row(w ^ flip), target)) for flip in flips}
    found = survivors(target, n, min(distances.values()))
    if found is None:
        return None
    for v in found:
        if v != w and v not in distances:
            distances[v] = sum(map(ne, resilience._row(v), target))
    best = min(distances.values())
    return best, tuple(sorted(v for v, d in distances.items() if d == best))
