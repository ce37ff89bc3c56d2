"""Reference dominator solver for reducibility tests.

A general iterative dataflow over bitmask sets, independent of the spine
argument that ``check_reducibility`` relies on.  It returns every back
edge that fails, so a test can accept any one of them as the reported
edge.
"""


def flagged_edges(back_edges: tuple[int, ...]) -> set[tuple[int, int]]:
    """Back edges ``(i, t)`` whose target is not a node or does not
    dominate its source; empty exactly when the graph is reducible.

    Out-of-range targets are reported on their own, since the dominator
    sets are undefined while an edge leaves the graph.
    """
    m = len(back_edges)
    header = m + 1
    outside = {(i, t) for i, t in enumerate(back_edges, 1) if not 0 <= t <= header}
    if outside:
        return outside
    preds: list[list[int]] = [[] for _ in range(m + 2)]
    for i in range(1, header + 1):
        preds[i - 1].append(i)  # spine u_i -> u_{i-1}
    for i, t in enumerate(back_edges, 1):
        preds[t].append(i)
    full = (1 << (m + 2)) - 1
    dom = [full] * (m + 2)
    dom[header] = 1 << header
    changed = True
    while changed:
        changed = False
        for v in range(m, -1, -1):
            acc = full
            for p in preds[v]:
                acc &= dom[p]
            acc |= 1 << v
            if acc != dom[v]:
                dom[v] = acc
                changed = True
    return {(i, t) for i, t in enumerate(back_edges, 1) if not (dom[i] >> t) & 1}
