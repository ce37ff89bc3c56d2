"""Reference distances between table rows for the differential tests.

``_scan_rows`` is the table scan as it ran before it scanned one row at
a time: it measured a group of rows at once, ``width // 4`` of them,
each column's comparison added into a 2-D ``uint8`` distance.
``_join_distances`` and ``_pair_distances`` are the join's and the
witness check's distances as they were before one kernel served both:
each compared whole blocks of the table at once and summed the bools
over the columns.
"""


def _scan_rows(cols: "np.ndarray", idx: "np.ndarray") -> list[tuple[int, "np.ndarray"]]:
    """For each row of ``idx``, in order, its minimum distance to every
    other row of the table ``cols``, stored by column, with the
    ascending indices of the rows that attain it.  The rows are scanned
    a group at a time: each column's comparison with the group's values
    is added into one ``uint8`` distance per row and table row, so the
    distances and one comparison take at most half a table."""
    import numpy as np

    width, count = cols.shape
    group = max(1, width // 4)
    found = []
    for start in range(0, len(idx), group):
        rows = np.asarray(idx[start : start + group])
        dist = np.zeros((len(rows), count), dtype=np.uint8)
        for column in cols:
            dist += column != column[rows, None]
        dist[np.arange(len(rows)), rows] = np.iinfo(dist.dtype).max  # never the row itself
        for row_dist, best in zip(dist, dist.min(axis=1).tolist()):
            found.append((best, np.flatnonzero(row_dist == best)))
    return found


def _join_distances(cols: "np.ndarray", j: int) -> "np.ndarray":
    """Bit ``j``'s distances in the single-flip join: one per row whose
    bit ``j`` is 0 and its flip, in the join's ``(-1, 2^j)`` layout."""
    import numpy as np

    width = cols.shape[0]
    pairs = cols.reshape(width, -1, 2, 1 << j)
    return (pairs[:, :, 0] != pairs[:, :, 1]).sum(axis=0, dtype=np.uint8)


def _pair_distances(cols: "np.ndarray", a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    """The distance between rows ``a[i]`` and ``b[i]`` of the table
    ``cols``, stored by column, for each ``i``: two gathers of the
    columns, compared."""
    import numpy as np

    return (cols.take(a, axis=1) != cols.take(b, axis=1)).sum(axis=0, dtype=np.uint8)
