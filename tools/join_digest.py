"""Print the oracle join's work and a digest of its result per bit-length.

For each ``n`` in ``N_MIN..N_MAX`` this builds the ``n``-bit table, times
``resilience._minima_by_row(n)`` alone and prints one line::

    n pairs_verified full_scans seconds sha256 peak_bytes

The sha256 covers the dtype and the bytes of ``minvm``, ``offsets`` and
``nearest``, in that order, so two trees whose lines agree on it return
the same join result.  ``peak_bytes`` is the tracemalloc peak of a
second join, run after the timed one so that the seconds are not
traced; the table, built before either, is not in it.  Each join is
first checked against the memory budget the sweeps use
(``_require_fits(n, _join_bytes)``).  The package is imported from the
``src`` directory next to this script, so a copy of the script in
another checkout measures that checkout.

Usage: ``python tools/join_digest.py [N_MIN] [N_MAX]``, defaults 2 and 16.
"""

import hashlib
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wrpg import resilience  # noqa: E402


def digest(minima: resilience._LengthMinima) -> str:
    """sha256 over the dtype and bytes of each result array."""
    sha = hashlib.sha256()
    for array in (minima.minvm, minima.offsets, minima.nearest):
        sha.update(array.dtype.str.encode("ascii"))
        sha.update(array.tobytes())
    return sha.hexdigest()


def main(argv: list[str]) -> int:
    n_min = int(argv[0]) if argv else 2
    n_max = int(argv[1]) if len(argv) > 1 else 16
    for n in range(n_min, n_max + 1):
        resilience._require_fits(n, resilience._join_bytes)
        resilience._encoded_range(n)  # built outside the timed join
        start = time.perf_counter()
        minima = resilience._minima_by_row(n)
        seconds = time.perf_counter() - start
        tracemalloc.start()
        minima = resilience._minima_by_row(n)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(
            f"{n} {minima.pairs_verified} {minima.full_scans} {seconds:.3f} {digest(minima)}"
            f" {peak}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
