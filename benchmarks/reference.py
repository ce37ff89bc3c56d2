"""Independent reference for the benchmark's correctness checks.

Nothing here imports wrpg: the encoder below is written from the paper
(``B' = 0^n || bits || 0`` -> bitonic ``pi_b`` -> pairing opposite ends,
then a nearest-greater-to-the-left stack for the back edges), so a
defect in wrpg's codec cannot hide by agreeing with itself.

Every check returns ``(check_name, ok, detail)`` triples for one
output; :class:`Ledger` tallies them into per-check counts and failed
outputs.
"""

from collections import Counter
from functools import lru_cache

import numpy as np


def encode(w: int) -> tuple[list[int], list[int]]:
    """Permutation and back-edge targets of watermark ``w``."""
    n = w.bit_length()
    m = 2 * n + 1
    b_prime = "0" * n + format(w, "b") + "0"
    xs = [pos for pos, bit in enumerate(b_prime, 1) if bit == "0"]
    ys = [pos for pos, bit in enumerate(b_prime, 1) if bit == "1"]
    pi_b = xs + ys[::-1]
    perm = [0] * m
    for i in range(n + 1):  # i == n pairs the middle entry with itself
        a, b = pi_b[i], pi_b[m - 1 - i]
        perm[a - 1], perm[b - 1] = b, a
    targets = [m + 1] * m
    stack: list[int] = []
    for value in perm:
        while stack and stack[-1] < value:
            stack.pop()
        if stack:
            targets[value - 1] = stack[-1]
        stack.append(value)
    return perm, targets


def apply_edits(targets: list[int], edits) -> list[int]:
    out = list(targets)
    for source, target in edits:
        out[source - 1] = target
    return out


def reducible(targets: list[int]) -> bool:
    """On the descending spine, every back edge must point up (or at itself)."""
    header = len(targets) + 1
    return all(i <= t <= header for i, t in enumerate(targets, 1))


@lru_cache(maxsize=None)
def table(n: int) -> np.ndarray:
    """Back-edge rows of every ``n``-bit watermark, ascending by ``w``."""
    rows = [encode(w)[1] for w in range(1 << (n - 1), 1 << n)]
    return np.array(rows, dtype=np.uint8 if 2 * n + 2 < 256 else np.int32)


def distances_from(n: int, w: int) -> np.ndarray:
    rows = table(n)
    return (rows != rows[w - (1 << (n - 1))]).sum(axis=1)


def nearest_of(w: int) -> tuple[int, list[int]]:
    """Brute-force ``minVM(w)`` and its ascending minimizers."""
    n = w.bit_length()
    d = distances_from(n, w)
    d[w - (1 << (n - 1))] = d.max() + 1
    best = int(d.min())
    return best, [int(i) + (1 << (n - 1)) for i in np.flatnonzero(d == best)]


@lru_cache(maxsize=None)
def sweep(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force ``minVM`` and nearest-set size of every ``n``-bit
    watermark: all pairwise distances, one block of rows at a time."""
    cols = np.ascontiguousarray(table(n).T)
    width, count = cols.shape
    best = np.empty(count, dtype=np.int64)
    nearest = np.empty(count, dtype=np.int64)
    block = 512
    differs = np.empty((block, count), dtype=bool)
    for start in range(0, count, block):
        size = min(block, count - start)
        dist = np.zeros((size, count), dtype=np.uint8)
        for c in range(width):
            np.not_equal(cols[c, start : start + size, None], cols[c, None, :], out=differs[:size])
            dist += differs[:size].view(np.uint8)
        dist[np.arange(size), start + np.arange(size)] = 255
        low = dist.min(axis=1)
        best[start : start + size] = low
        nearest[start : start + size] = (dist == low[:, None]).sum(axis=1)
    return best, nearest


def max_minvm(n: int) -> int:
    """The paper's per-length maximum of ``minVM``."""
    return 4 + (n - 3) // 2


class Ledger:
    """Tally of reference checks: how often each ran, which outputs failed."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def record(self, checks) -> bool:
        """Record the checks of one output; return whether all passed."""
        self.attempted += 1
        ok_all = True
        for name, ok, detail in checks:
            self.counts[name] += 1
            if not ok:
                ok_all = False
                self.failures.append(f"{name}: {detail}")
        self.failed += not ok_all
        return ok_all


# ---------------------------------------------------------------------------
# graph-audit
# ---------------------------------------------------------------------------

def check_graph(item: dict, result: list) -> list[tuple[str, bool, str]]:
    """``result`` is ``[valid_w_or_None, reducible, decoded_w_or_None]``."""
    w, kind, edits = item["w"], item["kind"], item["edits"]
    watermark, passed, decoded = result
    original = encode(w)[1]
    attacked = apply_edits(original, edits)
    out = [("reducibility_rule", passed == reducible(attacked),
            f"w={w} kind={kind} check_reducibility={passed}")]
    if kind == "rewrite":
        ok = watermark == decoded == w ^ 1
        out.append(("rewrite_valid_w1", ok, f"w={w} got {watermark}/{decoded}, want {w ^ 1}"))
    elif attacked == original:
        ok = watermark == decoded == w
        out.append(("clean_decodes", ok, f"w={w} kind={kind} got {watermark}/{decoded}"))
    else:
        ok = watermark is None and decoded is None
        out.append(("edit_false_incorrect", ok, f"w={w} kind={kind} got {watermark}"))
    return out


def check_repeat(item: dict, result: list, first: list) -> list[tuple[str, bool, str]]:
    """A later pass over the same graph must give the result of the first,
    which :func:`check_graph` checked."""
    return [("pass_repeats", result == first,
             f"w={item['w']} kind={item['kind']} got {result}, first pass {first}")]


# ---------------------------------------------------------------------------
# theorem-sweep
# ---------------------------------------------------------------------------

def check_sweep_row(n: int, w: int, closed: int, oracle: int, nearest: int, agree: bool):
    best, count = sweep(n)
    idx = w - (1 << (n - 1))
    ok = oracle == closed == best[idx] and nearest == count[idx] and agree
    return [("sweep_rows", bool(ok),
             f"w={w}: closed={closed} oracle={oracle} nearest={nearest} agree={agree}, "
             f"want minVM={best[idx]} nearest={count[idx]}")]


def check_sweep(rows, n_min: int, n_max: int, exit_code: int, verdict: str, ledger: Ledger,
                summary_max: dict[int, int] | None = None) -> None:
    """Check a whole sweep: one ledger output per row, plus one for the verdict.

    ``rows`` holds ``(n, w, closed, oracle, nearest_count, agree)`` tuples;
    ``summary_max`` is the per-length maximum the program printed, if any.
    """
    expected_ws = [w for n in range(n_min, n_max + 1) for w in range(1 << (n - 1), 1 << n)]
    got_ws = [row[1] for row in rows]
    row_max: dict[int, int] = {}
    if got_ws == expected_ws:
        for row in rows:
            ledger.record(check_sweep_row(*row))
            row_max[row[0]] = max(row_max.get(row[0], 0), row[3])
    total = len(expected_ws)
    checks = [
        ("sweep_rows", got_ws == expected_ws, f"{len(got_ws)} rows, want {total} in order"),
        ("sweep_verdict", exit_code == 0 and verdict == f"verified {total} watermarks: OK",
         f"exit {exit_code}, verdict {verdict!r}"),
    ]
    for n in range(n_min, n_max + 1):
        want = max_minvm(n)
        printed = want if summary_max is None else summary_max.get(n)
        checks.append(("sweep_max_minvm", printed == row_max.get(n) == want,
                       f"n={n}: printed {printed} rows {row_max.get(n)} want {want}"))
    ledger.record(checks)


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

def expected_session(w: int, edits) -> list[tuple[int, str]]:
    """Expected ``(exit_code, stdout_test)`` of each session command.

    A stdout test is an exact string; ``...`` at either end stands for
    any text there.
    """
    perm, original = encode(w)
    attacked = apply_edits(original, edits)
    distance = sum(a != b for a, b in zip(original, attacked))
    best, nearest = nearest_of(w)
    if distance:
        after = [(2, "FALSE-INCORRECT failed=..."), (2, "...\nverdict: FALSE-INCORRECT\n...")]
    else:
        after = [(0, f"VALID w={w}\n"), (0, f"...\nverdict: VALID w={w}\n")]
    return [
        (0, " ".join(map(str, perm)) + "\n"),
        (0, f"VALID w={w}\n"),
        (0, f"distance {distance}\n"),
        after[0],
        after[1],
        (0, f"...\nminvm_closed={best}\nminvm_oracle={best}\nagreement=true\n"
            f"nearest={','.join(map(str, nearest))}\nnearest_count={len(nearest)}\n..."),
    ]


def stdout_matches(test: str, out: str) -> bool:
    if test.startswith("...") and test.endswith("..."):
        return test[3:-3] in out
    if test.startswith("..."):
        return out.endswith(test[3:])
    if test.endswith("..."):
        return out.startswith(test[:-3])
    return out == test


def check_command(command: str, expected: tuple[int, str], exit_code: int, out: str):
    want_code, test = expected
    ok = exit_code == want_code and stdout_matches(test, out)
    return [("cli_outputs", ok, f"{command}: exit {exit_code} stdout {out[:120]!r}, want "
             f"exit {want_code} stdout {test[:120]!r}")]
