"""Seeded, stratified workload inputs.

The count in every stratum is fixed, so a new seed changes which bits
and edit positions are used but never the amount of work.  Round ``r``
of a run draws from ``Random(f"{workload}/{seed}/{r}")``, so a seed
gives byte-identical inputs for every round.
"""

import random

from reference import encode

# theorem-sweep: one verify-theorem process over every watermark of these lengths.
SWEEP_BITS = (4, 14)

# graph-audit: graphs per attack kind in the list a run audits, by
# bit-length.  Counts inversely proportional to the length (64 : 8 : 1)
# give each length about a third of the time: the small graphs set the
# median latency, the n=512 and n=4096 graphs the tail.  Twice the
# smallest such list halves how much a seed moves the work of the
# downward edits at n=512.
GRAPH_COUNTS = {64: 128, 512: 16, 4096: 2}
ATTACK_KINDS = ("clean", "one-edit", "two-edit", "rewrite")
EDITS_PER_GRAPH = {"one-edit": 1, "two-edit": 2}
# Above this bit-length edits point only up the spine (or at the header).
# A downward edit makes check_reducibility's dataflow run up to ~n passes:
# one graph took 0.1-11 s at n=4096 against ~110 ms at most at n=512,
# far too long and too seed-dependent for one run.  The slow path is measured
# at n=64 and n=512.
DOWNWARD_EDITS_MAX_BITS = 512

# cli-session: one watermark per bit-length in one round, each taken
# through the same six commands.
CLI_BITS = tuple(range(8, 15))
CLI_COMMANDS = ("encode", "decode", "attack", "decode", "classify", "analyze")


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def _watermark(rng: random.Random, n: int) -> int:
    return rng.getrandbits(n - 1) | (1 << (n - 1))


def _random_edits(rng: random.Random, n: int, count: int) -> list[list[int]]:
    """Sources among the interior nodes; targets among all nodes 0..n*+1,
    so some point down or off the spine."""
    m = 2 * n + 1
    edits = []
    for _ in range(count):
        source = rng.randint(1, m)
        edits.append([source, rng.randint(0, m + 1)])
    return edits


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal bins of [0, 1), in bin order."""
    return [(k + rng.random()) / count for k in range(count)]


def _paired(count: int) -> list[int]:
    """A fixed permutation of ``range(count)`` that mixes low and high ranks
    (the order of ``k * golden ratio mod 1``)."""
    return sorted(range(count), key=lambda k: (k * 0.6180339887498949) % 1)


def _stratified_edits(rng: random.Random, n: int, graphs: int,
                      per_graph: int) -> list[list[list[int]]]:
    """``per_graph`` edits for each of ``graphs`` graphs of ``n`` bits.

    Up to ``DOWNWARD_EDITS_MAX_BITS`` half of the edits point below
    their source, the others at or above it; larger graphs get only
    upward edits.  A downward edit's cost in ``check_reducibility``
    grows with its source and depends on how far it drops, so both are
    stratified: source bin ``k`` always meets the same drop bin, and the
    seed moves each edit only within its bins.  Upward edits stratify
    their source alone.  Edits are dealt round-robin, so a two-edit
    graph gets one downward and one upward edit.
    """
    m = 2 * n + 1
    total = graphs * per_graph
    down = total // 2 if n <= DOWNWARD_EDITS_MAX_BITS else 0
    sources, drops = _strata(rng, down), _strata(rng, down)
    downs = [[1 + int(s * m), 0] for s in sources]
    for edit, k in zip(downs, _paired(down)):
        edit[1] = int(drops[k] * edit[0])
    ups = []
    for s in _strata(rng, total - down):
        source = 1 + int(s * m)
        ups.append([source, source + int(rng.random() * (m + 2 - source))])
    rng.shuffle(downs)
    rng.shuffle(ups)
    dealt = [[] for _ in range(graphs)]
    for k, edit in enumerate(downs + ups):
        dealt[k % graphs].append(edit)
    for edits in dealt:
        rng.shuffle(edits)
    return dealt


def rewrite_edits(w: int) -> list[list[int]]:
    """Exactly the retargetings that turn the graph of ``w`` into that of ``w ^ 1``."""
    before, after = encode(w)[1], encode(w ^ 1)[1]
    return [[i, t] for i, (s, t) in enumerate(zip(before, after), 1) if s != t]


def graph_audit(seed: int, round_index: int) -> list[dict]:
    rng = _rng("graph-audit", seed, round_index)
    items = []
    for n, count in GRAPH_COUNTS.items():
        for kind in ATTACK_KINDS:
            per_graph = EDITS_PER_GRAPH.get(kind, 0)
            edit_lists = _stratified_edits(rng, n, count, per_graph) if per_graph else None
            for k in range(count):
                w = _watermark(rng, n)
                if kind == "rewrite":
                    edits = rewrite_edits(w)
                else:
                    edits = edit_lists[k] if edit_lists else []
                items.append({"n": n, "kind": kind, "w": w, "edits": edits})
    rng.shuffle(items)
    return items


def cli_session(seed: int, round_index: int) -> list[dict]:
    rng = _rng("cli-session", seed, round_index)
    return [{"n": n, "w": _watermark(rng, n), "edits": _random_edits(rng, n, 2)}
            for n in CLI_BITS]


def strata(workload: str, items: list[dict]) -> dict[str, int]:
    """Item count per stratum: (bit-length, attack kind) or bit-length."""
    counts: dict[str, int] = {}
    for item in items:
        key = f"n{item['n']}" + (f"/{item['kind']}" if workload == "graph-audit" else "")
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))
