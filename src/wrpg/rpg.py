"""Codec between permutations and reducible permutation flow-graphs.

A graph stores one node per permutation element (node ``u_i`` for
element ``i``, 1..n*) plus a header ``s`` (index ``n*+1``) and a footer
``t`` (index 0).  The forward spine ``u_i -> u_{i-1}`` (with
``s -> u_{n*}`` and ``u_1 -> t``) is implicit; only the per-element
back-edge targets are stored.

The back edge of element ``i`` points at ``dmax(i)``: the nearest
element greater than ``i`` to the left of ``i``'s position in the
permutation, or ``s`` when no such element exists.  Decoding inverts
that map: the targets form a forest rooted at ``s`` (every parent is a
larger element), and because the children of any parent occur in
ascending order left-to-right in the source permutation, a preorder
walk that visits children in ascending numeric order rebuilds the
one-line form exactly.

Because the spine is the only way down, a graph is reducible (every
back-edge target dominates its source) exactly when no back edge points
below its source; :func:`check_reducibility` checks that in one scan.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import (
    FalseIncorrectGraph,
    GraphFormatError,
    SipInvariantError,
    SizeMismatchError,
)
from .sip import SelfInvertingPermutation

FOOTER = 0
FILE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ReduciblePermutationGraph:
    """Flow-graph with implicit forward spine and explicit back edges.

    ``back_edges[i - 1]`` is the node index targeted by element ``i``'s
    back edge; the value ``n* + 1`` encodes the header ``s``.  Arbitrary
    integer targets are representable so that attacked graphs remain
    first-class values; structural validity is judged by the integrity
    checks, not at construction.
    """

    back_edges: tuple[int, ...]

    def __post_init__(self):
        targets = tuple(self.back_edges)
        object.__setattr__(self, "back_edges", targets)
        if not targets:
            raise GraphFormatError("graph must have at least one interior node")
        if any(isinstance(t, bool) or not isinstance(t, int) for t in targets):
            raise GraphFormatError("back-edge targets must be integers")

    @property
    def n_star(self) -> int:
        return len(self.back_edges)

    @property
    def header(self) -> int:
        return len(self.back_edges) + 1

    @property
    def n(self) -> int:
        """Bit-length of the watermark a well-formed graph encodes."""
        return (len(self.back_edges) - 1) // 2

    def target_of(self, element: int) -> int:
        return self.back_edges[element - 1]

    def node_count(self) -> int:
        return self.n_star + 2

    def forward_edge_count(self) -> int:
        return self.n_star + 1

    def back_edge_count(self) -> int:
        return self.n_star


def dmax_map(perm: Sequence[int]) -> tuple[int, ...]:
    """Nearest-greater-to-the-left map of a permutation of 1..m.

    Entry ``i - 1`` holds the element that dominates ``i`` (the greater
    element with maximum position among those left of ``i``), or
    ``m + 1`` for the header when no element to the left is greater.
    """
    m = len(perm)
    header = m + 1
    targets = [header] * m
    stack: list[int] = []
    for value in perm:
        while stack and stack[-1] < value:
            stack.pop()
        targets[value - 1] = stack[-1] if stack else header
        stack.append(value)
    return tuple(targets)


def encode_sip_to_rpg(sip: SelfInvertingPermutation | Sequence[int]) -> ReduciblePermutationGraph:
    """Build the flow-graph of a permutation from its domination map."""
    return ReduciblePermutationGraph(dmax_map(tuple(sip)))


def reconstruct_permutation(g: ReduciblePermutationGraph) -> tuple[int, ...]:
    """Invert :func:`dmax_map`: rebuild the unique permutation whose
    domination map equals the stored back edges.

    Requires every target to lie strictly above its source (otherwise
    the parent forest is ill-formed); raises
    :class:`FalseIncorrectGraph` when that fails.
    """
    m = g.n_star
    for i, t in enumerate(g.back_edges, 1):
        if not i < t <= m + 1:
            raise FalseIncorrectGraph(
                "back-edge-range",
                f"element {i} must target a node in {i + 1}..{m + 1}, got {t}",
            )
    children: list[list[int]] = [[] for _ in range(m + 2)]
    for i, t in enumerate(g.back_edges, 1):
        children[t].append(i)  # ascending, since i is
    out: list[int] = []
    stack = [m + 1]
    while stack:
        node = stack.pop()
        if node <= m:
            out.append(node)
        stack.extend(reversed(children[node]))
    return tuple(out)


def decode_rpg_to_sip(g: ReduciblePermutationGraph) -> SelfInvertingPermutation:
    """Extract the self-inverting permutation encoded by ``g``.

    Raises :class:`FalseIncorrectGraph` carrying the first failed check
    when ``g`` is not the graph of a valid permutation codeword.
    """
    candidate = reconstruct_permutation(g)
    if dmax_map(candidate) != g.back_edges:
        raise FalseIncorrectGraph("dmax-roundtrip", "back edges do not describe any permutation")
    try:
        return SelfInvertingPermutation(candidate)
    except SipInvariantError as exc:
        raise FalseIncorrectGraph("sip-property", str(exc)) from exc


def graph_distance(g1: ReduciblePermutationGraph, g2: ReduciblePermutationGraph) -> int:
    """Number of back-edge retargetings transforming ``g1`` into ``g2``.

    Both graphs must have the same interior node count; forward spines
    are identical by construction, so only back edges are compared.
    """
    if g1.n_star != g2.n_star:
        raise SizeMismatchError(
            f"cannot compare graphs with {g1.n_star} and {g2.n_star} interior nodes"
        )
    return sum(a != b for a, b in zip(g1.back_edges, g2.back_edges))


@dataclass(frozen=True)
class ReducibilityReport:
    passed: bool
    offending_edge: tuple[int, int] | None
    detail: str


def check_reducibility(g: ReduciblePermutationGraph) -> ReducibilityReport:
    """Verify that every back-edge target dominates its source.

    The forward spine is the only edge that leads down, so the rule is
    linear: the graph is reducible exactly when every target is a node
    and no back edge points below its source.  With no downward edge,
    every path from the header to ``u_i`` walks the spine through all of
    ``s, u_{n*}, .., u_i``, so each of them dominates ``u_i``; a target
    ``t < i`` never dominates ``i``, because the spine reaches ``i``
    without passing ``t``.  The report names the first target that is
    not a node, or else the first downward edge (lowest source).
    """
    header = g.n_star + 1
    for i, t in enumerate(g.back_edges, 1):
        if not 0 <= t <= header:
            return ReducibilityReport(False, (i, t), f"target {t} is not a node")
    for i, t in enumerate(g.back_edges, 1):
        if t < i:
            return ReducibilityReport(False, (i, t), f"node {t} does not dominate node {i}")
    return ReducibilityReport(True, None, "every back edge targets a dominator")


# ---------------------------------------------------------------------------
# Persistence: canonical JSON graph files and DOT export.
# ---------------------------------------------------------------------------

def graph_to_json(g: ReduciblePermutationGraph) -> str:
    """Canonical, byte-stable JSON form of a graph."""
    if g.n_star % 2 == 0:
        raise GraphFormatError("only odd-sized graphs are serializable")
    payload = {
        "version": FILE_FORMAT_VERSION,
        "n": g.n,
        "nstar": g.n_star,
        "back_edges": list(g.back_edges),
    }
    return json.dumps(payload) + "\n"


def graph_from_json(text: str) -> ReduciblePermutationGraph:
    """Parse a canonical graph file payload, rejecting malformed input."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GraphFormatError("top-level value must be an object")

    def _int_field(name: str) -> int:
        value = payload.get(name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise GraphFormatError(f"field {name!r} must be an integer")
        return value

    version = _int_field("version")
    if version != FILE_FORMAT_VERSION:
        raise GraphFormatError(f"unsupported format version {version}")
    n = _int_field("n")
    nstar = _int_field("nstar")
    if n < 2:
        raise GraphFormatError(f"bit-length must be >= 2, got {n}")
    if nstar != 2 * n + 1:
        raise GraphFormatError(f"nstar must equal 2n+1 = {2 * n + 1}, got {nstar}")
    edges = payload.get("back_edges")
    if not isinstance(edges, list) or len(edges) != nstar:
        raise GraphFormatError(f"back_edges must be a list of {nstar} integers")
    if any(isinstance(t, bool) or not isinstance(t, int) for t in edges):
        raise GraphFormatError("back_edges entries must be integers")
    return ReduciblePermutationGraph(tuple(edges))


def save_graph(g: ReduciblePermutationGraph, path: str | Path) -> None:
    Path(path).write_text(graph_to_json(g), encoding="ascii")


def load_graph(path: str | Path) -> ReduciblePermutationGraph:
    try:
        text = Path(path).read_text(encoding="ascii")
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path} is not a text file: {exc}") from exc
    return graph_from_json(text)


def _node_name(index: int, n_star: int) -> str:
    if index == 0:
        return "t"
    if index == n_star + 1:
        return "s"
    return f"u{index}"


def graph_to_dot(g: ReduciblePermutationGraph) -> str:
    """DOT rendering: forward spine solid, back edges dashed."""
    m = g.n_star
    for i, t in enumerate(g.back_edges, 1):
        if not 0 <= t <= m + 1:
            raise GraphFormatError(f"back-edge target {t} of element {i} is not a node")
    lines = ["digraph wrpg {", "  rankdir=TB;"]
    for index in [m + 1, *range(m, 0, -1), 0]:
        shape = "box" if index in (0, m + 1) else "circle"
        lines.append(f"  {_node_name(index, m)} [shape={shape}];")
    for i in range(m + 1, 0, -1):
        lines.append(f"  {_node_name(i, m)} -> {_node_name(i - 1, m)};")
    for i, t in enumerate(g.back_edges, 1):
        lines.append(f"  {_node_name(i, m)} -> {_node_name(t, m)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
