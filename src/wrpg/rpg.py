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
ascending order left-to-right in the source permutation, the preorder
that visits children in ascending numeric order is the one-line form.
Decoding builds that preorder without a tree walk: it inserts the
elements in descending order into a linked list, each right after its
parent, and reads the list from ``s``.  The list is a permutation by
construction, so :func:`decode_rpg_to_sip` checks only that it has odd
length and is an involution with one fixed point.

A graph's targets are checked to be exact ints once, where they enter:
by the :class:`ReduciblePermutationGraph` constructor, which
:func:`~wrpg.integrity.apply_edge_edits` and :func:`encode_sip_to_rpg`
on a plain sequence use, or by :func:`graph_from_json`'s own scan of a
file.  The graph that :func:`encode_sip_to_rpg` builds from a
:class:`SelfInvertingPermutation` is not scanned, since its domination
map is exact ints by construction.  Whether the targets form a codeword
graph is judged by decoding, not at construction.

Because the spine is the only way down, a graph is reducible (every
back-edge target dominates its source) exactly when no back edge points
below its source; :func:`check_reducibility` checks that in one scan.
"""

import json
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import (
    FalseIncorrectGraph,
    GraphFormatError,
    SipInvariantError,
    SizeMismatchError,
)
from .sip import SelfInvertingPermutation, _Value, _exact_ints, _is_permutation, _require_sip

FILE_FORMAT_VERSION = 1


class ReduciblePermutationGraph(_Value):
    """Flow-graph with implicit forward spine and explicit back edges.

    ``back_edges[i - 1]`` is the node index targeted by element ``i``'s
    back edge; the value ``n* + 1`` encodes the header ``s``.  Arbitrary
    integer targets are representable so that attacked graphs remain
    first-class values; structural validity is judged by the integrity
    checks, not at construction.  An immutable value: equal and hashed
    by ``back_edges``.
    """

    __slots__ = ("back_edges",)
    __match_args__ = ("back_edges",)
    back_edges: tuple[int, ...]

    def __init__(self, back_edges: Sequence[int]):
        targets = tuple(back_edges)
        if not targets:
            raise GraphFormatError("graph must have at least one interior node")
        if not _exact_ints(targets) and any(
            isinstance(t, bool) or not isinstance(t, int) for t in targets
        ):
            raise GraphFormatError("back-edge targets must be integers")
        object.__setattr__(self, "back_edges", targets)

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


def dmax_map(perm: SelfInvertingPermutation | Sequence[int]) -> tuple[int, ...]:
    """Nearest-greater-to-the-left map of a permutation of 1..m.

    Entry ``i - 1`` holds the element that dominates ``i`` (the greater
    element with maximum position among those left of ``i``), or
    ``m + 1`` for the header when no element to the left is greater.

    Raises :class:`SipInvariantError` when ``perm`` is not a permutation
    of 1..m whose elements are all exactly ``int``; a
    :class:`SelfInvertingPermutation` is one by construction and is not
    checked again.
    """
    m = len(perm)
    if not isinstance(perm, SelfInvertingPermutation) and not _is_permutation(perm):
        raise SipInvariantError(f"not a permutation of 1..{m}")
    targets = [0] * m
    # the stack's top is held in ``top``; the header starts there and is
    # never popped, since it exceeds every element
    stack: list[int] = []
    top = m + 1
    for value in perm:
        while top < value:
            top = stack.pop()
        targets[value - 1] = top
        stack.append(top)
        top = value
    return tuple(targets)


def encode_sip_to_rpg(sip: SelfInvertingPermutation | Sequence[int]) -> ReduciblePermutationGraph:
    """Build the flow-graph of a permutation from its domination map.

    Raises :class:`SipInvariantError` when ``sip`` is not a permutation
    of 1..m (see :func:`dmax_map`).  The map of a
    :class:`SelfInvertingPermutation` is a non-empty tuple of exact ints,
    so its graph is built without the constructor's checks.
    """
    if isinstance(sip, SelfInvertingPermutation):
        return ReduciblePermutationGraph._trusted(dmax_map(sip))
    return ReduciblePermutationGraph(dmax_map(tuple(sip)))


def reconstruct_permutation(g: ReduciblePermutationGraph) -> tuple[int, ...]:
    """Invert :func:`dmax_map`: rebuild the unique permutation whose
    domination map equals the stored back edges.

    Requires every target to lie strictly above its source (otherwise
    the parent forest is ill-formed); raises
    :class:`FalseIncorrectGraph` when that fails.

    The targets form a forest rooted at the header, and the result is
    its preorder with children in ascending order.  It is built by
    inserting ``i = m, .., 1`` into a linked list, each right after its
    parent ``t``, and reading the list from the header.  Proof: every
    parent is larger than its children, so the nodes ``m, .., i`` form a
    forest under the header too.  Suppose the list holds the preorder of
    the forest on ``m, .., i + 1``.  The parent ``t`` of ``i`` is in it
    and no descendant of ``i`` is.  In the preorder of the forest on
    ``m, .., i``, ``i`` is ``t``'s smallest child, so it comes right
    after ``t``, before ``t``'s larger children and their subtrees,
    which already follow ``t``; and ``i``'s subtree is ``i`` alone.  So
    inserting ``i`` right after ``t`` gives that preorder, and after
    ``1`` the list is the preorder of the whole forest.

    When every target lies above its source, ``dmax_map`` of the result
    reproduces the back edges, so callers need not compare them.
    Proof: take element ``i`` with parent ``t > i``.  The preorder lists
    ``t`` (unless it is the header), then ``t``'s children below ``i``
    with their subtrees, then ``i``.  Children are visited in ascending
    order, so those children are smaller than ``i``, and every node in a
    subtree is smaller than its root.  So every element between ``t``
    and ``i`` is smaller than ``i``, while ``t`` is larger: the nearest
    larger element left of ``i`` is ``t``.  When ``t`` is the header,
    every element left of ``i`` lies in an earlier root subtree, so none
    is larger and ``dmax(i)`` is the header too.
    """
    m = g.n_star
    for i, t in enumerate(g.back_edges, 1):
        if not i < t <= m + 1:
            raise FalseIncorrectGraph(
                "back-edge-range",
                f"element {i} must target a node in {i + 1}..{m + 1}, got {t}",
            )
    nxt = [0] * (m + 2)  # successor in the list; 0 (the footer) ends it
    for i, t in zip(range(m, 0, -1), reversed(g.back_edges)):
        nxt[i] = nxt[t]
        nxt[t] = i
    out: list[int] = []
    node = nxt[m + 1]
    while node:
        out.append(node)
        node = nxt[node]
    return tuple(out)


def decode_rpg_to_sip(g: ReduciblePermutationGraph) -> SelfInvertingPermutation:
    """Extract the self-inverting permutation encoded by ``g``.

    Raises :class:`FalseIncorrectGraph` carrying the first failed check
    when ``g`` is not the graph of a valid permutation codeword.  The
    rebuilt candidate is a permutation of ``1..n*`` by construction, so
    only the odd-length, involution and fixed-point checks run on it.
    """
    candidate = reconstruct_permutation(g)
    try:
        _require_sip(candidate, permutation=True)
    except SipInvariantError as exc:
        raise FalseIncorrectGraph("sip-property", str(exc)) from exc
    return SelfInvertingPermutation._trusted(candidate)


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


class ReducibilityReport(NamedTuple):
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
    downward = None
    for i, t in enumerate(g.back_edges, 1):
        if not 0 <= t <= header:
            return ReducibilityReport(False, (i, t), f"target {t} is not a node")
        if t < i and downward is None:
            downward = i, t
    if downward is not None:
        i, t = downward
        return ReducibilityReport(False, downward, f"node {t} does not dominate node {i}")
    return ReducibilityReport(True, None, "every back edge targets a dominator")


# ---------------------------------------------------------------------------
# Persistence: canonical JSON graph files and DOT export.
# ---------------------------------------------------------------------------

def graph_to_json(g: ReduciblePermutationGraph) -> str:
    """Canonical, byte-stable JSON form of a graph."""
    if g.n_star % 2 == 0:
        raise GraphFormatError("only odd-sized graphs are serializable")
    if g.n_star < 5:  # bit-length (n* - 1) / 2 >= 2, as graph_from_json requires
        raise GraphFormatError(
            f"only graphs with at least 5 interior nodes are serializable, got {g.n_star}"
        )
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
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer past Python's digit limit, or
        # nesting deeper than the interpreter's recursion limit
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
    if not _exact_ints(edges):  # json.loads makes no int subclass but bool
        raise GraphFormatError("back_edges entries must be integers")
    return ReduciblePermutationGraph._trusted(tuple(edges))  # nstar >= 5 and scanned


def save_graph(g: ReduciblePermutationGraph, path: str | Path) -> None:
    text = graph_to_json(g)  # a graph the reader rejects is refused before the file opens
    with open(path, "w", encoding="ascii") as file:
        file.write(text)


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
