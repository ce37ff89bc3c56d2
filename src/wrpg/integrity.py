"""Attack application and validity classification of watermark graphs.

An attacked graph is valid exactly when it equals the codec's own graph
of the watermark it spells, so ``classify_graph`` decides validity with
one re-encode and one comparison, and agrees with the decoder.  When
the comparison fails, the named structural checks run to explain which
properties an edit destroyed.
``classify_graph`` never raises: attack analysis wants total functions
with rich reports.
"""

from dataclasses import dataclass

from .errors import FalseIncorrectGraph, NotAWatermark, UnsupportedAttack
from .rpg import ReduciblePermutationGraph, dmax_map, reconstruct_permutation
from .sip import SelfInvertingPermutation, decode_sip_to_w, encode_w_to_sip, template_failures

CHECK_NAMES = (
    "involution",
    "single_fixed_point",
    "range_odd_length",
    "block_template",
    "bitonic_pi2",
    "roundtrip",
)


@dataclass(frozen=True)
class EdgeEdit:
    """Retarget element ``source``'s back edge to ``new_target``.

    Targets are unconstrained at construction so that invalid attacks
    can be modelled; legality is judged when the edited graph is
    classified.
    """

    source: int
    new_target: int


def parse_edits(text: str) -> list[EdgeEdit]:
    """Parse the ``source:new_target`` comma list, e.g. ``3:5,7:9``."""
    text = text.strip()
    if not text:
        return []
    edits = []
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise ValueError(f"edit {chunk!r} must look like source:target")
        try:
            edits.append(EdgeEdit(int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"edit {chunk!r} must hold two integers") from exc
    return edits


def apply_edge_edits(
    g: ReduciblePermutationGraph, edits: list[EdgeEdit]
) -> ReduciblePermutationGraph:
    """Return a copy of ``g`` with the listed back edges retargeted.

    Only back edges may be edited; the forward spine and the header and
    footer are outside the modification model.  No validity judgement
    is made here.
    """
    targets = list(g.back_edges)
    for edit in edits:
        if not 1 <= edit.source <= g.n_star:
            raise UnsupportedAttack(
                f"edit source {edit.source} is not an interior node (1..{g.n_star})"
            )
        targets[edit.source - 1] = edit.new_target
    return ReduciblePermutationGraph(tuple(targets))


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of classifying one graph.

    ``checks`` maps each named check to True/False, or None when an
    earlier failure made it unevaluable.  ``watermark`` is set exactly
    when every check passed.
    """

    checks: dict[str, bool | None]
    watermark: int | None
    reasons: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return self.watermark is not None

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(name for name in CHECK_NAMES if self.checks[name] is False)


def _read_watermark(g: ReduciblePermutationGraph) -> int | None:
    """The watermark ``w'`` a codeword graph spells, or None.

    Bit ``j`` of ``w'`` is 1 exactly when element ``n+j``'s back edge
    targets the header ``s``.  None when the graph is too small or
    element ``n+1``'s edge misses ``s``, so ``w'`` would lack its
    leading bit; no codeword has either property.

    On a codeword graph this returns the codeword's watermark.  Proof:
    in a codeword the leading entries inside ``[n+1, 2n]``, which
    :func:`decode_sip_to_w` reads, form one ascending run from the
    first position: ``pi1``, then the rising half of the bitonic
    ``pi2`` up to ``2n+1`` (in the all-ones case just
    ``pi1 = n+1..2n``).  So each of them has ``dmax = s``.  Every other
    element of ``[n+1, 2n]`` (the falling half of ``pi2`` and the fixed
    point in ``pi3``) lies right of ``2n+1``, so its ``dmax`` is not
    ``s``.  Hence the elements of ``[n+1, 2n]`` whose back edge targets
    ``s`` are exactly the ones the decoder reads.
    """
    n, header = g.n, g.header
    edges = g.back_edges
    if n < 2 or edges[n] != header:
        return None
    w = 0
    for target in edges[n : 2 * n]:
        w = (w << 1) | (target == header)
    return w


def classify_graph(g: ReduciblePermutationGraph) -> ValidityReport:
    """Report Valid(w) or false-incorrect, with per-check explanations.

    The verdict is one comparison: ``g`` is ``Valid(w')`` exactly when
    its back edges equal the codec's own graph of the watermark ``w'``
    it spells (see :func:`_read_watermark`).  A graph that is not a
    codeword graph equals no codec graph, whatever ``w'`` is read.
    When the comparison fails, the named checks run only to explain
    which properties the graph lacks.  Note that
    "true-incorrect" is a relation to an original watermark: a tampered
    graph that classifies ``Valid(w')`` is true-incorrect relative to
    the watermark ``w != w'`` it was built from.
    """
    w = _read_watermark(g)
    if w is not None and g.back_edges == dmax_map(encode_w_to_sip(w)[0].elements):
        return ValidityReport(dict.fromkeys(CHECK_NAMES, True), w, ())

    checks: dict[str, bool | None] = dict.fromkeys(CHECK_NAMES)
    reasons: list[str] = []
    m = g.n_star

    odd_ok = m % 2 == 1 and m >= 5
    if not odd_ok:
        reasons.append(f"interior node count must be odd and >= 5, got {m}")
    try:
        seq = reconstruct_permutation(g)
    except FalseIncorrectGraph:
        checks["range_odd_length"] = False
        reasons.append("every back edge must target a strictly larger node")
        reasons.append("decoding skipped: the back edges do not form a forest")
        return ValidityReport(checks, None, tuple(reasons))
    checks["range_odd_length"] = odd_ok

    inv_ok = all(seq[val - 1] == pos for pos, val in enumerate(seq, 1))
    checks["involution"] = inv_ok
    if not inv_ok:
        reasons.append("permutation is not its own inverse")
    fixed = sum(1 for pos, val in enumerate(seq, 1) if pos == val)
    checks["single_fixed_point"] = fixed == 1
    if fixed != 1:
        reasons.append(f"expected exactly one fixed point, found {fixed}")

    failures = template_failures(seq)
    clauses = [clause for clause, _ in failures]
    if "pi1_start" in clauses or "not_a_permutation" in clauses:
        checks["block_template"] = False
        checks["bitonic_pi2"] = None
    else:
        checks["block_template"] = all(c == "pi2_bitonic" for c in clauses)
        checks["bitonic_pi2"] = "pi2_bitonic" not in clauses
    reasons.extend(message for _, message in failures)

    if inv_ok and fixed == 1 and odd_ok:
        checks["roundtrip"] = False
        try:
            decode_sip_to_w(SelfInvertingPermutation._trusted(seq))
        except NotAWatermark as exc:  # always, since g is no codec graph
            reasons.append(str(exc))
    else:
        reasons.append("decoding skipped: permutation checks failed")
    return ValidityReport(checks, None, tuple(reasons))
