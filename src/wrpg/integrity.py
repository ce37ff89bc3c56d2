"""Attack application and validity classification of watermark graphs.

An attacked graph is valid exactly when it decodes: the permutation
rebuilt from its back edges decodes to a watermark, whose re-encoding
gives that permutation back.  So ``classify_graph`` takes its verdict
from the decoder, on the one path from graph to watermark.  When
decoding fails, the named structural checks run on the permutation
already rebuilt to explain which properties an edit destroyed.
``classify_graph`` never raises: attack analysis wants total functions
with rich reports.
"""

from typing import NamedTuple

from .errors import FalseIncorrectGraph, NotAWatermark, UnsupportedAttack
from .rpg import ReduciblePermutationGraph, reconstruct_permutation
from .sip import _decode, template_failures

CHECK_NAMES = (
    "involution",
    "single_fixed_point",
    "range_odd_length",
    "block_template",
    "bitonic_pi2",
    "roundtrip",
)


class EdgeEdit(NamedTuple):
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

    Each edit is a ``(source, new_target)`` pair: an :class:`EdgeEdit`
    or any 2-tuple.  Only back edges may be edited; the forward spine
    and the header and footer are outside the modification model.  No
    validity judgement is made here.
    """
    targets = list(g.back_edges)
    for edit in edits:
        try:
            source, new_target = edit
        except (TypeError, ValueError) as exc:
            raise UnsupportedAttack(f"edit {edit!r} is not a (source, new_target) pair") from exc
        if isinstance(source, bool) or not isinstance(source, int) or not 1 <= source <= g.n_star:
            raise UnsupportedAttack(
                f"edit source {source!r} is not an interior node (1..{g.n_star})"
            )
        targets[source - 1] = new_target
    return ReduciblePermutationGraph(tuple(targets))


class ValidityReport(NamedTuple):
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


def classify_graph(g: ReduciblePermutationGraph) -> ValidityReport:
    """Report Valid(w) or false-incorrect, with per-check explanations.

    The verdict is the decoder's: rebuild the permutation from the back
    edges and decode it.  ``g`` is ``Valid(w')`` exactly when that
    decodes to ``w'``.  When every back edge points up, ``dmax_map`` of
    the rebuilt permutation is ``g``'s back edges (see
    :func:`reconstruct_permutation`), so ``g`` is a codec graph exactly
    when the rebuilt permutation is a codeword, and the decoder's
    re-encode accepts exactly the codewords.  When decoding fails, the
    named checks run on the same permutation to explain which properties
    the graph lacks, and the decoder's message is the ``roundtrip``
    reason.  Note that "true-incorrect" is a relation to an original
    watermark: a tampered graph that classifies ``Valid(w')`` is
    true-incorrect relative to the watermark ``w != w'`` it was built
    from.
    """
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
    try:
        w = _decode(seq)
    except NotAWatermark as exc:
        roundtrip_failure = str(exc)
    else:
        return ValidityReport(dict.fromkeys(CHECK_NAMES, True), w, ())
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
        reasons.append(roundtrip_failure)
    else:
        reasons.append("decoding skipped: permutation checks failed")
    return ValidityReport(checks, None, tuple(reasons))
