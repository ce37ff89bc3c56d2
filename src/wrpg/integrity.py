"""Attack application and validity classification of watermark graphs.

An attacked graph is valid exactly when the decode pipeline succeeds on
it (decoding re-encodes and compares), so ``classify_graph`` and the
decoder cannot disagree.  When decoding fails, the named structural
checks run to explain which properties an edit destroyed.
``classify_graph`` never raises: attack analysis wants total functions
with rich reports.
"""

from dataclasses import dataclass

from .errors import FalseIncorrectGraph, NotAWatermark, SipInvariantError, UnsupportedAttack
from .rpg import ReduciblePermutationGraph, reconstruct_permutation
from .sip import SelfInvertingPermutation, decode_sip_to_w, template_failures

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


def classify_graph(g: ReduciblePermutationGraph) -> ValidityReport:
    """Report Valid(w) or false-incorrect, with per-check explanations.

    The verdict is the decode pipeline itself: rebuild the permutation
    from the back edges (whose domination map then reproduces them, see
    :func:`reconstruct_permutation`) and decode it to a watermark (which
    re-encodes and compares).  When that succeeds every check passes.
    Otherwise the named checks run only to explain which properties the
    graph lacks.  Note that
    "true-incorrect" is a relation to an original watermark: a tampered
    graph that classifies ``Valid(w')`` is true-incorrect relative to
    the watermark ``w != w'`` it was built from.
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
    checks["range_odd_length"] = odd_ok
    try:
        w = decode_sip_to_w(SelfInvertingPermutation(seq))
    except (SipInvariantError, NotAWatermark) as exc:
        decode_error = str(exc)
    else:
        return ValidityReport(dict.fromkeys(CHECK_NAMES, True), w, ())

    inv_ok = all(seq[val - 1] == pos for pos, val in enumerate(seq, 1))
    checks["involution"] = inv_ok
    if not inv_ok:
        reasons.append("permutation is not its own inverse")
    fixed = sum(1 for pos, val in enumerate(seq, 1) if pos == val)
    checks["single_fixed_point"] = fixed == 1
    if fixed != 1:
        reasons.append(f"expected exactly one fixed point, found {fixed}")

    _, failures = template_failures(seq)
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
        reasons.append(decode_error)
    else:
        reasons.append("decoding skipped: permutation checks failed")
    return ValidityReport(checks, None, tuple(reasons))


def swap_conjugate(
    sip: SelfInvertingPermutation, x: int, y: int
) -> SelfInvertingPermutation:
    """Relabel ``x`` and ``y`` in every cycle of ``sip``.

    This is conjugation by the transposition (x y): it swaps the pair
    of mirrored positions together with the pair of values, so the
    result is always an involution with the same number of fixed
    points.  Whether it is still a watermark codeword is a separate
    question for the classifier.
    """
    m = sip.n_star
    if not (1 <= x <= m and 1 <= y <= m):
        raise ValueError(f"swap elements must lie in 1..{m}")
    if x == y:
        raise ValueError("swap elements must differ")

    def tau(value: int) -> int:
        if value == x:
            return y
        if value == y:
            return x
        return value

    elems = sip.elements
    out = tuple(tau(elems[tau(pos) - 1]) for pos in range(1, m + 1))
    return SelfInvertingPermutation(out)
