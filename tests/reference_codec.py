"""Reference element loops for the codec's differential tests.

These are the straightforward loops the codec used before its hot
passes were rewritten: a stack walk with emptiness tests for
``dmax_map``, children lists and an explicit preorder stack for
``reconstruct_permutation``, two scans for ``check_reducibility`` and
comprehensions plus a half-length pairing loop for ``encode_w_to_sip``.
``test_codec_reference.py`` checks that the codec returns the same
values and raises the same exceptions and messages.

``dmax_map`` here does not check its input: on a sequence that is not a
permutation it returns a wrong map or raises a bare error, so it is a
reference only for permutations.  The two permutation tests that the
SIP constructor and ``dmax_map`` ran before they shared one are kept as
``sip_permutation_test`` and ``dmax_permutation_test``.
"""

from wrpg.errors import FalseIncorrectGraph
from wrpg.rpg import ReducibilityReport, ReduciblePermutationGraph
from wrpg.sip import EncodingTrace, SelfInvertingPermutation, require_watermark


def _exact_ints(values) -> bool:
    """True when every value is exactly an ``int``: no ``bool``, no subclass."""
    return list(map(type, values)).count(int) == len(values)


def sip_permutation_test(elems) -> bool:
    m = len(elems)
    return not (not _exact_ints(elems) or sorted(elems) != list(range(1, m + 1)))


def dmax_permutation_test(perm) -> bool:
    m = len(perm)
    return (
        _exact_ints(perm)
        and len(set(perm)) == m
        and min(perm, default=1) >= 1
        and max(perm, default=m) <= m
    )


def dmax_map(perm):
    m = len(perm)
    header = m + 1
    targets = [header] * m
    stack = []
    for value in perm:
        while stack and stack[-1] < value:
            stack.pop()
        targets[value - 1] = stack[-1] if stack else header
        stack.append(value)
    return tuple(targets)


def reconstruct_permutation(g: ReduciblePermutationGraph) -> tuple[int, ...]:
    m = g.n_star
    for i, t in enumerate(g.back_edges, 1):
        if not i < t <= m + 1:
            raise FalseIncorrectGraph(
                "back-edge-range",
                f"element {i} must target a node in {i + 1}..{m + 1}, got {t}",
            )
    children = [[] for _ in range(m + 2)]
    for i, t in enumerate(g.back_edges, 1):
        children[t].append(i)  # ascending, since i is
    out = []
    stack = [m + 1]
    while stack:
        node = stack.pop()
        if node <= m:
            out.append(node)
        stack.extend(reversed(children[node]))
    return tuple(out)


def check_reducibility(g: ReduciblePermutationGraph) -> ReducibilityReport:
    header = g.n_star + 1
    for i, t in enumerate(g.back_edges, 1):
        if not 0 <= t <= header:
            return ReducibilityReport(False, (i, t), f"target {t} is not a node")
    for i, t in enumerate(g.back_edges, 1):
        if t < i:
            return ReducibilityReport(False, (i, t), f"node {t} does not dominate node {i}")
    return ReducibilityReport(True, None, "every back edge targets a dominator")


def encode_w_to_sip(w: int) -> tuple[SelfInvertingPermutation, EncodingTrace]:
    n = require_watermark(w)
    bits = format(w, "b")
    b_prime = "0" * n + bits + "0"
    xs = [pos for pos, bit in enumerate(b_prime, 1) if bit == "0"]
    ys = [pos for pos, bit in enumerate(b_prime, 1) if bit == "1"]
    pi_b = xs + ys[::-1]
    m = 2 * n + 1
    out = [0] * m
    for i in range(n):
        a, b = pi_b[i], pi_b[m - 1 - i]
        out[a - 1] = b
        out[b - 1] = a
    mid = pi_b[n]
    out[mid - 1] = mid
    trace = EncodingTrace(b_prime, tuple(xs), tuple(ys), tuple(pi_b))
    return SelfInvertingPermutation._trusted(tuple(out)), trace
