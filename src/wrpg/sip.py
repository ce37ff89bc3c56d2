"""Codec between integer watermarks and self-inverting permutations.

A watermark is an integer ``w >= 2`` whose binary form ``b_1..b_n``
(``b_1 = 1``) has bit-length ``n``.  Encoding pads the bits into
``B' = 0^n || b_1..b_n || 0``, lists the 0-positions ``X`` and the
1-positions ``Y`` of ``B'``, lays them out as the bitonic sequence
``pi_b = X || reverse(Y)``, and then pairs opposite ends of ``pi_b``
into 2-cycles; the middle entry of ``pi_b`` becomes the unique fixed
point.  The result is a permutation of ``1..2n+1`` that is its own
inverse.

Decoding scans the one-line form from the left, collecting entries
while they stay inside ``[n+1, 2n]`` (exactly the 1-positions that set
bits contribute), rebuilds ``w`` from that set, and finally re-encodes
to confirm the input really is a codeword.  Corrupted permutations are
therefore reported, never silently mis-decoded.

All values are immutable and all functions are pure; everything here
is safe for unrestricted concurrent use.
"""

from dataclasses import dataclass
from typing import Sequence

from .errors import NotAWatermark, SipInvariantError, WatermarkDomainError

# Shape cases, keyed by the number of zeros in the internal block
# b_2..b_{n-1}: two or more, exactly one, none.
CASE_TWO_ZEROS = "Case1"
CASE_ONE_ZERO = "Case2"
CASE_NO_ZEROS = "Case3"


def require_watermark(w: int) -> int:
    """Validate ``w`` and return its bit-length ``n`` (always >= 2)."""
    if isinstance(w, bool) or not isinstance(w, int):
        raise WatermarkDomainError(f"watermark must be an integer, got {w!r}")
    if w < 2:
        raise WatermarkDomainError(f"watermark must be >= 2, got {w}")
    return w.bit_length()


@dataclass(frozen=True)
class WatermarkShape:
    """Case split of a watermark's binary form ``1 1^ell 0 1^r b_n``.

    ``ell`` and ``r`` are only meaningful for the one-zero case;
    ``last_bit`` is carried for the one-zero and no-zero cases.
    """

    case: str
    ell: int | None = None
    r: int | None = None
    last_bit: int | None = None


def bit_shape(w: int) -> WatermarkShape:
    """Classify ``w`` by the zeros of its internal block b_2..b_{n-1}."""
    require_watermark(w)
    bits = format(w, "b")
    internal = bits[1:-1]
    zeros = internal.count("0")
    if zeros >= 2:
        return WatermarkShape(CASE_TWO_ZEROS)
    last = int(bits[-1])
    if zeros == 1:
        ell = internal.index("0")
        return WatermarkShape(CASE_ONE_ZERO, ell=ell, r=len(internal) - ell - 1, last_bit=last)
    return WatermarkShape(CASE_NO_ZEROS, last_bit=last)


@dataclass(frozen=True)
class SelfInvertingPermutation:
    """A permutation of ``1..n*`` equal to its own inverse, with exactly
    one fixed point.  ``n*`` is odd and equals ``2n + 1`` for codewords
    of bit-length ``n``."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        m = len(elems)
        if m % 2 == 0:
            raise SipInvariantError(f"length must be odd, got {m}")
        if sorted(elems) != list(range(1, m + 1)):
            raise SipInvariantError(f"not a permutation of 1..{m}")
        fixed = 0
        for pos, val in enumerate(elems, start=1):
            if elems[val - 1] != pos:
                raise SipInvariantError("not an involution")
            if val == pos:
                fixed += 1
        if fixed != 1:
            raise SipInvariantError(f"expected exactly one fixed point, found {fixed}")

    @classmethod
    def _trusted(cls, elements: tuple[int, ...]) -> "SelfInvertingPermutation":
        """Wrap ``elements`` without the checks, for the encoder's own
        output, which is an involution with one fixed point by
        construction, and for sequences whose caller has just checked
        that.  External input goes through the constructor."""
        sip = object.__new__(cls)
        object.__setattr__(sip, "elements", elements)
        return sip

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def n_star(self) -> int:
        return len(self.elements)

    @property
    def n(self) -> int:
        """Bit-length of the watermark this permutation can encode."""
        return (len(self.elements) - 1) // 2

    @property
    def alpha(self) -> int:
        """The unique fixed point."""
        return next(val for pos, val in enumerate(self.elements, 1) if val == pos)

    def one_line(self) -> str:
        """Space-separated one-line notation, e.g. ``5 6 9 8 1 2 7 4 3``."""
        return " ".join(str(v) for v in self.elements)

    @classmethod
    def from_one_line(cls, text: str) -> "SelfInvertingPermutation":
        try:
            values = tuple(int(tok) for tok in text.split())
        except ValueError as exc:
            raise SipInvariantError(f"unparsable one-line form: {text!r}") from exc
        return cls(values)


@dataclass(frozen=True)
class EncodingTrace:
    """Intermediate artifacts of one encoding run."""

    b_prime: str
    x_positions: tuple[int, ...]
    y_positions: tuple[int, ...]
    pi_b: tuple[int, ...]


def encode_w_to_sip(w: int) -> tuple[SelfInvertingPermutation, EncodingTrace]:
    """Encode watermark ``w`` as a self-inverting permutation of 1..2n+1."""
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


def decode_sip_to_w(sip: SelfInvertingPermutation) -> int:
    """Extract the watermark from ``sip``, re-encoding to verify it."""
    n = sip.n
    if n < 2:
        raise NotAWatermark(f"decoded bit-length {n} is below 2")
    lo, hi = n + 1, 2 * n
    ys: set[int] = set()
    for value in sip.elements:
        if lo <= value <= hi:
            ys.add(value)
        else:
            break
    if (n + 1) not in ys:
        raise NotAWatermark("leading bit decodes to 0")
    w = 0
    for j in range(1, n + 1):
        w = (w << 1) | ((n + j) in ys)
    re_encoded, _ = encode_w_to_sip(w)
    if re_encoded.elements != sip.elements:
        raise NotAWatermark(f"re-encoding {w} does not reproduce the permutation")
    return w


def is_bitonic(seq: Sequence[int]) -> bool:
    """True when ``seq`` strictly rises then strictly falls (either part
    may be empty)."""
    if not seq:
        return True
    peak = max(range(len(seq)), key=seq.__getitem__)
    rising = all(seq[i] < seq[i + 1] for i in range(peak))
    falling = all(seq[i] > seq[i + 1] for i in range(peak, len(seq) - 1))
    return rising and falling


def template_failures(elements: Sequence[int]) -> list[tuple[str, str]]:
    """Check ``elements`` against the block template ``pi1 || pi2 ||
    pi3 || pi4`` of a codeword permutation.

    Returns the failed clauses as ``(clause, message)`` pairs, empty
    when the template holds.  ``pi1`` is the leading run
    ``(n+1, .., n+k)``; ``pi2`` holds ``{n+k+2..2n+1}`` and is bitonic;
    ``pi3`` is ``(1..k, alpha)`` with the fixed point ``alpha = n+k+1``;
    ``pi4`` lists ``pi2``'s positions by ascending element.
    """
    elems = tuple(elements)
    m = len(elems)
    n = (m - 1) // 2
    if m % 2 == 0 or sorted(elems) != list(range(1, m + 1)):
        return [("not_a_permutation", "input is not an odd-length permutation of 1..n*")]
    if elems[0] != n + 1:
        return [("pi1_start", f"pi1 must start at {n + 1}, got {elems[0]}")]
    k = 1
    while k < n and elems[k] == n + 1 + k:
        k += 1
    failures: list[tuple[str, str]] = []
    pi2 = elems[k:n]
    pi3 = elems[n : n + k + 1]
    pi4 = elems[n + k + 1 :]
    expected_pi2 = set(range(n + k + 2, 2 * n + 2))
    pi2_elements_ok = set(pi2) == expected_pi2
    if not pi2_elements_ok:
        failures.append(
            ("pi2_elements", f"pi2 must hold exactly {{{n + k + 2}..{2 * n + 1}}}, got {pi2}")
        )
    if not is_bitonic(pi2):
        failures.append(("pi2_bitonic", f"pi2 must rise then fall, got {pi2}"))
    alpha = n + k + 1
    if pi3 != tuple(range(1, k + 1)) + (alpha,):
        failures.append(("pi3_form", f"pi3 must be (1..{k}, {alpha}), got {pi3}"))
    if pi2_elements_ok:
        position = {val: pos for pos, val in enumerate(elems, 1)}
        expected_pi4 = tuple(position[val] for val in sorted(pi2))
        if pi4 != expected_pi4:
            failures.append(
                ("pi4_positions", f"pi4 must list pi2's positions by ascending element, got {pi4}")
            )
    return failures
