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

``WatermarkShape`` and ``EncodingTrace`` are named tuples, and
``SelfInvertingPermutation`` is a slotted class that validates on
construction and refuses assignment.  All values are immutable and all
functions are pure; everything here is safe for unrestricted concurrent
use.
"""

from itertools import compress
from typing import NamedTuple, Sequence

from .errors import NotAWatermark, SipInvariantError, WatermarkDomainError

# Shape cases, keyed by the number of zeros in the internal block
# b_2..b_{n-1}: two or more, exactly one, none.
CASE_TWO_ZEROS = "Case1"
CASE_ONE_ZERO = "Case2"
CASE_NO_ZEROS = "Case3"

# bytes.translate tables that turn the bits of B' into a mask of its 0s or of its 1s
_ZERO_BITS = bytes.maketrans(b"01", b"\1\0")
_ONE_BITS = bytes.maketrans(b"01", b"\0\1")


def _exact_ints(values: Sequence[object]) -> bool:
    """True when every value is exactly an ``int``: no ``bool``, no subclass."""
    return list(map(type, values)).count(int) == len(values)


def _is_permutation(values: Sequence[object]) -> bool:
    """True when ``values`` is a permutation of ``1..len(values)`` whose
    elements are all exactly ``int``."""
    return _exact_ints(values) and sorted(values) == list(range(1, len(values) + 1))


def _require_int(value: int, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WatermarkDomainError(f"{name} must be an integer, got {value!r}")


def require_watermark(w: int) -> int:
    """Validate ``w`` and return its bit-length ``n`` (always >= 2)."""
    _require_int(w, "watermark")
    if w < 2:
        raise WatermarkDomainError(f"watermark must be >= 2, got {w}")
    return w.bit_length()


class WatermarkShape(NamedTuple):
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


def _require_sip(elems: tuple[int, ...], *, permutation: bool = False) -> None:
    """Raise :class:`SipInvariantError` unless ``elems`` is a
    self-inverting permutation with one fixed point.  ``permutation``
    says that ``elems`` is a permutation of ``1..m`` already, so that
    only the odd length, involution and fixed-point checks can fail."""
    m = len(elems)
    if m % 2 == 0:
        raise SipInvariantError(f"length must be odd, got {m}")
    if not permutation and not _is_permutation(elems):
        raise SipInvariantError(f"not a permutation of 1..{m}")
    fixed = 0
    for pos, val in enumerate(elems, start=1):
        if elems[val - 1] != pos:
            raise SipInvariantError("not an involution")
        if val == pos:
            fixed += 1
    if fixed != 1:
        raise SipInvariantError(f"expected exactly one fixed point, found {fixed}")


class _Value:
    """Base of the immutable value classes.  ``__match_args__`` names
    the constructor's arguments in order; the first ``_compared`` of
    them make the repr and are what instances are equal and hashed by.
    Assignment and deletion raise :class:`AttributeError`, and pickle
    and copy rebuild an instance through its constructor.  The base
    constructor stores each value under its name and checks nothing;
    a class whose values need checking defines its own."""

    __slots__ = ()
    _compared = 1

    def __init__(self, *values):
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__[: self._compared])

    def __repr__(self) -> str:
        cells = (f"{name}={value!r}" for name, value in zip(self.__match_args__, self._key()))
        return f"{type(self).__qualname__}({', '.join(cells)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    @classmethod
    def _trusted(cls, *values):
        """Build an instance from the constructor's arguments, already
        in their stored form, without the constructor's checks.

        Only for values that pass those checks, by construction or by
        the caller's own check.  The trusted uses are:

        * the encoder's output, an involution with one fixed point;
        * the permutation that :func:`~wrpg.rpg.decode_rpg_to_sip`
          rebuilds from a graph, a permutation by construction that it
          checks for the other properties;
        * the graph that :func:`~wrpg.rpg.encode_sip_to_rpg` builds from
          a :class:`SelfInvertingPermutation`, whose domination map is a
          non-empty tuple of exact ints;
        * the graph that :func:`~wrpg.rpg.graph_from_json` reads, after
          its own scan of the targets.

        External input goes through the constructor."""
        value = object.__new__(cls)
        for name, field in zip(cls.__match_args__, values):
            object.__setattr__(value, name, field)
        return value


class SelfInvertingPermutation(_Value):
    """A permutation of ``1..n*`` equal to its own inverse, with exactly
    one fixed point.  ``n*`` is odd and equals ``2n + 1`` for codewords
    of bit-length ``n``.  Every element must be exactly an ``int``.

    An immutable value: equal and hashed by ``elements``."""

    __slots__ = ("elements",)
    __match_args__ = ("elements",)
    elements: tuple[int, ...]

    def __init__(self, elements: Sequence[int]):
        elems = tuple(elements)
        _require_sip(elems)
        object.__setattr__(self, "elements", elems)

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


class EncodingTrace(NamedTuple):
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
    raw, positions = b_prime.encode(), range(1, 2 * n + 2)
    xs = tuple(compress(positions, raw.translate(_ZERO_BITS)))
    ys = tuple(compress(positions, raw.translate(_ONE_BITS)))
    pi_b = xs + ys[::-1]
    out = [0] * (2 * n + 2)  # indexed by position; slot 0 is unused
    for a, b in zip(pi_b, reversed(pi_b)):  # opposite ends; the middle meets itself
        out[a] = b
    trace = EncodingTrace(b_prime, xs, ys, pi_b)
    return SelfInvertingPermutation._trusted(tuple(out[1:])), trace


def decode_sip_to_w(sip: SelfInvertingPermutation) -> int:
    """Extract the watermark from ``sip``, re-encoding to verify it."""
    return _decode(sip.elements)


def _decode(elements: tuple[int, ...]) -> int:
    """:func:`decode_sip_to_w` of any tuple of ints, which need not be a
    self-inverting permutation: the re-encode and compare accepts
    exactly the codewords and raises :class:`NotAWatermark` for the
    rest."""
    n = (len(elements) - 1) // 2
    if n < 2:
        raise NotAWatermark(f"decoded bit-length {n} is below 2")
    lo, hi = n + 1, 2 * n
    bits = ["0"] * n  # bits[j - 1] is 1 when n + j is in the leading run
    for value in elements:
        if not lo <= value <= hi:
            break
        bits[value - lo] = "1"
    if bits[0] == "0":
        raise NotAWatermark("leading bit decodes to 0")
    w = int("".join(bits), 2)
    re_encoded, _ = encode_w_to_sip(w)
    if re_encoded.elements != elements:
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
    when the template holds.  Input that is not an odd-length
    permutation of ``1..n*`` in exact ints fails ``not_a_permutation``
    alone.  ``pi1`` is the leading run ``(n+1, .., n+k)``; ``pi2``
    holds ``{n+k+2..2n+1}`` and is bitonic; ``pi3`` is
    ``(1..k, alpha)`` with the fixed point ``alpha = n+k+1``; ``pi4``
    lists ``pi2``'s positions by ascending element.
    """
    elems = tuple(elements)
    m = len(elems)
    n = (m - 1) // 2
    if m % 2 == 0 or not _is_permutation(elems):
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
