import random

import pytest

from wrpg.errors import NotAWatermark, SipInvariantError, WatermarkDomainError
from wrpg.sip import (
    CASE_NO_ZEROS,
    CASE_ONE_ZERO,
    CASE_TWO_ZEROS,
    SelfInvertingPermutation,
    WatermarkShape,
    bit_shape,
    decode_sip_to_w,
    encode_w_to_sip,
    is_bitonic,
)


@pytest.mark.parametrize(
    "w,expected",
    [
        (8, WatermarkShape(CASE_TWO_ZEROS)),
        (27, WatermarkShape(CASE_ONE_ZERO, ell=1, r=1, last_bit=1)),
        (15, WatermarkShape(CASE_NO_ZEROS, last_bit=1)),
        (12, WatermarkShape(CASE_ONE_ZERO, ell=1, r=0, last_bit=0)),
        (10, WatermarkShape(CASE_ONE_ZERO, ell=0, r=1, last_bit=0)),
        (54, WatermarkShape(CASE_ONE_ZERO, ell=1, r=2, last_bit=0)),
        (2, WatermarkShape(CASE_NO_ZEROS, last_bit=0)),
        (3, WatermarkShape(CASE_NO_ZEROS, last_bit=1)),
        (9, WatermarkShape(CASE_TWO_ZEROS)),
    ],
)
def test_bit_shape(w, expected):
    assert bit_shape(w) == expected


def test_one_zero_shape_splits_the_internal_block():
    for w in range(2, 1 << 10):
        shape = bit_shape(w)
        if shape.case == CASE_ONE_ZERO:
            assert shape.ell + shape.r == w.bit_length() - 3
    assert (bit_shape(0b1101110).ell, bit_shape(0b1101110).r) == (1, 3)


@pytest.mark.parametrize("bad", [1, 0, -3, "12", 2.5, True])
def test_bit_shape_rejects_non_watermarks(bad):
    with pytest.raises(WatermarkDomainError):
        bit_shape(bad)


@pytest.mark.parametrize(
    "w,expected",
    [
        (7, (4, 5, 6, 1, 2, 3, 7)),
        (5, (4, 6, 7, 1, 5, 2, 3)),
        (12, (5, 6, 9, 8, 1, 2, 7, 4, 3)),
        (4, (4, 7, 6, 1, 5, 3, 2)),
    ],
)
def test_encode_examples(w, expected):
    permutation, _ = encode_w_to_sip(w)
    assert permutation.elements == expected


def test_encode_trace_for_12():
    _, trace = encode_w_to_sip(12)
    assert trace.b_prime == "000011000"
    assert trace.x_positions == (1, 2, 3, 4, 7, 8, 9)
    assert trace.y_positions == (5, 6)
    assert trace.pi_b == (1, 2, 3, 4, 7, 8, 9, 6, 5)


def test_encode_rejects_w_below_two():
    with pytest.raises(WatermarkDomainError):
        encode_w_to_sip(1)


@pytest.mark.parametrize(
    "elements,expected",
    [
        ((4, 5, 6, 1, 2, 3, 7), 7),
        ((5, 6, 9, 8, 1, 2, 7, 4, 3), 12),
        ((4, 7, 6, 1, 5, 3, 2), 4),
    ],
)
def test_decode_examples(elements, expected):
    assert decode_sip_to_w(SelfInvertingPermutation(elements)) == expected


def test_decode_rejects_sip_with_zero_leading_bit():
    # valid involution, but the scan never sees n+1 first
    with pytest.raises(NotAWatermark):
        decode_sip_to_w(SelfInvertingPermutation((2, 1, 5, 4, 3)))


def test_decode_rejects_sip_that_fails_reencoding():
    # relabeling 1<->2 in the codeword of 12 keeps the involution but
    # breaks the template; the prefix scan alone would still read 12
    with pytest.raises(NotAWatermark):
        decode_sip_to_w(SelfInvertingPermutation((6, 5, 9, 8, 2, 1, 7, 4, 3)))


def test_decode_rejects_length_three():
    with pytest.raises(NotAWatermark):
        decode_sip_to_w(SelfInvertingPermutation((2, 1, 3)))


def test_roundtrip_exhaustive_small():
    for w in range(2, 1 << 9):
        permutation, trace = encode_w_to_sip(w)
        assert decode_sip_to_w(permutation) == w
        n = w.bit_length()
        assert permutation.n_star == 2 * n + 1
        assert len(trace.pi_b) == 2 * n + 1
        assert is_bitonic(trace.pi_b)


def test_encoding_is_injective_per_bit_length():
    for n in range(2, 11):
        seen = {encode_w_to_sip(w)[0].elements for w in range(1 << (n - 1), 1 << n)}
        assert len(seen) == 1 << (n - 1)


def test_encoder_output_passes_the_constructor_checks():
    # the encoder wraps its output without the constructor's checks
    rng = random.Random(20181227)
    seeded = [rng.getrandbits(n - 1) | (1 << (n - 1)) for n in (512, 4096) for _ in range(4)]
    for w in [*range(2, 1 << 12), *seeded]:
        permutation, _ = encode_w_to_sip(w)
        assert SelfInvertingPermutation(permutation.elements) == permutation


def test_fixed_point_follows_the_leading_ones():
    for w in range(2, 1 << 10):
        permutation, _ = encode_w_to_sip(w)
        n = w.bit_length()
        if w == (1 << n) - 1:
            assert permutation.alpha == 2 * n + 1
        else:
            k = len(format(w, "b").split("0")[0])  # leading ones
            assert permutation.alpha == n + k + 1


@pytest.mark.parametrize(
    "elements,message",
    [
        ((2, 1), "length must be odd"),
        ((1, 2, 2), "not a permutation"),
        ((3, 1, 2), "not an involution"),
        ((1, 2, 4, 3, 5), "exactly one fixed point"),
        ((1, 2, 3), "exactly one fixed point"),
    ],
)
def test_sip_constructor_rejections(elements, message):
    with pytest.raises(SipInvariantError, match=message):
        SelfInvertingPermutation(elements)


def test_one_line_roundtrip():
    permutation, _ = encode_w_to_sip(12)
    assert permutation.one_line() == "5 6 9 8 1 2 7 4 3"
    assert SelfInvertingPermutation.from_one_line("5 6 9 8 1 2 7 4 3") == permutation
    with pytest.raises(SipInvariantError, match="not an involution"):
        SelfInvertingPermutation.from_one_line("3 1 2")


@pytest.mark.parametrize(
    "seq,expected",
    [
        ((), True),
        ((5,), True),
        ((1, 2, 3), True),
        ((3, 2, 1), True),
        ((1, 3, 2), True),
        ((2, 3, 1), True),
        ((3, 1, 2), False),
        ((2, 1, 3), False),
    ],
)
def test_is_bitonic(seq, expected):
    assert is_bitonic(seq) is expected
