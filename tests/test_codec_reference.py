"""The codec's element loops against the reference loops they replaced,
and the type and shape checks at the codec's entry points.

Values, exception types and messages must match the reference on every
watermark of 2..12 bits, on seeded watermarks up to 4096 bits, on
randomly attacked graphs of each of them and on random permutations.
"""

import json
import random
from itertools import permutations, product
from math import factorial

import pytest
import reference_codec as ref

from wrpg.errors import GraphFormatError, SipInvariantError
from wrpg.rpg import (
    ReduciblePermutationGraph,
    check_reducibility,
    decode_rpg_to_sip,
    dmax_map,
    encode_sip_to_rpg,
    graph_from_json,
    graph_to_json,
    reconstruct_permutation,
)
from wrpg.sip import SelfInvertingPermutation, _is_permutation, encode_w_to_sip

SEEDED_BITS = {13: 40, 14: 40, 15: 40, 64: 20, 512: 6, 4096: 2}


def outcome(fn, *args):
    """The value ``fn`` returns, or the type, check and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the exception is the outcome being compared
        return type(exc), getattr(exc, "check", None), str(exc)


def watermarks():
    for n in range(2, 13):
        yield from range(1 << (n - 1), 1 << n)
    rng = random.Random(20181227)
    for n, count in SEEDED_BITS.items():
        for _ in range(count):
            yield rng.getrandbits(n - 1) | (1 << (n - 1))


def attacked(back_edges, rng, edits):
    """``back_edges`` with ``edits`` sources retargeted anywhere in -1..m+2."""
    m = len(back_edges)
    out = list(back_edges)
    for _ in range(edits):
        out[rng.randrange(m)] = rng.randint(-1, m + 2)
    return ReduciblePermutationGraph(tuple(out))


def assert_graph_matches(g):
    assert outcome(reconstruct_permutation, g) == outcome(ref.reconstruct_permutation, g), g
    assert check_reducibility(g) == ref.check_reducibility(g), g


def test_codec_matches_the_reference_on_watermarks_and_attacked_graphs():
    rng = random.Random(1812)
    count = 0
    for w in watermarks():
        sip, trace = encode_w_to_sip(w)
        want_sip, want_trace = ref.encode_w_to_sip(w)
        assert (sip.elements, trace) == (want_sip.elements, want_trace), w
        back_edges = ref.dmax_map(want_sip.elements)
        assert dmax_map(sip) == dmax_map(sip.elements) == back_edges, w
        g = encode_sip_to_rpg(sip)
        assert g.back_edges == encode_sip_to_rpg(iter(sip.elements)).back_edges == back_edges, w
        assert_graph_matches(g)
        for edits in (1, 2, 3):
            assert_graph_matches(attacked(back_edges, rng, edits))
        count += 1
    assert count == (1 << 12) - 2 + sum(SEEDED_BITS.values())


def test_codec_matches_the_reference_on_random_permutations_and_vectors():
    rng = random.Random(7)
    for size in [*range(1, 16), 40, 129, 1025]:
        for _ in range(20):
            perm = list(range(1, size + 1))
            rng.shuffle(perm)
            back_edges = dmax_map(perm)
            assert back_edges == ref.dmax_map(perm), perm
            assert_graph_matches(ReduciblePermutationGraph(back_edges))
            assert_graph_matches(ReduciblePermutationGraph(tuple(
                rng.randint(-1, size + 2) for _ in range(size)
            )))


def test_encoding_is_unchanged_for_bad_watermarks():
    for w in (0, 1, -3, True, 2.0, "12", None):
        assert outcome(encode_w_to_sip, w) == outcome(ref.encode_w_to_sip, w), w


@pytest.mark.parametrize(
    "perm",
    [(1, 1), (0,), (2, 2, 2), (3, 1), ("a",), (True,), (1.0,), (2, 1.0, 3), (2, 1, 4), (-1, 1)],
)
def test_domination_map_rejects_non_permutations(perm):
    message = f"not a permutation of 1..{len(perm)}"
    with pytest.raises(SipInvariantError) as err:
        dmax_map(perm)
    assert str(err.value) == message
    with pytest.raises(SipInvariantError) as err:
        encode_sip_to_rpg(perm)
    assert str(err.value) == message


def test_domination_map_of_the_empty_permutation():
    assert dmax_map(()) == ()


class Int(int):
    pass


@pytest.mark.parametrize(
    "elements,message",
    [
        ((True,), "not a permutation of 1..1"),
        ((1.0,), "not a permutation of 1..1"),
        ((2, 1.0, 3), "not a permutation of 1..3"),
        ((2, 1, "3"), "not a permutation of 1..3"),
        ((Int(1),), "not a permutation of 1..1"),
        ((2, 1, True), "not a permutation of 1..3"),
    ],
)
def test_sip_constructor_rejects_elements_that_are_not_ints(elements, message):
    with pytest.raises(SipInvariantError) as err:
        SelfInvertingPermutation(elements)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [True, False, 3.0, "3", None])
def test_graph_constructor_rejects_targets_that_are_not_ints(bad):
    for targets in ((bad,), (3, bad, 4), (3, 4, bad)):
        with pytest.raises(GraphFormatError) as err:
            ReduciblePermutationGraph(targets)
        assert str(err.value) == "back-edge targets must be integers"


def test_graph_constructor_keeps_int_subclass_targets():
    g = ReduciblePermutationGraph((Int(3), 3, Int(4)))
    assert g.back_edges == (3, 3, 4)
    assert type(g.back_edges[0]) is Int


@pytest.mark.parametrize("bad", ["true", "false", "10.0", '"s"', "null", "[10]"])
def test_graph_files_reject_entries_that_are_not_ints(bad):
    text = graph_to_json(encode_sip_to_rpg(encode_w_to_sip(12)[0]))
    payload = json.loads(text)
    for k in (0, 4, 8):
        edges = payload["back_edges"][:k] + ["BAD"] + payload["back_edges"][k + 1 :]
        broken = json.dumps({**payload, "back_edges": edges}).replace('"BAD"', bad)
        with pytest.raises(GraphFormatError) as err:
            graph_from_json(broken)
        assert str(err.value) == "back_edges entries must be integers"


def permutation_test_corpus():
    """Every permutation of 1..m for m = 0..6, each of them with one
    element replaced by a value that breaks it, and 500 seeded random
    int tuples."""
    replacements = (
        lambda perm, i: True,
        lambda perm, i: 1.0,
        lambda perm, i: Int(perm[i]),
        lambda perm, i: "1",
        lambda perm, i: perm[i - 1],  # a duplicate, except when m = 1
        lambda perm, i: 0,
        lambda perm, i: len(perm) + 1,
    )
    for m in range(7):
        for perm in permutations(range(1, m + 1)):
            yield perm
            for i, replace in product(range(m), replacements):
                yield perm[:i] + (replace(perm, i),) + perm[i + 1 :]
    rng = random.Random(18)
    for _ in range(500):
        m = rng.randrange(9)
        yield tuple(rng.randrange(-1, m + 3) for _ in range(m))


def test_the_shared_permutation_test_agrees_with_both_old_ones():
    verdicts = []
    for values in permutation_test_corpus():
        verdict = _is_permutation(values)
        assert verdict == ref.sip_permutation_test(values), values
        assert verdict == ref.dmax_permutation_test(values), values
        verdicts.append(verdict)
    assert len(verdicts) == 874 + 7 * sum(m * factorial(m) for m in range(7)) + 500
    assert verdicts.count(True) >= 874


def test_a_long_chain_decodes_without_recursion():
    # element i targets i + 1: one chain under the header, so the
    # preorder is the descending permutation, an involution with one
    # fixed point at odd length
    m = 2 * 10**5 + 1
    g = ReduciblePermutationGraph(tuple(range(2, m + 2)))
    descending = tuple(range(m, 0, -1))
    assert reconstruct_permutation(g) == descending
    assert decode_rpg_to_sip(g).elements == descending
    assert dmax_map(descending) == g.back_edges
    assert check_reducibility(g).passed
