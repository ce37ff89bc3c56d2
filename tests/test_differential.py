"""Differential tests over every small attacked graph.

The edited set holds every single retargeting at bit-lengths 2..5 and
every retargeting of two distinct sources at bit-lengths 2..4, with
targets ranging over ``-1..n*+2`` so that out-of-range nodes are
covered too: 64,430 graphs.
"""

import random
from itertools import combinations, product

from reference_dominators import flagged_edges

from wrpg.errors import FalseIncorrectGraph, NotAWatermark
from wrpg.integrity import CHECK_NAMES, classify_graph
from wrpg.rpg import (
    ReduciblePermutationGraph,
    check_reducibility,
    decode_rpg_to_sip,
    dmax_map,
    encode_sip_to_rpg,
    reconstruct_permutation,
)
from wrpg.sip import decode_sip_to_w, encode_w_to_sip


def edited_back_edges():
    for n in range(2, 6):
        m = 2 * n + 1
        targets = range(-1, m + 3)
        for w in range(1 << (n - 1), 1 << n):
            base = encode_sip_to_rpg(encode_w_to_sip(w)[0]).back_edges
            for i, t in product(range(1, m + 1), targets):
                yield base[: i - 1] + (t,) + base[i:]
            if n > 4:
                continue
            for (i, j), (t, u) in product(combinations(range(1, m + 1), 2), product(targets, repeat=2)):
                yield base[: i - 1] + (t,) + base[i : j - 1] + (u,) + base[j:]


def random_back_edges(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 15)
        yield tuple(rng.randint(-1, m + 2) for _ in range(m))


def test_edited_set_size():
    assert sum(1 for _ in edited_back_edges()) == 64_430


def assert_matches_reference(back_edges):
    report = check_reducibility(ReduciblePermutationGraph(back_edges))
    flagged = flagged_edges(back_edges)
    assert report.passed == (not flagged), back_edges
    if flagged:
        assert report.offending_edge in flagged, (back_edges, report.offending_edge, flagged)


def test_reducibility_matches_dominator_reference_on_edited_graphs():
    for back_edges in edited_back_edges():
        assert_matches_reference(back_edges)


def test_reducibility_matches_dominator_reference_on_random_vectors():
    for back_edges in random_back_edges(20_000, seed=20181227):
        assert_matches_reference(back_edges)


def test_reducibility_reports_the_downward_edge():
    # a downward edge 5 -> 2 also breaks domination of 1 by 3 (the path
    # s, 5, 2, 1 skips 3); the report names the edge that causes it
    back_edges = (3, 6, 6, 6, 2)
    assert flagged_edges(back_edges) == {(1, 3), (5, 2)}
    report = check_reducibility(ReduciblePermutationGraph(back_edges))
    assert not report.passed
    assert report.offending_edge == (5, 2)
    assert report.detail == "node 2 does not dominate node 5"


def decoded_or_none(g: ReduciblePermutationGraph) -> int | None:
    try:
        return decode_sip_to_w(decode_rpg_to_sip(g))
    except (FalseIncorrectGraph, NotAWatermark):
        return None


def test_classify_agrees_with_the_decoder():
    valid = 0
    for back_edges in edited_back_edges():
        g = ReduciblePermutationGraph(back_edges)
        report = classify_graph(g)
        assert report.watermark == decoded_or_none(g), back_edges
        if report.valid:
            valid += 1
            assert all(report.checks[name] is True for name in CHECK_NAMES)
            assert report.reasons == ()
        else:
            assert report.reasons
    assert valid > 0  # an edit that keeps its own target leaves a codeword


def test_reconstruction_reproduces_every_upward_back_edge_vector():
    # decoding and classify rely on this instead of comparing dmax_map
    upward = 0
    for back_edges in edited_back_edges():
        header = len(back_edges) + 1
        if all(i < t <= header for i, t in enumerate(back_edges, 1)):
            g = ReduciblePermutationGraph(back_edges)
            assert dmax_map(reconstruct_permutation(g)) == back_edges, back_edges
            upward += 1
    assert upward == 9_976
    rng = random.Random(1812)
    for _ in range(2_000):
        m = rng.randrange(5, 42, 2)
        back_edges = tuple(rng.randint(i + 1, m + 1) for i in range(1, m + 1))
        g = ReduciblePermutationGraph(back_edges)
        assert dmax_map(reconstruct_permutation(g)) == back_edges, back_edges
