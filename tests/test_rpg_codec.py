import random
from itertools import product

import pytest

from wrpg.errors import FalseIncorrectGraph, GraphFormatError, SizeMismatchError
from wrpg.rpg import (
    ReduciblePermutationGraph,
    check_reducibility,
    decode_rpg_to_sip,
    dmax_map,
    encode_sip_to_rpg,
    graph_distance,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    load_graph,
    reconstruct_permutation,
    save_graph,
)
from wrpg.sip import encode_w_to_sip


def graph_of(w: int) -> ReduciblePermutationGraph:
    permutation, _ = encode_w_to_sip(w)
    return encode_sip_to_rpg(permutation)


@pytest.mark.parametrize(
    "perm,expected",
    [
        # element -> target, header encoded as len+1
        ((5, 6, 9, 8, 1, 2, 7, 4, 3), (8, 8, 4, 7, 10, 10, 8, 9, 10)),
        ((4, 5, 6, 1, 2, 3, 7), (6, 6, 6, 8, 8, 8, 8)),
        ((2, 1, 3), (2, 4, 4)),
    ],
)
def test_dmax_examples(perm, expected):
    assert dmax_map(perm) == expected


def test_graph_counts_follow_bit_length():
    for w in (7, 12, 100, 5000):
        g = graph_of(w)
        n = w.bit_length()
        assert g.node_count() == 2 * n + 3
        assert g.forward_edge_count() == 2 * n + 2
        assert g.back_edge_count() == 2 * n + 1
        assert all(t > i for i, t in enumerate(g.back_edges, 1))


def test_decode_rpg_examples():
    g = ReduciblePermutationGraph((8, 8, 4, 7, 10, 10, 8, 9, 10))
    assert decode_rpg_to_sip(g).elements == (5, 6, 9, 8, 1, 2, 7, 4, 3)


def test_decode_rpg_roundtrip_exhaustive():
    for w in range(2, 1 << 9):
        permutation, _ = encode_w_to_sip(w)
        assert decode_rpg_to_sip(encode_sip_to_rpg(permutation)) == permutation


def test_decode_rpg_rejects_non_sip_graph():
    # reconstructs to (2, 3, 1), whose dmax map matches, but which is
    # not an involution
    g = ReduciblePermutationGraph((3, 4, 4))
    with pytest.raises(FalseIncorrectGraph) as err:
        decode_rpg_to_sip(g)
    assert err.value.check == "sip-property"
    assert "involution" in str(err.value)


def test_decode_rpg_rejects_backward_target():
    with pytest.raises(FalseIncorrectGraph) as err:
        decode_rpg_to_sip(ReduciblePermutationGraph((3, 1, 4)))
    assert err.value.check == "back-edge-range"


def test_children_ascend_and_preorder_inverts_on_random_permutations():
    rng = random.Random(7)
    for size in [1, 2, 3, 5, 8, 13, 21, 40]:
        for _ in range(25):
            perm = list(range(1, size + 1))
            rng.shuffle(perm)
            targets = dmax_map(perm)
            g = ReduciblePermutationGraph(targets)
            assert reconstruct_permutation(g) == tuple(perm)


def test_graph_distance_fixtures():
    assert graph_distance(graph_of(5), graph_of(4)) == 4
    assert graph_distance(graph_of(8), graph_of(9)) == 3
    g = graph_of(12)
    assert graph_distance(g, g) == 0


def test_graph_distance_requires_equal_sizes():
    with pytest.raises(SizeMismatchError):
        graph_distance(graph_of(5), graph_of(8))


def test_graph_distance_is_a_metric_on_four_bit_graphs():
    graphs = [graph_of(w) for w in range(8, 16)]
    for a, b in product(graphs, repeat=2):
        d = graph_distance(a, b)
        assert d == graph_distance(b, a)
        assert (d == 0) == (a == b)
    for a, b, c in product(graphs, repeat=3):
        assert graph_distance(a, c) <= graph_distance(a, b) + graph_distance(b, c)


def test_reducibility_passes_on_codewords():
    for w in (2, 7, 12, 100, 999):
        report = check_reducibility(graph_of(w))
        assert report.passed, report.detail


def test_reducibility_trivial_and_tampered_graphs():
    assert check_reducibility(ReduciblePermutationGraph((2,))).passed
    report = check_reducibility(ReduciblePermutationGraph((3, 1, 4)))
    assert not report.passed
    assert report.offending_edge == (2, 1)
    report = check_reducibility(ReduciblePermutationGraph((3, 99, 4)))
    assert not report.passed
    # an out-of-range target is reported before an earlier downward edge
    report = check_reducibility(ReduciblePermutationGraph((0, 3, 9)))
    assert report.offending_edge == (3, 9)
    assert report.detail == "target 9 is not a node"


def test_json_roundtrip_and_canonical_bytes():
    g = graph_of(12)
    text = graph_to_json(g)
    assert text == (
        '{"version": 1, "n": 4, "nstar": 9, '
        '"back_edges": [8, 8, 4, 7, 10, 10, 8, 9, 10]}\n'
    )
    assert graph_from_json(text) == g


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        "[1, 2, 3]",
        '{"version": 2, "n": 4, "nstar": 9, "back_edges": [8, 8, 4, 7, 10, 10, 8, 9, 10]}',
        '{"version": 1, "n": 4, "nstar": 8, "back_edges": [8, 8, 4, 7, 10, 10, 8, 9]}',
        '{"version": 1, "n": 1, "nstar": 3, "back_edges": [2, 4, 4]}',
        '{"version": 1, "n": 4, "nstar": 9, "back_edges": [8, 8, 4, 7, 10, 10, 8, 9]}',
        '{"version": 1, "n": 4, "nstar": 9, "back_edges": [8, 8, 4, 7, 10, 10, 8, 9, "s"]}',
        '{"version": 1, "n": 4, "nstar": 9, "back_edges": [8, 8, 4, 7, 10, 10, 8, 9, true]}',
        '{"version": 1, "n": 4, "nstar": 9}',
    ],
)
def test_json_rejects_malformed_payloads(payload):
    with pytest.raises(GraphFormatError):
        graph_from_json(payload)


def test_save_and_load(tmp_path):
    g = graph_of(44)
    path = tmp_path / "f44.json"
    save_graph(g, path)
    assert load_graph(path) == g


def test_attacked_graphs_serialize_too():
    g = ReduciblePermutationGraph((3, 1, 4, 9, 6, 8, 8, 10, 10))
    assert graph_from_json(graph_to_json(g)) == g


def test_dot_export():
    dot = graph_to_dot(graph_of(7))
    assert dot.startswith("digraph")
    assert "  s -> u7;" in dot
    assert "  u1 -> t;" in dot
    assert "  u1 -> u6 [style=dashed];" in dot
    assert "  u4 -> s [style=dashed];" in dot


def test_dot_rejects_targets_outside_the_node_space():
    with pytest.raises(GraphFormatError):
        graph_to_dot(ReduciblePermutationGraph((99, 4, 4)))
