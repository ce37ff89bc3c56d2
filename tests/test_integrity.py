import random

import pytest

import wrpg.integrity as integrity
import wrpg.rpg as rpg
from wrpg.errors import UnsupportedAttack
from wrpg.integrity import (
    CHECK_NAMES,
    EdgeEdit,
    apply_edge_edits,
    classify_graph,
    parse_edits,
)
from wrpg.rpg import ReduciblePermutationGraph, encode_sip_to_rpg, graph_distance
from wrpg.sip import SelfInvertingPermutation, encode_w_to_sip


def graph_of(w: int) -> ReduciblePermutationGraph:
    return encode_sip_to_rpg(encode_w_to_sip(w)[0])


def test_four_edits_turn_five_into_four():
    edits = parse_edits("6:7,1:6,5:6,2:3")
    assert apply_edge_edits(graph_of(5), edits) == graph_of(4)


def test_empty_edit_list_is_identity():
    g = graph_of(12)
    assert apply_edge_edits(g, []) == g


def test_edits_outside_interior_nodes_are_unsupported():
    g = graph_of(12)
    for source in (0, 10, -1):
        with pytest.raises(UnsupportedAttack):
            apply_edge_edits(g, [EdgeEdit(source, 5)])


def test_repeated_source_last_edit_wins():
    g = graph_of(12)
    edited = apply_edge_edits(g, [EdgeEdit(3, 5), EdgeEdit(3, 9)])
    assert edited.target_of(3) == 9
    assert graph_distance(g, edited) == 1


def test_distance_counts_effective_edits_only():
    g = graph_of(12)
    same = apply_edge_edits(g, [EdgeEdit(3, g.target_of(3))])
    assert graph_distance(g, same) == 0


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3:5,7:9", [EdgeEdit(3, 5), EdgeEdit(7, 9)]),
        ("", []),
        (" 3:5 , 7:9 ", [EdgeEdit(3, 5), EdgeEdit(7, 9)]),
    ],
)
def test_parse_edits(text, expected):
    assert parse_edits(text) == expected


@pytest.mark.parametrize("text", ["3:", "3", "3:5:7", "a:b", "3:5,"])
def test_parse_edits_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_edits(text)


def test_classify_untampered_graph():
    report = classify_graph(graph_of(12))
    assert report.valid
    assert report.watermark == 12
    assert all(report.checks[name] is True for name in CHECK_NAMES)
    assert report.reasons == ()


def test_classify_has_no_false_alarms():
    for w in range(2, 1 << 8):
        report = classify_graph(graph_of(w))
        assert report.valid and report.watermark == w


def test_classify_rewritten_graph_is_valid_for_the_other_watermark():
    edited = apply_edge_edits(graph_of(5), parse_edits("6:7,1:6,5:6,2:3"))
    report = classify_graph(edited)
    assert report.valid and report.watermark == 4


def test_classify_single_edit_is_false_incorrect():
    report = classify_graph(apply_edge_edits(graph_of(12), [EdgeEdit(3, 5)]))
    assert not report.valid
    assert report.checks["involution"] is False
    assert "involution" in report.failed_checks()


def test_classify_structural_violation_reports_range_check():
    report = classify_graph(apply_edge_edits(graph_of(12), [EdgeEdit(3, 2)]))
    assert not report.valid
    assert report.checks["range_odd_length"] is False
    assert report.checks["involution"] is None
    assert report.failed_checks() == ("range_odd_length",)


def test_classify_never_raises_on_arbitrary_targets():
    g = graph_of(12)
    for target in (-5, 0, 3, 99):
        report = classify_graph(apply_edge_edits(g, [EdgeEdit(3, target)]))
        assert not report.valid


def test_reader_spells_the_watermark_of_every_codeword_graph():
    for w in range(2, 1 << 12):
        assert integrity._read_watermark(graph_of(w)) == w
    rng = random.Random(20181227)
    for n in (512, 4096):
        for _ in range(4):
            w = (1 << (n - 1)) | rng.getrandbits(n - 1)
            assert integrity._read_watermark(graph_of(w)) == w


def test_reader_needs_the_leading_bit():
    g = graph_of(12)  # n = 4: element 5 targets the header 10
    assert integrity._read_watermark(apply_edge_edits(g, [EdgeEdit(5, 9)])) is None
    for back_edges in [(2,), (4, 4, 4), (5, 5, 5, 5)]:  # too small to hold a watermark
        assert integrity._read_watermark(ReduciblePermutationGraph(back_edges)) is None


def test_valid_verdict_needs_neither_reconstruction_nor_sip_checks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the valid path ran a redundant check")

    monkeypatch.setattr(integrity, "reconstruct_permutation", refuse)
    monkeypatch.setattr(rpg, "reconstruct_permutation", refuse)
    monkeypatch.setattr(SelfInvertingPermutation, "__post_init__", refuse)
    for w in (2, 7, 12, 27, (1 << 64) - 5):
        report = classify_graph(graph_of(w))
        assert report.valid and report.watermark == w
    with pytest.raises(AssertionError):  # the patches are live
        classify_graph(apply_edge_edits(graph_of(12), [EdgeEdit(3, 5)]))


def test_single_edits_never_reach_another_codeword_at_n4():
    # minimum pairwise distance is 3, so one retargeting always breaks
    for w in range(8, 16):
        g = graph_of(w)
        for source in range(1, g.n_star + 1):
            for target in range(0, g.n_star + 2):
                if target == g.target_of(source):
                    continue
                report = classify_graph(apply_edge_edits(g, [EdgeEdit(source, target)]))
                assert not report.valid, (w, source, target)
