import random
from collections import Counter

import pytest

import wrpg.integrity as integrity
import wrpg.rpg as rpg
import wrpg.sip as sip
from wrpg.errors import SipInvariantError, UnsupportedAttack
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
    for source in (0, 10, -1, 1.5, "2", True):
        with pytest.raises(UnsupportedAttack):
            apply_edge_edits(g, [EdgeEdit(source, 5)])


def test_edits_are_source_target_pairs():
    g = graph_of(12)
    assert apply_edge_edits(g, [(3, 5)]) == apply_edge_edits(g, [EdgeEdit(3, 5)])
    for edit in ((1,), 5, (1, 2, 3)):
        with pytest.raises(UnsupportedAttack) as err:
            apply_edge_edits(g, [edit])
        assert repr(edit) in str(err.value)


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


def test_classify_spells_the_watermark_of_every_codeword_graph():
    for w in range(2, 1 << 12):
        report = classify_graph(graph_of(w))
        assert report.valid and report.watermark == w
    rng = random.Random(20181227)
    for n in (512, 4096):
        for _ in range(4):
            w = (1 << (n - 1)) | rng.getrandbits(n - 1)
            report = classify_graph(graph_of(w))
            assert report.valid and report.watermark == w


def test_classify_needs_the_leading_bit():
    g = graph_of(12)  # n = 4: element 5 targets the header 10
    graphs = [apply_edge_edits(g, [EdgeEdit(5, 9)])]
    for back_edges in [(2,), (4, 4, 4), (5, 5, 5, 5)]:  # too small to hold a watermark
        graphs.append(ReduciblePermutationGraph(back_edges))
    for edited in graphs:
        report = classify_graph(edited)
        assert not report.valid and report.watermark is None
        assert report.reasons


def test_valid_verdict_runs_neither_sip_nor_template_checks(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the valid path ran a redundant check")

    graphs = {w: graph_of(w) for w in (2, 7, 12, 27, (1 << 64) - 5)}
    edited = apply_edge_edits(graph_of(12), [EdgeEdit(3, 5)])
    monkeypatch.setattr(integrity, "template_failures", refuse)
    monkeypatch.setattr(rpg, "dmax_map", refuse)
    monkeypatch.setattr(SelfInvertingPermutation, "__init__", refuse)
    for w, g in graphs.items():
        report = classify_graph(g)
        assert report.valid and report.watermark == w
    with pytest.raises(AssertionError):  # the patches are live
        classify_graph(edited)


def test_classify_builds_no_invalid_permutation(monkeypatch):
    # _trusted skips the constructor's checks, so every permutation it
    # wraps must pass them already
    real_trusted = sip._Value._trusted.__func__
    built, invalid = [], []

    def checked(cls, *values):
        if cls is SelfInvertingPermutation:
            built.append(values[0])
            try:
                sip._require_sip(values[0])
            except SipInvariantError as exc:
                invalid.append((values[0], str(exc)))
        return real_trusted(cls, *values)

    graphs = [graph_of(w) for w in range(2, 64)]
    monkeypatch.setattr(sip._Value, "_trusted", classmethod(checked))
    for g in graphs:
        for source in range(1, g.n_star + 1):
            for target in range(g.header + 2):
                classify_graph(apply_edge_edits(g, [EdgeEdit(source, target)]))
    assert built  # the valid graphs' decodes re-encode
    assert invalid == []


def test_classify_rebuilds_once_and_re_encodes_at_most_once(monkeypatch):
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        integrity, "reconstruct_permutation", counted("rebuild", rpg.reconstruct_permutation)
    )
    monkeypatch.setattr(sip, "encode_w_to_sip", counted("encode", sip.encode_w_to_sip))
    rng = random.Random(20181227)
    graphs = [graph_of(w) for w in range(8, 16)]
    graphs += [graph_of((1 << (n - 1)) | rng.getrandbits(n - 1)) for n in (64, 512)]
    kinds = Counter()
    for g in graphs:
        for source in range(1, g.n_star + 1):
            for target in (-1, 0, source - 1, source + 1, g.header, g.header + 1):
                edited = apply_edge_edits(g, [EdgeEdit(source, target)])
                calls.clear()
                report = classify_graph(edited)
                assert calls["rebuild"] == 1, edited.back_edges
                if report.valid:
                    kinds["valid"] += 1
                    assert calls["encode"] == 1, edited.back_edges
                elif all(i < t <= edited.header for i, t in enumerate(edited.back_edges, 1)):
                    kinds["upward"] += 1
                    assert calls["encode"] <= 1, edited.back_edges
                else:
                    kinds["downward"] += 1
                    assert calls["encode"] == 0, edited.back_edges
    assert min(kinds["valid"], kinds["upward"], kinds["downward"]) > 100, kinds


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
