"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import random
import time
from contextlib import contextmanager

import wrpg.resilience as resilience
from wrpg.cli import main
from wrpg.integrity import EdgeEdit, apply_edge_edits, classify_graph
from wrpg.rpg import (
    check_reducibility,
    decode_rpg_to_sip,
    encode_sip_to_rpg,
    graph_distance,
)
from wrpg.sip import (
    CASE_TWO_ZEROS,
    bit_shape,
    decode_sip_to_w,
    encode_w_to_sip,
    template_failures,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {description}")
        raise
    print(f"[criterion {number}] PASS {description}")


def graph_of(w: int):
    return encode_sip_to_rpg(encode_w_to_sip(w)[0])


def every_watermark(n_max: int):
    return range(2, 1 << n_max)


def test_criterion_1_codec_roundtrip():
    with criterion(1, "decode(encode(w)) = w through both stages"):
        started = time.monotonic()
        for w in every_watermark(12):  # exhaustive, 4094 values
            permutation, _ = encode_w_to_sip(w)
            assert decode_sip_to_w(permutation) == w
            assert decode_rpg_to_sip(encode_sip_to_rpg(permutation)) == permutation
        rng = random.Random(20260809)
        for n in range(13, 17):
            for w in rng.sample(range(1 << (n - 1), 1 << n), 250):
                permutation, _ = encode_w_to_sip(w)
                assert decode_sip_to_w(permutation) == w
                assert decode_rpg_to_sip(encode_sip_to_rpg(permutation)) == permutation
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"round-trip sweep took {elapsed:.1f}s"


def test_criterion_2_template_conformance():
    with criterion(2, "every codeword matches the block template"):
        for w in every_watermark(12):
            permutation, _ = encode_w_to_sip(w)
            n = permutation.n
            assert template_failures(permutation) == []
            elems = permutation.elements
            k = next((i for i in range(1, n) if elems[i] != n + 1 + i), n)
            assert elems[:k] == tuple(range(n + 1, n + k + 1))  # pi1
            assert permutation.alpha == n + k + 1
            if k == n:  # all ones: pi2 and pi4 are empty
                assert permutation.alpha == 2 * n + 1
            else:  # gamma, the last entry, is the position of 2n+1
                assert elems[elems[-1] - 1] == 2 * n + 1


def test_criterion_3_graph_shape():
    with criterion(3, "node/edge counts, target ordering and reducibility"):
        for w in every_watermark(12):
            g = graph_of(w)
            n = w.bit_length()
            assert g.node_count() == 2 * n + 3
            assert g.forward_edge_count() == 2 * n + 2
            assert g.back_edge_count() == 2 * n + 1
            assert all(t > i for i, t in enumerate(g.back_edges, 1))
            assert check_reducibility(g).passed


def test_criterion_4_distance_fixtures():
    with criterion(4, "hand-derived graph distances"):
        fixtures = [(5, 4, 4), (8, 9, 3), (5, 6, 4), (5, 7, 4), (6, 7, 3)]
        for a, b, expected in fixtures:
            assert graph_distance(graph_of(a), graph_of(b)) == expected, (a, b)


def test_criterion_5_theorem_verification():
    with criterion(5, "closed form equals oracle for 4 <= n <= 12"):
        started = time.monotonic()
        result = resilience.verify_theorem(4, 12)  # raises on witness errors
        for report in result.mismatches:
            print(
                f"COUNTEREXAMPLE n={report.n} w={report.w} "
                f"closed={report.minvm_closed} oracle={report.minvm_oracle} "
                f"nearest={','.join(str(x) for x in report.nearest)}"
            )
        assert result.ok, f"{len(result.mismatches)} closed-form/oracle mismatches"
        assert len(result.reports) == sum(1 << (n - 1) for n in range(4, 13))
        closed = {r.w: r.minvm_closed for r in result.reports if r.n == 4}
        assert closed == {8: 3, 9: 3, 10: 4, 11: 4, 12: 4, 13: 4, 14: 4, 15: 4}
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"verification sweep took {elapsed:.1f}s"


def test_criterion_6_separation():
    with criterion(6, "minimum pairwise distance is 3, only between weak forms"):
        for n in range(4, 11):
            least = None
            for w in range(1 << (n - 1), 1 << n):
                best, nearest = resilience.minvm_oracle(w)
                assert best >= 3, (w, best)
                least = best if least is None else min(least, best)
                if best == 3:
                    assert bit_shape(w).case == CASE_TWO_ZEROS, w
                    for other in nearest:
                        assert bit_shape(other).case == CASE_TWO_ZEROS, (w, other)
            assert least == 3, f"minimum pairwise distance at n={n} is {least}"
        # consequence: one retargeting never lands on another codeword
        for n in (4, 5):
            for w in range(1 << (n - 1), 1 << n):
                g = graph_of(w)
                for source in range(1, g.n_star + 1):
                    for target in range(0, g.n_star + 2):
                        if target == g.target_of(source):
                            continue
                        edited = apply_edge_edits(g, [EdgeEdit(source, target)])
                        assert not classify_graph(edited).valid, (w, source, target)
        rng = random.Random(1)
        for n in range(6, 11):
            for _ in range(40):
                w = rng.randrange(1 << (n - 1), 1 << n)
                g = graph_of(w)
                source = rng.randrange(1, g.n_star + 1)
                target = rng.choice(
                    [t for t in range(0, g.n_star + 2) if t != g.target_of(source)]
                )
                edited = apply_edge_edits(g, [EdgeEdit(source, target)])
                assert not classify_graph(edited).valid, (w, source, target)


def test_criterion_7_strength_classification():
    with criterion(7, "strong/weak classification against the oracle"):
        five = resilience.verify_theorem(5, 5).summaries[0]
        assert five.argmax == (27,) and five.argmax_unique
        six = resilience.verify_theorem(6, 6).summaries[0]
        assert 55 in six.argmax
        assert six.strong == 55 and six.strong_in_argmax and six.strong_has_min_nearest
        for n in range(4, 11):
            for w in range(1 << (n - 1), 1 << n):
                is_weak = resilience.classify_strength(w) == resilience.WEAK
                assert is_weak == (bit_shape(w).case == CASE_TWO_ZEROS), w
                if is_weak:
                    assert resilience.minvm_closed_form(w) == 3


def test_criterion_8_cli_contract(tmp_path, capsys, monkeypatch):
    with criterion(8, "CLI exit codes 0/2/3/4 and byte-stable CSV"):
        monkeypatch.chdir(tmp_path)
        assert main(["encode", "12", "--show-sip"]) == 0
        assert capsys.readouterr().out == "5 6 9 8 1 2 7 4 3\n"
        assert main(["decode", "f12.json"]) == 0
        assert capsys.readouterr().out == "VALID w=12\n"
        assert main(["attack", "f12.json", "--edits", "3:5"]) == 0
        capsys.readouterr()
        assert main(["decode", "f12.attacked.json"]) == 2
        capsys.readouterr()
        assert main(["encode", "1"]) == 3
        (tmp_path / "trunc.json").write_text('{"version": 1')
        assert main(["decode", "trunc.json"]) == 3
        capsys.readouterr()
        assert main(["survey", "--bits", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["survey", "--bits", "4"]) == 0
        assert capsys.readouterr().out == first
        assert first.splitlines()[1].startswith("4,8,Case1,,,,3,3,true,")
        assert main(["verify-theorem", "--bits-min", "4", "--bits-max", "6"]) == 0
        capsys.readouterr()
        real = resilience._closed_form
        monkeypatch.setattr(
            resilience,
            "_closed_form",
            lambda shape: real(shape) + (1 if shape == bit_shape(13) else 0),
        )
        assert main(["verify-theorem", "--bits-min", "4", "--bits-max", "4"]) == 4
        assert "MISMATCH n=4 w=13" in capsys.readouterr().out
