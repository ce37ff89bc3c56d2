import hashlib
import importlib.util
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from reference_sweep import join_minima

import wrpg.resilience as resilience
from wrpg.cli import main
from wrpg.errors import (
    OutOfTheoremRange,
    ResourceBoundError,
    WatermarkDomainError,
)
from wrpg.resilience import (
    ORDINARY,
    STRONG,
    WEAK,
    analyze_watermark,
    classify_strength,
    encoded_distance,
    minvm_closed_form,
    minvm_oracle,
    proof_neighbors,
    strong_watermark_of,
    survey_range,
    verify_theorem,
)
from wrpg.rpg import dmax_map, encode_sip_to_rpg, graph_distance
from wrpg.sip import CASE_TWO_ZEROS, bit_shape, encode_w_to_sip


def graph_of(w: int):
    return encode_sip_to_rpg(encode_w_to_sip(w)[0])


# Four-bit closed-form values, by case:
#   8, 9 have two internal zeros; 10..13 have one; 14, 15 have none.
FOUR_BIT_CLOSED = {8: 3, 9: 3, 10: 4, 11: 4, 12: 4, 13: 4, 14: 4, 15: 4}


@pytest.mark.parametrize("w,expected", sorted(FOUR_BIT_CLOSED.items()))
def test_closed_form_four_bits(w, expected):
    assert minvm_closed_form(w) == expected


@pytest.mark.parametrize(
    "w,expected",
    [
        (8, 3),        # two internal zeros
        (27, 5),       # 11011: 4 + min(1, 1)
        (54, 5),       # 110110: 4 + min(1, 2-1)
        (15, 4),       # all ones
        (29, 4),       # 11101: 4 + min(2, 0)
        (46, 4),       # 101110: 4 + min(0, 3-1)
        (60, 4),       # 111100: one internal zero with r = 0
    ],
)
def test_closed_form_examples(w, expected):
    assert minvm_closed_form(w) == expected


def test_closed_form_rejects_small_bit_lengths():
    for w in (5, 7, 2):
        with pytest.raises(OutOfTheoremRange):
            minvm_closed_form(w)


@pytest.mark.parametrize(
    "w,best,nearest",
    [
        (5, 4, (4, 6, 7)),
        (6, 3, (7,)),  # three-bit deviation from the closed-form rules
    ],
)
def test_oracle_three_bit_values(w, best, nearest):
    assert minvm_oracle(w) == (best, nearest)


def test_oracle_for_eight_includes_nine():
    best, nearest = minvm_oracle(8)
    assert best == 3
    assert 9 in nearest


def test_oracle_matches_pairwise_graph_distance_at_n4():
    # cross-check the vectorized row comparison against the plain
    # per-graph distance function
    graphs = {w: graph_of(w) for w in range(8, 16)}
    for w in graphs:
        best, nearest = minvm_oracle(w)
        plain = {
            other: graph_distance(graphs[w], graphs[other])
            for other in graphs
            if other != w
        }
        assert best == min(plain.values())
        assert nearest == tuple(sorted(o for o, d in plain.items() if d == best))
        for other in plain:
            assert encoded_distance(w, other) == plain[other]


def test_encoded_distance_builds_no_table_at_large_bit_lengths(monkeypatch):
    def no_table(n):
        raise AssertionError(f"built the {n}-bit table")

    monkeypatch.setattr(resilience, "_encoded_range", no_table)
    # two internal zeros: the swap of the two largest elements costs 3
    assert encoded_distance(1 << 40, (1 << 40) + 1) == 3
    with pytest.raises(WatermarkDomainError):
        encoded_distance(1 << 40, 1 << 41)


def loop_table(n: int) -> np.ndarray:
    """The table built one watermark at a time through the codec, as
    ``_encoded_range`` did before it was vectorised."""
    lo = 1 << (n - 1)
    rows = np.empty((lo, 2 * n + 1), dtype=np.uint8)
    for idx, w in enumerate(range(lo, 2 * lo)):
        rows[idx] = dmax_map(encode_w_to_sip(w)[0].elements)
    return rows


def test_vectorised_table_matches_the_codec_on_every_row():
    for n in range(2, 15):
        rows = resilience._encoded_range(n)
        assert rows.dtype == np.uint8  # every width below 255
        assert not rows.flags.writeable
        assert np.array_equal(rows, loop_table(n)), n


def test_vectorised_rule_matches_the_codec_beyond_the_exhaustive_range():
    rng = random.Random(2018)
    for n in range(15, 65):
        last = (1 << (n - 1)) - 1
        idx = [0, last] + [rng.randint(0, last) for _ in range(62)]
        maps = resilience._domination_maps(n, np.array(idx, dtype=np.int64))
        assert maps.dtype == np.uint8
        assert maps.tolist() == [
            list(dmax_map(encode_w_to_sip((1 << (n - 1)) + i)[0].elements)) for i in idx
        ], n


def test_table_memory_estimate_counts_the_working_arrays(monkeypatch):
    n, width = 16, 33
    monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: 0)
    with pytest.raises(ResourceBoundError) as refused:
        resilience._encoded_range(n)
    table, work = map(int, re.findall(r"(\d+) bytes", str(refused.value))[:2])
    assert table == (1 << (n - 1)) * width
    assert work == resilience._BUILD_CHUNK * width * resilience._BUILD_CELL_BYTES
    tracemalloc.start()
    try:
        monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: table + work - 1)
        with pytest.raises(ResourceBoundError):
            resilience._encoded_range(n)
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: table + work)
        rows = resilience._encoded_range(n)
        built_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused_peak < table // 16  # refused before allocating the table
    assert rows.nbytes == table
    assert built_peak <= table + work


def test_verify_theorem_refuses_an_oversized_sweep_before_any_work(monkeypatch):
    # 5 MB fits neither the 16-bit table's build (5,406,720 bytes with
    # one chunk's working arrays) nor its join (13,926,400); the sweep
    # checks the join's budget before it builds anything
    def no_join(n):
        raise AssertionError(f"joined bit-length {n} before refusing")

    monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: 5_000_000)
    monkeypatch.setattr(resilience, "_minima_by_row", no_join)
    with pytest.raises(ResourceBoundError) as refused:
        verify_theorem(4, 16, cap=16)
    assert str(refused.value) == (
        "the 16-bit table needs 1081344 bytes plus 12845056 bytes of working arrays, "
        "more than the 5000000 bytes of physical memory"
    )


def test_the_process_holds_one_table():
    old = weakref.ref(resilience._encoded_range(17))
    survey_range(16, cap=16)
    assert old() is None  # released, not merely evicted from the cache
    assert resilience._encoded_range.cache_info().currsize == 1
    verify_theorem(4, 12)
    assert resilience._encoded_range.cache_info().currsize == 1


def test_the_join_budget_covers_every_build():
    # so verify_theorem's one check at n_max covers each smaller build
    for n in range(2, 64):
        assert resilience._join_bytes(n) >= resilience._build_bytes(n), n


def test_join_memory_estimate_covers_the_join():
    for n in range(4, 17):
        resilience._encoded_range(n)  # the table is counted on its own
        tracemalloc.start()
        try:
            resilience._minima_by_row(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= resilience._join_bytes(n), n


@pytest.mark.parametrize(
    "argv",
    [["verify-theorem", "--bits-min", "4", "--bits-max", "16"], ["survey", "--bits", "16"]],
    ids=["verify-theorem", "survey"],
)
def test_sweeps_count_the_join_before_any_work(monkeypatch, capsys, argv):
    # 10 MB fits the 16-bit table with the 4,325,376 bytes of one build
    # chunk (5,406,720) but not with the join's 12,845,056; 5 MB fits
    # neither, and a sweep checks only the join's budget
    def no_join(n):
        raise AssertionError(f"joined bit-length {n} before refusing")

    monkeypatch.setattr(resilience, "_minima_by_row", no_join)
    for physical in (5_000_000, 10_000_000):
        monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda p=physical: p)
        message = (
            "the 16-bit table needs 1081344 bytes plus 12845056 bytes of working arrays, "
            f"more than the {physical} bytes of physical memory"
        )
        if argv[0] == "verify-theorem":
            with pytest.raises(ResourceBoundError) as refused:
                verify_theorem(4, 16, cap=16)
            assert str(refused.value) == message
        assert main(argv + ["--cap-override", "16"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# The join's work, (pairs_verified, full_scans) for n = 2..16, where a
# pair counts once for each group it shares, and one sha256 over its
# minvm, offsets and nearest arrays, as the join first computed them
# (one np.unique key per group and column).
JOIN_WORK = (
    (2, 0), (8, 2), (12, 6), (24, 8), (92, 10), (339, 12), (636, 14), (1658, 16),
    (5239, 18), (14491, 20), (30275, 22), (70320, 24), (198965, 26), (564444, 28),
    (1147585, 30),
)
JOIN_RESULT_SHA256 = "6e18fa6a673211ce0bd93723e4f615c468f1e083574245ba2fe07fe3c0a8cc44"


def test_join_work_and_result_are_pinned():
    digest = hashlib.sha256()
    for n, work in zip(range(2, 17), JOIN_WORK):
        minima = resilience._minima_by_row(n)
        assert (minima.pairs_verified, minima.full_scans) == work, n
        arrays = (minima.minvm, minima.offsets, minima.nearest)
        for array, dtype in zip(arrays, ("<u1", "<i8", "<i8")):
            assert array.dtype == np.dtype(dtype), n
            digest.update(array.tobytes())
    assert digest.hexdigest() == JOIN_RESULT_SHA256


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def run_tool(*argv: str) -> list[list[str]]:
    proc = subprocess.run(
        [sys.executable, str(TOOLS / argv[0]), *argv[1:]], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def load_join_digest():
    spec = importlib.util.spec_from_file_location("join_digest", TOOLS / "join_digest.py")
    join_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(join_digest)
    return join_digest


def test_the_gate_tools_agree_with_the_library():
    # tools/join_digest.py is the join's identity gate, and
    # tools/code_lines.py measures the package's size
    join_digest = load_join_digest()
    lines = run_tool("join_digest.py", "2", "12")
    assert [len(cells) for cells in lines] == [6] * 11
    assert [int(cells[0]) for cells in lines] == list(range(2, 13))
    assert [(int(cells[1]), int(cells[2])) for cells in lines] == list(JOIN_WORK[:11])
    for n, cells in zip(range(2, 13), lines):
        assert cells[4] == join_digest.digest(resilience._minima_by_row(n)), n
        assert int(cells[5]) <= resilience._join_bytes(n), n
    *modules, (name, total) = run_tool("code_lines.py")
    assert name == "total"
    assert [module for module, _ in modules] == sorted(
        path.name for path in (TOOLS.parent / "src" / "wrpg").glob("*.py")
    )
    assert int(total.replace(",", "")) == sum(int(count.replace(",", "")) for _, count in modules)


# The join's work and the sha256 of tools/join_digest.py for n = 17..20,
# as the join computed them when each group was first joined on its own.
JOIN_WORK_TO_20 = {
    17: (2639490, 32, "55b2cb03ae98bda0ef71716cd22e06b718ecbd9ea77c04aa1c57274fc64a7899"),
    18: (7487197, 34, "252ab6abed1733f131314ee76db9f5f36ff5faf14daa6f39c527bccf6eae1487"),
    19: (20460180, 36, "b0e0fafad390010e369a33c247cf0454e7b4e69a8373f9fdf84d6266d724ad51"),
    20: (42000735, 38, "b2b3f66f76f9866c045c1a6ba5dc097f8f7980105d083eeb5c00dc49664b79fe"),
}


@pytest.mark.slow
def test_the_join_is_pinned_to_20_bits():
    # 12-14 s on 2 vCPUs, with a 21 MB table and a 71 MB join peak at n = 20;
    # run with `pytest -m slow`
    join_digest = load_join_digest()
    for n, (pairs, scans, sha) in JOIN_WORK_TO_20.items():
        resilience._encoded_range(n)  # the table is counted on its own
        tracemalloc.start()
        try:
            minima = resilience._minima_by_row(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (minima.pairs_verified, minima.full_scans) == (pairs, scans), n
        assert join_digest.digest(minima) == sha, n
        assert peak <= resilience._join_bytes(n), n


def test_oracle_enforces_the_enumeration_cap():
    with pytest.raises(ResourceBoundError):
        minvm_oracle(1 << 14)  # 15 bits > default cap
    best, _ = minvm_oracle(1 << 14, cap=15)
    assert best >= 3


def test_join_matches_the_brute_force_oracle_on_every_small_watermark():
    for n in range(2, 13):
        lo = 1 << (n - 1)
        minima = join_minima(n)
        assert len(minima) == lo
        for w in range(lo, 1 << n):
            assert minima[w - lo] == minvm_oracle(w), w


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_join_matches_the_brute_force_oracle_on_non_weak_and_sampled_watermarks(n):
    lo = 1 << (n - 1)
    minima = join_minima(n)
    non_weak = [w for w in range(lo, 1 << n) if bit_shape(w).case != CASE_TWO_ZEROS]
    assert len(non_weak) == 2 * n - 2
    sample = random.Random(20181227 + n).sample(range(lo, 1 << n), 256)
    for w in non_weak + sample:
        assert minima[w - lo] == minvm_oracle(w, cap=n), w


@pytest.mark.parametrize("n,percent", [(12, 2), (14, 1)])
def test_join_work(n, percent):
    rows = 1 << (n - 1)
    result = resilience._minima_by_row(n)
    assert result.pairs_verified < percent / 100 * rows * (rows - 1) / 2
    assert result.full_scans == 2 * n - 2


def test_proof_neighbors_examples():
    neighbors54 = proof_neighbors(54)
    assert (55, 5, "swap") in neighbors54
    assert (58, 5, "move-out-pi2") in neighbors54
    assert (63, 6, "all-ones") in neighbors54
    assert proof_neighbors(15) == [(12, 4, "move-out")]
    assert proof_neighbors(14) == [(13, 4, "move-out")]
    assert proof_neighbors(8) == [(9, 3, "swap")]
    assert proof_neighbors(12) == [(10, 4, "move-out-pi1")]
    neighbors13 = proof_neighbors(13)
    assert (12, 5, "swap") in neighbors13
    assert (14, 4, "move-out-pi2") in neighbors13


def test_proof_neighbors_rejects_small_bit_lengths():
    with pytest.raises(OutOfTheoremRange):
        proof_neighbors(5)


def test_proof_neighbors_are_sound_witnesses():
    for n in range(4, 9):
        for w in range(1 << (n - 1), 1 << n):
            for neighbor, cost, rule in proof_neighbors(w):
                assert neighbor.bit_length() == n, (w, neighbor, rule)
                assert neighbor != w
                assert encoded_distance(w, neighbor) == cost, (w, neighbor, rule)


def test_minimum_witness_cost_equals_closed_form():
    for n in range(4, 11):
        for w in range(1 << (n - 1), 1 << n):
            costs = [cost for _, cost, _ in proof_neighbors(w)]
            assert min(costs) == minvm_closed_form(w), w


@pytest.mark.parametrize(
    "n,expected",
    [(4, 11), (5, 27), (6, 55), (7, 119), (8, 239), (9, 495)],
)
def test_strong_watermark_forms(n, expected):
    assert strong_watermark_of(n) == expected


def test_strong_watermark_rejects_small_bit_lengths():
    with pytest.raises(OutOfTheoremRange):
        strong_watermark_of(3)


def test_strong_watermark_refuses_sizes_beyond_memory(monkeypatch):
    # refused before any n-bit integer is built, so no case allocates
    with pytest.raises(ResourceBoundError, match=f"needs {2**67} bytes"):
        strong_watermark_of(2**70)
    monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: 1 << 20)
    with pytest.raises(ResourceBoundError) as refused:
        strong_watermark_of(2**23 + 8)
    assert str(refused.value) == (
        f"the {2**23 + 8}-bit watermark needs {2**20 + 1} bytes, "
        f"more than the {2**20} bytes of physical memory"
    )
    assert strong_watermark_of(64) == ((1 << 64) - 1) ^ (1 << 32)


@pytest.mark.parametrize(
    "w,expected",
    [(9, WEAK), (27, STRONG), (15, ORDINARY), (55, STRONG), (54, ORDINARY)],
)
def test_classify_strength(w, expected):
    assert classify_strength(w) == expected


def test_analyze_below_theorem_range_reports_oracle_only():
    report = analyze_watermark(5)
    assert report.minvm_closed is None
    assert report.strength is None
    assert report.agreement is None
    assert report.minvm_oracle == 4
    assert report.nearest == (4, 6, 7)


def test_analyze_in_range():
    report = analyze_watermark(27)
    assert report.minvm_closed == 5
    assert report.minvm_oracle == 5
    assert report.agreement is True
    assert report.strength == STRONG
    assert all(x != 27 and x.bit_length() == 5 for x in report.nearest)


def test_survey_is_ascending_and_complete():
    reports = survey_range(4)
    assert [r.w for r in reports] == list(range(8, 16))
    assert {r.w: r.minvm_closed for r in reports} == FOUR_BIT_CLOSED
    with pytest.raises(WatermarkDomainError):
        survey_range(1)


def test_verify_theorem_four_bits():
    result = verify_theorem(4, 4)
    assert result.ok
    assert len(result.reports) == 8
    summary = result.summaries[0]
    assert summary.max_minvm == 4
    assert summary.strong == 11
    assert summary.strong_in_argmax and summary.strong_has_min_nearest


def test_verify_theorem_five_bits_argmax_is_the_strong_form():
    result = verify_theorem(5, 5)
    summary = result.summaries[0]
    assert summary.argmax == (27,)
    assert summary.argmax_unique


@pytest.mark.parametrize(
    "call,args",
    [
        (strong_watermark_of, (4.5,)),
        (strong_watermark_of, (5.0,)),
        (strong_watermark_of, (True,)),
        (survey_range, (4.0,)),
        (survey_range, (4, 14.0)),
        (verify_theorem, (4.0, 5)),
        (verify_theorem, (4, "5")),
        (verify_theorem, (4, 5, None)),
        (minvm_oracle, (9, "x")),
        (minvm_oracle, (9, True)),
        (analyze_watermark, (9, 14.5)),
    ],
)
def test_non_integer_bit_lengths_and_caps_are_domain_errors(call, args):
    with pytest.raises(WatermarkDomainError):
        call(*args)


def test_verify_theorem_argument_validation():
    with pytest.raises(OutOfTheoremRange):
        verify_theorem(3, 5)
    with pytest.raises(WatermarkDomainError):
        verify_theorem(6, 5)
    with pytest.raises(ResourceBoundError):
        verify_theorem(4, 20)
