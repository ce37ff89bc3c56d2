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
import reference_scan
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


def columns_from_bits(w: int) -> list[int]:
    """Columns ``1..n`` of ``w``'s row by rule (R2) of ``_minima_by_row``,
    straight from the bits."""
    n = w.bit_length()
    bits = [int(bit) for bit in bin(w)[2:]]  # b_1..b_n
    k = sum(bits)
    zeros = [n + j for j, bit in enumerate(bits, 1) if not bit] + [2 * n + 1]  # 0-positions > n
    a, columns, z = zeros[0], [], 0
    for bit in bits:
        if not bit:
            z += 1
        elif z >= 2:
            columns.append(n + 2 - z)
        else:
            columns.append(a if z == 1 else zeros[1] if k < n else 2 * n)
    columns += range(k + 2, n + 1)  # e + 1 for k < e < n
    return columns + [a] * (k < n)


def test_columns_one_to_n_follow_from_the_bits():
    for n in range(2, 11):
        for w in range(1 << (n - 1), 1 << n):
            assert columns_from_bits(w) == list(resilience._row(w)[:n]), w
    rng = random.Random(28)
    for n in (64, 512, 4096):
        lo = 1 << (n - 1)
        seeded = [rng.randrange(lo, 2 * lo) for _ in range(4)]
        for w in [2 * lo - 1, 2 * lo - 2, lo, lo + 1] + seeded:
            assert columns_from_bits(w) == list(resilience._row(w)[:n]), (n, w)


def test_watermarks_two_or_three_bits_apart_are_at_least_4_apart():
    # the lemma the single-flip join rests on, on every row of the table
    for n in range(3, 14):
        rows = resilience._encoded_range(n)
        idx = np.arange(len(rows))
        for mask in range(1, len(rows)):
            if mask.bit_count() in (2, 3):
                assert np.count_nonzero(rows != rows[idx ^ mask], axis=1).min() >= 4, (n, mask)


def test_rows_differ_in_at_least_the_bits_plus_the_change_in_ones():
    # the bound d >= h + |k' - k| proved in _domination_maps, on every pair;
    # no library code relies on it
    for n in range(2, 11):
        rows = resilience._encoded_range(n)
        idx = np.arange(len(rows))
        ones = np.bitwise_count(idx).astype(np.int64)
        for mask in range(1, len(rows)):
            d = np.count_nonzero(rows != rows[idx ^ mask], axis=1)
            assert np.all(d >= mask.bit_count() + abs(ones - ones[idx ^ mask])), (n, mask)


def test_far_rows_have_their_nearest_within_two_bits():
    # a pinned observation, not a proved rule that the library may use: the
    # nearest watermarks of a row with no flip within 3 differ from it in at
    # most two bits, and at every n the farthest of them in exactly two
    for n in range(3, 17):
        far = resilience._minima_by_row(n).far
        bits = [(row ^ other).bit_count() for row, rows in far.items() for other in rows.tolist()]
        assert max(bits) == 2, n


def test_the_witness_check_holds_less_than_a_table_above_the_sweep():
    sweep = resilience._sweep_length(16)
    tracemalloc.start()
    try:
        resilience._check_witnesses(sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < resilience._table_bytes(16)


def test_the_table_is_stored_by_column():
    for n in (2, 9, 16):
        cols = resilience._encoded_range(n).T
        assert cols.shape == (2 * n + 1, 1 << (n - 1))
        assert cols.flags.c_contiguous, n
        assert not cols.flags.writeable, n


def test_the_join_holds_less_than_one_table_above_its_table():
    resilience._encoded_range(16)  # the table is counted on its own
    tracemalloc.start()
    try:
        resilience._minima_by_row(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < resilience._table_bytes(16)


def test_the_oracle_scan_holds_less_than_half_a_table():
    # a row of two internal zeros and the strong watermark, which the join
    # scans as a far row
    resilience._encoded_range(16)  # the table is counted on its own
    for w in (1 << 15, resilience.strong_watermark_of(16)):
        tracemalloc.start()
        try:
            minvm_oracle(w, cap=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < resilience._table_bytes(16) // 2, w


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


def test_the_join_holds_less_than_two_tables():
    # the flip masks take one integer per row, so what the join holds above
    # its table is mostly one far row's scan
    resilience._encoded_range(16)  # the table is counted on its own
    tracemalloc.start()
    try:
        resilience._minima_by_row(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * resilience._table_bytes(16)


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


# The join's work, (pairs_verified, full_scans) for n = 2..16, where each
# row is compared once with each of its single-bit flips, and one sha256
# over its minvm, offsets and nearest arrays, as the join first computed
# them (one np.unique key per group and column).  The join keeps nearest
# sets as flip masks and far rows, so the test rebuilds those compressed
# rows from nearest_count and nearest_of.
JOIN_WORK = (
    (1, 0), (4, 2), (12, 6), (32, 8), (80, 10), (192, 12), (448, 14), (1024, 16),
    (2304, 18), (5120, 20), (11264, 22), (24576, 24), (53248, 26), (114688, 28),
    (245760, 30),
)
JOIN_RESULT_SHA256 = "6e18fa6a673211ce0bd93723e4f615c468f1e083574245ba2fe07fe3c0a8cc44"


def test_join_work_and_result_are_pinned():
    digest = hashlib.sha256()
    for n, work in zip(range(2, 17), JOIN_WORK):
        minima = resilience._minima_by_row(n)
        assert (minima.pairs_verified, minima.full_scans) == work, n
        count = minima.nearest_count
        offsets = np.concatenate(([0], np.cumsum(count)))
        nearest = np.array([w for row in range(len(count)) for w in minima.nearest_of(row)])
        arrays = (minima.minvm, offsets, nearest)
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
    assert [len(cells) for cells in lines] == [7] * 11
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


# The join's work and the sha256 of tools/join_digest.py for n = 17..22,
# the digests as the join computed them when each group was first joined
# on its own, the pairs as the single-flip join counts them; those at 21
# and 22 as it computed them while it scanned its far rows in groups.
JOIN_WORK_TO_22 = {
    17: (524288, 32, "55b2cb03ae98bda0ef71716cd22e06b718ecbd9ea77c04aa1c57274fc64a7899"),
    18: (1114112, 34, "252ab6abed1733f131314ee76db9f5f36ff5faf14daa6f39c527bccf6eae1487"),
    19: (2359296, 36, "b0e0fafad390010e369a33c247cf0454e7b4e69a8373f9fdf84d6266d724ad51"),
    20: (4980736, 38, "b2b3f66f76f9866c045c1a6ba5dc097f8f7980105d083eeb5c00dc49664b79fe"),
    21: (10485760, 40, "c898aebfdaddd5d8decef926a5437bc3945b029b240d6cca93697b676ba8a4ec"),
    22: (22020096, 42, "bd6af335ba5b1a9ae0042514d06bc32c5aaa3bc24bbc1e390935bed56ba10365"),
}


@pytest.mark.slow
def test_the_join_is_pinned_to_22_bits():
    # about 11 s on 2 vCPUs, with a 94 MB table and a 60 MB join peak at
    # n = 22; run with `pytest -m slow`
    join_digest = load_join_digest()
    for n, (pairs, scans, sha) in JOIN_WORK_TO_22.items():
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


@pytest.mark.parametrize("n", range(2, 13))
def test_the_distance_kernel_equals_the_join_comparison(n):
    # both halves of every bit, in either order, against the join's
    # whole-half comparison
    cols = resilience._encoded_range(n).T
    for j in range(n - 1):
        pairs = cols.reshape(cols.shape[0], -1, 2, 1 << j)
        expected = reference_scan._join_distances(cols, j)
        for left, right in ((0, 1), (1, 0)):
            found = resilience._distances(pairs[:, :, left], pairs[:, :, right])
            assert found.dtype == np.uint8, (n, j)
            assert np.array_equal(found, expected), (n, j, left)


@pytest.mark.parametrize("n", range(2, 17))
def test_the_distance_kernel_equals_the_pair_distances(n):
    cols = resilience._encoded_range(n).T
    rng = np.random.default_rng(20181227 + n)
    a, b = rng.integers(0, cols.shape[1], size=(2, 512))
    found = resilience._distances(cols[:, a], cols[:, b])
    assert found.dtype == np.uint8
    assert np.array_equal(found, reference_scan._pair_distances(cols, a, b))


def test_the_join_holds_less_than_a_third_of_its_table():
    # one bit's distances hold two bytes per pair, not a bool per cell of
    # half the table
    resilience._encoded_range(16)  # the table is counted on its own
    tracemalloc.start()
    try:
        resilience._minima_by_row(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < resilience._table_bytes(16) // 3


def test_the_oracle_budget_covers_its_row_scan(monkeypatch):
    # with 16-row build chunks the 16-bit row scan needs more than a chunk;
    # at the least memory minvm_oracle admits, it stays within it
    w = strong_watermark_of(16)
    monkeypatch.setattr(resilience, "_BUILD_CHUNK", 16)
    monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: 0)
    with pytest.raises(ResourceBoundError) as refused:
        minvm_oracle(w, cap=16)
    limit = sum(map(int, re.findall(r"(\d+) bytes", str(refused.value))[:2]))
    monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: limit - 1)
    with pytest.raises(ResourceBoundError):
        minvm_oracle(w, cap=16)
    monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: limit)
    tracemalloc.start()
    try:
        found = minvm_oracle(w, cap=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found[0] == minvm_closed_form(w)
    assert peak <= limit


@pytest.mark.parametrize("n", range(2, 17))
def test_the_row_scan_equals_the_grouped_scan(n):
    """The one-row scan gives the grouped scan's ``(minVM, nearest)``: on
    every row up to 10 bits, and on the far rows and 64 seeded rows from
    11 to 16."""
    cols = resilience._encoded_range(n).T
    rows = list(range(cols.shape[1]))
    if n > 10:
        sample = random.Random(20181227 + n).sample(rows, 64)
        rows = sorted(resilience._minima_by_row(n).far) + sample
    for row, (best, nearest) in zip(rows, reference_scan._scan_rows(cols, np.array(rows))):
        found, found_nearest = resilience._scan_row(cols, row)
        assert found == best, (n, row)
        assert np.array_equal(found_nearest, nearest), (n, row)


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
    with pytest.raises(ResourceBoundError, match=f"needs {3 * 2**67} bytes"):
        strong_watermark_of(2**70)
    monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: 1 << 20)
    with pytest.raises(ResourceBoundError) as refused:
        strong_watermark_of(2**23 + 8)
    assert str(refused.value) == (
        f"the {2**23 + 8}-bit watermark needs {3 * (2**20 + 1)} bytes, "
        f"more than the {2**20} bytes of physical memory"
    )
    assert strong_watermark_of(64) == ((1 << 64) - 1) ^ (1 << 32)


def test_strong_watermark_admits_only_what_its_construction_fits(monkeypatch):
    # at 1 MiB, the longest watermark admitted is built within it, and the
    # next bit-length is refused before any integer of its length is built
    limit = 1 << 20
    monkeypatch.setattr(resilience, "_physical_memory_bytes", lambda: limit)
    longest = 8 * (limit // 3)
    tracemalloc.start()
    try:
        assert strong_watermark_of(longest).bit_length() == longest
        admitted_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(ResourceBoundError):
            strong_watermark_of(longest + 1)
        refused_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert admitted_peak <= limit
    assert refused_peak < longest // 8 // 16


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
