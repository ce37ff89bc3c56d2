"""The columnar sweep, the CLI's tables and the constructive rewrites
against the per-watermark reference in ``reference_sweep.py``, and a
work count that keeps the sweep's per-row Python from growing back."""

import random
from collections import Counter

import pytest
import reference_sweep
from reference_sweep import report_record

import wrpg.resilience as resilience
from wrpg.cli import main
from wrpg.errors import InternalInvariantError
from wrpg.resilience import proof_neighbors, strong_watermark_of, survey_range, verify_theorem
from wrpg.sip import bit_shape

WRITERS = {"csv": reference_sweep.rows_csv, "json": reference_sweep.rows_json}


@pytest.mark.parametrize("n", range(2, 15))
def test_survey_matches_the_per_watermark_reference(n):
    reports = survey_range(n)
    expected = reference_sweep.length_reports(n)
    assert [report_record(r) for r in reports] == [report_record(r) for r in expected]
    assert reports == expected


def test_verify_theorem_matches_the_per_watermark_reference():
    result = verify_theorem(4, 14)
    reports, summaries, mismatches = reference_sweep.verify_theorem(4, 14)
    assert [report_record(r) for r in result.reports] == [report_record(r) for r in reports]
    assert result.reports == reports
    assert result.summaries == summaries
    assert result.mismatches == mismatches == ()


@pytest.mark.parametrize("table_format", sorted(WRITERS))
@pytest.mark.parametrize("n", range(2, 15))
def test_survey_table_matches_the_reference_writer(capsys, n, table_format):
    assert main(["survey", "--bits", str(n), "--format", table_format]) == 0
    assert capsys.readouterr().out == WRITERS[table_format](survey_range(n))


@pytest.mark.parametrize("table_format", sorted(WRITERS))
def test_verify_theorem_table_matches_the_reference_writer(tmp_path, capsys, table_format):
    out = tmp_path / f"rows.{table_format}"
    argv = ["verify-theorem", "--bits-min", "4", "--bits-max", "12", "--format", table_format]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("verified 4088 watermarks: OK\n")
    assert out.read_text() == WRITERS[table_format](verify_theorem(4, 12).reports)


def test_verify_theorem_mismatches_match_the_per_watermark_reference(monkeypatch):
    # price the Case1 shape and two others one higher than the oracle finds
    real = resilience._closed_form
    skewed = {bit_shape(8), bit_shape(27), bit_shape(0b1101111)}
    monkeypatch.setattr(
        resilience, "_closed_form", lambda shape: real(shape) + (shape in skewed)
    )
    result = verify_theorem(4, 9)
    reports, summaries, mismatches = reference_sweep.verify_theorem(4, 9)
    assert result.summaries == summaries
    assert result.mismatches == mismatches
    assert len(mismatches) == sum(s.mismatches for s in summaries) > 2 ** 8
    assert result.reports == reports


@pytest.mark.parametrize("n", range(4, 17))
def test_proof_neighbors_match_the_per_row_reference(n):
    for w in range(1 << (n - 1), 1 << n):
        assert proof_neighbors(w) == reference_sweep.proof_neighbors(w, n, bit_shape(w)), w


@pytest.mark.parametrize("n,sample", [(64, None), (512, 12), (4096, 4)])
def test_proof_neighbors_match_the_per_row_reference_at_large_n(n, sample):
    # random watermarks are almost all Case1, so build the other shapes:
    # every Case2 (ell, r, b_n), and at n = 64 both Case3 forms
    ws = [
        reference_sweep.one_zero_watermark(n, ell, n - 3 - ell, last_bit)
        for ell in range(n - 2)
        for last_bit in (0, 1)
    ]
    if sample is None:
        ws += [(1 << n) - 1, (1 << n) - 2]
    else:
        ws = random.Random(n).sample(ws, sample)
    for w in ws:
        assert proof_neighbors(w) == reference_sweep.proof_neighbors(w, n, bit_shape(w)), w


def test_strong_watermark_formula_matches_the_one_zero_form():
    for n in range(4, 3001):
        if n % 2 == 1:
            ell = (n - 3) // 2
            expected = reference_sweep.one_zero_watermark(n, ell, ell, 1)
        else:
            ell = (n - 4) // 2
            expected = reference_sweep.one_zero_watermark(n, ell, ell + 1, 1)
        assert strong_watermark_of(n) == expected, n


# Two Case2 shapes of bit-length 9; LATE's watermark comes after EARLY's.
EARLY = bit_shape(0b101111110)  # ell 0, r 6, b_n 0
LATE = bit_shape(0b111101110)  # ell 3, r 3, b_n 0


@pytest.mark.parametrize(
    "broken",
    [
        lambda shape, flip, cost: (flip, cost + (shape == EARLY)),
        lambda shape, flip, cost: (-5 if shape == EARLY else flip, cost),
        # LATE fails at its first rule, EARLY only from its second
        lambda shape, flip, cost: (
            0 if shape == LATE else flip, cost + (shape == EARLY and flip > 1)
        ),
        lambda shape, flip, cost: (flip + (1 << 70) * (shape == LATE), cost),
        # from n = 5, in many rows and at several rules of each
        lambda shape, flip, cost: (flip, cost + (flip > 8)),
        lambda shape, flip, cost: (1 << 8 if shape == LATE else flip, cost),  # b_1 of LATE
    ],
)
def test_a_broken_witness_fails_as_in_the_reference(monkeypatch, broken):
    witness_flips = resilience._witness_flips
    monkeypatch.setattr(
        resilience,
        "_witness_flips",
        lambda shape: [
            (*broken(shape, flip, cost), rule) for flip, cost, rule in witness_flips(shape)
        ],
    )
    with pytest.raises(InternalInvariantError) as expected:
        reference_sweep.verify_theorem(4, 10)
    with pytest.raises(InternalInvariantError) as raised:
        verify_theorem(4, 10)
    assert str(raised.value) == str(expected.value)


def test_the_sweep_evaluates_each_shape_once(monkeypatch):
    # At most 2n - 1 distinct shapes per bit-length: one Case1 shape
    # shared by every watermark with two or more internal zeros, and
    # one per other watermark.  A per-row loop would call each rule
    # 2^(n-1) times.
    shaped, priced, flipped, checking = Counter(), [], Counter(), []
    real_shape, real_closed = resilience.bit_shape, resilience._closed_form
    real_flips, real_check = resilience._witness_flips, resilience._check_witnesses

    def counted_shape(w):
        shaped[w.bit_length()] += 1
        return real_shape(w)

    def counted_closed(shape):
        priced.append(shape)
        return real_closed(shape)

    def counted_check(sweep):
        checking.append(sweep.n)
        real_check(sweep)

    def counted_flips(shape):
        flipped[checking[-1]] += 1
        return real_flips(shape)

    monkeypatch.setattr(resilience, "bit_shape", counted_shape)
    monkeypatch.setattr(resilience, "_closed_form", counted_closed)
    monkeypatch.setattr(resilience, "_check_witnesses", counted_check)
    monkeypatch.setattr(resilience, "_witness_flips", counted_flips)
    verify_theorem(4, 12)
    assert set(shaped) == set(range(4, 13))
    assert all(shaped[n] <= 2 * n - 1 for n in shaped), shaped
    assert 0 < len(priced) <= sum(2 * n - 1 for n in range(4, 13))
    assert checking == list(range(4, 13))
    assert all(0 < flipped[n] <= 2 * n - 1 for n in checking), flipped
    # A sweep's reports take each row's shape from the sweep, and analyze
    # classifies its watermark once, whatever its case.
    result = verify_theorem(4, 12)
    shaped.clear()
    assert len(result.reports) == 4088
    assert not shaped
    assert len(survey_range(12)) == 2048
    assert sum(shaped.values()) <= 2 * 12 - 1
    for w in (0b101101, 0b11011, 0b101):  # Case1, Case2, below 4 bits
        shaped.clear()
        resilience.analyze_watermark(w)
        assert sum(shaped.values()) == 1, w
