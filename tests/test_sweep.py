"""The columnar sweep and the CLI's tables against the per-watermark
reference in ``reference_sweep.py``, and a work count that keeps the
sweep's per-row Python from growing back."""

from collections import Counter

import pytest
import reference_sweep
from reference_sweep import report_record

import wrpg.resilience as resilience
from wrpg.cli import main
from wrpg.errors import InternalInvariantError
from wrpg.resilience import survey_range, verify_theorem
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


@pytest.mark.parametrize(
    "broken",
    [
        lambda w, neighbor, cost: (neighbor, cost + (w == 300)),
        lambda w, neighbor, cost: (-5 if w == 301 else neighbor, cost),
        lambda w, neighbor, cost: (w if w == 301 else neighbor, cost + (w == 300)),
        lambda w, neighbor, cost: (neighbor + (1 << 70) * (w == 301), cost),
        lambda w, neighbor, cost: (neighbor, cost + (w > 300 and neighbor > w)),
    ],
)
def test_a_broken_witness_fails_as_in_the_reference(monkeypatch, broken):
    proof_neighbors = resilience._proof_neighbors
    monkeypatch.setattr(
        resilience,
        "_proof_neighbors",
        lambda w, n, shape: [
            (*broken(w, neighbor, cost), rule) for neighbor, cost, rule in proof_neighbors(w, n, shape)
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
    shaped, priced = Counter(), []
    real_shape, real_closed = resilience.bit_shape, resilience._closed_form

    def counted_shape(w):
        shaped[w.bit_length()] += 1
        return real_shape(w)

    def counted_closed(shape):
        priced.append(shape)
        return real_closed(shape)

    monkeypatch.setattr(resilience, "bit_shape", counted_shape)
    monkeypatch.setattr(resilience, "_closed_form", counted_closed)
    verify_theorem(4, 12)
    assert set(shaped) == set(range(4, 13))
    assert all(shaped[n] <= 2 * n - 1 for n in shaped), shaped
    assert 0 < len(priced) <= sum(2 * n - 1 for n in range(4, 13))
