"""The bounded search that answers ``analyze_watermark`` without the
table: exact against the oracle and the join wherever they reach, and
re-measured through the codec at bit-lengths no table reaches."""

import random

import pytest
import reference_search

import wrpg.resilience as resilience
from wrpg.resilience import analyze_watermark, minvm_oracle, strong_watermark_of
from wrpg.rpg import encode_sip_to_rpg, graph_distance
from wrpg.sip import CASE_TWO_ZEROS, bit_shape, encode_w_to_sip


def graph_of(w: int):
    return encode_sip_to_rpg(encode_w_to_sip(w)[0])


def oracle_of(report) -> tuple[int, tuple[int, ...]]:
    return report.minvm_oracle, report.nearest


def case1_sample(n: int, count: int) -> list[int]:
    rng = random.Random(20181227 + n)
    sample = []
    while len(sample) < count:
        w = rng.randrange(1 << (n - 1), 1 << n)
        if bit_shape(w).case == CASE_TWO_ZEROS:
            sample.append(w)
    return sample


@pytest.fixture
def no_table(monkeypatch):
    def refuse(n):
        raise AssertionError(f"built the {n}-bit table")

    monkeypatch.setattr(resilience, "_encoded_range", refuse)


@pytest.fixture
def rows_built(monkeypatch):
    """Counts the codewords the search encodes, ``w``'s own included."""
    built = []
    encode = resilience.encode_w_to_sip

    def counted(w):
        built.append(w)
        return encode(w)

    monkeypatch.setattr(resilience, "encode_w_to_sip", counted)
    return built


@pytest.fixture
def fallbacks(monkeypatch, rows_built):
    """Each ``(w, codewords built so far)`` at which analyze falls back to
    the table scan."""
    scans = []
    scan = resilience.minvm_oracle

    def counted(w, cap=resilience.DEFAULT_CAP):
        scans.append((w, len(rows_built)))
        return scan(w, cap=cap)

    monkeypatch.setattr(resilience, "minvm_oracle", counted)
    return scans


# Per bit-length, over every watermark: the codewords that the searches
# which answered built besides w itself, and how many watermarks fell
# back to the table instead.  A looser search bound would build more.
SEARCH_WORK = {
    2: (2, 0), 3: (12, 0), 4: (47, 0), 5: (139, 0), 6: (338, 0), 7: (754, 0),
    8: (1625, 0), 9: (3391, 0), 10: (6936, 0), 11: (14316, 0), 12: (29867, 0),
}


def test_analyze_equals_the_join_on_every_small_watermark(rows_built, fallbacks):
    for n in range(2, 13):
        lo = 1 << (n - 1)
        minima = resilience._minima_by_row(n)
        built = 0
        fallbacks.clear()
        for w in range(lo, 2 * lo):
            expected = int(minima.minvm[w - lo]), minima.nearest_of(w - lo)
            rows_built.clear()
            assert oracle_of(analyze_watermark(w)) == expected, w
            if not fallbacks or fallbacks[-1][0] != w:
                built += len(rows_built) - 1
        assert (built, len(fallbacks)) == SEARCH_WORK[n], n


@pytest.mark.parametrize("n", [13, 14])
def test_analyze_equals_the_oracle_on_non_weak_and_sampled_watermarks(n):
    lo = 1 << (n - 1)
    non_weak = [w for w in range(lo, 1 << n) if bit_shape(w).case != CASE_TWO_ZEROS]
    sample = random.Random(20181227 + n).sample(range(lo, 1 << n), 256)
    for w in non_weak + sample:
        assert oracle_of(analyze_watermark(w)) == minvm_oracle(w), w


def test_the_table_path_gives_the_same_reports(monkeypatch):
    ws = [*range(2, 1 << 9), *random.Random(14).sample(range(1 << 13, 1 << 14), 64)]
    searched = [analyze_watermark(w) for w in ws]
    monkeypatch.setattr(resilience, "_SEARCH_ROWS", 0)
    resilience._encoded_range.cache_clear()
    assert [analyze_watermark(w) for w in ws] == searched
    assert resilience._encoded_range.cache_info().currsize == 1  # the table was scanned


def ball_sample(n: int) -> list[int]:
    lo = 1 << (n - 1)
    return list(range(lo, 2 * lo)) if n <= 8 else random.Random(n).sample(range(lo, 2 * lo), 8)


@pytest.mark.parametrize("n", range(2, 33))
def test_the_survivor_count_equals_the_enumeration(n, monkeypatch):
    """The ball's entries are distinct and include w, and it is None
    exactly when it holds more than ``_SEARCH_ROWS`` codewords besides
    w: its count, taken before it is listed, equals its listing."""
    for w in ball_sample(n):
        for budget in range(1, 5):
            monkeypatch.setattr(resilience, "_SEARCH_ROWS", 1 << 62)
            every = resilience._ball(w, n, budget)
            assert w in every and len(set(every)) == len(every)
            for limit in (0, 1, 7, 50):
                monkeypatch.setattr(resilience, "_SEARCH_ROWS", limit)
                capped = resilience._ball(w, n, budget)
                if len(every) - 1 > limit:
                    assert capped is None, (w, budget, limit)
                else:
                    assert capped == every, (w, budget, limit)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 11])
def test_the_survivors_are_every_watermark_within_the_bit_bound(n, monkeypatch):
    """The ball is every v with ``h + |k' - k| <= budget``, and within
    the join's radius only the v with ``h <= 1``."""
    monkeypatch.setattr(resilience, "_SEARCH_ROWS", 1 << 62)
    lo = 1 << (n - 1)
    for w in ball_sample(n):
        k = w.bit_count()
        bound = {v: ((v ^ w).bit_count(), abs(v.bit_count() - k)) for v in range(lo, 2 * lo)}
        for budget in range(1, 9):
            within = sorted(
                v for v, (h, dk) in bound.items()
                if h + dk <= budget and (h <= 1 or budget > resilience._JOIN_RADIUS)
            )
            assert sorted(resilience._ball(w, n, budget)) == within, (w, budget)


@pytest.mark.parametrize("n", range(2, 15))
def test_the_ball_search_equals_the_suffix_column_search(n):
    """Wherever both answer, the search over the bit ball gives the
    suffix-column search's ``(minVM, nearest)``, and it gives up on no
    watermark that the suffix-column search answers.  Every watermark up
    to 12 bits, and every one with fewer than two internal zeros at 13
    and 14 (a weak one never gives up)."""
    lo = 1 << (n - 1)
    given_up, given_up_before = set(), set()
    for w in range(lo, 2 * lo):
        shape = bit_shape(w)
        if n > 12 and shape.case == CASE_TWO_ZEROS:
            continue
        found = resilience._nearest_by_search(w, n, shape)
        before = reference_search.nearest_by_search(w, n, shape)
        if found is None:
            given_up.add(w)
        if before is None:
            given_up_before.add(w)
        elif found is not None:
            assert found == before, w
    assert given_up <= given_up_before


@pytest.mark.parametrize("flip", [0, -5])
def test_a_flip_that_is_no_rewrite_does_not_seed_the_search(monkeypatch, flip):
    """The search is exact whatever the witnesses hold: a flip of 0 would
    measure w against itself, and a negative one leaves the watermarks."""
    monkeypatch.setattr(resilience, "_witness_flips", lambda shape: [(flip, 3, "swap")])
    assert oracle_of(analyze_watermark(45)) == minvm_oracle(45) == (3, (44,))
    for w in (45, 0b110111, 0b111111):  # Case1, Case2, Case3
        assert oracle_of(analyze_watermark(w)) == minvm_oracle(w), w


@pytest.mark.parametrize("n", [32, 64])
def test_the_search_is_exact_beyond_any_table(n, no_table):
    for w in case1_sample(n, 3):
        found = resilience._nearest_by_search(w, n, bit_shape(w))
        assert found is not None, w  # within the search budget
        best, nearest = found
        assert nearest == tuple(sorted(nearest)) and w not in nearest
        graph = graph_of(w)
        for v in nearest:
            assert v.bit_length() == n
            assert graph_distance(graph, graph_of(v)) == best
        # Every rewrite by one or two bit flips is at least as far, and
        # exactly as far only when the search reported it.
        flips = [1 << i for i in range(n - 1)]
        flips += [a | b for i, a in enumerate(flips) for b in flips[:i]]
        for flip in flips:
            d = graph_distance(graph, graph_of(w ^ flip))
            assert d >= best and (d == best) == (w ^ flip in nearest), (w, flip)
        # a finding, not an input: the closed form prices Case1 at 3
        assert best == resilience.minvm_closed_form(w)


def test_weak_watermarks_stay_within_the_search_budget(rows_built, no_table):
    for w in case1_sample(14, 64):
        rows_built.clear()
        report = analyze_watermark(w)
        assert report.minvm_oracle == 3
        assert len(rows_built) - 1 <= resilience._SEARCH_ROWS, w


def test_the_strong_watermark_exceeds_the_search_budget_and_scans_the_table(rows_built):
    w = strong_watermark_of(14)
    report = analyze_watermark(w)
    assert resilience._encoded_range.cache_info().currsize == 1  # the table was built
    assert oracle_of(report) == minvm_oracle(w) == (9, (w - 1,))
    assert len(rows_built) - 1 <= 14
    assert resilience._ball(w, 14, report.minvm_oracle) is None


FALLBACKS = {
    13: {8062, 8063, 8126, 8127, 8159},
    14: {16126, 16127, 16254, 16255, 16318, 16319, 16351},
}


@pytest.mark.parametrize("n, count", [(13, 5), (14, 7)])
def test_a_fallback_builds_no_more_than_the_witnesses(n, count, rows_built, fallbacks):
    """A watermark that falls back builds at most n codewords besides
    itself before the table scan: its witnesses, not a search it drops.
    Only watermarks with fewer than two internal zeros fall back."""
    lo = 1 << (n - 1)
    for w in range(lo, 2 * lo):
        if bit_shape(w).case != CASE_TWO_ZEROS:
            rows_built.clear()
            analyze_watermark(w)
    assert len(fallbacks) == count and set(dict(fallbacks)) == FALLBACKS[n]
    assert strong_watermark_of(n) in FALLBACKS[n]
    for w, built in fallbacks:
        assert built - 1 <= n, w
