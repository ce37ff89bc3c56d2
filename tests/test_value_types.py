"""The public value types behave as immutable values: repr text, equality,
hashing, pickling, copying, refused assignment and positional field
order.  Every check here holds whatever the classes are built on."""

import copy
import pickle

import pytest

from wrpg import (
    EdgeEdit,
    EncodingTrace,
    SelfInvertingPermutation,
    WatermarkShape,
    analyze_watermark,
    apply_edge_edits,
    bit_shape,
    classify_graph,
    encode_sip_to_rpg,
    encode_w_to_sip,
    verify_theorem,
)
from wrpg.rpg import check_reducibility


def graph_of(w):
    return encode_sip_to_rpg(encode_w_to_sip(w)[0])


# id: (build the value, build an unequal value of the same type,
#      repr of the value, field names in positional order, hashable)
CASES = {
    "SelfInvertingPermutation": (
        lambda: encode_w_to_sip(12)[0],
        lambda: encode_w_to_sip(13)[0],
        "SelfInvertingPermutation(elements=(5, 6, 9, 8, 1, 2, 7, 4, 3))",
        ("elements",),
        True,
    ),
    "ReduciblePermutationGraph": (
        lambda: graph_of(12),
        lambda: graph_of(13),
        "ReduciblePermutationGraph(back_edges=(8, 8, 4, 7, 10, 10, 8, 9, 10))",
        ("back_edges",),
        True,
    ),
    "EncodingTrace": (
        lambda: encode_w_to_sip(12)[1],
        lambda: encode_w_to_sip(13)[1],
        "EncodingTrace(b_prime='000011000', x_positions=(1, 2, 3, 4, 7, 8, 9), "
        "y_positions=(5, 6), pi_b=(1, 2, 3, 4, 7, 8, 9, 6, 5))",
        ("b_prime", "x_positions", "y_positions", "pi_b"),
        True,
    ),
    "WatermarkShape": (
        lambda: bit_shape(27),
        lambda: bit_shape(12),
        "WatermarkShape(case='Case2', ell=1, r=1, last_bit=1)",
        ("case", "ell", "r", "last_bit"),
        True,
    ),
    "EdgeEdit": (
        lambda: EdgeEdit(3, 9),
        lambda: EdgeEdit(3, 8),
        "EdgeEdit(source=3, new_target=9)",
        ("source", "new_target"),
        True,
    ),
    "ValidityReport": (
        lambda: classify_graph(apply_edge_edits(graph_of(12), [EdgeEdit(3, 9)])),
        lambda: classify_graph(graph_of(12)),
        "ValidityReport(checks={'involution': False, 'single_fixed_point': False, "
        "'range_odd_length': True, 'block_template': False, 'bitonic_pi2': True, "
        "'roundtrip': None}, watermark=None, reasons=('permutation is not its own "
        "inverse', 'expected exactly one fixed point, found 0', 'pi2 must hold exactly "
        "{8..9}, got (9, 3)', 'pi3 must be (1..2, 7), got (8, 1, 2)', 'decoding "
        "skipped: permutation checks failed'))",
        ("checks", "watermark", "reasons"),
        False,  # ``checks`` is a dict
    ),
    "ReducibilityReport": (
        lambda: check_reducibility(apply_edge_edits(graph_of(12), [EdgeEdit(5, 2)])),
        lambda: check_reducibility(graph_of(12)),
        "ReducibilityReport(passed=False, offending_edge=(5, 2), "
        "detail='node 2 does not dominate node 5')",
        ("passed", "offending_edge", "detail"),
        True,
    ),
    "ResilienceReport": (
        lambda: analyze_watermark(12),
        lambda: analyze_watermark(13),
        "ResilienceReport(w=12, n=4, shape=WatermarkShape(case='Case2', ell=1, r=0, "
        "last_bit=0), minvm_closed=4, minvm_oracle=4, nearest=(8, 10, 15), "
        "strength='Ordinary', agreement=True)",
        ("w", "n", "shape", "minvm_closed", "minvm_oracle", "nearest", "strength",
         "agreement"),
        True,
    ),
    "RangeSummary": (
        lambda: verify_theorem(4, 4).summaries[0],
        lambda: verify_theorem(5, 5).summaries[0],
        "RangeSummary(n=4, count=8, max_minvm=4, argmax=(10, 11, 12, 13, 14, 15), "
        "strong=11, strong_in_argmax=True, strong_has_min_nearest=True, "
        "argmax_unique=False, mismatches=0)",
        ("n", "count", "max_minvm", "argmax", "strong", "strong_in_argmax",
         "strong_has_min_nearest", "argmax_unique", "mismatches"),
        True,
    ),
    "TheoremVerification": (
        lambda: verify_theorem(4, 4),
        lambda: verify_theorem(5, 5),
        "TheoremVerification(summaries=(RangeSummary(n=4, count=8, max_minvm=4, "
        "argmax=(10, 11, 12, 13, 14, 15), strong=11, strong_in_argmax=True, "
        "strong_has_min_nearest=True, argmax_unique=False, mismatches=0),), "
        "mismatches=())",
        ("summaries", "mismatches", "_sweeps"),
        True,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    build, build_other, text, fields, hashable = CASES[request.param]
    return build(), build(), build_other(), text, fields, hashable


def test_repr_text(case):
    value, _, _, text, _, _ = case
    assert repr(value) == text


def test_equality_with_the_same_type(case):
    value, same, other, _, _, _ = case
    assert value is not same
    assert value == same and not value != same
    assert value != other and not value == other


def test_hash_follows_equality(case):
    value, same, other, _, _, hashable = case
    if not hashable:
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(value) == hash(same)
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(case, protocol):
    value = case[0]
    restored = pickle.loads(pickle.dumps(value, protocol))
    assert type(restored) is type(value)
    assert restored == value and repr(restored) == repr(value)


def test_copies_are_equal_values(case):
    value = case[0]
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value)
        assert clone == value and repr(clone) == repr(value)


def test_assignment_and_deletion_raise(case):
    value, _, _, text, fields, _ = case
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == text


def test_fields_unpack_in_positional_order(case):
    value, _, _, _, fields, _ = case
    cls = type(value)
    assert cls.__match_args__ == fields
    assert cls(*(getattr(value, name) for name in fields)) == value


def test_class_patterns_bind_fields_by_position():
    permutation, trace = encode_w_to_sip(12)
    match permutation, trace, bit_shape(27), EdgeEdit(3, 9):
        case (
            SelfInvertingPermutation(elements),
            EncodingTrace(b_prime, _, _, pi_b),
            WatermarkShape(shape_case, ell, r, last_bit),
            EdgeEdit(source, target),
        ):
            assert elements == (5, 6, 9, 8, 1, 2, 7, 4, 3)
            assert (b_prime, pi_b) == ("000011000", (1, 2, 3, 4, 7, 8, 9, 6, 5))
            assert (shape_case, ell, r, last_bit) == ("Case2", 1, 1, 1)
            assert (source, target) == (3, 9)
        case _:
            pytest.fail("a class pattern did not match")


def test_sweep_records_keep_their_fields():
    sweep = verify_theorem(4, 4)._sweeps[0]
    assert type(sweep).__match_args__ == (
        "n", "minima", "shape_id", "shapes", "representatives", "agreement"
    )
    assert type(sweep.minima).__match_args__ == (
        "minvm", "flips", "far", "pairs_verified", "full_scans"
    )
    for record in (sweep, sweep.minima):
        fields = type(record).__match_args__
        cells = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
        assert repr(record) == f"{type(record).__name__}({cells})"
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(clone) is type(record) and repr(clone) == repr(record)
        with pytest.raises(AttributeError):
            setattr(record, fields[0], getattr(record, fields[0]))


def test_pickled_verification_still_builds_its_reports():
    result = verify_theorem(4, 5)
    restored = pickle.loads(pickle.dumps(result))
    assert restored.reports == result.reports
    assert len(restored.reports) == 8 + 16 and restored.ok
