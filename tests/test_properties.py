"""Property tests.  ``derandomize=True`` makes every run draw the same
examples, so a failure reproduces."""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wrpg.errors import GraphFormatError
from wrpg.integrity import classify_graph
from wrpg.rpg import (
    ReduciblePermutationGraph,
    decode_rpg_to_sip,
    encode_sip_to_rpg,
    graph_from_json,
    graph_to_json,
)
from wrpg.sip import decode_sip_to_w, encode_w_to_sip


@st.composite
def watermarks(draw, max_bits: int) -> int:
    n = draw(st.integers(2, max_bits))
    return draw(st.integers(1 << (n - 1), (1 << n) - 1))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(watermarks(10**4))
@example((1 << 10**4) - 1)
@example(1 << (10**4 - 1))
def test_codec_round_trips(w):
    permutation, _ = encode_w_to_sip(w)
    graph = graph_from_json(graph_to_json(encode_sip_to_rpg(permutation)))
    assert decode_sip_to_w(decode_rpg_to_sip(graph)) == w
    report = classify_graph(graph)
    assert report.valid and report.watermark == w


@st.composite
def back_edge_vectors(draw) -> tuple[int, ...]:
    m = 2 * draw(st.integers(1, 20)) + 1
    # mostly targets near the node range 0..m+1, where the checks differ
    target = st.one_of(st.integers(-2, m + 3), st.integers())
    return tuple(draw(st.lists(target, min_size=m, max_size=m)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(back_edge_vectors())
@example(encode_sip_to_rpg(encode_w_to_sip(27)[0]).back_edges)
def test_classify_graph_never_raises(edges):
    graph = ReduciblePermutationGraph(edges)
    report = classify_graph(graph)
    if report.valid:
        assert decode_sip_to_w(decode_rpg_to_sip(graph)) == report.watermark
    else:
        assert report.watermark is None and report.reasons


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
TRICKY_TEXT = ["1e999", "-", ",", "}", '"', "\\", "\x00", "NaN"]


@st.composite
def mutated_payloads(draw) -> str:
    canonical = graph_to_json(encode_sip_to_rpg(encode_w_to_sip(draw(watermarks(12)))[0]))
    if draw(st.booleans()):
        # replace a span of the text
        start = draw(st.integers(0, len(canonical)))
        stop = draw(st.integers(start, len(canonical)))
        insert = draw(st.text(max_size=8) | st.sampled_from(TRICKY_TEXT))
        return canonical[:start] + insert + canonical[stop:]
    # replace, drop or add one field
    payload = json.loads(canonical)
    key = draw(st.sampled_from([*payload, "extra"]))
    if draw(st.booleans()):
        payload.pop(key, None)
    else:
        payload[key] = draw(JSON_VALUES)
    return json.dumps(payload)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mutated_payloads())
@example('{"version": 1, "n": ' + "9" * 5000 + "}")  # past the int digit limit
@example("[" * 100000)  # deeper than the recursion limit
def test_graph_from_json_raises_only_graph_format_errors(text):
    try:
        graph = graph_from_json(text)
    except GraphFormatError:
        return
    assert isinstance(graph, ReduciblePermutationGraph)
