"""Tests of the benchmark itself: inputs, reference checks, statistics.

    python -m pytest benchmarks -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import wrpg  # noqa: E402
from wrpg.cli import main as cli_main  # noqa: E402

SEEDS = (0, 1, 7, 12345)


@pytest.mark.parametrize("make", [inputs.graph_audit, inputs.cli_session])
def test_same_seed_gives_identical_inputs(make):
    for seed in SEEDS:
        assert json.dumps(make(seed, 3)).encode() == json.dumps(make(seed, 3)).encode()
    assert make(1, 0) != make(2, 0)
    assert make(1, 0) != make(1, 1)


@pytest.mark.parametrize("workload, make", [("graph-audit", inputs.graph_audit),
                                            ("cli-session", inputs.cli_session)])
def test_stratum_counts_do_not_depend_on_seed(workload, make):
    counts = {json.dumps(inputs.strata(workload, make(seed, r))) for seed in SEEDS
              for r in range(2)}
    assert len(counts) == 1


def test_graph_audit_strata_are_64_8_1():
    counts = inputs.strata("graph-audit", inputs.graph_audit(5, 0))
    for kind in inputs.ATTACK_KINDS:
        small, mid, large = (counts[f"n{n}/{kind}"] for n in (64, 512, 4096))
        assert small == 8 * mid == 64 * large


def test_edits_are_half_downward_and_stratified():
    for seed in SEEDS:
        items = inputs.graph_audit(seed, 0)
        for n in (64, 512):
            for kind, per_graph in inputs.EDITS_PER_GRAPH.items():
                graphs = [it["edits"] for it in items if it["n"] == n and it["kind"] == kind]
                m = 2 * n + 1
                edits = [e for g in graphs for e in g]
                assert all(1 <= s <= m and 0 <= t <= m + 1 for s, t in edits)
                assert sum(t < s for s, t in edits) == len(edits) // 2
                if per_graph == 2:
                    assert all(sorted(t < s for s, t in g) == [False, True] for g in graphs)
                downs = sorted(s for s, t in edits if t < s)
                for k, source in enumerate(downs):  # one source per bin of 1..m
                    assert k * m // len(downs) <= source - 1 < (k + 1) * m / len(downs)


def test_large_graphs_get_only_upward_edits():
    for item in inputs.graph_audit(9, 0):
        if item["n"] > inputs.DOWNWARD_EDITS_MAX_BITS and item["kind"] != "rewrite":
            assert all(source <= target for source, target in item["edits"])


def test_reference_encoder_matches_the_documented_example():
    perm, targets = reference.encode(12)
    assert perm == [5, 6, 9, 8, 1, 2, 7, 4, 3]
    assert targets == [8, 8, 4, 7, 10, 10, 8, 9, 10]


def test_reference_encoder_is_not_wrpg_but_agrees_with_it():
    assert "wrpg" not in reference.__dict__
    for w in list(range(2, 300)) + [random.Random(3).getrandbits(200) | 1 << 199]:
        perm, _ = wrpg.encode_w_to_sip(w)
        assert reference.encode(w) == (list(perm.elements), list(wrpg.dmax_map(perm.elements)))


def test_reducibility_rule_matches_check_reducibility():
    rng = random.Random(11)
    for _ in range(3000):
        m = 2 * rng.randint(2, 8) + 1
        targets = [rng.randint(0, m + 1) for _ in range(m)]
        graph = wrpg.ReduciblePermutationGraph(tuple(targets))
        assert wrpg.check_reducibility(graph).passed == reference.reducible(targets)


def test_brute_force_sweep_matches_single_queries_and_the_maximum():
    for n in (4, 7, 10):
        best, count = reference.sweep(n)
        assert best.max() == reference.max_minvm(n)
        for w in (1 << (n - 1), (1 << n) - 1, (1 << (n - 1)) + 5):
            minvm, nearest = reference.nearest_of(w)
            assert (best[w - (1 << (n - 1))], count[w - (1 << (n - 1))]) == (minvm, len(nearest))


def _audit(items, api):
    ledger = reference.Ledger()
    for item in items:
        ledger.record(reference.check_graph(item, worker.audit_graph(api, item)))
    return ledger


def test_graph_checks_pass_on_wrpg_and_reject_a_flipped_verdict():
    items = [item for r in range(2) for item in inputs.graph_audit(4, r) if item["n"] == 64]
    ledger = _audit(items, worker.audit_api(None))
    assert ledger.failed == 0
    assert all(ledger.counts[name] for name in ("clean_decodes", "edit_false_incorrect",
                                                "rewrite_valid_w1", "reducibility_rule"))

    api = worker.audit_api(None)
    real = api.classify_graph
    api.classify_graph = lambda graph: real(graph).__class__(real(graph).checks, None, ())
    expected_valid = ledger.counts["clean_decodes"] + ledger.counts["rewrite_valid_w1"]
    assert _audit(items, api).failed == expected_valid


@pytest.mark.parametrize("kind, result", [
    ("clean", [None, True, None]),        # clean graph reported false-incorrect
    ("clean", [12, False, 12]),           # reducibility verdict flipped
    ("one-edit", [12, True, 12]),         # changed graph reported valid
    ("rewrite", [12, True, 12]),          # rewrite decoded to the original
])
def test_graph_check_rejects_tampered_results(kind, result):
    edits = {"clean": [], "one-edit": [[3, 5]], "rewrite": inputs.rewrite_edits(12)}[kind]
    checks = reference.check_graph({"w": 12, "kind": kind, "edits": edits}, result)
    assert not all(ok for _, ok, _ in checks)


def test_repeat_check_rejects_a_later_pass_that_differs():
    item = {"w": 12, "kind": "clean", "edits": []}
    assert all(ok for _, ok, _ in reference.check_repeat(item, [12, True, 12], [12, True, 12]))
    assert not any(ok for _, ok, _ in reference.check_repeat(item, [None, True, None],
                                                             [12, True, 12]))


def test_graph_audit_worker_repeats_passes_and_keeps_each_graphs_fastest_time():
    items = [it for it in inputs.graph_audit(2, 0) if it["n"] == 64][:20]
    tracer = worker.Tracer()
    out = worker.run_graph_audit(items, 0.0, tracer)
    assert len(out["pass_s"]) == 2 * worker.MIN_PASSES
    assert all(later == out["results"][0] for later in out["results"])
    assert [len(best) for best in out["best_ms"]] == [20, 20]
    assert tracer.spans["rpg.check_reducibility"][""][0] == 20 * worker.MIN_PASSES


def _sweep_rows(n_min, n_max):
    out = worker.run_theorem_sweep(n_min, n_max, None)
    return [tuple(row) for row in out["rows"]]


def _check_sweep(rows, summary=None, code=0, verdict="verified 56 watermarks: OK"):
    ledger = reference.Ledger()
    reference.check_sweep(rows, 4, 6, code, verdict, ledger, summary)
    return ledger


def test_sweep_check_passes_on_wrpg():
    rows = _sweep_rows(4, 6)
    ledger = _check_sweep(rows)
    assert ledger.failed == 0 and ledger.attempted == len(rows) + 1
    assert all(ledger.counts[name] for name in ("sweep_rows", "sweep_verdict", "sweep_max_minvm"))


@pytest.mark.parametrize("tamper", ["nearest", "oracle", "agree", "missing", "verdict", "exit",
                                    "summary"])
def test_sweep_check_rejects_tampered_results(tamper):
    rows = _sweep_rows(4, 6)
    n, w, closed, oracle, nearest, agree = rows[5]
    summary, code, verdict = None, 0, "verified 56 watermarks: OK"
    if tamper == "nearest":
        rows[5] = (n, w, closed, oracle, nearest + 1, agree)
    elif tamper == "oracle":
        rows[5] = (n, w, closed, oracle + 1, nearest, False)
    elif tamper == "agree":
        rows[5] = (n, w, closed, oracle, nearest, not agree)
    elif tamper == "missing":
        del rows[5]
    elif tamper == "verdict":
        verdict = "verified 56 watermarks: 1 mismatches"
    elif tamper == "exit":
        code = 4
    else:
        summary = {4: 4, 5: 5, 6: 4}
    assert _check_sweep(rows, summary, code, verdict).failed >= 1


def _passes(command, expected, code, out):
    return all(ok for _, ok, _ in reference.check_command(command, expected, code, out))


def test_command_check_accepts_wrpg_and_rejects_tampered_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    w, edits = 1234, [[3, 0], [20, 22]]
    argvs = [["encode", str(w), "--out", "g.json", "--show-sip"], ["decode", "g.json"],
             ["attack", "g.json", "--edits", "3:0,20:22", "--out", "a.json"],
             ["decode", "a.json"], ["classify", "a.json"], ["analyze", str(w)]]
    for argv, expected in zip(argvs, reference.expected_session(w, edits), strict=True):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert _passes(argv[0], expected, code, out)
        assert not _passes(argv[0], expected, 3, out)
        assert not _passes(argv[0], expected, code, "")
    assert not _passes("analyze", expected, 0, out.replace("nearest_count=", "nearest_count=9"))


def test_tail_percentile_is_fixed_per_workload():
    assert run.tail_percentile(run.GraphAudit.items_per_round * run.GraphAudit.min_rounds) == 95
    assert run.tail_percentile(run.CliSession.items_per_round * run.CliSession.min_rounds) == 90
    assert run.tail_percentile(1) == 100.0
    value, beyond = run.nearest_rank(list(range(1, 201)), 90)
    assert (value, beyond) == (180, 20)


def test_benchmark_json_lists_every_metric_the_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for metric in run.CALL_METRICS:
        assert {metric, f"{metric}.n64", f"{metric}.n512", f"{metric}.n4096"} <= names
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
