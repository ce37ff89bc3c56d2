"""wrpg benchmark: three closed-loop workloads and a traced per-layer run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller waits for each result
before sending the next input, with at most one child process at a
time.  ``--trace 0`` times the workload and prints the end-to-end
metrics; ``--trace 1`` runs traced and untraced workers and prints the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
Every output is checked against ``reference.py`` outside the timed
region.  The last line of stdout is the JSON result; a run record with
quartiles and sample counts goes to ``benchmarks/results/``.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
PY = sys.executable
CHILD_TIMEOUT_S = 150

SETUP_SPAWNS = 8
PROBE = ("import time; start = time.clock_gettime(time.CLOCK_MONOTONIC); import wrpg; "
         "print(start, time.clock_gettime(time.CLOCK_MONOTONIC), wrpg.__file__)")

# A tail percentile is the highest of these with at least ten samples
# beyond it in the smallest run a workload makes.  It is fixed per
# workload, so a faster program (more samples) reports the same percentile.
PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)

CALL_METRICS = {  # per-call self time in microseconds, from traced spans
    "sip.encode_w_to_sip.us": "sip.encode_w_to_sip",
    "sip.decode_sip_to_w.us": "sip.decode_sip_to_w",
    "rpg.encode_sip_to_rpg.us": "rpg.encode_sip_to_rpg",
    "rpg.graph_to_json.us": "rpg.graph_to_json",
    "rpg.graph_from_json.us": "rpg.graph_from_json",
    "rpg.decode_rpg_to_sip.us": "rpg.decode_rpg_to_sip",
    "rpg.check_reducibility.us": "rpg.check_reducibility",
    "integrity.apply_edge_edits.us": "integrity.apply_edge_edits",
    "integrity.classify_graph.valid_us": "integrity.classify_graph.valid",
    "integrity.classify_graph.invalid_us": "integrity.classify_graph.invalid",
}
CLI_COMMAND_NAMES = ("encode", "decode", "attack", "classify", "analyze")


def now() -> float:
    """The clock the setup probe reads in the child, too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Proc:
    code: int
    start: float
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def _alarm(signum, frame):
    raise TimeoutError(f"child still running after {CHILD_TIMEOUT_S} s")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def spawn(argv: list[str], cwd: Path) -> Proc:
    """Run one child to its end; its wall time and peak RSS come from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Children import from bytecode caches, as an installed wrpg would,
    # whatever the caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = now()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, start, wall, usage.ru_maxrss / 1024,
                out_path.read_text(encoding="utf-8"), err_path.read_text(errors="replace"))


def run_worker(cwd: Path, *args: str) -> tuple[Proc, dict]:
    proc = spawn([PY, str(WORKER), *args, "out.json"], cwd)
    if proc.code != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.code}:\n{proc.stderr[-2000:]}")
    with open(cwd / "out.json", encoding="utf-8") as fh:
        return proc, json.load(fh)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def summary(values: list[float], unit: str) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "samples": len(values),
            "values": values}


def tail_percentile(guaranteed_samples: int) -> float:
    fits = [p for p in PERCENTILES if guaranteed_samples * (100 - p) / 100 >= 10]
    return max(fits) if fits else 100.0


def nearest_rank(values: list[float], p: float) -> tuple[float, int]:
    """Value at percentile ``p`` and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Round:
    """One timed execution of a workload's unit of work."""

    wall_s: float
    items: int
    latency_ms: list[float]
    rss_mb: float
    layers: dict = field(default_factory=dict)  # traced rounds only


class Workload:
    name = ""
    min_rounds = 1  # rounds every run makes; its timings come from this many
    items_per_round = 1  # latency samples per round

    def __init__(self, seed: int, work: Path, ledger: reference.Ledger):
        self.seed, self.work, self.ledger = seed, work, ledger

    def measure(self, seconds: float, trace: bool, probe: "SetupProbe") -> list:
        """Rounds (or traced pairs) until the next would pass ``seconds`` of
        measured time, but never fewer than the workload's minimum.  A setup
        probe runs about every ``seconds / SETUP_SPAWNS`` seconds of measuring."""
        done, spent, probed = [], 0.0, -seconds
        minimum = 1 if trace else self.min_rounds
        while len(done) < minimum or spent + spent / len(done) <= seconds:
            if spent - probed >= seconds / SETUP_SPAWNS:
                probe()
                probed = spent
            if trace:
                pair = self.traced_pair(len(done))
                spent += pair[0].wall_s + pair[1].wall_s
                done.append(pair)
            else:
                result = self.timed_round(len(done))
                spent += result.wall_s
                done.append(result)
        while len(probe.times["setup_s"]) < SETUP_SPAWNS:
            probe()
        return done

    def timed_round(self, index: int) -> Round:
        raise NotImplementedError

    def traced_pair(self, index: int) -> tuple[Round, Round]:
        """An untraced and a traced round on the same inputs."""
        raise NotImplementedError

    def work_counts(self, rounds: int) -> dict:
        raise NotImplementedError


class TheoremSweep(Workload):
    name = "theorem-sweep"
    min_rounds = 3
    n_min, n_max = inputs.SWEEP_BITS
    watermarks = sum(1 << (n - 1) for n in range(n_min, n_max + 1))

    def timed_round(self, index: int) -> Round:
        rows_csv = self.work / "rows.csv"
        rows_csv.unlink(missing_ok=True)
        proc = spawn([PY, "-m", "wrpg", "verify-theorem", "--bits-min", str(self.n_min),
                      "--bits-max", str(self.n_max), "--out", rows_csv.name], self.work)
        rows = []
        if rows_csv.exists():
            with open(rows_csv, newline="", encoding="utf-8") as fh:
                rows = [(int(r["n"]), int(r["w"]), int(r["minvm_closed"]),
                         int(r["minvm_oracle"]), int(r["nearest_count"]), r["agree"] == "true")
                        for r in csv.DictReader(fh)]
        lines = proc.stdout.splitlines()
        summary_max = {int(n): int(m) for n, m in
                       (re.match(r"n=(\d+) .*max_minvm=(\d+)", line).groups()
                        for line in lines if line.startswith("n="))}
        reference.check_sweep(rows, self.n_min, self.n_max, proc.code,
                              lines[-1] if lines else "", self.ledger, summary_max)
        return Round(proc.wall_s, self.watermarks, [proc.wall_s * 1e3], proc.rss_mb)

    def _sweep_worker(self, trace: bool) -> Round:
        proc, out = run_worker(self.work, "theorem-sweep", str(self.n_min), str(self.n_max),
                               *(["--trace"] if trace else []))
        rows = [tuple(row) for row in out["rows"]]
        ok = out["witness_failures"] == 0 and all(row[5] for row in rows)
        verdict = f"verified {len(rows)} watermarks: " + ("OK" if ok else "FAILED")
        reference.check_sweep(rows, self.n_min, self.n_max, 0, verdict, self.ledger)
        layers = {}
        if trace:
            layers = oracle_layers(out)
            spans = out["spans"]
            for group in ("witness_check", "closed_form"):
                layers[f"resilience.{group}.total_s"] = spans[f"resilience.{group}"][""][1]
            layers["sip.encode_w_to_sip.us"] = per_call_us(spans, "sip.encode_w_to_sip", "")
            layers["resilience.rows_encoded"] = self.watermarks
            compared = sum(4 ** (n - 1) for n in range(self.n_min, self.n_max + 1))
            layers["resilience.nearest_per_row_compared"] = sum(r[4] for r in rows) / compared
            layers["resilience.minvm_oracle.share"] = (
                layers["resilience.minvm_oracle.total_s"] / out["wall_s"])
            layers["trace.coverage"] = out["covered_s"] / out["wall_s"]
        return Round(proc.wall_s, len(rows), [proc.wall_s * 1e3], proc.rss_mb, layers)

    def traced_pair(self, index: int) -> tuple[Round, Round]:
        return self._sweep_worker(False), self._sweep_worker(True)

    def work_counts(self, rounds: int) -> dict:
        return {"watermarks_per_sweep": self.watermarks,
                "resilience.rows_encoded_per_sweep": self.watermarks, "sweeps": rounds}


class GraphAudit(Workload):
    """One worker audits one seeded list of graphs, pass after pass.

    The whole run is one round whose latencies are each graph's fastest
    over the passes, and whose wall time is their sum.
    """

    name = "graph-audit"
    items_per_round = sum(inputs.GRAPH_COUNTS.values()) * len(inputs.ATTACK_KINDS)

    def measure(self, seconds: float, trace: bool, probe: "SetupProbe") -> list:
        for _ in range(SETUP_SPAWNS // 2):
            probe()
        items = inputs.graph_audit(self.seed, 0)
        with open(self.work / "items.json", "w", encoding="utf-8") as fh:
            json.dump(items, fh)
        proc, out = run_worker(self.work, "graph-audit", "items.json", str(seconds),
                               *(["--trace"] if trace else []))
        while len(probe.times["setup_s"]) < SETUP_SPAWNS:
            probe()
        self.passes = len(out["pass_s"])
        first = out["results"][0]
        for item, result in zip(items, first, strict=True):
            self.ledger.record(reference.check_graph(item, result))
        for later in out["results"][1:]:
            for item, result, want in zip(items, later, first, strict=True):
                self.ledger.record(reference.check_repeat(item, result, want))
        rounds = [Round(sum(best) / 1e3, len(items), best, proc.rss_mb)
                  for best in out["best_ms"]]
        if not trace:
            return rounds
        untraced, traced = rounds
        spans = out["spans"]
        for metric, span in CALL_METRICS.items():
            traced.layers[metric] = per_call_us(spans, span, "")
            for n in inputs.GRAPH_COUNTS:
                traced.layers[f"{metric}.n{n}"] = per_call_us(spans, span, f"n{n}")
        traced.layers["trace.coverage"] = out["covered_s"] / sum(out["pass_s"][1::2])
        return [(untraced, traced)]

    def work_counts(self, rounds: int) -> dict:
        return {"graphs_per_pass": inputs.strata(self.name, inputs.graph_audit(self.seed, 0)),
                "passes": self.passes}


class CliSession(Workload):
    name = "cli-session"
    min_rounds = 3
    items_per_round = len(inputs.CLI_BITS) * len(inputs.CLI_COMMANDS)

    def _session(self, index: int, trace: bool) -> Round:
        items = inputs.cli_session(self.seed, index)
        plan = []
        for item in items:
            w, graph, attacked = item["w"], f"g{item['n']}.json", f"a{item['n']}.json"
            edits = ",".join(f"{s}:{t}" for s, t in item["edits"])
            argvs = [
                ["encode", str(w), "--out", graph, "--show-sip"],
                ["decode", graph],
                ["attack", graph, "--edits", edits, "--out", attacked],
                ["decode", attacked],
                ["classify", attacked],
                ["analyze", str(w)],
            ]
            plan.extend(zip(argvs, reference.expected_session(w, item["edits"]), strict=True))
        outputs, spans = [], {}
        start = now()
        for argv, _ in plan:
            proc = spawn([PY, "-m", "wrpg", *argv], self.work)
            outputs.append(proc)
            if trace:
                spans.setdefault(argv[0], []).append(proc.wall_s * 1e3)
        wall = now() - start
        for (argv, expected), proc in zip(plan, outputs):
            self.ledger.record(reference.check_command(" ".join(argv), expected, proc.code,
                                                       proc.stdout))
        layers = {}
        if trace:
            for command in CLI_COMMAND_NAMES:
                layers[f"cli.{command}.p50_ms"] = statistics.median(spans[command])
            layers["trace.coverage"] = sum(p.wall_s for p in outputs) / wall
        return Round(wall, len(outputs), [p.wall_s * 1e3 for p in outputs],
                     max(p.rss_mb for p in outputs), layers)

    def timed_round(self, index: int) -> Round:
        return self._session(index, False)

    def traced_pair(self, index: int) -> tuple[Round, Round]:
        untraced, traced = self._session(index, False), self._session(index, True)
        items = inputs.cli_session(self.seed, index)
        with open(self.work / "items.json", "w", encoding="utf-8") as fh:
            json.dump(items, fh)
        _, out = run_worker(self.work, "analyze", "items.json")
        for n, w, best, nearest in out["rows"]:
            want_best, want_nearest = reference.nearest_of(w)
            self.ledger.record([("analyze_oracle", best == want_best and
                                 nearest == len(want_nearest), f"w={w}")])
        traced.layers.update(oracle_layers(out))
        traced.layers["resilience.minvm_oracle.total_s"] = sum(
            statistics.median(d[1:]) for d in out["durations"]["resilience.minvm_oracle"].values())
        traced.layers["resilience.rows_encoded"] = sum(1 << (n - 1) for n in inputs.CLI_BITS)
        traced.layers["resilience.nearest_per_row_compared"] = (
            sum(row[3] for row in out["rows"]) / traced.layers["resilience.rows_encoded"])
        return untraced, traced

    def work_counts(self, rounds: int) -> dict:
        return {"watermarks_per_round": inputs.strata(self.name, inputs.cli_session(self.seed, 0)),
                "commands_per_round": self.items_per_round, "rounds": rounds,
                "commands": self.items_per_round * rounds}


WORKLOADS = {w.name: w for w in (TheoremSweep, GraphAudit, CliSession)}


def per_call_us(spans: dict, span: str, split: str) -> float:
    calls, self_s = spans.get(span, {}).get(split, (0, 0.0))
    return self_s / calls * 1e6 if calls else 0.0


def oracle_layers(out: dict) -> dict:
    """Table build (first oracle call per length minus a warm call) and oracle time."""
    by_length = out["durations"]["resilience.minvm_oracle"]
    build = sum(d[0] - statistics.median(d[1:]) for d in by_length.values())
    return {
        "resilience.table_build_s": build,
        "resilience.minvm_oracle.total_s": sum(sum(d) for d in by_length.values()) - build,
        "resilience.minvm_oracle.warm_ms": statistics.median(by_length["n14"][1:]) * 1e3,
    }


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

class SetupProbe:
    """Spawn-to-``import wrpg`` times, one spawn per call.

    Probes are spread over the run instead of all catching one moment
    of a noisy machine.
    """

    def __init__(self, work: Path):
        self.work = work
        self.times: dict[str, list[float]] = {
            "setup_s": [], "cli.interpreter_s": [], "cli.import_s": []}
        spawn([PY, "-c", PROBE], work)  # untimed: writes the bytecode caches

    def __call__(self) -> None:
        proc = spawn([PY, "-c", PROBE], self.work)
        entered, imported, module = proc.stdout.split()
        if not Path(module).resolve().is_relative_to(SRC):
            raise RuntimeError(f"wrpg imported from {module}, not from {SRC}")
        self.times["setup_s"].append(float(imported) - proc.start)
        self.times["cli.interpreter_s"].append(float(entered) - proc.start)
        self.times["cli.import_s"].append(float(imported) - float(entered))


def end_to_end(workload: Workload, rounds: list[Round], setup: dict) -> tuple[dict, dict]:
    """Timings from the run's fastest ``min_rounds`` rounds.

    Other tenants of a shared host slow whole rounds down, by up to 2x on
    a 2-core machine; the fastest rounds are the least disturbed measure
    of the program itself.  Extra rounds are extra chances to dodge that.
    The tail is taken over every item of those rounds.
    """
    best = sorted(rounds, key=lambda r: r.wall_s)[: workload.min_rounds]
    latencies = [x for r in best for x in r.latency_ms]
    p = tail_percentile(workload.items_per_round * workload.min_rounds)
    tail, beyond = nearest_rank(latencies, p)
    record = {
        "wall_s": summary([r.wall_s for r in best], "s"),
        "items_per_s": summary([r.items / r.wall_s for r in best], "1/s"),
        "item_p50_ms": summary(latencies, "ms"),
        "item_tail_ms": {"unit": "ms", "value": tail, "percentile": p,
                         "samples": len(latencies), "beyond": beyond},
        "peak_rss_mb": summary([r.rss_mb for r in rounds], "MB"),
        "setup_s": summary(setup["setup_s"], "s"),
    }
    values = {name: entry.get("value", entry.get("median")) for name, entry in record.items()}
    record["rounds_wall_s"] = [r.wall_s for r in rounds]
    return values, record


def per_layer(pairs: list[tuple[Round, Round]], setup: dict,
              metrics: list[dict]) -> tuple[dict, dict]:
    """Medians over traced rounds; 0 for a layer the workload never calls."""
    samples: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    for untraced, traced in pairs:
        for name, value in traced.layers.items():
            samples[name].append(value)
        samples["trace.overhead_s"].append(traced.wall_s - untraced.wall_s)
    for name in ("cli.interpreter_s", "cli.import_s"):
        samples[name] = setup[name]
    record = {}
    for m in metrics:
        values = samples[m["name"]]
        record[m["name"]] = dict(summary(values or [0.0], m["unit"]), samples=len(values))
    return {name: entry["median"] for name, entry in record.items()}, record


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
        commit = top[1] if Path(top[0]).resolve() == ROOT else None
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wrpg" / "__init__.py").is_file():
        print(f"error: no wrpg sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, _terminate)

    work = BENCH / "_work" / str(os.getpid())
    work.mkdir(parents=True)
    ledger = reference.Ledger()
    try:
        workload = WORKLOADS[args.workload](args.seed, work, ledger)
        probe = SetupProbe(work)
        runs = workload.measure(args.seconds, bool(args.trace), probe)
        if args.trace:
            values, record = per_layer(runs, probe.times, metrics)
        else:
            values, record = end_to_end(workload, runs, probe.times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unknown = set(values) - {m["name"] for m in metrics}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    correct = ledger.failed == 0 and ledger.attempted > 0
    run_record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_identity(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "metrics": record,
        "work_counts": {"computed_from": "inputs", **workload.work_counts(len(runs))},
        "checks": dict(sorted(ledger.counts.items())), "attempted": ledger.attempted,
        "failed": ledger.failed, "fail_ratio": ledger.failed / max(ledger.attempted, 1),
        "failures": ledger.failures[:50],
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(run_record, indent=1) + "\n", encoding="utf-8")
    for failure in ledger.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
