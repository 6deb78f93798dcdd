"""Benchmark of the galois_moebius package, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/galois_moebius``.  A run
repeats whole rounds of the workload's seeded op sequence, each round in a
fresh single-threaded interpreter (so cache state at every op is the same
in every round), one after another, until the next round would end after
S seconds, and until it has at least 40 ops.  Set-up is also timed in
further fresh interpreters that stop after set-up, five before each round
and five after the last.  With ``--trace 0`` the last line of output is
the JSON result with the end-to-end metrics; with ``--trace 1`` untraced
and traced rounds alternate, and the result holds the per-layer metrics.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# a run has at least MIN_OPS ops, so the tail percentile has ten beyond it
MIN_OPS = 40
TAIL_PERCENTILE = 75
# set-up-only interpreters before each round and after the last, besides
# each round's own; spread over the run, since the machine's speed drifts
# on a scale of seconds
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170


def workload_names() -> tuple[str, ...]:
    return tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GALOIS_MOEBIUS_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def last_json(cmd: list[str], timeout: float) -> dict:
    """Run a Python script of the benchmark in the pinned environment and
    return the JSON document on the last line of its output."""
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn(workload: str, seed: int, mode: str, trace_out: Path | None = None) -> tuple[dict, float]:
    """Run one child interpreter; returns its document and its set-up time."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    started = time.monotonic()
    doc = last_json(cmd, CHILD_TIMEOUT)
    return doc, doc["ready"] - started


def tail(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def summarize_ops(rounds: list[dict]) -> tuple[int, int, bool, list[str]]:
    attempted = failed = 0
    correct = True
    notes = []
    for doc in rounds:
        for rec in doc["ops"]:
            attempted += 1
            if rec["error"] is not None or rec["problems"]:
                failed += 1
                notes.append(f"{rec['name']}: {rec['error'] or '; '.join(rec['problems'][:3])}")
            if rec["problems"]:
                correct = False  # a wrong answer, not just a refusal
    return attempted, failed, correct, notes


def setup_samples(workload, seed) -> list[float]:
    return [spawn(workload, seed, "setup")[1] for _ in range(SETUP_SAMPLES)]


def run_rounds(workload, seed, seconds, start):
    """Whole rounds until the next one would end after `seconds`, and at
    least MIN_OPS ops; returns the rounds and the set-up times."""
    rounds, setups = [], []
    last = 0.0
    while (
        not rounds
        or sum(len(doc["ops"]) for doc in rounds) < MIN_OPS
        or time.monotonic() - start + last <= seconds
    ):
        t0 = time.monotonic()
        setups += setup_samples(workload, seed)
        doc, setup = spawn(workload, seed, "round")
        rounds.append(doc)
        setups.append(setup)
        last = time.monotonic() - t0
    setups += setup_samples(workload, seed)
    return rounds, setups


def traced_pairs(workload, seed, seconds, start):
    """Pairs of an untraced and a traced round, until the next pair would
    end after `seconds` (at least one pair)."""
    rounds, traced = [], []
    last = 0.0
    while not traced or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        rounds.append(spawn(workload, seed, "round")[0])
        trace_out = OUT / f"trace-{workload}-seed{seed}-round{len(traced)}.json"
        traced.append(spawn(workload, seed, "traced", trace_out)[0])
        last = time.monotonic() - t0
    return rounds, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names())
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "galois_moebius" / "__init__.py").is_file():
        print(f"error: no src/galois_moebius under {ROOT}; run from a checkout of the package", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    spawn(args.workload, args.seed, "setup")  # writes bytecode, warms the file cache
    if args.trace:
        rounds, traced = traced_pairs(args.workload, args.seed, args.seconds, start)
        setups = []
    else:
        rounds, setups = run_rounds(args.workload, args.seed, args.seconds, start)
        traced = []
    attempted, failed, correct, notes = summarize_ops(rounds + traced)
    latencies = [rec["s"] for doc in rounds for rec in doc["ops"]]
    walls = [doc["wall"] for doc in rounds]
    env = {"cpython": platform.python_version(), "nproc": os.cpu_count(), "rounds": len(rounds),
           "traced_rounds": len(traced), "ops_per_round": len(rounds[0]["ops"]), "setup_samples": len(setups)}
    if args.trace:
        from tracer import metric_unit

        layer_runs = [doc["trace"]["metrics"] for doc in traced]
        metrics = {
            name: (statistics.median(run[name] for run in layer_runs), metric_unit(name))
            for name in layer_runs[0]
        }
        # each traced round against the untraced round just before it, so
        # the host's drift between pairs does not enter the difference
        overhead = statistics.median(t["wall"] - u["wall"] for u, t in zip(rounds, traced))
        metrics["trace.overhead_s"] = (overhead, "s")
        missing = sorted({m for doc in traced for m in doc["trace"]["missing"]})
        metrics["trace.missing_targets"] = (len(missing), "count")
        over = [name for doc in traced for name in doc["trace"]["self_over_op"]]
        if over:
            correct = False
            notes.append(f"layer self times exceed the op time in: {over[:5]}")
        env["missing_targets"] = missing
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (tail(latencies), "s"),
            "peak_rss_mb": (statistics.median(doc["peak_rss_mb"] for doc in rounds), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} ops attempted = {attempted}, failed = {failed}")
    print("env: " + json.dumps(env, sort_keys=True))
    for note in notes[:20]:
        print(f"failed op: {note}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, env=env, workload=args.workload, seed=args.seed, trace=args.trace,
                  ops=[{"name": r["name"], "s": r["s"]} for doc in rounds for r in doc["ops"]])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
