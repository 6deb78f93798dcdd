"""Steadiness check of the benchmark, and a quick pass of every workload.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]
    python3 perfbench/steady.py --quick

The first form runs two sets of ``--runs`` runs of each workload on this
checkout, the first set with seeds 1..runs and the second with the next
runs seeds, each run as long as ``run_seconds`` in BENCHMARK.json.
Within a set the workloads take turns, seed by seed, so a slow or fast
spell of the host is shared among them rather than landing on one
workload's whole set.  It reports for every end-to-end metric the median
and quartiles of each set and of both together, and exits 1 when, for
some metric, the two sets' medians differ by more than the metric's
bound, when the spread of all runs together (third minus first quartile
over the median) exceeds the bound, or when the two sets fail different
shares of their ops.

``--quick`` runs the short variant of every workload once, in a fresh
interpreter each, with every check on, and exits 1 if any op fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, last_json, spawn, workload_names  # noqa: E402

FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    return last_json(cmd, 600)


def steadiness(workloads, runs) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = {w: ([], []) for w in workloads}
    for s in range(2):
        for seed in range(FIRST_SEED + s * runs, FIRST_SEED + (s + 1) * runs):
            for w in workloads:
                sets[w][s].append(one_run(w, seed, spec["run_seconds"]))
                print(f"set {s + 1} seed {seed} {w} done", flush=True)
    report, ok = {}, True
    for w in workloads:
        first, second = sets[w]
        shares = [sum(r["failed"] for r in set_) / sum(r["attempted"] for r in set_) for set_ in (first, second)]
        rows = {}
        for name, bound in bounds.items():
            a = [r["metrics"][name]["value"] for r in first]
            b = [r["metrics"][name]["value"] for r in second]
            qa, qb, qall = (statistics.quantiles(v, n=4) for v in (a, b, a + b))
            spread = (qall[2] - qall[0]) / qall[1]
            moved = (qb[1] - qa[1]) / qa[1]
            good = abs(moved) <= bound and spread <= bound
            ok = ok and good
            rows[name] = {"set1": qa, "set2": qb, "all": qall, "spread": spread, "second_vs_first": moved,
                          "bound": bound, "ok": good}
            print(f"{w:13s} {name:12s} med1 {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  med2 {qb[1]:.4g} "
                  f"[{qb[0]:.4g}, {qb[2]:.4g}]  spread {spread:.3f}  2nd vs 1st {moved:+.3f}  "
                  f"bound {bound}  {'ok' if good else 'FAIL'}")
        ok = ok and shares[0] == shares[1]
        print(f"{w:13s} failed share {shares[0]:.4f} / {shares[1]:.4f}")
        report[w] = {"metrics": rows, "failed_share": shares,
                     "runs": [[r["metrics"] for r in set_] for set_ in (first, second)]}
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps(report, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def quick() -> int:
    ok = True
    for w in workload_names():
        try:
            doc, _ = spawn(w, FIRST_SEED, "quick")
        except RuntimeError as exc:
            print(f"{w}: {exc}")
            ok = False
            continue
        bad = [r for r in doc["ops"] if r["error"] or r["problems"]]
        ok = ok and not bad
        print(f"{w}: attempted {len(doc['ops'])}, failed {len(bad)}, {doc['wall']:.3f} s")
        for r in bad:
            print(f"  {r['name']}: {r['error'] or r['problems'][:3]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default=",".join(workload_names()))
    args = ap.parse_args(argv)
    if args.quick:
        return quick()
    return steadiness(args.workloads.split(","), args.runs)


if __name__ == "__main__":
    sys.exit(main())
