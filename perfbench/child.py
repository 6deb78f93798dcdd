"""One fresh interpreter: the workload's set-up, then one round of its ops.

    python3 perfbench/child.py WORKLOAD SEED MODE [--trace-out PATH]

MODE is ``setup`` (set up and stop), ``round``, ``traced`` (a round with the
layer wrappers installed before set-up), ``quick`` (one round of the short
variant) or ``quick-traced``.  The last line of standard output is a JSON document;
``ready`` is the CLOCK_MONOTONIC reading when set-up ended, which the
parent compares with the reading it took just before starting this process.
Checks run after the timed phase, so they cannot warm a cache for an op.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def run_round(workload: str, seed: int, mode: str, trace_out: str | None = None) -> dict:
    tracer = None
    if mode.endswith("traced"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer().install()
    import workloads

    ops = workloads.BUILDERS[workload](seed, quick=mode.startswith("quick"))
    ready = time.monotonic()
    doc = {"ready": ready, "ops": []}
    if mode == "setup":
        return doc
    setup_snap = tracer.snapshot() if tracer else None
    results: dict = {}
    records = []
    per_op = []
    pc = time.perf_counter
    start = pc()
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(f"{i}:{op.name}")
        error = None
        t0 = pc()
        try:
            res = op.run()
        except Exception as exc:  # an op that raises is counted as failed
            res, error = None, f"{type(exc).__name__}: {exc}"
        dt = pc() - t0
        if tracer:
            snap = tracer.end_op()
            per_op.append(snap)
        results[op.name] = res
        records.append({"name": op.name, "s": dt, "error": error, "problems": []})
    wall = pc() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for op, rec in zip(ops, records):
        if rec["error"] is None:
            try:
                rec["problems"] = op.check(results[op.name], results)
            except Exception as exc:  # a check that cannot read the output fails the op
                rec["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
    doc.update(ops=records, wall=wall, peak_rss_mb=peak_kb / 1024.0)
    if tracer:
        over = []
        for rec, snap in zip(records, per_op):
            self_sum = sum(v[2] for v in snap["layers"].values())
            rec["layer_self_s"] = self_sum
            if self_sum > rec["s"] + 1e-9:
                over.append(rec["name"])
        doc["trace"] = {
            "metrics": tracer_mod.layer_metrics(per_op, setup_snap),
            "missing": tracer.missing,
            "self_over_op": over,
            "spans": len(tracer.spans),
        }
        if trace_out:
            with open(trace_out, "w") as fh:
                json.dump(
                    {
                        "workload": workload,
                        "seed": seed,
                        "missing": tracer.missing,
                        "spans": tracer.spans,
                        "ops": [
                            {"name": r["name"], "s": r["s"], "layers": snap["layers"], "counters": snap["counters"]}
                            for r, snap in zip(records, per_op)
                        ],
                    },
                    fh,
                )
    return doc


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    trace_out = argv[4] if len(argv) > 4 and argv[3] == "--trace-out" else None
    doc = run_round(workload, seed, mode, trace_out)
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
