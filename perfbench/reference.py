"""Reference figures: run the benchmark over several seeds and summarise.

    python3 perfbench/reference.py

Run from the repository root.  Every workload of ``BENCHMARK.json`` runs
untraced at seeds 0-9 and traced at seeds 0-2, each seed one ``run.py``
call with the run length from ``BENCHMARK.json``.  It prints the two
tables of the README: for every end-to-end metric the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median next to the metric's bound; for every per-layer metric
the median over the traced seeds.  Exits 1 if a run fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(10)
TRACE_SEEDS = range(3)


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed (exit {proc.returncode})")
    return result


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    summary = {}
    for workload in names:
        runs = [_run(workload, s, spec["run_seconds"], 0) for s in SEEDS]
        traced = [_run(workload, s, spec["run_seconds"], 1) for s in TRACE_SEEDS]
        print(f"{workload}: attempted/failed per run "
              f"{sorted({(r['attempted'], r['failed']) for r in runs + traced})}", flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[m["name"]] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med}
        for m in spec["per_layer"]:
            rows[m["name"]] = {"median": statistics.median(
                r["metrics"][m["name"]]["value"] for r in traced)}
        summary[workload] = rows

    print(f"\nEnd to end, {len(SEEDS)} seeds ({SEEDS[0]}-{SEEDS[-1]}) per workload: "
          "median [q1, q3], spread = (q3 - q1) / median.\n")
    print(f"| metric | bound | {' | '.join(names)} |\n|---|---|{'---|' * len(names)}")
    for m in spec["end_to_end"]:
        cells = [f"{r['median']:.4g} [{r['q1']:.4g}, {r['q3']:.4g}], {r['spread']:.3f}"
                 for r in (summary[w][m["name"]] for w in names)]
        print(f"| {m['name']} ({m['unit']}) | {m['bound']} | {' | '.join(cells)} |")
    print(f"\nPer layer, median of the traced runs at seeds {TRACE_SEEDS[0]}-{TRACE_SEEDS[-1]} "
          "(- = the layer did no work):\n")
    print(f"| metric | {' | '.join(names)} |\n|---|{'---|' * len(names)}")
    for m in spec["per_layer"]:
        meds = [summary[w][m["name"]]["median"] for w in names]
        cells = [f"{v:.4g}" if v else "-" for v in meds]
        print(f"| {m['name']} ({m['unit']}) | {' | '.join(cells)} |")
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", "reference.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
