"""Benchmark entry point for eigenvol.

    python3 perfbench/run.py --workload battery|replay-large|confvol-search
                             --seed N --seconds S --trace 0|1

Run from the repository root.  Every sample runs in a fresh process
(``worker.py``): two processes only set the workload up, to time
``setup_s``; then processes that each set up and make one pass follow
one another while another of typical length fits in ``--seconds``.
With ``--trace 1`` a single traced pass process runs instead and the
per-layer metrics are reported.  Metric names and units come from
``BENCHMARK.json``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the full result, with machine information, goes to ``.perfbench_out/``.
The exit code is 0 only when every operation passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 2  # set-up-only processes of an untraced run, besides the pass processes
# A worker taking this many times --seconds is taken to hang.  A pass that is
# only slow (up to about ten times the 16 s reference) is still measured.
HANG_FACTOR = 4


def _worker(mode, args, trace=0, spans=None):
    """Run one worker in its own scratch directory; returns its JSON and wall time."""
    workdir = tempfile.mkdtemp(prefix=f"{mode}-", dir=OUT_DIR)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace), "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HANG_FACTOR * args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - t0


def _declared_metrics():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "eigenvol", "__init__.py")):
        print("run from the repository root: src/eigenvol is missing", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared_metrics()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            setups = []
            samples = [_worker("pass", args, trace=1,
                               spans=os.path.join(OUT_DIR, f"{tag}.spans.json"))[0]]
        else:
            setups = [_worker("setup", args)[0]["setup_s"] for _ in range(SETUP_SAMPLES)]
            # whole passes while another one of typical length still fits
            samples, elapsed, t0 = [], [], time.monotonic()
            while True:
                sample, seconds = _worker("pass", args)
                samples.append(sample)
                elapsed.append(seconds)
                if time.monotonic() - t0 + statistics.median(elapsed) > args.seconds:
                    break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    setups += [s["setup_s"] for s in samples]
    passes = [s["pass"] for s in samples]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.trace:
        layers = samples[0]["layers"]
        values = {}
        for name in per_layer:  # absent layers did no work in this workload
            layer, _, field = name.rpartition(".")
            values[name] = layers.get(layer, {}).get(field, 0)
        units = per_layer
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }
        units = end_to_end
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    machine = samples[0]["machine"]
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, setup_samples=setups, passes=passes,
                  peak_rss_samples=[s["peak_rss_mb"] for s in samples],
                  layers=samples[0]["layers"] if args.trace else None)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for f in failures:
        print(f"FAILED {json.dumps(f)}", file=sys.stderr)
    print(f"machine {json.dumps(machine)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
