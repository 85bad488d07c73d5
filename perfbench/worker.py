"""One benchmark process: set up a workload, then make at most one pass.

    python3 perfbench/worker.py --mode setup|pass --workload NAME --seed N
                                --trace 0|1 --workdir DIR [--spans FILE]

``run.py`` starts every sample in a fresh process, so that ``setup_s``
includes the imports, every pass starts equally cold, and ``peak_rss_mb``
is the peak of a process that did nothing but set up and make one pass.
The last stdout line is a JSON object for ``run.py``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(workload, inputs, oracle):
    """One pass over the workload's operations; returns timings and verdicts."""
    ops = workload.operations(inputs)
    state, failures = {}, []
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for name, run, _ in ops:
        try:
            state[name] = run(state)
        except Exception:  # recorded as a failed operation, never hidden
            state[name] = None
            failures.append({"operation": name, "error": traceback.format_exc(limit=3)})
    wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    for name, _, check in ops:
        if state[name] is None:
            continue
        try:
            bad = [label for label, ok in check(state[name], inputs, oracle) if not ok]
        except Exception:
            bad = [traceback.format_exc(limit=3)]
        if bad:
            failures.append({"operation": name, "failed_checks": bad})
    return {"wall_s": wall, "cpu_s": cpu, "attempted": len(ops), "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads  # imports eigenvol, numpy and scipy

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.workdir)
    out = {"setup_s": time.perf_counter() - T_START}
    if args.mode == "pass":
        import machine

        oracle = workload.oracles(inputs)
        out["machine"] = machine.info()
        if args.trace:
            import tracing

            with tracing.Tracer() as tracer:
                out["pass"] = run_pass(workload, inputs, oracle)
            out["layers"] = tracer.layer_totals()
            out["layers"]["trace"] = {"overhead_s": tracer.overhead_s()}
            if args.spans:
                with open(args.spans, "w") as fh:
                    json.dump({"columns": ["layer", "start", "end", "parent"],
                               "spans": tracer.spans}, fh)
        else:
            out["pass"] = run_pass(workload, inputs, oracle)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
