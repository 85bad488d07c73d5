"""Check that the benchmark's output checks can fail.

    python3 perfbench/selfcheck.py

Run from the repository root.  For each workload and each of the seeds
0-3 it runs one pass, checks that every operation passes against the true
reference values, then perturbs one reference value at a time (scaled by
0.9, 1.1, 0.5, 2, 0.25 or 4, the first factor that the checks catch is
printed) and requires a failed check for each.  Exits 1 if an unperturbed check fails or a
perturbation goes unnoticed.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
FACTORS = (0.9, 1.1, 0.5, 2.0, 0.25, 4.0)
SEEDS = range(4)


def _leaves(tree, path=()):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _scaled(value, factor):
    if isinstance(value, (list, tuple)):
        return [_scaled(v, factor) for v in value]
    if isinstance(value, Fraction):
        return value * Fraction(factor)
    if isinstance(value, int):
        moved = round(value * factor)
        return moved if moved != value else value + (1 if factor > 1 else -1)
    return value * factor if value else factor - 1.0


def _failing(ops, state, inputs, oracle):
    bad = []
    for name, _, check in ops:
        bad += [f"{name}: {label}" for label, ok in check(state[name], inputs, oracle) if not ok]
    return bad


def selfcheck(workload, seed) -> bool:
    os.makedirs(".perfbench_out", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=".perfbench_out")
    try:
        inputs = workload.setup(seed, workdir)
        oracle = workload.oracles(inputs)
        ops = workload.operations(inputs)
        state = {}
        for name, run, _ in ops:
            state[name] = run(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = _failing(ops, state, inputs, oracle)
    print(f"{workload.name} seed {seed}: {len(ops)} operations, "
          f"{'all checks pass' if not bad else 'FAILING ' + '; '.join(bad)}")
    ok = not bad
    for path in _leaves(oracle):
        caught = None
        for factor in FACTORS:
            moved = copy.deepcopy(oracle)
            node = moved
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = _scaled(node[path[-1]], factor)
            failing = _failing(ops, state, inputs, moved)
            if failing:
                caught = (factor, failing[0])
                break
        label = "/".join(map(str, path))
        if caught:
            print(f"  perturbed {label} x{caught[0]}: caught by {caught[1]}")
        else:
            print(f"  perturbed {label}: NOT CAUGHT")
            ok = False
    return ok


def main() -> int:
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    results = [selfcheck(workload, seed)
               for workload in workloads.WORKLOADS.values() for seed in SEEDS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
