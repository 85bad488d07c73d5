"""In-memory span tracing of eigenvol's layers, installed from outside.

Tracing works by replacing functions, never by editing the library: each
traced function is looked up in its defining module and every attribute
of every loaded ``eigenvol`` module that refers to the same object is
swapped for a wrapper (so ``harness.gny_decompose``, ``packing.gny_decompose``
and ``eigenvol.gny_decompose`` are all covered).  Two methods of
``TriangleMesh`` are wrapped on the class.  ``uninstall`` restores every
original.

A span is ``[layer, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top).  Spans stay in a list until the run ends;
a layer's self time is the sum over its spans of duration minus the
duration of their direct children.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict


def _module_names():
    return sorted(n for n in sys.modules if n == "eigenvol" or n.startswith("eigenvol."))


def _beta_rounds(args, kwargs, result):
    # beta halves from 1/2 each round, so the winning beta names the round
    return {"beta_rounds": max(1, round(-math.log2(result.beta))),
            "atoms": (args[0] if args else kwargs["mu"]).size}


def _arpack_count(args, kwargs, result):
    return {"arpack_counts": result.method == "arpack"}


def _evaluations(args, kwargs, result):
    return {"evaluations": result.evaluations}


def _off_megabytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"mb": os.path.getsize(path) / 1e6}


def layer_table():
    """(layer name, module, attribute, counter callback) for every traced function.

    Imported lazily so that this module loads without the library.
    """
    from eigenvol import confvol, harness, mesh, moebius, packing, spectral

    return [
        ("spectral.eigh", spectral, "eigh", None),
        ("spectral.eigsh", spectral, "eigsh", None),
        ("spectral.assemble", spectral, "assemble_laplacian", None),
        ("spectral.eigensolve", spectral, "eigensolve", None),
        ("spectral.negative_count", spectral, "negative_count", _arpack_count),
        ("packing.gny_decompose", packing, "gny_decompose", _beta_rounds),
        ("packing.verify_family", packing, "verify_family", None),
        ("packing.select_light", packing, "select_light", None),
        ("packing.pushforward", packing, "pushforward_measure", None),
        ("confvol.conformal_volume", confvol, "conformal_volume", _evaluations),
        ("confvol.face_areas", confvol, "spherical_face_areas", None),
        ("confvol.hersch_center", confvol, "hersch_center", None),
        ("confvol.distortion", confvol, "conformal_distortion", None),
        ("moebius.xi_map", moebius, "xi_map", None),
        ("moebius.u_annulus", moebius, "u_annulus", None),
        ("harness.pointwise_laplacian", harness, "_pointwise_laplacian", None),
        ("harness.conformal_balance", harness, "conformal_balance", None),
        ("harness.checks", harness, "check_first_eigenvalue", None),
        ("harness.checks", harness, "check_curvature_first_eigenvalue", None),
        ("harness.checks", harness, "check_higher_eigenvalues", None),
        ("harness.checks", harness, "check_eigenvalue_counts", None),
        ("harness.checks", harness, "check_index", None),
        ("harness.checks", harness, "build_witness_chain", None),
        ("harness.run_verification", harness, "run_verification", None),
        ("mesh.curvature", mesh, "mean_curvature", None),
        ("mesh.load_off", mesh, "load_off", _off_megabytes),
    ]


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, layer, fn, counters=None):
        spans, stack, totals = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    totals[f"{layer}.{key}"] += value
            return result

        return traced

    def install(self) -> None:
        from eigenvol.mesh import TriangleMesh

        for layer, module, attr, counters in layer_table():
            original = getattr(module, attr)
            wrapper = self.wrap(layer, original, counters)
            for name in _module_names():
                mod = sys.modules[name]
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for layer, attr in (("mesh.build", "__init__"), ("mesh.orientable", "_check_orientable")):
            original = TriangleMesh.__dict__[attr]
            self._restore.append((TriangleMesh, attr, original))
            setattr(TriangleMesh, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def overhead_s(self, calls=20_000, repeats=7) -> float:
        """Wall time the wrappers added to the traced run, estimated.

        The number of spans times the cost of one wrapped call over a bare
        one, both timed in this process on a function that does nothing
        (best of ``repeats`` rounds of ``calls`` calls).  A traced pass
        minus an untraced pass cannot show this cost: the two differ by
        more from one pass to the next.
        """
        def bare(a, b=None):
            return a

        probe = Tracer()
        wrapped = probe.wrap("probe", bare)

        def best(fn):
            times = []
            for _ in range(repeats):
                probe.spans.clear()
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn(1, b=2)
                times.append(time.perf_counter() - t0)
            return min(times)

        return len(self.spans) * (best(wrapped) - best(bare)) / calls

    # ------------------------------------------------------------------ #

    def layer_totals(self) -> dict:
        """``{layer: {"calls", "self_s", "total_s", counters...}}``."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[i]
        for key, value in self.counters.items():
            layer, _, counter = key.rpartition(".")
            out.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})[counter] = value
        # ARPACK solves made inside negative_count; the useful ones are the
        # last solve of each count, one per count that took the ARPACK path
        solves = 0
        for name, _, _, parent in self.spans:
            if name != "spectral.eigsh":
                continue
            while parent >= 0 and self.spans[parent][0] != "spectral.negative_count":
                parent = self.spans[parent][3]
            solves += parent >= 0
        counts = out.setdefault("spectral.negative_count", {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        counts["arpack_solves"] = solves
        counts["useful_ratio"] = counts.get("arpack_counts", 0) / solves if solves else 0.0
        return out
