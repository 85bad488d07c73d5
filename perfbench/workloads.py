"""The three benchmark workloads: inputs, operations and output checks.

A workload has

* ``setup(seed, workdir)``: build the inputs from the seed.  Its time is
  part of ``setup_s``, together with the imports.
* ``oracles(inputs)``: reference values from :mod:`oracles`, made apart
  from the library and never from a stored copy of its output.
* ``operations(inputs)``: ``(name, run, check)`` triples executed in order.
  ``run(state)`` calls the public API and may read the outputs of earlier
  operations from ``state``; ``check(output, inputs, oracle)`` returns
  ``[(label, ok), ...]``.  An operation fails when it raises or when one
  of its checks is false.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import numpy as np

import oracles as ref
# operations call through module attributes so that the traced run,
# which swaps those attributes for wrappers, sees every call
import eigenvol as ev
from eigenvol import harness
from eigenvol.mesh import TriangleMesh
from eigenvol.moebius import xi_map

SPHERE_AREA = 4.0 * math.pi
CLIFFORD_AREA = 2.0 * math.pi**2


def _close(value, target, rel) -> bool:
    return abs(value - target) <= rel * abs(target)


def _spectrum_checks(spec, expected, rel):
    lam = np.asarray(spec.eigenvalues)
    return [
        ("arpack path", spec.method == "arpack"),
        ("eigenvalues match closed form", len(lam) == len(expected)
         and all(_close(a, b, rel) if b else abs(a) < 1e-8 for a, b in zip(lam, expected))),
        ("residuals below 1e-8", spec.max_residual < 1e-8),
    ]


# ---------------------------------------------------------------------- #
# battery: the nine-section reference report


class Battery:
    name = "battery"

    @staticmethod
    def setup(seed, workdir):
        return {"seed": seed}

    @staticmethod
    def oracles(inputs):
        return {
            "constants": {(2, m): ref.proof_constants(2, m) for m in (2, 3, 4)},
            "lambda_1": 2.0,
            "indices": [1, 5],
            "weyl_slope": 4.0 * math.pi,
        }

    @staticmethod
    def operations(inputs):
        return [("run_verification", lambda state: ev.run_verification("all", inputs["seed"]),
                 Battery.check)]

    @staticmethod
    def check(report, inputs, oracle):
        sections = dict(report.sections)
        out = [("every check passes", all(r.status == "pass" for r in report.checks))]
        consts = sections.get("constants", [])
        seen = set()
        for r in consts:
            d = r.detail
            want = oracle["constants"].get((d["n"], d["m"]))
            seen.add((d["n"], d["m"]))
            out.append((f"constants n={d['n']} m={d['m']} exact", want is not None
                        and d["covering_number"] == want["covering_number"]
                        and Fraction(d["mass_fraction"]) == want["mass_fraction"]
                        and Fraction(d["higher_eigenvalue"]) == want["higher_eigenvalue"]))
        out.append(("constants for m = 2, 3, 4", seen == set(oracle["constants"])))
        reference = [r for r in sections.get("first-eigenvalue", [])
                     if r.name == "first-eigenvalue" and r.detail.get("vc_source") == "reference"]
        out.append(("lambda_1 within 2% of 2 on sphere, Clifford, Veronese",
                    len(reference) == 3
                    and all(_close(r.detail["lambda_1"], oracle["lambda_1"], 0.02) for r in reference)))
        out.append(("indices", [r.detail["index"] for r in sections.get("index", [])]
                    == oracle["indices"]))
        weyl = sections.get("weyl", [])
        out.append(("Weyl slopes within 10% of 4 pi", len(weyl) == 2
                    and all(_close(r.detail["slope"], oracle["weyl_slope"], 0.10) for r in weyl)))
        return out


# ---------------------------------------------------------------------- #
# replay-large: constructive replays past the dense cutoff


GAP_COUNTS = (("clifford48", 61.0), ("clifford64", 29.0))

# The packings keep the library's default seed, so every pass packs the same
# instance: over seeds 0-5 the random candidate poles changed the number of
# beta rounds, and a witness chain's time by up to 1.8x, which would swamp
# the run-to-run spread.  The seed still moves the balance centre, the
# Hersch pole and ARPACK's start vector.
PACKING_SEED = 0


class ReplayLarge:
    name = "replay-large"

    @staticmethod
    def setup(seed, workdir):
        rng = np.random.default_rng(seed)
        base5 = ev.icosphere(5)
        center = 0.5 * ref.unit_vector(rng, 3)
        meshes = {
            "sphere4": ev.icosphere(4),
            "clifford48": ev.clifford_torus(48),
            "clifford64": ev.clifford_torus(64),
            "offcenter5": TriangleMesh(base5.vertices + center, base5.faces),
        }
        files = {}
        for key, mesh in meshes.items():
            files[key] = os.path.join(workdir, f"{key}.off")
            ev.save_off(mesh, files[key])
        pole = ref.unit_vector(rng, 3)
        return {
            "seed": seed,
            "files": files,
            "arrays": {k: (m.vertices, m.faces, m.ambient) for k, m in meshes.items()},
            "center": center,
            "hersch_images": xi_map(pole, 1.5, meshes["sphere4"].vertices),
        }

    @staticmethod
    def oracles(inputs):
        return {
            "sphere_spectrum": ref.sphere_eigenvalues(9),
            "clifford_spectrum": ref.clifford_eigenvalues(9),
            "sphere_lambda_3": ref.sphere_eigenvalues(4)[3],
            "clifford_lambda_3": ref.clifford_eigenvalues(4)[3],
            "count_V4": ref.lattice_count(4.0),
            **{f"count_V{V:g}": ref.lattice_count(V) for _, V in GAP_COUNTS},
            "lambda_1": 2.0,
            "conformal_area": ref.conformal_area_translated_sphere(inputs["center"]),
        }

    @staticmethod
    def operations(inputs):
        seed = inputs["seed"]
        ops = []
        for key in inputs["files"]:
            ops.append((f"load_off:{key}", lambda state, key=key: ev.load_off(inputs["files"][key]),
                        lambda mesh, inp, orc, key=key: ReplayLarge.check_roundtrip(mesh, inp, key)))
        ops += [
            ("eigensolve:sphere4",
             lambda state: ev.eigensolve(state["load_off:sphere4"], count=9, seed=seed),
             lambda spec, inp, orc: _spectrum_checks(spec, orc["sphere_spectrum"], 0.01)),
            ("eigensolve:clifford48",
             lambda state: ev.eigensolve(state["load_off:clifford48"], count=9, seed=seed),
             lambda spec, inp, orc: _spectrum_checks(spec, orc["clifford_spectrum"], 0.01)),
            ("witness:sphere4",
             lambda state: harness.build_witness_chain(
                 state["load_off:sphere4"], ev.SphereImmersion.identity(state["load_off:sphere4"]),
                 k=3, vc_reference=SPHERE_AREA, seed=PACKING_SEED,
                 spectrum=state["eigensolve:sphere4"]),
             lambda chain, inp, orc: ReplayLarge.check_chain(chain, orc["sphere_lambda_3"])),
            ("witness:clifford48",
             lambda state: harness.build_witness_chain(
                 state["load_off:clifford48"],
                 ev.SphereImmersion.identity(state["load_off:clifford48"]),
                 k=3, vc_reference=CLIFFORD_AREA, seed=PACKING_SEED,
                 spectrum=state["eigensolve:clifford48"]),
             lambda chain, inp, orc: ReplayLarge.check_chain(chain, orc["clifford_lambda_3"])),
            ("count-replay:clifford48:V4",
             lambda state: harness.check_eigenvalue_counts(
                 state["load_off:clifford48"], 4.0, m=3, vc_reference=CLIFFORD_AREA,
                 immersion=ev.SphereImmersion.identity(state["load_off:clifford48"]),
                 kappa=1.0, minimal_in_sphere=True, seed=PACKING_SEED),
             lambda results, inp, orc: ReplayLarge.check_count_replay(results, orc["count_V4"])),
        ]
        for key, V in GAP_COUNTS:
            ops.append((f"negative_count:{key}:V{V:g}",
                        lambda state, key=key, V=V: ev.negative_count(state[f"load_off:{key}"], V, seed=seed),
                        lambda nc, inp, orc, V=V: [
                            ("lattice count", nc.count == orc[f"count_V{V:g}"]),
                            ("no boundary modes", nc.boundary_count == 0),
                        ]))
        ops += [
            ("hersch-first-eigenvalue:sphere4",
             lambda state: harness.check_first_eigenvalue(
                 state["load_off:sphere4"],
                 immersion=ev.SphereImmersion(state["load_off:sphere4"], inputs["hersch_images"]),
                 vc_reference=SPHERE_AREA, seed=seed),
             lambda r, inp, orc: [
                 ("passes", r.status == "pass"),
                 ("lambda_1 within 1% of 2", _close(r.detail["lambda_1"], orc["lambda_1"], 0.01)),
                 ("lambda_1 <= centered test-function bound",
                  r.detail["lambda_1"] <= r.detail["replay"]["test_function_bound"] * (1 + 1e-9)),
                 ("images centred", r.detail["replay"]["moment_norm"] < 1e-9),
             ]),
            ("conformal_balance:offcenter5",
             lambda state: harness.conformal_balance(state["load_off:offcenter5"]),
             lambda bal, inp, orc: [
                 ("conformal area within 1% of 16 pi / (|c|^4 + 4)",
                  _close(bal.conformal_area, orc["conformal_area"], 0.01)),
                 ("residual finite", bool(np.isfinite(bal.l2))),
             ]),
        ]
        return ops

    @staticmethod
    def check_roundtrip(mesh, inputs, key):
        vertices, faces, ambient = inputs["arrays"][key]
        return [("OFF round trip bit-identical",
                 mesh.vertices.dtype == vertices.dtype
                 and np.array_equal(mesh.vertices, vertices)
                 and np.array_equal(mesh.faces, faces) and mesh.ambient == ambient)]

    @staticmethod
    def check_chain(chain, lambda_k):
        rayleigh = float(np.max(chain.rayleighs))
        return [
            ("every link passes", chain.ok and len(chain.results) == 5),
            ("lambda_k <= largest Rayleigh quotient", chain.lambda_k <= rayleigh * (1 + 1e-9)),
            ("lambda_k matches closed form", _close(chain.lambda_k, lambda_k, 0.01)),
        ]

    @staticmethod
    def check_count_replay(results, count):
        return [
            ("every count check passes", len(results) == 3 and all(r.ok for r in results)),
            ("lattice count", all(r.detail["observed_count"] == count for r in results)),
            ("replay ran", all("replay" in r.detail for r in results)),
        ]


# ---------------------------------------------------------------------- #
# confvol-search: Moebius search on non-trivial immersions


TORUS_RATIOS = (math.sqrt(2.0), 2.0, 3.0)
TORUS_SEGMENTS = 36

# The search keeps the library's default seed for its random starting
# poles: over seeds 0-15 they moved the evaluation count of one torus
# between 3553 and 5402.  The seed still picks the fold's pole.
SEARCH_SEED = 0


class ConfvolSearch:
    name = "confvol-search"

    @staticmethod
    def setup(seed, workdir):
        rng = np.random.default_rng(seed)
        maps = {}
        for R in TORUS_RATIOS:
            torus = ev.revolution_torus(R, 1.0, TORUS_SEGMENTS)
            maps[f"torus:R={R:.4f}"] = ev.SphereImmersion.lifted(torus)
        sphere = ev.icosphere(3)
        maps["power:2"] = ev.SphereImmersion.power(sphere, 2)
        pole = ref.unit_vector(rng, 3)
        maps["fold"] = ev.SphereImmersion.fold(sphere, pole)
        return {"seed": seed, "maps": maps, "fold_pole": pole}

    @staticmethod
    def oracles(inputs):
        starts = {}
        for key, imm in inputs["maps"].items():
            areas = ref.geodesic_triangle_areas(imm.images, imm.mesh.faces)
            if key == "fold":
                areas = areas[~ref.fold_crease_faces(imm.mesh.vertices, imm.mesh.faces,
                                                     inputs["fold_pole"])]
            starts[key] = float(areas.sum())
        return {
            "start_volume": starts,
            "willmore": {f"torus:R={R:.4f}": ref.torus_willmore(R, 1.0) for R in TORUS_RATIOS},
            "clifford_area": CLIFFORD_AREA,
            "double_sphere": 2.0 * SPHERE_AREA,
        }

    @staticmethod
    def operations(inputs):
        return [
            (f"conformal_volume:{key}",
             lambda state, imm=imm: ev.conformal_volume(imm, seed=SEARCH_SEED),
             lambda res, inp, orc, key=key: ConfvolSearch.check(key, res, orc))
            for key, imm in inputs["maps"].items()
        ]

    @staticmethod
    def check(key, res, oracle):
        v = res.value
        out = [("at least the starting pullback volume",
                v >= oracle["start_volume"][key] * (1 - 1e-9))]
        if key.startswith("torus:"):
            out.append(("Li-Yau: at most the Willmore energy (4%)",
                        v <= oracle["willmore"][key] * 1.04))
            if key == f"torus:R={math.sqrt(2.0):.4f}":
                out.append(("within 4% of 2 pi^2", _close(v, oracle["clifford_area"], 0.04)))
        elif key == "power:2":
            out.append(("within 1% of 8 pi", _close(v, oracle["double_sphere"], 0.01)))
        elif key == "fold":
            out.append(("two sheets over a hemisphere: at most 8 pi",
                        v <= oracle["double_sphere"] * (1 + 1e-9)))
        return out


WORKLOADS = {w.name: w for w in (Battery, ReplayLarge, ConfvolSearch)}
