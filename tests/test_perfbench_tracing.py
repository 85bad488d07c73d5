"""The benchmark's tracer still finds, wraps and restores what it traces,
and its counters still read what the traced functions return.

`perfbench/tracing.py` looks each traced function up by module and name,
and its counters read fields of the results, so a rename or a deleted
field in the library would otherwise fail only when the benchmark runs.  The file is read and executed here, never written or imported as
a package, so no bytecode lands next to it.
"""

from __future__ import annotations

import math
import os
import sys
import types
from pathlib import Path

from eigenvol import confvol, mesh, packing, spectral
from eigenvol.fixtures import icosphere
from eigenvol.mesh import TriangleMesh

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def _bindings() -> dict:
    """Every attribute of every loaded eigenvol module, and the traced
    methods of TriangleMesh."""
    out = {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "eigenvol" or name.startswith("eigenvol.")
        for key, value in vars(module).items()
    }
    for attr in ("__init__", "_check_orientable"):
        out["TriangleMesh", attr] = TriangleMesh.__dict__[attr]
    return out


def test_every_traced_name_resolves_to_a_callable():
    table = _tracing().layer_table()
    assert table
    for layer, module, attr, _ in table:
        assert callable(getattr(module, attr, None)), (layer, module.__name__, attr)


def test_tracer_records_spans_and_restores_every_original():
    tracer = _tracing().Tracer()
    before = _bindings()
    tracer.install()
    try:
        assert spectral.eigensolve is not before["eigenvol.spectral", "eigensolve"]
        spectral.eigensolve(icosphere(1), 5)
    finally:
        tracer.uninstall()
    layers = {span[0] for span in tracer.spans}
    assert {"spectral.eigensolve", "spectral.assemble", "spectral.eigh", "mesh.build"} <= layers
    after = _bindings()
    restored = [key for key, value in before.items() if after.get(key) is not value]
    assert restored == []


def test_every_counter_reads_what_its_layer_returns(tmp_path):
    sphere = icosphere(1)
    path = tmp_path / "sphere.off"
    mesh.save_off(sphere, path)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        counted = spectral.negative_count(sphere, 2.5, seed=0)
        mu = packing.pushforward_measure(confvol.SphereImmersion.identity(sphere))
        family = packing.gny_decompose(mu, 3)
        search = confvol.conformal_volume(confvol.SphereImmersion.identity(sphere), starts=1)
        mesh.load_off(path)
    finally:
        tracer.uninstall()
    assert dict(tracer.counters) == {
        "spectral.negative_count.arpack_counts": counted.method == "arpack",
        "packing.gny_decompose.beta_rounds": round(-math.log2(family.beta)),
        "packing.gny_decompose.atoms": mu.size,
        "confvol.conformal_volume.evaluations": search.evaluations,
        "mesh.load_off.mb": os.path.getsize(path) / 1e6,
    }
    totals = tracer.layer_totals()
    for layer in ("spectral.negative_count", "packing.gny_decompose",
                  "confvol.conformal_volume", "mesh.load_off"):
        assert totals[layer]["calls"] == 1, layer
    assert totals["spectral.negative_count"]["arpack_solves"] == 0
    assert totals["spectral.negative_count"]["useful_ratio"] == 0.0
    assert totals["packing.gny_decompose"]["atoms"] == mu.size
    assert totals["confvol.conformal_volume"]["evaluations"] == search.evaluations > 0
