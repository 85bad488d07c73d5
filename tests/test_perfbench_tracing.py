"""The benchmark's tracer still finds, wraps and restores what it traces.

`perfbench/tracing.py` looks each traced function up by module and name,
so a rename in the library would otherwise fail only when the benchmark
runs.  The file is read and executed here, never written or imported as
a package, so no bytecode lands next to it.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

from eigenvol import spectral
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
