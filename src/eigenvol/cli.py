"""Command line interface.

Every subcommand works on either a built-in family (``--fixture
kind:params``) or an OFF file (``--mesh path``).  JSON output is
deterministic -- sorted keys, no timestamps; anything time-dependent
goes into a ``run_meta.json`` written next to the report.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

import click
import numpy as np

from . import __version__
from .confvol import SphereImmersion, conformal_volume, pullback_volume
from .fixtures import (
    clifford_torus,
    flat_torus,
    icosphere,
    revolution_torus,
    veronese,
)
from .harness import (
    VerificationError,
    check_index,
    proof_constants,
    run_verification,
)
from .mesh import load_off
from .packing import PackingError, gny_decompose, pushforward_measure, verify_family
from .spectral import SolverError, eigensolve, weyl_fit

_FIXTURES = {
    "icosphere": (icosphere, (int,)),
    "clifford": (clifford_torus, (int,)),
    "flat": (flat_torus, (float, float, int)),
    "revolution": (revolution_torus, (float, float, int)),
    "veronese": (veronese, (int,)),
}


def _build_fixture(spec: str):
    kind, _, rest = spec.partition(":")
    if kind not in _FIXTURES:
        raise click.BadParameter(
            f"unknown fixture {kind!r}; choose from {sorted(_FIXTURES)}"
        )
    builder, types = _FIXTURES[kind]
    if not rest:
        return builder()
    parts = rest.split(",")
    if len(parts) > len(types):
        raise click.BadParameter(f"{kind} takes at most {len(types)} parameters")
    try:
        args = [t(p) for t, p in zip(types, parts)]
    except ValueError as exc:
        raise click.BadParameter(f"bad fixture parameters {rest!r}: {exc}")
    return builder(*args)


def _get_mesh(fixture: str | None, mesh_path: str | None):
    if (fixture is None) == (mesh_path is None):
        raise click.UsageError("give exactly one of --fixture or --mesh")
    if fixture is not None:
        return _build_fixture(fixture)
    return load_off(mesh_path)


def _immersion(mesh, kind: str):
    if kind == "auto":
        kind = "identity" if mesh.ambient == "unit_sphere" else "lift"
    if kind == "identity":
        return SphereImmersion.identity(mesh)
    if kind == "lift":
        return SphereImmersion.lifted(mesh)
    if kind.startswith("power:"):
        try:
            degree = int(kind.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"map {kind!r} needs an integer degree") from None
        return SphereImmersion.power(mesh, degree)
    raise click.BadParameter(f"unknown map {kind!r}")


def _emit(content, out: str | None) -> None:
    """Write `content`, a dict as JSON or a (header, rows) pair as CSV.

    A file written to `out` gets a ``run_meta.json`` sidecar naming the
    running subcommand.
    """
    if isinstance(content, tuple):
        header, data = content
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(data)
        text = buf.getvalue()
    else:
        text = json.dumps(content, sort_keys=True, indent=2) + "\n"
    if not out:
        click.echo(text, nl=False)
        return
    with open(out, "w") as fh:
        fh.write(text)
    meta = {
        "command": click.get_current_context().info_name,
        "argv": sys.argv[1:],
        "written_at": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "numpy": np.__version__,
    }
    with open(os.path.splitext(out)[0] + ".run_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


fixture_opt = click.option(
    "--fixture",
    default=None,
    help="built-in surface, e.g. icosphere:3, clifford:32, "
    "flat:6.283,6.283,33, revolution:3,1,32, veronese:3",
)
mesh_opt = click.option("--mesh", default=None, type=click.Path(exists=True),
                        help="OFF file with a triangle mesh")
seed_opt = click.option("--seed", default=0, show_default=True)
out_opt = click.option("--out", default=None, type=click.Path(),
                       help="write output here instead of stdout")
fmt_opt = click.option("--format", "fmt", default="json", show_default=True,
                       type=click.Choice(["json", "csv"]))


class _Group(click.Group):
    """Turns the library's errors into one-line messages for every subcommand."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except VerificationError as exc:
            raise click.ClickException(f"verification aborted: {exc}") from exc
        except (ValueError, PackingError, SolverError) as exc:
            raise click.ClickException(str(exc)) from exc
        except MemoryError as exc:  # numpy's names the allocation it was refused
            raise click.ClickException(f"out of memory: {exc}".rstrip(": ")) from exc


@click.group(cls=_Group)
@click.version_option(version=__version__)
def main() -> None:
    """Eigenvalue bounds, conformal volume and annulus decompositions."""


@main.command()
@click.option("-n", default=2, show_default=True, help="dimension of the surface")
@click.option("-m", default=2, show_default=True, help="dimension of the target sphere")
@out_opt
def constants(n: int, m: int, out: str | None) -> None:
    """Exact proof constants for maps of n-manifolds into S^m."""
    cs = proof_constants(n, m)
    _emit(cs.as_dict(), out)


@main.command()
@fixture_opt
@mesh_opt
@click.option("--count", default=10, show_default=True, help="number of eigenvalues")
@seed_opt
@fmt_opt
@out_opt
def spectrum(fixture, mesh, count, seed, fmt, out) -> None:
    """Lowest Laplace eigenvalues of a surface."""
    surface = _get_mesh(fixture, mesh)
    spec = eigensolve(surface, count=count, seed=seed)
    payload = {
        "eigenvalues": spec.eigenvalues.tolist(),
        "num_zero": spec.num_zero,
        "max_residual": spec.max_residual,
        "method": spec.method,
        "volume": surface.area,
        "genus": surface.genus,
        "orientable": surface.orientable,
    }
    rows = (
        ["k", "eigenvalue", "residual"],
        [(k, lam, res) for k, (lam, res) in
         enumerate(zip(spec.eigenvalues, spec.residuals))],
    )
    _emit(rows if fmt == "csv" else payload, out)


@main.command()
@fixture_opt
@mesh_opt
@click.option("--map", "map_kind", default="auto", show_default=True,
              help="immersion to start from: auto, identity, lift, power:d")
@click.option("--starts", default=4, show_default=True,
              help="dilation poles, each starting one BFGS run of the sup "
                   "search: the last axis, then seeded random poles")
@seed_opt
@out_opt
def confvol(fixture, mesh, map_kind, starts, seed, out) -> None:
    """Conformal volume of an immersion (sup of Moebius-moved areas)."""
    surface = _get_mesh(fixture, mesh)
    imm = _immersion(surface, map_kind)
    base = pullback_volume(imm)
    result = conformal_volume(imm, starts=starts, seed=seed)
    payload = {
        "value": result.value,
        "error_bar": result.error_bar,
        "diverged": result.diverged,
        "evaluations": result.evaluations,
        "base_area": base.value,
        "singular_faces": imm.singular_faces.size,
        "map": result.map.as_dict(),
        "surface_volume": surface.area,
    }
    _emit(payload, out)


@main.command()
@fixture_opt
@mesh_opt
@click.option("-k", "--pieces", "k", default=4, show_default=True,
              help="number of annuli to pack")
@seed_opt
@out_opt
def gny(fixture, mesh, k, seed, out) -> None:
    """Pack k annuli of comparable mass in the image sphere."""
    surface = _get_mesh(fixture, mesh)
    imm = _immersion(surface, "auto")
    mu = pushforward_measure(imm)
    family = gny_decompose(mu, k, seed=seed)
    report = verify_family(mu, family)
    payload = {
        "k": k,
        "beta": family.beta,
        "target_mass": family.target,
        "masses": report.masses.tolist(),
        "doubled_masses": report.doubled_masses.tolist(),
        "disjoint_doubles": report.disjoint,
        "ok": report.ok,
        "annuli": [a.as_dict() for a in family.annuli],
    }
    _emit(payload, out)
    if not report.ok:
        sys.exit(1)


@main.command()
@fixture_opt
@mesh_opt
@click.option("--shape-squared", default=0.0, show_default=True,
              help="constant |S|^2 of the minimal surface in S^3")
@click.option("--reference", default=None, type=int,
              help="known index to compare against")
@out_opt
def index(fixture, mesh, shape_squared, reference, out) -> None:
    """Morse index bound for a minimal surface in the 3-sphere."""
    surface = _get_mesh(fixture, mesh)
    result = check_index(surface, shape_squared, reference_index=reference)
    click.echo(result.line())
    if out:
        _emit(result.as_dict(), out)
    if result.status == "fail":
        sys.exit(1)


@main.command()
@click.argument("which", default="all")
@seed_opt
@click.option("--kmax", default=8, show_default=True,
              help="how many eigenvalues the k-dependent bounds cover")
@out_opt
def verify(which, seed, kmax, out) -> None:
    """Run the verification battery (WHICH: all or a section name)."""
    report = run_verification(which, seed=seed, kmax=kmax)
    for line in report.lines():
        click.echo(line)
    if out:
        _emit(report.as_dict(), out)
    if not report.all_ok:
        sys.exit(1)


@main.command("plot-data")
@fixture_opt
@mesh_opt
@click.option("--count", default=70, show_default=True)
@click.option("--k-range", nargs=2, type=int, default=(20, 60), show_default=True,
              help="window for the eigenvalue-growth fit")
@seed_opt
@out_opt
def plot_data(fixture, mesh, count, k_range, seed, out) -> None:
    """Eigenvalue staircase and the volume-law line, as CSV."""
    surface = _get_mesh(fixture, mesh)
    spec = eigensolve(surface, count=count, seed=seed)
    fit = weyl_fit(spec, k_range=tuple(k_range))
    rows = (
        ["k", "eigenvalue", "weyl_line", "fit_line"],
        [
            (k, lam, fit.target * k / surface.area,
             (fit.slope * k + fit.intercept) / surface.area)
            for k, lam in enumerate(spec.eigenvalues)
        ],
    )
    _emit(rows, out)
    click.echo(
        f"# slope {fit.slope:.4f} vs 4 pi = {fit.target:.4f} "
        f"({100 * fit.relative_error:.1f}% off), window {k_range}",
        err=True,
    )


if __name__ == "__main__":
    main()
