"""Command line interface tests via click's runner."""

from __future__ import annotations

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.sparse.linalg import ArpackNoConvergence

from eigenvol import cli, fixtures, harness, spectral
from eigenvol.cli import main
from eigenvol.fixtures import icosphere
from eigenvol.harness import _ineq, run_verification
from eigenvol.mesh import save_off


@pytest.fixture()
def runner():
    return CliRunner()


def test_constants_json(runner):
    result = runner.invoke(main, ["constants", "-n", "2", "-m", "2"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["covering_number"] == 81
    assert data["mass_fraction"].startswith("1/")
    assert data["floats"]["higher_eigenvalue"] > 1e25


def test_constants_that_overflow_a_float_are_one_line(runner):
    result = runner.invoke(main, ["constants", "-m", "27"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: the proof constants for n = 2, m = 27 overflow a float"
    ]
    result = runner.invoke(main, ["constants", "-m", "26"])
    assert result.exit_code == 0
    assert json.loads(result.output)["floats"]["higher_eigenvalue"] > 1e300


def test_constants_past_the_integer_digit_limit_are_one_line(runner):
    result = runner.invoke(main, ["constants", "-n", "300"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: the proof constants for n = 300, m = 2 have 4309 digits, "
        "past Python's limit of 4300 for printing an integer"
    ]
    result = runner.invoke(main, ["constants", "-n", "298"])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["count_conformal"]) == len("1/") + 4280


def test_constants_reject_odd_dimension(runner):
    result = runner.invoke(main, ["constants", "-n", "3"])
    assert result.exit_code != 0
    assert "odd n" in result.output


def test_spectrum_fixture_json(runner):
    result = runner.invoke(
        main, ["spectrum", "--fixture", "icosphere:2", "--count", "5"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["num_zero"] == 1
    assert data["eigenvalues"][1] == pytest.approx(2.0, rel=0.01)
    assert data["genus"] == 0


def test_spectrum_csv(runner):
    result = runner.invoke(
        main,
        ["spectrum", "--fixture", "flat:6.283,6.283,12", "--count", "4",
         "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "k,eigenvalue,residual"
    assert len(lines) == 5


def test_spectrum_from_off_file(runner, tmp_path):
    path = tmp_path / "sphere.off"
    save_off(icosphere(2), path)
    result = runner.invoke(main, ["spectrum", "--mesh", str(path), "--count", "3"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["volume"] == pytest.approx(4 * np.pi, rel=0.03)


def test_mesh_and_fixture_are_exclusive(runner, tmp_path):
    path = tmp_path / "sphere.off"
    save_off(icosphere(1), path)
    result = runner.invoke(
        main, ["spectrum", "--fixture", "icosphere:1", "--mesh", str(path)]
    )
    assert result.exit_code != 0
    assert "exactly one" in result.output
    result = runner.invoke(main, ["spectrum"])
    assert result.exit_code != 0


def test_unknown_fixture_rejected(runner):
    result = runner.invoke(main, ["spectrum", "--fixture", "klein:3"])
    assert result.exit_code != 0
    assert "unknown fixture" in result.output


def test_fixture_without_parameters_takes_the_defaults(runner):
    result = runner.invoke(main, ["spectrum", "--fixture", "icosphere", "--count", "2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["volume"] == icosphere().area


@pytest.mark.parametrize("spec, message", [
    ("icosphere:1,2", "icosphere takes at most 1 parameters"),
    ("flat:1,x", "bad fixture parameters '1,x': could not convert string to float: 'x'"),
])
def test_bad_fixture_parameters_are_one_line(runner, spec, message):
    result = runner.invoke(main, ["spectrum", "--fixture", spec])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error")]
    assert errors == [f"Error: Invalid value: {message}"]


def test_icosphere_past_the_memory_is_one_line(runner, monkeypatch):
    def never_built():
        raise AssertionError("the icosphere was built before its size was checked")

    monkeypatch.setattr(fixtures, "_icosahedron", never_built)
    result = runner.invoke(main, ["spectrum", "--fixture", "icosphere:30"])
    assert result.exit_code == 1
    assert re.fullmatch(rf"Error: icosphere level 30 needs at least {24 * (30 * 4**30 + 2)} "
                        r"bytes, more than the \d+ bytes of physical memory\n", result.output)


def test_gny_reports_verified_family(runner):
    result = runner.invoke(main, ["gny", "--fixture", "icosphere:2", "-k", "3"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["ok"] is True
    assert data["disjoint_doubles"] is True
    assert len(data["masses"]) == 3
    assert min(data["masses"]) >= data["target_mass"]


def test_gny_exits_one_when_the_family_fails_verification(runner, monkeypatch):
    verify_family = cli.verify_family
    monkeypatch.setattr(
        cli, "verify_family", lambda mu, family: replace(verify_family(mu, family), ok=False)
    )
    result = runner.invoke(main, ["gny", "--fixture", "icosphere:2", "-k", "3"])
    assert result.exit_code == 1
    data = json.loads(result.output)
    assert data["ok"] is False and data["disjoint_doubles"] is True


def test_confvol_identity_sphere(runner):
    result = runner.invoke(
        main, ["confvol", "--fixture", "icosphere:2", "--starts", "1"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["value"] == pytest.approx(4 * np.pi, rel=0.03)
    assert data["diverged"] is False
    assert sorted(data["map"]) == ["pole", "t"]


def test_confvol_power_map(runner):
    result = runner.invoke(
        main, ["confvol", "--fixture", "icosphere:2", "--map", "power:2", "--starts", "1"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    # the degree-2 map covers the sphere twice
    assert data["base_area"] == pytest.approx(8 * np.pi, rel=0.01)
    assert data["value"] >= data["base_area"]


def test_power_map_of_a_mesh_outside_r3_is_one_line(runner):
    result = runner.invoke(main, ["confvol", "--fixture", "clifford:16", "--map", "power:2"])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: power map needs a unit_sphere mesh in R^3"]


def test_confvol_unknown_map_is_one_line(runner):
    result = runner.invoke(main, ["confvol", "--fixture", "icosphere:1", "--map", "shear"])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error")]
    assert errors == ["Error: Invalid value: unknown map 'shear'"]
    assert "Traceback" not in result.output


def test_confvol_non_integer_power_is_one_line(runner):
    result = runner.invoke(main, ["confvol", "--fixture", "icosphere:1", "--map", "power:x"])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: map 'power:x' needs an integer degree"]


def test_verification_error_is_one_line(runner, monkeypatch):
    def breaks():
        raise harness.VerificationError("constant chain broke")

    monkeypatch.setattr(harness, "_constants_section", breaks)
    result = runner.invoke(main, ["verify", "constants"])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: verification aborted: constant chain broke"]


def test_confvol_rejects_zero_starts(runner):
    result = runner.invoke(
        main, ["confvol", "--fixture", "icosphere:1", "--starts", "0"]
    )
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: starts must be an integer >= 1, got 0"]


def test_index_clifford(runner):
    result = runner.invoke(
        main,
        ["index", "--fixture", "clifford:24", "--shape-squared", "2.0",
         "--reference", "5"],
    )
    assert result.exit_code == 0
    assert "index = 5" in result.output


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_index_rejects_bad_shape_squared(runner, value):
    result = runner.invoke(
        main, ["index", "--fixture", "icosphere:2", "--shape-squared", value]
    )
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: shape_squared must be finite and nonnegative"
    ]


def test_index_takes_no_seed(runner):
    # the index count reads no spectrum, so there is nothing to seed
    result = runner.invoke(main, ["index", "--fixture", "icosphere:1", "--seed", "0"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--seed" in result.output


def test_index_mismatch_writes_its_report_and_exits_one(runner, tmp_path):
    out = tmp_path / "index.json"
    result = runner.invoke(
        main,
        ["index", "--fixture", "clifford:32", "--shape-squared", "2.0",
         "--reference", "4", "--out", str(out)],
    )
    assert result.exit_code == 1
    assert result.output.startswith("[    fail    ] index")
    report = json.loads(out.read_text())
    assert report["status"] == "fail"
    assert report["detail"]["index"] == 5


def test_verify_exits_one_when_a_check_fails(runner, monkeypatch):
    monkeypatch.setattr(harness, "_constants_section", lambda: [_ineq("broken", "1 <= 0", 1.0, 0.0)])
    result = runner.invoke(main, ["verify", "constants"])
    assert result.exit_code == 1
    assert "[    fail    ] broken: 1 <= 0" in result.output.splitlines()


def test_verify_rejects_kmax_below_one(runner):
    result = runner.invoke(main, ["verify", "higher", "--kmax", "0"])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: kmax must be an integer >= 1, got 0"]


def test_verify_section_and_report(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["verify", "constants", "--out", str(out)])
    assert result.exit_code == 0
    assert "== constants ==" in result.output
    assert "0 fail" in result.output
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["all_ok"] is True
    expected = run_verification("constants").as_dict()
    assert out.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    # timestamps live in the side file, never in the report itself
    assert "written_at" not in json.dumps(report)
    meta = json.loads((tmp_path / "report.run_meta.json").read_text())
    assert "written_at" in meta
    assert meta["command"] == "verify"


def test_verify_unknown_battery(runner):
    result = runner.invoke(main, ["verify", "nonsense"])
    assert result.exit_code != 0
    assert "unknown battery" in result.output


def test_plot_data_csv(runner, tmp_path):
    out = tmp_path / "stair.csv"
    result = runner.invoke(
        main,
        ["plot-data", "--fixture", "icosphere:2", "--count", "30",
         "--k-range", "5", "25", "--out", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,eigenvalue,weyl_line,fit_line"
    assert len(lines) == 31


def test_library_error_is_one_line(runner):
    # the flat torus has no coordinates, so it cannot be lifted to a sphere
    result = runner.invoke(main, ["gny", "--fixture", "flat:6.283,6.283,12"])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: lift needs vertex coordinates"]
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args", [
    ["constants"],
    ["spectrum", "--fixture", "icosphere:1", "--count", "4"],
    ["spectrum", "--fixture", "icosphere:1", "--count", "4", "--format", "csv"],
    ["gny", "--fixture", "icosphere:1", "-k", "2"],
])
def test_out_file_matches_stdout_and_names_its_command(runner, tmp_path, args):
    out = tmp_path / "result.txt"
    printed = runner.invoke(main, args)
    written = runner.invoke(main, args + ["--out", str(out)])
    assert printed.exit_code == written.exit_code == 0
    assert out.read_text() == printed.output
    meta = json.loads((tmp_path / "result.run_meta.json").read_text())
    assert meta["command"] == args[0]


def test_run_meta_records_each_openblas_build(runner, tmp_path, monkeypatch):
    # a build without a setter is listed too, so a pin that did nothing shows
    builds = (spectral._OpenBLAS("libopenblas_a.so", lambda: 2, lambda count: None),
              spectral._OpenBLAS("libopenblas_b.so", lambda: 4, None))
    monkeypatch.setattr(spectral, "_openblas", lambda: builds)
    out = tmp_path / "result.json"
    assert runner.invoke(main, ["constants", "--out", str(out)]).exit_code == 0
    meta = json.loads((tmp_path / "result.run_meta.json").read_text())
    assert meta["openblas"] == [
        {"library": "libopenblas_a.so", "threads": 2, "settable": True},
        {"library": "libopenblas_b.so", "threads": 4, "settable": False},
    ]


@pytest.mark.parametrize("out, meta", [
    ("out.d/report", "out.d/report.run_meta.json"),
    ("./plain", "plain.run_meta.json"),
])
def test_run_meta_sits_beside_an_out_file_without_extension(
    runner, tmp_path, monkeypatch, out, meta
):
    # a dot in a directory name, or the "./" prefix, is no file extension
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.d").mkdir()
    result = runner.invoke(main, ["constants", "--out", out])
    assert result.exit_code == 0
    assert json.loads((tmp_path / meta).read_text())["command"] == "constants"
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted([out.removeprefix("./"), meta])


def test_non_finite_off_coordinate_is_one_line(runner, tmp_path):
    path = tmp_path / "nan.off"
    path.write_text(
        "OFF\n4 4 0\n1 1 1\n1 -1 -1\nnan 1 -1\n-1 -1 1\n"
        "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
    )
    result = runner.invoke(main, ["spectrum", "--mesh", str(path)])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: vertex 2 has a non-finite coordinate"]


def test_repeated_off_face_is_one_line(runner, tmp_path):
    path = tmp_path / "repeat.off"
    path.write_text(
        "OFF\n4 5 0\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n"
        "3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n3 1 2 0\n"
    )
    result = runner.invoke(main, ["spectrum", "--mesh", str(path)])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: face 4 repeats the vertices of face 0"]


def test_overflowing_off_mesh_is_one_line(runner, tmp_path):
    path = tmp_path / "huge.off"
    path.write_text(
        "OFF\n4 4 0\n1e300 1e300 1e300\n1e300 -1e300 -1e300\n-1e300 1e300 -1e300\n"
        "-1e300 -1e300 1e300\n3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
    )
    result = runner.invoke(main, ["spectrum", "--mesh", str(path)])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: face 0 has an edge length that is not finite"]


def test_bad_off_face_index_is_one_line(runner, tmp_path):
    path = tmp_path / "bad.off"
    path.write_text(
        "OFF\n4 4 0\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n"
        "3 0 1 2\n3 0 3 x\n3 0 2 3\n3 1 3 2\n"
    )
    result = runner.invoke(main, ["spectrum", "--mesh", str(path)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: {path}:8: bad face index"]


@pytest.mark.parametrize("args", [["spectrum", "--mesh", "{dir}"], ["constants", "--out", "{dir}"]])
def test_a_directory_for_a_file_is_one_line(runner, tmp_path, args):
    result = runner.invoke(main, [a.format(dir=tmp_path) for a in args])
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: [Errno 21] Is a directory: '{tmp_path}'"]


def test_non_utf8_off_file_names_its_line(runner, tmp_path):
    path = tmp_path / "latin1.off"
    # a Latin-1 byte in a comment is ignored, in a coordinate refused
    path.write_bytes(
        b"OFF\n# caf\xe9\n4 4 0\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\xb2\n"
        b"3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
    )
    result = runner.invoke(main, ["spectrum", "--mesh", str(path)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: {path}:7: bad vertex coordinate"]


def test_zero_area_fixture_is_one_line(runner):
    result = runner.invoke(main, ["spectrum", "--fixture", "flat:1e-300,1e-300,8"])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: face 0 has zero area"]


@pytest.mark.parametrize("args, message", [
    (["spectrum", "--fixture", "revolution:inf,1,8"], "R must be finite, got inf"),
    (["spectrum", "--fixture", "revolution:3,-inf,8"], "r must be finite, got -inf"),
    (["confvol", "--fixture", "icosphere:1", "--map", "power:100000"],
     "degree 100000 sends a vertex image past the float range"),
])
def test_parameters_past_the_float_range_are_one_line(runner, args, message):
    # no RuntimeWarning either: the suite turns them into errors
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.splitlines() == [f"Error: {message}"]


def test_fixture_out_of_memory_is_one_line(runner, monkeypatch):
    # a real allocation of this size is not refused at once where memory
    # is overcommitted, so the builder raises what numpy would
    def too_large(n):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12,)")

    monkeypatch.setitem(cli._FIXTURES, "clifford", (too_large, (int,)))
    result = runner.invoke(main, ["spectrum", "--fixture", "clifford:1000000"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: out of memory: Unable to allocate 7.28 TiB for an array with shape (10**12,)"
    ]


def test_solver_error_is_one_line(runner, monkeypatch):
    def stalls(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(1), np.zeros((2562, 1)))

    monkeypatch.setattr(spectral, "eigsh", stalls)
    result = runner.invoke(main, ["spectrum", "--fixture", "icosphere:4", "--count", "4"])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: ARPACK converged only 1/4 pairs"]


def test_unreservable_packing_table_is_one_line(runner, packing_without_room):
    result = runner.invoke(main, ["gny", "--fixture", "icosphere:2", "-k", "3"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: cannot reserve the distance table of 162 atoms and 194 candidates: 676672 bytes"
    ]


@pytest.mark.parametrize("args", [
    ["gny", "--fixture", "icosphere:1", "-k", "2"],
    ["spectrum", "--fixture", "icosphere:1", "--count", "2"],
    ["confvol", "--fixture", "icosphere:1"],
    ["verify", "constants"],
])
def test_negative_seed_is_one_line(runner, args):
    # numpy's "expected non-negative integer" reached the gny command
    result = runner.invoke(main, args + ["--seed", "-1"])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: seed must be an integer >= 0, got -1"]


def test_gny_with_more_annuli_than_atoms_is_one_line(runner):
    # 163 annuli around 162 atoms cannot exist: refused before any round
    result = runner.invoke(main, ["gny", "--fixture", "icosphere:2", "-k", "163"])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: cannot pack 163 disjoint annuli of positive mass around 162 atoms"
    ]


def test_octahedra_sharing_their_poles_are_one_line(runner, tmp_path):
    path = tmp_path / "octahedra.off"
    s = np.sqrt(0.5)
    equators = "1 0 0\n0 1 0\n-1 0 0\n0 -1 0\n" + f"{s} {s} 0\n{-s} {s} 0\n{-s} {-s} 0\n{s} {-s} 0\n"
    faces = "".join(
        f"3 0 {u} {w}\n3 1 {w} {u}\n"
        for ring in ([2, 3, 4, 5], [6, 7, 8, 9])
        for u, w in zip(ring, ring[1:] + ring[:1])
    )
    path.write_text("OFF\n10 16 0\n0 0 1\n0 0 -1\n" + equators + faces)
    result = runner.invoke(main, ["spectrum", "--mesh", str(path)])
    assert result.exit_code == 1
    assert result.output.splitlines() == ["Error: the faces about vertex 0 form 2 fans, not one"]
