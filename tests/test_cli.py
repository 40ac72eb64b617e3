import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conftest
from beamspec.cli import main
from beamspec.config import serialize_system, uniform_system
from beamspec.spectrum import DEFAULT_MODE_STATIONS

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
CONFIG_DIR = "configs"
UNIFORM_M0 = f"{CONFIG_DIR}/uniform_m0.json"
UNIFORM_M1 = f"{CONFIG_DIR}/uniform_m1.json"
VARIABLE_M1 = f"{CONFIG_DIR}/variable_m1.json"


def source_env():
    """The environment of a subprocess that imports beamspec from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_spectrum_closed_form(capsys):
    code, out, _ = run(capsys, ["spectrum", UNIFORM_M0, "--modes", "4"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "lambda", "s", "u0", "det_derivative", "sv_gap"]
    assert len(rows) == 4
    for i, row in enumerate(rows, start=1):
        assert int(row[0]) == i
        lam = float(row[1])
        assert lam == pytest.approx((i * math.pi / 2) ** 4, rel=1e-6)
        assert float(row[2]) == pytest.approx(lam ** 0.25, rel=1e-12)
    # numbers carry 17 significant digits
    assert len(rows[0][1].replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_spectrum_manifest_header(capsys):
    code, out, _ = run(capsys, ["spectrum", UNIFORM_M0, "--modes", "1"])
    assert code == 0
    comments = [ln for ln in out.splitlines() if ln.startswith("#")]
    joined = "\n".join(comments)
    for key in ("command:", "config:", "tol:", "modes:", "seed:", "version:",
                "wall_clock_s:"):
        assert key in joined


def test_spectrum_deterministic(capsys):
    _, out1, _ = run(capsys, ["spectrum", UNIFORM_M1, "--modes", "2"])
    _, out2, _ = run(capsys, ["spectrum", UNIFORM_M1, "--modes", "2"])
    data1 = [ln for ln in out1.splitlines() if not ln.startswith("#")]
    data2 = [ln for ln in out2.splitlines() if not ln.startswith("#")]
    assert data1 == data2


def test_verify_json(capsys):
    code, out, _ = run(capsys, ["verify", UNIFORM_M1, "--modes", "3"])
    assert code == 0
    doc = json.loads(out)
    for key in ("positivity", "strict_ordering", "simplicity", "sign_products",
                "orthogonality_max_offdiag", "rayleigh_max_residual",
                "step_classes", "theorem1_consistent", "manifest"):
        assert key in doc
    assert doc["theorem1_consistent"] is True
    assert doc["positivity"] is True
    assert len(doc["simplicity"]) == 3
    assert len(doc["sign_products"]["left"]) == 3
    assert doc["sign_products"]["note"]
    assert doc["orthogonality_max_offdiag"] <= 1e-7



def test_spectrum_slopes_match_verify(capsys):
    # both commands read det_derivative from the probe in the mode pass
    _, out, _ = run(capsys, ["spectrum", UNIFORM_M1, "--modes", "4"])
    _, rows = csv_rows(out)
    _, doc, _ = run(capsys, ["verify", UNIFORM_M1, "--modes", "4"])
    verified = [m["det_derivative"] for m in json.loads(doc)["simplicity"]]
    assert [float(row[4]) for row in rows] == verified

def test_modes_csv(capsys):
    code, out, _ = run(capsys, ["modes", UNIFORM_M0, "--modes", "1",
                                "--stations", "65"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["x", "n", "u", "du", "moment", "shear_q"]
    # 65 is raised to the 129 stations per side the mode assembly needs,
    # and the manifest reports what was used
    assert "# stations_per_side: 129" in out.splitlines()
    assert len(rows) == 2 * 129
    xs = np.array([float(r[0]) for r in rows])
    us = np.array([float(r[2]) for r in rows])
    moments = np.array([float(r[4]) for r in rows])
    assert xs[0] == -1.0 and xs[-1] == 1.0
    # hinged ends: displacement and moment vanish
    ends = (xs == -1.0) | (xs == 1.0)
    assert np.max(np.abs(us[ends])) <= 1e-10
    assert np.max(np.abs(moments[ends])) <= 1e-8
    # mode 1 peaks at the joint
    at_joint = np.isclose(xs, 0.0)
    assert np.max(us[at_joint]) == pytest.approx(1.0, abs=1e-6)


def test_cached_parser_carries_no_state(capsys):
    # the parser is built once per process: an option given to one call is
    # not a default of the next, and each command keeps its own format
    code, out, _ = run(capsys, ["modes", UNIFORM_M0, "--modes", "2", "--stations", "129"])
    assert code == 0 and "# stations_per_side: 129" in out.splitlines()
    code, out, _ = run(capsys, ["modes", UNIFORM_M0, "--modes", "2"])
    assert code == 0 and f"# stations_per_side: {DEFAULT_MODE_STATIONS}" in out.splitlines()
    code, out, _ = run(capsys, ["verify", UNIFORM_M0, "--modes", "2"])
    assert code == 0 and json.loads(out)["manifest"]["command"] == "verify"
    code, out, _ = run(capsys, ["spectrum", UNIFORM_M0, "--modes", "2"])
    assert code == 0 and "# command: spectrum" in out.splitlines()
    assert csv_rows(out)[0] == ["n", "lambda", "s", "u0", "det_derivative", "sv_gap"]


def test_modes_match_spectrum(capsys):
    # modes samples at the stations spectrum normalises at, so each mode's
    # left-span row at x = 0 carries spectrum's u0 to the last digit
    _, out, _ = run(capsys, ["modes", VARIABLE_M1, "--modes", "3"])
    assert f"# stations_per_side: {DEFAULT_MODE_STATIONS}" in out.splitlines()
    _, rows = csv_rows(out)
    joint = {}
    for r in rows:
        if float(r[0]) == 0.0:
            joint.setdefault(r[1], r[2])    # the left span's x = 0 row comes first
    _, out2, _ = run(capsys, ["spectrum", VARIABLE_M1, "--modes", "3"])
    _, rows2 = csv_rows(out2)
    assert joint == {r[0]: r[3] for r in rows2}


def test_sweep_matches_spectrum(capsys):
    code, out, _ = run(capsys, ["sweep", UNIFORM_M1, "--mass-list", "1",
                                "--modes", "2"])
    assert code == 0
    _, rows = csv_rows(out)
    lams_sweep = [float(r[2]) for r in rows]
    _, out2, _ = run(capsys, ["spectrum", UNIFORM_M1, "--modes", "2"])
    _, rows2 = csv_rows(out2)
    lams_spec = [float(r[1]) for r in rows2]
    assert lams_sweep == lams_spec
    # the u(0)=0 mode sits at pi^4 regardless of the mass
    assert lams_spec[1] == pytest.approx(math.pi ** 4, rel=1e-6)


def test_sweep_monotone(capsys):
    code, out, _ = run(capsys, ["sweep", UNIFORM_M0, "--mass-list", "0,1,10",
                                "--modes", "2"])
    assert code == 0
    _, rows = csv_rows(out)
    by_mode = {}
    for r in rows:
        by_mode.setdefault(int(r[1]), []).append(float(r[2]))
    assert by_mode[1] == sorted(by_mode[1], reverse=True)
    assert by_mode[2][0] == pytest.approx(by_mode[2][-1], rel=1e-8)


def test_oracle_table(capsys):
    code, out, _ = run(capsys, ["oracle", UNIFORM_M0, "--modes", "2",
                                "--elements", "20"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "shooting", "oracle_coarse", "oracle_fine",
                      "richardson", "rel_error_coarse", "rel_error_richardson",
                      "order"]
    # subspace steps of the coarse and fine solves
    steps = [ln for ln in out.splitlines() if ln.startswith("# oracle_steps: ")]
    assert len(steps) == 1
    assert all(1 <= int(v) <= 8 for v in steps[0][16:].strip("[]").split(","))
    for r in rows:
        assert float(r[5]) <= 1e-4
        assert float(r[6]) <= 1e-6
        assert abs(float(r[7]) - 4.0) <= 0.5


def test_modes_zero_is_usage_error(capsys):
    code, _, err = run(capsys, ["spectrum", UNIFORM_M0, "--modes", "0"])
    assert code == 2
    assert "modes" in err


def fail_if_solved(*args, **kwargs):
    raise AssertionError("a rejected argument must not reach the solver")


def test_verify_single_mode_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("beamspec.cli.solve_modes", fail_if_solved)
    code, _, err = run(capsys, ["verify", UNIFORM_M0, "--modes", "1"])
    assert code == 2
    assert "modes" in err


def test_oracle_modes_beyond_fem_dimension_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("beamspec.cli.solve_modes", fail_if_solved)
    # 4 elements per side give a 16-dimensional pencil
    code, _, err = run(capsys, ["oracle", UNIFORM_M0, "--modes", "17",
                                "--elements", "4"])
    assert code == 2
    assert "modes" in err


@pytest.mark.parametrize("masses, message", [
    ("0,x", "bad --mass-list value: '0,x'"),
    ("0,-1", "--mass-list needs nonnegative numbers"),
])
def test_bad_mass_list_is_usage_error(capsys, monkeypatch, masses, message):
    monkeypatch.setattr("beamspec.cli.solve_modes", fail_if_solved)
    code, out, err = run(capsys, ["sweep", UNIFORM_M0, "--mass-list", masses])
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("tol", ["1e-3", "1e-14", "nan"])
def test_tol_out_of_range_is_usage_error(capsys, tol):
    code, out, err = run(capsys, ["spectrum", UNIFORM_M0, "--tol", tol])
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_closed_pipe_exits_quietly(tmp_path):
    # ~400 kB of CSV: far more than a pipe buffers, so the writer meets the
    # closed pipe mid-output, as under `beamspec modes ... | head -1`
    env = source_env()
    err_path = tmp_path / "stderr.txt"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "beamspec.cli", "modes", UNIFORM_M0,
             "--modes", "2", "--stations", "1025"],
            stdout=subprocess.PIPE, stderr=err, env=env)
        assert proc.stdout.readline().startswith(b"# command: modes")
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert err_path.read_text() == ""
    assert code == 0


def test_verify_loads_no_scipy(tmp_path):
    # the shooting solve, its Galerkin seeds at a loose --tol, its
    # scan-and-refine fallback (the near-floor config, whose seeds are not
    # certified) and the Hermite oracle, through the CLI and on a 4-element
    # mesh, import numpy only; scipy loads on the first oscillation call
    near_floor = tmp_path / "near_floor.json"
    near_floor.write_text(serialize_system(conftest.near_floor_system()))
    code = "\n".join([
        "import sys",
        "import beamspec, beamspec.cli, beamspec.config, beamspec.fem",
        f"code = beamspec.cli.main(['verify', {UNIFORM_M0!r}, '--modes', '6',"
        f" '--out', {str(tmp_path / 'verify.json')!r}])",
        "assert code == 0, code",
        f"code = beamspec.cli.main(['spectrum', {VARIABLE_M1!r}, '--tol', '1e-6',"
        f" '--out', {str(tmp_path / 'spectrum.csv')!r}])",
        "assert code == 0, code",
        f"code = beamspec.cli.main(['spectrum', {str(near_floor)!r},"
        f" '--out', {str(tmp_path / 'near_floor.csv')!r}])",
        "assert code == 0, code",
        f"code = beamspec.cli.main(['oracle', {UNIFORM_M0!r}, '--modes', '6',"
        f" '--elements', '40', '--out', {str(tmp_path / 'oracle.csv')!r}])",
        "assert code == 0, code",
        f"system = beamspec.config.load_system({UNIFORM_M0!r})",
        "beamspec.fem.solve_generalized(beamspec.fem.assemble(system, 4), 2)",
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))",
        "assert not loaded, loaded",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=source_env(),
                          cwd=SRC_DIR.parent, capture_output=True, text=True,
                          timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "verify.json").read_text())["theorem1_consistent"]


def test_bad_config_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"M": 1, "left": {"rho": [1], "sigma": [-1]}, '
                   '"right": {"rho": [1], "sigma": [1]}}')
    code, _, err = run(capsys, ["spectrum", str(bad)])
    assert code == 2
    assert "sigma" in err


def test_config_breaking_positivity_between_grid_points_exit_2(tmp_path, capsys):
    # rho dips to -1e-7 at x = -0.4995, between the points of a 1001-point grid
    bad = tmp_path / "dip.json"
    bad.write_text('{"M": 0, "left": {"rho": [0.24950015, 0.999, 1.0], "sigma": [1]}, '
                   '"right": {"rho": [1], "sigma": [1]}}')
    code, out, err = run(capsys, ["spectrum", str(bad)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: rho nonpositive at x=-0.4995 ")


def test_config_under_a_file_exit_2(tmp_path, capsys):
    blocker = tmp_path / "x.json"
    blocker.write_text("{}")
    code, _, err = run(capsys, ["spectrum", str(blocker / "y.json")])
    assert code == 2
    assert err.startswith("error:")


def test_out_under_a_file_exit_2(tmp_path, capsys):
    blocker = tmp_path / "x.json"
    blocker.write_text("{}")
    code, out, err = run(capsys, ["spectrum", UNIFORM_M0, "--modes", "1",
                                  "--out", str(blocker / "y")])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_non_utf8_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, ["spectrum", str(path)])
    assert code == 2
    assert err.startswith("error:")


def test_missing_config_exit_2(capsys):
    code, _, _ = run(capsys, ["spectrum", "no_such_file.json"])
    assert code == 2


def test_stations_guard(capsys):
    code, _, _ = run(capsys, ["modes", UNIFORM_M0, "--stations", "10"])
    assert code == 2


def test_readme_quick_tour_runs(capsys):
    # the README's library quick tour, the one python block, runs as printed
    readme = (SRC_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip() == "[1, 1, 1, 1, 1, 1]"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out, _ = run(capsys, ["spectrum", UNIFORM_M0, "--modes", "1",
                                "--out", str(target)])
    assert code == 0
    assert out == ""
    header, rows = csv_rows(target.read_text())
    assert header[0] == "n" and len(rows) == 1


def test_solver_failure_exit_3(capsys, monkeypatch):
    from beamspec.quasi import IntegrationError

    def boom(*args, **kwargs):
        raise IntegrationError("step size underflow", -0.5)

    monkeypatch.setattr("beamspec.cli.solve_modes", boom)
    code, _, err = run(capsys, ["spectrum", UNIFORM_M0, "--modes", "1"])
    assert code == 3
    assert "solver failure" in err


def test_large_mass_exit_0(capsys, tmp_path):
    # uniform M = 1e12 at six modes: exit 3 before the left pair was rebased
    # for the modes' SVD; lam_6 = (3 pi)**4 whatever the mass
    path = tmp_path / "heavy.json"
    path.write_text(serialize_system(uniform_system(1e12)))
    code, out, _ = run(capsys, ["spectrum", str(path), "--modes", "6"])
    assert code == 0
    header, rows = csv_rows(out)
    lam_6 = float(rows[5][header.index("lambda")])
    assert lam_6 == pytest.approx((3 * math.pi) ** 4, rel=1e-10, abs=0)


def test_zero_is_written_without_sign(capsys, tmp_path):
    # the rebased left pair of uniform M = 1e12 gives some modes u(0) = -0.0
    # exactly; the CSV writes a zero as 0, never -0
    path = tmp_path / "heavy.json"
    path.write_text(serialize_system(uniform_system(1e12)))
    code, out, _ = run(capsys, ["spectrum", str(path), "--modes", "6"])
    assert code == 0
    header, rows = csv_rows(out)
    assert len(rows) == 6
    for row in rows:
        for name, field in zip(header, row):
            assert not re.fullmatch(r"-0(\.0*)?(e[-+]?\d+)?", field), (name, field)


def test_verify_forty_modes_at_loose_tol(capsys, tmp_path):
    # uniform M = 0 to mode 40 at the loosest --tol: every mode's sv_gap
    # stays above DEGENERACY_GAP (modes 31-39 once read 415-920, exit 4,
    # with their lam exact)
    from beamspec.spectrum import DEGENERACY_GAP

    out = tmp_path / "verify.json"
    code, _, _ = run(capsys, ["verify", UNIFORM_M0, "--modes", "40", "--tol", "1e-6",
                              "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 0
    assert report["theorem1_consistent"]
    assert min(m["sv_gap"] for m in report["simplicity"]) >= DEGENERACY_GAP
    for m in report["simplicity"]:
        exact = (m["n"] * math.pi / 2) ** 4
        assert abs(m["lambda"] - exact) <= 1e-6 * exact, m["n"]


def test_oracle_non_convergence_exit_3(capsys, monkeypatch):
    # variable M = 1 takes 3 steps at 20 elements; uniform M = 0 would take one
    monkeypatch.setattr("beamspec.fem.MAX_STEPS", 2)
    code, out, err = run(capsys, ["oracle", VARIABLE_M1, "--modes", "2",
                                  "--elements", "20"])
    assert code == 3
    assert out == ""
    assert "did not converge" in err


def test_oracle_heavy_mass_exit_3(capsys, tmp_path):
    # at 320 elements the FEM oracle cannot take uniform M = 1e12: the
    # block's B-Gram matrix loses definiteness in rounding, and the failure
    # names it
    path = tmp_path / "heavy.json"
    path.write_text(serialize_system(uniform_system(1e12)))
    code, out, err = run(capsys, ["oracle", str(path), "--modes", "6",
                                  "--elements", "320"])
    assert code == 3
    assert out == ""
    assert "B-Gram matrix" in err


def test_oracle_heavy_mass_at_20_elements(capsys, tmp_path):
    # the B-orthonormal start keeps the iteration's B-Gram matrices near the
    # identity: uniform M = 1e12 converges to the shooting values (from the
    # QR'd start the B-Gram matrix lost definiteness here)
    path = tmp_path / "heavy.json"
    path.write_text(serialize_system(uniform_system(1e12)))
    code, out, _ = run(capsys, ["oracle", str(path), "--modes", "6",
                                "--elements", "20"])
    assert code == 0
    header, rows = csv_rows(out)
    for row in rows:
        fields = dict(zip(header, row))
        assert float(fields["rel_error_richardson"]) <= 1e-7, fields["n"]


def test_verification_violation_exit_4(capsys, monkeypatch):
    import dataclasses

    import beamspec.cli as cli

    real_verify = cli.verify

    def pessimist(system, pairs):
        report = real_verify(system, pairs)
        return dataclasses.replace(report, theorem1_consistent=False)

    monkeypatch.setattr("beamspec.cli.verify", pessimist)
    code, out, _ = run(capsys, ["verify", UNIFORM_M0, "--modes", "2"])
    assert code == 4
    assert json.loads(out)["theorem1_consistent"] is False
