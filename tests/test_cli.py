"""Scenario runner and CLI surface tests."""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinfoam_oqs.cli import main
from spinfoam_oqs.lindblad import Trajectory
from spinfoam_oqs.scenario import (
    ScenarioConfig,
    ScenarioError,
    run_scenario,
    trajectory_csv,
)

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_config_validation_errors(tmp_path):
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_mapping({"backend": "nope"})
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_mapping({"backend": "pr3d"})
    with pytest.raises(ScenarioError):
        ScenarioConfig.from_mapping(
            {"backend": "asymptotic", "asymptotic": {"lambda1": 1.0}}
        )


@pytest.mark.parametrize(
    "pair",
    [[-1, 0], [0, 9], ["a", 1], [0, 1, 2]],
    ids=["negative", "out_of_range", "non_int", "triple"],
)
def test_bad_coherence_pair_rejected_before_any_output(tmp_path, pair):
    data = json.loads((SCENARIOS / "explicit_kappa_identity.json").read_text())
    data["kappa"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    data["basis"] = ["0", "1", "2"]
    data["evolution"]["initial"] = "0"
    data["coherences"] = [[0, 1], pair]
    with pytest.raises(ScenarioError, match=r"coherences.*" + re.escape(repr(pair))):
        ScenarioConfig.from_mapping(data)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["evolve", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert "coherences" in report["error"]
    assert not (tmp_path / "run" / "kappa.csv").exists()


def test_coherence_headers_distinct_at_two_digit_indices():
    rho = np.eye(12, dtype=complex) / 12
    rho[1, 11], rho[11, 1] = 0.01 + 0.02j, 0.01 - 0.02j
    basis = [str(i) for i in range(12)]
    text = trajectory_csv(Trajectory([rho]), basis, [(1, 11), (11, 1)])
    header, row = text.splitlines()[:2]
    names = header.split(",")
    assert len(names) == len(set(names))
    assert names[14:18] == ["re_rho_1_11", "im_rho_1_11", "re_rho_11_1", "im_rho_11_1"]
    assert row.split(",")[14:18] == ["0.01", "0.02", "0.01", "-0.02"]


def test_defaults_are_echoed_in_report(tmp_path):
    cfg = ScenarioConfig.from_file(SCENARIOS / "explicit_kappa_identity.json")
    report = run_scenario(cfg, tmp_path)
    assert report["status"] == "ok"
    echoed = report["config"]
    # defaults the file never mentioned are visible
    assert echoed["seed"] == 0
    assert echoed["jmax"] == "2"
    assert echoed["deterministic"] is True
    assert echoed["energy_scale"] == 1.0
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["config"]["seed"] == 0


def test_explicit_kappa_identity_constant_diagonals(tmp_path):
    cfg = ScenarioConfig.from_file(SCENARIOS / "explicit_kappa_identity.json")
    report = run_scenario(cfg, tmp_path)
    assert report["status"] == "ok"
    header, rows = read_csv(tmp_path / "trajectory.csv")
    p_cols = [header.index("p_1/2"), header.index("p_1")]
    first = [float(rows[0][c]) for c in p_cols]
    last = [float(rows[-1][c]) for c in p_cols]
    assert first == pytest.approx([0.6, 0.4], abs=1e-12)
    assert last == pytest.approx([0.6, 0.4], abs=1e-10)


def test_two_level_scenario_converges_to_closed_form(tmp_path):
    from spinfoam_oqs.amplitudes import AsymptoticParams, two_level_rho11

    cfg = ScenarioConfig.from_file(SCENARIOS / "two_level_asymptotic.json")
    report = run_scenario(cfg, tmp_path)
    assert report["status"] == "ok"
    block = cfg["asymptotic"]
    expected = two_level_rho11(
        block["lambda1"],
        block["lambda2"],
        AsymptoticParams(
            gamma_immirzi=block["gamma_immirzi"],
            regge_action=block["regge_action"],
            alpha=complex(*block["alpha"]),
            n_plus_abs=block["n_plus_abs"],
        ),
    )
    assert report["final_populations"]["1"] == pytest.approx(expected, abs=1e-8)


def test_cascade_scenario_invariants(tmp_path):
    cfg = ScenarioConfig.from_file(SCENARIOS / "cascade_pr3d.json")
    report = run_scenario(cfg, tmp_path)
    assert report["status"] == "ok"
    for name in ("W.csv", "kappa.csv", "trajectory.csv", "observables.csv",
                 "temperature.csv", "report.json"):
        assert (tmp_path / name).exists()
    header, rows = read_csv(tmp_path / "trajectory.csv")
    tr_col = header.index("trace")
    eig_col = header.index("min_eigenvalue")
    for row in rows:
        assert abs(float(row[tr_col]) - 1.0) < 1e-10
        assert float(row[eig_col]) >= -1e-10


def test_disconnected_eq20_scenario_invariants(tmp_path):
    cfg = ScenarioConfig.from_file(SCENARIOS / "disconnected_eq20.json")
    report = run_scenario(cfg, tmp_path)
    assert report["status"] == "ok"
    header, rows = read_csv(tmp_path / "trajectory.csv")
    tr_col = header.index("trace")
    eig_col = header.index("min_eigenvalue")
    for row in rows:
        assert abs(float(row[tr_col]) - 1.0) < 1e-10
        assert float(row[eig_col]) >= -1e-10


def test_deterministic_byte_identical_outputs(tmp_path):
    cfg1 = ScenarioConfig.from_file(SCENARIOS / "cascade_pr3d.json")
    cfg2 = ScenarioConfig.from_file(SCENARIOS / "cascade_pr3d.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg1, out1)
    run_scenario(cfg2, out2)
    for name in ("W.csv", "kappa.csv", "trajectory.csv", "observables.csv",
                 "temperature.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_error_serialized_in_report(tmp_path):
    cfg = ScenarioConfig.from_mapping(
        {
            "backend": "explicit_kappa",
            "kappa": [[0.9, 0.0], [0.0, 1.0]],  # column does not sum to 1
            "evolution": {"g": 1.0, "steps": 5, "initial": "0"},
        }
    )
    report = run_scenario(cfg, tmp_path)
    assert report["status"] == "error"
    assert "normalization" in report["error"]
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["status"] == "error"


def test_cli_evolve_exit_codes(tmp_path):
    rc = main(
        [
            "evolve",
            "--config", str(SCENARIOS / "explicit_kappa_identity.json"),
            "--out", str(tmp_path / "run"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "run" / "report.json").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "backend": "explicit_kappa",
        "kappa": [[0.5, 0.0], [0.0, 1.0]],
        "evolution": {"g": 1.0, "steps": 2, "initial": "0"},
    }))
    rc_bad = main(["evolve", "--config", str(bad), "--out", str(tmp_path / "bad_run")])
    assert rc_bad == 1


def test_cli_jobs_batch(tmp_path):
    rc = main(
        [
            "evolve",
            "--config",
            str(SCENARIOS / "explicit_kappa_identity.json"),
            str(SCENARIOS / "two_level_asymptotic.json"),
            "--jobs", "2",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "explicit_kappa_identity" / "report.json").exists()
    assert (tmp_path / "two_level_asymptotic" / "report.json").exists()


def test_cli_seed_and_jmax_overrides(tmp_path):
    rc = main(
        [
            "evolve",
            "--config", str(SCENARIOS / "explicit_kappa_identity.json"),
            "--out", str(tmp_path / "o"),
            "--seed", "99",
            "--jmax", "5/2",
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["config"]["seed"] == 99
    assert report["config"]["jmax"] == "5/2"


def test_cli_steady_state(tmp_path, capsys):
    rc = main(
        [
            "steady-state",
            "--config", str(SCENARIOS / "two_level_asymptotic.json"),
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "steady.csv").exists()
    out = capsys.readouterr().out
    assert "steady[0]" in out


def test_cli_two_level_prints_value(capsys):
    rc = main(["two-level", "--lambda1", "1", "--lambda2", "2"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(1.0 / 17.0)


def test_cli_two_level_sweep(tmp_path):
    rc = main(
        [
            "two-level", "--lambda1", "1", "--lambda2", "2",
            "--alpha-re", "1.0",
            "--sweep", "0.5", "3.0", "7",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "two_level_sweep.csv")
    assert header == ["lambda1", "lambda2", "rho11"]
    assert len(rows) == 49


def test_cli_fit_and_sample(tmp_path):
    spec = {
        "vertices": 2, "dim": 6, "seed": 3, "basis_seed": 0,
        "internal_max": "2", "j_max": "5/2",
        "restarts": 2, "max_evals_per_restart": 800,
    }
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(spec))
    rc = main(["fit", "--config", str(cfg), "--out", str(tmp_path / "fit_out")])
    assert rc == 0
    report = json.loads((tmp_path / "fit_out" / "fit_report.json").read_text())
    assert set(report) >= {"params", "cost", "evaluations", "seed", "status"}
    assert 0.0 <= report["cost"] <= 2.0

    rc = main(["sample", "--config", str(cfg), "--n", "200",
               "--out", str(tmp_path / "sample_out")])
    assert rc == 0
    header, rows = read_csv(tmp_path / "sample_out" / "histogram.csv")
    assert header == ["bin_left", "density"]
    assert len(rows) == 20


def test_cli_compare_subcommand(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    x = np.linspace(0.0, 5.0, 60)
    a.write_text("time,release\n" + "\n".join(
        f"{float(t)!r},{float(np.exp(-t))!r}" for t in x) + "\n")
    b.write_text("time,release\n" + "\n".join(
        f"{float(t)!r},{float(3.0 * np.exp(-t))!r}" for t in x) + "\n")
    rc = main(["compare", str(a), str(b)])
    assert rc == 0


def test_cli_spectral_temperature(tmp_path):
    cfg = ScenarioConfig.from_file(SCENARIOS / "cascade_pr3d.json")
    run_scenario(cfg, tmp_path / "run")
    rc = main(
        [
            "spectral-temperature",
            "--trajectory", str(tmp_path / "run" / "trajectory.csv"),
            "--spins", "0,1,2",
            "--out", str(tmp_path / "temps.csv"),
        ]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "temps.csv")
    assert header == ["step", "inv_kbt", "temperature"]
    assert len(rows) > 100


def console_script_target(name: str) -> str:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_cli_entry_point_installed(tmp_path):
    # The console script pip would generate: import the target named in
    # pyproject.toml, set argv[0] to the script name, exit with its result.
    target = console_script_target("spinfoam-oqs")
    module_name, sep, attr = target.partition(":")
    assert sep and module_name and attr, target
    assert callable(getattr(importlib.import_module(module_name), attr))

    wrapper = (
        "import sys\n"
        f"from {module_name} import {attr}\n"
        "sys.argv[0] = 'spinfoam-oqs'\n"
        f"sys.exit({attr}())\n"
    )
    pythonpath = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    runs = [([sys.executable, "-c", wrapper, "--help"],
             dict(os.environ, PYTHONPATH=pythonpath))]
    # Where the package is installed, the generated script itself is checked.
    installed = shutil.which("spinfoam-oqs")
    if installed:
        runs.append(([installed, "--help"], None))
    for command, env in runs:
        result = subprocess.run(
            command, capture_output=True, text=True, cwd=tmp_path, env=env
        )
        assert result.returncode == 0, result.stderr
        assert "evolve" in result.stdout


def test_cli_fit_with_basis_network_file(tmp_path):
    rc = main(
        [
            "fit",
            "--config", str(SCENARIOS / "fit_v2_from_network.json"),
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["dim"] == 10


def test_basis_from_network_file_matches_sampled_basis():
    from spinfoam_oqs.bathfit import admissible_triple_basis, basis_from_network_file

    from_file = basis_from_network_file(SCENARIOS / "fit_basis.net")
    sampled = admissible_triple_basis(10, seed=0)
    assert from_file == sampled


def test_cli_invalid_config_writes_error_report(tmp_path):
    bad = tmp_path / "invalid.json"
    bad.write_text(json.dumps({"backend": "pr3d"}))  # missing required blocks
    rc = main(["evolve", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 1
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["status"] == "error"
