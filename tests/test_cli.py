"""Scenario runner and CLI surface tests."""

import ast
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


@pytest.mark.parametrize(
    "where, value, message",
    [
        ("steps", 2.7, "evolution.steps"),
        ("steps", True, "evolution.steps"),
        ("steps", "5", "evolution.steps"),
        ("steps", -1, "evolution.steps"),
        ("g", True, "evolution.g"),
        ("g", "0.5", "evolution.g"),
        ("g", 0, "evolution.g"),
        ("g", float("nan"), "evolution.g"),
        ("g", float("inf"), "evolution.g"),
        ("evolution", [1.0, 50], "evolution must be a JSON object"),
        ("config", ["explicit_kappa"], "scenario config must be a JSON object"),
    ],
    ids=[
        "steps_float", "steps_bool", "steps_str", "steps_negative", "g_bool", "g_str",
        "g_zero", "g_nan", "g_inf", "evolution_list", "config_list",
    ],
)
def test_bad_evolution_rejected_before_any_output(tmp_path, where, value, message):
    data = json.loads((SCENARIOS / "explicit_kappa_identity.json").read_text())
    if where == "config":
        data = value
    elif where == "evolution":
        data["evolution"] = value
    else:
        data["evolution"][where] = value
    with pytest.raises(ScenarioError, match=re.escape(message)):
        ScenarioConfig.from_mapping(data)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["evolve", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert message in report["error"]
    assert not (tmp_path / "run" / "kappa.csv").exists()


def _chain(cfg):
    cfg["foam"] = {"kind": "chain", "vertices": 2.7}
    cfg["in_links"], cfg["out_links"] = [0, 1, 2], [3, 4, 5]
    del cfg["bath"]


@pytest.mark.parametrize(
    "scenario, edit, message",
    [
        ("cascade_pr3d", lambda c: c.update(energy_scale=True), "energy_scale must be"),
        ("cascade_pr3d", lambda c: c.update(energy_scale=0), "energy_scale must be"),
        ("cascade_pr3d", lambda c: c.update(in_links=[0.9]), "in_links must be"),
        ("cascade_pr3d", lambda c: c.update(out_links=[True]), "out_links must be"),
        ("cascade_pr3d", _chain, "foam.vertices must be an integer >= 2, got 2.7"),
        ("cascade_pr3d", lambda c: c["foam"].update(internal_max=True),
         "foam.internal_max must be a spin"),
        ("cascade_pr3d", lambda c: c.update(basis=[False, True, "2"]),
         "basis[0] must be a spin"),
        ("cascade_pr3d", lambda c: c.update(basis=["0", ["1", "x"], "2"]),
         "basis[1] must be a spin"),
        ("cascade_pr3d", lambda c: c.update(jmax=True), "jmax must be a spin"),
        ("cascade_pr3d", lambda c: c.update(jmax="1/0"), "jmax must be a spin"),
        ("cascade_pr3d", lambda c: c.update(foam=["cascade_pair"]), "unknown foam kind"),
        ("two_level_asymptotic", lambda c: c["asymptotic"].update(lambda1=True),
         "asymptotic.lambda1 must be a finite number"),
        ("two_level_asymptotic", lambda c: c["asymptotic"].update(regge_action="1.0"),
         "asymptotic.regge_action must be a finite number"),
        ("two_level_asymptotic", lambda c: c["asymptotic"].update(alpha=[1.0, False]),
         "asymptotic.alpha must be a number or [re, im]"),
        ("explicit_kappa_identity", lambda c: c.update(jmax="abc"), "jmax must be a spin"),
        ("cascade_pr3d", lambda c: c["bath"]["centers"].update({"7": True}),
         "bath.centers['7'] must be a number > 0 or a spin, got True"),
        ("cascade_pr3d", lambda c: c["bath"]["centers"].update({"7.9": 0.03}),
         "bath.centers must be a JSON object keyed by link indices"),
        ("cascade_pr3d", lambda c: c.update(bath={"kind": "delta", "assignment": {"1": True}}),
         "bath.assignment['1'] must be a spin"),
        ("cascade_pr3d", lambda c: c.update(bath={"kind": "gauss"}), "unknown bath kind 'gauss'"),
        ("cascade_pr3d",
         lambda c: c.update(bath={"kind": "superposition",
                                  "terms": [{"weight": True, "assignment": {"1": "1"}}]}),
         "bath.terms[0].weight must be a number or [re, im], got True"),
        ("disconnected_eq20", lambda c: c["bath"].update({"in": [1.5, 2, 3, 4, 5]}),
         "bath.in must be a list of integer link indices"),
        ("disconnected_eq20",
         lambda c: c["evolution"]["initial"]["superposition"][0].__setitem__(1, True),
         "evolution.initial.superposition must be"),
        ("disconnected_eq20",
         lambda c: c["evolution"]["initial"]["superposition"].__setitem__(0, ["2"]),
         "evolution.initial.superposition must be"),
        ("explicit_kappa_identity",
         lambda c: c["evolution"]["initial"]["matrix"][0].__setitem__(0, True),
         "evolution.initial.matrix must be a 2 x 2 matrix"),
        ("cascade_pr3d", lambda c: c["evolution"].update(initial="7"),
         "evolution.initial must be one of ['0', '1', '2']"),
        ("two_level_asymptotic", lambda c: c.update(normalization="over_m"),
         "normalization must be over_n for asymptotic, got 'over_m'"),
        ("cascade_pr3d", lambda c: c.update(normalization=5),
         "normalization must be over_n or over_m for pr3d, got 5"),
        ("two_level_asymptotic", lambda c: c.update(basis=["1", "2", "3"]),
         "basis must be two labels for asymptotic, got ['1', '2', '3']"),
        ("two_level_asymptotic", lambda c: c.update(basis=["1", True]),
         "basis[1] must be a string, got True"),
    ],
    ids=[
        "energy_scale_bool", "energy_scale_zero", "in_links_float", "out_links_bool",
        "vertices_float", "internal_max_bool", "basis_bool", "basis_tuple_label",
        "jmax_bool", "jmax_zero_denominator", "foam_list", "lambda1_bool",
        "regge_action_str", "alpha_bool", "jmax_any_backend", "center_bool",
        "center_key_fraction", "delta_spin_bool", "bath_kind", "bath_weight_bool", "tied_link_float",
        "superposition_weight_bool", "superposition_term_short", "matrix_cell_bool",
        "initial_label", "normalization_asymptotic", "normalization_bogus",
        "asymptotic_basis_size", "asymptotic_basis_bool",
    ],
)
def test_bad_fields_rejected_before_any_output(tmp_path, scenario, edit, message):
    data = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    data["evolution"]["steps"] = 5
    edit(data)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        ScenarioConfig.from_mapping(data)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    rc = main(["evolve", "--config", str(path), "--out", str(tmp_path / "run")])
    assert rc == 1
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["error"].startswith("ScenarioError: ") and message in report["error"]
    assert not (tmp_path / "run" / "kappa.csv").exists()


def test_superposition_bath_is_the_weighted_sum_of_its_delta_terms():
    from spinfoam_oqs.amplitudes import transition_matrix

    data = json.loads((SCENARIOS / "cascade_pr3d.json").read_text())
    bath_links = ("1", "2", "4", "5", "6", "7", "8", "9")
    assignments = [{l: "1" for l in bath_links},
                   {**{l: "2" for l in bath_links}, "7": "1", "8": "1"}]

    def W(bath):
        cfg = ScenarioConfig.from_mapping({**data, "bath": bath})
        return transition_matrix(cfg.provider, cfg.labels).entries

    W1, W2 = (W({"kind": "delta", "assignment": a}) for a in assignments)
    both = W({"kind": "superposition", "terms": [
        {"weight": 0.5, "assignment": assignments[0]},
        {"weight": [-0.7, 0.4], "assignment": assignments[1]},
    ]})
    assert np.abs(W1).max() > 0 and np.abs(W2).max() > 0
    assert both.tobytes() == (0.5 * W1 + (-0.7 + 0.4j) * W2).tobytes()


def test_jmax_override_is_checked_like_the_config(tmp_path, capsys):
    config = str(SCENARIOS / "cascade_pr3d.json")
    rc = main(["evolve", "--config", config, "--jmax", "abc", "--out", str(tmp_path / "e")])
    assert rc == 1
    report = json.loads((tmp_path / "e" / "report.json").read_text())
    assert report["error"] == "ScenarioError: jmax must be a spin such as 2 or \"5/2\", got 'abc'"
    assert not (tmp_path / "e" / "W.csv").exists()
    rc = main(["steady-state", "--config", config, "--jmax", "abc", "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "ScenarioError: jmax must be a spin" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_jmax_override_replaces_a_bad_jmax_in_the_file(tmp_path):
    # The override goes into the config before it is checked, so the file's
    # own jmax is never parsed.
    config = json.loads((SCENARIOS / "cascade_pr3d.json").read_text())
    config["jmax"] = "abc"
    path = tmp_path / "bad_jmax.json"
    path.write_text(json.dumps(config))
    rc = main(["evolve", "--config", str(path), "--jmax", "2", "--out", str(tmp_path / "e")])
    assert rc == 0
    report = json.loads((tmp_path / "e" / "report.json").read_text())
    assert report["status"] == "ok" and report["config"]["jmax"] == "2"
    good = tmp_path / "good"
    assert main(["evolve", "--config", str(SCENARIOS / "cascade_pr3d.json"), "--out", str(good)]) == 0
    for name in ("W.csv", "kappa.csv", "trajectory.csv"):
        assert (tmp_path / "e" / name).read_bytes() == (good / name).read_bytes()


def _leaves(node, path=()):
    """The path of every leaf of a JSON value; an empty list is a leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and node:
        for index, value in enumerate(node):
            yield from _leaves(value, path + (index,))
    else:
        yield path


def _edited(data, path, value):
    edited = json.loads(json.dumps(data))
    node = edited
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return edited


def _field_name(path) -> str:
    """A leaf's field: its object keys up to the first list index or data key."""
    names = []
    for key in path:
        if not (isinstance(key, str) and key.isidentifier()):
            break
        names.append(key)
    return ".".join(names)


FUZZ_VALUES = [True, "x", 1.5, []]


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_every_config_leaf_loads_or_is_rejected_by_name(tmp_path, capsys, name):
    # Each leaf of each shipped config set in turn to each fuzz value: a
    # scenario loads or raises a ScenarioError, fit and sample end in an exit
    # status, and a true leaf is rejected with an error naming its field.
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    shutil.copy(SCENARIOS / "fit_basis.net", tmp_path)
    for path in _leaves(data):
        for value in FUZZ_VALUES:
            edited, case = _edited(data, path, value), (path, value)
            if "backend" in edited:
                try:
                    ScenarioConfig.from_mapping(edited)
                except ScenarioError as exc:
                    assert value is not True or _field_name(path) in str(exc), (case, str(exc))
                else:
                    assert value is not True, case
                continue
            config = tmp_path / "fit.json"
            config.write_text(json.dumps(edited))
            for command in (["fit"], ["sample", "--n", "10"]):
                code = main([*command, "--config", str(config), "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err
                assert code in (0, 1), case
                if value is True:
                    assert code == 1 and err.startswith("error: ScenarioError: "), (case, err)
                    assert _field_name(path) in err, (case, err)


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
    assert echoed["jmax"] == "2"
    assert echoed["energy_scale"] == 1.0
    assert "seed" not in echoed and "deterministic" not in echoed
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["config"]["jmax"] == "2"


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


def test_evolve_runs_spins_past_2j_40(tmp_path):
    # The 6j kernel sizes itself from its spins: j up to 22 (2j = 44) needs no setup.
    config = tmp_path / "j22.json"
    config.write_text(json.dumps({
        "backend": "pr3d", "jmax": 22, "basis": ["20", "21", "22"],
        "foam": {"kind": "single_vertex"}, "in_links": [0, 1], "out_links": [3, 4],
        "bath": {"kind": "gaussian", "centers": {"2": 21, "5": 21}},
        "evolution": {"g": 0.5, "steps": 10, "initial": "20"},
    }))
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    header, rows = read_csv(tmp_path / "run" / "W.csv")
    assert header == ["out\\in", "20", "21", "22"]
    assert all(complex(cell) != 0 for row in rows for cell in row[1:])


def test_cli_jobs_batch(tmp_path, capsys):
    configs = [
        str(SCENARIOS / "explicit_kappa_identity.json"),
        str(SCENARIOS / "two_level_asymptotic.json"),
    ]
    rc = main(["evolve", "--config", *configs, "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "explicit_kappa_identity" / "report.json").exists()
    assert (tmp_path / "two_level_asymptotic" / "report.json").exists()
    # a batch runs its configs one after the other, in the order given
    assert capsys.readouterr().out.splitlines() == [f"{path}: ok" for path in configs]
    # evolve takes no --jobs: a batch is not run in parallel
    with pytest.raises(SystemExit):
        main(["evolve", "--config", *configs, "--jobs", "2", "--out", str(tmp_path / "j")])
    assert not (tmp_path / "j").exists()


def test_cli_seed_and_jmax_overrides(tmp_path):
    rc = main(
        [
            "evolve",
            "--config", str(SCENARIOS / "explicit_kappa_identity.json"),
            "--out", str(tmp_path / "o"),
            "--jmax", "5/2",
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["config"]["jmax"] == "5/2"
    # no evolve path reads a seed, so evolve takes none
    with pytest.raises(SystemExit):
        main(["evolve", "--config", str(SCENARIOS / "explicit_kappa_identity.json"),
              "--out", str(tmp_path / "s"), "--seed", "99"])
    assert not (tmp_path / "s").exists()


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


def test_cli_steady_state_reports_a_failed_kappa(tmp_path, capsys):
    # The config loads, but spin 3 lies above jmax 2, so W has an all-zero
    # column for it and kappa cannot be normalized.
    data = json.loads((SCENARIOS / "cascade_pr3d.json").read_text())
    data["basis"] = ["0", "1", "2", "3"]
    path = tmp_path / "above_jmax.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert main(["steady-state", "--config", str(path), "--out", str(out)]) == 1
    message = "ValueError: all-zero amplitude column for in state(s) ['3']"
    assert capsys.readouterr().err == f"error: {message}\n"
    report = json.loads((out / "steady_report.json").read_text())
    assert report["status"] == "error" and report["error"] == message
    assert not (out / "steady.csv").exists()


# Closed classes {1, 3} and {2, 4}; state 0 is transient and feeds both.
TWO_CLASS_KAPPA = [
    [0.2, 0.0, 0.0, 0.0, 0.0],
    [0.5, 0.4, 0.0, 0.7, 0.0],
    [0.3, 0.0, 0.5, 0.0, 0.9],
    [0.0, 0.6, 0.0, 0.3, 0.0],
    [0.0, 0.0, 0.5, 0.0, 0.1],
]


def test_cli_steady_state_one_row_per_closed_class(tmp_path):
    path = tmp_path / "two_class.json"
    path.write_text(json.dumps({
        "backend": "explicit_kappa",
        "kappa": TWO_CLASS_KAPPA,
        "evolution": {"g": 0.5, "steps": 10, "initial": "0"},
    }))
    for run in ("a", "b"):
        rc = main(["steady-state", "--config", str(path), "--out", str(tmp_path / run)])
        assert rc == 0
    header, rows = read_csv(tmp_path / "a" / "steady.csv")
    assert header == ["state_index", "p_0", "p_1", "p_2", "p_3", "p_4"]
    assert [row[0] for row in rows] == ["0", "1"]
    pops = np.array([[float(cell) for cell in row[1:]] for row in rows])
    expected = [[0, 7 / 13, 0, 6 / 13, 0], [0, 0, 9 / 14, 0, 5 / 14]]
    assert np.max(np.abs(pops - expected)) <= 1e-15
    report = json.loads((tmp_path / "a" / "steady_report.json").read_text())
    assert report["count"] == 2
    for name in ("steady.csv", "steady_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_steady_state_single_class_matches_generic_kernel(tmp_path):
    from spinfoam_oqs.lindblad import kappa_generator, steady_states
    from spinfoam_oqs.scenario import build_kappa

    config = SCENARIOS / "two_level_asymptotic.json"
    assert main(["steady-state", "--config", str(config), "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "steady.csv")
    assert len(rows) == 1
    kappa, _ = build_kappa(ScenarioConfig.from_file(config))
    reference = np.diag(steady_states(kappa_generator(kappa))[0]).real
    assert np.max(np.abs(np.array(rows[0][1:], dtype=float) - reference)) <= 1e-12


def test_main_reuses_its_parser_without_leaking_arguments(tmp_path, monkeypatch):
    from spinfoam_oqs import cli

    parser = cli._parser()
    assert cli._parser() is parser
    assert cli.build_parser() is not cli.build_parser()
    seen = []
    parse = parser.parse_args

    def recording_parse(argv=None):
        seen.append(parse(argv))
        return seen[-1]

    monkeypatch.setattr(parser, "parse_args", recording_parse)
    first = str(SCENARIOS / "explicit_kappa_identity.json")
    second = str(SCENARIOS / "two_level_asymptotic.json")
    rc = main(["evolve", "--config", first, second, "--jmax", "5/2",
               "--out", str(tmp_path / "batch")])
    assert rc == 0
    assert main(["evolve", "--config", first, "--out", str(tmp_path / "one")]) == 0
    assert [(ns.jmax, ns.config) for ns in seen] == [
        ("5/2", [first, second]), (None, [first])
    ]
    report = json.loads((tmp_path / "one" / "report.json").read_text())
    assert report["config"]["jmax"] == "2"


def test_main_reused_parser_gives_the_outputs_of_fresh_parsers(tmp_path):
    from spinfoam_oqs import cli

    config = str(SCENARIOS / "two_level_asymptotic.json")

    def run(out, fresh):
        for command in ("steady-state", "evolve"):
            if fresh:
                cli._parser.cache_clear()
            assert main([command, "--config", config, "--out", str(out)]) == 0

    run(tmp_path / "reused", fresh=False)
    run(tmp_path / "fresh", fresh=True)
    names = sorted(p.name for p in (tmp_path / "reused").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert "steady.csv" in names and "trajectory.csv" in names
    for name in names:
        reused = (tmp_path / "reused" / name).read_text()
        fresh = (tmp_path / "fresh" / name).read_text()
        if name == "report.json":  # wall_time_s differs from run to run
            reused, fresh = json.loads(reused), json.loads(fresh)
            reused.pop("wall_time_s"), fresh.pop("wall_time_s")
        assert reused == fresh, name


@pytest.mark.parametrize(
    "kappa, basis, message",
    [
        ([[1.0, 0.0], [1.0]], None, r"kappa is ragged: row lengths \[2, 1\]"),
        ([[0.5, 0.5, 0.0], [0.5, 0.5, 1.0]], None,
         r"kappa must be square, got 2 rows of 3 cells"),
        ([[1.0, 0.0], [0.0, 1.0]], ["a", "b", "c"],
         r"kappa is 2 x 2 but basis has 3 labels"),
        ([[1.0, "x"], [0.0, 1.0]], None, r"kappa\[0\]\[1\] is not a finite number: 'x'"),
        ([[10**400, 0.0], [0.0, 1.0]], None, r"kappa\[0\]\[0\] is not a finite number: 1000"),
    ],
    ids=["ragged", "non_square", "basis_size", "non_numeric", "beyond_float"],
)
def test_bad_kappa_table_rejected_before_any_output(tmp_path, capsys, kappa, basis, message):
    data = {
        "backend": "explicit_kappa",
        "kappa": kappa,
        "evolution": {"g": 0.5, "steps": 3, "initial": "0"},
    }
    if basis is not None:
        data["basis"] = basis
    with pytest.raises(ScenarioError, match=message):
        ScenarioConfig.from_mapping(data)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(path), "--out", str(out)]) == 1
    assert re.search(message, json.loads((out / "report.json").read_text())["error"])
    capsys.readouterr()
    assert main(["steady-state", "--config", str(path), "--out", str(out)]) == 1
    assert re.search(message, capsys.readouterr().err)
    assert not (out / "kappa.csv").exists()
    assert not (out / "steady.csv").exists()


def test_cli_two_level_prints_value(capsys):
    rc = main(["two-level", "--lambda1", "1", "--lambda2", "2"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(1.0 / 17.0)


def test_cli_two_level_sweep(tmp_path):
    from spinfoam_oqs.amplitudes import AsymptoticParams, two_level_rho11

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
    # every cell is a plain number (not e.g. np.float64(0.5))
    values = [[float(cell) for cell in row] for row in rows]
    grid = np.linspace(0.5, 3.0, 7).tolist()
    assert [row[:2] for row in values] == [[l1, l2] for l1 in grid for l2 in grid]
    params = AsymptoticParams(
        gamma_immirzi=1.0, regge_action=1.0, alpha=1.0, n_plus_abs=1.0
    )
    assert [row[2] for row in values] == [
        two_level_rho11(l1, l2, params) for l1, l2, _ in values
    ]

    out = tmp_path / "small.csv"
    assert main(["two-level", "--lambda1", "1", "--lambda2", "2",
                 "--sweep", "1", "2", "2", "--out", str(out)]) == 0
    assert out.read_text() == (
        "lambda1,lambda2,rho11\n1.0,1.0,0.5\n1.0,2.0,0.058823529411764705\n"
        "2.0,1.0,0.9411764705882353\n2.0,2.0,0.5\n"
    )


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


def _fit_config(tmp_path, **changes):
    spec = {"vertices": 2, "dim": 6, "seed": 3, "basis_seed": 0,
            "internal_max": "2", "j_max": "5/2", **changes}
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps(spec))
    return cfg


@pytest.mark.parametrize("command", ["fit", "sample"])
@pytest.mark.parametrize(
    "case, message",
    [
        ("missing", r"FileNotFoundError: .*no_such\.json"),
        ("directory", "IsADirectoryError: "),
        ("not_json", "JSONDecodeError: "),
        ("seed_flag", "ScenarioError: seed must be a non-negative integer, got -1"),
        ("seed_config", "ScenarioError: seed must be a non-negative integer, got 1.5"),
        ("vertices", "ScenarioError: vertices must be an integer, got 2.7"),
        ("dim", "ScenarioError: dim must be an integer, got True"),
        ("basis_seed", "ScenarioError: basis_seed must be an integer, got '0'"),
        ("not_object", "ScenarioError: a fit config must be a JSON object, got list"),
        ("j_max", "ScenarioError: j_max must be a spin"),
        ("internal_max", "ScenarioError: internal_max must be a spin"),
        ("internal_max_str", "ScenarioError: internal_max must be a spin"),
        ("j_min", "ScenarioError: j_min must be a spin"),
        ("j_min_fraction", "ScenarioError: j_min must be a spin"),
        ("basis_file", "ScenarioError: basis_file must be a file name, got 5"),
    ],
)
def test_cli_fit_and_sample_reject_bad_input_before_any_output(
    tmp_path, capsys, command, case, message
):
    args = []
    if case == "missing":
        cfg = tmp_path / "no_such.json"
    elif case == "directory":
        cfg = tmp_path / "configs"
        cfg.mkdir()
    elif case == "not_json":
        cfg = tmp_path / "fit.json"
        cfg.write_text("{vertices: 2")
    elif case == "seed_flag":
        cfg, args = _fit_config(tmp_path), ["--seed", "-1"]
    elif case == "seed_config":
        cfg = _fit_config(tmp_path, seed=1.5)
    elif case == "not_object":
        cfg = tmp_path / "fit.json"
        cfg.write_text("[2, 6]")
    else:
        bad = {
            "vertices": ("vertices", 2.7), "dim": ("dim", True), "basis_seed": ("basis_seed", "0"),
            "j_max": ("j_max", True), "internal_max": ("internal_max", True),
            "internal_max_str": ("internal_max", "x"), "j_min": ("j_min", [1]),
            "j_min_fraction": ("j_min", 0.7), "basis_file": ("basis_file", 5),
        }
        cfg = _fit_config(tmp_path, **dict([bad[case]]))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *args]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(f"error: {message}.*\n", captured.err, flags=re.S)
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "line, record, message",
    [
        (3, "link 1 0 - x", "2j must be an integer, got 'x'"),
        (3, "link 1 0 - -3", "2j must be >= 0, got -3"),
        (2, "link 0 zero - 3", "link endpoint must be an integer, got 'zero'"),
        (2, "link one 0 - 3", "link id must be an integer, got 'one'"),
        (5, "node 0", "node 0 repeats line 1"),
    ],
    ids=["2j", "negative_2j", "endpoint", "link_id", "duplicate_node"],
)
def test_fit_names_the_line_of_a_bad_network_record(tmp_path, capsys, line, record, message):
    lines = (SCENARIOS / "fit_basis.net").read_text().splitlines()
    if message.startswith("node"):
        lines.insert(line - 1, record)
    else:
        lines[line - 1] = record
    (tmp_path / "basis.net").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = main(["fit", "--config", str(_fit_config(tmp_path, basis_file="basis.net")),
               "--out", str(out)])
    assert rc == 1
    where = f"{tmp_path / 'basis.net'}, line {line}: "
    assert capsys.readouterr().err == f"error: ValueError: {where}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_cli_sample_rejects_empty_sample_before_any_output(tmp_path, capsys, n):
    out = tmp_path / "out"
    rc = main(["sample", "--config", str(_fit_config(tmp_path)), "--n", n, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: ValueError: need at least one sample\n"
    assert not out.exists()


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


def test_cli_spectral_temperature(tmp_path, capsys):
    # from the exported populations alone, the CLI writes the run's own
    # temperature.csv, so every cell is a plain number
    cfg = ScenarioConfig.from_file(SCENARIOS / "cascade_pr3d.json")
    run_scenario(cfg, tmp_path / "run")
    trajectory = str(tmp_path / "run" / "trajectory.csv")
    rc = main(
        [
            "spectral-temperature",
            "--trajectory", trajectory,
            "--spins", "0,1,2",
            "--out", str(tmp_path / "temps.csv"),
        ]
    )
    assert rc == 0
    header, rows = read_csv(tmp_path / "temps.csv")
    assert header == ["step", "inv_kbt", "temperature"]
    assert len(rows) > 100
    assert len([float(cell) for row in rows for cell in row]) == 3 * len(rows)
    written = (tmp_path / "temps.csv").read_bytes()
    assert written == (tmp_path / "run" / "temperature.csv").read_bytes()

    capsys.readouterr()
    rc = main(["spectral-temperature", "--trajectory", trajectory,
               "--spins", "0,1", "--out", str(tmp_path / "short.csv")])
    assert rc == 1
    assert "3 population columns, got 2 spins" in capsys.readouterr().err
    assert not (tmp_path / "short.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "{a}", "{a}", "--y-col", "nosuch"], "a.csv has no column 'nosuch'"),
        (["compare", "{a}", "{ragged}"], "ragged.csv: a row has 1 cells, the header 2"),
        (["compare", "{a}", "{missing}"], "error: FileNotFoundError: "),
        (["spectral-temperature", "--trajectory", "{missing}", "--spins", "0,1",
          "--out", "{out}"], "error: FileNotFoundError: "),
        (["spectral-temperature", "--trajectory", "{a}", "--spins", "0,x",
          "--out", "{out}"], "error: ValueError: "),
        (["spectral-temperature", "--trajectory", "{a}", "--spins", "0,1/0",
          "--out", "{out}"], "error: ValueError: '1/0' has a zero denominator"),
        (["spectral-temperature", "--trajectory", "{a}", "--spins", "0,1", "--scale", "nan",
          "--out", "{out}"], "error: ValueError: energy scale must be positive and finite"),
        (["two-level", "--lambda1", "nan", "--lambda2", "2", "--out", "{out}"],
         "error: ValueError: scale parameters must be positive and finite"),
        (["two-level", "--lambda1", "1", "--lambda2", "2", "--gamma-immirzi", "inf",
          "--out", "{out}"], "error: ValueError: gamma_immirzi must be finite"),
        (["two-level", "--lambda1", "1e100", "--lambda2", "2", "--out", "{out}"],
         "error: ValueError: lambda**4 is not finite"),
        (["two-level", "--lambda1", "1e70", "--lambda2", "2", "--gamma-immirzi", "1e300",
          "--regge-action", "1e10", "--out", "{out}"],
         "error: ValueError: phase 2 lambda gamma S is not finite"),
        (["two-level", "--lambda1", "1", "--lambda2", "2", "--sweep", "0", "1", "2.5",
          "--out", "{out}"], "error: ValueError: invalid literal for int()"),
        (["two-level", "--lambda1", "1", "--lambda2", "2", "--sweep", "0", "1", "-2",
          "--out", "{out}"], "error: ValueError: "),
    ],
    ids=[
        "compare_unknown_column", "compare_ragged_row", "compare_missing_file",
        "spectral_missing_file", "spectral_bad_spin", "spectral_zero_denominator",
        "spectral_nan_scale", "two_level_nan_scale", "two_level_inf_immirzi",
        "two_level_overflowing_scale", "two_level_overflowing_phase", "sweep_float_count",
        "sweep_negative_count",
    ],
)
def test_file_commands_reject_bad_input_before_any_output(tmp_path, capsys, argv, message):
    paths = {
        "a": tmp_path / "a.csv", "ragged": tmp_path / "ragged.csv",
        "missing": tmp_path / "missing.csv", "out": tmp_path / "out",
    }
    paths["a"].write_text("time,release\n0.0,1.0\n1.0,0.5\n")
    paths["ragged"].write_text("time,release\n0.0,1.0\n1.0\n")
    rc = main([arg.format(**paths) for arg in argv])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not paths["out"].exists()


def test_only_the_writer_writes_files():
    # Every output file goes through scenario.write_output: no other code in
    # the package calls .write_text(, .write_bytes( or json.dumps(.
    package = REPO / "src" / "spinfoam_oqs"
    writers, writes = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "write_output":
                writers.append((path.name, node.lineno, node.end_lineno))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and (
                    node.func.attr in ("write_text", "write_bytes")
                    or (node.func.attr == "dumps" and ast.unparse(node.func.value) == "json")
                )
            ):
                writes.append((path.name, node.lineno))
    assert [name for name, *_ in writers] == ["scenario.py"]
    (writer,) = writers
    assert writes and all(
        name == writer[0] and writer[1] <= line <= writer[2] for name, line in writes
    ), writes


def test_only_lindblad_clamps_states():
    # Every evolution steps and clamps its states in lindblad._stepped: no
    # other module of the package calls clamp_density_matrix.
    package = REPO / "src" / "spinfoam_oqs"
    callers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("clamp_density_matrix")
    }
    assert callers == {"lindblad.py"}, callers


# Every option of every subcommand. A new flag needs an edit here: each one
# must be read by the command that takes it.
CLI_SURFACE = {
    "evolve": {"--config", "--jmax", "--out"},
    "steady-state": {"--config", "--jmax", "--out"},
    "two-level": {"--lambda1", "--lambda2", "--alpha-re", "--alpha-im", "--gamma-immirzi",
                  "--regge-action", "--n-plus-abs", "--sweep", "--out"},
    "fit": {"--config", "--seed", "--out"},
    "sample": {"--config", "--n", "--seed", "--out"},
    "compare": {"series_a", "series_b", "--x-col", "--y-col", "--x-col-b", "--y-col-b",
                "--normalized-time"},
    "spectral-temperature": {"--trajectory", "--spins", "--scale", "--out"},
}


def test_cli_surface_is_pinned():
    import argparse

    from spinfoam_oqs.cli import build_parser

    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {
        name: {
            option
            for action in sub._actions if not isinstance(action, argparse._HelpAction)
            for option in (action.option_strings or [action.dest])
        }
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_SURFACE


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


def run_fresh(code: str, cwd: Path) -> str:
    """Run ``code`` in a fresh interpreter on this checkout; return its stdout."""
    pythonpath = os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=pythonpath), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_import_leaves_scipy_linalg_to_expm(tmp_path):
    # lindblad.expm is the one import site of scipy.linalg, loaded on its first call.
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "import spinfoam_oqs\n"
        "from spinfoam_oqs import lindblad, qed_reference\n"
        "print('scipy.linalg' in sys.modules, qed_reference.expm is lindblad.expm)\n"
        "lindblad.expm(np.zeros((2, 2)))\n"
        "print('scipy.linalg' in sys.modules)\n",
        tmp_path,
    )
    assert out.split() == ["False", "True", "True"]


def test_cli_commands_on_the_shipped_configs_never_load_scipy_linalg(tmp_path):
    runs = []
    for path in sorted(SCENARIOS.glob("*.json")):
        if "backend" in json.loads(path.read_text(encoding="utf-8")):
            commands = [["evolve"], ["steady-state"]]
        else:
            commands = [["fit"], ["sample", "--n", "200"]]
        runs += [command + ["--config", str(path)] for command in commands]
    assert len(runs) == 12
    out = run_fresh(
        "import contextlib, io, json, sys\n"
        "from spinfoam_oqs.cli import main\n"
        f"for i, argv in enumerate(json.loads({json.dumps(json.dumps(runs))})):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(argv + ['--out', f'run{i}'])\n"
        "    print(rc, 'scipy.linalg' in sys.modules, ' '.join(argv[:1] + argv[-1:]))\n",
        tmp_path,
    )
    lines = out.splitlines()
    assert len(lines) == len(runs)
    for line in lines:
        assert line.startswith("0 False "), line


def test_readme_library_use_imports_resolve():
    # every import statement of README's "Library use" example
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
    tree = ast.parse(snippet.split("```", 1)[0])
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert any(
        isinstance(node, ast.ImportFrom) and node.module == "spinfoam_oqs"
        and "FoamProvider" in {alias.name for alias in node.names}
        for node in imports
    )
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})


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
    # the exact bytes: sorted keys, 2-space indent, LF, one trailing newline
    assert (tmp_path / "run" / "report.json").read_bytes() == (
        "{\n"
        f'  "config_path": {json.dumps(str(bad))},\n'
        '  "error": "ScenarioError: scenario needs an evolution block",\n'
        '  "status": "error"\n'
        "}\n"
    ).encode("utf-8")
