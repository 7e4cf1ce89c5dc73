"""Output checks, run after each case and outside its timed span.

The checks read the files a case wrote and test them against
independent arithmetic: populations against the d x d Pauli rate
equation, trajectory rows against the CPTP invariants, ``kappa.csv``
against its normalization (and against the input table when the input
is one), steady populations against the rate balance, the fit report
against ``bathfit.cost``, and the histogram against its own counts.
Each check returns a list of problems; an empty list means the case
passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from cases import SAMPLE_N, Case

POPULATION_TOL = 1e-9
TRACE_TOL = 1e-10
EIGEN_TOL = 1e-10
KAPPA_TOL = 1e-12
BALANCE_TOL = 1e-10
COST_TOL = 1e-12


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, np.array(rows, dtype=object)


def read_kappa(path: Path) -> np.ndarray:
    _, rows = read_csv(path)
    return rows[:, 1:].astype(float)


def rate_matrix(kappa: np.ndarray) -> np.ndarray:
    """Pauli rate matrix kappa - diag(1^T kappa) of the population block."""
    return kappa - np.diag(kappa.sum(axis=0))


def initial_populations(spec, basis: list[str]) -> np.ndarray:
    d = len(basis)
    if isinstance(spec, str):
        p = np.zeros(d)
        p[basis.index(spec)] = 1.0
        return p
    if "superposition" in spec:
        amps = np.zeros(d, dtype=complex)
        for term in spec["superposition"]:
            amps[basis.index(str(term[0]))] = complex(term[1], term[2] if len(term) > 2 else 0.0)
        p = np.abs(amps) ** 2
        return p / p.sum()
    return np.array([complex(*spec["matrix"][i][i]).real for i in range(d)])


def check_kappa(kappa: np.ndarray, config: dict) -> list[str]:
    problems = []
    defect = float(np.max(np.abs(kappa.sum(axis=0) - 1.0)))
    if defect > KAPPA_TOL:
        problems.append(f"kappa.csv column sums off by {defect:.3e}")
    if np.min(kappa) < 0:
        problems.append("kappa.csv has a negative rate")
    if "kappa" in config:
        diff = float(np.max(np.abs(kappa - np.asarray(config["kappa"], dtype=float))))
        if diff > KAPPA_TOL:
            problems.append(f"kappa.csv differs from the input table by {diff:.3e}")
    return problems


def check_evolve(config: dict, out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if report.get("status") != "ok":
        return [f"evolve report status {report.get('status')}: {report.get('error')}"]
    kappa = read_kappa(out / "kappa.csv")
    problems = check_kappa(kappa, config)

    header, rows = read_csv(out / "trajectory.csv")
    evo = config["evolution"]
    steps, g = int(evo["steps"]), float(evo["g"])
    if len(rows) != steps + 1:
        return problems + [f"trajectory has {len(rows)} rows, expected {steps + 1}"]
    trace = rows[:, header.index("trace")].astype(float)
    min_eig = rows[:, header.index("min_eigenvalue")].astype(float)
    if np.max(np.abs(trace - 1.0)) > TRACE_TOL:
        problems.append(f"trace defect {np.max(np.abs(trace - 1.0)):.3e}")
    if np.min(min_eig) < -EIGEN_TOL:
        problems.append(f"min eigenvalue {np.min(min_eig):.3e}")

    basis = [h[2:] for h in header if h.startswith("p_")]
    pops = rows[:, [header.index(f"p_{b}") for b in basis]].astype(float)
    if np.max(np.abs(pops.sum(axis=1) - trace)) > TRACE_TOL:
        problems.append("row populations do not sum to the trace column")
    rates = rate_matrix(kappa)
    p0 = initial_populations(evo["initial"], basis)
    for k in sorted({0, 1, steps // 3, (2 * steps) // 3, steps}):
        expected = expm(k * g * rates) @ p0
        err = float(np.max(np.abs(pops[k] - expected)))
        if err > POPULATION_TOL:
            problems.append(f"populations at step {k} off the rate equation by {err:.3e}")
    final = np.array([report["final_populations"][b] for b in basis])
    err = float(np.max(np.abs(final - expm(steps * g * rates) @ p0)))
    if err > POPULATION_TOL:
        problems.append(f"final populations off the rate equation by {err:.3e}")
    return problems


def check_steady(config: dict, out: Path) -> list[str]:
    report = json.loads((out / "steady_report.json").read_text(encoding="utf-8"))
    if report.get("status") != "ok":
        return [f"steady-state report status {report.get('status')}: {report.get('error')}"]
    kappa = np.asarray(config["kappa"], dtype=float)
    _, rows = read_csv(out / "steady.csv")
    if len(rows) == 0 or len(rows) != report.get("count"):
        return [f"steady.csv has {len(rows)} states, report says {report.get('count')}"]
    problems = []
    rates = rate_matrix(kappa)
    for idx, row in enumerate(rows[:, 1:].astype(float)):
        if abs(row.sum() - 1.0) > BALANCE_TOL or row.min() < -BALANCE_TOL:
            problems.append(f"steady state {idx} is not a population vector")
        residual = float(np.max(np.abs(rates @ row)))
        if residual > BALANCE_TOL:
            problems.append(f"steady state {idx} unbalanced by {residual:.3e}")
    return problems


def _fit_problem_parts(config: dict, case_dir: Path):
    from spinfoam_oqs.bathfit import (
        admissible_triple_basis, basis_from_network_file, chain_target, standard_model,
    )

    if "basis_file" in config:
        basis = basis_from_network_file(case_dir / config["basis_file"])
    else:
        basis = admissible_triple_basis(
            int(config["dim"]), "1/2", config["j_max"], seed=int(config["basis_seed"])
        )
    target = chain_target(int(config["vertices"]), basis,
                          internal_max=config["internal_max"], j_max=config["j_max"])
    return basis, target, standard_model(basis)


def check_fit(config: dict, case_dir: Path, out: Path) -> list[str]:
    from spinfoam_oqs.bathfit import cost

    report = json.loads((out / "fit_report.json").read_text(encoding="utf-8"))
    basis, target, model = _fit_problem_parts(config, case_dir)
    problems = []
    if report["dim"] != len(basis) or report["vertices"] != int(config["vertices"]):
        problems.append("fit report dim or vertices do not match the config")
    if report["evaluations"] < 1 or report["status"] not in ("ok", "budget_exhausted"):
        problems.append(f"fit report status {report['status']} after {report['evaluations']}")
    recomputed = cost(target.flatten(), model.flattened(np.asarray(report["params"])))
    if abs(recomputed - report["cost"]) > COST_TOL:
        problems.append(f"fit cost {report['cost']!r} not reproduced ({recomputed!r})")
    return problems


def check_sample(out: Path, stdout: str) -> list[str]:
    _, rows = read_csv(out / "histogram.csv")
    width = 0.1
    density = rows[:, 1].astype(float)
    problems = []
    if len(rows) != 20:
        problems.append(f"histogram has {len(rows)} bins")
    if abs(density.sum() * width - 1.0) > 1e-12:
        problems.append(f"histogram integrates to {density.sum() * width!r}")
    counts = density * width * SAMPLE_N
    if np.max(np.abs(counts - np.round(counts))) > 1e-6 or round(counts.sum()) != SAMPLE_N:
        problems.append("histogram counts do not add up to the requested n")
    if f"n={SAMPLE_N} " not in stdout:
        problems.append("sample did not report the requested n")
    return problems


def check_case(case: Case, case_dir: Path, out: Path, stdout: str) -> list[str]:
    """All checks that apply to the subcommands the case ran."""
    problems: list[str] = []
    for command in case.commands:
        if command == "evolve":
            problems += check_evolve(case.config, out)
        elif command == "steady-state":
            problems += check_steady(case.config, out)
        elif command == "fit":
            problems += check_fit(case.config, case_dir, out)
        elif command == "sample":
            problems += check_sample(out, stdout)
    return problems
