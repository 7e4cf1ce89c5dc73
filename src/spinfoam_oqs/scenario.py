"""Declarative scenario runner: config in, CSV/JSON artifacts out.

A scenario names one amplitude backend (3D recoupling foam, analytic
two-level, or an explicit damping table), an evolution block, and the
observables to export.  Outputs are deterministic for a fixed config and
seed; every default the run fills in is echoed back in report.json.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from . import __version__
from .amplitudes import (
    AsymptoticParams,
    BoundaryState,
    FoamProvider,
    KappaMatrix,
    TiedGaussianBath,
    TransitionMatrix,
    bridged_pair_foam,
    cascade_pair_foam,
    chain_foam,
    disconnected_pair_foam,
    kappa_from_W,
    single_vertex_foam,
    transition_matrix,
    two_level_rho11,
)
from .lindblad import (
    EvolutionConfig,
    Trajectory,
    evolve_effective,
    kappa_generator,
    state_from_amplitudes,
    steady_states,
)
from .observables import (
    EnergySpectrum,
    energy_expectations,
    energy_release,
    temperature_series,
)
from .recoupling import Spin, as_spin

TOLERANCES = {
    "trace": 1e-10,
    "hermiticity": 1e-12,
    "positivity": 1e-10,
    "kappa_normalization": 1e-12,
}

_FOAM_BUILDERS = {
    "single_vertex": lambda spec: single_vertex_foam(),
    "disconnected_pair": lambda spec: disconnected_pair_foam(),
    "bridged_pair": lambda spec: bridged_pair_foam(
        internal_range=(Spin(0), as_spin(spec.get("internal_max", "4")))
    ),
    "cascade_pair": lambda spec: cascade_pair_foam(
        internal_range=(Spin(0), as_spin(spec.get("internal_max", "4")))
    ),
    "chain": lambda spec: chain_foam(
        int(spec.get("vertices", 2)),
        internal_range=(Spin(0), as_spin(spec.get("internal_max", "4"))),
    ),
}

DEFAULTS = {
    "seed": 0,
    "normalization": "over_n",
    "jmax": "2",
    "energy_scale": 1.0,
    "coherences": [],
    "deterministic": True,
}


class ScenarioError(ValueError):
    """Configuration failed validation."""


@dataclass
class ScenarioConfig:
    """Validated scenario with every default made explicit."""

    raw: dict

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        cfg = dict(data)
        backend = cfg.get("backend")
        if backend not in ("pr3d", "asymptotic", "explicit_kappa"):
            raise ScenarioError(
                f"backend must be pr3d, asymptotic or explicit_kappa, got {backend!r}"
            )
        for key, value in DEFAULTS.items():
            cfg.setdefault(key, value)
        if "evolution" not in cfg:
            raise ScenarioError("scenario needs an evolution block")
        evo = dict(cfg["evolution"])
        evo.setdefault("g", 0.5)
        evo.setdefault("steps", 200)
        if "initial" not in evo:
            raise ScenarioError("evolution block needs an initial state")
        cfg["evolution"] = evo
        if backend == "pr3d":
            for key in ("basis", "foam", "in_links", "out_links"):
                if key not in cfg:
                    raise ScenarioError(f"pr3d backend needs {key!r}")
            foam_kind = cfg["foam"].get("kind")
            if foam_kind not in _FOAM_BUILDERS:
                raise ScenarioError(f"unknown foam kind {foam_kind!r}")
        elif backend == "asymptotic":
            block = cfg.get("asymptotic")
            if not block or "lambda1" not in block or "lambda2" not in block:
                raise ScenarioError("asymptotic backend needs lambda1 and lambda2")
            block = dict(block)
            block.setdefault("alpha", 0.0)
            block.setdefault("gamma_immirzi", 1.0)
            block.setdefault("regge_action", 1.0)
            block.setdefault("n_plus_abs", 1.0)
            cfg["asymptotic"] = block
            cfg.setdefault("basis", ["1", "2"])
        else:
            if "kappa" not in cfg:
                raise ScenarioError("explicit_kappa backend needs a kappa table")
            cfg.setdefault(
                "basis", [str(i) for i in range(len(cfg["kappa"]))]
            )
        dim = len(cfg["basis"])
        coherences = cfg["coherences"]
        if not isinstance(coherences, (list, tuple)):
            raise ScenarioError(
                f"coherences must be a list of index pairs, got {coherences!r}"
            )
        for pair in coherences:
            if not (
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and all(
                    isinstance(i, int) and not isinstance(i, bool) and 0 <= i < dim
                    for i in pair
                )
            ):
                raise ScenarioError(
                    f"coherences entry {pair!r} is not a pair of basis indices "
                    f"in [0, {dim})"
                )
        return cls(cfg)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_mapping(json.load(fh))

    def __getitem__(self, key):
        return self.raw[key]

    def get(self, key, default=None):
        return self.raw.get(key, default)


def _parse_alpha(value) -> complex:
    if isinstance(value, (list, tuple)):
        return complex(value[0], value[1] if len(value) > 1 else 0.0)
    return complex(value)


def _build_bath(spec: Mapping[str, Any]):
    kind = spec.get("kind")
    if kind == "gaussian":
        centers = {int(l): c for l, c in spec["centers"].items()}
        return BoundaryState.gaussian(centers)
    if kind == "delta":
        assignment = {int(l): as_spin(s) for l, s in spec["assignment"].items()}
        return BoundaryState.delta(assignment)
    if kind == "superposition":
        terms = [
            (_parse_alpha(t.get("weight", 1.0)),
             {int(l): as_spin(s) for l, s in t["assignment"].items()})
            for t in spec["terms"]
        ]
        return BoundaryState.superposition(terms)
    if kind == "gaussian_tied":
        return TiedGaussianBath(spec.get("in", []), spec.get("out", []))
    raise ScenarioError(f"unknown bath kind {kind!r}")


def build_kappa(cfg: ScenarioConfig) -> tuple[KappaMatrix, TransitionMatrix | None]:
    """Instantiate the scenario's damping matrix (and W when one exists)."""
    backend = cfg["backend"]
    if backend == "pr3d":
        foam = _FOAM_BUILDERS[cfg["foam"]["kind"]](cfg["foam"])
        labels = list(cfg["basis"])
        bath_spec = cfg.get("bath")
        bath = _build_bath(bath_spec) if bath_spec else None
        provider = FoamProvider(
            foam,
            in_links=tuple(int(l) for l in cfg["in_links"]),
            out_links=tuple(int(l) for l in cfg["out_links"]),
            bath=bath,
            j_max=as_spin(cfg["jmax"]),
        )
        W = transition_matrix(provider, labels)
        return kappa_from_W(W, cfg["normalization"]), W
    if backend == "asymptotic":
        block = cfg["asymptotic"]
        params = AsymptoticParams(
            gamma_immirzi=float(block["gamma_immirzi"]),
            regge_action=float(block["regge_action"]),
            alpha=_parse_alpha(block["alpha"]),
            n_plus_abs=float(block["n_plus_abs"]),
        )
        rho11 = two_level_rho11(
            float(block["lambda1"]), float(block["lambda2"]), params
        )
        entries = np.array([[rho11, rho11], [1.0 - rho11, 1.0 - rho11]])
        basis = tuple(str(b) for b in cfg["basis"])
        return KappaMatrix(basis, entries, "over_n"), None
    entries = np.asarray(cfg["kappa"], dtype=float)
    basis = tuple(str(b) for b in cfg["basis"])
    return KappaMatrix(basis, entries, cfg["normalization"]), None


def _initial_state(spec, basis) -> np.ndarray:
    dim = len(basis)
    if isinstance(spec, str):
        if spec not in basis:
            raise ScenarioError(f"initial state {spec!r} is not a basis label")
        amps = [1.0 if b == spec else 0.0 for b in basis]
        return state_from_amplitudes(amps)
    if isinstance(spec, Mapping) and "superposition" in spec:
        amps = [0.0] * dim
        for term in spec["superposition"]:
            label = str(term[0])
            if label not in basis:
                raise ScenarioError(f"initial state label {label!r} unknown")
            weight = complex(term[1], term[2] if len(term) > 2 else 0.0)
            amps[basis.index(label)] = weight
        return state_from_amplitudes(amps)
    if isinstance(spec, Mapping) and "matrix" in spec:
        rows = spec["matrix"]
        rho = np.array(
            [[_parse_alpha(cell) for cell in row] for row in rows], dtype=complex
        )
        if rho.shape != (dim, dim):
            raise ScenarioError("initial matrix dimension mismatch")
        return rho
    raise ScenarioError("initial state must be a label, superposition, or matrix")


def _spectrum(cfg: ScenarioConfig, basis) -> EnergySpectrum | None:
    """Energy levels from single-spin basis labels, when they are spins."""
    try:
        spins = tuple(as_spin(b) for b in basis)
    except (ValueError, TypeError):
        return None
    if len(set(spins)) != len(spins):
        return None
    return EnergySpectrum(spins, scale=float(cfg.get("energy_scale", 1.0)))


def _csv_join(cells) -> str:
    return ",".join(cells)


def _column(values) -> Iterator[str]:
    """Cells of one numeric column: ``repr`` of each value as a Python number.

    The cells are made row by row as the CSV is joined, so a long run never
    holds every cell string at once.
    """
    return map(repr, np.asarray(values).tolist())


def _csv_rows(header, columns) -> str:
    lines = [_csv_join(header)] + [_csv_join(row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: Trajectory, basis, coherences=()) -> str:
    header = ["step", "time"]
    header += [f"p_{label}" for label in basis]
    for i, j in coherences:
        header += [f"re_rho_{i}_{j}", f"im_rho_{i}_{j}"]
    header += ["trace", "min_eigenvalue"]
    rows = np.arange(traj.steps + 1)
    columns = [_column(rows), _column(rows * traj.g)]
    populations = traj.populations()
    columns += [_column(populations[:, i]) for i in range(len(basis))]
    for i, j in coherences:
        entry = traj.states[:, i, j]
        columns += [_column(entry.real), _column(entry.imag)]
    columns += [_column(traj.traces()), _column(traj.min_eigenvalues())]
    return _csv_rows(header, columns)


def observables_csv(traj: Trajectory, spec: EnergySpectrum, energies: np.ndarray) -> str:
    """Energy and release per step, from the trajectory's energy expectations."""
    release = energy_release(traj, spec, energies=energies)
    rows = np.arange(traj.steps)
    columns = [
        _column(rows), _column(rows * traj.g),
        _column(energies[:-1]), _column(release.values),
    ]
    return _csv_rows(["step", "time", "energy", "release"], columns)


def temperature_csv(traj: Trajectory, spec: EnergySpectrum) -> str:
    series = temperature_series(traj, spec)
    temperatures = [float("inf") if beta == 0 else 1.0 / beta for beta in series.values]
    columns = [_column(series.steps), _column(series.values), _column(temperatures)]
    return _csv_rows(["step", "inv_kbt", "temperature"], columns)


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path) -> dict:
    """Execute the pipeline and write the artifact files.

    Returns the report dictionary (also serialized as report.json with a
    stable key order).  Any failure is captured in the report with a
    nonzero-exit marker for the CLI.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    report: dict[str, Any] = {
        "config": cfg.raw,
        "versions": {
            "spinfoam_oqs": __version__,
            "numpy": np.__version__,
        },
        "tolerances": TOLERANCES,
        "outputs": [],
        "status": "ok",
    }
    try:
        import scipy

        report["versions"]["scipy"] = scipy.__version__

        kappa, W = build_kappa(cfg)
        basis = list(kappa.basis)
        if W is not None:
            (out / "W.csv").write_text(W.to_csv(), encoding="utf-8", newline="\n")
            report["outputs"].append("W.csv")
        (out / "kappa.csv").write_text(kappa.to_csv(), encoding="utf-8", newline="\n")
        report["outputs"].append("kappa.csv")

        evo = cfg["evolution"]
        rho0 = _initial_state(evo["initial"], basis)
        traj = evolve_effective(
            kappa,
            EvolutionConfig(g=float(evo["g"]), steps=int(evo["steps"])),
            rho0,
        )
        (out / "trajectory.csv").write_text(
            trajectory_csv(traj, basis, cfg["coherences"]), encoding="utf-8", newline="\n"
        )
        report["outputs"].append("trajectory.csv")
        report["clamped_eigenvalues"] = traj.clamped

        spec = _spectrum(cfg, basis)
        if spec is not None:
            energies = energy_expectations(traj, spec)
            (out / "observables.csv").write_text(
                observables_csv(traj, spec, energies), encoding="utf-8", newline="\n"
            )
            report["outputs"].append("observables.csv")
            (out / "temperature.csv").write_text(
                temperature_csv(traj, spec), encoding="utf-8", newline="\n"
            )
            report["outputs"].append("temperature.csv")
            report["energy_initial"] = float(energies[0])
            report["energy_final"] = float(energies[-1])
        else:
            report["energy_initial"] = None
            report["energy_final"] = None

        report["final_populations"] = {
            label: float(traj.states[-1][i, i].real)
            for i, label in enumerate(basis)
        }
    except Exception as exc:  # noqa: BLE001 - errors are part of the artifact
        report["status"] = "error"
        report["error"] = f"{type(exc).__name__}: {exc}"
    report["wall_time_s"] = time.monotonic() - started
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2, default=str) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return report


def steady_state_report(cfg: ScenarioConfig, out_dir: str | Path) -> dict:
    """Solve for steady states of the scenario's damping generator."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report: dict[str, Any] = {"config": cfg.raw, "status": "ok", "outputs": []}
    try:
        kappa, _W = build_kappa(cfg)
        gen = kappa_generator(kappa)
        states = steady_states(gen)
        lines = [_csv_join(["state_index"] + [f"p_{b}" for b in kappa.basis])]
        for idx, rho in enumerate(states):
            row = [str(idx)] + [repr(float(rho[i, i].real)) for i in range(kappa.dim)]
            lines.append(_csv_join(row))
        (out / "steady.csv").write_text(
            "\n".join(lines) + "\n", encoding="utf-8", newline="\n"
        )
        report["outputs"].append("steady.csv")
        report["count"] = len(states)
        report["populations"] = [
            [float(rho[i, i].real) for i in range(kappa.dim)] for rho in states
        ]
    except Exception as exc:  # noqa: BLE001
        report["status"] = "error"
        report["error"] = f"{type(exc).__name__}: {exc}"
    (out / "steady_report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2, default=str) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    return report
