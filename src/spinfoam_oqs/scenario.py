"""Declarative scenario runner: config in, CSV/JSON artifacts out.

A scenario names one amplitude backend (3D recoupling foam, analytic
two-level, or an explicit damping table), an evolution block, and the
observables to export.  Outputs are deterministic for a fixed config;
every default the run fills in is echoed back in report.json.
"""

from __future__ import annotations

import json
import math
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
    kappa_steady_states,
    state_from_amplitudes,
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


def _internal(spec) -> tuple[Spin, Spin]:
    return Spin(0), as_spin(spec.get("internal_max", "4"))


_FOAM_BUILDERS = {
    "single_vertex": lambda spec: single_vertex_foam(),
    "disconnected_pair": lambda spec: disconnected_pair_foam(),
    "bridged_pair": lambda spec: bridged_pair_foam(internal_range=_internal(spec)),
    "cascade_pair": lambda spec: cascade_pair_foam(internal_range=_internal(spec)),
    "chain": lambda spec: chain_foam(spec.get("vertices", 2), internal_range=_internal(spec)),
}

_SPIN = 'a spin such as 2 or "5/2"'

DEFAULTS = {
    "normalization": "over_n",
    "jmax": "2",
    "energy_scale": 1.0,
    "coherences": [],
}


class ScenarioError(ValueError):
    """Configuration failed validation."""


def _number(value, kinds=(int, float)) -> bool:
    """A finite JSON number of one of ``kinds``; true and false are not numbers."""
    return isinstance(value, kinds) and not isinstance(value, bool) and math.isfinite(value)


def _spin(value) -> bool:
    try:
        as_spin(value)
    except (TypeError, ValueError, ArithmeticError):
        return False
    return True


def _require(ok: bool, field: str, what: str, value) -> None:
    if not ok:
        raise ScenarioError(f"{field} must be {what}, got {value!r}")


def _check_kappa_table(table, basis) -> None:
    """Reject a kappa table that is not a square numeric matrix of the basis size."""
    if not (
        isinstance(table, (list, tuple))
        and table
        and all(isinstance(row, (list, tuple)) for row in table)
    ):
        raise ScenarioError(f"kappa must be a non-empty list of rows, got {table!r}")
    lengths = [len(row) for row in table]
    if len(set(lengths)) > 1:
        raise ScenarioError(f"kappa is ragged: row lengths {lengths}")
    if lengths[0] != len(table):
        raise ScenarioError(
            f"kappa must be square, got {len(table)} rows of {lengths[0]} cells"
        )
    for n, row in enumerate(table):
        for m, cell in enumerate(row):
            if not _number(cell):
                raise ScenarioError(f"kappa[{n}][{m}] is not a finite number: {cell!r}")
    if basis is not None and len(basis) != len(table):
        raise ScenarioError(
            f"kappa is {len(table)} x {len(table)} but basis has {len(basis)} labels"
        )


@dataclass
class ScenarioConfig:
    """Validated scenario with every default made explicit."""

    raw: dict

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"a scenario config must be a JSON object, got {type(data).__name__}"
            )
        cfg = dict(data)
        backend = cfg.get("backend")
        _require(backend in ("pr3d", "asymptotic", "explicit_kappa"), "backend",
                 "pr3d, asymptotic or explicit_kappa", backend)
        for key, value in DEFAULTS.items():
            cfg.setdefault(key, value)
        if "evolution" not in cfg:
            raise ScenarioError("scenario needs an evolution block")
        _require(isinstance(cfg["evolution"], Mapping), "evolution", "a JSON object",
                 cfg["evolution"])
        evo = {"g": 0.5, "steps": 200, **cfg["evolution"]}
        steps, g = evo["steps"], evo["g"]
        _require(_number(steps, int) and steps >= 0, "evolution.steps", "an integer >= 0", steps)
        _require(_number(g) and g > 0, "evolution.g", "a finite number > 0", g)
        if "initial" not in evo:
            raise ScenarioError("evolution block needs an initial state")
        cfg["evolution"] = evo
        _require(_spin(cfg["jmax"]), "jmax", _SPIN, cfg["jmax"])
        scale = cfg["energy_scale"]
        _require(_number(scale) and scale > 0, "energy_scale", "a finite number > 0", scale)
        if backend == "pr3d":
            for key in ("basis", "foam", "in_links", "out_links"):
                if key not in cfg:
                    raise ScenarioError(f"pr3d backend needs {key!r}")
            foam = cfg["foam"]
            kind = foam.get("kind") if isinstance(foam, Mapping) else None
            if kind not in _FOAM_BUILDERS:
                raise ScenarioError(f"unknown foam kind {kind!r}")
            _require("internal_max" not in foam or _spin(foam["internal_max"]),
                     "foam.internal_max", _SPIN, foam.get("internal_max"))
            vertices = foam.get("vertices", 2)
            _require(kind != "chain" or (_number(vertices, int) and vertices >= 2),
                     "foam.vertices", "an integer >= 2", vertices)
            for key in ("in_links", "out_links"):
                links = cfg[key]
                _require(isinstance(links, (list, tuple)) and all(_number(l, int) for l in links),
                         key, "a list of integer link indices", links)
            for i, label in enumerate(cfg["basis"]):
                spins = label if isinstance(label, (list, tuple)) else [label]
                _require(all(map(_spin, spins)), f"basis[{i}]", _SPIN, label)
        elif backend == "asymptotic":
            block = cfg.get("asymptotic")
            if not isinstance(block, Mapping) or not {"lambda1", "lambda2"} <= block.keys():
                raise ScenarioError("asymptotic backend needs lambda1 and lambda2")
            block = {"alpha": 0.0, "gamma_immirzi": 1.0, "regge_action": 1.0,
                     "n_plus_abs": 1.0, **block}
            for key in ("lambda1", "lambda2", "gamma_immirzi", "regge_action", "n_plus_abs"):
                _require(_number(block[key]), f"asymptotic.{key}", "a finite number", block[key])
            alpha = block["alpha"]
            parts = alpha if isinstance(alpha, (list, tuple)) else [alpha]
            _require(1 <= len(parts) <= 2 and all(map(_number, parts)),
                     "asymptotic.alpha", "a number or [re, im]", alpha)
            cfg["asymptotic"] = block
            cfg.setdefault("basis", ["1", "2"])
        else:
            if "kappa" not in cfg:
                raise ScenarioError("explicit_kappa backend needs a kappa table")
            _check_kappa_table(cfg["kappa"], cfg.get("basis"))
            cfg.setdefault("basis", [str(i) for i in range(len(cfg["kappa"]))])
        dim = len(cfg["basis"])
        coherences = cfg["coherences"]
        _require(isinstance(coherences, (list, tuple)), "coherences", "a list of index pairs",
                 coherences)
        for pair in coherences:
            if not (
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and all(_number(i, int) and 0 <= i < dim for i in pair)
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
            in_links=tuple(cfg["in_links"]),
            out_links=tuple(cfg["out_links"]),
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


def _column(values) -> Iterator[str]:
    """Cells of one numeric column: ``repr`` of each value as a Python number.

    The cells are made row by row as the CSV is joined, so a long run never
    holds every cell string at once.
    """
    return map(repr, np.asarray(values).tolist())


def _csv_rows(header, columns) -> str:
    lines = [",".join(header)] + [",".join(row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def matrix_csv(matrix: TransitionMatrix | KappaMatrix) -> str:
    """W or kappa as a table: one row per out label, one column per in label.

    A complex cell reads ``{re!r}{im:+}j``; a real cell is the float's ``repr``.
    """
    basis = list(matrix.basis)
    entries = matrix.entries.T.tolist()
    if np.iscomplexobj(matrix.entries):
        columns = [[f"{z.real!r}{z.imag:+}j" for z in column] for column in entries]
    else:
        columns = [map(repr, column) for column in entries]
    return _csv_rows(["out\\in"] + basis, [basis] + columns)


def write_output(path: Path, content: str | dict, report: dict | None = None) -> None:
    """Write one output file, UTF-8 with LF line endings, making its directory.

    ``content`` is the file's text, or a dict written as JSON with sorted
    keys, a 2-space indent and one trailing newline.  With ``report``, the
    file's name is appended to ``report["outputs"]``.
    """
    if isinstance(content, dict):
        content = json.dumps(content, sort_keys=True, indent=2, default=str) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8", newline="\n")
    if report is not None:
        report["outputs"].append(path.name)


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


def histogram_csv(hist) -> str:
    """A ``CostHistogram``'s bins: left edge and density."""
    columns = [_column(hist.bin_left), _column(hist.density)]
    return _csv_rows(["bin_left", "density"], columns)


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path) -> dict:
    """Execute the pipeline and write the artifact files.

    Returns the report dictionary (also serialized as report.json with a
    stable key order).  Any failure is captured in the report with a
    nonzero-exit marker for the CLI.
    """
    out = Path(out_dir)
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
            write_output(out / "W.csv", matrix_csv(W), report)
        write_output(out / "kappa.csv", matrix_csv(kappa), report)

        evo = cfg["evolution"]
        rho0 = _initial_state(evo["initial"], basis)
        traj = evolve_effective(
            kappa,
            EvolutionConfig(g=float(evo["g"]), steps=evo["steps"]),
            rho0,
        )
        write_output(
            out / "trajectory.csv", trajectory_csv(traj, basis, cfg["coherences"]), report
        )
        report["clamped_eigenvalues"] = traj.clamped

        spec = _spectrum(cfg, basis)
        if spec is not None:
            energies = energy_expectations(traj, spec)
            write_output(out / "observables.csv", observables_csv(traj, spec, energies), report)
            write_output(out / "temperature.csv", temperature_csv(traj, spec), report)
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
    write_output(out / "report.json", report)
    return report


def steady_state_report(cfg: ScenarioConfig, out_dir: str | Path) -> dict:
    """Steady states of the scenario's damping generator, one per closed class.

    ``steady.csv`` holds one population row per closed class of kappa's
    jump graph, ordered by the class's smallest basis index.
    """
    out = Path(out_dir)
    report: dict[str, Any] = {"config": cfg.raw, "status": "ok", "outputs": []}
    try:
        kappa, _W = build_kappa(cfg)
        states = kappa_steady_states(kappa)
        populations = np.array([rho.diagonal().real for rho in states])
        header = ["state_index"] + [f"p_{b}" for b in kappa.basis]
        columns = [_column(np.arange(len(states)))]
        columns += [_column(populations[:, i]) for i in range(kappa.dim)]
        write_output(out / "steady.csv", _csv_rows(header, columns), report)
        report["count"] = len(states)
        report["populations"] = populations.tolist()
    except Exception as exc:  # noqa: BLE001
        report["status"] = "error"
        report["error"] = f"{type(exc).__name__}: {exc}"
    write_output(out / "steady_report.json", report)
    return report
