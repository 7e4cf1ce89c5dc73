"""Declarative scenario runner: config in, CSV/JSON artifacts out.

A scenario names one amplitude backend (3D recoupling foam, analytic
two-level, or an explicit damping table), an evolution block, and the
observables to export.  Each config field is parsed once, by ``_field``.
Outputs are deterministic for a fixed config; every default the run fills
in is echoed back in report.json.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from . import __version__
from .amplitudes import (
    KAPPA_NORMALIZATION_TOL,
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
    label_str,
    single_vertex_foam,
    transition_matrix,
    two_level_rho11,
)
from .lindblad import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
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
from .recoupling import as_spin

TOLERANCES = {
    "trace": TRACE_TOL,
    "hermiticity": HERMITICITY_TOL,
    "positivity": POSITIVITY_TOL,
    "kappa_normalization": KAPPA_NORMALIZATION_TOL,
}

_FOAMS = {"single_vertex": single_vertex_foam, "disconnected_pair": disconnected_pair_foam,
          "bridged_pair": bridged_pair_foam, "cascade_pair": cascade_pair_foam,
          "chain": chain_foam}

_SPIN = 'a spin such as 2 or "5/2"'
_LINKS = "a list of integer link indices"


class ScenarioError(ValueError):
    """Configuration failed validation."""


def _field(name: str, what: str, value, parse):
    """``parse(value)``, or a ScenarioError naming the field when it fails."""
    try:
        return parse(value)
    except ScenarioError:
        raise
    except (TypeError, ValueError, ArithmeticError, LookupError):
        raise ScenarioError(f"{name} must be {what}, got {value!r}") from None


def _of(kinds):
    def parse(value):
        if not isinstance(value, kinds):
            raise TypeError(value)
        return value
    return parse


_list, _mapping, _string, _number = _of((list, tuple)), _of(Mapping), _of(str), _of((int, float))


def _integer(value, least=-math.inf, below=math.inf) -> int:
    """A JSON integer in [least, below); true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, int) or not least <= value < below:
        raise ValueError(value)
    return value


def _real(value, above=-math.inf) -> float:
    """A finite JSON number > ``above``, as a float; true and false are not numbers."""
    if isinstance(value, bool) or not above < _number(value) < math.inf:
        raise ValueError(value)
    return float(value)


def _positive(value) -> float:
    return _real(value, 0.0)


def _complex(value) -> complex:
    """A number, or [re] or [re, im]."""
    parts = value if isinstance(value, (list, tuple)) else [value]
    if not 1 <= len(parts) <= 2:
        raise ValueError(value)
    return complex(*map(_real, parts))


def _links(value) -> tuple[int, ...]:
    return tuple(map(_integer, _list(value)))


def _index_pair(value, dim: int) -> tuple[int, int]:
    i, j = _list(value)
    return _integer(i, 0, dim), _integer(j, 0, dim)


def _link_map(name: str, value, what: str, parse) -> dict:
    """A JSON object from link indices to values, each read by ``parse``."""
    links = _field(name, "a JSON object keyed by link indices", value,
                   lambda v: {int(link): x for link, x in _mapping(v).items()})
    return {link: _field(f"{name}['{link}']", what, x, parse) for link, x in links.items()}


def _bath(spec) -> BoundaryState | TiedGaussianBath | None:
    if spec is None:
        return None
    kind = spec.get("kind") if isinstance(spec, Mapping) else None
    if kind == "gaussian":  # a centre is a number or a spin, read as a float
        return BoundaryState.gaussian(_link_map(
            "bath.centers", spec.get("centers"), "a number > 0 or a spin",
            lambda v: _positive(float(as_spin(v).j) if isinstance(v, str) else v)))
    if kind == "delta":
        return BoundaryState.delta(
            _link_map("bath.assignment", spec.get("assignment"), _SPIN, as_spin))
    if kind == "superposition":
        terms = _field("bath.terms", "a list of JSON objects", spec.get("terms"),
                       lambda v: list(map(_mapping, _list(v))))
        return BoundaryState.superposition([
            (_field(f"bath.terms[{i}].weight", "a number or [re, im]", t.get("weight", 1.0),
                    _complex),
             _link_map(f"bath.terms[{i}].assignment", t.get("assignment"), _SPIN, as_spin))
            for i, t in enumerate(terms)])
    if kind == "gaussian_tied":
        return TiedGaussianBath(_field("bath.in", _LINKS, spec.get("in", []), _links),
                                _field("bath.out", _LINKS, spec.get("out", []), _links))
    raise ScenarioError(f"unknown bath kind {kind!r} in bath.kind")


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
            finite = isinstance(cell, (int, float)) and abs(cell) <= sys.float_info.max
            if isinstance(cell, bool) or not finite:
                raise ScenarioError(f"kappa[{n}][{m}] is not a finite number: {cell!r}")
    if isinstance(basis, (list, tuple)) and len(basis) != len(table):
        raise ScenarioError(
            f"kappa is {len(table)} x {len(table)} but basis has {len(basis)} labels"
        )


def _initial_state(spec, basis) -> np.ndarray:
    """rho0 of a basis label, a superposition of labels or a density matrix."""
    basis, dim = list(basis), len(basis)
    if isinstance(spec, Mapping) and "superposition" in spec:
        return _field("evolution.initial.superposition",
                      f"a list of [label, re] or [label, re, im] over {basis}, not all zero",
                      spec["superposition"], lambda terms: _superposition(terms, basis))
    if isinstance(spec, Mapping) and "matrix" in spec:
        return _field("evolution.initial.matrix", f"a {dim} x {dim} matrix of numbers or [re, im]",
                      spec["matrix"], lambda rows: _matrix(rows, dim))
    return _field("evolution.initial", f"one of {basis}, a superposition or a matrix", spec,
                  lambda label: _superposition([[label, 1.0]], basis))


def _superposition(terms, basis) -> np.ndarray:
    amplitudes = [0.0] * len(basis)
    for label, *weight in _list(terms):
        amplitudes[basis.index(_string(label))] = _complex(weight)
    return state_from_amplitudes(amplitudes)


def _matrix(rows, dim) -> np.ndarray:
    rho = np.array([[_complex(cell) for cell in _list(row)] for row in _list(rows)], dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(rho.shape)
    return rho


@dataclass(eq=False)
class ScenarioConfig:
    """A scenario's run inputs, parsed once from ``raw``, the config with its defaults.

    Kappa comes from ``provider`` over ``labels``, ``asymptotic`` or ``kappa_rows``.
    """

    raw: dict
    basis: tuple[str, ...]
    normalization: str
    evolution: EvolutionConfig
    rho0: np.ndarray
    coherences: tuple[tuple[int, int], ...]
    spectrum: EnergySpectrum | None
    provider: FoamProvider | None = None
    labels: tuple = ()
    asymptotic: tuple[float, float, AsymptoticParams] | None = None
    kappa_rows: np.ndarray | None = None

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        cfg = dict(_field("a scenario config", "a JSON object", data, _mapping))
        backends = ("pr3d", "asymptotic", "explicit_kappa")
        backend = backends[_field("backend", "pr3d, asymptotic or explicit_kappa",
                                  cfg.get("backend"), backends.index)]
        if "evolution" not in cfg:
            raise ScenarioError("scenario needs an evolution block")
        evo = cfg["evolution"] = {
            "g": 0.5, "steps": 200,
            **_field("evolution", "a JSON object", cfg["evolution"], _mapping),
        }
        evolution = EvolutionConfig(
            g=_field("evolution.g", "a finite number > 0", evo["g"], _positive),
            steps=_field("evolution.steps", "an integer >= 0", evo["steps"],
                         lambda v: _integer(v, 0)),
        )
        jmax = _field("jmax", _SPIN, cfg.setdefault("jmax", "2"), as_spin)
        scale = _field("energy_scale", "a finite number > 0", cfg.setdefault("energy_scale", 1.0),
                       _positive)
        conventions = ("over_n",) if backend == "asymptotic" else ("over_n", "over_m")
        normalization = conventions[_field(
            "normalization", f"{' or '.join(conventions)} for {backend}",
            cfg.setdefault("normalization", "over_n"), conventions.index)]
        source: dict[str, Any] = {}
        if backend == "pr3d":
            foam = cfg.get("foam")
            kind = foam.get("kind") if isinstance(foam, Mapping) else None
            if not isinstance(kind, str) or kind not in _FOAMS:
                raise ScenarioError(f"unknown foam kind {kind!r} in foam.kind")
            internal = (0, _field("foam.internal_max", _SPIN, foam.get("internal_max", "4"),
                                  as_spin))
            if kind == "chain":
                vertices = _field("foam.vertices", "an integer >= 2", foam.get("vertices", 2),
                                  lambda v: _integer(v, 2))
                foam = chain_foam(vertices, internal)
            elif kind in ("bridged_pair", "cascade_pair"):
                foam = _FOAMS[kind](internal)
            else:
                foam = _FOAMS[kind]()
            source["provider"] = FoamProvider(
                foam, _field("in_links", _LINKS, cfg.get("in_links"), _links),
                _field("out_links", _LINKS, cfg.get("out_links"), _links),
                _field("bath", "a bath block of nonzero terms over one link set",
                       cfg.get("bath"), _bath), jmax)
        elif backend == "asymptotic":
            block = cfg["asymptotic"] = {
                "alpha": 0.0, "gamma_immirzi": 1.0, "regge_action": 1.0, "n_plus_abs": 1.0,
                **_field("asymptotic", "a JSON object", cfg.get("asymptotic"), _mapping),
            }
            numbers = {key: _field(f"asymptotic.{key}", "a finite number > 0", block.get(key),
                                   _positive) for key in ("lambda1", "lambda2", "n_plus_abs")}
            numbers.update({key: _field(f"asymptotic.{key}", "a finite number", block[key], _real)
                            for key in ("gamma_immirzi", "regge_action")})
            alpha = _field("asymptotic.alpha", "a number or [re, im]", block["alpha"], _complex)
            source["asymptotic"] = (numbers.pop("lambda1"), numbers.pop("lambda2"),
                                    AsymptoticParams(alpha=alpha, **numbers))
            cfg.setdefault("basis", ["1", "2"])
        else:
            _check_kappa_table(cfg.get("kappa"), cfg.get("basis"))
            source["kappa_rows"] = np.asarray(cfg["kappa"], dtype=float)
            cfg.setdefault("basis", [str(i) for i in range(len(cfg["kappa"]))])
        # A pr3d label is one spin or a list of slot spins, named as W lists it.
        what, parse = (_SPIN, label_str) if backend == "pr3d" else ("a string", _string)
        labels = _field("basis", "a list of labels", cfg.get("basis"), _list)
        basis = tuple(_field(f"basis[{i}]", what, label, parse) for i, label in enumerate(labels))
        if backend == "asymptotic" and len(basis) != 2:
            raise ScenarioError(f"basis must be two labels for asymptotic, got {cfg['basis']!r}")
        if backend == "pr3d":
            source["labels"] = tuple(labels)
        pairs = cfg.setdefault("coherences", [])
        coherences = tuple(
            _field(f"coherences[{k}]", f"a pair of basis indices in [0, {len(basis)})", pair,
                   lambda v: _index_pair(v, len(basis)))
            for k, pair in enumerate(_field("coherences", "a list of index pairs", pairs, _list)))
        try:  # energy levels when the labels are distinct single spins
            spectrum = EnergySpectrum(source.get("labels", basis), scale)
        except (ValueError, TypeError, ArithmeticError):
            spectrum = None
        return cls(cfg, basis, normalization, evolution, _initial_state(evo.get("initial"), basis),
                   coherences, spectrum, **source)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_mapping(json.load(fh))

    def __getitem__(self, key):
        return self.raw[key]


# A fit config's fields: key, default, what it must be, its parse.  Other keys are ignored.
_FIT_FIELDS = (
    ("vertices", 2, "an integer", _integer),
    ("dim", 10, "an integer", _integer),
    ("basis_seed", 0, "an integer", _integer),
    ("seed", 0, "a non-negative integer", lambda v: _integer(v, 0)),
    ("j_min", "1/2", _SPIN, as_spin),
    ("j_max", "5/2", _SPIN, as_spin),
    ("internal_max", "2", _SPIN, as_spin),
)


def fit_problem(path: str | Path, seed: int | None = None):
    """Chain length, basis and fit problem of a fit config; ``seed`` replaces its seed."""
    from .bathfit import FitProblem, admissible_triple_basis, basis_from_network_file
    from .bathfit import chain_target, standard_model

    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ScenarioError(f"a fit config must be a JSON object, got {type(spec).__name__}")
    if seed is not None:
        spec["seed"] = seed
    fit = {key: _field(key, what, spec.get(key, default), parse)
           for key, default, what, parse in _FIT_FIELDS}
    if "basis_file" in spec:
        basis = basis_from_network_file(_field("basis_file", "a file name", spec["basis_file"],
                                               lambda name: Path(path).resolve().parent / name))
    else:
        basis = admissible_triple_basis(fit["dim"], fit["j_min"], fit["j_max"],
                                        seed=fit["basis_seed"])
    target = chain_target(fit["vertices"], basis, internal_max=fit["internal_max"],
                          j_max=fit["j_max"])
    return fit["vertices"], basis, FitProblem(target, standard_model(basis), seed=fit["seed"])


def build_kappa(cfg: ScenarioConfig) -> tuple[KappaMatrix, TransitionMatrix | None]:
    """The scenario's damping matrix, and W when the backend has one."""
    if cfg.provider is not None:
        W = transition_matrix(cfg.provider, cfg.labels)
        return kappa_from_W(W, cfg.normalization), W
    if cfg.asymptotic is not None:
        rho11 = two_level_rho11(*cfg.asymptotic)
        entries = np.array([[rho11, rho11], [1.0 - rho11, 1.0 - rho11]])
        return KappaMatrix(cfg.basis, entries, cfg.normalization), None
    return KappaMatrix(cfg.basis, cfg.kappa_rows, cfg.normalization), None


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

        traj = evolve_effective(kappa, cfg.evolution, cfg.rho0)
        write_output(
            out / "trajectory.csv", trajectory_csv(traj, basis, cfg.coherences), report
        )
        report["clamped_eigenvalues"] = traj.clamped

        spec = cfg.spectrum
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
