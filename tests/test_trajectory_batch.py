"""Batched trajectory checks and column-wise exports against per-step references.

``evolve_effective`` checks a block of states at once and sends only the
states near a clamp through ``clamp_density_matrix``; ``trajectory_csv``,
``energy_expectations`` and ``temperature_series`` work on the whole
(steps + 1, d, d) stack.  The per-step evolution, the per-row CSV writer
and the per-state estimators they replaced are kept here as references,
and every comparison is exact.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinfoam_oqs.amplitudes import KappaMatrix
from spinfoam_oqs.lindblad import (
    EvolutionConfig,
    InvariantViolation,
    Trajectory,
    _rates,
    clamp_density_matrix,
    evolve_effective,
    pure_state,
    state_from_amplitudes,
    validate_density_matrix,
)
from spinfoam_oqs.observables import (
    EnergySpectrum,
    UndefinedTemperatureError,
    energy_expectations,
    energy_operator,
    spectral_temperature,
    temperature_series,
)
from spinfoam_oqs.recoupling import Spin
from spinfoam_oqs.scenario import (
    ScenarioConfig,
    _initial_state,
    build_kappa,
    trajectory_csv,
)

FIXTURE = Path(__file__).parent / "fixtures" / "relax_wide_s0_b2_6.json"


def per_step_evolve(kappa, g, steps, rho0):
    """One ``clamp_density_matrix`` per step; a clamped state feeds the next."""
    pop, decay = _rates(kappa)
    validate_density_matrix(rho0, "initial state")
    pop_step = expm(g * pop)
    mask = np.exp(-g * decay)
    states = [np.asarray(rho0, dtype=complex).copy()]
    clamp_total = 0
    state = states[0]
    for k in range(steps):
        populations = pop_step @ state.diagonal()
        state = mask * state
        np.fill_diagonal(state, populations)
        rho, clamped = clamp_density_matrix(state, f"step {k + 1}")
        clamp_total += clamped
        if clamped:
            state = rho
        states.append(rho)
    return states, clamp_total


def per_row_csv(states, g, basis, coherences=()):
    """The row-by-row writer, with one eigvalsh per row."""
    header = ["step", "time"] + [f"p_{label}" for label in basis]
    for i, j in coherences:
        header += [f"re_rho_{i}_{j}", f"im_rho_{i}_{j}"]
    header += ["trace", "min_eigenvalue"]
    lines = [",".join(header)]
    for k, rho in enumerate(states):
        row = [str(k), repr(k * g)]
        row += [repr(float(rho[i, i].real)) for i in range(len(basis))]
        for i, j in coherences:
            row += [repr(float(rho[i, j].real)), repr(float(rho[i, j].imag))]
        row.append(repr(float(np.trace(rho).real)))
        row.append(repr(float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def outcome(run):
    try:
        return run(), None
    except InvariantViolation as exc:
        return None, str(exc)


def test_clamping_fixture_matches_per_step_reference():
    # Seed-0 relax_wide case b2-6: a superposition over two closed classes
    # whose zero eigenvalues go slightly negative on 41 of its 90 steps.
    cfg = ScenarioConfig.from_mapping(json.loads(FIXTURE.read_text(encoding="utf-8")))
    kappa, _ = build_kappa(cfg)
    basis = list(kappa.basis)
    evo = cfg["evolution"]
    rho0 = _initial_state(evo["initial"], basis)
    traj = evolve_effective(kappa, EvolutionConfig(g=evo["g"], steps=evo["steps"]), rho0)
    states, clamped = per_step_evolve(kappa, evo["g"], evo["steps"], rho0)
    assert clamped == 42
    assert traj.clamped == clamped
    for coherences in ([], [(0, 7), (1, 2)]):
        assert trajectory_csv(traj, basis, coherences) == per_row_csv(
            states, evo["g"], basis, coherences
        )


@st.composite
def evolution_cases(draw):
    """Kappa, initial state, g and steps; some cases clamp, some violate."""
    d = draw(st.sampled_from(range(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    convention = draw(st.sampled_from(["over_n", "over_m"]))
    raw = rng.uniform(0.05, 1.0, size=(d, d))
    raw[rng.random((d, d)) < draw(st.sampled_from([0.0, 0.5, 0.5]))] = 0.0
    if draw(st.booleans()) and d >= 2:
        # Two closed classes: no rate between the even and odd states.
        parity = np.arange(d) % 2
        raw[parity[:, None] != parity[None, :]] = 0.0
    axis = 0 if convention == "over_n" else 1
    dead = np.flatnonzero(raw.sum(axis=axis) == 0)
    raw[dead, dead] = 1.0  # a state nothing leaves
    entries = raw / raw.sum(axis=axis, keepdims=True)
    kappa = KappaMatrix(tuple(str(i) for i in range(d)), entries, convention)
    if draw(st.integers(0, 4)) == 0 and d >= 2:
        # Negative rates leave the CPTP region, so some step must raise.
        kappa = entries - draw(st.floats(0.5, 3.0)) * np.eye(d)[::-1]
    kind = draw(st.sampled_from(["pure", "superposition", "mixed", "superposition", "mixed"]))
    if kind == "pure":
        rho0 = pure_state(d, draw(st.integers(0, d - 1)))
    elif kind == "superposition":
        support = rng.choice(d, size=min(d, 2), replace=False)
        amplitudes = np.zeros(d, dtype=complex)
        amplitudes[support] = rng.uniform(0.3, 1.0, len(support)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, len(support))
        )
        rho0 = state_from_amplitudes(amplitudes)
    else:
        rank = draw(st.integers(1, d))
        A = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho0 = A @ A.conj().T
        rho0 = rho0 / np.trace(rho0).real
    g = draw(st.floats(0.05, 2.0))
    steps = draw(st.sampled_from([0, 1, 2, 7, 8, 9, 40, 150, 150, 600]))
    return kappa, rho0, g, steps


@given(evolution_cases())
@settings(max_examples=300, deadline=None)
def test_batched_evolution_matches_per_step_reference(case):
    kappa, rho0, g, steps = case
    d = rho0.shape[0]
    basis = [str(i) for i in range(d)]
    coherences = [(0, d - 1), (d - 1, 0)] if d > 1 else []
    traj, new_error = outcome(lambda: evolve_effective(kappa, EvolutionConfig(g, steps), rho0))
    ref, ref_error = outcome(lambda: per_step_evolve(kappa, g, steps, rho0))
    assert new_error == ref_error
    if ref is None:
        return
    states, clamped = ref
    assert traj.clamped == clamped
    assert np.array_equal(traj.states, np.array(states))
    assert trajectory_csv(traj, basis, coherences) == per_row_csv(states, g, basis, coherences)


def test_property_cases_include_clamps_and_violations():
    # The strategy above must reach both a clamped trajectory and a raised
    # InvariantViolation, or the property test compares only clean runs.
    seen = {"clamped": 0, "violation": 0}

    @given(evolution_cases())
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def tally(case):
        kappa, rho0, g, steps = case
        traj, error = outcome(lambda: evolve_effective(kappa, EvolutionConfig(g, steps), rho0))
        seen["violation"] += error is not None
        seen["clamped"] += traj is not None and traj.clamped > 0

    tally()
    assert seen["clamped"] > 0 and seen["violation"] > 0


def test_blow_up_raises_at_its_step_without_warnings():
    # Negative rates: step 1 already has a negative eigenvalue, and the
    # states the block steps past it overflow.  Only the violation shows.
    kappa = np.array(
        [[0.548, 0.154, -1.873], [0.199, -2.01, 0.449], [-2.131, 0.472, 0.041]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="^step 1: negative eigenvalue"):
            evolve_effective(kappa, EvolutionConfig(g=1.0, steps=300), pure_state(3, 0))


def test_trajectory_from_list_is_one_array():
    rho = np.diag([0.25, 0.75]).astype(complex)
    traj = Trajectory([rho, rho, rho], g=0.5)
    assert isinstance(traj.states, np.ndarray)
    assert traj.states.shape == (3, 2, 2)
    assert (traj.steps, traj.dim) == (2, 2)
    assert np.array_equal(traj.populations(), [[0.25, 0.75]] * 3)
    assert np.array_equal(traj.traces(), [1.0] * 3)
    assert np.array_equal(traj.min_eigenvalues(), [0.25] * 3)
    with pytest.raises(ValueError, match="square"):
        Trajectory([np.zeros((2, 3))])


# --- observables over the stack ------------------------------------------------


def per_state_energies(traj, spec):
    E = energy_operator(spec)
    return np.array([np.trace(rho @ E).real for rho in traj.states])


def per_state_spectral_beta(rho, spec):
    """The single-state estimator, as a loop over the levels."""
    N = spec.dim
    if N == 1:
        raise UndefinedTemperatureError("a single level has no temperature")
    off = rho - np.diag(np.diag(rho))
    if np.max(np.abs(off)) > 1e-8:
        raise ValueError(
            f"state is not diagonal in the energy basis (off-diag {np.max(np.abs(off)):.2e})"
        )
    pops = np.diag(rho).real.copy()
    if np.any(pops <= 0):
        bad = int(np.argmin(pops))
        raise UndefinedTemperatureError(
            f"population of level {bad} is {pops[bad]:.3e}; temperature undefined"
        )
    E = spec.energies()
    prefactor = 1.0 - (pops[0] + pops[-1]) / 2.0
    if prefactor == 0:
        raise UndefinedTemperatureError("degenerate edge populations (N=2 Gibbs trap)")
    acc = 0.0
    for i in range(1, N):
        weight = (pops[i] + pops[i - 1]) / 2.0
        ratio = float(pops[i]) / float(pops[i - 1])  # a Python float division never warns
        if 0.0 < ratio < math.inf:
            log = math.log(ratio)
        else:
            log = math.log(pops[i]) - math.log(pops[i - 1])
        acc += weight * log / (E[i] - E[i - 1])
    return -acc / prefactor


def per_state_temperatures(traj, spec):
    steps, betas, first_error = [], [], None
    for k, rho in enumerate(traj.states):
        try:
            beta = per_state_spectral_beta(rho, spec)
        except ValueError as exc:
            first_error = first_error or exc
            continue
        steps.append(k)
        betas.append(beta)
    return tuple(steps), tuple(betas), first_error


@given(evolution_cases(), st.floats(0.1, 5.0))
@settings(max_examples=150, deadline=None)
def test_stacked_observables_match_per_state_reference(case, scale):
    kappa, rho0, g, steps = case
    traj, error = outcome(lambda: evolve_effective(kappa, EvolutionConfig(g, steps), rho0))
    if traj is None:
        return
    spec = EnergySpectrum(tuple(Spin(k + 1) for k in range(traj.dim)), scale=scale)
    energies = energy_expectations(traj, spec)
    assert np.array_equal(energies.view(np.int64), per_state_energies(traj, spec).view(np.int64))
    steps, betas, first_error = per_state_temperatures(traj, spec)
    series = temperature_series(traj, spec)
    assert (series.steps, series.values) == (steps, betas)
    for k, beta in zip(steps, betas):
        assert spectral_temperature(traj.states[k], spec)[0] == beta
    if first_error is not None:
        with pytest.raises(type(first_error)) as raised:
            temperature_series(traj, spec, skip_undefined=False)
        assert str(raised.value) == str(first_error)


def test_subnormal_population_gives_a_finite_temperature_without_warning():
    # Two levels, g = 2, 600 steps, every rate into level 2: the level-1
    # population passes through subnormal values (2.2e-309 at step 355)
    # before it reaches zero, and the ratio 1 / 2.2e-309 overflows.
    kappa = KappaMatrix(("1", "2"), np.array([[0.0, 0.0], [1.0, 1.0]]))
    traj = evolve_effective(kappa, EvolutionConfig(2.0, 600), np.diag([0.5, 0.5]).astype(complex))
    spec = EnergySpectrum((Spin(1), Spin(2)))
    ground = traj.populations()[:, 0]
    subnormal = np.flatnonzero((ground > 0) & (ground < np.finfo(float).tiny))
    assert subnormal.size > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = temperature_series(traj, spec)
        beta, _ = spectral_temperature(traj.states[subnormal[-1]], spec)
    assert set(subnormal.tolist()) <= set(series.steps)
    assert np.isfinite(series.values).all() and math.isfinite(beta)
    assert series.values[series.steps.index(int(subnormal[-1]))] == beta


def test_temperature_series_raises_first_undefined_step_when_asked():
    spec = EnergySpectrum((Spin(1), Spin(2)))
    states = [np.diag([0.4, 0.6]), np.diag([1.0, 0.0]), np.diag([0.5, 0.5])]
    traj = Trajectory(states)
    assert temperature_series(traj, spec).steps == (0, 2)
    with pytest.raises(UndefinedTemperatureError, match="level 1"):
        temperature_series(traj, spec, skip_undefined=False)
