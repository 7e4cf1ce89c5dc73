"""Batched trajectory checks and column-wise exports against per-step references.

``evolve_effective`` checks all its states at once, the initial state
included, with each state's smallest eigenvalue taken per coherence block,
and sends only the states that fail a check or have a negative eigenvalue
through ``clamp_density_matrix``; ``trajectory_csv``,
``energy_expectations`` and ``temperature_series`` work on the whole
(steps + 1, d, d) stack.  The
per-step evolution (one full ``clamp_density_matrix`` per step), the
per-row CSV writer and the per-state estimators are kept here as
references.  Comparisons are exact, except where only the reference's full
``eigh`` clamped a round-off eigenvalue (within 1e-14) and in the
``min_eigenvalue`` column (within 1e-14 of a full ``eigvalsh``).
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinfoam_oqs import lindblad
from spinfoam_oqs.amplitudes import KappaMatrix
from spinfoam_oqs.lindblad import (
    EvolutionConfig,
    InvariantViolation,
    Trajectory,
    _population_step,
    _rates,
    block_min_eigenvalues,
    clamp_density_matrix,
    evolve_effective,
    hermitian_part,
    pure_state,
    state_from_amplitudes,
)
from spinfoam_oqs.observables import (
    EnergySpectrum,
    UndefinedTemperatureError,
    energy_expectations,
    spectral_temperature,
    temperature_series,
)
from spinfoam_oqs.recoupling import Spin
from spinfoam_oqs.scenario import (
    ScenarioConfig,
    _initial_state,
    build_kappa,
    run_scenario,
    trajectory_csv,
)

FIXTURE = Path(__file__).parent / "fixtures" / "relax_wide_s0_b2_6.json"


def per_step_evolve(kappa, g, steps, rho0):
    """One full ``clamp_density_matrix`` per step; the raw state feeds the next.

    A state is stored raw where the clamp clamps nothing.  Returns the
    stored states and each state's clamp count.
    """
    pop, decay = _rates(kappa)
    clamp_density_matrix(rho0, "initial state")
    pop_step = _population_step(pop, g)
    mask = np.exp(-g * decay)
    states = [np.asarray(rho0, dtype=complex).copy()]
    clamps = [0]
    state = states[0]
    for k in range(steps):
        populations = pop_step @ state.diagonal()
        state = mask * state
        np.fill_diagonal(state, populations)
        rho, clamped = clamp_density_matrix(state, f"step {k + 1}")
        clamps.append(clamped)
        states.append(rho if clamped else state)
    return np.array(states), np.array(clamps)


def assert_matches_reference(traj, states, clamps):
    """Exact where the reference clamped nothing, within 1e-14 where it did.

    ``evolve_effective`` clamps a state only through the same call on the
    same raw state, so it clamps a subset of the reference's steps.  A
    clamp also renormalizes to unit trace, and the raw populations drift
    from it by round-off over many steps (more than 1e-14 in 150 steps at
    g = 2), so those states are compared at unit trace.
    """
    clean = clamps == 0
    assert np.array_equal(traj.states[clean], states[clean])
    ours = traj.states[~clean]
    unit = ours / np.trace(ours, axis1=1, axis2=2).real[:, None, None]
    assert np.abs(unit - states[~clean]).max(initial=0.0) <= 1e-14
    assert traj.clamped <= clamps.sum()


def assert_csv_matches(text, reference):
    """Equal cells, except ``min_eigenvalue`` within 1e-14 of the reference's."""
    rows = [line.split(",") for line in text.splitlines()]
    ref_rows = [line.split(",") for line in reference.splitlines()]
    assert rows[0] == ref_rows[0] and len(rows) == len(ref_rows)
    for row, ref in zip(rows[1:], ref_rows[1:]):
        assert row[:-1] == ref[:-1]
        assert abs(float(row[-1]) - float(ref[-1])) <= 1e-14


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


def _fixture_run():
    cfg = ScenarioConfig.from_mapping(json.loads(FIXTURE.read_text(encoding="utf-8")))
    kappa, _ = build_kappa(cfg)
    evo = cfg["evolution"]
    rho0 = _initial_state(evo["initial"], list(kappa.basis))
    return cfg, kappa, evo["g"], evo["steps"], rho0


def test_clamping_fixture_matches_per_step_reference():
    # Seed-0 relax_wide case b2-6: a superposition inside one of two closed
    # classes.  The zero eigenvalues of its states are exact per coherence
    # block, but a full eigh of the whole state puts some slightly below
    # zero, so the reference clamps where evolve_effective does not.
    _, kappa, g, steps, rho0 = _fixture_run()
    basis = list(kappa.basis)
    traj = evolve_effective(kappa, EvolutionConfig(g=g, steps=steps), rho0)
    states, clamps = per_step_evolve(kappa, g, steps, rho0)
    assert clamps.sum() > 0 and traj.clamped == 0
    assert_matches_reference(traj, states, clamps)
    for coherences in ([], [(0, 7), (1, 2)]):
        assert_csv_matches(
            trajectory_csv(traj, basis, coherences),
            per_row_csv(traj.states, g, basis, coherences),
        )


def test_start_in_one_closed_class_never_reaches_the_other(tmp_path):
    # b2-6 starts in the closed class {0, 3, 5, 7}; no jump leads to the
    # class {1, 2, 4, 6}, so its populations stay exactly zero.  A clamp
    # through a full eigh, fed back into the evolution, would leak about
    # 4.5e-17 into them and give 25 temperature rows.
    cfg, kappa, g, steps, rho0 = _fixture_run()
    traj = evolve_effective(kappa, EvolutionConfig(g=g, steps=steps), rho0)
    assert np.all(traj.populations()[:, [1, 2, 4, 6]] == 0.0)
    assert run_scenario(cfg, tmp_path)["status"] == "ok"
    assert (tmp_path / "temperature.csv").read_text() == "step,inv_kbt,temperature\n"


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
    assert_matches_reference(traj, *ref)
    assert_csv_matches(
        trajectory_csv(traj, basis, coherences), per_row_csv(traj.states, g, basis, coherences)
    )


@given(evolution_cases())
@settings(max_examples=100, deadline=None)
def test_trajectory_keeps_the_minima_of_its_check(case):
    # Without a clamp the minima come from the check itself; after one they
    # are computed on first read.  Either way they are the stack's, bit for bit.
    kappa, rho0, g, steps = case
    traj, _ = outcome(lambda: evolve_effective(kappa, EvolutionConfig(g, steps), rho0))
    if traj is not None:
        assert (traj._min_eigenvalues is None) == (traj.clamped > 0)
        assert traj.min_eigenvalues().tobytes() == block_min_eigenvalues(traj.states).tobytes()


def test_stored_states_are_the_stepped_states_bit_for_bit():
    # A negative real amplitude leaves negative zeros in the imaginary parts
    # of the coherences.  Each state is stored as it was stepped, so the CSV
    # prints that sign on every row.  A start within 1e-12 of Hermitian, but
    # not exactly Hermitian, keeps its anti-Hermitian residue in every state.
    kappa = np.array([[0.5, 0.2, 0.0], [0.5, 0.3, 0.4], [0.0, 0.5, 0.6]])
    rho0 = state_from_amplitudes([-0.7, 0.5, 0.4])
    nearly = rho0.copy()
    nearly[1, 0] += 1e-13j
    for start in (rho0, nearly):
        traj = evolve_effective(kappa, EvolutionConfig(0.5, 3), start)
        states, _ = per_step_evolve(kappa, 0.5, 3, start)
        assert traj.states.tobytes() == states.tobytes()
    assert (traj.states[:, 1, 0] != traj.states[:, 0, 1].conj()).all()
    traj = evolve_effective(kappa, EvolutionConfig(0.5, 3), rho0)
    rows = trajectory_csv(traj, ["a", "b", "c"], [(1, 0)]).splitlines()
    assert [row.split(",")[6] for row in rows[1:]] == ["-0.0"] * 4


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


@st.composite
def block_stacks(draw):
    """Stacks block-diagonal over a random partition of the levels.

    The Hermitian part of each block is a singleton, an all-zero level, a
    2x2 rank-1 block or a dense block (positive or indefinite); some stacks
    add an anti-Hermitian part.  Each state is scaled to entries of at
    most 1.
    """
    d = draw(st.integers(1, 10))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(d)
    stack = np.zeros((n, d, d), dtype=complex)
    skew = draw(st.booleans())
    at = 0
    while at < d:
        kind = draw(st.sampled_from(["singleton", "zero", "rank1", "dense"]))
        size = {"singleton": 1, "zero": 1, "rank1": 2}.get(kind) or draw(st.integers(2, 5))
        members = order[at : at + size]
        at += size
        if kind == "zero":
            continue
        rank = 1 if kind == "rank1" else len(members)
        shift = draw(st.sampled_from([0.0, 0.0, 0.5]))
        for state in stack:
            a = rng.normal(size=(len(members), rank)) + 1j * rng.normal(size=(len(members), rank))
            block = a @ a.conj().T if kind != "singleton" else rng.normal(size=(1, 1))
            block = block - shift * np.trace(block).real * np.eye(len(members))
            if skew:
                b = rng.normal(size=block.shape) + 1j * rng.normal(size=block.shape)
                block = block + (b - b.conj().T) / 2
            state[np.ix_(members, members)] = block
    scale = np.abs(stack).max(axis=(1, 2), keepdims=True)
    return stack / np.where(scale > 0, scale, 1.0)


@given(block_stacks())
@settings(max_examples=200, deadline=None)
def test_block_min_eigenvalues_match_full_eigvalsh(stack):
    full = np.linalg.eigvalsh(hermitian_part(stack)).min(axis=1)
    assert np.abs(block_min_eigenvalues(stack) - full).max() <= 1e-14


@pytest.mark.parametrize("components", [[[0, 1, 2, 3, 4, 5]], [[0], [3], [1, 4], [2, 5, 6]]])
def test_block_min_eigenvalues_of_a_long_stack_are_those_of_its_blocks(components):
    # Two full chunks of _BLOCK states and a partial one; each state is
    # Hermitian only within 1e-13.  The chunked minima are the whole
    # stack's, block by block, bit for bit.
    rng = np.random.default_rng(7)
    d = sum(len(members) for members in components)
    stack = np.zeros((2 * lindblad._BLOCK + 37, d, d), dtype=complex)
    for members in components:
        shape = (len(stack), len(members), len(members))
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        block = a @ np.swapaxes(a, 1, 2).conj() - 0.3 * np.eye(len(members))
        block += 1e-13 * rng.normal(size=block.shape)
        stack[:, np.array(members)[:, None], np.array(members)] = block
    expected = np.full(len(stack), np.inf)
    for members in components:
        blocks = stack[:, np.array(members)[:, None], np.array(members)]
        expected = np.minimum(expected, np.linalg.eigvalsh(hermitian_part(blocks)).min(axis=1))
    assert block_min_eigenvalues(stack).tobytes() == expected.tobytes()


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
    E = np.diag(spec.energies())
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
        first = min(set(range(len(traj.states))) - set(steps))
        with pytest.raises(type(first_error)) as raised:
            spectral_temperature(traj.states[first], spec)
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


def test_temperature_series_skips_the_steps_where_the_estimator_raises():
    spec = EnergySpectrum((Spin(1), Spin(2)))
    states = [np.diag([0.4, 0.6]), np.diag([1.0, 0.0]), np.diag([0.5, 0.5])]
    traj = Trajectory(states)
    assert temperature_series(traj, spec).steps == (0, 2)
    with pytest.raises(UndefinedTemperatureError, match="level 1"):
        spectral_temperature(traj.states[1], spec)
