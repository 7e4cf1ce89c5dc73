"""``evolve_kicked`` and the QED cascades against their per-step references.

Both make their states through ``lindblad._stepped``, which checks all
states at once and clamps only the states with a negative eigenvalue.
Their earlier per-step loops are kept here as references: each sent every
state through ``clamp_density_matrix`` and fed a clamped (kicked: the
Hermitian part) state into the next step, where ``_stepped`` always feeds
the raw state.  The two differ by round-off only, so states are compared
within 1e-13; where nothing is clamped the cascade is bit-identical.  The
last section checks that every caller of ``_stepped`` checks each state
once, rho0 included, and keeps the minima of that check.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinfoam_oqs import lindblad, qed_reference
from spinfoam_oqs.amplitudes import KappaMatrix
from spinfoam_oqs.lindblad import (
    EvolutionConfig,
    InvariantViolation,
    Superoperator,
    Trajectory,
    block_min_eigenvalues,
    clamp_density_matrix,
    dissipator_matrix,
    evolve_continuous,
    evolve_effective,
    evolve_kicked,
    generator,
    pure_state,
    state_from_amplitudes,
    unvec,
    vec,
)
from spinfoam_oqs.qed_reference import (
    CascadeResult,
    DickeConfig,
    cavity_cascade,
    dicke_cascade,
)


def per_step_kicked(coherent, dampers, schedule, rho0):
    """One full clamp per kick; the clamped Hermitian part feeds the next."""
    times = [float(t) for t in schedule]
    clamp_density_matrix(rho0, "initial state")
    dampers = [(float(r), np.asarray(R, dtype=complex)) for r, R in dampers]
    kick = None
    if dampers:
        kick = Superoperator(expm(sum(r * dissipator_matrix(R) for r, R in dampers)), "channel")
    states = [np.asarray(rho0, dtype=complex)]
    clamp_total = 0
    rho = states[0]
    prev_t = 0.0
    for t in times:
        dt = t - prev_t
        prev_t = t
        if isinstance(coherent, Superoperator):
            rho = coherent.apply(rho)
        elif coherent is not None:
            U = expm(-1j * dt * np.asarray(coherent, dtype=complex))
            rho = U @ rho @ U.conj().T
        if kick is not None:
            rho = kick.apply(rho)
        rho, clamped = clamp_density_matrix(rho, f"kick at t={t}")
        clamp_total += clamped
        states.append(rho)
    return Trajectory(states, g=(times[0] if times else 1.0), clamped=clamp_total)


def per_step_cascade(cfg, L, rho, sz_op, context):
    """One full clamp per state; the raw vector feeds the next step unless
    that state was clamped."""
    times = cfg.times()
    dt = times[1] - times[0]
    step = expm(dt * L.matrix)
    dim = rho.shape[0]
    states = np.empty((len(times),) + rho.shape, dtype=complex)
    states[0] = rho
    v = vec(rho)
    clamp_total = 0
    for k in range(1, len(times)):
        v = step @ v
        rho, clamped = clamp_density_matrix(unvec(v, dim), context)
        clamp_total += clamped
        if clamped:
            v = vec(rho)
        states[k] = rho
    traj = Trajectory(states, g=dt, clamped=clamp_total)
    sz = np.array([np.trace(s @ sz_op).real for s in states])
    return CascadeResult(traj, cfg.gamma_eff * times, sz)


def reference_cascade(cascade, cfg, **kwargs):
    with mock.patch.object(qed_reference, "_cascade", per_step_cascade):
        return cascade(cfg, **kwargs)


def lowering(d):
    return np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)


@st.composite
def kicked_cases(draw):
    """Random pure starts; no coherent part, a Hamiltonian or a channel; no
    kick, a random one or ladder decay towards a pure state; equally or
    unequally spaced kicks.  Pure and nearly pure states have round-off
    eigenvalues that get clamped."""
    d = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gauss = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)  # noqa: E731
    A = gauss(d, d)
    H = (A + A.conj().T) / 2
    coherent = draw(st.sampled_from(["none", "hamiltonian", "channel"]))
    if coherent == "channel":
        L = generator(H, [(0.2, gauss(d, d))])
        H = Superoperator(expm(draw(st.floats(0.1, 1.0)) * L.matrix), "channel")
    elif coherent == "none":
        H = None
    kick = draw(st.sampled_from(["none", "ladder", "random"]))
    dampers = [] if kick == "none" else [
        (draw(st.floats(0.1, 3.0)), lowering(d) if kick == "ladder" else gauss(d, d))
    ]
    n_kicks = draw(st.integers(1, 60))
    if draw(st.booleans()):
        schedule = rng.uniform(0.1, 1.0) * np.arange(1, n_kicks + 1)
    else:
        schedule = np.cumsum(rng.uniform(0.1, 1.0, size=n_kicks))
    return H, dampers, schedule, state_from_amplitudes(gauss(d))


@given(kicked_cases())
@settings(max_examples=150, deadline=None)
def test_kicked_matches_per_step_reference(case):
    traj = evolve_kicked(*case)
    ref = per_step_kicked(*case)
    assert traj.states.shape == ref.states.shape and traj.g == ref.g
    assert np.abs(traj.states - ref.states).max() <= 1e-13
    assert isinstance(traj.clamped, int) and traj.clamped >= 0
    # Every stored state is positive up to the round-off of a clamp's
    # reconstruction.
    assert traj.min_eigenvalues().min() >= -1e-14


@given(
    n_qubits=st.integers(1, 3),
    kappa_over_gamma=st.floats(5.0, 60.0),
    t_max=st.floats(5.0, 60.0),
    n_times=st.integers(2, 120),
    photons=st.integers(2, 3),
)
@settings(max_examples=40, deadline=None)
def test_cascades_match_per_step_reference(n_qubits, kappa_over_gamma, t_max, n_times, photons):
    cfg = DickeConfig(n_qubits, kappa_over_gamma, t_max, n_times)
    runs = [(dicke_cascade, {}), (cavity_cascade, {"n_photon_levels": photons})]
    for cascade, kwargs in runs:
        ours = cascade(cfg, **kwargs)
        ref = reference_cascade(cascade, cfg, **kwargs)
        assert np.abs(ours.trajectory.states - ref.trajectory.states).max() <= 1e-13
        assert np.abs(ours.sz - ref.sz).max() <= 1e-13
        assert np.array_equal(ours.times, ref.times)
        assert ours.trajectory.g == ref.trajectory.g
        assert isinstance(ours.trajectory.clamped, int) and ours.trajectory.clamped >= 0
        assert ours.trajectory.min_eigenvalues().min() >= -1e-14


def test_dicke_cascade_is_bit_identical_to_reference():
    # Acceptance criterion 10's config: the effective cascade clamps nothing,
    # so the single loop reproduces the per-step loop exactly.
    cfg = DickeConfig(n_qubits=2, kappa_over_gamma=40.0, t_max=100.0, n_times=500)
    ours = dicke_cascade(cfg)
    ref = reference_cascade(dicke_cascade, cfg)
    assert ref.trajectory.clamped == ours.trajectory.clamped == 0
    assert np.array_equal(ours.trajectory.states, ref.trajectory.states)
    assert np.array_equal(ours.sz, ref.sz)


@pytest.mark.parametrize("hamiltonian", [None, np.diag([0.0, 1.0])], ids=["no_H", "H"])
def test_kicked_clamp_leaves_the_next_input_raw(hamiltonian):
    # rho0's eigenvalue -1e-12 is within tolerance, so each state made from
    # the raw chain clamps it again.  Feeding the clamped state forward would
    # clamp at the first kick only.
    rho0 = np.diag([1.0 + 1e-12, -1e-12]).astype(complex)
    schedule = [0.5, 1.0, 1.5]
    traj = evolve_kicked(hamiltonian, [], schedule, rho0)
    raw = rho0
    for k, dt in enumerate(np.diff(schedule, prepend=0.0), start=1):
        if hamiltonian is not None:
            U = expm(-1j * dt * hamiltonian.astype(complex))
            raw = U @ raw @ U.conj().T
        expected, clamped = clamp_density_matrix(raw)
        assert clamped == 1
        assert np.array_equal(traj.states[k], expected)
    assert traj.clamped == len(schedule)
    assert per_step_kicked(hamiltonian, [], schedule, rho0).clamped == 1


@pytest.mark.parametrize(
    "coherent, dampers",
    [(np.eye(2), []), (None, [(1.0, lowering(2))])],
    ids=["hamiltonian", "damper_only"],
)
def test_kicked_rejects_a_state_of_the_wrong_dimension(coherent, dampers):
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match=r"initial state has shape \(3, 3\), the map acts on \(2, 2\)"):
        evolve_kicked(coherent, dampers, [1.0], rho0)


def test_kicked_cases_include_clamps():
    # The strategy above must reach clamped trajectories, or the property
    # test compares only runs that never clamp.
    seen = {"runs": 0, "clamped": 0}

    @given(kicked_cases())
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    def tally(case):
        seen["runs"] += 1
        seen["clamped"] += evolve_kicked(*case).clamped > 0

    tally()
    assert seen["clamped"] > 0, seen


# --- one batched check per evolution ---------------------------------------------


def assert_kept_minima(traj):
    """The minima the trajectory returns are ``block_min_eigenvalues`` of its
    states, bit for bit, whether ``_stepped`` kept them or not."""
    kept = traj._min_eigenvalues is not None
    assert kept == (traj.clamped == 0)
    assert traj.min_eigenvalues().tobytes() == block_min_eigenvalues(traj.states).tobytes()


@contextmanager
def counted(name):
    """The (arguments, result) of each call to ``lindblad.<name>`` in the block."""
    calls = []
    real = getattr(lindblad, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with mock.patch.object(lindblad, name, spy):
        yield calls


def test_evolve_effective_keeps_the_minima_of_its_check():
    rng = np.random.default_rng(5)
    d = 5
    raw = rng.uniform(0.05, 1.0, size=(d, d))
    parity = np.arange(d) % 2
    two_class = np.where(parity[:, None] == parity[None, :], raw, 0.0)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mixed = A @ A.conj().T
    starts = {
        "pure": pure_state(d, 1),
        "two_label": state_from_amplitudes([0.0, 0.6, 0.0, 0.8j, 0.0]),
        "mixed": mixed / np.trace(mixed).real,
    }
    for entries in (raw, two_class):
        kappa = KappaMatrix(tuple("abcde"), entries / entries.sum(axis=0), "over_n")
        for rho0 in starts.values():
            with counted("block_min_eigenvalues") as calls:
                traj = evolve_effective(kappa, EvolutionConfig(0.7, 300), rho0)
                traj.min_eigenvalues()
            assert len(calls) == 1 and traj.clamped == 0
            assert_kept_minima(traj)


@given(kicked_cases())
@settings(max_examples=60, deadline=None)
def test_kicked_keeps_the_minima_of_its_check(case):
    assert_kept_minima(evolve_kicked(*case))


def test_continuous_keeps_the_minima_of_its_check():
    L = generator(np.diag([0.0, 1.0]), [(0.5, lowering(2))])
    with counted("_stepped") as calls:
        for t in (0.0, 1.5):
            evolve_continuous(L, state_from_amplitudes([0.6, 0.8j]), t)
    assert [traj.steps for _, traj in calls] == [0, 1]
    for _, traj in calls:
        assert_kept_minima(traj)


@pytest.mark.parametrize(
    "cascade, kwargs", [(dicke_cascade, {}), (cavity_cascade, {"n_photon_levels": 3})]
)
def test_cascades_keep_the_minima_of_their_check(cascade, kwargs):
    cfg = DickeConfig(n_qubits=2, kappa_over_gamma=40.0, t_max=100.0, n_times=300)
    traj = cascade(cfg, **kwargs).trajectory
    assert (traj.clamped > 0) == (cascade is cavity_cascade)  # the cavity clamps nearly every state
    assert_kept_minima(traj)


def test_a_pure_start_goes_through_no_clamp():
    kappa = np.full((3, 3), 1 / 3)
    with counted("clamp_density_matrix") as calls:
        evolve_effective(kappa, EvolutionConfig(0.5, 50), pure_state(3, 0))
    assert calls == []


def test_a_round_off_negative_start_is_checked_once_and_not_counted():
    # The 2x2 block of rho0 has the eigenvalue -1e-13: within tolerance, so
    # rho0 goes through the clamp once as the initial state, is stored as
    # given, and adds nothing to the count.  The coherence then decays and
    # no later state is flagged.
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[:2, :2] = [[0.5, 0.5 + 1e-13], [0.5 + 1e-13, 0.5]]
    kappa = np.full((3, 3), 1 / 3)
    with counted("clamp_density_matrix") as calls:
        traj = evolve_effective(kappa, EvolutionConfig(0.5, 50), rho0)
    assert [context for (_, context), _ in calls] == ["initial state"]
    assert traj.clamped == 0 and np.array_equal(traj.states[0], rho0)
    assert traj.min_eigenvalues()[0] < 0
    assert_kept_minima(traj)


BAD_STARTS = {
    "non_hermitian": (np.array([[0.5, 1e-6], [0.0, 0.5]], dtype=complex), "Hermiticity violated"),
    "trace": (np.diag([0.5, 0.4]).astype(complex), "trace"),
    "negative": (np.diag([1.2, -0.2]).astype(complex), "negative eigenvalue -0.2"),
    "nan": (np.full((2, 2), np.nan, dtype=complex), "state has non-finite entries"),
}


@pytest.mark.parametrize("kind", list(BAD_STARTS))
@pytest.mark.parametrize("evolve", ["effective", "kicked", "continuous"])
def test_a_bad_start_raises_as_the_initial_state(kind, evolve):
    rho0, message = BAD_STARTS[kind]
    runs = {
        "effective": lambda: evolve_effective(np.full((2, 2), 0.5), EvolutionConfig(0.5, 3), rho0),
        "kicked": lambda: evolve_kicked(None, [(1.0, lowering(2))], [0.5, 1.0], rho0),
        "continuous": lambda: evolve_continuous(generator(None, [(1.0, lowering(2))]), rho0, 1.0),
    }
    with pytest.raises(InvariantViolation, match=f"^initial state: {message}"):
        runs[evolve]()


def test_a_non_hermitian_step_raises_with_its_raw_defect():
    # A trace-preserving channel that adds 1e-6 rho_00 to rho_01 only: the
    # first kick breaks Hermiticity, and the report gives the raw defect.
    leak = np.eye(4, dtype=complex)
    leak[2, 0] = 1e-6  # vec index of rho_01 is 0 + 2 * 1
    channel = Superoperator(leak, "channel")
    with pytest.raises(InvariantViolation, match=r"^kick 1: Hermiticity violated \(1\.00e-06\)$"):
        evolve_kicked(channel, [], [0.5, 1.0, 1.5], pure_state(2, 0))
