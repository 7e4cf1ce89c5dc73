"""Open-system engine tests: generators, channels, reductions, evolutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinfoam_oqs import lindblad
from spinfoam_oqs.amplitudes import KappaMatrix
from spinfoam_oqs.lindblad import (
    EmptyKernelError,
    EvolutionConfig,
    InvariantViolation,
    KrausSet,
    Superoperator,
    _population_step,
    _rates,
    adiabatic_eliminate,
    clamp_density_matrix,
    dissipator,
    dissipator_matrix,
    evolve_continuous,
    evolve_effective,
    evolve_kicked,
    generator,
    kappa_generator,
    kappa_steady_states,
    kraus_from_map,
    limit_channel,
    pure_state,
    state_from_amplitudes,
    steady_states,
    unvec,
    vec,
)


def jump(dim, i, j):
    R = np.zeros((dim, dim), dtype=complex)
    R[i, j] = 1.0
    return R


# --- dissipator and generator -------------------------------------------------

def test_dissipator_population_transfer():
    R = jump(2, 0, 1)
    out = dissipator(R, pure_state(2, 1))
    assert np.allclose(out, np.diag([1.0, -1.0]))


def test_dissipator_annihilates_target():
    R = jump(2, 0, 1)
    assert np.allclose(dissipator(R, pure_state(2, 0)), 0.0)


def test_dissipator_coherence_half_rate():
    R = jump(2, 0, 1)
    coh = np.zeros((2, 2), dtype=complex)
    coh[1, 0] = 1.0
    assert np.allclose(dissipator(R, coh), -0.5 * coh)


def test_dissipator_shape_mismatch():
    with pytest.raises(ValueError):
        dissipator(np.eye(2), np.eye(3))


def test_generator_matches_dissipator_on_matrix_units():
    R = jump(3, 0, 2)
    L = generator(None, [(0.7, R)])
    for i in range(3):
        for j in range(3):
            E = np.zeros((3, 3), dtype=complex)
            E[i, j] = 1.0
            assert np.allclose(L.apply(E), 0.7 * dissipator(R, E), atol=1e-13)


def test_generator_zero():
    L = generator(np.zeros((2, 2)), [])
    assert np.allclose(L.matrix, 0.0)


def test_generator_rejects_non_hermitian():
    H = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvariantViolation):
        generator(H, [])


def test_pure_hamiltonian_spectrum_imaginary():
    H = np.array([[1.0, 0.3], [0.3, -0.5]])
    L = generator(H, [])
    eigs = np.linalg.eigvals(L.matrix)
    assert np.max(np.abs(eigs.real)) < 1e-10


def test_generator_trace_defect():
    L = generator(np.array([[0.5, 0.1], [0.1, -0.2]]), [(0.4, jump(2, 0, 1))])
    assert L.trace_defect() < 1e-10


# --- continuous evolution -----------------------------------------------------

def test_evolve_continuous_identity_at_zero():
    L = generator(None, [(1.0, jump(2, 0, 1))])
    rho0 = state_from_amplitudes([0.6, 0.8])
    assert np.allclose(evolve_continuous(L, rho0, 0.0), rho0)


def test_evolve_continuous_two_level_decay():
    gamma = 0.7
    L = generator(np.zeros((2, 2)), [(gamma, jump(2, 0, 1))])
    rho0 = pure_state(2, 1)
    for t in (0.3, 1.0, 4.0):
        out = evolve_continuous(L, rho0, t)
        assert out[1, 1].real == pytest.approx(np.exp(-gamma * t), abs=1e-12)


def test_evolve_continuous_preserves_trace():
    rng = np.random.default_rng(0)
    H = rng.normal(size=(3, 3))
    H = (H + H.T) / 2
    L = generator(H, [(0.5, jump(3, 0, 2)), (0.2, jump(3, 1, 2))])
    rho0 = np.eye(3) / 3
    out = evolve_continuous(L, rho0, 2.5)
    assert abs(np.trace(out).real - 1.0) < 1e-10


# --- steady states --------------------------------------------------------------

def test_steady_state_two_level_balance():
    rng = np.random.default_rng(42)
    for _ in range(25):
        k12, k21 = rng.uniform(0.05, 2.0, 2)
        L = generator(
            np.zeros((2, 2)), [(k12, jump(2, 0, 1)), (k21, jump(2, 1, 0))]
        )
        states = steady_states(L)
        assert len(states) == 1
        assert states[0][0, 0].real == pytest.approx(
            k12 / (k12 + k21), abs=1e-10
        )


def test_steady_states_dephasing_spans_diagonals():
    L = generator(
        np.zeros((2, 2)),
        [(1.0, np.diag([1.0, 0.0]).astype(complex)),
         (1.0, np.diag([0.0, 1.0]).astype(complex))],
    )
    states = steady_states(L)
    # representatives span the 2-dimensional diagonal kernel
    stacked = np.array([np.diag(s).real for s in states])
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == 2
    for s in states:
        assert np.max(np.abs(s - np.diag(np.diag(s)))) < 1e-10


def test_steady_states_zero_generator_includes_maximally_mixed():
    L = Superoperator(np.zeros((9, 9), dtype=complex), "generator")
    states = steady_states(L)
    assert np.allclose(states[0], np.eye(3) / 3)


def test_steady_states_residual_bound():
    rng = np.random.default_rng(3)
    H = rng.normal(size=(4, 4))
    H = (H + H.T) / 2
    L = generator(H, [(0.8, jump(4, 0, 3)), (0.3, jump(4, 1, 2))])
    for rho in steady_states(L):
        assert np.max(np.abs(L.apply(rho))) <= 1e-10


@pytest.mark.parametrize(
    "entries",
    [
        [[1, 0, 0.3], [0, 1, 0.3], [0, 0, 0.4]],
        [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.3, 0.6], [0, 0, 0.7, 0.4]],
    ],
    ids=["two_classes_and_a_transient", "two_dense_classes"],
)
def test_steady_states_one_per_closed_class(entries):
    entries = np.array(entries, dtype=float)
    km = KappaMatrix(tuple(str(i) for i in range(len(entries))), entries, "over_n")
    L = kappa_generator(km)
    states = steady_states(L)
    assert len(states) == 2
    for rho in states:
        assert abs(np.trace(rho) - 1.0) <= 1e-12 and np.linalg.eigvalsh(rho).min() >= 0.0
        assert np.max(np.abs(L.apply(rho))) <= 1e-10
    # The first is the state that I/d relaxes to.
    relaxed = unvec(expm(200.0 * L.matrix) @ vec(np.eye(len(entries)) / len(entries)), len(entries))
    assert np.max(np.abs(states[0] - relaxed)) <= 1e-12


@pytest.mark.parametrize("slow", [1e-9, 1e-11])
def test_kernel_of_a_stiff_generator_leaves_out_the_slow_mode(slow):
    # |2> decays to |1> at rate 1, |1> to |0> at a slow rate: only |0><0|
    # is steady, however slow the second decay.
    L = generator(None, [(1.0, jump(3, 1, 2)), (slow, jump(3, 0, 1))])
    assert np.max(np.abs(limit_channel(L).apply(pure_state(3, 2)) - pure_state(3, 0))) <= 1e-10
    states = steady_states(L)
    assert len(states) == 1
    assert np.max(np.abs(states[0] - pure_state(3, 0))) <= 1e-10


def test_limit_channel_of_an_oscillating_generator_raises():
    with pytest.raises(InvariantViolation, match="does not decay"):
        limit_channel(generator(np.diag([0.0, 1.0]), []))


def test_kernel_of_a_non_semisimple_generator_raises():
    # A nilpotent shift has all four eigenvalues at 0 but a one-dimensional
    # kernel: no projector onto it commutes with L.
    L = Superoperator(np.diag(np.ones(3), 1).astype(complex), "generator")
    for call in (limit_channel, steady_states):
        with pytest.raises(InvariantViolation, match="not semisimple"):
            call(L)


def test_limit_channel_matches_a_long_evolution():
    # Random dissipative generators: exp(t L) at a horizon of 40 over the
    # slowest decay rate, squared until it stops moving.
    rng = np.random.default_rng(11)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        dampers = [
            (rng.uniform(0.1, 1.0), rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        L = generator(rng.uniform() * (H + H.conj().T) / 2, dampers)
        rates = -np.linalg.eigvals(L.matrix).real
        U = expm(40.0 / rates[rates > 1e-9].min() * L.matrix)
        while np.max(np.abs(U @ U - U)) > 1e-13:
            U = U @ U
        assert np.max(np.abs(limit_channel(L).matrix - U)) <= 1e-12


def test_steady_states_empty_kernel_error():
    # a channel matrix misdeclared as generator has no kernel
    L = Superoperator(np.eye(4, dtype=complex), "generator")
    with pytest.raises(EmptyKernelError):
        steady_states(L)


# --- Kraus / Choi ----------------------------------------------------------------

def test_kraus_identity_channel():
    ident = Superoperator(np.eye(4, dtype=complex), "channel")
    ks = kraus_from_map(ident)
    assert len(ks.operators) == 1
    M = ks.operators[0]
    phase = M[0, 0] / abs(M[0, 0])
    assert np.allclose(M / phase, np.eye(2), atol=1e-12)


def test_kraus_completeness_of_limit_channel():
    L = generator(np.zeros((2, 2)), [(0.9, jump(2, 0, 1))])
    U0 = limit_channel(L)
    ks = kraus_from_map(U0)
    total = sum(M.conj().T @ M for M in ks.operators)
    assert np.max(np.abs(total - np.eye(2))) < 1e-10


def test_kraus_reconstructs_channel():
    # finite-time amplitude-damping channel
    L = generator(np.zeros((2, 2)), [(1.3, jump(2, 0, 1))])
    U = Superoperator(expm(0.8 * L.matrix), "channel")
    ks = kraus_from_map(U)
    assert np.max(np.abs(ks.as_superoperator().matrix - U.matrix)) < 1e-9


def test_kraus_rejects_non_cp():
    # transpose map is positive but not completely positive
    d = 2
    T = np.zeros((4, 4), dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    if (k, l) == (j, i):
                        T[i + d * j, k + d * l] = 1.0
    with pytest.raises(InvariantViolation):
        kraus_from_map(Superoperator(T, "channel"))


def test_kraus_set_validates_completeness():
    with pytest.raises(InvariantViolation):
        KrausSet((0.5 * np.eye(2),))


# --- adiabatic elimination ---------------------------------------------------------

def test_adiabatic_identity_kraus_gives_identity_kappa():
    ks = KrausSet((np.eye(3, dtype=complex),))
    kappa, gen = adiabatic_eliminate(ks, [0, 1])
    assert np.allclose(kappa.entries, np.eye(2))
    # pure dephasing: diagonal states stay fixed
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert np.allclose(gen.apply(rho), 0.0, atol=1e-12)


def test_adiabatic_projective_measurement_channel():
    # channel rho -> sum P_k rho P_k for projectors in a rotated basis
    theta = 0.6
    c, s = np.cos(theta), np.sin(theta)
    u0 = np.array([c, s])
    u1 = np.array([-s, c])
    P0 = np.outer(u0, u0).astype(complex)
    P1 = np.outer(u1, u1).astype(complex)
    ks = KrausSet((P0, P1))
    kappa, _gen = adiabatic_eliminate(ks, [0, 1])
    expected = np.array(
        [[abs(P0[0, 0]) ** 2 + abs(P1[0, 0]) ** 2,
          abs(P0[0, 1]) ** 2 + abs(P1[0, 1]) ** 2],
         [abs(P0[1, 0]) ** 2 + abs(P1[1, 0]) ** 2,
          abs(P0[1, 1]) ** 2 + abs(P1[1, 1]) ** 2]]
    )
    assert np.allclose(kappa.entries, expected, atol=1e-12)


def test_adiabatic_invariance_check():
    # a rotation leaks out of the {0,1} subspace of a 3-level system
    H = jump(3, 0, 2) + jump(3, 2, 0)
    U = Superoperator(expm(generator(H, []).matrix), "channel")
    ks = kraus_from_map(U)
    with pytest.raises(InvariantViolation):
        adiabatic_eliminate(ks, [0, 1])


def _three_level_benchmark(eps: float, steps: int = 15):
    """Two-time-scale benchmark: fast decay of level 2 into the {0,1} span,
    slow jumps plus a slow coherent drive; effective model built from the
    Kraus set of the relax-after-slow-step cycle channel."""
    fast = 8.0
    L0 = generator(
        np.zeros((3, 3)), [(0.7 * fast, jump(3, 0, 2)), (0.3 * fast, jump(3, 1, 2))]
    )
    H1 = 0.8 * (jump(3, 2, 1) + jump(3, 1, 2))
    L1 = generator(H1, [(0.3, jump(3, 0, 1))])

    U0 = limit_channel(L0)
    slow_step = Superoperator(expm(eps * L1.matrix), "channel")
    cycle = Superoperator(U0.matrix @ slow_step.matrix, "channel")
    kappa, _gen = adiabatic_eliminate(kraus_from_map(cycle), [0, 1])

    traj_eff = evolve_effective(
        kappa, EvolutionConfig(g=1.0, steps=steps), pure_state(2, 1)
    )

    full_gen = Superoperator(L0.matrix + eps * L1.matrix, "generator")
    step_full = expm(full_gen.matrix)
    v = vec(pure_state(3, 1))
    errors = []
    for k in range(steps + 1):
        reduced = unvec(v, 3)[:2, :2]
        diff = reduced - traj_eff.states[k]
        w = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
        errors.append(0.5 * np.sum(np.abs(w)))
        v = step_full @ v
    return max(errors)


def test_adiabatic_epsilon_squared_scaling():
    eps_values = [10.0**e for e in (-1.0, -1.5, -2.0, -2.5, -3.0)]
    errors = [_three_level_benchmark(eps) for eps in eps_values]
    slope = np.polyfit(np.log(eps_values), np.log(errors), 1)[0]
    assert 1.7 <= slope <= 2.3
    # error divided by eps^2 stays bounded across the decade span
    normalized = [err / eps**2 for err, eps in zip(errors, eps_values)]
    assert max(normalized) / min(normalized) < 10.0


# --- kicked and effective evolution ---------------------------------------------

def test_evolve_kicked_no_kicks_is_coherent():
    H = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rho0 = pure_state(2, 0)
    traj = evolve_kicked(H, [], [0.4, 0.8], rho0)
    U = expm(-1j * 0.4 * H)
    expected = U @ rho0 @ U.conj().T
    assert np.allclose(traj.states[1], expected, atol=1e-12)
    U2 = expm(-1j * 0.8 * H)
    assert np.allclose(traj.states[2], U2 @ rho0 @ U2.conj().T, atol=1e-12)


def test_evolve_kicked_identity_coherent_single_kick():
    damp = [(0.7, jump(2, 0, 1))]
    rho0 = pure_state(2, 1)
    traj = evolve_kicked(None, damp, [1.0], rho0)
    kick = expm(0.7 * (kappa_generator(np.array([[0, 1.0], [0, 0]])).matrix))
    expected = unvec(kick @ vec(rho0), 2)
    assert np.allclose(traj.states[1], expected, atol=1e-12)


def test_evolve_kicked_commuting_parts_order_independent():
    # diagonal Hamiltonian commutes with pure-dephasing kicks
    H = np.diag([0.0, 1.0]).astype(complex)
    damp = [(0.5, np.diag([1.0, 0.0]).astype(complex))]
    rho0 = state_from_amplitudes([0.8, 0.6])
    traj = evolve_kicked(H, damp, [1.0, 2.0], rho0)
    # manual reversed order
    kick = expm(0.5 * dissipator_matrix(np.diag([1.0, 0.0]).astype(complex)))
    U = expm(-1j * 1.0 * H)
    rho = rho0.copy()
    for _ in range(2):
        rho = unvec(kick @ vec(U @ rho @ U.conj().T), 2)
    assert np.allclose(traj.states[2], rho, atol=1e-10)


def test_evolve_effective_identity_kappa_fixes_diagonals():
    kappa = KappaMatrix(("a", "b"), np.eye(2), "over_n")
    rho0 = np.diag([0.25, 0.75]).astype(complex)
    traj = evolve_effective(kappa, EvolutionConfig(g=0.7, steps=20), rho0)
    assert np.allclose(traj.states[-1], rho0, atol=1e-12)


def test_evolve_effective_single_damper_closed_form():
    k12 = 0.8
    kappa = np.array([[1.0, k12], [0.0, 1.0 - k12]])
    km = KappaMatrix(("1", "2"), kappa, "over_n")
    g = 0.3
    traj = evolve_effective(km, EvolutionConfig(g=g, steps=30), pure_state(2, 1))
    pops = traj.populations()
    for k in range(31):
        assert pops[k, 1] == pytest.approx(np.exp(-g * k12 * k), abs=1e-10)


def test_evolve_effective_diagonal_states_stay_diagonal():
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.1, 1.0, size=(3, 3))
    kappa = raw / raw.sum(axis=0, keepdims=True)
    km = KappaMatrix(("a", "b", "c"), kappa, "over_n")
    p = rng.uniform(0.1, 1.0, 3)
    rho0 = np.diag(p / p.sum()).astype(complex)
    traj = evolve_effective(km, EvolutionConfig(g=0.4, steps=25), rho0)
    for rho in traj.states:
        off = rho - np.diag(np.diag(rho))
        assert np.max(np.abs(off)) < 1e-12


def test_evolve_effective_population_conserved():
    rng = np.random.default_rng(9)
    raw = rng.uniform(0.0, 1.0, size=(4, 4))
    km = KappaMatrix(
        tuple("abcd"), raw / raw.sum(axis=0, keepdims=True), "over_n"
    )
    traj = evolve_effective(
        km, EvolutionConfig(g=0.5, steps=40), np.eye(4) / 4
    )
    assert np.max(np.abs(traj.traces() - 1.0)) < 1e-12


# --- kappa generator by structure vs the dissipator reference --------------------

def random_kappa(rng, d, convention, zero_frac, dead_columns=False):
    """Normalized rates with about ``zero_frac`` of them zero.

    With ``dead_columns`` (over_m, d >= 3) two columns are all zero, so no
    jump leaves those states and the coherence between them never decays.
    """
    raw = rng.uniform(0.05, 1.0, size=(d, d)) * (rng.uniform(size=(d, d)) >= zero_frac)
    if convention == "over_n":
        raw[0, raw.sum(axis=0) == 0] = 1.0
        entries = raw / raw.sum(axis=0, keepdims=True)
    else:
        live = np.arange(d)
        if dead_columns and d >= 3:
            dead = rng.choice(d, size=2, replace=False)
            raw[:, dead] = 0.0
            live = np.setdiff1d(live, dead)
        raw[raw.sum(axis=1) == 0, live[0]] = 1.0
        entries = raw / raw.sum(axis=1, keepdims=True)
    return KappaMatrix(tuple(str(i) for i in range(d)), entries, convention)


def reference_generator(kappa):
    d = kappa.dim
    return generator(
        None,
        [(kappa.entries[n, m], jump(d, n, m)) for n in range(d) for m in range(d)],
    )


def random_state(rng, d, rank):
    A = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


kappa_tables = st.builds(
    lambda d, convention, seed, zero_frac, dead: random_kappa(
        np.random.default_rng(seed), d, convention, zero_frac, dead
    ),
    st.integers(1, 8),
    st.sampled_from(["over_n", "over_m"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 0.9]),
    st.booleans(),
)


@given(kappa_tables)
@settings(max_examples=80, deadline=None)
def test_kappa_generator_matches_dissipator_reference(kappa):
    direct = kappa_generator(kappa).matrix
    reference = reference_generator(kappa).matrix
    assert np.max(np.abs(direct - reference)) <= 1e-13


@given(
    kappa_tables,
    st.floats(0.01, 3.0),
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_evolve_effective_matches_dense_step_map(kappa, g, seed, rank):
    d = kappa.dim
    rho0 = random_state(np.random.default_rng(seed), d, min(rank, d))
    steps = 20
    traj = evolve_effective(kappa, EvolutionConfig(g=g, steps=steps), rho0)

    step = expm(g * reference_generator(kappa).matrix)
    v = vec(rho0)
    assert np.max(np.abs(traj.states[0] - rho0)) == 0.0
    for k in range(steps):
        v = step @ v
        rho, clamped = clamp_density_matrix(unvec(v, d))
        if clamped:
            v = vec(rho)
        assert np.max(np.abs(traj.states[k + 1] - rho)) <= 1e-12


# --- uniformized population step against scipy's expm ---------------------------

@given(
    kappa_tables,
    st.sampled_from([1.0, 5.0, 20.0]),
    st.floats(0.01, 3.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_population_step_matches_expm(kappa, scale, g, seed):
    # Scaled over_m columns sum to up to 20 d, so max |g A| passes 1 and the
    # squaring path runs; dead columns have zero rates; some get a self-jump.
    rng = np.random.default_rng(seed)
    self_jumps = rng.uniform(0.0, 2.0, kappa.dim) * (rng.uniform(size=kappa.dim) < 0.5)
    pop, _ = _rates(scale * kappa.entries + np.diag(self_jumps))
    step = _population_step(pop, g)
    assert np.max(np.abs(step - expm(g * pop))) <= 1e-13
    assert (step >= 0.0).all()
    assert np.max(np.abs(step.sum(axis=0) - 1.0)) <= 1e-13


@pytest.mark.parametrize(
    "entries", [np.zeros((3, 3)), np.diag([0.5, 0.0, 2.0])], ids=["zero", "self_jumps"]
)
def test_population_step_without_jumps_is_the_identity(entries):
    pop, _ = _rates(entries)
    assert np.array_equal(_population_step(pop, 0.7), np.eye(3))


@pytest.mark.parametrize(
    "rate, g", [(-0.1, 1.0), (np.inf, 1.0), (np.nan, 1.0), (1e308, 10.0)],
    ids=["negative", "inf", "nan", "overflow"],
)
def test_population_step_falls_back_to_expm(monkeypatch, rate, g):
    calls = []
    monkeypatch.setattr(lindblad, "expm", lambda a: calls.append(a) or "expm")
    with np.errstate(over="ignore", invalid="ignore"):
        pop, _ = _rates(np.array([[0.5, rate], [0.5, 0.5]]))
        assert _population_step(pop, g) == "expm"
    assert len(calls) == 1


def test_evolve_effective_undamped_coherence_keeps_its_value():
    # Rows sum to one, but columns 0 and 1 are zero: no jump leaves 0 or 1.
    entries = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    km = KappaMatrix(("a", "b", "c"), entries, "over_m")
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[:2, :2] = state_from_amplitudes([0.6, 0.8j])
    traj = evolve_effective(km, EvolutionConfig(g=0.9, steps=10), rho0)
    assert np.max(np.abs(traj.states[-1] - rho0)) < 1e-14


@pytest.mark.parametrize("steps", [0, 1])
def test_evolve_effective_rejects_state_of_other_dimension(steps):
    km = KappaMatrix(("a", "b"), np.array([[0.5, 0.5], [0.5, 0.5]]), "over_n")
    rho0 = np.eye(3, dtype=complex) / 3
    with pytest.raises(ValueError) as err:
        evolve_effective(km, EvolutionConfig(g=0.5, steps=steps), rho0)
    assert "(3, 3)" in str(err.value) and "(2, 2)" in str(err.value)


@pytest.mark.parametrize("seed", range(12))
def test_steady_states_multi_class_representatives_agree(seed):
    # Two or three closed classes, each dense inside, with no rate between
    # them: the kernel is degenerate, but its projector does not depend on
    # the SVD basis, so every representative (the projection of each kept
    # probe state) agrees, not only the first.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(4, 11))
    group = rng.permutation(d) % (2 + seed % 2)
    raw = rng.uniform(0.05, 1.0, size=(d, d)) * (group[:, None] == group[None, :])
    km = KappaMatrix(tuple(str(i) for i in range(d)), raw / raw.sum(axis=0), "over_n")
    direct = steady_states(kappa_generator(km))
    reference = steady_states(reference_generator(km))
    assert len(direct) == len(reference) == 2 + seed % 2
    assert np.max(np.abs(np.array(direct) - np.array(reference))) <= 1e-12


def block_kappa(rng, d, blocks, transient, convention, zero_frac, dead):
    """Rates with ``blocks`` groups closed to each other and transient states.

    States in a group jump only inside it; the ``transient`` states may jump
    anywhere.  Zero rows or columns left by ``zero_frac`` get a self-jump,
    which changes no class.  With ``dead`` (over_m) up to two columns are
    all zero, so no jump, not even a self-jump, leaves those states.
    """
    transient = min(transient, d - 1)
    group = np.full(d, -1)
    group[transient:] = np.arange(d - transient) % blocks
    group = rng.permutation(group)
    allowed = (group[None, :] < 0) | (group[:, None] == group[None, :])
    raw = rng.uniform(0.05, 1.0, size=(d, d)) * allowed
    raw *= rng.uniform(size=(d, d)) >= zero_frac
    if convention == "over_n":
        empty = raw.sum(axis=0) == 0
        raw[empty, empty] = 1.0
        entries = raw / raw.sum(axis=0, keepdims=True)
    else:
        dead_cols = rng.choice(d, size=min(2, d), replace=False) if dead else []
        raw[:, dead_cols] = 0.0
        for n in np.flatnonzero(raw.sum(axis=1) == 0):
            live = [m for m in np.flatnonzero(allowed[n]) if m not in dead_cols]
            raw[n, live[0] if live else n] = 1.0
        entries = raw / raw.sum(axis=1, keepdims=True)
    return KappaMatrix(tuple(str(i) for i in range(d)), entries, convention)


def closed_class_count(entries):
    """Strongly connected components of the jump graph with no jump out."""
    from scipy.sparse.csgraph import connected_components

    jumps = (entries > 0).T & ~np.eye(len(entries), dtype=bool)  # [m, n]: m -> n
    count, labels = connected_components(jumps, directed=True, connection="strong")
    leaves = {labels[m] for m, n in zip(*np.nonzero(jumps)) if labels[m] != labels[n]}
    return count - len(leaves)


def span_projector(vectors):
    u, s, _ = np.linalg.svd(np.asarray(vectors, dtype=float).T, full_matrices=False)
    u = u[:, s > 1e-9 * s.max()]  # the vectors may be dependent
    return u @ u.T


block_kappa_tables = st.builds(
    lambda d, blocks, transient, convention, seed, zero_frac, dead: block_kappa(
        np.random.default_rng(seed), d, blocks, transient, convention, zero_frac, dead
    ),
    st.integers(1, 9),
    st.integers(1, 3),
    st.integers(0, 2),
    st.sampled_from(["over_n", "over_m"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 0.8]),
    st.booleans(),
)


@given(block_kappa_tables)
@settings(max_examples=150, deadline=None)
def test_kappa_steady_states_one_per_closed_class(km):
    states = kappa_steady_states(km)
    assert len(states) == closed_class_count(km.entries)

    L = kappa_generator(km)
    pops = [np.diag(rho).real for rho in states]
    firsts = [int(np.flatnonzero(p)[0]) for p in pops]
    assert firsts == sorted(firsts)
    for rho, p in zip(states, pops):
        assert np.array_equal(rho, np.diag(np.diag(rho)))
        assert p.min() >= 0.0 and abs(p.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(L.apply(rho))) <= 1e-10
    support = np.array(pops) > 0
    assert support.sum(axis=0).max() <= 1  # classes are disjoint

    A = km.entries - np.diag(km.entries.sum(axis=0))
    _, s, vh = np.linalg.svd(A)
    kernel = vh[s <= 1e-9 * max(s.max(), 1.0)]
    assert np.max(np.abs(span_projector(pops) - span_projector(kernel))) <= 1e-9

    # The generic kernel adds the coherences between states that no jump
    # leaves, in both directions; its diagonals span the same populations.
    generic = steady_states(L)
    dead = int(np.sum(km.entries.sum(axis=0) == 0))
    assert len(generic) == len(states) + dead * (dead - 1)
    diagonals = [np.diag(rho).real for rho in generic]
    assert np.max(np.abs(span_projector(diagonals) - span_projector(pops))) <= 1e-9
    if len(states) == 1:
        assert np.max(np.abs(states[0] - generic[0])) <= 1e-12


# --- invariants ----------------------------------------------------------------------

def test_clamp_reports_counts():
    rho = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    fixed, clamped = clamp_density_matrix(rho)
    assert clamped == 1
    assert np.linalg.eigvalsh(fixed).min() >= 0


def test_clamp_rejects_large_negative():
    rho = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(InvariantViolation):
        clamp_density_matrix(rho)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_clamp_rejects_a_non_finite_state(bad):
    # A NaN compares False against every tolerance; it must still fail.
    with pytest.raises(InvariantViolation, match="^initial state: state has non-finite entries"):
        clamp_density_matrix(np.full((2, 2), bad), "initial state")
    rho = np.diag([1.0, 0.0]).astype(complex)
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(InvariantViolation, match="non-finite"):
        clamp_density_matrix(rho)


@pytest.mark.filterwarnings("error")
def test_evolve_effective_raises_at_the_first_nan_step():
    # expm of this rate matrix is all NaN, so step 1 is the first bad state.
    # The coherence decay factors overflow on the way, without a warning:
    # only the violation shows.
    kappa = np.array([[0.0, 1e300], [-1e300, 0.0]])
    with pytest.raises(InvariantViolation, match="^step 1: state has non-finite entries"):
        evolve_effective(kappa, EvolutionConfig(g=1.0, steps=3), pure_state(2, 1))


def test_evolution_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(g=0.0, steps=5)
    with pytest.raises(ValueError):
        EvolutionConfig(g=1.0, steps=-1)


def test_evolve_kicked_rejects_bad_schedule():
    with pytest.raises(ValueError):
        evolve_kicked(None, [], [1.0, 0.5], pure_state(2, 0))


def test_evolve_kicked_rejects_non_trace_preserving_channel():
    bad = Superoperator(0.5 * np.eye(4, dtype=complex), "channel")
    with pytest.raises(InvariantViolation):
        evolve_kicked(bad, [], [1.0], pure_state(2, 0))
