"""Open-system engine tests: generators, channels, reductions, evolutions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinfoam_oqs.amplitudes import KappaMatrix
from spinfoam_oqs.lindblad import (
    EmptyKernelError,
    EvolutionConfig,
    InvariantViolation,
    KrausSet,
    Superoperator,
    adiabatic_eliminate,
    clamp_density_matrix,
    dissipator,
    dissipator_matrix,
    evolve_continuous,
    evolve_effective,
    evolve_kicked,
    generator,
    kappa_generator,
    kraus_from_map,
    limit_channel,
    maximally_mixed,
    pure_state,
    state_from_amplitudes,
    steady_states,
    subspace_relaxer,
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
    rho0 = maximally_mixed(3)
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
    cycle = U0.compose(slow_step)
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
        km, EvolutionConfig(g=0.5, steps=40), maximally_mixed(4)
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
def test_steady_states_multi_class_first_representative_agrees(seed):
    # Two or three closed classes, each dense inside, with no rate between
    # them: the kernel is degenerate, so only the count and the first
    # representative (the kernel projection of I/d) are independent of the
    # SVD basis; later ones are not compared.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(4, 11))
    group = rng.permutation(d) % (2 + seed % 2)
    raw = rng.uniform(0.05, 1.0, size=(d, d)) * (group[:, None] == group[None, :])
    km = KappaMatrix(tuple(str(i) for i in range(d)), raw / raw.sum(axis=0), "over_n")
    direct = steady_states(kappa_generator(km))
    reference = steady_states(reference_generator(km))
    assert len(direct) >= 2
    assert len(direct) == len(reference)
    assert np.max(np.abs(direct[0] - reference[0])) <= 1e-12


# --- subspace relaxer ---------------------------------------------------------------

def test_subspace_relaxer_two_level():
    L = subspace_relaxer(2, [0], target=0)
    out = limit_channel(L).apply(pure_state(2, 1))
    assert out[0, 0].real == pytest.approx(1.0, abs=1e-10)


def test_subspace_relaxer_leaves_inside_states_fixed():
    L = subspace_relaxer(4, [0, 1], target=0)
    U = limit_channel(L)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[:2, :2] = state_from_amplitudes([0.6, 0.8])[:, :]
    assert np.allclose(U.apply(rho0), rho0, atol=1e-10)


def test_subspace_relaxer_maps_random_states_into_subspace():
    rng = np.random.default_rng(11)
    L = subspace_relaxer(4, [0, 1], target=1, rates=[1.0, 2.0])
    U = limit_channel(L)
    for _ in range(5):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = A @ A.conj().T
        rho /= np.trace(rho).real
        out = U.apply(rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        outside = np.abs(out[2:, :]).max() + np.abs(out[:, 2:]).max()
        assert outside < 1e-10


def test_subspace_relaxer_empty_complement_shortcut():
    L = subspace_relaxer(2, [0, 1], target=0)
    assert np.allclose(L.matrix, 0.0)


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


def test_evolution_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(g=0.0, steps=5)
    with pytest.raises(ValueError):
        EvolutionConfig(g=1.0, steps=-1)
    with pytest.raises(ValueError):
        EvolutionConfig(g=1.0, steps=2, kick_times=(1.0, 1.0))


def test_evolve_kicked_rejects_bad_schedule():
    with pytest.raises(ValueError):
        evolve_kicked(None, [], [1.0, 0.5], pure_state(2, 0))


def test_evolve_kicked_rejects_non_trace_preserving_channel():
    bad = Superoperator(0.5 * np.eye(4, dtype=complex), "channel")
    with pytest.raises(InvariantViolation):
        evolve_kicked(bad, [], [1.0], pure_state(2, 0))
