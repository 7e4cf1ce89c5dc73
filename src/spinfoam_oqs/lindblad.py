"""Open-system engine: dissipators, generators, steady states, channels.

Superoperators act on column-vectorized density matrices (Fortran order),
so vec(A rho B) = (B^T kron A) vec(rho).  Matrix exponentials go through
scipy's scaling-and-squaring Pade implementation.  Evolutions validate
the CPTP invariants of every state they return; eigenvalues in (-1e-10, 0)
are clamped to zero with renormalization and the clamp count is reported
on the trajectory.  A trajectory is one (steps + 1, d, d) array.
``evolve_effective`` steps a block of states, then checks Hermiticity,
trace and positivity for the whole block at once, taking each state's
smallest eigenvalue from one batched ``eigvalsh``.  The clamp decision is
unchanged: every state whose batched smallest eigenvalue falls below a
round-off guard goes through ``clamp_density_matrix`` and its own
``eigh``, and the evolution restarts only from a state a clamp changed.

The effective generator sum kappa[n,m] D_{|n><m|} is purely incoherent: it
is a classical (Pauli) rate equation on the populations, and every
coherence decays on its own.  ``kappa_generator`` fills its D^2 x D^2
matrix directly from those two parts, and ``evolve_effective`` steps them
separately without ever forming that matrix.  The generic ``generator``
builds from ``dissipator_matrix`` products and is the reference both are
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import expm

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
KRAUS_COMPLETENESS_TOL = 1e-10
CHOI_NEGATIVITY_TOL = 1e-8
KRAUS_KEEP_TOL = 1e-12
# A state whose batched eigvalsh minimum is at least this large is left
# unclamped without its own eigh: eigvalsh and eigh agree on a density
# matrix to within ~1e-15.
CLAMP_GUARD = 1e-14


class InvariantViolation(ValueError):
    """A state or map left the tolerated CPTP region."""


class EmptyKernelError(RuntimeError):
    """No steady state found within tolerance."""


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((dim, dim), order="F")


def spre(a: np.ndarray) -> np.ndarray:
    d = a.shape[0]
    return np.kron(np.eye(d), a)


def spost(b: np.ndarray) -> np.ndarray:
    d = b.shape[0]
    return np.kron(b.T, np.eye(d))


def dissipator(R: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """R rho R^dag - (1/2){R^dag R, rho}."""
    R = np.asarray(R, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if R.shape != rho.shape or R.shape[0] != R.shape[1]:
        raise ValueError(f"shape mismatch: R {R.shape} vs rho {rho.shape}")
    rr = R.conj().T @ R
    return R @ rho @ R.conj().T - 0.5 * (rr @ rho + rho @ rr)


def dissipator_matrix(R: np.ndarray) -> np.ndarray:
    """Vectorized form of the single-damper dissipator."""
    R = np.asarray(R, dtype=complex)
    rr = R.conj().T @ R
    return spre(R) @ spost(R.conj().T) - 0.5 * (spre(rr) + spost(rr))


@dataclass(frozen=True)
class Superoperator:
    """D^2 x D^2 matrix acting on column-vectorized density matrices."""

    matrix: np.ndarray
    kind: str = "generator"  # "generator" | "channel"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = math.isqrt(m.shape[0])
        if m.ndim != 2 or m.shape[0] != m.shape[1] or d * d != m.shape[0]:
            raise ValueError("superoperator must be D^2 x D^2")
        if self.kind not in ("generator", "channel"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return math.isqrt(self.matrix.shape[0])

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other (matrix product)."""
        kind = "channel" if self.kind == other.kind == "channel" else "generator"
        return Superoperator(self.matrix @ other.matrix, kind)

    def trace_defect(self) -> float:
        """How strongly the map fails to preserve trace.

        For a generator the identity row must annihilate the matrix; for a
        channel it must be a left fixed point.
        """
        id_row = vec(np.eye(self.dim)).conj()
        out = id_row @ self.matrix
        if self.kind == "generator":
            return float(np.max(np.abs(out)))
        return float(np.max(np.abs(out - id_row)))


def generator(
    H: np.ndarray | None,
    dampers: Iterable[tuple[float, np.ndarray]] = (),
) -> Superoperator:
    """Lindblad generator -i[H, .] + sum_k rate_k D_{R_k}."""
    dampers = [(float(rate), np.asarray(R, dtype=complex)) for rate, R in dampers]
    if H is None:
        if not dampers:
            raise ValueError("need a Hamiltonian or at least one damper")
        dim = dampers[0][1].shape[0]
        H = np.zeros((dim, dim), dtype=complex)
    H = np.asarray(H, dtype=complex)
    if np.max(np.abs(H - H.conj().T)) > HERMITICITY_TOL:
        raise InvariantViolation("Hamiltonian is not Hermitian within 1e-12")
    mat = -1j * (spre(H) - spost(H))
    for rate, R in dampers:
        if R.shape != H.shape:
            raise ValueError("damper shape does not match the Hamiltonian")
        mat = mat + rate * dissipator_matrix(R)
    sup = Superoperator(mat, "generator")
    defect = sup.trace_defect()
    if defect > TRACE_TOL:
        raise InvariantViolation(f"generator violates trace preservation: {defect}")
    return sup


def _rates(kappa) -> tuple[np.ndarray, np.ndarray]:
    """Population rate matrix and coherence decay rates of sum kappa D_{|n><m|}.

    With Gamma_m = sum_n kappa[n, m] (the self-jump n = m included), the
    populations obey dp/dt = A p with A = kappa - diag(Gamma), and each
    coherence rho_ab (a != b) decays on its own at (Gamma_a + Gamma_b) / 2.
    The diagonal of the decay array (Gamma itself) belongs to no coherence;
    callers overwrite it.
    """
    entries = np.asarray(getattr(kappa, "entries", kappa), dtype=float)
    gamma = entries.sum(axis=0)
    return entries - np.diag(gamma), (gamma[:, None] + gamma[None, :]) / 2


def kappa_generator(kappa) -> Superoperator:
    """Effective generator sum_{nm} kappa[n,m] D_{|n><m|}.

    Filled directly: the population block sits at the vec indices a + d a,
    and each coherence gets its decay rate on the diagonal.
    """
    pop, decay = _rates(kappa)
    d = pop.shape[0]
    mat = np.diag(-decay.reshape(-1, order="F")).astype(complex)
    diag_idx = np.arange(d) * (d + 1)
    mat[np.ix_(diag_idx, diag_idx)] = pop
    return Superoperator(mat, "generator")


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def hermitian_part(rho: np.ndarray) -> np.ndarray:
    """(rho + rho^dag) / 2, for one matrix or a stack of them."""
    return (rho + np.swapaxes(rho, -1, -2).conj()) / 2


def validate_density_matrix(rho: np.ndarray, context: str = "state") -> None:
    rho = np.asarray(rho)
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise InvariantViolation(f"{context}: Hermiticity violated beyond 1e-12")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise InvariantViolation(f"{context}: trace {np.trace(rho)} is not 1")
    lo = float(np.min(np.linalg.eigvalsh(hermitian_part(rho))))
    if lo < -POSITIVITY_TOL:
        raise InvariantViolation(f"{context}: negative eigenvalue {lo}")


def clamp_density_matrix(rho: np.ndarray, context: str = "state") -> tuple[np.ndarray, int]:
    """Validate and clamp tiny negative eigenvalues to zero.

    Eigenvalues in (-1e-10, 0) are zeroed and the state renormalized; the
    number of clamped eigenvalues is returned.  Anything below -1e-10
    raises.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise InvariantViolation(f"{context}: Hermiticity violated ({herm:.2e})")
    rho = hermitian_part(rho)
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvariantViolation(f"{context}: trace {tr} is not 1")
    vals, vecs = np.linalg.eigh(rho)
    lo = float(vals.min())
    if lo < -POSITIVITY_TOL:
        raise InvariantViolation(f"{context}: negative eigenvalue {lo}")
    clamped = int(np.sum(vals < 0))
    if clamped:
        vals = np.clip(vals, 0.0, None)
        rho = (vecs * vals) @ vecs.conj().T
        rho = rho / np.trace(rho).real
    return rho, clamped


def pure_state(dim: int, index: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


def state_from_amplitudes(amplitudes: Sequence[complex]) -> np.ndarray:
    """Density matrix of a normalized pure superposition."""
    psi = np.asarray(list(amplitudes), dtype=complex)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("zero state vector")
    psi = psi / norm
    return np.outer(psi, psi.conj())


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


# ---------------------------------------------------------------------------
# Evolutions
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Time-indexed density matrices produced by a stepped evolution.

    ``states`` is one (steps + 1, d, d) complex array; a list of matrices
    is stacked on construction.
    """

    states: np.ndarray
    g: float = 1.0
    clamped: int = 0

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 3 or states.shape[1] != states.shape[2]:
            raise ValueError(
                f"states must stack square matrices, got shape {states.shape}"
            )
        self.states = states

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def populations(self) -> np.ndarray:
        return self.states.diagonal(axis1=1, axis2=2).real.copy()

    def traces(self) -> np.ndarray:
        return np.trace(self.states, axis1=1, axis2=2).real

    def min_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(hermitian_part(self.states)).min(axis=1)


def evolve_continuous(L: Superoperator, rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) applied to rho0, with the CPTP invariants re-validated."""
    if L.kind != "generator":
        raise ValueError("evolve_continuous needs a generator")
    validate_density_matrix(rho0, "initial state")
    if t == 0.0:
        return np.asarray(rho0, dtype=complex).copy()
    out = unvec(expm(t * L.matrix) @ vec(rho0), L.dim)
    out, _ = clamp_density_matrix(out, f"state after t={t}")
    return out


def limit_channel(L: Superoperator, horizon_factor: float = 50.0) -> Superoperator:
    """Large-time channel exp(t* L) with a doubling convergence check.

    t* is set to horizon_factor over the smallest nonzero decay rate; the
    channel is accepted once doubling the horizon moves it by less than
    1e-10.
    """
    if L.kind != "generator":
        raise ValueError("limit_channel needs a generator")
    eigvals = np.linalg.eigvals(L.matrix)
    rates = np.abs(eigvals.real)
    nonzero = rates[rates > 1e-12]
    if nonzero.size == 0:
        return Superoperator(np.eye(L.matrix.shape[0], dtype=complex), "channel")
    t_star = horizon_factor / float(nonzero.min())
    U = expm(t_star * L.matrix)
    for _ in range(8):
        U2 = U @ U
        if np.max(np.abs(U2 - U)) <= 1e-10:
            return Superoperator(U2, "channel")
        U = U2
    raise InvariantViolation(
        "large-time limit did not converge (purely oscillatory part present?)"
    )


def steady_states(L: Superoperator, kernel_tol: float = 1e-9) -> list[np.ndarray]:
    """Density-matrix representatives spanning the kernel of the generator.

    The kernel is taken from an SVD, Hermitized and orthonormalized.  The
    first representative is the kernel projection of the maximally mixed
    state; the remaining (traceless) kernel directions are mixed into it
    with the largest coefficient that keeps the state positive.
    """
    if L.kind != "generator":
        raise ValueError("steady_states needs a generator")
    d = L.dim
    _, s, vh = np.linalg.svd(L.matrix)
    scale = s.max() if s.size and s.max() > 0 else 1.0
    null_vectors = [vh[i].conj() for i in range(len(s)) if s[i] <= kernel_tol * scale]
    if not null_vectors:
        raise EmptyKernelError("no steady state found within tolerance")

    # Hermitize and orthonormalize in the Hilbert-Schmidt inner product.
    basis: list[np.ndarray] = []
    candidates = []
    for v in null_vectors:
        B = unvec(v, d)
        candidates.append((B + B.conj().T) / 2)
        candidates.append(1j * (B - B.conj().T) / 2)
    for C in candidates:
        for B in basis:
            C = C - np.trace(B.conj().T @ C) * B
        nrm = np.linalg.norm(C)
        if nrm > 1e-10:
            basis.append(C / nrm)
    if not basis:
        raise EmptyKernelError("kernel contains no Hermitian directions")

    def project(X):
        out = np.zeros_like(X, dtype=complex)
        for B in basis:
            out += np.trace(B.conj().T @ X) * B
        return out

    reps: list[np.ndarray] = []
    base = project(np.eye(d) / d)
    tr = np.trace(base).real
    if abs(tr) > 1e-12:
        base = base / tr
        vals = np.linalg.eigvalsh(base)
        if vals.min() >= -POSITIVITY_TOL:
            base, _ = clamp_density_matrix(base, "steady base state")
            reps.append(base)
    if not reps:
        # Fall back to any basis element that normalizes to a state.
        for B in basis:
            tr = np.trace(B).real
            if abs(tr) < 1e-12:
                continue
            cand = B / tr
            if np.linalg.eigvalsh(cand).min() >= -POSITIVITY_TOL:
                cand, _ = clamp_density_matrix(cand, "steady state")
                reps.append(cand)
                break
    if not reps:
        raise EmptyKernelError(
            "kernel is nonempty but contains no positive unit-trace element"
        )
    base = reps[0]

    for B in basis:
        direction = B - np.trace(B).real / d * np.eye(d)
        direction = project(direction)
        nrm = np.linalg.norm(direction)
        if nrm < 1e-12:
            continue
        direction /= nrm
        lo = float(np.linalg.eigvalsh(direction).min())
        if lo >= -1e-14:
            continue  # positive direction, already representable
        vals_base = np.linalg.eigvalsh(base)
        t = 0.5 * float(vals_base.min()) / (-lo) if vals_base.min() > 0 else 0.0
        if t <= 0:
            continue
        cand = base + t * direction
        cand = cand / np.trace(cand).real
        if np.linalg.eigvalsh(cand).min() < -POSITIVITY_TOL:
            continue
        cand, _ = clamp_density_matrix(cand, "steady state")
        if all(np.linalg.norm(cand - r) > 1e-10 for r in reps):
            reps.append(cand)

    checked = []
    for rho in reps:
        residual = np.max(np.abs(L.apply(rho)))
        if residual <= 1e-10:
            checked.append(rho)
    if not checked:
        raise EmptyKernelError("candidate steady states fail ||L rho|| <= 1e-10")
    return checked


# ---------------------------------------------------------------------------
# Kraus decompositions and adiabatic elimination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KrausSet:
    """Operators M_mu with sum M^dag M = 1 within tolerance."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(M, dtype=complex) for M in self.operators)
        if not ops:
            raise ValueError("empty Kraus set")
        d = ops[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for M in ops:
            if M.shape != (d, d):
                raise ValueError("Kraus operators must share one square shape")
            total += M.conj().T @ M
        defect = np.max(np.abs(total - np.eye(d)))
        if defect > KRAUS_COMPLETENESS_TOL:
            raise InvariantViolation(
                f"Kraus completeness violated: max deviation {defect:.2e}"
            )
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for M in self.operators:
            out += M @ rho @ M.conj().T
        return out

    def as_superoperator(self) -> Superoperator:
        mat = sum(spre(M) @ spost(M.conj().T) for M in self.operators)
        return Superoperator(mat, "channel")


def kraus_from_map(U0: Superoperator) -> KrausSet:
    """Kraus operators of a channel via its reshuffled (Choi) matrix.

    Eigenvalues below 1e-12 are discarded; an eigenvalue below -1e-8 means
    the map is not completely positive and raises.
    """
    if U0.kind != "channel":
        raise ValueError("kraus_from_map needs a channel")
    d = U0.dim
    S4 = U0.matrix.reshape(d, d, d, d)  # axes (j, i, l, k) of S[i+dj, k+dl]
    choi = S4.transpose(1, 3, 0, 2).reshape(d * d, d * d)
    herm_defect = np.max(np.abs(choi - choi.conj().T))
    if herm_defect > 1e-9:
        raise InvariantViolation(
            f"map is not Hermiticity-preserving (Choi defect {herm_defect:.2e})"
        )
    vals, vecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    if vals.min() < -CHOI_NEGATIVITY_TOL:
        raise InvariantViolation(
            f"map is not completely positive: Choi eigenvalue {vals.min():.2e}"
        )
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam <= KRAUS_KEEP_TOL:
            continue
        ops.append(math.sqrt(float(lam)) * v.reshape(d, d))
    return KrausSet(tuple(ops))


def adiabatic_eliminate(
    M: KrausSet,
    h0_basis: Sequence[int],
    invariance_tol: float = 1e-8,
) -> tuple["object", Superoperator]:
    """First-order reduced model on an invariant subspace.

    kappa[n, m] = sum_mu |<n|M_mu|m>|^2 over the subspace indices, and the
    effective generator is sum kappa[n,m] D_{|n><m|} on the reduced space.
    Columns of kappa are renormalized to one after checking that the raw
    sums are already there up to the leakage tolerance.
    """
    from .amplitudes import KappaMatrix

    idx = list(h0_basis)
    d = M.dim
    d0 = len(idx)
    if d0 == 0:
        raise ValueError("empty subspace basis")
    outside = [k for k in range(d) if k not in idx]

    # Invariance: the channel must keep subspace-supported states inside.
    for a in idx:
        for b in idx:
            E = np.zeros((d, d), dtype=complex)
            E[a, b] = 1.0
            out = M.apply(E)
            leak = 0.0
            if outside:
                leak = max(
                    np.max(np.abs(out[np.ix_(outside, range(d))])),
                    np.max(np.abs(out[np.ix_(range(d), outside)])),
                )
            if leak > invariance_tol:
                raise InvariantViolation(
                    f"subspace not invariant: leakage {leak:.2e} from |{a}><{b}|"
                )

    kappa = np.zeros((d0, d0))
    for Mu in M.operators:
        block = Mu[np.ix_(idx, idx)]
        kappa += np.abs(block) ** 2
    sums = kappa.sum(axis=0)
    if np.max(np.abs(sums - 1.0)) > 1e-6:
        raise InvariantViolation(
            f"subspace transition probabilities do not sum to one: {sums}"
        )
    kappa = kappa / sums[None, :]
    km = KappaMatrix(tuple(str(i) for i in idx), kappa, "over_n")
    return km, kappa_generator(km)


# ---------------------------------------------------------------------------
# Stepped evolutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvolutionConfig:
    """Stepped-evolution parameters; g is the dimensionless step weight."""

    g: float
    steps: int
    epsilon: float | None = None
    kick_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError("g must be positive")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.kick_times is not None:
            times = tuple(float(t) for t in self.kick_times)
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("kick schedule must be strictly increasing")
            object.__setattr__(self, "kick_times", times)


# Blocks shorter than this send every state through clamp_density_matrix:
# after a clamp the next block is short, and on a trajectory that clamps
# every few steps the batched calls of many one- or two-state blocks cost
# more than they save.  On seed-0 relax_wide case b2-6, which clamps on 41
# of 90 steps, checking every block in batch made evolution and export
# about 30% slower than checking each step; with this cut they are not.
# The longest block bounds the check's temporary arrays.
_MIN_BLOCK = 8
_MAX_BLOCK = 256


def _step_block(state, pop_step, mask, n: int) -> np.ndarray:
    """The n raw (unsymmetrized) states that follow ``state``."""
    block = np.empty((n,) + state.shape, dtype=complex)
    for k in range(n):
        populations = pop_step @ state.diagonal()
        state = np.multiply(mask, state, out=block[k])
        np.fill_diagonal(state, populations)
    return block


def _unsettled(raw: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """Indices of the states in a block that need their own clamp check.

    ``sym`` holds the Hermitian parts of the raw states.  A state needs it
    when it fails the Hermiticity or trace check, or when its smallest
    eigenvalue, from one batched ``eigvalsh``, is below ``CLAMP_GUARD``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.abs(raw - np.swapaxes(raw, 1, 2).conj()).max(axis=(1, 2))
        trace_defect = np.abs(np.trace(sym, axis1=1, axis2=2) - 1.0)
    valid = (herm <= HERMITICITY_TOL) & (trace_defect <= TRACE_TOL)
    # clamp_density_matrix raises at the first invalid state, so the states
    # after it (possibly not finite) need no eigenvalues.
    first_invalid = len(raw) if valid.all() else int(valid.argmin())
    lows = np.full(len(raw), -np.inf)
    lows[:first_invalid] = np.linalg.eigvalsh(sym[:first_invalid]).min(axis=1)
    return np.flatnonzero(~(valid & (lows >= CLAMP_GUARD)))


def evolve_effective(kappa, cfg: EvolutionConfig, rho0: np.ndarray) -> Trajectory:
    """Iterate rho -> exp(g sum kappa D) rho for cfg.steps steps.

    The generator is block-diagonal in the split populations/coherences,
    so the step map is applied exactly without forming the D^2 x D^2
    matrix: the diagonal goes through the d x d map expm(g A) of the
    population rate matrix, and each off-diagonal entry rho_ab is scaled
    by exp(-g (Gamma_a + Gamma_b) / 2).  Both are computed once and reused.

    States are stepped and checked a block at a time.  A state that fails
    a batched check, or whose smallest eigenvalue is below ``CLAMP_GUARD``,
    goes through ``clamp_density_matrix``, which raises or clamps exactly
    as a per-step check would; in blocks shorter than ``_MIN_BLOCK``
    every state does.  The raw state feeds the next step unless a
    clamp changed it; then the block is cut there and the next one starts
    from the clamped state, as long as the stretch just accepted, so
    frequent clamps waste few steps.  Clean blocks double the next block's
    length, up to ``_MAX_BLOCK``.
    """
    pop, decay = _rates(kappa)
    if np.shape(rho0) != pop.shape:
        raise ValueError(
            f"initial state has shape {np.shape(rho0)}, kappa has shape {pop.shape}"
        )
    validate_density_matrix(rho0, "initial state")
    pop_step = expm(cfg.g * pop)
    mask = np.exp(-cfg.g * decay)
    states = np.empty((cfg.steps + 1,) + pop.shape, dtype=complex)
    states[0] = rho0
    clamp_total = 0
    state, done, chunk = states[0], 0, cfg.steps
    while done < cfg.steps:
        n = min(chunk, _MAX_BLOCK, cfg.steps - done)
        # A rate table with negative entries can make the states after the
        # first invalid one overflow; the per-step path never computed
        # them, so their warnings are not shown.
        with np.errstate(over="ignore", invalid="ignore"):
            raw = _step_block(state, pop_step, mask, n)
            sym = hermitian_part(raw)
        states[done + 1 : done + 1 + n] = sym
        for k in range(n) if n < _MIN_BLOCK else _unsettled(raw, sym):
            rho, clamped = clamp_density_matrix(raw[k], f"step {done + k + 1}")
            if clamped:
                clamp_total += clamped
                states[done + k + 1] = rho
                done, chunk, state = done + k + 1, k + 1, rho
                break
        else:
            done, chunk, state = done + n, 2 * n, raw[-1]
    return Trajectory(states, g=cfg.g, clamped=clamp_total)


def evolve_kicked(
    coherent,
    dampers: Iterable[tuple[float, np.ndarray]],
    schedule: Sequence[float],
    rho0: np.ndarray,
) -> Trajectory:
    """Alternate coherent intervals with damping kicks.

    ``coherent`` is None (identity), a Hermitian matrix used as the
    generator of the interval propagator, or a channel Superoperator
    applied once per interval (the non-unitary variant).  Each kick
    applies exp(sum rate D_R) once.
    """
    times = [float(t) for t in schedule]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("schedule must be strictly increasing")
    validate_density_matrix(rho0, "initial state")
    dampers = [(float(r), np.asarray(R, dtype=complex)) for r, R in dampers]
    dim = rho0.shape[0]

    if dampers:
        kick_mat = expm(
            sum(rate * dissipator_matrix(R) for rate, R in dampers)
        )
        kick = Superoperator(kick_mat, "channel")
        defect = kick.trace_defect()
        if defect > TRACE_TOL:
            raise InvariantViolation(f"damping kick is not trace preserving: {defect}")
    else:
        kick = None

    interval_channel = None
    hamiltonian = None
    if coherent is None:
        pass
    elif isinstance(coherent, Superoperator):
        if coherent.kind != "channel":
            raise ValueError("a Superoperator coherent part must be a channel")
        defect = coherent.trace_defect()
        if defect > TRACE_TOL:
            raise InvariantViolation(
                f"coherent channel is not trace preserving: {defect}"
            )
        interval_channel = coherent
    else:
        hamiltonian = np.asarray(coherent, dtype=complex)
        if np.max(np.abs(hamiltonian - hamiltonian.conj().T)) > HERMITICITY_TOL:
            raise InvariantViolation("coherent generator must be Hermitian")

    states = np.empty((len(times) + 1, dim, dim), dtype=complex)
    states[0] = rho0
    clamp_total = 0
    rho = states[0]
    prev_t = 0.0
    for k, t in enumerate(times, start=1):
        dt = t - prev_t
        prev_t = t
        if interval_channel is not None:
            rho = interval_channel.apply(rho)
        elif hamiltonian is not None:
            U = expm(-1j * dt * hamiltonian)
            rho = U @ rho @ U.conj().T
        if kick is not None:
            rho = kick.apply(rho)
        rho, clamped = clamp_density_matrix(rho, f"kick at t={t}")
        clamp_total += clamped
        states[k] = rho
    return Trajectory(states, g=(times[0] if times else 1.0), clamped=clamp_total)


def subspace_relaxer(
    dim: int,
    h0_basis: Sequence[int],
    target: int,
    rates: Sequence[float] | None = None,
) -> Superoperator:
    """Generator whose large-time limit maps every state into the subspace.

    One jump operator |target><v| is placed per basis vector v of the
    orthogonal complement so that every outside direction is damped (a
    single summed jump would leave all but one combination untouched).
    With an empty complement the generator is zero and its limit channel
    is the identity.
    """
    idx = sorted(set(int(i) for i in h0_basis))
    if target not in idx:
        raise ValueError("target must lie in the subspace")
    outside = [k for k in range(dim) if k not in idx]
    if not outside:
        return Superoperator(np.zeros((dim * dim, dim * dim), dtype=complex), "generator")
    if rates is None:
        rates = [1.0] * len(outside)
    rates = [float(r) for r in rates]
    if len(rates) != len(outside):
        raise ValueError(
            f"{len(outside)} complement directions need {len(outside)} rates"
        )
    dampers = []
    for rate, v in zip(rates, outside):
        P = np.zeros((dim, dim), dtype=complex)
        P[target, v] = 1.0
        dampers.append((rate, P))
    return generator(np.zeros((dim, dim)), dampers)
