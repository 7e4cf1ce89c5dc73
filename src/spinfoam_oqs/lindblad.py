"""Open-system engine: dissipators, generators, steady states, channels.

Superoperators act on column-vectorized density matrices (Fortran order),
so vec(A rho B) = (B^T kron A) vec(rho).  The generic matrix exponentials
go through ``expm``, scipy's scaling-and-squaring Pade implementation,
which imports ``scipy.linalg`` on its first call; the population step of
``evolve_effective`` is uniformized instead.  Every evolution, the
cascades of ``qed_reference`` included, makes its (steps + 1, d, d) stack
of states in ``_stepped``, which steps them all, then checks the CPTP
invariants of every state, the initial one included, in one batch.  Its
one ``block_min_eigenvalues`` call (per block of the coherence support)
gives the minima that ``Trajectory.min_eigenvalues`` keeps.  Each state is
stored as it was stepped.  Eigenvalues in (-1e-10, 0) are clamped to zero
with renormalization and counted; a clamp changes a stored state after the
initial one, never the next step's input.

The effective generator sum kappa[n,m] D_{|n><m|} is purely incoherent: it
is a classical (Pauli) rate equation on the populations, and every
coherence decays on its own.  ``kappa_generator`` fills its D^2 x D^2
matrix directly from those two parts, and ``evolve_effective`` steps them
separately without ever forming that matrix.  ``kappa_steady_states``
does not form it either: it returns one diagonal steady state per closed
class of the jump graph, each the null vector of that class's d_C x d_C
block of the population rate matrix, ordered by the class's smallest
basis index.  The generic ``generator`` builds from ``dissipator_matrix``
products; it is the reference the structured paths are tested against.

The large-time questions of any D^2 x D^2 generator L read one object, the
projector P onto ker L along the range of L, from one SVD: ``limit_channel``
returns it (the channel lim exp(t L) that adiabatic elimination starts
from), and ``steady_states`` returns the images under it of probe states
that span ker L, one state per kernel dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
KRAUS_COMPLETENESS_TOL = 1e-10
CHOI_NEGATIVITY_TOL = 1e-8
KRAUS_KEEP_TOL = 1e-12
INVARIANCE_TOL = 1e-8
ZERO_RATE_TOL = 1e-12  # relative to ||L||: the generator's kernel (see _kernel_projector)
SPAN_TOL = 1e-8  # relative: a kernel image this far off the kept span is a new steady state
POISSON_TAIL = 2.0**-60  # uniformization stops at the first Poisson weight below this


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm``, imported on the first call.

    Only the generic paths need it: ``evolve_continuous``, the kicks of
    ``evolve_kicked``, the cascades of ``qed_reference`` and a population
    rate array that ``_population_step`` cannot uniformize.  So neither a
    package import nor a CLI command on a valid config loads
    ``scipy.linalg``.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


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


def _population_step(pop: np.ndarray, g: float) -> np.ndarray:
    """exp(g A) of a population rate matrix A, by uniformization.

    With lam = max |g A| (max_m g (Gamma_m - kappa[m, m]), unless rounding
    absorbed a column's outflow into its self-jump rate) and the
    column-stochastic P = I + g A / lam, exp(g A) = sum_k w_k P^k with the
    Poisson weights w_k = e^-lam lam^k / k!.  For lam > 1 the sum is taken
    at lam / 2^s, s = ceil(log2 lam), and squared s times.  The weights
    stop at the first one below ``POISSON_TAIL``.  The sum is taken by
    Horner's rule, whose column sums stay closer to one than a term-by-term
    sum's.
    Every term is entrywise nonnegative, so the map is.  lam = 0 (A = 0)
    gives the identity, exactly.  An array with a negative off-diagonal
    entry, or a non-finite entry in g A, has no stochastic P and goes
    through ``expm``.
    """
    a = g * pop
    d = len(a)
    if not np.isfinite(a).all() or (a[~np.eye(d, dtype=bool)] < 0).any():
        return expm(a)
    lam = float(np.abs(a).max(initial=0.0))
    if lam == 0.0:
        return np.eye(d)
    P = np.eye(d) + a / lam
    squarings = max(math.ceil(math.log2(lam)), 0)
    lam = math.ldexp(lam, -squarings)
    weights = [math.exp(-lam)]
    while weights[-1] >= POISSON_TAIL:
        weights.append(weights[-1] * lam / len(weights))
    out = weights.pop() * np.eye(d)
    diagonal = np.diag_indices(d)
    for weight in reversed(weights):
        out = P @ out
        out[diagonal] += weight
    for _ in range(squarings):
        out = out @ out
    return out


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


def clamp_density_matrix(rho: np.ndarray, context: str = "state") -> tuple[np.ndarray, int]:
    """Validate and clamp tiny negative eigenvalues to zero.

    Eigenvalues in (-1e-10, 0) are zeroed and the state renormalized; the
    number of clamped eigenvalues is returned.  Anything below -1e-10
    raises, and so does a non-finite entry.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise InvariantViolation(f"{context}: state has non-finite entries")
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


# The batched state checks take this many states at a time, so that their
# copies stay small next to the stack.
_BLOCK = 256


def block_min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each matrix in a stack.

    The matrices of the (n, d, d) stack are block-diagonal over the
    connected components of its nonzero off-diagonal pattern: the closed
    classes of that pattern, symmetrized.  Each component size takes one
    batched ``eigvalsh`` of the blocks' Hermitian parts per ``_BLOCK``
    states, so only that many states are copied at once; a singleton's
    eigenvalue is the real part of its diagonal entry, exactly.
    """
    n = len(stack)
    coupled = np.any(stack != 0, axis=0)
    by_size: dict[int, list[np.ndarray]] = {}
    for members in _closed_classes(coupled | coupled.T):
        by_size.setdefault(len(members), []).append(members)
    lows = np.full(n, np.inf)
    for size, components in by_size.items():
        idx = np.array(components)
        for start in range(0, n, _BLOCK):
            chunk, low = stack[start : start + _BLOCK], lows[start : start + _BLOCK]
            if size == 1:
                vals = chunk[:, idx, idx].real
            else:
                blocks = chunk[:, idx[:, :, None], idx[:, None, :]]
                vals = np.linalg.eigvalsh(hermitian_part(blocks))
            np.minimum(low, vals.min(axis=(1, 2)), out=low)
    return lows


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
    _min_eigenvalues: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 3 or states.shape[1] != states.shape[2]:
            raise ValueError(f"states must stack square matrices, got shape {states.shape}")
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
        """``block_min_eigenvalues`` of the states, read-only; kept after the first read."""
        if self._min_eigenvalues is None:
            self._min_eigenvalues = block_min_eigenvalues(self.states)
        self._min_eigenvalues.flags.writeable = False
        return self._min_eigenvalues


def _stepped(step, rho0: np.ndarray, steps: int, g: float, context: str) -> Trajectory:
    """rho0 and the ``steps`` states after it; ``step(k, previous, out)`` writes state k.

    All states are stepped, each from the one before it, and stored as
    stepped, then checked in one batch: Hermiticity (a non-finite entry
    fails it), trace and the smallest eigenvalue (one
    ``block_min_eigenvalues`` call).  The states that fail a check or have a
    negative eigenvalue go through ``clamp_density_matrix`` in step order,
    as ``"initial state"`` or ``"{context} {k}"``; it raises at the first
    invalid one.  A clamp, the only write to a stored state, replaces a
    state after rho0; with none, the minima are kept.
    """
    states = np.empty((steps + 1,) + np.shape(rho0), dtype=complex)
    states[0] = rho0
    herm = np.empty(steps + 1)
    # A map that leaves the valid region (negative rates, say) can make the states
    # after the first invalid one overflow; they are never reported, so neither is that.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            step(k, states[k - 1], states[k])
        for start in range(0, steps + 1, _BLOCK):
            chunk, defect = states[start : start + _BLOCK], herm[start : start + _BLOCK]
            defect[:] = np.abs(chunk - np.swapaxes(chunk, 1, 2).conj()).max(axis=(1, 2))
        trace_defect = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    valid = (herm <= HERMITICITY_TOL) & (trace_defect <= TRACE_TOL)
    checked = np.append(valid, False).argmin()  # the first invalid state, or steps + 1
    lows = block_min_eigenvalues(states[:checked])
    clamp_total = 0
    # The states with a negative eigenvalue, then the first invalid one.
    for k in np.flatnonzero(np.append(lows < 0, checked <= steps)):
        rho, clamped = clamp_density_matrix(states[k], f"{context} {k}" if k else "initial state")
        if k and clamped:
            clamp_total += clamped
            states[k] = rho
    traj = Trajectory(states, g=g, clamped=clamp_total)
    traj._min_eigenvalues = None if clamp_total else lows
    return traj


def evolve_continuous(L: Superoperator, rho0: np.ndarray, t: float) -> np.ndarray:
    """exp(t L) applied to rho0: one step of ``_stepped``, none at t = 0."""
    if L.kind != "generator":
        raise ValueError("evolve_continuous needs a generator")

    def step(k, previous, out):
        out[...] = unvec(expm(t * L.matrix) @ vec(previous), L.dim)

    return _stepped(step, rho0, int(t != 0.0), t, f"evolution to t={t}, step").states[-1]


def _kernel_projector(L: Superoperator) -> tuple[np.ndarray, int, bool]:
    """Projector P onto ker L along the range of L, dim ker L, and whether
    a nonzero eigenvalue of L has a real part above -``ZERO_RATE_TOL`` ||L||.

    dim ker L is k, the number of eigenvalues within ``ZERO_RATE_TOL`` ||L||
    of 0 (the singular values of a non-normal L can lie far below its slow
    rates).  With R and Q the k right and left singular vectors of the
    smallest singular values, P = R (Q^H R)^-1 Q^H.  Exactly k singular
    values must be that small too, or the zero eigenvalue is not semisimple.
    """
    if not np.isfinite(L.matrix).all():
        raise InvariantViolation("generator has non-finite entries")
    u, s, vh = np.linalg.svd(L.matrix)
    zero_rate = ZERO_RATE_TOL * (s[0] or 1.0)
    eigenvalues = np.linalg.eigvals(L.matrix)
    zero = np.abs(eigenvalues) <= zero_rate
    k, nullity = int(zero.sum()), int(np.sum(s <= zero_rate))
    if k == 0:
        raise EmptyKernelError("generator has no eigenvalue within 1e-12 ||L|| of 0")
    if nullity != k:
        raise InvariantViolation(
            f"zero eigenvalue of the generator is not semisimple: {k} eigenvalue(s), "
            f"{nullity} singular value(s) within 1e-12 ||L|| of 0"
        )
    R, Qh = vh[-k:].conj().T, u[:, -k:].conj().T
    return R @ np.linalg.solve(Qh @ R, Qh), k, bool(np.any(~zero & (eigenvalues.real > -zero_rate)))


def limit_channel(L: Superoperator) -> Superoperator:
    """Large-time channel lim exp(t L), the projector of ``_kernel_projector``.

    It exists only if every nonzero eigenvalue decays; one with a zero real
    part (an oscillation, as of a purely Hamiltonian L) raises.
    """
    if L.kind != "generator":
        raise ValueError("limit_channel needs a generator")
    P, _, undamped = _kernel_projector(L)
    if undamped:
        raise InvariantViolation("no large-time limit: a nonzero eigenvalue does not decay")
    return Superoperator(P, "channel")


def steady_states(L: Superoperator) -> list[np.ndarray]:
    """dim ker L steady states, the kernel projections P rho of probe states.

    The probes are I/d, each |k><k|, then for k < l (|k> + |l>)(<k| + <l|)/2
    and (|k> + i|l>)(<k| - i<l|)/2.  They span all matrices, so their images
    span ker L; an image is kept, in that order, when its distance from the
    span of the kept ones, orthogonalized against them twice, exceeds
    ``SPAN_TOL`` times its norm.  Exactly dim ker L are kept, or it raises.
    The first state is the one that I/d relaxes to.  Each passes
    ``clamp_density_matrix`` and ||L rho|| <= 1e-10.
    """
    if L.kind != "generator":
        raise ValueError("steady_states needs a generator")
    d = L.dim
    P, dim_ker, _ = _kernel_projector(L)
    eye = np.eye(d)
    pure = [eye[k] for k in range(d)] + [
        (eye[k] + phase * eye[l]) / math.sqrt(2)
        for k in range(d) for l in range(k + 1, d) for phase in (1, 1j)
    ]
    images = P @ np.stack([vec(eye / d)] + [vec(np.outer(psi, psi.conj())) for psi in pure], axis=1)
    basis = np.zeros((d * d, 0), dtype=complex)
    states = []
    for image in images.T:
        residual = image - basis @ (basis.conj().T @ image)
        residual -= basis @ (basis.conj().T @ residual)
        distance = np.linalg.norm(residual)
        if distance > SPAN_TOL * np.linalg.norm(image):
            basis = np.column_stack([basis, residual / distance])
            rho, _ = clamp_density_matrix(unvec(image, d), "steady state")
            defect = float(np.max(np.abs(L.apply(rho))))
            if defect > 1e-10:
                raise EmptyKernelError(f"steady state fails ||L rho|| <= 1e-10 ({defect:.2e})")
            states.append(rho)
    if len(states) != dim_ker:
        raise InvariantViolation(f"{len(states)} steady states for a kernel of dimension {dim_ker}")
    return states


def _closed_classes(jumps: np.ndarray) -> list[np.ndarray]:
    """Closed classes of the jump graph, each sorted, ordered by first state.

    ``jumps[n, m]`` marks a jump m -> n.  Reachability is the boolean
    transitive closure, by repeated squaring; a state is recurrent when
    every state it reaches reaches it back, and its class is then the set
    of states it reaches.
    """
    d = jumps.shape[0]
    reach = jumps.T | np.eye(d, dtype=bool)  # reach[m, n]: m reaches n
    while True:
        step = reach.astype(np.int64)
        wider = (step @ step) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    recurrent = np.all(reach <= reach.T, axis=1)
    classes, seen = [], np.zeros(d, dtype=bool)
    for m in np.flatnonzero(recurrent):
        if not seen[m]:
            members = np.flatnonzero(reach[m])
            seen[members] = True
            classes.append(members)
    return classes


def kappa_steady_states(kappa) -> list[np.ndarray]:
    """One steady state of sum kappa[n,m] D_{|n><m|} per closed class.

    The populations follow the rate matrix A = kappa - diag(Gamma) (see
    ``_rates``), and a closed class of its jump graph (edge m -> n when
    kappa[n, m] > 0, n != m) carries exactly one invariant distribution:
    the null vector of A restricted to the class, found by an SVD of that
    d_C x d_C block.  The returned states are diagonal, one per closed
    class, ordered by the class's smallest basis index.  They span the
    null space of A; stationary coherences, which exist only between
    states no jump leaves, are not returned.  No D^2 x D^2 matrix is
    built.  Each state is checked for unit trace, nonnegativity (entries
    above -1e-10 are clamped to zero and the state renormalized) and
    ||A p|| <= 1e-10.
    """
    pop, _ = _rates(kappa)
    d = pop.shape[0]
    jumps = pop > 0
    np.fill_diagonal(jumps, False)
    states = []
    for members in _closed_classes(jumps):
        null = np.linalg.svd(pop[np.ix_(members, members)])[2][-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            block = null / null.sum()
        if not np.all(np.isfinite(block)) or block.min() < -POSITIVITY_TOL:
            raise EmptyKernelError(
                f"class {members.tolist()} has no nonnegative null vector"
            )
        block = np.clip(block, 0.0, None)
        p = np.zeros(d)
        p[members] = block / block.sum()
        residual = float(np.max(np.abs(pop @ p)))
        if abs(p.sum() - 1.0) > TRACE_TOL or residual > 1e-10:
            raise EmptyKernelError(
                f"steady state of class {members.tolist()} fails "
                f"||A p|| <= 1e-10 (residual {residual:.2e})"
            )
        states.append(np.diag(p).astype(complex))
    return states


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
            if leak > INVARIANCE_TOL:
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

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError("g must be positive")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")


def evolve_effective(kappa, cfg: EvolutionConfig, rho0: np.ndarray) -> Trajectory:
    """Iterate rho -> exp(g sum kappa D) rho for cfg.steps steps.

    The generator is block-diagonal in the split populations/coherences,
    so the step map is applied exactly without forming the D^2 x D^2
    matrix: the diagonal goes through the d x d map exp(g A) of the
    population rate matrix, uniformized by ``_population_step`` (entrywise
    nonnegative, and no ``scipy.linalg`` for nonnegative finite rates), and
    each off-diagonal entry rho_ab is scaled by exp(-g (Gamma_a + Gamma_b)
    / 2).  Both are computed once and reused.
    The map never creates coherence, so every state is block-diagonal over
    the connected components of rho0's off-diagonal support, and
    ``_stepped`` checks it with one small ``eigvalsh`` per block.
    """
    pop, decay = _rates(kappa)
    if np.shape(rho0) != pop.shape:
        raise ValueError(
            f"initial state has shape {np.shape(rho0)}, kappa has shape {pop.shape}"
        )
    # Huge or negative raw rates overflow here; the first state they spoil
    # raises in ``_stepped``.
    with np.errstate(over="ignore", invalid="ignore"):
        pop_step = _population_step(pop, cfg.g)
        mask = np.exp(-cfg.g * decay)

    def step(k, state, out):
        populations = pop_step @ state.diagonal()
        np.multiply(mask, state, out=out)
        np.fill_diagonal(out, populations)

    return _stepped(step, rho0, cfg.steps, cfg.g, "step")


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
    applies exp(sum rate D_R) once.  Step k of ``_stepped`` is the
    interval that ends at schedule[k - 1], then its kick.
    """
    times = [float(t) for t in schedule]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("schedule must be strictly increasing")
    dampers = [(float(r), np.asarray(R, dtype=complex)) for r, R in dampers]
    shapes = [R.shape for _, R in dampers]
    interval_channel = hamiltonian = kick = None
    if isinstance(coherent, Superoperator):
        if coherent.kind != "channel":
            raise ValueError("a Superoperator coherent part must be a channel")
        interval_channel = coherent
        shapes.append((coherent.dim, coherent.dim))
    elif coherent is not None:
        hamiltonian = np.asarray(coherent, dtype=complex)
        if np.max(np.abs(hamiltonian - hamiltonian.conj().T)) > HERMITICITY_TOL:
            raise InvariantViolation("coherent generator must be Hermitian")
        shapes.append(hamiltonian.shape)
        levels, modes = np.linalg.eigh(hamiltonian)
    for shape in shapes:
        if np.shape(rho0) != shape:
            raise ValueError(f"initial state has shape {np.shape(rho0)}, the map acts on {shape}")
    if dampers:
        generator_sum = sum(rate * dissipator_matrix(R) for rate, R in dampers)
        kick = Superoperator(expm(generator_sum), "channel")
    for name, channel in (("coherent channel", interval_channel), ("damping kick", kick)):
        defect = 0.0 if channel is None else channel.trace_defect()
        if defect > TRACE_TOL:
            raise InvariantViolation(f"{name} is not trace preserving: {defect}")
    intervals = np.diff(times, prepend=0.0)

    def step(k, rho, out):
        if interval_channel is not None:
            rho = interval_channel.apply(rho)
        elif hamiltonian is not None:
            U = (modes * np.exp(-1j * intervals[k - 1] * levels)) @ modes.conj().T
            rho = U @ rho @ U.conj().T
        if kick is not None:
            rho = kick.apply(rho)
        out[...] = rho

    return _stepped(step, rho0, len(times), times[0] if times else 1.0, "kick")
