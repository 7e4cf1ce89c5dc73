"""Collective decay of N qubits through a strongly damped cavity.

In the bad-cavity regime the cavity is eliminated and the qubits undergo
collective decay at rate 4 gamma^2 / kappa.  The full interacting model
(collective spin coupled to a truncated cavity mode) is kept alongside the
effective one so the elimination itself can be validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .lindblad import Trajectory, _stepped, expm, generator, pure_state, unvec, vec


@dataclass(frozen=True)
class DickeConfig:
    """Collective-decay setup: N qubits, cavity damping over coupling."""

    n_qubits: int
    kappa_over_gamma: float = 40.0
    t_max: float = 40.0
    n_times: int = 400

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if self.kappa_over_gamma <= 0:
            raise ValueError("kappa/gamma must be positive")
        if self.t_max <= 0 or self.n_times < 2:
            raise ValueError("time grid must be increasing with >= 2 points")

    @property
    def gamma(self) -> float:
        return 1.0

    @property
    def kappa(self) -> float:
        return self.kappa_over_gamma * self.gamma

    @property
    def gamma_eff(self) -> float:
        """Collective decay rate 4 gamma^2 / kappa of the eliminated cavity."""
        return 4.0 * self.gamma**2 / self.kappa

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_times)


def ladder_dimension(n_qubits: int) -> int:
    return n_qubits + 1


def m_values(n_qubits: int) -> np.ndarray:
    """Ladder ordering: index 0 is |J, J> (most excited), last is |J, -J>."""
    J = n_qubits / 2.0
    return J - np.arange(n_qubits + 1)

def collective_lowering(n_qubits: int) -> np.ndarray:
    J = n_qubits / 2.0
    dim = ladder_dimension(n_qubits)
    S = np.zeros((dim, dim), dtype=complex)
    ms = m_values(n_qubits)
    for k in range(dim - 1):
        M = ms[k]
        S[k + 1, k] = math.sqrt(J * (J + 1) - M * (M - 1))
    return S


def collective_sz(n_qubits: int) -> np.ndarray:
    return np.diag(m_values(n_qubits)).astype(complex)


def _ladder_index(cfg: DickeConfig, initial_m: float) -> int:
    ms = m_values(cfg.n_qubits)
    hits = np.where(np.isclose(ms, initial_m, atol=1e-12))[0]
    if hits.size != 1:
        raise ValueError(
            f"initial M={initial_m} is outside the symmetric ladder {ms.tolist()}"
        )
    return int(hits[0])


@dataclass(frozen=True)
class CascadeResult:
    """Effective-cascade output: states plus the <Sz> series."""

    trajectory: Trajectory
    times: np.ndarray          # rescaled by the effective damping rate
    sz: np.ndarray

    def release(self) -> tuple[np.ndarray, np.ndarray]:
        """Energy release -d<Sz>/dtau via forward differences."""
        dt = np.diff(self.times)
        vals = -(np.diff(self.sz)) / dt
        return self.times[:-1], vals


def _cascade(cfg: DickeConfig, L, rho, sz_op, context: str) -> CascadeResult:
    """Step rho by expm(dt L) over the config's time grid through ``_stepped``.

    Times in the result are rescaled by the effective damping rate.
    """
    times = cfg.times()
    dt = times[1] - times[0]
    propagator = expm(dt * L.matrix)

    def step(k, previous, out):
        out[...] = unvec(propagator @ vec(previous), L.dim)

    traj = _stepped(step, rho, len(times) - 1, dt, context)
    sz = np.array([np.trace(s @ sz_op).real for s in traj.states])
    return CascadeResult(traj, cfg.gamma_eff * times, sz)


def dicke_cascade(cfg: DickeConfig, initial_m: float | None = None) -> CascadeResult:
    """Integrate the effective collective-decay master equation.

    The state stays inside the symmetric ladder by construction.
    """
    if initial_m is None:
        initial_m = cfg.n_qubits / 2.0
    start = _ladder_index(cfg, initial_m)
    dim = ladder_dimension(cfg.n_qubits)
    L = generator(
        np.zeros((dim, dim)), [(cfg.gamma_eff, collective_lowering(cfg.n_qubits))]
    )
    rho = pure_state(dim, start)
    return _cascade(cfg, L, rho, collective_sz(cfg.n_qubits), "dicke cascade step")


def cavity_cascade(
    cfg: DickeConfig,
    initial_m: float | None = None,
    n_photon_levels: int = 3,
) -> CascadeResult:
    """Full resonant qubits+cavity model with a truncated photon mode.

    Interaction-picture Hamiltonian gamma (a^dag S- + a S+) with cavity
    decay kappa; the qubit part lives in the symmetric ladder.  Serves as
    the independent check of the bad-cavity elimination.
    """
    if initial_m is None:
        initial_m = cfg.n_qubits / 2.0
    start = _ladder_index(cfg, initial_m)
    dim_q = ladder_dimension(cfg.n_qubits)
    dim_c = n_photon_levels
    a = np.zeros((dim_c, dim_c), dtype=complex)
    for n in range(dim_c - 1):
        a[n, n + 1] = math.sqrt(n + 1)
    S_minus = collective_lowering(cfg.n_qubits)
    Sq = np.kron(S_minus, np.eye(dim_c))
    A = np.kron(np.eye(dim_q), a)
    H = cfg.gamma * (A.conj().T @ Sq + A @ Sq.conj().T)
    L = generator(H, [(cfg.kappa, A)])
    rho = np.kron(pure_state(dim_q, start), pure_state(dim_c, 0))
    sz_op = np.kron(collective_sz(cfg.n_qubits), np.eye(dim_c))
    return _cascade(cfg, L, rho, sz_op, "cavity cascade step")


def rescale_by_release_time(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Time axis in units of the release-weighted mean time.

    Dividing by t_mean = int(t y) / int(y) removes the overall damping
    rate, so cascades of the same shape land on the same curve regardless
    of how fast they run.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.trapezoid(y, x)
    if total <= 0:
        raise ValueError("release curve must have positive integral")
    t_mean = np.trapezoid(x * y, x) / total
    if t_mean <= 0:
        raise ValueError("release curve has no positive mean time")
    return x / t_mean, y


def compare_curves(a, b) -> float:
    """L2 distance of two integral-normalized non-negative curves.

    Each curve is an (x, y) pair of arrays.  If the grids differ, the
    second curve is linearly resampled onto the overlap of the two ranges.
    Normalizing by the integral removes any overall scale, so a curve is
    at distance zero from any positive rescaling of itself.
    """
    xa, ya = (np.asarray(v, dtype=float) for v in a)
    xb, yb = (np.asarray(v, dtype=float) for v in b)
    if np.any(ya < 0) or np.any(yb < 0):
        raise ValueError("curves must be non-negative")
    if np.array_equal(xa, xb):
        x, fa, fb = xa, ya, yb
    else:
        lo = max(xa.min(), xb.min())
        hi = min(xa.max(), xb.max())
        if hi <= lo:
            raise ValueError("curves do not overlap in time")
        mask = (xa >= lo) & (xa <= hi)
        x = xa[mask]
        fa = ya[mask]
        fb = np.interp(x, xb, yb)
    norm_a = np.trapezoid(fa, x)
    norm_b = np.trapezoid(fb, x)
    if norm_a <= 0 or norm_b <= 0:
        raise ValueError("curves must have positive integral")
    fa = fa / norm_a
    fb = fb / norm_b
    return float(math.sqrt(np.trapezoid((fa - fb) ** 2, x)))
