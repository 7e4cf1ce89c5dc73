"""Geometric and thermodynamic observables of reduced trajectories.

Energies are tied to areas: a level labeled by spin j carries
E = scale * sqrt(j(j+1)) in Planck units.  The release series uses the
forward difference over the stepped trajectory, so its weighted sum
telescopes exactly to the total energy drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .lindblad import Trajectory
from .recoupling import Spin, as_spin


# Largest off-diagonal entry for which a state counts as diagonal in the
# energy basis, so that its spectral temperature is defined.
DIAG_TOL = 1e-8
# Eigenvalues at or below this lie off a state's support (thermal_flow_check).
SUPPORT_TOL = 1e-12


class UndefinedTemperatureError(ValueError):
    """Spectral temperature needs strictly positive neighboring populations."""


def area(j, gamma_immirzi: float = 1.0) -> float:
    """Area eigenvalue 8 pi gamma sqrt(j(j+1)) in Planck units."""
    s = as_spin(j)
    jj = s.twice_j * (s.twice_j + 2) / 4.0  # j(j+1) computed exactly from 2j
    return 8.0 * math.pi * gamma_immirzi * math.sqrt(jj)


@dataclass(frozen=True)
class EnergySpectrum:
    """Level energies scale*sqrt(j(j+1)) for a list of distinct level spins."""

    spins: tuple[Spin, ...]
    scale: float = 1.0

    def __post_init__(self):
        spins = tuple(as_spin(s) for s in self.spins)
        if len(set(spins)) != len(spins):
            raise ValueError("level spins must be distinct")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"energy scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "spins", spins)

    @property
    def dim(self) -> int:
        return len(self.spins)

    def energies(self) -> np.ndarray:
        return np.array(
            [
                self.scale * math.sqrt(s.twice_j * (s.twice_j + 2) / 4.0)
                for s in self.spins
            ]
        )


@dataclass(frozen=True)
class ObservableSeries:
    """(step, value) pairs with strictly increasing steps."""

    steps: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.steps) != len(self.values):
            raise ValueError("steps and values must align")
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("steps must be strictly increasing")


def _check_dimension(traj: Trajectory, spec: EnergySpectrum) -> None:
    if traj.dim != spec.dim:
        raise ValueError(
            f"trajectory states have dimension {traj.dim}, "
            f"the spectrum has {spec.dim} levels"
        )


def energy_expectations(traj: Trajectory, spec: EnergySpectrum) -> np.ndarray:
    """<E>_k = tr(rho_k E) for every state of the trajectory.

    E is diagonal, so the trace is the sum of rho_ii E_i, taken as a
    complex sum like ``np.trace(rho @ E)``; the values agree bit for bit.
    """
    _check_dimension(traj, spec)
    weighted = traj.states.diagonal(axis1=1, axis2=2) * spec.energies()
    return weighted.sum(axis=1).real


def energy_release(
    traj: Trajectory,
    spec: EnergySpectrum,
    energies: np.ndarray | None = None,
) -> ObservableSeries:
    """Forward-difference release S_k = (<E>_k - <E>_{k+1}) / g, g the step weight.

    ``energies`` are the trajectory's ``energy_expectations`` when the
    caller already has them.
    """
    if traj.steps < 1:
        raise ValueError("trajectory needs at least two states")
    if energies is None:
        expect = energy_expectations(traj, spec)
    else:
        expect = np.asarray(energies, dtype=float)
        if expect.shape != (traj.steps + 1,):
            raise ValueError(
                f"{expect.shape} energies given for {traj.steps + 1} states"
            )
    values = (expect[:-1] - expect[1:]) / traj.g
    return ObservableSeries(tuple(range(traj.steps)), tuple(values.tolist()))


def _spectral_betas(
    states: np.ndarray, spec: EnergySpectrum, strict: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral inverse temperatures over a (k, N, N) stack of states.

    Returns the indices of the states where the estimator is defined and
    their inverse temperatures; with ``strict`` set, the first undefined
    state raises instead.  The estimator runs in the order of the
    single-state formula and keeps ``math.log`` (``np.log`` can differ
    from it in the last ulp), so each value is the one the state would
    give on its own.  Where the ratio of two neighbouring populations
    overflows or underflows, its log is the difference of their logs, so
    a subnormal population still gives a finite value.
    """
    N = spec.dim
    pops = states.diagonal(axis1=1, axis2=2).real
    off = np.abs(states)
    off[:, range(N), range(N)] = 0.0
    off_max = off.max(axis=(1, 2))
    prefactor = 1.0 - (pops[:, 0] + pops[:, -1]) / 2.0
    defined = ~(off_max > DIAG_TOL) & ~np.any(pops <= 0, axis=1) & (prefactor != 0)
    if N == 1:
        defined[:] = False
    if strict and not defined.all():
        k = int(np.argmin(defined))
        if N == 1:
            raise UndefinedTemperatureError("a single level has no temperature")
        if off_max[k] > DIAG_TOL:
            raise ValueError(
                f"state is not diagonal in the energy basis (off-diag {off_max[k]:.2e})"
            )
        if np.any(pops[k] <= 0):
            bad = int(np.argmin(pops[k]))
            raise UndefinedTemperatureError(
                f"population of level {bad} is {pops[k, bad]:.3e}; temperature undefined"
            )
        raise UndefinedTemperatureError("degenerate edge populations (N=2 Gibbs trap)")
    steps = np.flatnonzero(defined)
    pops, prefactor = pops[steps], prefactor[steps]
    with np.errstate(over="ignore", under="ignore"):
        ratios = pops[:, 1:] / pops[:, :-1]
    # A ratio of populations that overflows or underflows to zero (one of
    # them subnormal) takes its log as a difference of logs instead.
    lost = ~np.isfinite(ratios) | (ratios == 0)
    logs = np.array(list(map(math.log, np.where(lost, 1.0, ratios).ravel().tolist())))
    logs = logs.reshape(len(steps), N - 1)
    for k, i in zip(*np.nonzero(lost)):
        logs[k, i] = math.log(pops[k, i + 1]) - math.log(pops[k, i])
    E = spec.energies()
    acc = np.zeros(len(steps))
    for i in range(1, N):
        weight = (pops[:, i] + pops[:, i - 1]) / 2.0
        acc = acc + weight * logs[:, i - 1] / (E[i] - E[i - 1])
    return steps, -acc / prefactor


def spectral_temperature(rho: np.ndarray, spec: EnergySpectrum) -> tuple[float, float]:
    """Spectral inverse temperature of a (near-)diagonal state.

    Returns (1/k_B T, T).  Populations are read from the diagonal after
    checking that off-diagonal elements are below ``DIAG_TOL``.  A zero or
    negative population makes the estimator undefined and raises; no floor
    regularizes it, since that would hide non-thermal structure.
    """
    rho = np.asarray(rho, dtype=complex)
    N = spec.dim
    if rho.shape != (N, N):
        raise ValueError("state dimension does not match the spectrum")
    _, betas = _spectral_betas(rho[None], spec, strict=True)
    beta = betas[0]
    temperature = math.inf if beta == 0 else 1.0 / beta
    return beta, temperature


def temperature_series(traj: Trajectory, spec: EnergySpectrum) -> ObservableSeries:
    """Spectral inverse temperature along a trajectory.

    Steps where the estimator is undefined (zero populations, usually the
    pure initial state, or coherences above the diagonal tolerance) are
    skipped; ``spectral_temperature`` raises on each of them.  The
    estimator runs over the whole stack at once.
    """
    _check_dimension(traj, spec)
    steps, betas = _spectral_betas(traj.states, spec, strict=False)
    return ObservableSeries(tuple(steps.tolist()), tuple(betas.tolist()))


def thermal_flow_check(rho: np.ndarray, s: float) -> tuple[float, float]:
    """Residuals of the modular flow generated by -ln(rho).

    Returns (flow residual, commutator norm): the norm of
    e^{isK} rho e^{-isK} - rho with K = -ln(rho) on the support of rho,
    and the norm of [K, rho].  Both vanish because K is a function of rho;
    a dissipative step can therefore never be generated by this flow.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = (rho + rho.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    keep = vals > SUPPORT_TOL
    if not np.any(keep):
        raise ValueError("state has numerically empty support")
    logs = np.zeros_like(vals)
    logs[keep] = -np.log(vals[keep])
    K = (vecs * logs) @ vecs.conj().T
    flow = (vecs * np.exp(1j * s * logs)) @ vecs.conj().T  # e^{isK} from K's eigenbasis
    flow_residual = float(np.linalg.norm(flow @ rho @ flow.conj().T - rho))
    commutator = float(np.linalg.norm(K @ rho - rho @ K))
    return flow_residual, commutator


def gibbs_state(spec: EnergySpectrum, beta: float) -> np.ndarray:
    """Thermal state exp(-beta E)/Z in the level basis."""
    w = np.exp(-beta * spec.energies())
    return np.diag(w / w.sum()).astype(complex)
