"""Area, energy, release, spectral temperature, and thermal-flow tests."""

import math

import numpy as np
import pytest

from spinfoam_oqs.lindblad import (
    EvolutionConfig,
    Trajectory,
    evolve_effective,
    pure_state,
    state_from_amplitudes,
)
from spinfoam_oqs.amplitudes import KappaMatrix
from spinfoam_oqs.observables import (
    EnergySpectrum,
    ObservableSeries,
    UndefinedTemperatureError,
    area,
    energy_expectations,
    energy_operator,
    energy_release,
    gibbs_state,
    spectral_temperature,
    temperature_series,
    thermal_flow_check,
)
from spinfoam_oqs.recoupling import Spin


def test_area_zero_spin():
    assert area(0) == 0.0


def test_area_half_spin_closed_form():
    assert area("1/2", gamma_immirzi=1.0) == pytest.approx(4 * math.pi * math.sqrt(3))


def test_area_monotone():
    values = [area(Spin(t)) for t in range(0, 41)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_energy_operator_single_level():
    spec = EnergySpectrum((Spin(2),), scale=2.0)
    E = energy_operator(spec)
    assert E.shape == (1, 1)
    assert E[0, 0].real == pytest.approx(2.0 * math.sqrt(2.0))


def test_energy_operator_diagonal():
    spec = EnergySpectrum((Spin(0), Spin(2), Spin(4)))
    E = energy_operator(spec)
    assert np.allclose(E, np.diag(np.diag(E)))


def test_energy_operator_maximally_mixed_expectation():
    spec = EnergySpectrum((Spin(0), Spin(2), Spin(4)))
    rho = np.eye(3, dtype=complex) / 3
    assert np.trace(rho @ energy_operator(spec)).real == pytest.approx(
        spec.energies().mean()
    )


def _decay_trajectory(k12=0.6, g=0.4, steps=80):
    kappa = KappaMatrix(
        ("1", "2"), np.array([[1.0, k12], [0.0, 1.0 - k12]]), "over_n"
    )
    return evolve_effective(kappa, EvolutionConfig(g=g, steps=steps), pure_state(2, 1))


def test_energy_release_constant_trajectory_is_zero():
    spec = EnergySpectrum((Spin(1), Spin(2)))
    rho = np.diag([0.5, 0.5]).astype(complex)
    traj = Trajectory([rho.copy() for _ in range(5)], g=1.0)
    series = energy_release(traj, spec)
    assert all(v == 0.0 for v in series.values)


def test_energy_release_decay_non_negative_and_telescopes():
    spec = EnergySpectrum((Spin(1), Spin(2)))
    traj = _decay_trajectory(steps=300)
    series = energy_release(traj, spec)
    assert all(v >= 0.0 for v in series.values)
    total = sum(series.values) * traj.g
    drop = spec.energies()[1] - spec.energies()[0]
    assert total == pytest.approx(drop, abs=1e-8)


def test_energy_release_inverted_process_non_positive():
    kappa = KappaMatrix(
        ("1", "2"), np.array([[1.0 - 0.5, 0.0], [0.5, 1.0]]), "over_n"
    )
    traj = evolve_effective(kappa, EvolutionConfig(g=0.4, steps=50), pure_state(2, 0))
    spec = EnergySpectrum((Spin(1), Spin(2)))
    series = energy_release(traj, spec)
    assert all(v <= 0.0 for v in series.values)


def test_telescoping_identity_exact():
    spec = EnergySpectrum((Spin(1), Spin(2)))
    traj = _decay_trajectory(steps=40)
    series = energy_release(traj, spec)
    expectations = energy_expectations(traj, spec)
    assert sum(series.values) * traj.g == pytest.approx(
        expectations[0] - expectations[-1], abs=1e-10
    )


# --- spectral temperature ---------------------------------------------------------

def test_gibbs_recovery_two_level():
    spec = EnergySpectrum((Spin(1), Spin(3)))
    for beta0 in (-2.0, -0.5, 0.3, 1.7):
        rho = gibbs_state(spec, beta0)
        beta, temp = spectral_temperature(rho, spec)
        assert beta == pytest.approx(beta0, abs=1e-10)
        if beta0 != 0:
            assert temp == pytest.approx(1.0 / beta0, abs=1e-9)


def test_equal_populations_infinite_temperature():
    spec = EnergySpectrum((Spin(1), Spin(3)))
    rho = np.diag([0.5, 0.5]).astype(complex)
    beta, temp = spectral_temperature(rho, spec)
    assert beta == 0.0
    assert math.isinf(temp)


def test_population_inversion_negative_temperature():
    spec = EnergySpectrum((Spin(1), Spin(3)))
    rho = np.diag([0.2, 0.8]).astype(complex)
    beta, temp = spectral_temperature(rho, spec)
    assert beta < 0
    assert temp < 0


def test_spectral_temperature_rejects_nondiagonal():
    spec = EnergySpectrum((Spin(1), Spin(3)))
    rho = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        spectral_temperature(rho, spec)


def test_spectral_temperature_zero_population_errors_by_default():
    spec = EnergySpectrum((Spin(1), Spin(3)))
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(UndefinedTemperatureError):
        spectral_temperature(rho, spec)
    # explicit floor is opt-in regularization
    beta, _ = spectral_temperature(rho, spec, positivity_floor=1e-300)
    assert beta > 0


def test_spectral_temperature_single_level_errors():
    spec = EnergySpectrum((Spin(2),))
    with pytest.raises(UndefinedTemperatureError):
        spectral_temperature(np.eye(1, dtype=complex), spec)


def test_gibbs_consistency_multi_level():
    # Gibbs states have constant log-linear slope, recovered exactly
    spec = EnergySpectrum((Spin(0), Spin(2), Spin(4), Spin(6)))
    for beta0 in (0.4, 1.1):
        rho = gibbs_state(spec, beta0)
        beta, _ = spectral_temperature(rho, spec)
        assert beta == pytest.approx(beta0, abs=1e-6)


def test_temperature_series_skips_undefined_steps():
    traj = _decay_trajectory(steps=30)
    spec = EnergySpectrum((Spin(1), Spin(2)))
    series = temperature_series(traj, spec)
    # the pure initial state is skipped, later steps are defined
    assert series.steps[0] >= 1
    assert len(series.steps) >= 25


# --- thermal flow -------------------------------------------------------------------

@pytest.mark.parametrize(
    "observable", [temperature_series, energy_expectations, energy_release]
)
def test_trajectory_and_spectrum_dimensions_must_match(observable):
    # 3x3 states against a 2-level spectrum: an error naming both sizes,
    # not an empty temperature series or a numpy matmul error.
    traj = Trajectory([np.eye(3, dtype=complex) / 3] * 2)
    spec = EnergySpectrum((Spin(1), Spin(2)))
    with pytest.raises(ValueError, match="dimension 3.*2 levels"):
        observable(traj, spec)


def test_thermal_flow_residuals_vanish_full_rank():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    for s in (0.3, 1.0, 5.0):
        flow, comm = thermal_flow_check(rho, s)
        assert flow <= 1e-10
        assert comm <= 1e-10


def test_thermal_flow_maximally_mixed():
    rho = np.eye(3, dtype=complex) / 3
    flow, comm = thermal_flow_check(rho, 2.0)
    assert flow <= 1e-12 and comm <= 1e-12


def test_thermal_flow_rank_deficient_support_restriction():
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    flow, comm = thermal_flow_check(rho, 1.0)
    assert flow <= 1e-10 and comm <= 1e-10


def test_thermal_flow_cannot_generate_dissipative_step():
    traj = _decay_trajectory(steps=20)
    moved = 0
    for k in range(traj.steps):
        flow, _ = thermal_flow_check(traj.states[k + 1], s=1.3)
        assert flow <= 1e-10
        if np.linalg.norm(traj.states[k + 1] - traj.states[k]) > 1e-4:
            moved += 1
    assert moved > 10


def test_observable_series_validates_steps():
    with pytest.raises(ValueError):
        ObservableSeries((0, 0), (1.0, 2.0))
    with pytest.raises(ValueError):
        ObservableSeries((0, 1), (1.0,))


def test_steady_state_temperature_matches_gibbs_fit():
    # two-level steady populations are always log-linear in the energies,
    # so the spectral estimator must agree with the fitted Gibbs slope
    kappa = KappaMatrix(
        ("1", "2"), np.array([[0.8, 0.6], [0.2, 0.4]]), "over_n"
    )
    traj = evolve_effective(
        kappa, EvolutionConfig(g=0.5, steps=2000), pure_state(2, 1)
    )
    spec = EnergySpectrum((Spin(1), Spin(2)))
    rho = traj.states[-1]
    beta, _ = spectral_temperature(rho, spec)
    p = np.diag(rho).real
    E = spec.energies()
    beta_fit = -math.log(p[1] / p[0]) / (E[1] - E[0])
    assert beta == pytest.approx(beta_fit, abs=1e-6)


def test_thermal_flow_empty_support_errors():
    with pytest.raises(ValueError):
        thermal_flow_check(np.zeros((2, 2), dtype=complex), 1.0)
