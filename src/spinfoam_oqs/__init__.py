"""Reduced open-quantum-system dynamics of spin-network states.

Transition amplitudes from a 3D recoupling backend (or a large-spin
analytic vertex) feed normalized damping rates of an effective master
equation; trajectories, steady states, and thermodynamic observables of
the resulting relaxation are evaluated and exported.
"""

__version__ = "0.1.0"

from .recoupling import Spin, as_spin, triangle_ok, wigner6j
from .spin_network import (
    ZERO,
    Link,
    SpinNetwork,
    SubSpinNetwork,
    extract_sub,
    union,
    validate,
)
from .amplitudes import (
    AsymptoticParams,
    BoundaryState,
    Foam2Complex,
    FoamProvider,
    KappaMatrix,
    TiedGaussianBath,
    TransitionMatrix,
    asymptotic_vertex,
    kappa_from_W,
    pr_transition,
    pr_vertex,
    transition_matrix,
    two_level_rho11,
)
from .lindblad import (
    EvolutionConfig,
    KrausSet,
    Superoperator,
    Trajectory,
    adiabatic_eliminate,
    dissipator,
    evolve_continuous,
    evolve_effective,
    evolve_kicked,
    generator,
    kappa_generator,
    kraus_from_map,
    limit_channel,
    steady_states,
)
from .observables import (
    EnergySpectrum,
    ObservableSeries,
    area,
    energy_release,
    spectral_temperature,
    thermal_flow_check,
)
from .qed_reference import DickeConfig, compare_curves, dicke_cascade
from .bathfit import FitProblem, cost, fit_bath, sample_cost_distribution
