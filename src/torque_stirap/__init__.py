"""Torque-equation dynamics toolkit.

Simulates dX/dt = W(t) x X for pulsed two-component drive fields, together
with the resonant three-state quantum solver it is equivalent to, adapters
for the classical realizations (charged-particle deflection in a magnetic
field, magnetization steering, Coriolis deflection), scan drivers, and a
batch CLI.
"""

__version__ = "0.1.0"

from .analysis import (
    EfficiencyReport,
    ScanResult,
    area_scan,
    delay_scan,
    transfer_efficiency,
)
from .dynamics import (
    AngularVelocityField,
    IntegrationError,
    Trajectory,
    integrate,
    time_grid,
)
from .pulses import (
    PulseEnvelope,
    PulseSchedule,
    default_window,
    evaluate_envelope,
    mixing_angle,
    refine_quadrature,
    rms_area,
)
from .quantum import (
    AdiabaticBasis,
    QuantumTrajectory,
    RwaHamiltonian,
    adiabatic_basis,
    bloch_map,
    evolve_schrodinger,
    intuitive_populations,
)
from .systems import (
    AdiabaticityMargin,
    SystemMapping,
    lorentz_adiabaticity_bound,
    to_angular_velocity,
)

__all__ = [
    "__version__",
    "AdiabaticBasis",
    "AdiabaticityMargin",
    "AngularVelocityField",
    "EfficiencyReport",
    "IntegrationError",
    "PulseEnvelope",
    "PulseSchedule",
    "QuantumTrajectory",
    "RwaHamiltonian",
    "ScanResult",
    "SystemMapping",
    "Trajectory",
    "adiabatic_basis",
    "area_scan",
    "bloch_map",
    "default_window",
    "delay_scan",
    "evaluate_envelope",
    "evolve_schrodinger",
    "integrate",
    "intuitive_populations",
    "lorentz_adiabaticity_bound",
    "mixing_angle",
    "refine_quadrature",
    "rms_area",
    "time_grid",
    "to_angular_velocity",
    "transfer_efficiency",
]
