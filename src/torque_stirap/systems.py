"""Adapters from physical systems onto the torque kernel.

Each system's equation of motion is rewritten as dX/dt = W(t) x X.  With the
driving fields confined to the xz-plane and the schedule supplying the
unsigned magnitudes p(t) (x-type coupling) and s(t) (z-type coupling), the
adapters produce:

==============  =======================================  =====================
kind            equation of motion                        W(t)
==============  =======================================  =====================
quantum         i dc/dt = H(t) c, H per the three-state   [+p/2, 0, +s/2]
                resonant Hamiltonian, mapped through
                R = (-Re c3, Im c2, Re c1)
lorentz         m dv/dt = -q B x v, B = [-p, 0, s]        [(q/m) p, 0, -(q/m) s]
magnetization   dM/dt = gamma M x H, H = [-p, 0, s]       [gamma p, 0, -gamma s]
coriolis        dv/dt = 2 v x omega, omega = [-p, 0, s]   [2 p, 0, -2 s]
==============  =======================================  =====================

Sign notes.  The quantum row follows from the Schrodinger equation with the
half-Rabi Hamiltonian: writing the Bloch-variable equations out gives
dR1/dt = -(s/2) R2, dR2/dt = (s/2) R1 - (p/2) R3, dR3/dt = (p/2) R2, which is
W x R with W = [p/2, 0, s/2].  The dark projection (p x1 + s x3)/|(p,s)|,
which every trajectory carries as its ``dark_variable`` diagnostic, is then
literally X . W-hat, constant while the state follows the field.  The
classical rows keep their textbook full-strength couplings, so for matched
|W| profiles a classical trajectory equals the quantum one reflected as
(x, y, z) -> (-x, y, z); absolute components coincide exactly.

The coriolis row adopts the same [-x, 0, z] component convention as the
magnetic fields; its coupling is the fixed kinematic factor 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import AngularVelocityField
from .pulses import PulseSchedule, scalar_evaluator

__all__ = [
    "SystemMapping",
    "SYSTEM_KINDS",
    "to_angular_velocity",
    "AdiabaticityMargin",
    "lorentz_adiabaticity_bound",
]

SYSTEM_KINDS = ("quantum", "lorentz", "magnetization", "coriolis")

# Classical rows: W = _SIGN[kind] * coupling * F(t) with F = [-p, 0, s].
# The quantum row does not fit that form (both W components carry the same
# sign) and is built directly as [+p/2, 0, +s/2].
_SIGN = {"lorentz": -1.0, "magnetization": -1.0, "coriolis": -1.0}
_FIXED_COUPLING = {"quantum": 0.5, "coriolis": 2.0}


@dataclass(frozen=True)
class SystemMapping:
    """Which physical system a schedule drives, and with what coupling.

    ``coupling`` is q/m for lorentz (charge over mass) and gamma for
    magnetization (gyromagnetic ratio); it is fixed at 1/2 for quantum and
    at 2 for coriolis and must not be overridden there.
    """

    kind: str
    coupling: float | None = None

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise ValueError(f"unknown system kind {self.kind!r}")
        fixed = _FIXED_COUPLING.get(self.kind)
        if fixed is not None:
            if self.coupling is not None and self.coupling != fixed:
                raise ValueError(f"{self.kind} coupling is fixed at {fixed}")
            object.__setattr__(self, "coupling", fixed)
        elif self.coupling is None:
            object.__setattr__(self, "coupling", 1.0)

    @property
    def sign(self) -> float:
        """Sign in W = sign * coupling * [-p, 0, s]; +1 flags the quantum
        row, whose W is built directly (see module docstring)."""
        return _SIGN.get(self.kind, 1.0)

    @property
    def factor(self) -> float:
        return self.sign * self.coupling


def to_angular_velocity(mapping: SystemMapping, schedule: PulseSchedule) -> AngularVelocityField:
    """Build the angular-velocity field W(t) for ``mapping`` and ``schedule``.

    W is sampled on time arrays through the schedule's envelopes; a scalar
    evaluator backs ``components`` for the adaptive stepper.  The field's
    ``profiles`` carry the unsigned magnitudes (|W_x(t)|, |W_z(t)|), which
    feed the mixing-angle and dark-variable diagnostics and the scan area
    columns.
    """
    if not isinstance(mapping, SystemMapping):
        raise ValueError("mapping must be a SystemMapping")
    # the quantum row's W is [+p/2, 0, +s/2]; classical rows: factor * [-p, 0, s]
    fx, fz = (0.5, 0.5) if mapping.kind == "quantum" else (-mapping.factor, mapping.factor)
    mag = abs(fz)
    sched_p = scalar_evaluator(schedule.p_pulse)
    sched_s = scalar_evaluator(schedule.s_pulse)

    def sample(t):
        w = np.zeros((np.size(t), 3))
        w[:, 0] = fx * schedule.p(t)
        w[:, 2] = fz * schedule.s(t)
        return w

    def components(t):
        return (fx * sched_p(t), 0.0, fz * sched_s(t))

    def profiles(t):
        return (mag * schedule.p(t), mag * schedule.s(t))

    return AngularVelocityField(
        sample=sample, kind=mapping.kind, profiles=profiles, components=components
    )


@dataclass(frozen=True)
class AdiabaticityMargin:
    margin: float
    satisfied: bool


#: A margin of at least this factor counts as "much less than" satisfied.
MARGIN_FACTOR = 10.0


def lorentz_adiabaticity_bound(m, v, q, b0, l) -> AdiabaticityMargin:
    """Check m*v << q*B0*L for the charged-particle arrangement.

    Reports the dimensionless margin (q*B0*L)/(m*v); ``satisfied`` means the
    margin is at least :data:`MARGIN_FACTOR`.  A factor-10 cutoff is a
    declared convention; the raw margin is always returned so callers can
    apply their own.
    """
    if m <= 0 or v <= 0 or b0 <= 0 or l <= 0:
        raise ValueError("m, v, b0, l must be positive")
    if q < 0:
        raise ValueError("q must be >= 0")
    margin = (q * b0 * l) / (m * v)
    return AdiabaticityMargin(margin=float(margin), satisfied=margin >= MARGIN_FACTOR)
