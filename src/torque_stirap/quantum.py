"""Resonant three-state solver, adiabatic basis, and the rotation-vector map.

This module is the quantum ground truth the torque kernel is validated
against.  The chain 1-2-3 is driven on exact one- and two-photon resonance
by two real pulsed couplings (p on the 1-2 link, s on the 2-3 link), with
hbar absorbed so all rates are in units 1/T:

    i d/dt (c1, c2, c3) = H(t) (c1, c2, c3),
    H(t) = 0.5 * [[0, p, 0], [p, 0, s], [0, s, 0]].

With a real initial state, c1 and c3 stay real and c2 stays imaginary, so
the state is equivalent to the real rotation vector

    R = (-Re c3, Im c2, Re c1),

which obeys the torque equation with W = (p/2, 0, s/2).  The residual of
that real/imaginary structure is monitored and any violation (a wrong
initial phase, a detuned Hamiltonian sneaking in) raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DEFAULT_RTOL, adaptive_path, dense_output
from .pulses import PulseSchedule, mixing_angle, scalar_evaluator

__all__ = [
    "RwaHamiltonian",
    "AdiabaticBasis",
    "QuantumTrajectory",
    "adiabatic_basis",
    "bloch_map",
    "evolve_schrodinger",
    "intuitive_populations",
]

#: Largest tolerated violation of the real/imaginary amplitude structure.
PHASE_RESIDUAL_TOL = 1e-6

#: Largest tolerated norm drift of the amplitudes over a run.
NORM_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class RwaHamiltonian:
    """The two couplings at one instant; both real by construction."""

    omega_p: float
    omega_s: float

    def matrix(self):
        p, s = self.omega_p, self.omega_s
        return 0.5 * np.array(
            [[0.0, p, 0.0], [p, 0.0, s], [0.0, s, 0.0]]
        )


@dataclass(frozen=True)
class AdiabaticBasis:
    """Instantaneous eigensystem of the resonant Hamiltonian.

    ``phi_zero`` is the dark direction: null eigenvalue, no middle-state
    component.  ``eps_plus/minus`` are +/- half the rms coupling.
    """

    phi_plus: np.ndarray
    phi_zero: np.ndarray
    phi_minus: np.ndarray
    eps_plus: float
    eps_zero: float
    eps_minus: float


def adiabatic_basis(omega_p: float, omega_s: float):
    """Eigenvectors and eigenvalues at one instant, or ``None`` if both
    couplings vanish (the basis direction is undefined there)."""
    theta = mixing_angle(omega_p, omega_s)
    if theta is None:
        return None
    st, ct = math.sin(theta), math.cos(theta)
    rms = math.hypot(omega_p, omega_s)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return AdiabaticBasis(
        phi_plus=np.array([st * inv_sqrt2, inv_sqrt2, ct * inv_sqrt2]),
        phi_zero=np.array([ct, 0.0, -st]),
        phi_minus=np.array([st * inv_sqrt2, -inv_sqrt2, ct * inv_sqrt2]),
        eps_plus=+0.5 * rms,
        eps_zero=0.0,
        eps_minus=-0.5 * rms,
    )


def bloch_map(c):
    """Map amplitudes to the real rotation vector.

    Returns ``(r, residual)`` with r = (-Re c3, Im c2, Re c1) and residual
    the largest off-structure magnitude max(|Im c1|, |Re c2|, |Im c3|).
    Raises if the residual exceeds :data:`PHASE_RESIDUAL_TOL`, which signals
    a phase-convention violation upstream.
    """
    c = np.asarray(c, dtype=complex)
    residual = float(max(abs(c[0].imag), abs(c[1].real), abs(c[2].imag)))
    if residual > PHASE_RESIDUAL_TOL:
        raise ValueError(f"phase convention violated (residual={residual:.3e})")
    r = np.array([-c[2].real, c[1].imag, c[0].real])
    return r, residual


@dataclass(frozen=True)
class QuantumTrajectory:
    """Amplitudes sampled on a grid, with populations and adiabatic phases.

    ``phi_plus``/``phi_minus`` accumulate the instantaneous eigenvalues
    from the grid start by trapezoid quadrature.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    populations: np.ndarray
    phi_plus: np.ndarray
    phi_minus: np.ndarray
    norm_drift: float

    def bloch_states(self):
        """Rotation vectors per sample plus the worst structure residual."""
        out = np.empty((self.times.size, 3))
        worst = 0.0
        for i in range(self.times.size):
            out[i], res = bloch_map(self.amplitudes[i])
            worst = max(worst, res)
        return out, worst

    @property
    def final_populations(self):
        return self.populations[-1]


def evolve_schrodinger(schedule: PulseSchedule, c0, grid, rtol=DEFAULT_RTOL):
    """Propagate amplitudes under ``schedule`` across ``grid``.

    ``c0`` must be normalized.  Uses the adaptive stepper with dense output
    at the grid points; raises if the norm drifts by more than
    :data:`NORM_DRIFT_TOL`.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    c0 = np.asarray(c0, dtype=complex)
    if c0.shape != (3,):
        raise ValueError("c0 must be a complex 3-vector")
    n0 = float(np.linalg.norm(c0))
    if abs(n0 - 1.0) > 1e-9:
        raise ValueError(f"c0 must be normalized, got |c0|={n0:.6g}")

    sched_p = scalar_evaluator(schedule.p_pulse)
    sched_s = scalar_evaluator(schedule.s_pulse)

    def f(t, c):
        p, s = sched_p(t), sched_s(t)
        return -0.5j * np.array(
            [p * c[1], p * c[0] + s * c[2], s * c[1]]
        )

    nodes = adaptive_path(f, grid[0], grid[-1], c0, rtol=rtol)
    amps = dense_output(nodes, grid)
    amps[0] = c0
    amps[-1] = nodes[-1][1]

    norms = np.linalg.norm(amps, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if drift > NORM_DRIFT_TOL:
        raise RuntimeError(f"normalization drift {drift:.3e} exceeds {NORM_DRIFT_TOL}")

    pops = np.abs(amps) ** 2
    eps = 0.5 * np.hypot(schedule.p(grid), schedule.s(grid))
    dt = np.diff(grid)
    seg = 0.5 * (eps[1:] + eps[:-1]) * dt
    phi_plus = np.concatenate(([0.0], np.cumsum(seg)))
    return QuantumTrajectory(
        times=grid,
        amplitudes=amps,
        populations=pops,
        phi_plus=phi_plus,
        phi_minus=-phi_plus,
        norm_drift=drift,
    )


def intuitive_populations(area: float):
    """Final populations for intuitive pulse order in the adiabatic limit.

    ``area`` is the rms pulse area of the couplings; the populations
    oscillate as (P1, P2, P3) = (0, sin^2(area/2), cos^2(area/2)).
    """
    if area < 0:
        raise ValueError("area must be >= 0")
    half = 0.5 * area
    return (0.0, math.sin(half) ** 2, math.cos(half) ** 2)
