"""Pulse envelopes, two-pulse schedules, and the scalar pulse geometry.

Everything downstream (the torque kernel, the three-state solver, the system
adapters) consumes a :class:`PulseSchedule`: a pair of named envelopes, the
"p" pulse driving the x-type coupling and the "s" pulse driving the z-type
coupling.  Times are measured in units of the pulse width T, field strengths
in units of 1/T, so a Gaussian schedule is fully described by its peak
amplitude, width, and the delay between the two pulse centers.

Sign convention: envelope values are unsigned magnitudes.  How a magnitude
enters the angular-velocity vector (and with which sign) is the business of
:mod:`torque_stirap.systems`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

#: Default window padding: 6 pulse widths on each side leaves a Gaussian
#: tail below 1e-15 of the peak, so truncation is negligible at double
#: precision.
WINDOW_PAD = 6.0

#: Default number of quadrature/integration intervals.  Areas and
#: trajectories share this grid resolution.
DEFAULT_GRID_STEPS = 4096


@dataclass(frozen=True)
class PulseEnvelope:
    """One Gaussian pulse envelope.

    Parameters
    ----------
    amplitude : float
        Peak field strength (units 1/T).  Must be >= 0.
    center : float
        Time of the peak.
    width : float
        The T in exp(-(t - center)^2 / T^2).  Must be > 0.
    """

    amplitude: float
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not (self.width > 0):
            raise ValueError(f"width must be positive, got {self.width}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.center)):
            raise ValueError("amplitude and center must be finite")
        if self.amplitude < 0:
            raise ValueError(f"gaussian amplitude must be >= 0, got {self.amplitude}")

    @classmethod
    def gaussian(cls, amplitude, center=0.0, width=1.0):
        return cls(amplitude=amplitude, center=center, width=width)


def evaluate_envelope(env: PulseEnvelope, t):
    """Evaluate ``amplitude * exp(-((t - center)/width)^2)`` at time(s) ``t``.

    Non-finite ``t`` raises ``ValueError("invalid time")``.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("invalid time")
    u = (t_arr - env.center) / env.width
    out = env.amplitude * np.exp(-u * u)
    if np.ndim(t) == 0:
        return float(out)
    return out


def scalar_evaluator(env: PulseEnvelope):
    """Fast float-to-float evaluator for integrator hot loops.

    Skips the per-call array plumbing of :func:`evaluate_envelope`; callers
    are expected to have validated their time grids already.
    """
    a, c, w = env.amplitude, env.center, env.width

    def f(t):
        u = (t - c) / w
        return a * math.exp(-u * u)

    return f


@dataclass(frozen=True)
class PulseSchedule:
    """A p/s envelope pair with the delay that generated it.

    ``delay < 0`` is the counterintuitive ordering: the s pulse peaks before
    the p pulse.  The standard constructor places the p pulse at ``-delay/2``
    and the s pulse at ``+delay/2``.
    """

    p_pulse: PulseEnvelope
    s_pulse: PulseEnvelope
    delay: float = 0.0

    @classmethod
    def from_delay(cls, amplitude, delay, width=1.0, s_amplitude=None):
        s_amplitude = amplitude if s_amplitude is None else s_amplitude
        return cls(
            p_pulse=PulseEnvelope.gaussian(amplitude, center=-delay / 2.0, width=width),
            s_pulse=PulseEnvelope.gaussian(s_amplitude, center=+delay / 2.0, width=width),
            delay=float(delay),
        )

    @property
    def counterintuitive(self) -> bool:
        return self.delay < 0

    def p(self, t):
        return evaluate_envelope(self.p_pulse, t)

    def s(self, t):
        return evaluate_envelope(self.s_pulse, t)

    def with_amplitude(self, amplitude, s_amplitude=None):
        """Same centers and widths, new peak amplitude(s)."""
        s_amplitude = amplitude if s_amplitude is None else s_amplitude
        return PulseSchedule(
            p_pulse=PulseEnvelope.gaussian(
                amplitude, center=self.p_pulse.center, width=self.p_pulse.width
            ),
            s_pulse=PulseEnvelope.gaussian(
                s_amplitude, center=self.s_pulse.center, width=self.s_pulse.width
            ),
            delay=self.delay,
        )

    def window(self, pad=WINDOW_PAD):
        return default_window(self.p_pulse, self.s_pulse, pad=pad)


def default_window(*envelopes: PulseEnvelope, pad=WINDOW_PAD):
    """Deterministic integration window covering all envelopes.

    ``[min(center - pad*width), max(center + pad*width)]`` over the envelopes.
    """
    if not envelopes:
        raise ValueError("need at least one envelope")
    lo = min(env.center - pad * env.width for env in envelopes)
    hi = max(env.center + pad * env.width for env in envelopes)
    return (lo, hi)


def mixing_angle(p_value: float, s_value: float):
    """Angle theta with tan(theta) = p/s, in [0, pi/2] for unsigned inputs.

    Returns ``None`` when both inputs are zero (the angle is undefined
    there; trajectory diagnostics hold the last defined value instead of
    propagating NaN).
    """
    if p_value < 0 or s_value < 0:
        raise ValueError("unsigned convention violated")
    if p_value == 0.0 and s_value == 0.0:
        return None
    return math.atan2(p_value, s_value)


def mixing_angles(p_values, s_values, held=0.0):
    """:func:`mixing_angle` along sampled profiles, forward-filled.

    Samples where p and s are both zero hold the last defined angle, and
    ``held`` before the first one.  Returns ``(theta, source)``, where
    ``source[i]`` is the sample theta[i] comes from (-1 where ``held``).
    """
    p = np.asarray(p_values, dtype=float)
    s = np.asarray(s_values, dtype=float)
    source = np.where((p != 0.0) | (s != 0.0), np.arange(p.size), -1)
    np.maximum.accumulate(source, out=source)
    theta = np.where(source >= 0, np.arctan2(p, s)[source], held)
    return theta, source


def rms_area(schedule: PulseSchedule, window=None, steps=DEFAULT_GRID_STEPS):
    """Composite-trapezoid quadrature of sqrt(p(t)^2 + s(t)^2) over ``window``.

    An empty window returns 0 with a warning.
    """
    t0, t1 = schedule.window() if window is None else (float(window[0]), float(window[1]))
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("window must be finite")
    if t1 <= t0:
        warnings.warn("empty integration window", stacklevel=2)
        return 0.0
    t = np.linspace(t0, t1, steps + 1)
    return float(np.trapezoid(np.hypot(schedule.p(t), schedule.s(t)), t))


def refine_quadrature(f, window, tol=1e-9, max_refinements=24, steps=64):
    """Trapezoid quadrature refined by doubling until two passes agree.

    Utility for pinning regression constants: refines until
    ``|I_2n - I_n| <= tol * max(1, |I_2n|)`` and returns the finer value.
    Raises ``RuntimeError`` if the tolerance is not reached.
    """
    t0, t1 = float(window[0]), float(window[1])
    if t1 <= t0:
        warnings.warn("empty integration window", stacklevel=2)
        return 0.0
    prev = None
    n = steps
    for _ in range(max_refinements):
        t = np.linspace(t0, t1, n + 1)
        cur = float(np.trapezoid(f(t), t))
        if prev is not None and abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise RuntimeError(f"quadrature did not converge to {tol} within {max_refinements} refinements")
