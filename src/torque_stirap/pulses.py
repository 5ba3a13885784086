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

GAUSSIAN = "gaussian"
SAMPLED = "sampled"

#: Default window padding: 6 pulse widths on each side leaves a Gaussian
#: tail below 1e-15 of the peak, so truncation is negligible at double
#: precision.
WINDOW_PAD = 6.0

#: Default number of quadrature/integration intervals.  Areas and
#: trajectories share this grid resolution.
DEFAULT_GRID_STEPS = 4096


@dataclass(frozen=True)
class PulseEnvelope:
    """One pulse envelope, either an analytic Gaussian or a sampled table.

    Parameters
    ----------
    amplitude : float
        Peak field strength (units 1/T).  Must be >= 0.
    center : float
        Time of the peak.
    width : float
        The T in exp(-(t - center)^2 / T^2).  Must be > 0.
    shape : str
        ``"gaussian"`` or ``"sampled"``.
    times, values : ndarray, optional
        Sample grid for ``shape="sampled"``; evaluation interpolates
        linearly and returns 0 outside the grid.
    """

    amplitude: float
    center: float = 0.0
    width: float = 1.0
    shape: str = GAUSSIAN
    times: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.shape not in (GAUSSIAN, SAMPLED):
            raise ValueError(f"unknown envelope shape {self.shape!r}")
        if not (self.width > 0):
            raise ValueError(f"width must be positive, got {self.width}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.center)):
            raise ValueError("amplitude and center must be finite")
        if self.shape == GAUSSIAN:
            if self.amplitude < 0:
                raise ValueError(
                    f"gaussian amplitude must be >= 0, got {self.amplitude}"
                )
            if self.times is not None or self.values is not None:
                raise ValueError("gaussian envelopes carry no sample table")
        else:
            if self.times is None or self.values is None:
                raise ValueError("sampled envelopes need times and values")
            t = np.asarray(self.times, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
                raise ValueError("sample table must be two equal 1-d arrays")
            if not np.all(np.diff(t) > 0):
                raise ValueError("sample times must be strictly increasing")
            if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
                raise ValueError("sample table must be finite")
            if np.any(v < 0):
                raise ValueError("sampled envelope values must be >= 0")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)

    @classmethod
    def gaussian(cls, amplitude, center=0.0, width=1.0):
        return cls(amplitude=amplitude, center=center, width=width)

    @classmethod
    def sampled(cls, times, values):
        """Build a sampled envelope; summary fields are derived from the table."""
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        peak = int(np.argmax(v)) if v.size else 0
        return cls(
            amplitude=float(v[peak]) if v.size else 0.0,
            center=float(t[peak]) if t.size else 0.0,
            width=max(float(t[-1] - t[0]) / 2.0, np.finfo(float).tiny),
            shape=SAMPLED,
            times=t,
            values=v,
        )

    def __call__(self, t):
        return evaluate_envelope(self, t)


def evaluate_envelope(env: PulseEnvelope, t):
    """Evaluate an envelope at time(s) ``t``.

    Gaussian envelopes return ``amplitude * exp(-((t - center)/width)^2)``;
    sampled envelopes interpolate linearly and are exactly 0 outside their
    grid.  Non-finite ``t`` raises ``ValueError("invalid time")``.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("invalid time")
    if env.shape == GAUSSIAN:
        u = (t_arr - env.center) / env.width
        out = env.amplitude * np.exp(-u * u)
    else:
        out = np.interp(t_arr, env.times, env.values, left=0.0, right=0.0)
    if np.ndim(t) == 0:
        return float(out)
    return out


def scalar_evaluator(env: PulseEnvelope):
    """Fast float-to-float evaluator for integrator hot loops.

    Skips the per-call array plumbing of :func:`evaluate_envelope`; callers
    are expected to have validated their time grids already.
    """
    if env.shape == GAUSSIAN:
        a, c, w = env.amplitude, env.center, env.width

        def f(t):
            u = (t - c) / w
            return a * math.exp(-u * u)

        return f
    times, values = env.times, env.values

    def f(t):
        return float(np.interp(t, times, values, left=0.0, right=0.0))

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
        """Same centers and widths, new peak amplitude(s).  Gaussian only."""
        if self.p_pulse.shape != GAUSSIAN or self.s_pulse.shape != GAUSSIAN:
            raise ValueError("amplitude rescaling requires gaussian envelopes")
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

    ``[min(center) - pad*max(width), max(center) + pad*max(width)]``; sampled
    envelopes contribute their grid endpoints instead.
    """
    if not envelopes:
        raise ValueError("need at least one envelope")
    lo, hi = math.inf, -math.inf
    for env in envelopes:
        if env.shape == SAMPLED:
            lo = min(lo, float(env.times[0]))
            hi = max(hi, float(env.times[-1]))
        else:
            lo = min(lo, env.center - pad * env.width)
            hi = max(hi, env.center + pad * env.width)
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


def _trapezoid(f, window, steps):
    t0, t1 = float(window[0]), float(window[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("window must be finite")
    if t1 <= t0:
        warnings.warn("empty integration window", stacklevel=3)
        return 0.0
    t = np.linspace(t0, t1, steps + 1)
    return float(np.trapezoid(f(t), t))


def pulse_area(env: PulseEnvelope, window=None, steps=DEFAULT_GRID_STEPS):
    """Composite-trapezoid area of one envelope over ``window``.

    For a Gaussian with the default (full-support) window this equals
    ``amplitude * width * sqrt(pi)`` to well below 1e-9 relative.
    An empty window returns 0 with a warning.
    """
    if window is None:
        window = default_window(env)
    return _trapezoid(lambda t: evaluate_envelope(env, t), window, steps)


def rms_area(schedule: PulseSchedule, window=None, steps=DEFAULT_GRID_STEPS):
    """Quadrature of sqrt(p(t)^2 + s(t)^2) over ``window``."""
    if window is None:
        window = schedule.window()

    def f(t):
        return np.hypot(schedule.p(t), schedule.s(t))

    return _trapezoid(f, window, steps)


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
