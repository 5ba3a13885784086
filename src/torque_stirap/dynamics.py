"""The torque-equation kernel dX/dt = W(t) x X and its integrators.

The force W x X is always perpendicular to X, so the exact flow rotates X
rigidly and conserves its norm.  Three integrators are provided:

``rk4``
    Classical fixed-step Runge-Kutta on the sample grid.  Fourth order;
    norm conserved to integrator accuracy, not exactly.
``piecewise_rotation``
    Rotates X about the axis W(t_mid) frozen at each step midpoint, using
    the closed-form (Rodrigues) rotation.  Second order in the step but
    exactly norm-preserving, which makes it the structure-preserving
    reference the other methods are checked against.
``adaptive``
    Embedded Cash-Karp 4(5) pair with step-size control and cubic-Hermite
    dense output at the requested sample times.

All integrators sample the solution on the caller's grid; times are in
units of the pulse width T.

The equation is linear in X, so each fixed step is a 3x3 map.  The fixed-
step kernel samples W(t) as arrays, builds the maps of :data:`CHUNK` steps
at once and composes them by an inclusive prefix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pulses import mixing_angles

__all__ = [
    "AngularVelocityField",
    "Trajectory",
    "TrajectoryDiagnostics",
    "IntegrationError",
    "torque_rhs",
    "step_exact",
    "integrate",
    "time_grid",
]

METHODS = ("rk4", "adaptive", "piecewise_rotation")

DEFAULT_STEPS = 4096
DEFAULT_RTOL = 1e-9

#: Steps per chunk of the fixed-step kernel and the diagnostics: bounds their
#: (CHUNK, 3, 3) buffers whatever the grid length, at little call overhead.
CHUNK = 1024


class IntegrationError(RuntimeError):
    """Raised when the adaptive stepper fails or a state is non-finite."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


@dataclass(frozen=True)
class AngularVelocityField:
    """A time-dependent angular-velocity vector W(t), plus metadata.

    ``sample(t)`` maps a 1-d array of times to the (n, 3) array of W in
    units 1/T; the fixed-step kernel consumes this form.  ``components(t)``
    returns the tuple (wx, wy, wz) at one float time, for the adaptive
    stepper whose step points are not known in advance; when omitted it is
    derived from ``sample``.  ``profiles``, when present, maps an array of
    times to the arrays of unsigned scalar magnitudes (|W_x|, |W_z|) the
    schedule contributed, which is what the trajectory diagnostics (mixing
    angle, dark projection, areas) are built from.
    """

    sample: Callable[[np.ndarray], np.ndarray]
    kind: str = "generic"
    profiles: Callable[[np.ndarray], tuple] | None = None
    components: Callable[[float], tuple] | None = None

    def __call__(self, t):
        return np.asarray(self.sample(np.array([float(t)]))[0], dtype=float)

    @classmethod
    def constant(cls, w, kind="constant"):
        wx, wy, wz = (float(c) for c in w)
        row = np.array([wx, wy, wz])
        return cls(
            sample=lambda t: np.tile(row, (np.size(t), 1)), kind=kind,
            components=lambda t: (wx, wy, wz),
        )


@dataclass(frozen=True)
class TrajectoryDiagnostics:
    """Per-sample scalar records derived from the field profiles."""

    p_values: np.ndarray
    s_values: np.ndarray
    mixing_angle: np.ndarray
    dark_variable: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the torque equation.

    ``states`` has one row per sample time.  ``norm_drift`` is the largest
    relative departure of |X| from its initial value over the whole run.
    """

    times: np.ndarray
    states: np.ndarray
    norm_drift: float
    method: str
    diagnostics: TrajectoryDiagnostics | None = None

    def __post_init__(self):
        if self.times.ndim != 1 or self.states.shape != (self.times.size, 3):
            raise ValueError("states must be (len(times), 3)")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def initial_state(self):
        return self.states[0]

    @property
    def final_state(self):
        return self.states[-1]

    def component_squares(self):
        """(x^2, y^2, z^2) per sample, normalized by the initial norm squared."""
        n0 = float(np.linalg.norm(self.states[0]))
        return self.states**2 / (n0 * n0)


def torque_rhs(w, x):
    """Cross product W x X, the right-hand side of the torque equation."""
    wx, wy, wz = (float(c) for c in w)
    x1, x2, x3 = (float(c) for c in x)
    return np.array(
        [wy * x3 - wz * x2, wz * x1 - wx * x3, wx * x2 - wy * x1]
    )


def step_exact(w, x, h):
    """Exact rotation of ``x`` about the constant axis ``w`` by angle |w|*h.

    Norm is preserved to round-off; ``w = 0`` returns ``x`` unchanged.
    """
    if not math.isfinite(h):
        raise ValueError("step must be finite")
    w = np.asarray(w, dtype=float).reshape(1, 3)
    return _rotation_maps(w, np.array([float(h)]))[0] @ np.asarray(x, dtype=float)


def time_grid(t0, t1, steps=DEFAULT_STEPS):
    """Uniform sample grid with ``steps`` intervals (steps+1 points)."""
    if not (t1 > t0):
        raise ValueError("need t1 > t0")
    return np.linspace(float(t0), float(t1), int(steps) + 1)


# ---------------------------------------------------------------------------
# Fixed-step kernel: per-step 3x3 maps composed by a prefix product.
# ---------------------------------------------------------------------------

def _cross_matrices(w):
    """(n, 3, 3) matrices [w]x with [w]x @ x = w x x, one per row of ``w``."""
    a = np.zeros((w.shape[0], 3, 3))
    a[:, 0, 1], a[:, 0, 2] = -w[:, 2], w[:, 1]
    a[:, 1, 0], a[:, 1, 2] = w[:, 2], -w[:, 0]
    a[:, 2, 0], a[:, 2, 1] = -w[:, 1], w[:, 0]
    return a


def _rotation_maps(w, h):
    """Rodrigues matrices rotating by |w| h about each row of ``w`` (or I)."""
    wn = np.sqrt(np.sum(w * w, axis=1))
    k = w / np.where(wn > 0.0, wn, 1.0)[:, None]
    ang = wn * h
    ca = np.cos(ang)[:, None, None]
    maps = np.sin(ang)[:, None, None] * _cross_matrices(k)
    maps += (1.0 - ca) * (k[:, :, None] * k[:, None, :])
    maps += ca * np.eye(3)
    return maps


def _rk4_maps(w0, wm, w1, h):
    """Classical rk4 step maps of dX/dt = [W]x X from W at t, t+h/2, t+h."""
    hh = h[:, None, None]
    a1, a2, a3 = _cross_matrices(w0), _cross_matrices(wm), _cross_matrices(w1)
    k2 = a2 + 0.5 * hh * (a2 @ a1)
    k3 = a2 + 0.5 * hh * (a2 @ k2)
    k4 = a3 + hh * (a3 @ k3)
    return np.eye(3) + (hh / 6.0) * (a1 + 2.0 * (k2 + k3) + k4)


def _prefix_product(maps):
    """Inclusive Hillis-Steele scan in place: maps[i] <- maps[i] @ ... @ maps[0]."""
    d = 1
    while d < maps.shape[0]:
        maps[d:] = maps[d:] @ maps[:-d]
        d *= 2
    return maps


def _run_fixed(field, grid, x0, method):
    """States of a fixed-step method on every grid point, chunk by chunk."""
    out = np.empty((grid.size, 3))
    out[0] = x0
    sample = field.sample
    for lo in range(0, grid.size - 1, CHUNK):
        nodes = grid[lo:lo + CHUNK + 1]
        t, h = nodes[:-1], np.diff(nodes)
        wm = sample(t + 0.5 * h)
        if method == "rk4":
            w = sample(nodes)
            maps = _rk4_maps(w[:-1], wm, w[1:], h)
        else:
            maps = _rotation_maps(wm, h)
        out[lo + 1:lo + nodes.size] = _prefix_product(maps) @ out[lo]
    return out


# ---------------------------------------------------------------------------
# Adaptive Cash-Karp 4(5) stepper, generic over real and complex states.
# ---------------------------------------------------------------------------

_CK_A = (0.2, 0.3, 0.6, 1.0, 0.875)
_CK_B = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (0.3, -0.9, 1.2),
    (-11.0 / 54.0, 2.5, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0, 44275.0 / 110592.0, 253.0 / 4096.0),
)
_CK_C = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_CK_DC = (
    _CK_C[0] - 2825.0 / 27648.0,
    0.0,
    _CK_C[2] - 18575.0 / 48384.0,
    _CK_C[3] - 13525.0 / 55296.0,
    -277.0 / 14336.0,
    _CK_C[5] - 0.25,
)

_SAFETY = 0.9
_PGROW = -0.2
_PSHRNK = -0.25
_TINY = 1e-30


def _rkck(f, t, y, dydt, h):
    k = [dydt]
    for i in range(5):
        acc = _CK_B[i][0] * k[0]
        for j in range(1, i + 1):
            acc = acc + _CK_B[i][j] * k[j]
        k.append(f(t + _CK_A[i] * h, y + h * acc))
    yout = y + h * (_CK_C[0] * k[0] + _CK_C[2] * k[2] + _CK_C[3] * k[3] + _CK_C[5] * k[5])
    yerr = h * (
        _CK_DC[0] * k[0] + _CK_DC[2] * k[2] + _CK_DC[3] * k[3]
        + _CK_DC[4] * k[4] + _CK_DC[5] * k[5]
    )
    return yout, yerr, k[5]


def adaptive_path(f, t0, t1, y0, rtol=DEFAULT_RTOL, h0=None, max_steps=1_000_000):
    """Integrate dy/dt = f(t, y) from t0 to t1 with local error control.

    Returns the list of accepted nodes ``(t_i, y_i, f_i)`` including both
    endpoints, for dense-output interpolation.  Raises
    :class:`IntegrationError` at once for an ``rtol`` below machine epsilon,
    which no step size can meet, and on step-size underflow.
    """
    t = float(t0)
    if rtol < np.finfo(float).eps:
        raise IntegrationError(
            f"stiffness/accuracy failure at t={t:.6g}: "
            f"rtol {rtol:g} is below machine epsilon",
            t=t,
        )
    y = np.array(y0, copy=True)
    dydt = f(t, y)
    span = float(t1) - t
    h = span / 64.0 if h0 is None else float(h0)
    nodes = [(t, y.copy(), dydt.copy())]
    for _ in range(max_steps):
        if (t + h - t1) * (t + h - t0) > 0.0:
            h = t1 - t
        while True:
            ynew, yerr, _ = _rkck(f, t, y, dydt, h)
            scale = np.abs(y) + np.abs(h * dydt) + _TINY
            errmax = float(np.max(np.abs(yerr) / scale)) / rtol
            if errmax <= 1.0:
                break
            if not math.isfinite(errmax):
                raise IntegrationError(f"non-finite state at t={t:.6g}", t=t)
            hnew = _SAFETY * h * errmax**_PSHRNK
            h = max(hnew, 0.1 * h) if h > 0 else min(hnew, 0.1 * h)
            if t + h == t:
                raise IntegrationError(
                    f"stiffness/accuracy failure at t={t:.6g}", t=t
                )
        t = t + h
        y = ynew
        dydt = f(t, y)
        nodes.append((t, y.copy(), dydt.copy()))
        if (t - t1) * (t1 - t0) >= 0.0:
            return nodes
        h = _SAFETY * h * errmax**_PGROW if errmax > 1.89e-4 else 5.0 * h
    raise IntegrationError(f"too many steps (>{max_steps}) at t={t:.6g}", t=t)


def dense_output(nodes, grid):
    """Cubic-Hermite interpolation of an adaptive path onto ``grid``.

    Node states may be real or complex.
    """
    ts = np.array([n[0] for n in nodes])
    ys = np.array([n[1] for n in nodes])
    fs = np.array([n[2] for n in nodes])
    j = np.clip(np.searchsorted(ts, grid, side="right") - 1, 0, len(nodes) - 2)
    t0 = ts[j][:, None]
    h = ts[j + 1][:, None] - t0
    y0, f0, y1, f1 = ys[j], fs[j], ys[j + 1], fs[j + 1]
    u = (np.asarray(grid)[:, None] - t0) / np.where(h == 0.0, 1.0, h)
    u2 = u * u
    u3 = u2 * u
    out = (
        (2 * u3 - 3 * u2 + 1) * y0
        + (u3 - 2 * u2 + u) * h * f0
        + (-2 * u3 + 3 * u2) * y1
        + (u3 - u2) * h * f1
    )
    return np.where(h == 0.0, y1, out)


def _run_adaptive(field, grid, x0, rtol):
    comp = field.components or (lambda t: field.sample(np.array([t]))[0])

    def f(t, y):
        wx, wy, wz = comp(t)
        return np.array(
            [
                wy * y[2] - wz * y[1],
                wz * y[0] - wx * y[2],
                wx * y[1] - wy * y[0],
            ]
        )

    nodes = adaptive_path(f, grid[0], grid[-1], np.asarray(x0, dtype=float), rtol=rtol)
    out = dense_output(nodes, grid)
    out[0] = x0
    out[-1] = nodes[-1][1]
    return out


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------

def _diagnostics(field, grid, states):
    n = grid.size
    p_vals = np.empty(n)
    s_vals = np.empty(n)
    theta = np.empty(n)
    dark = np.empty(n)
    # Both-zero samples hold the last defined value (0 before any is seen).
    last_theta = last_dark = 0.0
    for lo in range(0, n, CHUNK):
        sl = slice(lo, lo + CHUNK)
        p, s = field.profiles(grid[sl])
        th, src = mixing_angles(p, s, last_theta)
        with np.errstate(invalid="ignore", divide="ignore"):
            proj = (p * states[sl, 0] + s * states[sl, 2]) / np.hypot(p, s)
        p_vals[sl], s_vals[sl], theta[sl] = p, s, th
        dark[sl] = np.where(src >= 0, proj[src], last_dark)
        last_theta, last_dark = theta[sl][-1], dark[sl][-1]
    return TrajectoryDiagnostics(
        p_values=p_vals, s_values=s_vals, mixing_angle=theta, dark_variable=dark
    )


def _norm_drift(grid, states, n0):
    """Largest relative departure of |X| from ``n0``; raises on a non-finite
    state, naming the first sample time where it appears."""
    norms = np.linalg.norm(states, axis=1)
    bad = ~np.isfinite(norms)
    if bad.any():
        t_bad = float(grid[np.argmax(bad)])
        raise IntegrationError(f"non-finite state at t={t_bad:.6g}", t=t_bad)
    return float(np.max(np.abs(norms - n0)) / n0)


def integrate(field, x0, grid, method="rk4", rtol=DEFAULT_RTOL):
    """Integrate the torque equation along ``grid``.

    Parameters
    ----------
    field : AngularVelocityField
        The angular-velocity vector W(t).
    x0 : array-like, shape (3,)
        Nonzero initial state.
    grid : ndarray
        Strictly increasing sample times; the first/last entries bound the
        integration.
    method : str
        ``"rk4"``, ``"adaptive"``, or ``"piecewise_rotation"`` (alias
        ``"rotation"``).
    rtol : float
        Relative tolerance for the adaptive method.

    Returns
    -------
    Trajectory
        With diagnostics attached when the field carries scalar profiles.

    Raises
    ------
    IntegrationError
        When the adaptive stepper fails, or when any state is non-finite.
    """
    if method == "rotation":
        method = "piecewise_rotation"
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing with >= 2 points")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (3,):
        raise ValueError("x0 must be a 3-vector")
    n0 = float(np.linalg.norm(x0))
    if n0 == 0.0 or not np.isfinite(n0):
        raise ValueError("x0 must be nonzero and finite")

    # overflow surfaces as non-finite states, which raise below
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "adaptive":
            states = _run_adaptive(field, grid, x0, rtol)
        else:
            states = _run_fixed(field, grid, x0, method)
    drift = _norm_drift(grid, states, n0)
    diags = _diagnostics(field, grid, states) if field.profiles is not None else None
    return Trajectory(
        times=grid, states=states, norm_drift=drift, method=method, diagnostics=diags
    )
