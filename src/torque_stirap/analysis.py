"""Experiment drivers: efficiency metrics, delay/area scans, adiabaticity.

Scans evaluate one integration per parameter value, one after another in
parameter order (a point takes milliseconds; threads only contend for the GIL).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, pulses, systems

__all__ = [
    "EfficiencyReport",
    "ScanResult",
    "AdiabaticityRecord",
    "transfer_efficiency",
    "delay_scan",
    "area_scan",
    "adiabaticity_report",
]

AXES = {"x": 0, "y": 1, "z": 2}

#: |d theta/dt| samples below this fraction of the peak rate are excluded
#: from the adiabaticity ratio: in the far tails the ratio rate/field blows
#: up numerically while nothing is turning, which would drown the signal.
THETA_RATE_FLOOR = 1e-3


@dataclass(frozen=True)
class EfficiencyReport:
    """Squared-component transfer summary for one trajectory.

    ``transfer_efficiency`` is the final target component squared over the
    initial norm squared; ``max_intermediate`` is the largest y-component
    square along the way (the middle-state population analog).  ``areas``
    holds (A_p, A_s, A_rms) of the field profiles when the trajectory
    carries diagnostics, else ``None``.
    """

    transfer_efficiency: float
    max_intermediate: float
    areas: tuple | None

    def __post_init__(self):
        if not (0.0 <= self.transfer_efficiency <= 1.0 + 1e-9):
            raise ValueError("transfer_efficiency out of [0, 1]")
        if not (0.0 <= self.max_intermediate <= 1.0 + 1e-9):
            raise ValueError("max_intermediate out of [0, 1]")


def transfer_efficiency(traj: dynamics.Trajectory, target_axis="x") -> EfficiencyReport:
    if target_axis not in AXES:
        raise ValueError(f"target_axis must be one of {sorted(AXES)}")
    if traj.times.size == 0:
        raise ValueError("empty trajectory")
    n0sq = float(traj.states[0] @ traj.states[0])
    eff = float(traj.states[-1, AXES[target_axis]] ** 2) / n0sq
    max_mid = float(np.max(traj.states[:, 1] ** 2)) / n0sq
    areas = None
    if traj.diagnostics is not None:
        d = traj.diagnostics
        a_p = float(np.trapezoid(d.p_values, traj.times))
        a_s = float(np.trapezoid(d.s_values, traj.times))
        a_rms = float(np.trapezoid(np.hypot(d.p_values, d.s_values), traj.times))
        areas = (a_p, a_s, a_rms)
    return EfficiencyReport(
        transfer_efficiency=min(eff, 1.0),
        max_intermediate=min(max_mid, 1.0),
        areas=areas,
    )


@dataclass(frozen=True)
class ScanResult:
    """One row per parameter value, in parameter order.

    ``errors[i]`` is ``None`` for clean rows; a failed integration leaves
    its message there and NaNs in the numeric columns, and the scan
    continues.
    """

    parameter: str
    values: np.ndarray
    final_states: np.ndarray
    rms_areas: np.ndarray
    max_rate_ratio: np.ndarray
    norm_drift: np.ndarray
    errors: tuple

    def row_count(self):
        return self.values.size


def _max_rate_ratio(times, theta, p_vals, s_vals):
    """Max |d theta/dt| / |W| where the angle is actually turning."""
    if times.size < 3:
        return 0.0
    rate = np.gradient(theta, times)
    rate = np.abs(rate)
    peak = float(np.max(rate))
    if peak == 0.0:
        return 0.0
    mask = rate >= THETA_RATE_FLOOR * peak
    mag = np.hypot(p_vals, s_vals)
    mask &= mag > 0.0
    if not np.any(mask):
        return 0.0
    return float(np.max(rate[mask] / mag[mask]))


def _run_scan(parameter, values, schedules, mapping, x0, method, steps, rtol, window):
    n = len(values)
    finals = np.full((n, 3), np.nan)
    areas = np.full(n, np.nan)
    ratios = np.full(n, np.nan)
    drifts = np.full(n, np.nan)
    errors = [None] * n
    for i, schedule in enumerate(schedules):
        lo, hi = schedule.window() if window is None else window
        field = systems.to_angular_velocity(mapping, schedule)
        grid = dynamics.time_grid(lo, hi, steps)
        try:
            traj = dynamics.integrate(field, x0, grid, method=method, rtol=rtol)
        except dynamics.IntegrationError as exc:
            errors[i] = str(exc)
            continue
        d = traj.diagnostics
        finals[i], drifts[i] = traj.final_state, traj.norm_drift
        areas[i] = float(np.trapezoid(np.hypot(d.p_values, d.s_values), traj.times))
        ratios[i] = _max_rate_ratio(traj.times, d.mixing_angle, d.p_values, d.s_values)
    return ScanResult(
        parameter=parameter,
        values=np.asarray(values, dtype=float),
        final_states=finals,
        rms_areas=areas,
        max_rate_ratio=ratios,
        norm_drift=drifts,
        errors=tuple(errors),
    )


def delay_scan(
    base: pulses.PulseSchedule,
    delays,
    system: systems.SystemMapping,
    x0=(0.0, 0.0, 1.0),
    method="rk4",
    steps=dynamics.DEFAULT_STEPS,
    rtol=dynamics.DEFAULT_RTOL,
    window=None,
):
    """Final states vs pulse delay.

    For each delay tau the schedule is rebuilt with the p pulse centered at
    -tau/2 and the s pulse at +tau/2 (same amplitudes and widths as
    ``base``), then integrated from ``x0`` over that schedule's own window
    unless a fixed ``window`` is given.  Windows and grids are symmetric in
    time, so the delay-sign symmetry of the final z component is preserved
    to round-off.
    """
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1 or delays.size == 0 or not np.all(np.isfinite(delays)):
        raise ValueError("delays must be a finite 1-d sequence")
    schedules = [
        pulses.PulseSchedule.from_delay(
            base.p_pulse.amplitude,
            float(tau),
            width=base.p_pulse.width,
            s_amplitude=base.s_pulse.amplitude,
        )
        for tau in delays
    ]
    return _run_scan("delay", delays, schedules, system, x0, method, steps, rtol, window)


def area_scan(
    base: pulses.PulseSchedule,
    amplitudes,
    system: systems.SystemMapping,
    x0=(0.0, 0.0, 1.0),
    method="rk4",
    steps=dynamics.DEFAULT_STEPS,
    rtol=dynamics.DEFAULT_RTOL,
    window=None,
):
    """Final states vs peak amplitude at fixed pulse shape and delay."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.ndim != 1 or amplitudes.size == 0 or np.any(amplitudes < 0):
        raise ValueError("amplitudes must be a nonnegative 1-d sequence")
    schedules = [base.with_amplitude(float(a)) for a in amplitudes]
    if window is None:
        # one common window: the shape is fixed, only amplitudes change
        window = base.window()
    return _run_scan(
        "amplitude", amplitudes, schedules, system, x0, method, steps, rtol, window
    )


@dataclass(frozen=True)
class AdiabaticityRecord:
    a_p: float
    a_s: float
    a_rms: float
    max_theta_rate_ratio: float


def adiabaticity_report(
    schedule: pulses.PulseSchedule, window=None, steps=dynamics.DEFAULT_STEPS
) -> AdiabaticityRecord:
    """Pulse areas plus the peak mixing-angle rate over the field strength.

    The ratio |d theta/dt| / sqrt(p^2 + s^2) is evaluated by centered finite
    differences on the quadrature grid, restricted to samples where the
    angle is turning at a meaningful rate (see :data:`THETA_RATE_FLOOR`).
    Large values flag a nonadiabatic crossing, e.g. widely separated pulses.
    """
    if window is None:
        window = schedule.window()
    t = np.linspace(window[0], window[1], steps + 1)
    p_vals = schedule.p(t)
    s_vals = schedule.s(t)
    theta, _ = pulses.mixing_angles(p_vals, s_vals)
    return AdiabaticityRecord(
        a_p=float(np.trapezoid(p_vals, t)),
        a_s=float(np.trapezoid(s_vals, t)),
        a_rms=float(np.trapezoid(np.hypot(p_vals, s_vals), t)),
        max_theta_rate_ratio=_max_rate_ratio(t, theta, p_vals, s_vals),
    )
