"""Experiment drivers: efficiency metrics and delay/area scans.

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
    "transfer_efficiency",
    "delay_scan",
    "area_scan",
]

AXES = {"x": 0, "y": 1, "z": 2}


@dataclass(frozen=True)
class EfficiencyReport:
    """Squared-component transfer summary for one trajectory.

    ``transfer_efficiency`` is the final target component squared over the
    initial norm squared; ``max_intermediate`` is the largest y-component
    square along the way (the middle-state population analog).
    """

    transfer_efficiency: float
    max_intermediate: float

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
    return EfficiencyReport(
        transfer_efficiency=min(eff, 1.0), max_intermediate=min(max_mid, 1.0)
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
    norm_drift: np.ndarray
    errors: tuple

    def row_count(self):
        return self.values.size


def _run_scan(parameter, values, schedules, mapping, x0, method, steps, rtol, window):
    n = len(values)
    finals = np.full((n, 3), np.nan)
    areas = np.full(n, np.nan)
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
    return ScanResult(
        parameter=parameter,
        values=np.asarray(values, dtype=float),
        final_states=finals,
        rms_areas=areas,
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
