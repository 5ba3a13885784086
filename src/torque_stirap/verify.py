"""Built-in verification: cross-solver equivalence, oracle convergence,
and the conservation/property checks.

Each check produces a :class:`CheckResult` with the measured value and the
threshold it is held to, so the CLI can print a pass/fail table and emit a
machine-readable summary.  All checks are deterministic (fixed seeds, fixed
grids) and the full suite runs in a few seconds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, quantum, systems
from .pulses import PulseSchedule

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    comparison: str  # "<" or ">"
    passed: bool
    detail: str = ""


def _check(name, value, threshold, comparison, detail=""):
    if comparison == "<":
        ok = value < threshold
    elif comparison == ">":
        ok = value > threshold
    else:
        raise ValueError(f"bad comparison {comparison!r}")
    return CheckResult(
        name=name,
        value=float(value),
        threshold=float(threshold),
        comparison=comparison,
        passed=bool(ok),
        detail=detail,
    )


def _reference_schedule(amplitude=20.0):
    return PulseSchedule.from_delay(amplitude, -1.2)


def _grid_for(schedule, steps=dynamics.DEFAULT_STEPS):
    lo, hi = schedule.window()
    return dynamics.time_grid(lo, hi, steps)


def check_reference_alignment():
    """Counterintuitive transfer turns z into x with |x| > 0.99."""
    sched = _reference_schedule()
    field = systems.to_angular_velocity(systems.SystemMapping("lorentz"), sched)
    traj = dynamics.integrate(field, (0.0, 0.0, 1.0), _grid_for(sched))
    return _check(
        "reference_final_alignment",
        abs(traj.final_state[0]),
        0.99,
        ">",
        detail="final |x| for the counterintuitive reference run",
    )


def check_cross_solver():
    """Three-state solver mapped to the rotation picture vs torque kernel.

    The two sides use different integration schemes (adaptive embedded pair
    vs piecewise exact rotations), so agreement here exercises the mapping
    algebra and both solvers at once.
    """
    sched = _reference_schedule()
    grid = _grid_for(sched, steps=1024)
    qt = quantum.evolve_schrodinger(sched, (1.0, 0.0, 0.0), grid)
    r_states, _residual = qt.bloch_states()
    field = systems.to_angular_velocity(systems.SystemMapping("quantum"), sched)
    fine = dynamics.time_grid(grid[0], grid[-1], 1 << 15)
    traj = dynamics.integrate(field, (0.0, 0.0, 1.0), fine, method="piecewise_rotation")
    diff = float(np.max(np.abs(r_states - traj.states[:: (1 << 15) // 1024])))
    return _check(
        "cross_solver_max_diff",
        diff,
        1e-6,
        "<",
        detail="pointwise amplitude-map vs kernel difference",
    )


def check_adapter_equivalence():
    """All four system adapters with matched |W| profiles agree.

    Signed trajectories differ by fixed reflections of the documented sign
    conventions, so absolute components are compared.
    """
    a = 24.0
    delay = -1.0
    sched_amp = {
        "quantum": 2.0 * a,  # half-Rabi coupling: doubled drive matches |W|
        "lorentz": a,
        "magnetization": a,
        "coriolis": a / 2.0,  # fixed kinematic coupling 2
    }
    states = {}
    for kind, amp in sched_amp.items():
        sched = PulseSchedule.from_delay(amp, delay)
        field = systems.to_angular_velocity(systems.SystemMapping(kind), sched)
        grid = dynamics.time_grid(-6.5, 6.5, 4096)
        traj = dynamics.integrate(field, (0.0, 0.0, 1.0), grid, method="piecewise_rotation")
        states[kind] = np.abs(traj.states)
    kinds = list(states)
    worst = 0.0
    for i in range(len(kinds)):
        for j in range(i + 1, len(kinds)):
            worst = max(worst, float(np.max(np.abs(states[kinds[i]] - states[kinds[j]]))))
    return _check(
        "adapter_equivalence_max_diff",
        worst,
        1e-8,
        "<",
        detail="max |component| mismatch across quantum/lorentz/magnetization/coriolis",
    )


def _order_study_config():
    sched = PulseSchedule.from_delay(5.0, -1.2)
    lo, hi = sched.window()
    field = systems.to_angular_velocity(systems.SystemMapping("lorentz"), sched)
    return field, lo, hi


@functools.lru_cache(maxsize=1)
def _order_study_reference():
    """Finely-stepped piecewise-rotation oracle, shared by two checks."""
    field, lo, hi = _order_study_config()
    traj = dynamics.integrate(
        field, (0.0, 0.0, 1.0), dynamics.time_grid(lo, hi, 1 << 18),
        method="piecewise_rotation",
    )
    return traj.final_state


def check_rk4_order():
    """rk4 converges to the piecewise-rotation oracle at 4th order."""
    field, lo, hi = _order_study_config()
    x0 = (0.0, 0.0, 1.0)
    ref = _order_study_reference()
    errs = []
    for n in (256, 512, 1024):
        fin = dynamics.integrate(field, x0, dynamics.time_grid(lo, hi, n)).final_state
        errs.append(float(np.linalg.norm(fin - ref)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    return _check(
        "rk4_convergence_order",
        min(orders),
        3.8,
        ">",
        detail=f"step-halving orders {['%.2f' % o for o in orders]}, errors {['%.2e' % e for e in errs]}",
    )


def check_adaptive_tolerance():
    """Adaptive global error stays within 100x the requested tolerance."""
    field, lo, hi = _order_study_config()
    x0 = (0.0, 0.0, 1.0)
    ref = _order_study_reference()
    worst_ratio = 0.0
    for tol in (1e-6, 1e-8):
        fin = dynamics.integrate(
            field, x0, dynamics.time_grid(lo, hi, 64), method="adaptive", rtol=tol
        ).final_state
        worst_ratio = max(worst_ratio, float(np.linalg.norm(fin - ref)) / tol)
    return _check(
        "adaptive_error_over_tolerance",
        worst_ratio,
        100.0,
        "<",
        detail="max over rtol in {1e-6, 1e-8} of final error / rtol",
    )


def check_rotation_norm_drift():
    sched = PulseSchedule.from_delay(40.0, -1.2)
    field = systems.to_angular_velocity(systems.SystemMapping("lorentz"), sched)
    traj = dynamics.integrate(
        field, (0.0, 0.0, 1.0), _grid_for(sched), method="piecewise_rotation"
    )
    return _check("rotation_norm_drift", traj.norm_drift, 1e-12, "<")


def check_rk4_norm_drift():
    sched = PulseSchedule.from_delay(40.0, -1.2)
    field = systems.to_angular_velocity(systems.SystemMapping("lorentz"), sched)
    traj = dynamics.integrate(field, (0.0, 0.0, 1.0), _grid_for(sched))
    return _check("rk4_norm_drift", traj.norm_drift, 1e-6, "<")


def check_time_reversal():
    """Forward then backward returns the start within 10x the one-way error."""
    sched = _reference_schedule()
    field = systems.to_angular_velocity(systems.SystemMapping("lorentz"), sched)
    lo, hi = sched.window()
    x0 = np.array([0.0, 0.0, 1.0])
    n = 2048
    fwd = dynamics.integrate(field, x0, dynamics.time_grid(lo, hi, n)).final_state
    fine = dynamics.integrate(field, x0, dynamics.time_grid(lo, hi, 2 * n)).final_state
    one_way = float(np.linalg.norm(fwd - fine)) / (1.0 - 2.0**-4)

    sample = field.sample
    rev_field = dynamics.AngularVelocityField(
        sample=lambda t: -sample(lo + hi - t), kind="reversed"
    )
    back = dynamics.integrate(rev_field, fwd, dynamics.time_grid(lo, hi, n)).final_state
    roundtrip = float(np.linalg.norm(back - x0))
    return _check(
        "time_reversal_roundtrip",
        roundtrip,
        10.0 * one_way,
        "<",
        detail=f"one-way error estimate {one_way:.3e}",
    )


def check_scaling_invariance():
    """W -> k W(k t) with grid t/k leaves the final state unchanged."""
    sched = _reference_schedule()
    field = systems.to_angular_velocity(systems.SystemMapping("lorentz"), sched)
    lo, hi = sched.window()
    x0 = (0.0, 0.0, 1.0)
    base = dynamics.integrate(field, x0, dynamics.time_grid(lo, hi, 4096)).final_state
    k = 3.0
    sample = field.sample
    fld2 = dynamics.AngularVelocityField(sample=lambda t: k * sample(k * t), kind="scaled")
    scaled_fin = dynamics.integrate(
        fld2, x0, dynamics.time_grid(lo / k, hi / k, 4096)
    ).final_state
    return _check(
        "scaling_invariance",
        float(np.linalg.norm(scaled_fin - base)),
        1e-8,
        "<",
        detail="k = 3 time/strength rescale",
    )


def check_eigen_residuals():
    rng = np.random.default_rng(20090731)
    worst = 0.0
    for _ in range(64):
        p, s = rng.uniform(0.0, 50.0, size=2)
        if p == 0.0 and s == 0.0:
            continue
        basis = quantum.adiabatic_basis(p, s)
        h = quantum.RwaHamiltonian(p, s).matrix()
        for vec, eps in (
            (basis.phi_plus, basis.eps_plus),
            (basis.phi_zero, basis.eps_zero),
            (basis.phi_minus, basis.eps_minus),
        ):
            worst = max(worst, float(np.linalg.norm(h @ vec - eps * vec)))
    return _check("eigen_residuals", worst, 1e-12, "<", detail="64 seeded random couplings")


def check_dark_constancy():
    """The dark projection stays at 1 through the counterintuitive run.

    Evaluated in the rotation picture (quantum adapter at matched |W|,
    i.e. doubled drive amplitude), where the projection is sign-definite.
    """
    sched = PulseSchedule.from_delay(40.0, -1.2)
    field = systems.to_angular_velocity(systems.SystemMapping("quantum"), sched)
    traj = dynamics.integrate(field, (0.0, 0.0, 1.0), _grid_for(sched))
    dev = float(np.max(np.abs(traj.diagnostics.dark_variable - 1.0)))
    return _check("dark_variable_constancy", dev, 0.01, "<")


def check_delay_symmetry():
    """Final z does not depend on the sign of the delay."""
    worst = 0.0
    for tau in (0.4, 0.8, 1.2, 2.0, 3.0):
        finals = []
        for sign in (+1.0, -1.0):
            sched = PulseSchedule.from_delay(40.0, sign * tau)
            field = systems.to_angular_velocity(systems.SystemMapping("lorentz"), sched)
            traj = dynamics.integrate(
                field, (0.0, 0.0, 1.0), _grid_for(sched), method="piecewise_rotation"
            )
            finals.append(traj.final_state[2])
        worst = max(worst, abs(finals[0] - finals[1]))
    return _check("delay_sign_symmetry", worst, 1e-6, "<", detail="5 delay pairs at B0=40")


ALL_CHECKS = (
    check_reference_alignment,
    check_cross_solver,
    check_adapter_equivalence,
    check_rk4_order,
    check_adaptive_tolerance,
    check_rotation_norm_drift,
    check_rk4_norm_drift,
    check_time_reversal,
    check_scaling_invariance,
    check_eigen_residuals,
    check_dark_constancy,
    check_delay_symmetry,
)


def run_all():
    """Run every check; returns the list of results in declaration order."""
    return [fn() for fn in ALL_CHECKS]
