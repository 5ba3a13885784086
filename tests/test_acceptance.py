"""Acceptance suite: one test per criterion, one printed verdict line each.

Each criterion is asserted at its stated tolerance.  Two sub-checks fail on
physics grounds: the measured dynamics land outside the stated bounds by a
small but converged margin (verified against two independent integrators and
the three-state solver).  The assertion messages carry the measured values;
README.md section "Acceptance status" has the analysis.
"""

import math
import time

import numpy as np

from torque_stirap import verify
from torque_stirap.analysis import area_scan, delay_scan
from torque_stirap.dynamics import integrate, time_grid
from torque_stirap.pulses import PulseSchedule, refine_quadrature
from torque_stirap.systems import SystemMapping, to_angular_velocity


def _verdict(name, clauses):
    """Print one pass/fail line; return list of failed clause descriptions."""
    failed = [desc for ok, desc in clauses if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = "; ".join(desc for _, desc in clauses)
    print(f"ACCEPTANCE {name}: {status}  [{detail}]")
    return failed


def test_criterion_1_reference_transfer_reproduction():
    """Counterintuitive transfer at drive 20/T: |x| > 0.99, max|y| < 0.05, <1s."""
    t0 = time.perf_counter()
    sched = PulseSchedule.from_delay(20.0, -1.2)
    field = to_angular_velocity(SystemMapping("lorentz"), sched)
    traj = integrate(field, (0.0, 0.0, 1.0), time_grid(*sched.window(), 4096))
    elapsed = time.perf_counter() - t0
    final_x = abs(traj.final_state[0])
    max_y = float(np.max(np.abs(traj.states[:, 1])))
    failed = _verdict(
        "1 counterintuitive-transfer",
        [
            (final_x > 0.99, f"final |x|={final_x:.5f} > 0.99"),
            (max_y < 0.05, f"max|y|={max_y:.5f} < 0.05"),
            (elapsed < 1.0, f"runtime {elapsed:.2f}s < 1s"),
        ],
    )
    assert not failed, f"failed clauses: {failed}"


def test_criterion_2_delay_scan_structure():
    """Delay scan at drive 40/T over [-3T, 3T]: plateau, oscillation, z symmetry."""
    t0 = time.perf_counter()
    taus = -3.0 + 0.025 * np.arange(241)
    scan = delay_scan(
        PulseSchedule.from_delay(40.0, -1.2), taus, SystemMapping("lorentz")
    )
    elapsed = time.perf_counter() - t0
    assert scan.row_count() == 241
    assert all(e is None for e in scan.errors)
    fin = scan.final_states
    eff = fin[:, 0] ** 2

    # (a) plateau: efficiency > 0.98 on -2T..-0.6T
    plateau = (taus >= -2.0 - 1e-12) & (taus <= -0.6 + 1e-12)
    plateau_min = float(np.min(eff[plateau]))
    bad_plateau = [
        f"tau={t:.3f}: eff={e:.4f}" for t, e in zip(taus[plateau], eff[plateau]) if e <= 0.98
    ]

    # (b) oscillatory exchange between x and y for tau > 0.6T, with the
    # final state staying on the x/y circle over the mirror of the plateau
    osc = taus > 0.6 + 1e-12
    exchange = fin[osc, 0] ** 2 - fin[osc, 1] ** 2
    sign_changes = int(np.sum(np.abs(np.diff(np.sign(exchange))) > 1))
    mirror = (taus > 0.6 + 1e-12) & (taus <= 2.0 + 1e-12)
    xy_circle_min = float(np.min(fin[mirror, 0] ** 2 + fin[mirror, 1] ** 2))

    # (c) final z independent of the delay sign, every scanned pair
    z = fin[:, 2]
    z_asym = float(np.max(np.abs(z - z[::-1])))

    failed = _verdict(
        "2 delay-scan-structure",
        [
            (not bad_plateau,
             f"(a) plateau min eff={plateau_min:.4f} > 0.98"
             + (f" (failing: {', '.join(bad_plateau)})" if bad_plateau else "")),
            (sign_changes >= 3, f"(b) x/y exchange sign changes={sign_changes} >= 3"),
            (xy_circle_min > 0.98, f"(b) min x^2+y^2 on (0.6T, 2T]={xy_circle_min:.4f} > 0.98"),
            (z_asym < 1e-6, f"(c) max |vz(tau)-vz(-tau)|={z_asym:.2e} < 1e-6"),
            (elapsed < 30.0, f"runtime {elapsed:.1f}s < 30s single-threaded"),
        ],
    )
    assert not failed, f"failed clauses: {failed}"


def test_criterion_3_oscillation_law():
    """Intuitive ordering: squared components follow the precession angle law."""
    base = PulseSchedule.from_delay(40.0, +1.2)
    unit = refine_quadrature(
        lambda t: np.hypot(PulseSchedule.from_delay(1.0, 1.2).p(t),
                           PulseSchedule.from_delay(1.0, 1.2).s(t)),
        base.window(),
        tol=1e-11,
    )
    amps = np.linspace(100.0 / unit, 130.0 / unit, 41)
    scan = area_scan(base, amps, SystemMapping("lorentz"),
                     method="piecewise_rotation", steps=8192)
    worst = 0.0
    for i in range(scan.row_count()):
        theta = scan.rms_areas[i]  # accumulated precession angle
        assert 100.0 - 1e-6 <= theta <= 130.0 + 1e-6
        x2, y2, z2 = scan.final_states[i] ** 2
        worst = max(
            worst,
            abs(x2 - math.cos(theta) ** 2),
            abs(y2 - math.sin(theta) ** 2),
            z2,
        )
    failed = _verdict(
        "3 oscillation-law",
        [(worst < 0.02, f"worst per-component deviation={worst:.4f} < 0.02 over 41 areas")],
    )
    assert not failed, f"failed clauses: {failed}"


def test_criterion_4_cross_solver_equivalence():
    """Quantum solution mapped to the rotation picture matches the kernel."""
    cross = verify.check_cross_solver()
    adapters = verify.check_adapter_equivalence()
    failed = _verdict(
        "4 cross-solver-equivalence",
        [
            (cross.passed, f"solver-vs-kernel max diff={cross.value:.2e} < 1e-6"),
            (adapters.passed, f"adapter |component| mismatch={adapters.value:.2e} < 1e-8"),
        ],
    )
    assert not failed, f"failed clauses: {failed}"


def test_criterion_5_oracle_equivalence():
    """rk4/adaptive converge to the rotation oracle; the oracle conserves norm."""
    order = verify.check_rk4_order()
    adaptive = verify.check_adaptive_tolerance()
    drift = verify.check_rotation_norm_drift()
    # "always": random schedules, both orderings
    rng = np.random.default_rng(77)
    worst_drift = drift.value
    for _ in range(5):
        sched = PulseSchedule.from_delay(
            rng.uniform(5, 45), rng.uniform(-2.5, 2.5), width=rng.uniform(0.5, 1.5)
        )
        field = to_angular_velocity(SystemMapping("lorentz"), sched)
        traj = integrate(
            field, (0, 0, 1), time_grid(*sched.window(), 2048), method="piecewise_rotation"
        )
        worst_drift = max(worst_drift, traj.norm_drift)
    failed = _verdict(
        "5 oracle-equivalence",
        [
            (order.passed, f"rk4 observed order={order.value:.2f} >= 3.8"),
            (adaptive.passed, f"adaptive error/tol={adaptive.value:.2f} < 100"),
            (worst_drift < 1e-12, f"rotation norm drift={worst_drift:.2e} < 1e-12"),
        ],
    )
    assert not failed, f"failed clauses: {failed}"


def test_criterion_6_conservation_property_suite():
    """The full verification suite is green (verify exits 0)."""
    results = verify.run_all()
    by_name = {r.name: r for r in results}
    named = (
        "rk4_norm_drift",
        "time_reversal_roundtrip",
        "scaling_invariance",
        "eigen_residuals",
        "dark_variable_constancy",
    )
    clauses = [
        (by_name[n].passed, f"{n}={by_name[n].value:.2e}") for n in named
    ]
    clauses.append(
        (all(r.passed for r in results),
         f"all {len(results)} checks green (exit status 0)")
    )
    failed = _verdict("6 conservation-property-suite", clauses)
    assert not failed, f"failed clauses: {failed}"
