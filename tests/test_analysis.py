import math

import numpy as np
import pytest

from torque_stirap.analysis import (
    adiabaticity_report,
    area_scan,
    delay_scan,
    transfer_efficiency,
)
from torque_stirap.dynamics import AngularVelocityField, integrate, time_grid
from torque_stirap.pulses import PulseSchedule, refine_quadrature, rms_area
from torque_stirap.systems import SystemMapping, to_angular_velocity

SQRT_PI = math.sqrt(math.pi)


def run_reference(amplitude=20.0, delay=-1.2, steps=4096, kind="lorentz"):
    sched = PulseSchedule.from_delay(amplitude, delay)
    field = to_angular_velocity(SystemMapping(kind), sched)
    return integrate(field, (0, 0, 1), time_grid(*sched.window(), steps))


class TestTransferEfficiency:
    def test_reference_run(self):
        # measured pins for the z -> x transfer at drive 20/T
        rep = transfer_efficiency(run_reference(), "x")
        assert rep.transfer_efficiency > 0.99
        assert rep.max_intermediate == pytest.approx(4.50e-3, abs=2e-4)
        a_p, a_s, a_rms = rep.areas
        assert a_p == pytest.approx(20.0 * SQRT_PI, rel=1e-6)
        assert a_s == pytest.approx(20.0 * SQRT_PI, rel=1e-6)
        assert a_rms == pytest.approx(rms_area(PulseSchedule.from_delay(20.0, -1.2)), rel=1e-9)

    def test_no_field_keeps_start(self):
        field = AngularVelocityField.constant([0.0, 0.0, 0.0])
        traj = integrate(field, (0, 0, 1), time_grid(0, 10, 64))
        rep = transfer_efficiency(traj, "z")
        assert rep.transfer_efficiency == pytest.approx(1.0)
        assert rep.max_intermediate == 0.0
        assert rep.areas is None

    def test_intuitive_full_revolution(self):
        # rms area exactly 2*pi*k leaves the precession aligned with x
        sched1 = PulseSchedule.from_delay(1.0, +1.2)
        unit = rms_area(sched1, steps=1 << 15)
        k = 16  # ~100 rad total angle, same scale as the reference scans
        amp = 2 * math.pi * k / unit
        sched = sched1.with_amplitude(amp)
        field = to_angular_velocity(SystemMapping("lorentz"), sched)
        traj = integrate(field, (0, 0, 1), time_grid(*sched.window(), 8192))
        rep = transfer_efficiency(traj, "x")
        assert rep.transfer_efficiency == pytest.approx(1.0, abs=0.02)

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="target_axis"):
            transfer_efficiency(run_reference(steps=64), "w")


class TestDelayScan:
    def test_counterintuitive_plateau_point(self):
        base = PulseSchedule.from_delay(40.0, -1.2)
        scan = delay_scan(base, [-1.2], SystemMapping("lorentz"))
        assert abs(scan.final_states[0, 0]) > 0.99
        assert scan.errors == (None,)

    def test_z_symmetric_in_delay_sign(self):
        base = PulseSchedule.from_delay(40.0, -1.2)
        taus = [0.4, 0.9, 1.7, 2.6]
        scan = delay_scan(
            base,
            [-t for t in reversed(taus)] + taus,
            SystemMapping("lorentz"),
            method="piecewise_rotation",
            steps=2048,
        )
        z = scan.final_states[:, 2]
        assert np.max(np.abs(z - z[::-1])) < 1e-6

    def test_zero_delay_regression(self):
        # at zero delay the axis is fixed at 45 degrees, so the endpoint has
        # the closed form of a single rotation by the full rms area
        base = PulseSchedule.from_delay(40.0, 0.0)
        ref_area = refine_quadrature(
            lambda t: np.hypot(base.p(t), base.s(t)), base.window(), tol=1e-11
        )
        kx, kz = 1 / math.sqrt(2), -1 / math.sqrt(2)
        ca, sa = math.cos(ref_area), math.sin(ref_area)
        expected = np.array(
            [kx * kz * (1 - ca), -kx * sa, ca + kz * kz * (1 - ca)]
        )
        scan = delay_scan(
            base, [0.0], SystemMapping("lorentz"), method="piecewise_rotation", steps=1 << 14
        )
        assert np.allclose(scan.final_states[0], expected, atol=1e-6)
        fine = delay_scan(
            base, [0.0], SystemMapping("lorentz"), method="adaptive", steps=1 << 14
        )
        assert np.max(np.abs(scan.final_states - fine.final_states)) < 1e-8

    def test_rows_ordered_and_diagnosed(self):
        # rk4 norm drift depends on how much the state actually precesses:
        # the counterintuitive row follows the field (drift ~1e-9) while the
        # intuitive mirror precesses at full amplitude (drift ~3e-6)
        base = PulseSchedule.from_delay(28.0, -1.2)
        scan = delay_scan(base, [-1.0, 0.0, 1.0], SystemMapping("lorentz"), steps=4096)
        assert scan.row_count() == 3
        assert np.all(np.isfinite(scan.final_states))
        assert scan.norm_drift[0] < 1e-6
        assert np.all(scan.norm_drift < 1e-5)
        assert scan.rms_areas[0] == pytest.approx(scan.rms_areas[2], rel=1e-9)

    def test_determinism_under_rerun(self):
        base = PulseSchedule.from_delay(40.0, -1.2)
        taus = np.linspace(-1.5, 1.5, 7)
        a = delay_scan(base, taus, SystemMapping("lorentz"), steps=512)
        b = delay_scan(base, taus, SystemMapping("lorentz"), steps=512)
        for name in ("final_states", "rms_areas", "max_rate_ratio", "norm_drift"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_failed_rows_annotated_and_scan_continues(self):
        # an impossible tolerance makes the adaptive stepper underflow; the
        # scan must record the failure per row instead of raising
        base = PulseSchedule.from_delay(40.0, -1.2)
        scan = delay_scan(
            base, [-1.2, 1.2], SystemMapping("lorentz"),
            method="adaptive", steps=64, rtol=1e-18,
        )
        assert scan.row_count() == 2
        for i in range(2):
            assert scan.errors[i] is not None
            assert "stiffness/accuracy failure" in scan.errors[i]
            assert np.all(np.isnan(scan.final_states[i]))


class TestAreaScan:
    def test_oscillation_extremes(self):
        # pick amplitudes putting the precession angle at pi/2 and 0 mod pi:
        # y-dominant and x-dominant final states
        base = PulseSchedule.from_delay(1.0, +1.2)
        unit = rms_area(base, steps=1 << 15)
        k = 32  # around 100 rad
        amps = [
            (k * math.pi + math.pi / 2) / unit,  # sin^2 = 1
            (k * math.pi) / unit,  # cos^2 = 1
        ]
        scan = area_scan(
            PulseSchedule.from_delay(40.0, +1.2),
            amps,
            SystemMapping("lorentz"),
            method="piecewise_rotation",
            steps=8192,
        )
        y_dom = scan.final_states[0]
        x_dom = scan.final_states[1]
        assert y_dom[1] ** 2 > 0.98
        assert x_dom[0] ** 2 > 0.98

    def test_counterintuitive_plateau_no_oscillation(self):
        # same amplitude sweep at negative delay: efficiency stays flat
        amps = np.linspace(50.0 / 2.9993, 200.0 / 2.9993, 9)
        scan = area_scan(
            PulseSchedule.from_delay(40.0, -1.2),
            amps,
            SystemMapping("lorentz"),
            method="piecewise_rotation",
            steps=4096,
        )
        eff = scan.final_states[:, 0] ** 2
        big = scan.rms_areas >= 100.0
        assert np.all(eff[big] > 1.0 - 1e-3)
        assert np.max(eff[big]) - np.min(eff[big]) < 1e-3

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            area_scan(
                PulseSchedule.from_delay(40.0, 1.2), [-1.0], SystemMapping("lorentz")
            )


class TestAdiabaticityReport:
    def test_reference_areas(self):
        rep = adiabaticity_report(PulseSchedule.from_delay(20.0, -1.2))
        assert rep.a_p == pytest.approx(20.0 * SQRT_PI, rel=1e-9)
        assert rep.a_s == pytest.approx(20.0 * SQRT_PI, rel=1e-9)
        assert rep.max_theta_rate_ratio == pytest.approx(0.0608, abs=0.002)

    def test_separated_pulses_flagged(self):
        # crossing happens where the fields are tiny: ratio blows up
        rep = adiabaticity_report(PulseSchedule.from_delay(40.0, -6.0))
        assert rep.max_theta_rate_ratio == pytest.approx(859.06, rel=1e-3)
        ok = adiabaticity_report(PulseSchedule.from_delay(40.0, -1.2))
        assert ok.max_theta_rate_ratio < 0.05

    def test_scaling_leaves_areas_invariant(self):
        sched = PulseSchedule.from_delay(13.0, -0.9)
        rep = adiabaticity_report(sched)
        k = 2.0
        scaled = PulseSchedule(
            p_pulse=sched.p_pulse.__class__.gaussian(
                k * sched.p_pulse.amplitude,
                sched.p_pulse.center / k,
                sched.p_pulse.width / k,
            ),
            s_pulse=sched.s_pulse.__class__.gaussian(
                k * sched.s_pulse.amplitude,
                sched.s_pulse.center / k,
                sched.s_pulse.width / k,
            ),
            delay=sched.delay / k,
        )
        rep2 = adiabaticity_report(scaled)
        assert rep2.a_p == pytest.approx(rep.a_p, abs=1e-9)
        assert rep2.a_s == pytest.approx(rep.a_s, abs=1e-9)
        assert rep2.a_rms == pytest.approx(rep.a_rms, abs=1e-9)
