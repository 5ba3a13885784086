import math

import numpy as np
import pytest

from torque_stirap.dynamics import AngularVelocityField, integrate, time_grid
from torque_stirap.pulses import PulseSchedule
from torque_stirap.systems import (
    SystemMapping,
    lorentz_adiabaticity_bound,
    to_angular_velocity,
)

SQRT_PI = math.sqrt(math.pi)


class TestMappingTable:
    def test_quantum_field(self):
        omega = 6.0
        sched = PulseSchedule.from_delay(omega, 0.0, s_amplitude=omega)
        field = to_angular_velocity(SystemMapping("quantum"), sched)
        # half-coupling structure: both components positive
        w = field.sample(np.array([0.0]))[0]
        assert w == pytest.approx([omega / 2, 0.0, omega / 2])

    def test_quantum_s_only(self):
        omega = 6.0
        sched = PulseSchedule.from_delay(1.0, 0.0).with_amplitude(0.0, s_amplitude=omega)
        field = to_angular_velocity(SystemMapping("quantum"), sched)
        assert field.sample(np.array([0.0]))[0] == pytest.approx([0.0, 0.0, omega / 2])

    def test_lorentz_z_field(self):
        b = 3.5
        sched = PulseSchedule.from_delay(1.0, 0.0).with_amplitude(0.0, s_amplitude=b)
        field = to_angular_velocity(SystemMapping("lorentz", coupling=1.0), sched)
        assert field.sample(np.array([0.0]))[0] == pytest.approx([0.0, 0.0, -b])

    def test_coriolis_fixed_coupling(self):
        w0 = 2.2
        sched = PulseSchedule.from_delay(1.0, 0.0).with_amplitude(0.0, s_amplitude=w0)
        field = to_angular_velocity(SystemMapping("coriolis"), sched)
        assert field.sample(np.array([0.0]))[0] == pytest.approx([0.0, 0.0, -2.0 * w0])
        with pytest.raises(ValueError, match="fixed at 2"):
            SystemMapping("coriolis", coupling=1.0)

    def test_quantum_fixed_coupling(self):
        with pytest.raises(ValueError, match="fixed at 0.5"):
            SystemMapping("quantum", coupling=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown system"):
            SystemMapping("gravity")

    def test_lorentz_against_direct_force_integration(self):
        # independent check: integrate m dv/dt = -q B x v directly with the
        # raw field components B = [-p, 0, s] and compare to the adapter
        q_over_m = 1.7
        sched = PulseSchedule.from_delay(9.0, -0.8, s_amplitude=13.0)

        def direct(t):
            b = np.stack([-sched.p(t), np.zeros(np.size(t)), sched.s(t)], axis=1)
            return -q_over_m * b

        direct_field = AngularVelocityField(sample=direct, kind="direct")
        adapter = to_angular_velocity(SystemMapping("lorentz", coupling=q_over_m), sched)
        lo, hi = sched.window()
        x0 = (0.4, -0.3, 0.86)
        a = integrate(direct_field, x0, time_grid(lo, hi, 8192), method="rk4").final_state
        b = integrate(
            adapter, x0, time_grid(lo, hi, 32768), method="piecewise_rotation"
        ).final_state
        assert np.linalg.norm(a - b) < 1e-6


class TestCrossSystemEquivalence:
    def test_matched_profiles_agree_in_magnitude(self):
        # same |W| profiles: quantum needs doubled drive, coriolis halved
        amp, delay = 24.0, -1.0
        runs = {}
        grid = time_grid(-6.5, 6.5, 2048)
        for kind, a in (
            ("quantum", 2 * amp),
            ("lorentz", amp),
            ("magnetization", amp),
            ("coriolis", amp / 2),
        ):
            sched = PulseSchedule.from_delay(a, delay)
            field = to_angular_velocity(SystemMapping(kind), sched)
            runs[kind] = integrate(field, (0, 0, 1), grid, method="piecewise_rotation").states
        for kind in ("lorentz", "magnetization", "coriolis"):
            assert float(np.max(np.abs(np.abs(runs[kind]) - np.abs(runs["quantum"])))) < 1e-8

    def test_classical_is_reflected_quantum(self):
        # documented sign relation: classical trajectory = (-x, y, z) of the
        # rotation-picture trajectory for matched profiles
        amp, delay = 18.0, -1.2
        grid = time_grid(-6.6, 6.6, 2048)
        q = integrate(
            to_angular_velocity(SystemMapping("quantum"), PulseSchedule.from_delay(2 * amp, delay)),
            (0, 0, 1),
            grid,
            method="piecewise_rotation",
        ).states
        lor = integrate(
            to_angular_velocity(SystemMapping("lorentz"), PulseSchedule.from_delay(amp, delay)),
            (0, 0, 1),
            grid,
            method="piecewise_rotation",
        ).states
        assert np.allclose(lor, q * np.array([-1.0, 1.0, 1.0]), atol=1e-12)


def dark_variable(p_value, s_value, x):
    """The dark-projection diagnostic at the first sample of a run whose
    profiles are held at ``p_value`` and ``s_value`` (under no field)."""
    field = AngularVelocityField(
        sample=lambda t: np.zeros((t.size, 3)),
        profiles=lambda t: (np.full(t.size, p_value), np.full(t.size, s_value)),
    )
    return integrate(field, x, time_grid(0.0, 1.0, 1)).diagnostics.dark_variable[0]


class TestDarkVariable:
    def test_initial_alignment(self):
        assert dark_variable(0.0, 5.0, [0, 0, 1]) == pytest.approx(1.0)

    def test_final_alignment(self):
        assert dark_variable(5.0, 0.0, [1, 0, 0]) == pytest.approx(1.0)

    def test_bright_orthogonal(self):
        x = np.array([1.0, 0.0, -1.0]) / math.sqrt(2)
        assert dark_variable(3.0, 3.0, x) == pytest.approx(0.0, abs=1e-15)

    def test_both_zero_sentinel(self):
        # undefined direction: the value held before any defined sample
        assert dark_variable(0.0, 0.0, [0, 0, 1]) == 0.0

    def test_constancy_on_counterintuitive_run(self):
        # rotation picture: the projection stays within 1% of unity
        sched = PulseSchedule.from_delay(40.0, -1.2)
        field = to_angular_velocity(SystemMapping("quantum"), sched)
        traj = integrate(field, (0, 0, 1), time_grid(*sched.window(), 4096))
        assert float(np.max(np.abs(traj.diagnostics.dark_variable - 1.0))) < 0.01


class TestIntuitiveEndpoint:
    def test_squared_components_follow_precession_angle(self):
        # intuitive order: squared final components oscillate with the
        # accumulated precession angle
        from torque_stirap.pulses import rms_area

        base = PulseSchedule.from_delay(40.0, +1.2)
        grid = time_grid(*base.window(), 8192)
        for amp in (36.0, 40.0, 43.0):
            sched = base.with_amplitude(amp)
            theta = rms_area(sched)
            assert theta > 100
            fin = integrate(
                to_angular_velocity(SystemMapping("lorentz"), sched),
                (0, 0, 1),
                grid,
                method="piecewise_rotation",
            ).final_state
            assert abs(fin[0] ** 2 - math.cos(theta) ** 2) < 0.02
            assert abs(fin[1] ** 2 - math.sin(theta) ** 2) < 0.02
            assert fin[2] ** 2 < 0.02


class TestAdiabaticityBound:
    def test_gaussian_effective_length(self):
        # q B0/m = 20/T against the pulse's effective length L = v sqrt(pi) T
        res = lorentz_adiabaticity_bound(m=1.0, v=1.0, q=1.0, b0=20.0, l=SQRT_PI)
        assert res.margin == pytest.approx(20.0 * SQRT_PI)
        assert res.satisfied

    def test_boundary_not_satisfied(self):
        res = lorentz_adiabaticity_bound(m=2.0, v=3.0, q=1.0, b0=2.0, l=3.0)
        assert res.margin == pytest.approx(1.0)
        assert not res.satisfied

    def test_zero_charge(self):
        res = lorentz_adiabaticity_bound(m=1.0, v=1.0, q=0.0, b0=5.0, l=1.0)
        assert res.margin == 0.0
        assert not res.satisfied

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            lorentz_adiabaticity_bound(m=0.0, v=1.0, q=1.0, b0=1.0, l=1.0)
