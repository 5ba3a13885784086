import math

import numpy as np
import pytest

from torque_stirap.dynamics import integrate, time_grid
from torque_stirap.pulses import PulseSchedule, rms_area
from torque_stirap.quantum import (
    RwaHamiltonian,
    adiabatic_basis,
    bloch_map,
    evolve_schrodinger,
    intuitive_populations,
)
from torque_stirap.systems import SystemMapping, to_angular_velocity


def rwa_rhs(h, c):
    """dc/dt = -i H c for the resonant three-state chain."""
    return -1j * h.matrix() @ np.asarray(c, dtype=complex)


class TestRhs:
    def test_free_system(self):
        h = RwaHamiltonian(0.0, 0.0)
        assert np.allclose(rwa_rhs(h, [1, 0, 0]), 0.0)

    def test_single_coupling_row(self):
        omega = 4.4
        h = RwaHamiltonian(omega, 0.0)
        dc = rwa_rhs(h, [1, 0, 0])
        assert dc[0] == 0
        assert dc[1] == pytest.approx(-0.5j * omega)
        assert dc[2] == 0

    def test_norm_derivative_vanishes(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            c = rng.normal(size=3) + 1j * rng.normal(size=3)
            c /= np.linalg.norm(c)
            h = RwaHamiltonian(*rng.uniform(0, 30, size=2))
            dc = rwa_rhs(h, c)
            assert abs(np.real(np.vdot(c, dc))) < 1e-14 * (1 + np.linalg.norm(dc))

    def test_matrix_symmetric_zero_diagonal(self):
        m = RwaHamiltonian(3.0, 5.0).matrix()
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0.0)


class TestAdiabaticBasis:
    def test_dark_state_without_p_field(self):
        basis = adiabatic_basis(0.0, 7.0)
        assert np.allclose(basis.phi_zero, [1, 0, 0])

    def test_dark_state_without_s_field(self):
        basis = adiabatic_basis(7.0, 0.0)
        assert np.allclose(basis.phi_zero, [0, 0, -1])

    def test_equal_couplings(self):
        basis = adiabatic_basis(3.0, 3.0)
        inv = 1 / math.sqrt(2)
        assert np.allclose(basis.phi_zero, [inv, 0, -inv])

    def test_both_zero_sentinel(self):
        assert adiabatic_basis(0.0, 0.0) is None

    def test_eigen_relations_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p, s = rng.uniform(0, 40, size=2)
            basis = adiabatic_basis(p, s)
            h = RwaHamiltonian(p, s).matrix()
            assert basis.eps_zero == 0.0
            assert basis.eps_plus == pytest.approx(math.hypot(p, s) / 2)
            for vec, eps in (
                (basis.phi_plus, basis.eps_plus),
                (basis.phi_zero, basis.eps_zero),
                (basis.phi_minus, basis.eps_minus),
            ):
                assert np.linalg.norm(h @ vec - eps * vec) < 1e-12

    def test_orthonormal(self):
        basis = adiabatic_basis(2.0, 9.0)
        mat = np.stack([basis.phi_plus, basis.phi_zero, basis.phi_minus])
        assert np.allclose(mat @ mat.T, np.eye(3), atol=1e-14)
        assert basis.phi_zero[1] == 0.0


class TestBlochMap:
    def test_initial_state(self):
        r, res = bloch_map([1, 0, 0])
        assert np.allclose(r, [0, 0, 1])
        assert res == 0.0

    def test_target_state(self):
        r, _ = bloch_map([0, 0, 1])
        assert np.allclose(r, [-1, 0, 0])

    def test_middle_state(self):
        r, _ = bloch_map([0, 1j, 0])
        assert np.allclose(r, [0, 1, 0])

    def test_phase_violation_raises(self):
        with pytest.raises(ValueError, match="phase convention violated"):
            bloch_map([1e-3 * 1j + 1, 0, 0] / np.linalg.norm([1 + 1e-3j, 0, 0]))


class TestEvolve:
    def test_counterintuitive_transfer(self):
        sched = PulseSchedule.from_delay(20.0, -1.2)  # pulse areas ~ 35
        traj = evolve_schrodinger(sched, (1, 0, 0), time_grid(*sched.window(), 1024))
        assert traj.final_populations[2] > 0.99
        assert float(np.max(traj.populations[:, 1])) < 0.05
        assert traj.norm_drift < 1e-6

    def test_two_state_rabi_cycle(self):
        # p-only pulse of area exactly 2*pi flips 1-2 and back
        amp = 2 * math.sqrt(math.pi)  # area = amp * sqrt(pi) = 2*pi
        sched = PulseSchedule.from_delay(amp, 0.0, s_amplitude=0.0)
        traj = evolve_schrodinger(sched, (1, 0, 0), time_grid(*sched.window(), 512))
        assert abs(traj.amplitudes[-1, 0]) == pytest.approx(1.0, abs=1e-6)
        assert traj.final_populations[0] == pytest.approx(1.0, abs=1e-6)

    def test_cross_solver_equivalence(self):
        sched = PulseSchedule.from_delay(20.0, -1.2)
        grid = time_grid(*sched.window(), 512)
        qt = evolve_schrodinger(sched, (1, 0, 0), grid)
        r_states, residual = qt.bloch_states()
        field = to_angular_velocity(SystemMapping("quantum"), sched)
        kern = integrate(field, (0, 0, 1), grid, method="adaptive")
        assert float(np.max(np.abs(r_states - kern.states))) < 1e-6
        assert residual < 1e-9

    def test_adiabatic_phases_accumulate(self):
        sched = PulseSchedule.from_delay(10.0, -1.2)
        grid = time_grid(*sched.window(), 512)
        traj = evolve_schrodinger(sched, (1, 0, 0), grid)
        # phase difference equals the rms area accumulated so far
        total = traj.phi_plus[-1] - traj.phi_minus[-1]
        assert total == pytest.approx(rms_area(sched), rel=1e-6)
        assert np.all(np.diff(traj.phi_plus) >= 0)

    def test_dark_state_trap(self):
        # counterintuitive order at rms area >= 100 keeps the dark state
        for amp in (34.0, 40.0):
            sched = PulseSchedule.from_delay(amp, -1.2)
            assert rms_area(sched) >= 100
            traj = evolve_schrodinger(sched, (1, 0, 0), time_grid(*sched.window(), 512))
            assert 1.0 - traj.final_populations[2] < 1e-3

    def test_intuitive_limit_converges(self):
        # final populations approach the closed-form oscillation as the
        # area grows; the phase offset decays like 1/area (measured: worst
        # mismatch ~0.035 near area 100, ~0.02 near area 200)
        def worst_dev(amp):
            sched = PulseSchedule.from_delay(amp, +1.2)
            a = rms_area(sched)
            traj = evolve_schrodinger(sched, (1, 0, 0), time_grid(*sched.window(), 512))
            want = intuitive_populations(a)
            return max(
                abs(traj.final_populations[1] - want[1]),
                abs(traj.final_populations[2] - want[2]),
                traj.final_populations[0],
            )

        near, far = worst_dev(34.0), worst_dev(68.0)
        assert near < 0.04
        assert far < 0.02

    def test_unnormalized_rejected(self):
        sched = PulseSchedule.from_delay(5.0, -1.2)
        with pytest.raises(ValueError, match="normalized"):
            evolve_schrodinger(sched, (1, 1, 0), time_grid(*sched.window(), 64))


class TestIntuitivePopulations:
    def test_pi_pulse(self):
        assert intuitive_populations(math.pi) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)

    def test_two_pi_pulse(self):
        p = intuitive_populations(2 * math.pi)
        assert p[1] == pytest.approx(0.0, abs=1e-15)
        assert p[2] == pytest.approx(1.0, abs=1e-15)

    def test_half_pi(self):
        assert intuitive_populations(math.pi / 2) == pytest.approx((0.0, 0.5, 0.5))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            intuitive_populations(-1.0)
