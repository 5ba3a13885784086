import math

import numpy as np
import pytest

from torque_stirap.dynamics import (
    CHUNK,
    AngularVelocityField,
    IntegrationError,
    adaptive_path,
    dense_output,
    integrate,
    time_grid,
)
from torque_stirap.pulses import PulseSchedule, mixing_angle
from torque_stirap.systems import SYSTEM_KINDS, SystemMapping, to_angular_velocity


def reference_field(amplitude=20.0, kind="lorentz", delay=-1.2):
    sched = PulseSchedule.from_delay(amplitude, delay)
    return to_angular_velocity(SystemMapping(kind), sched), sched.window()


# Reference implementations: the scalar per-step loops the array kernel
# replaced.  They consume the field's scalar ``components``.

def _rodrigues(wx, wy, wz, x, y, z, h):
    wn = math.sqrt(wx * wx + wy * wy + wz * wz)
    if wn == 0.0:
        return x, y, z
    ang = wn * h
    kx, ky, kz = wx / wn, wy / wn, wz / wn
    ca = math.cos(ang)
    sa = math.sin(ang)
    kdotx = kx * x + ky * y + kz * z
    cx = ky * z - kz * y
    cy = kz * x - kx * z
    cz = kx * y - ky * x
    omca = 1.0 - ca
    return (
        x * ca + cx * sa + kx * kdotx * omca,
        y * ca + cy * sa + ky * kdotx * omca,
        z * ca + cz * sa + kz * kdotx * omca,
    )


def loop_rk4(comp, grid, x, y, z):
    out = np.empty((grid.size, 3))
    out[0] = (x, y, z)
    for k in range(grid.size - 1):
        t = grid[k]
        h = grid[k + 1] - t
        h2 = 0.5 * h
        wx, wy, wz = comp(t)
        k1x = wy * z - wz * y
        k1y = wz * x - wx * z
        k1z = wx * y - wy * x
        wx, wy, wz = comp(t + h2)
        ax, ay, az = x + h2 * k1x, y + h2 * k1y, z + h2 * k1z
        k2x = wy * az - wz * ay
        k2y = wz * ax - wx * az
        k2z = wx * ay - wy * ax
        ax, ay, az = x + h2 * k2x, y + h2 * k2y, z + h2 * k2z
        k3x = wy * az - wz * ay
        k3y = wz * ax - wx * az
        k3z = wx * ay - wy * ax
        wx, wy, wz = comp(t + h)
        ax, ay, az = x + h * k3x, y + h * k3y, z + h * k3z
        k4x = wy * az - wz * ay
        k4y = wz * ax - wx * az
        k4z = wx * ay - wy * ax
        h6 = h / 6.0
        x += h6 * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += h6 * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += h6 * (k1z + 2.0 * (k2z + k3z) + k4z)
        out[k + 1] = (x, y, z)
    return out


def loop_rotation(comp, grid, x, y, z):
    out = np.empty((grid.size, 3))
    out[0] = (x, y, z)
    for k in range(grid.size - 1):
        t = grid[k]
        h = grid[k + 1] - t
        wx, wy, wz = comp(t + 0.5 * h)
        x, y, z = _rodrigues(wx, wy, wz, x, y, z, h)
        out[k + 1] = (x, y, z)
    return out


LOOPS = {"rk4": loop_rk4, "piecewise_rotation": loop_rotation}


def loop_diagnostics(profiles, grid, states):
    """Per-sample mixing angle and dark projection; both-zero samples hold
    the last defined value (0 before any is seen)."""
    p_vals, s_vals = profiles(grid)
    theta = np.empty(grid.size)
    dark = np.empty(grid.size)
    last_theta = last_dark = 0.0
    for i in range(grid.size):
        p, s = float(p_vals[i]), float(s_vals[i])
        th = mixing_angle(p, s)
        if th is not None:
            last_theta = th
            last_dark = (p * states[i, 0] + s * states[i, 2]) / math.hypot(p, s)
        theta[i] = last_theta
        dark[i] = last_dark
    return theta, dark


def assert_kernel_matches_loop(field, x0, grid, method):
    kernel = integrate(field, x0, grid, method=method).states
    loop = LOOPS[method](field.components, grid, *(float(c) for c in x0))
    np.testing.assert_allclose(kernel, loop, rtol=0.0, atol=1e-12)


class TestKernelAgainstLoop:
    @pytest.mark.parametrize("method", sorted(LOOPS))
    @pytest.mark.parametrize("kind", SYSTEM_KINDS)
    @pytest.mark.parametrize("delay", [-1.2, 0.0, 1.2])
    def test_systems_and_delays(self, method, kind, delay):
        field, window = reference_field(amplitude=20.0, kind=kind, delay=delay)
        assert_kernel_matches_loop(field, (0.0, 0.0, 1.0), time_grid(*window, 4096), method)

    @pytest.mark.parametrize("method", sorted(LOOPS))
    @pytest.mark.parametrize("steps", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_chunk_boundaries(self, method, steps):
        # the first steps of the 4096-step reference grid
        field, window = reference_field()
        grid = time_grid(*window, 4096)[: steps + 1]
        assert_kernel_matches_loop(field, (0.2, -0.5, 0.84), grid, method)

    def test_diagnostics_hold_across_chunks(self):
        # interpolated pulses with both-zero stretches at the start, across
        # the first two chunk boundaries, and at the end
        t = np.linspace(-3.0, 3.0, 601)
        p = 20.0 * np.exp(-((t + 0.5) ** 2))
        s = 20.0 * np.exp(-((t - 0.5) ** 2))
        gaps = ((t > -1.4) & (t < -1.1)) | ((t > 1.3) & (t < 1.6))
        p[gaps] = s[gaps] = 0.0

        def profiles(tq):
            return (np.interp(tq, t, p, left=0.0, right=0.0),
                    np.interp(tq, t, s, left=0.0, right=0.0))

        def sample(tq):
            pq, sq = profiles(tq)
            return np.column_stack((pq, np.zeros_like(pq), -sq))  # lorentz, q/m = 1

        field = AngularVelocityField(sample=sample, kind="lorentz", profiles=profiles)
        grid = time_grid(-4.0, 4.0, 3000)
        traj = integrate(field, (0.0, 0.0, 1.0), grid)
        theta, dark = loop_diagnostics(field.profiles, grid, traj.states)
        d = traj.diagnostics
        assert d.mixing_angle[0] == 0.0 and d.dark_variable[0] == 0.0
        np.testing.assert_allclose(d.mixing_angle, theta, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(d.dark_variable, dark, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("method", sorted(LOOPS))
    def test_non_uniform_grid(self, method):
        field, (lo, hi) = reference_field()
        u = np.linspace(-1.0, 1.0, 3001)
        grid = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.sign(u) * np.abs(u) ** 1.5
        assert_kernel_matches_loop(field, (0.0, 0.0, 1.0), grid, method)


def loop_dense_output(nodes, grid):
    """The per-sample cubic-Hermite loop that the array dense output replaced."""
    ts = np.array([n[0] for n in nodes])
    out = np.empty((len(grid),) + nodes[0][1].shape, dtype=nodes[0][1].dtype)
    idx = np.clip(np.searchsorted(ts, grid, side="right") - 1, 0, len(nodes) - 2)
    for i, (tq, j) in enumerate(zip(grid, idx)):
        t0, y0, f0 = nodes[j]
        t1, y1, f1 = nodes[j + 1]
        h = t1 - t0
        if h == 0.0:
            out[i] = y1
            continue
        u = (tq - t0) / h
        u2 = u * u
        u3 = u2 * u
        out[i] = (
            (2 * u3 - 3 * u2 + 1) * y0
            + (u3 - 2 * u2 + u) * h * f0
            + (-2 * u3 + 3 * u2) * y1
            + (u3 - u2) * h * f1
        )
    return out


def _pulses(t):
    """Counterintuitive Gaussian pair, P after S, peak 20."""
    return 20.0 * math.exp(-((t - 0.6) ** 2)), 20.0 * math.exp(-((t + 0.6) ** 2))


def torque_nodes_rhs(t, y):
    p, s = _pulses(t)
    return np.cross((p, 0.0, s), y)


def schrodinger_nodes_rhs(t, c):
    p, s = _pulses(t)
    return -0.5j * np.array([p * c[1], p * c[0] + s * c[2], s * c[1]])


class TestDenseOutputAgainstLoop:
    @pytest.mark.parametrize("rhs, y0", [
        (torque_nodes_rhs, np.array([0.0, 0.0, 1.0])),
        (schrodinger_nodes_rhs, np.array([1.0, 0.0, 0.0], dtype=complex)),
    ])
    def test_adaptive_nodes(self, rhs, y0):
        nodes = adaptive_path(rhs, -5.0, 5.0, y0, rtol=1e-9)
        node_times = np.array([n[0] for n in nodes])
        # a uniform grid, every node time (the last included) and one point
        # past the last node
        grid = np.sort(np.concatenate([time_grid(-5.0, 5.0, 4096), node_times, [5.5]]))
        out = dense_output(nodes, grid)
        assert out.dtype == y0.dtype
        np.testing.assert_array_equal(out, loop_dense_output(nodes, grid))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_length_last_interval(self, dtype):
        rng = np.random.default_rng(4)
        ts = [0.0, 0.3, 1.1, 1.7, 1.7]
        ys = rng.normal(size=(5, 3)) + (1j * rng.normal(size=(5, 3)) if dtype is complex else 0)
        fs = rng.normal(size=(5, 3)) + (1j * rng.normal(size=(5, 3)) if dtype is complex else 0)
        nodes = [(t, y, f) for t, y, f in zip(ts, ys, fs)]
        grid = np.array([-0.2, 0.0, 0.15, 0.3, 1.0, 1.1, 1.7, 2.5])
        out = dense_output(nodes, grid)
        np.testing.assert_array_equal(out, loop_dense_output(nodes, grid))
        np.testing.assert_array_equal(out[-2:], ys[[4, 4]])


def rotate_once(w, x, h):
    """One rotation step of length ``h`` about the constant axis ``w``."""
    field = AngularVelocityField.constant(w)
    return integrate(field, x, time_grid(0.0, h, 1), method="rotation").final_state


class TestStepExact:
    def test_quarter_turn(self):
        h = 0.37
        out = rotate_once([0, 0, math.pi / (2 * h)], [1, 0, 0], h)
        assert np.allclose(out, [0, 1, 0], atol=1e-12)

    def test_zero_axis_identity(self):
        x = np.array([0.3, -0.4, 1.1])
        assert np.array_equal(rotate_once([0, 0, 0], x, 0.5), x)

    def test_half_steps_compose(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.normal(size=3)
            x = rng.normal(size=3)
            h = rng.uniform(0.01, 1.0)
            once = rotate_once(w, x, h)
            twice = rotate_once(w, rotate_once(w, x, h / 2), h / 2)
            assert np.allclose(once, twice, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = rng.normal(size=3) * 10
            x = rng.normal(size=3)
            out = rotate_once(w, x, rng.uniform(0, 2))
            assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-14)


class TestIntegrate:
    def test_full_rotation_returns_start(self):
        t_total = 4.0
        field = AngularVelocityField.constant([0, 0, 2 * math.pi / t_total])
        traj = integrate(field, [1, 0, 0], time_grid(0, t_total, 1000))
        assert np.allclose(traj.final_state, [1, 0, 0], atol=1e-8)

    def test_counterintuitive_reference_run(self):
        # z -> x transfer; the transverse excursion is a regression pin of
        # the measured dynamics at this drive strength
        field, window = reference_field()
        traj = integrate(field, [0, 0, 1], time_grid(*window, 4096))
        assert abs(traj.final_state[0]) > 0.99
        max_y = float(np.max(np.abs(traj.states[:, 1])))
        assert max_y == pytest.approx(0.06710, abs=2e-4)

    def test_methods_agree(self):
        field, window = reference_field()
        grid = time_grid(*window, 2048)
        fin = {
            m: integrate(field, [0, 0, 1], grid, method=m, rtol=1e-10).final_state
            for m in ("rk4", "piecewise_rotation", "adaptive")
        }
        assert np.allclose(fin["rk4"], fin["piecewise_rotation"], atol=1e-5)
        assert np.allclose(fin["adaptive"], fin["piecewise_rotation"], atol=1e-5)

    def test_rotation_alias(self):
        field, window = reference_field()
        grid = time_grid(*window, 64)
        a = integrate(field, [0, 0, 1], grid, method="rotation")
        b = integrate(field, [0, 0, 1], grid, method="piecewise_rotation")
        assert np.array_equal(a.states, b.states)

    def test_convergence_orders(self):
        # step-halving study against a finely stepped rotation reference:
        # rk4 fourth order, midpoint-frozen rotation second order
        field, window = reference_field(amplitude=5.0)
        x0 = [0, 0, 1]
        ref = integrate(
            field, x0, time_grid(*window, 1 << 17), method="piecewise_rotation"
        ).final_state

        def err(method, n):
            fin = integrate(field, x0, time_grid(*window, n), method=method).final_state
            return float(np.linalg.norm(fin - ref))

        rk4_orders = [
            math.log2(err("rk4", n) / err("rk4", 2 * n)) for n in (256, 512)
        ]
        rot_orders = [
            math.log2(err("piecewise_rotation", n) / err("piecewise_rotation", 2 * n))
            for n in (256, 512)
        ]
        assert min(rk4_orders) > 3.8
        assert 1.8 < min(rot_orders) < 2.3

    def test_rotation_norm_drift(self):
        field, window = reference_field(amplitude=40.0)
        traj = integrate(field, [0, 0, 1], time_grid(*window, 4096), method="piecewise_rotation")
        assert traj.norm_drift < 1e-12

    def test_rk4_norm_drift_default_step(self):
        field, window = reference_field(amplitude=40.0)
        traj = integrate(field, [0, 0, 1], time_grid(*window, 4096))
        assert traj.norm_drift < 1e-6

    def test_time_reversal(self):
        field, (lo, hi) = reference_field()
        x0 = np.array([0.0, 0.0, 1.0])
        n = 2048
        fwd = integrate(field, x0, time_grid(lo, hi, n)).final_state
        fine = integrate(field, x0, time_grid(lo, hi, 2 * n)).final_state
        one_way = np.linalg.norm(fwd - fine) / (1 - 2.0**-4)
        sample = field.sample
        rev = AngularVelocityField(sample=lambda t: -sample(lo + hi - t))
        back = integrate(rev, fwd, time_grid(lo, hi, n)).final_state
        assert np.linalg.norm(back - x0) < 10 * one_way

    def test_scaling_invariance(self):
        field, (lo, hi) = reference_field()
        base = integrate(field, [0, 0, 1], time_grid(lo, hi, 4096)).final_state
        k = 3.0
        sample = field.sample
        scaled = AngularVelocityField(sample=lambda t: k * sample(k * t))
        fin = integrate(scaled, [0, 0, 1], time_grid(lo / k, hi / k, 4096)).final_state
        assert np.linalg.norm(fin - base) < 1e-8

    def test_parity_consistency(self):
        # reflecting x -> -x in both the start vector and the field reflects
        # the whole trajectory
        field, window = reference_field(amplitude=17.0)
        grid = time_grid(*window, 1024)
        sample = field.sample
        reflected = AngularVelocityField(
            sample=lambda t: sample(t) * np.array([1.0, -1.0, -1.0])
        )
        x0 = np.array([0.2, -0.5, 0.84])
        base = integrate(field, x0, grid)
        mirr = integrate(reflected, x0 * np.array([-1.0, 1.0, 1.0]), grid)
        assert np.allclose(
            mirr.states, base.states * np.array([-1.0, 1.0, 1.0]), atol=1e-12
        )

    def test_adaptive_underflow_reports_time(self):
        field = AngularVelocityField.constant([0, 0, 10.0])
        with pytest.raises(IntegrationError, match="stiffness/accuracy failure"):
            integrate(field, [1, 0, 0], time_grid(0, 10, 8), method="adaptive", rtol=1e-18)

    def test_rtol_below_epsilon_fails_at_start(self):
        field = AngularVelocityField.constant([0, 0, 10.0])
        grid = time_grid(0.5, 2.0, 8)
        with pytest.raises(IntegrationError, match="at t=0.5: rtol 1e-16 is below machine"):
            integrate(field, [1, 0, 0], grid, method="adaptive", rtol=1e-16)
        fin = integrate(field, [1, 0, 0], grid, method="adaptive", rtol=1e-15).final_state
        assert np.allclose(fin, [math.cos(15.0), math.sin(15.0), 0.0], atol=1e-12)

    def test_argument_validation(self):
        field = AngularVelocityField.constant([0, 0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate(field, [1, 0, 0], np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="nonzero"):
            integrate(field, [0, 0, 0], time_grid(0, 1, 8))
        with pytest.raises(ValueError, match="unknown method"):
            integrate(field, [1, 0, 0], time_grid(0, 1, 8), method="euler")

    def test_diagnostics_carried(self):
        field, window = reference_field()
        traj = integrate(field, [0, 0, 1], time_grid(*window, 512))
        d = traj.diagnostics
        assert d is not None
        assert d.mixing_angle[0] == pytest.approx(0.0, abs=1e-6)
        assert d.mixing_angle[-1] == pytest.approx(math.pi / 2, abs=1e-6)
        assert np.all(np.diff(traj.times) > 0)
        sq = traj.states**2 / (traj.states[0] @ traj.states[0])
        assert np.all(sq >= 0) and np.all(sq <= 1 + 1e-9)
