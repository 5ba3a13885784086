import math
import warnings

import numpy as np
import pytest

from torque_stirap.pulses import (
    PulseEnvelope,
    PulseSchedule,
    default_window,
    evaluate_envelope,
    mixing_angle,
    mixing_angles,
    pulse_area,
    refine_quadrature,
    rms_area,
)

SQRT_PI = math.sqrt(math.pi)


class TestEnvelope:
    def test_gaussian_peak(self):
        env = PulseEnvelope.gaussian(20.0, center=0.0, width=1.0)
        assert evaluate_envelope(env, 0.0) == pytest.approx(20.0, abs=0)

    def test_gaussian_one_over_e_point(self):
        env = PulseEnvelope.gaussian(20.0, center=0.0, width=1.0)
        assert evaluate_envelope(env, 1.0) == pytest.approx(20.0 / math.e, rel=1e-15)

    def test_delay_constructor_matches_reference_run(self):
        # delay -1.2T puts the p pulse at +0.6T and the s pulse at -0.6T,
        # peaking at the full amplitude
        sched = PulseSchedule.from_delay(20.0, -1.2)
        assert sched.p_pulse.center == pytest.approx(0.6)
        assert sched.s_pulse.center == pytest.approx(-0.6)
        assert sched.p(0.6) == pytest.approx(20.0)
        assert sched.s(-0.6) == pytest.approx(20.0)
        assert sched.counterintuitive

    def test_vectorized_evaluation(self):
        env = PulseEnvelope.gaussian(3.0, center=1.0, width=2.0)
        t = np.linspace(-5, 5, 11)
        vals = evaluate_envelope(env, t)
        assert vals.shape == t.shape
        assert vals[np.argmin(np.abs(t - 1.0))] == pytest.approx(3.0)

    def test_bounded_by_amplitude(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            amp = rng.uniform(0, 50)
            env = PulseEnvelope.gaussian(amp, rng.uniform(-3, 3), rng.uniform(0.1, 4))
            t = rng.uniform(-20, 20)
            v = evaluate_envelope(env, t)
            assert 0.0 <= v <= amp

    def test_nonfinite_time_rejected(self):
        env = PulseEnvelope.gaussian(1.0)
        with pytest.raises(ValueError, match="invalid time"):
            evaluate_envelope(env, math.nan)
        with pytest.raises(ValueError, match="invalid time"):
            evaluate_envelope(env, math.inf)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PulseEnvelope.gaussian(-1.0)
        with pytest.raises(ValueError):
            PulseEnvelope(amplitude=1.0, width=0.0)
        for amplitude, center in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                PulseEnvelope.gaussian(amplitude, center=center)

    def test_sampled_interpolation_and_support(self):
        times = np.array([0.0, 1.0, 2.0])
        values = np.array([0.0, 4.0, 0.0])
        env = PulseEnvelope.sampled(times, values)
        assert evaluate_envelope(env, 0.5) == pytest.approx(2.0)
        assert evaluate_envelope(env, 1.0) == pytest.approx(4.0)
        assert evaluate_envelope(env, -0.1) == 0.0
        assert evaluate_envelope(env, 2.1) == 0.0

    def test_sampled_validation(self):
        with pytest.raises(ValueError):
            PulseEnvelope.sampled([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            PulseEnvelope.sampled([0.0, 1.0], [1.0, -2.0])


class TestMixingAngle:
    def test_s_only_is_zero(self):
        assert mixing_angle(0.0, 5.0) == pytest.approx(0.0, abs=0)

    def test_p_only_is_half_pi(self):
        assert mixing_angle(5.0, 0.0) == pytest.approx(math.pi / 2)

    def test_equal_strengths(self):
        assert mixing_angle(3.0, 3.0) == pytest.approx(math.pi / 4)

    def test_both_zero_undefined(self):
        assert mixing_angle(0.0, 0.0) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="unsigned convention"):
            mixing_angle(-1.0, 2.0)
        with pytest.raises(ValueError, match="unsigned convention"):
            mixing_angle(1.0, -2.0)

    def test_monotone_in_p(self):
        rng = np.random.default_rng(11)
        s = 2.5
        p = np.sort(rng.uniform(0, 30, size=40))
        angles = [mixing_angle(float(v), s) for v in p]
        assert all(a <= b + 1e-15 for a, b in zip(angles, angles[1:]))
        assert all(0.0 <= a <= math.pi / 2 for a in angles)

    def test_array_form_holds_undefined_samples(self):
        p = np.array([0.0, 0.0, 3.0, 0.0, 0.0, 5.0, 0.0])
        s = np.array([0.0, 0.0, 3.0, 0.0, 2.0, 0.0, 0.0])
        theta, source = mixing_angles(p, s)
        assert source.tolist() == [-1, -1, 2, 2, 4, 5, 5]
        expected = [0.0, 0.0, math.pi / 4, math.pi / 4, 0.0, math.pi / 2, math.pi / 2]
        assert theta.tolist() == pytest.approx(expected, abs=1e-15)
        held, _ = mixing_angles(p, s, held=0.7)
        assert held[:2].tolist() == [0.7, 0.7]
        assert np.array_equal(held[2:], theta[2:])


class TestAreas:
    def test_gaussian_closed_form(self):
        env = PulseEnvelope.gaussian(20.0, center=0.0, width=1.0)
        area = pulse_area(env, window=(-8.0, 8.0))
        assert area == pytest.approx(20.0 * SQRT_PI, rel=1e-9)

    def test_zero_amplitude(self):
        env = PulseEnvelope.gaussian(0.0)
        assert pulse_area(env) == 0.0

    def test_sampled_copy_matches_closed_form(self):
        # trapezoid quadrature of a sampled copy against the exact integral
        t = np.linspace(-8.0, 8.0, 4097)
        gauss = PulseEnvelope.gaussian(20.0, center=0.0, width=1.0)
        env = PulseEnvelope.sampled(t, evaluate_envelope(gauss, t))
        area = pulse_area(env, window=(-8.0, 8.0))
        assert area == pytest.approx(20.0 * SQRT_PI, abs=1e-6)

    def test_empty_window_warns_and_returns_zero(self):
        env = PulseEnvelope.gaussian(1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert pulse_area(env, window=(1.0, 1.0)) == 0.0
        assert any("empty" in str(w.message) for w in caught)

    def test_rms_disjoint_pulses_add(self):
        sched = PulseSchedule(
            p_pulse=PulseEnvelope.gaussian(5.0, center=-10.0, width=1.0),
            s_pulse=PulseEnvelope.gaussian(7.0, center=10.0, width=1.0),
            delay=20.0,
        )
        total = rms_area(sched, window=(-18.0, 18.0), steps=1 << 14)
        expected = (5.0 + 7.0) * SQRT_PI
        assert total == pytest.approx(expected, abs=1e-6)

    def test_rms_identical_overlapping_pulses(self):
        sched = PulseSchedule.from_delay(40.0, 0.0)
        total = rms_area(sched)
        assert total == pytest.approx(math.sqrt(2.0) * 40.0 * SQRT_PI, rel=1e-9)

    def test_rms_reference_config_regression(self):
        # frozen by adaptive refinement until successive passes agree to 1e-11
        sched = PulseSchedule.from_delay(40.0, -1.2)
        assert rms_area(sched) == pytest.approx(119.973605156305, abs=1e-9)

    def test_rms_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            sched = PulseSchedule.from_delay(
                rng.uniform(1, 40),
                rng.uniform(-3, 3),
                width=rng.uniform(0.5, 2),
                s_amplitude=rng.uniform(1, 40),
            )
            w = sched.window()
            a_p = pulse_area(sched.p_pulse, w)
            a_s = pulse_area(sched.s_pulse, w)
            a_rms = rms_area(sched, w)
            assert a_rms <= a_p + a_s + 1e-9
            assert a_rms >= max(a_p, a_s) - 1e-9


class TestWindows:
    def test_default_window_pads_six_widths(self):
        env = PulseEnvelope.gaussian(1.0, center=2.0, width=0.5)
        lo, hi = default_window(env)
        assert lo == pytest.approx(2.0 - 3.0)
        assert hi == pytest.approx(2.0 + 3.0)

    def test_tail_truncation_negligible(self):
        env = PulseEnvelope.gaussian(1.0)
        lo, hi = default_window(env)
        assert evaluate_envelope(env, hi) < 1e-15

    def test_refine_quadrature_converges(self):
        env = PulseEnvelope.gaussian(20.0, width=1.0)
        val = refine_quadrature(
            lambda t: evaluate_envelope(env, t), (-8.0, 8.0), tol=1e-11
        )
        assert val == pytest.approx(20.0 * SQRT_PI, rel=1e-10)
