import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occloc.tracker import (
    KalmanConfig,
    KalmanState,
    gain,
    initial_state,
    predict,
    update,
)


def config(q=1.0, r=25.0, dt=1.0):
    return KalmanConfig(dt, process_noise_intensity=q, measurement_noise_std_cm=math.sqrt(r))


def track(measurements, cfg):
    """Cold-start on the first measurement, then predict/update on each next one."""
    states = []
    for meas in measurements:
        if not states:
            states.append(initial_state(tuple(meas), cfg))
        else:
            states.append(update(predict(states[-1], cfg), tuple(meas), cfg))
    return states


class TestPredict:
    def test_static_with_zero_process_noise(self):
        cfg = config(q=0.0)
        state = KalmanState(np.array([10.0, 20.0, 0.0, 0.0]), np.eye(4) * 3.0)
        out = predict(state, cfg)
        assert np.allclose(out.x_vec[:2], [10.0, 20.0])
        # constant-velocity propagation mixes position/velocity covariance but
        # keeps the total spread with Q = 0
        assert out.p_cov[0, 0] == pytest.approx(6.0)

    def test_velocity_advances_position(self):
        cfg = config()
        state = KalmanState(np.array([0.0, 5.0, 10.0, 0.0]), np.eye(4))
        out = predict(state, cfg)
        assert out.x_vec[0] == pytest.approx(10.0)
        assert out.x_vec[1] == pytest.approx(5.0)

    def test_trace_grows_by_process_noise(self):
        q = 0.7
        state = KalmanState(np.zeros(4), np.eye(4) * 2.0)
        for dt in (0.1, 1.0, 3.0):
            base = predict(state, KalmanConfig(dt, process_noise_intensity=0.0))
            bumped = predict(state, KalmanConfig(dt, process_noise_intensity=q))
            growth = q * (dt**4 / 2 + 2 * dt**2)
            assert np.trace(bumped.p_cov) == pytest.approx(np.trace(base.p_cov) + growth)


class TestGain:
    def test_full_trust_when_measurement_exact(self):
        cfg = KalmanConfig(1.0, measurement_noise_std_cm=0.0)
        state = KalmanState(np.zeros(4), np.diag([4.0, 4.0, 1.0, 1.0]))
        k = gain(state, cfg)
        observation = np.eye(2, 4)
        assert np.allclose(observation @ k, np.eye(2), atol=1e-12)

    def test_zero_state_uncertainty(self):
        cfg = config()
        state = KalmanState(np.zeros(4), np.zeros((4, 4)))
        assert np.allclose(gain(state, cfg), 0.0)

    def test_scalar_balance(self):
        # 1D reduction: P = R -> K = 1/2
        cfg = config(r=9.0)
        state = KalmanState(np.zeros(4), np.diag([9.0, 9.0, 0.0, 0.0]))
        k = gain(state, cfg)
        assert k[0, 0] == pytest.approx(0.5)
        assert k[1, 1] == pytest.approx(0.5)

    def test_scalar_gain_bounds(self):
        # the measurement-weighting ratio stays in [0, 1] for any variances
        rng = np.random.default_rng(4)
        for _ in range(200):
            p, r = rng.uniform(0, 100), rng.uniform(1e-3, 100)
            cfg = config(r=r)
            state = KalmanState(np.zeros(4), np.diag([p, p, 0.0, 0.0]))
            k = gain(state, cfg)[0, 0]
            assert -1e-12 <= k <= 1.0 + 1e-12


class TestUpdate:
    def test_zero_gain_keeps_prediction(self):
        cfg = config()
        state = KalmanState(np.array([3.0, 4.0, 1.0, 1.0]), np.zeros((4, 4)))
        out = update(state, (100.0, 100.0), cfg)
        assert np.allclose(out.x_vec, state.x_vec)

    def test_exact_measurement_wins(self):
        cfg = KalmanConfig(1.0, measurement_noise_std_cm=0.0)
        state = KalmanState(np.array([3.0, 4.0, 0.0, 0.0]), np.diag([9.0, 9.0, 1.0, 1.0]))
        out = update(state, (10.0, -2.0), cfg)
        assert out.x_vec[0] == pytest.approx(10.0, abs=1e-9)
        assert out.x_vec[1] == pytest.approx(-2.0, abs=1e-9)

    def test_zero_innovation_keeps_mean_shrinks_covariance(self):
        cfg = config()
        state = KalmanState(np.array([3.0, 4.0, 0.5, 0.5]), np.eye(4) * 10.0)
        out = update(state, (3.0, 4.0), cfg)
        assert np.allclose(out.x_vec, state.x_vec)
        assert out.p_cov[0, 0] < state.p_cov[0, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        dt=st.floats(1e-3, 10.0),
        q=st.floats(0.0, 1e4),
        std=st.floats(1e-3, 100.0),
        measurements=st.lists(
            st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)), min_size=1, max_size=40
        ),
    )
    def test_covariance_stays_symmetric_psd(self, dt, q, std, measurements):
        cfg = KalmanConfig(dt, process_noise_intensity=q, measurement_noise_std_cm=std)
        for state in track(measurements, cfg):
            p = state.p_cov
            assert np.isfinite(p).all() and np.isfinite(state.x_vec).all()
            assert np.array_equal(p, p.T)
            # PSD up to the rounding of the largest entry
            assert np.linalg.eigvalsh(p).min() >= -1e-12 * np.abs(p).max()


class TestTrack:
    def test_empty_input(self):
        assert track([], config()) == []

    def test_output_length_matches(self):
        rng = np.random.default_rng(1)
        meas = [tuple(rng.normal(0, 1, 2)) for _ in range(37)]
        assert len(track(meas, config())) == 37

    def test_cold_start_seeds_first_measurement(self):
        states = track([(7.0, 9.0), (8.0, 9.5)], config())
        assert states[0].position_xy == (7.0, 9.0)
        assert states[0].velocity_xy == (0.0, 0.0)

    def test_posterior_variance_non_increasing_static(self):
        # the covariance recursion is measurement-independent; it must settle
        # monotonically once past the cold-start transient
        cfg = config()
        rng = np.random.default_rng(2)
        meas = [tuple(rng.normal(0, 5, 2)) for _ in range(30)]
        states = track(meas, cfg)
        pos_var = [s.p_cov[0, 0] for s in states]
        assert all(b <= a + 1e-12 for a, b in zip(pos_var[3:], pos_var[4:]))

    def test_velocity_converges_noise_free(self):
        cfg = config()
        truth = [(10.0 * k, -4.0 * k) for k in range(12)]
        states = track(truth, cfg)
        vx, vy = states[10].velocity_xy
        assert vx == pytest.approx(10.0, rel=0.01)
        assert vy == pytest.approx(-4.0, rel=0.01)

    def test_filtering_beats_raw_measurements(self):
        # static truth, strong measurement noise: filtered RMS must come out
        # below the raw measurement RMS over a seeded ensemble
        cfg = config()
        filt_sq, raw_sq = [], []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            meas = [tuple(rng.normal(50.0, 5.0, 2)) for _ in range(20)]
            states = track(meas, cfg)
            for m, s in zip(meas[5:], states[5:]):
                raw_sq.append((m[0] - 50.0) ** 2 + (m[1] - 50.0) ** 2)
                x, y = s.position_xy
                filt_sq.append((x - 50.0) ** 2 + (y - 50.0) ** 2)
        assert math.sqrt(np.mean(filt_sq)) < math.sqrt(np.mean(raw_sq))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dt_s", 0.0),
            ("dt_s", -1.0),
            ("dt_s", math.nan),
            ("dt_s", math.inf),
            ("process_noise_intensity", -1e-9),
            ("process_noise_intensity", math.nan),
            ("process_noise_intensity", math.inf),
            ("measurement_noise_std_cm", -1.0),
            ("measurement_noise_std_cm", math.nan),
            ("measurement_noise_std_cm", math.inf),
        ],
    )
    def test_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            KalmanConfig(**{field: value})
