import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occloc.tracker import (
    COLD_START_VELOCITY_VARIANCE,
    KalmanConfig,
    KalmanState,
    initial_state,
    predict,
    update,
)


def config(q=1.0, r=25.0, dt=1.0):
    return KalmanConfig(dt, process_noise_intensity=q, measurement_noise_std_cm=math.sqrt(r))


def state(x=(0.0, 0.0, 0.0, 0.0), p=(0.0, 0.0, 0.0)):
    """A filter state from its mean (x, y, vx, vy) and its per-axis block
    (p_pos, p_cross, p_vel)."""
    return KalmanState(*x, *p)


def block(s: KalmanState) -> tuple[float, float, float]:
    return s.p_pos, s.p_cross, s.p_vel


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
        out = predict(state((10.0, 20.0, 0.0, 0.0), (3.0, 0.0, 3.0)), cfg)
        assert (out.x, out.y) == (10.0, 20.0)
        # constant-velocity propagation mixes position/velocity covariance but
        # keeps the total spread with Q = 0
        assert out.p_pos == pytest.approx(6.0)

    def test_velocity_advances_position(self):
        out = predict(state((0.0, 5.0, 10.0, 0.0), (1.0, 0.0, 1.0)), config())
        assert (out.x, out.y) == pytest.approx((10.0, 5.0))

    def test_trace_grows_by_process_noise(self):
        q = 0.7
        start = state(p=(2.0, 0.0, 2.0))
        for dt in (0.1, 1.0, 3.0):
            base = predict(start, KalmanConfig(dt, process_noise_intensity=0.0))
            bumped = predict(start, KalmanConfig(dt, process_noise_intensity=q))
            # the 4x4 trace is twice the block's: x and y each grow by q (dt^4/4 + dt^2)
            growth = q * (dt**4 / 2 + 2 * dt**2)
            trace = 2 * (bumped.p_pos + bumped.p_vel)
            assert trace == pytest.approx(2 * (base.p_pos + base.p_vel) + growth)


def gains(p, cfg):
    """The gain (k_p, k_v) of an update of the block p, read from its outputs:
    from a zero mean, a unit innovation moves the position by k_p and the
    velocity by k_v, on each axis alike."""
    out = update(state(p=p), (1.0, 1.0), cfg)
    assert (out.x, out.vx) == (out.y, out.vy)
    return out.x, out.vx


class TestGain:
    def test_full_trust_when_measurement_exact(self):
        cfg = KalmanConfig(1.0, measurement_noise_std_cm=0.0)
        assert gains((4.0, 0.0, 1.0), cfg) == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_zero_state_uncertainty(self):
        assert gains((0.0, 0.0, 0.0), config()) == (0.0, 0.0)

    def test_scalar_balance(self):
        # 1D reduction: P = R -> K = 1/2
        k_p, _ = gains((9.0, 0.0, 0.0), config(r=9.0))
        assert k_p == pytest.approx(0.5)

    def test_scalar_gain_bounds(self):
        # the measurement-weighting ratio stays in [0, 1] for any variances
        rng = np.random.default_rng(4)
        for _ in range(200):
            p, r = rng.uniform(0, 100), rng.uniform(1e-3, 100)
            k_p, _ = gains((p, 0.0, 0.0), config(r=r))
            assert -1e-12 <= k_p <= 1.0 + 1e-12


class TestUpdate:
    def test_zero_gain_keeps_prediction(self):
        predicted = state((3.0, 4.0, 1.0, 1.0))
        out = update(predicted, (100.0, 100.0), config())
        assert out == predicted

    def test_exact_measurement_wins(self):
        cfg = KalmanConfig(1.0, measurement_noise_std_cm=0.0)
        out = update(state((3.0, 4.0, 0.0, 0.0), (9.0, 0.0, 1.0)), (10.0, -2.0), cfg)
        assert out.x == pytest.approx(10.0, abs=1e-9)
        assert out.y == pytest.approx(-2.0, abs=1e-9)

    def test_zero_innovation_keeps_mean_shrinks_covariance(self):
        predicted = state((3.0, 4.0, 0.5, 0.5), (10.0, 0.0, 10.0))
        out = update(predicted, (3.0, 4.0), config())
        assert (out.x, out.y, out.vx, out.vy) == (3.0, 4.0, 0.5, 0.5)
        assert out.p_pos < predicted.p_pos

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
        """The block [[p_pos, p_cross], [p_cross, p_vel]] is symmetric by
        construction; it stays positive semi-definite up to the rounding of
        its largest entry: p_pos >= 0 and p_cross^2 <= p_pos p_vel."""
        cfg = KalmanConfig(dt, process_noise_intensity=q, measurement_noise_std_cm=std)
        for s in track(measurements, cfg):
            p_pos, p_cross, p_vel = block(s)
            assert all(map(math.isfinite, (s.x, s.y, s.vx, s.vy, p_pos, p_cross, p_vel)))
            scale = max(abs(p_pos), abs(p_cross), abs(p_vel))
            assert p_pos >= -1e-12 * scale
            assert p_cross**2 <= p_pos * p_vel + 1e-12 * scale**2


class TestTrack:
    def test_empty_input(self):
        assert track([], config()) == []

    def test_output_length_matches(self):
        rng = np.random.default_rng(1)
        meas = [tuple(rng.normal(0, 1, 2)) for _ in range(37)]
        assert len(track(meas, config())) == 37

    def test_cold_start_seeds_first_measurement(self):
        states = track([(7.0, 9.0), (8.0, 9.5)], config())
        assert (states[0].x, states[0].y) == (7.0, 9.0)
        assert (states[0].vx, states[0].vy) == (0.0, 0.0)

    def test_posterior_variance_non_increasing_static(self):
        # the covariance recursion is measurement-independent; it must settle
        # monotonically once past the cold-start transient
        cfg = config()
        rng = np.random.default_rng(2)
        meas = [tuple(rng.normal(0, 5, 2)) for _ in range(30)]
        states = track(meas, cfg)
        pos_var = [s.p_pos for s in states]
        assert all(b <= a + 1e-12 for a, b in zip(pos_var[3:], pos_var[4:]))

    def test_velocity_converges_noise_free(self):
        cfg = config()
        truth = [(10.0 * k, -4.0 * k) for k in range(12)]
        states = track(truth, cfg)
        vx, vy = states[10].vx, states[10].vy
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
                x, y = s.x, s.y
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

    @pytest.mark.parametrize(
        "dt, q, std",
        # both zero, and each variance underflowing to zero with the other zero
        [(1.0, 0.0, 0.0), (1.0, 0.0, 1e-200), (1e-3, 1e-320, 0.0)],
    )
    def test_rejects_a_filter_without_noise(self, dt, q, std):
        """With neither process nor measurement noise, a static phone's
        innovation variance reaches 0: the third update once raised numpy's
        LinAlgError, which is no ValueError."""
        both = "process_noise_intensity and measurement_noise_std_cm"
        with pytest.raises(ValueError, match=both):
            KalmanConfig(dt, process_noise_intensity=q, measurement_noise_std_cm=std)

    @pytest.mark.parametrize(
        "dt, q, std",
        # dt^4 and std^2 overflow as float powers, which raise OverflowError;
        # q times a finite dt^4/4 or dt^2 overflows to inf
        [(1e100, 1.0, 5.0), (1e160, 0.0, 5.0), (1e3, 1e300, 5.0), (1.2, 1.5e308, 5.0),
         (1.0, 1.0, 1e200)],
        ids=["dt4-overflows", "dt4-overflows-without-process-noise", "q-dt4-is-inf",
             "q-dt2-is-inf", "std2-overflows"],
    )
    def test_rejects_noise_terms_past_the_float_range(self, dt, q, std):
        """A sampling interval whose noise terms leave the float range once
        raised OverflowError, which is no ValueError, from dt**4."""
        with pytest.raises(ValueError, match="past the float range"):
            KalmanConfig(dt, process_noise_intensity=q, measurement_noise_std_cm=std)

    @pytest.mark.parametrize("q, std", [(0.0, 5.0), (1.0, 0.0)])
    def test_either_noise_alone_keeps_a_static_phone_finite(self, q, std):
        cfg = KalmanConfig(1.0, process_noise_intensity=q, measurement_noise_std_cm=std)
        for s in track([(100.0, 200.0)] * 30, cfg):
            assert (s.x, s.y) == pytest.approx((100.0, 200.0))
            assert all(map(math.isfinite, block(s)))


def matrices(cfg):
    """The full-matrix filter's B, Q and R, built from the configuration's
    three numbers."""
    dt, q = cfg.dt_s, cfg.process_noise_intensity
    b = np.array([[1.0, 0.0, dt, 0.0], [0.0, 1.0, 0.0, dt], [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    qm = q * np.diag([dt**4 / 4.0, dt**4 / 4.0, dt**2, dt**2])
    return b, qm, cfg.measurement_noise_std_cm**2 * np.eye(2)


_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def reference_initial(measurement_xy, cfg):
    _, _, r = matrices(cfg)
    p = np.diag([r[0, 0], r[1, 1], COLD_START_VELOCITY_VARIANCE, COLD_START_VELOCITY_VARIANCE])
    return np.array([measurement_xy[0], measurement_xy[1], 0.0, 0.0]), p


def reference_predict(x, p, cfg):
    """The full-matrix predict: x <- B x, P <- B P B^T + Q, re-symmetrized."""
    b, q, _ = matrices(cfg)
    p = b @ p @ b.T + q
    return b @ x, 0.5 * (p + p.T)


def reference_update(x, p, measurement_xy, cfg):
    """The full-matrix update with a solved gain, re-symmetrized."""
    _, _, r = matrices(cfg)
    pht = p @ _H.T
    k = np.linalg.solve((_H @ pht + r).T, pht.T).T
    x = x + k @ (np.asarray(measurement_xy, dtype=float) - _H @ x)
    p = (np.eye(4) - k @ _H) @ p
    return x, 0.5 * (p + p.T)


def as_matrices(s: KalmanState):
    """The state as the full-matrix filter holds it: the mean and the 4x4
    covariance, two copies of the per-axis block."""
    p_pos, p_cross, p_vel = block(s)
    p = np.array([[p_pos, 0.0, p_cross, 0.0], [0.0, p_pos, 0.0, p_cross],
                  [p_cross, 0.0, p_vel, 0.0], [0.0, p_cross, 0.0, p_vel]])
    return np.array([s.x, s.y, s.vx, s.vy]), p


def bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


class TestMatchesTheMatrixFilter:
    """The per-axis recursion against the 4x4 numpy filter it replaces: every
    step, taken from one input state by both."""

    @settings(max_examples=100, deadline=None)
    @given(
        dt=st.just(1.0) | st.floats(0.05, 5.0),
        q=st.floats(0.0, 100.0),
        std=st.floats(0.1, 50.0),
        measurements=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=2, max_size=70
        ),
    )
    def test_equals_the_matrix_recursion(self, dt, q, std, measurements):
        """Cold start and update bit for bit at any dt, predict bit for bit at
        dt = 1. At other dt the matrix product may round dt p_vel + p_cross
        as one fused multiply-add, depending on the CPU, so predict agrees
        there to 1e-12 of the largest entry of the mean and of the block."""
        cfg = KalmanConfig(dt, q, std)

        def same(s, reference, exact):
            for mine, ref in zip(as_matrices(s), reference):
                if exact:
                    assert bits(mine.ravel()) == bits(ref.ravel())
                else:
                    assert np.abs(mine - ref).max() <= 1e-12 * np.abs(ref).max()

        s = initial_state(measurements[0], cfg)
        same(s, reference_initial(measurements[0], cfg), exact=True)
        for meas in measurements[1:]:
            reference = reference_predict(*as_matrices(s), cfg)
            s = predict(s, cfg)
            same(s, reference, exact=dt == 1.0)
            reference = reference_update(*as_matrices(s), meas, cfg)
            s = update(s, meas, cfg)
            same(s, reference, exact=True)
