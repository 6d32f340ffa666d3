"""Constant-velocity Kalman tracking of the smartphone's (x, y) coordinate.

State is (x, y, vx, vy) in cm and cm/s; only the position pair is observed.
The transition B, process noise Q, observation H, measurement noise R and the
cold-start covariance act on x and y alike and couple no axis to the other,
so the 4x4 covariance is always two copies of one per-axis 2x2 block

    [[p_pos, p_cross],
     [p_cross, p_vel]]

over (position, velocity), and the recursion is a few scalar formulas on it
(Bar-Shalom, Li & Kirubarajan 2001, Sec. 6.3). The posterior (I - KH)P is
not symmetric in floats: its two cross terms, (1 - k_p) p_cross and
p_cross - k_v p_pos, agree only up to rounding. The block keeps their
average, the cross term of the re-symmetrized 0.5 (P + P^T), which keeps it
numerically positive semi-definite along arbitrary trajectories. Each
formula rounds as the 4x4 products do at dt = 1, so the filter's output
there is bit for bit that of the matrix form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import finite

COLD_START_VELOCITY_VARIANCE = 1e4  # cold-start velocity uncertainty, (cm/s)^2


@dataclass(frozen=True)
class KalmanConfig:
    """Constant-velocity filter for a sampling interval dt_s.

    process_noise_intensity q scales diag(dt^4/4, dt^4/4, dt^2, dt^2) in
    cm^2/s^4; measurement noise is isotropic on (x, y). The per-axis noise
    terms q_pos = q dt^4/4, q_vel = q dt^2 and r2 = std^2 are computed once,
    here, and must be finite, else ValueError. Process and measurement noise
    may not both vanish: the innovation variance p_pos + r2 of a static phone
    then reaches 0 and the gain is undefined.
    """

    dt_s: float = 1.0
    process_noise_intensity: float = 1.0
    measurement_noise_std_cm: float = 5.0

    def __post_init__(self):
        if not (finite(self.dt_s) and self.dt_s > 0):
            raise ValueError(f"dt_s must be finite and positive, got {self.dt_s}")
        for name in ("process_noise_intensity", "measurement_noise_std_cm"):
            value = getattr(self, name)
            if not (finite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        dt, q = self.dt_s, self.process_noise_intensity
        try:  # float ** raises OverflowError where * gives inf
            q_pos, q_vel = q * (dt**4 / 4.0), q * dt**2
            r2 = self.measurement_noise_std_cm**2
            in_range = all(map(finite, (q_pos, q_vel, r2)))
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError(
                f"dt_s={dt}, process_noise_intensity={q} and measurement_noise_std_cm="
                f"{self.measurement_noise_std_cm} put a noise term past the float range"
            )
        if q_pos == 0.0 and r2 == 0.0:
            raise ValueError(
                "process_noise_intensity and measurement_noise_std_cm must not both be zero "
                f"(or underflow to a zero variance), got {q} and {self.measurement_noise_std_cm}"
            )
        object.__setattr__(self, "q_pos", q_pos)
        object.__setattr__(self, "q_vel", q_vel)
        object.__setattr__(self, "r2", r2)


constant_velocity_config = KalmanConfig  # the former factory's name, which perfbench imports


@dataclass(frozen=True, slots=True)
class KalmanState:
    """Filter state: the mean (x, y, vx, vy) and the per-axis covariance block
    (p_pos, p_cross, p_vel) that x and y share."""

    x: float
    y: float
    vx: float
    vy: float
    p_pos: float
    p_cross: float
    p_vel: float


def initial_state(measurement_xy: tuple[float, float], config: KalmanConfig) -> KalmanState:
    """Cold start: seed position from the first measurement, zero velocity,
    measurement-noise position variance and wide velocity variance."""
    x, y = measurement_xy
    return KalmanState(float(x), float(y), 0.0, 0.0, config.r2, 0.0, COLD_START_VELOCITY_VARIANCE)


def predict(state: KalmanState, config: KalmanConfig) -> KalmanState:
    """Propagate one interval: x <- B x, P <- B P B^T + Q, per axis."""
    dt = config.dt_s
    a = state.p_pos + dt * state.p_cross
    b = state.p_cross + dt * state.p_vel
    return KalmanState(
        state.x + dt * state.vx,
        state.y + dt * state.vy,
        state.vx,
        state.vy,
        a + b * dt + config.q_pos,
        b,
        state.p_vel + config.q_vel,
    )


def update(
    predicted: KalmanState, measurement_xy: tuple[float, float], config: KalmanConfig
) -> KalmanState:
    """Fold in one (x, y) measurement: x <- x + K(z - Hx), P <- (I - KH)P, with
    the gain K = (k_p, k_v) per axis.

    Raises ZeroDivisionError when the innovation variance p_pos + r2 is 0."""
    p_pos, p_cross = predicted.p_pos, predicted.p_cross
    inv = 1.0 / (p_pos + config.r2)  # 1/S, then products, as a matrix solve rounds
    k_p = p_pos * inv
    k_v = p_cross * inv
    ex = measurement_xy[0] - predicted.x
    ey = measurement_xy[1] - predicted.y
    keep = 1.0 - k_p
    return KalmanState(
        predicted.x + k_p * ex,
        predicted.y + k_p * ey,
        predicted.vx + k_v * ex,
        predicted.vy + k_v * ey,
        keep * p_pos,
        0.5 * (keep * p_cross + (p_cross - k_v * p_pos)),
        predicted.p_vel - k_v * p_cross,
    )
