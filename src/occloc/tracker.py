"""Constant-velocity Kalman tracking of the smartphone's (x, y) coordinate.

State is [x_cm, y_cm, vx_cm_s, vy_cm_s]; only the position pair is observed.
The covariance is re-symmetrized after every update so it stays numerically
positive semi-definite along arbitrary trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COLD_START_VELOCITY_VARIANCE = 1e4  # cold-start velocity uncertainty, (cm/s)^2

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])  # observes (x, y)


@dataclass(frozen=True)
class KalmanConfig:
    """Constant-velocity filter for a sampling interval dt_s.

    process_noise_intensity scales diag(dt^4/4, dt^4/4, dt^2, dt^2) in
    cm^2/s^4; measurement noise is isotropic on (x, y). The state transition
    B, process noise Q and measurement noise R are built once, here.
    """

    dt_s: float = 1.0
    process_noise_intensity: float = 1.0
    measurement_noise_std_cm: float = 5.0

    def __post_init__(self):
        if not (math.isfinite(self.dt_s) and self.dt_s > 0):
            raise ValueError(f"dt_s must be finite and positive, got {self.dt_s}")
        for name in ("process_noise_intensity", "measurement_noise_std_cm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        dt = self.dt_s
        b = np.array(
            [
                [1.0, 0.0, dt, 0.0],
                [0.0, 1.0, 0.0, dt],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        q = self.process_noise_intensity * np.diag([dt**4 / 4.0, dt**4 / 4.0, dt**2, dt**2])
        r = self.measurement_noise_std_cm**2 * np.eye(2)
        object.__setattr__(self, "state_transition", b)
        object.__setattr__(self, "process_noise", q)
        object.__setattr__(self, "measurement_noise", r)


constant_velocity_config = KalmanConfig  # the former factory's name, which perfbench imports


@dataclass(frozen=True)
class KalmanState:
    """Filter state: mean vector [x, y, vx, vy] and its 4x4 covariance."""

    x_vec: np.ndarray
    p_cov: np.ndarray

    @property
    def position_xy(self) -> tuple[float, float]:
        return float(self.x_vec[0]), float(self.x_vec[1])

    @property
    def velocity_xy(self) -> tuple[float, float]:
        return float(self.x_vec[2]), float(self.x_vec[3])


def initial_state(measurement_xy: tuple[float, float], config: KalmanConfig) -> KalmanState:
    """Cold start: seed position from the first measurement, zero velocity,
    measurement-noise position variance and wide velocity variance."""
    r = config.measurement_noise
    x = np.array([measurement_xy[0], measurement_xy[1], 0.0, 0.0])
    p = np.diag([r[0, 0], r[1, 1], COLD_START_VELOCITY_VARIANCE, COLD_START_VELOCITY_VARIANCE])
    return KalmanState(x, p)


def predict(state: KalmanState, config: KalmanConfig) -> KalmanState:
    """Propagate one interval: x <- B x, P <- B P B^T + Q."""
    b = config.state_transition
    x = b @ state.x_vec
    p = b @ state.p_cov @ b.T + config.process_noise
    return KalmanState(x, 0.5 * (p + p.T))


def gain(predicted: KalmanState, config: KalmanConfig) -> np.ndarray:
    """Kalman gain K = P H^T (H P H^T + R)^-1, shape (4, 2).

    Raises numpy.linalg.LinAlgError when the innovation covariance is singular.
    """
    pht = predicted.p_cov @ _H.T
    innovation_cov = _H @ pht + config.measurement_noise
    return np.linalg.solve(innovation_cov.T, pht.T).T


def update(
    predicted: KalmanState, measurement_xy: tuple[float, float], config: KalmanConfig
) -> KalmanState:
    """Fold in one (x, y) measurement: x <- x + K(y - Hx), P <- (I - KH)P."""
    k = gain(predicted, config)
    y = np.asarray(measurement_xy, dtype=float)
    x = predicted.x_vec + k @ (y - _H @ predicted.x_vec)
    p = (np.eye(4) - k @ _H) @ predicted.p_cov
    return KalmanState(x, 0.5 * (p + p.T))
