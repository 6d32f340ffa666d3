"""Pixel-channel model: Lambertian emission order, pixel-level Eb/N0 and SNIR,
and MIMO superposition.

Nothing in the pipeline calls these yet; they are what a noisy per-sighting
decode would build on. The analytic OOK error curve over SNIR is
`modem.ook_ber_theoretical`. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SensorNoiseModel:
    """Fitted pixel-noise model: signal amplitude, exposure ratio and noise fit terms."""

    alpha: float
    beta: float
    exposure_ratio: float
    signal_amplitude: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not (0.0 < self.exposure_ratio <= 1.0):
            raise ValueError("exposure_ratio must lie in (0, 1]")


@dataclass(frozen=True)
class LinkState:
    """Pixel-intensity channel state: mean level, distortion share, noise power,
    and the number of parallel spatial channels."""

    p_avg: float
    sigma: float
    sigma_n2: float
    w_s: float

    def __post_init__(self):
        if not (0.0 <= self.sigma <= 1.0):
            raise ValueError("sigma must lie in [0, 1]")
        if self.sigma_n2 <= 0:
            raise ValueError("sigma_n2 must be positive")
        if self.w_s < 1:
            raise ValueError("w_s must be at least 1")


def lambertian_order(semi_angle_deg: float) -> float:
    """Exponent m of the cos^m emission lobe, from the half-power semi-angle.

    Defined by cos^m(angle) = 1/2, i.e. m = -ln 2 / ln(cos angle).
    """
    if not (0.0 < semi_angle_deg < 90.0):
        raise ValueError("half-power semi-angle must lie strictly in (0, 90) degrees")
    return -math.log(2.0) / math.log(math.cos(math.radians(semi_angle_deg)))


def pixel_ebn0(noise: SensorNoiseModel) -> float:
    """Per-pixel energy-per-bit over noise density: s^2 D / (a s D + b)."""
    s = noise.signal_amplitude
    d = noise.exposure_ratio
    return s * s * d / (noise.alpha * s * d + noise.beta)


def snir(link: LinkState) -> float:
    """Signal-to-noise-plus-interference ratio of the pixel channel."""
    p2 = link.p_avg**2
    return link.sigma * p2 / ((1.0 - link.sigma) * p2 + link.sigma_n2)


def mimo_output(
    gains: "list[float] | np.ndarray",
    symbols: "list[float] | np.ndarray",
    responsivity: float,
    noise_sample: float,
) -> float:
    """Single receiver output for parallel links: R * sum(h_i x_i) + N."""
    h = np.asarray(gains, dtype=float)
    x = np.asarray(symbols, dtype=float)
    if h.shape != x.shape:
        raise ValueError(f"gain/symbol length mismatch: {h.shape} vs {x.shape}")
    return float(responsivity * np.dot(h, x) + noise_sample)
