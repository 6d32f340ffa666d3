"""Photogrammetric ranging: thin-lens projection, projected pixel count,
distance inversion, field-of-view membership and ranging feasibility.

The projected image of a known-size ceiling fixture shrinks with distance;
counting its pixels inverts to a range estimate through a single per-pair
constant tau = f * sqrt(S) / rho (focal length, emitter area, pixel edge, all
in mm). Far-field form d - f ~ d is used throughout the pixel-count path;
image_distance and project keep the exact conjugate for checking the
approximation. Pixel areas stay continuous (fractional pixels); feasibility()
says how far a given area can be trusted for ranging.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .geometry import CameraModel, Luminaire, Pose, distance, finite, incidence_angle


@dataclass(frozen=True)
class Projection:
    """Exact thin-lens image of a fixture: image distance, magnification,
    image extents and the resulting pixel count."""

    image_distance_mm: float
    magnification: float
    image_width_mm: float
    image_height_mm: float
    pixel_count: float


class FeasibilityRegime(enum.Enum):
    """Ranging quality by projected pixel area: >= 4 px full, >= 1 px degraded,
    below one pixel impossible."""

    FULL = "full"
    DEGRADED = "degraded"
    IMPOSSIBLE = "impossible"


@dataclass(frozen=True)
class Sighting:
    """One luminaire seen by the camera: identity plus (possibly noisy) pixel area."""

    led_id: int
    pixel_area: float


def image_distance(f_mm: float, d_mm: float) -> float:
    """Exact thin-lens conjugate: image distance e = f d / (d - f)."""
    if not (finite(f_mm) and finite(d_mm)):
        raise ValueError(f"focal length {f_mm} mm and object distance {d_mm} mm must be finite")
    if d_mm <= f_mm:
        raise ValueError(f"object distance {d_mm} mm must exceed focal length {f_mm} mm")
    return f_mm * d_mm / (d_mm - f_mm)


def project(camera: CameraModel, luminaire: Luminaire, d_mm: float) -> Projection:
    """Exact projection of the fixture at distance d_mm (no far-field shortcut)."""
    e = image_distance(camera.focal_length_mm, d_mm)
    mag = camera.focal_length_mm / (d_mm - camera.focal_length_mm)
    shape = luminaire.shape
    if hasattr(shape, "radius_mm"):
        w = h = mag * 2.0 * shape.radius_mm
    else:
        w = mag * shape.width_mm
        h = mag * shape.height_mm
    eta = mag**2 * luminaire.area_mm2 / camera.pixel_edge_mm**2
    return Projection(e, mag, w, h, eta)


def pixel_count(camera: CameraModel, luminaire: Luminaire, d_cm: float) -> float:
    """Far-field projected pixel area of the fixture at distance d_cm, in
    fractional pixels: eta = f^2 S / (rho^2 d^2)."""
    if not (finite(d_cm) and d_cm > 0):
        raise ValueError(f"distance must be finite and positive, got {d_cm}")
    d_mm = d_cm * 10.0
    if d_mm <= camera.focal_length_mm:
        raise ValueError("fixture inside the focal length; far-field model invalid")
    return (
        camera.focal_length_mm**2
        * luminaire.area_mm2
        / (camera.pixel_edge_mm**2 * d_mm**2)
    )


def ranging_constant(camera: CameraModel, luminaire: Luminaire) -> float:
    """tau = f * sqrt(S) / rho in mm for this camera/fixture pair; fixed once
    both are known."""
    tau_mm = camera.focal_length_mm * math.sqrt(luminaire.area_mm2) / camera.pixel_edge_mm
    if tau_mm <= 0:
        raise ValueError("tau_mm must be positive")
    return tau_mm


def distance_from_pixels(tau_mm: float, eta: float) -> float:
    """Invert a pixel count to range, in mm: d = tau / sqrt(eta)."""
    if not (finite(eta) and eta > 0):
        raise ValueError(f"pixel count must be finite and positive to invert, got {eta}")
    return tau_mm / math.sqrt(eta)


def visible(luminaire: Luminaire, camera: Pose, fov_full_angle_deg: float) -> bool:
    """True when the fixture lies inside the camera's view cone (incidence
    angle at most half the full cone angle)."""
    return incidence_angle(luminaire, camera) <= fov_full_angle_deg / 2.0


def feasibility(eta: float) -> FeasibilityRegime:
    """Classify a pixel area into the ranging regimes with boundaries at 4 and 1 px."""
    if not (finite(eta) and eta >= 0):
        raise ValueError(f"pixel count must be finite and non-negative, got {eta}")
    if eta >= 4.0:
        return FeasibilityRegime.FULL
    if eta >= 1.0:
        return FeasibilityRegime.DEGRADED
    return FeasibilityRegime.IMPOSSIBLE


def observe_scene(
    luminaires: "list[Luminaire]",
    camera_pose: Pose,
    camera: CameraModel,
    noise_sigma_pixels: float = 0.0,
    rng: "numpy.random.Generator | None" = None,
) -> "list[Sighting]":
    """Pixel areas of every fixture currently in view, in input order.

    Additive Gaussian pixel noise (clamped at zero) models sensor jitter; the
    caller owns the generator, so a fixed seed reproduces the scene exactly.
    Fixtures outside the view cone produce no record.
    """
    if not (finite(noise_sigma_pixels) and noise_sigma_pixels >= 0):
        raise ValueError(f"noise sigma must be finite and non-negative, got {noise_sigma_pixels}")
    if noise_sigma_pixels > 0 and rng is None:
        raise ValueError("noisy observation needs a caller-supplied generator")
    sightings = []
    for lum in luminaires:
        if not visible(lum, camera_pose, camera.fov_full_angle_deg):
            continue
        d_cm = distance(camera_pose.position, lum.anchor)
        eta = pixel_count(camera, lum, d_cm)
        if noise_sigma_pixels > 0:
            eta = max(0.0, eta + rng.normal(0.0, noise_sigma_pixels))
        sightings.append(Sighting(lum.led_id, eta))
    return sightings
