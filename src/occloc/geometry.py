"""Shared scene geometry: world-frame points, camera pose, room, fixture and
camera types.

World frame: origin at a floor corner, z up, lengths in centimeters. Ceiling
fixtures sit at z = ceiling height. Camera/fixture internals (focal length,
pixel edge, emitter dimensions) are in millimeters; conversions happen
explicitly at call sites, never implicitly. Fixtures are described by their
size and placement only: ranging needs the emitter area, not its radiometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True, init=False)
class Point3:
    """A world-frame point, components in centimeters."""

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float):
        # converts and checks first, then sets each field once
        try:
            x, y, z = float(x), float(y), float(z)
        except OverflowError:  # an int past the float range
            raise ValueError(f"non-finite point ({x}, {y}, {z})") from None
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError(f"non-finite point ({x}, {y}, {z})")
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


# each slot's own setter, which the frozen __setattr__ does not intercept
_set_x, _set_y, _set_z = Point3.x.__set__, Point3.y.__set__, Point3.z.__set__


def distance(a: Point3, b: Point3) -> float:
    """Euclidean distance between two world points, in cm."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


UP = (0.0, 0.0, 1.0)


def finite(value) -> bool:
    """math.isfinite, which raises OverflowError for an int past the float
    range, where this returns False."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Pose:
    """Camera position plus optical-axis direction (unit vector, default straight up)."""

    position: Point3
    optical_axis: tuple[float, float, float] = UP

    def __post_init__(self):
        try:
            norm = math.sqrt(sum(c * c for c in self.optical_axis))
        except OverflowError:  # an int component past the float range
            norm = math.inf
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"optical_axis must be unit length, |v| = {norm}")


@dataclass(frozen=True)
class RoomConfig:
    """Rectangular room, floor at z = 0, ceiling at z = ceiling_height_cm."""

    width_cm: float
    depth_cm: float
    ceiling_height_cm: float

    def __post_init__(self):
        for name in ("width_cm", "depth_cm", "ceiling_height_cm"):
            value = getattr(self, name)
            if not (finite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")


def _check_sizes(shape):
    """Raise ValueError naming the first size of shape that is negative or not
    finite. A zero size is an emitter too small to see."""
    for name, value in vars(shape).items():
        if not (finite(value) and value >= 0):
            raise ValueError(f"{name}={value!r} must be finite and non-negative")


@dataclass(frozen=True)
class Circular:
    radius_mm: float

    __post_init__ = _check_sizes

    @property
    def area_mm2(self) -> float:
        try:
            return math.pi * self.radius_mm**2
        except OverflowError:  # the radius squared lies past the float range
            return math.inf


@dataclass(frozen=True)
class Rectangular:
    width_mm: float
    height_mm: float

    __post_init__ = _check_sizes

    @property
    def area_mm2(self) -> float:
        return self.width_mm * self.height_mm


Shape = Circular | Rectangular


@dataclass(frozen=True)
class Luminaire:
    """A ceiling LED fixture: identity, placement and emitter geometry.

    area_mm2 may be given explicitly (e.g. a datasheet value); it must then agree
    with the shape-derived area within 0.1%. Left as None it is derived exactly.
    Either area must be finite.
    """

    led_id: int
    anchor: Point3
    shape: Shape
    area_mm2: float | None = None

    def __post_init__(self):
        if not (0 <= self.led_id < 2**32):
            raise ValueError(f"led_id {self.led_id} does not fit 32 bits")
        derived = self.shape.area_mm2
        if self.area_mm2 is None:
            object.__setattr__(self, "area_mm2", derived)
        if not (finite(derived) and finite(self.area_mm2)):
            raise ValueError(f"area_mm2 {self.area_mm2} and shape area {derived} must be finite")
        if abs(self.area_mm2 - derived) > 1e-3 * derived:
            raise ValueError(
                f"area_mm2 {self.area_mm2} disagrees with shape area {derived:.2f} by more than 0.1%"
            )


@dataclass(frozen=True)
class CameraModel:
    """Smartphone camera intrinsics: focal length, pixel edge length and the
    full angle of the view cone."""

    focal_length_mm: float
    pixel_edge_mm: float
    fov_full_angle_deg: float

    def __post_init__(self):
        if not (finite(self.focal_length_mm) and self.focal_length_mm > 0):
            raise ValueError("focal_length_mm must be finite and positive")
        if not (finite(self.pixel_edge_mm) and self.pixel_edge_mm > 0):
            raise ValueError("pixel_edge_mm must be finite and positive")
        if not (0.0 < self.fov_full_angle_deg < 180.0):
            raise ValueError("fov_full_angle_deg must lie in (0, 180)")

    @property
    def fov_semi_angle_deg(self) -> float:
        """Visibility semi-angle: half the full cone angle."""
        return self.fov_full_angle_deg / 2.0


def incidence_angle(luminaire: Luminaire, camera: Pose) -> float:
    """Angle in degrees between the camera optical axis and the camera-to-fixture ray.

    Lies in [0, 180]. Raises if the camera sits exactly at the fixture anchor.
    """
    vx = luminaire.anchor.x - camera.position.x
    vy = luminaire.anchor.y - camera.position.y
    vz = luminaire.anchor.z - camera.position.z
    norm = math.sqrt(vx * vx + vy * vy + vz * vz)
    if norm == 0.0:
        raise ValueError("camera coincides with the luminaire anchor")
    ax, ay, az = camera.optical_axis
    cosang = (vx * ax + vy * ay + vz * az) / norm
    cosang = min(1.0, max(-1.0, cosang))
    return math.degrees(math.acos(cosang))
