import math
import pickle
import re
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from occloc.geometry import (
    CameraModel,
    Circular,
    Luminaire,
    Point3,
    Pose,
    Rectangular,
    RoomConfig,
    distance,
    incidence_angle,
)

coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False)
points = st.builds(Point3, coord, coord, coord)


def make_luminaire(anchor=Point3(0, 0, 300), led_id=1, **kw):
    defaults = dict(shape=Circular(85.0))
    defaults.update(kw)
    return Luminaire(led_id=led_id, anchor=anchor, **defaults)


class TestDistance:
    def test_identity(self):
        assert distance(Point3(0, 0, 0), Point3(0, 0, 0)) == 0.0

    def test_worked_values(self):
        # oracle: sqrt(40^2 + 318^2) and sqrt(260^2 + 318^2)
        assert distance(Point3(200, 0, 0), Point3(200, 40, 318)) == pytest.approx(
            math.sqrt(40**2 + 318**2), abs=1e-9
        )
        assert distance(Point3(200, 300, 0), Point3(200, 40, 318)) == pytest.approx(
            math.sqrt(260**2 + 318**2), abs=1e-9
        )
        assert math.sqrt(40**2 + 318**2) == pytest.approx(320.5058, abs=1e-4)
        assert math.sqrt(260**2 + 318**2) == pytest.approx(410.7603, abs=1e-4)

    @given(points, points)
    def test_symmetric_nonnegative(self, a, b):
        assert distance(a, b) == distance(b, a) >= 0.0

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    def test_zero_iff_equal(self):
        a = Point3(1.5, -2.0, 3.25)
        assert distance(a, Point3(1.5, -2.0, 3.25)) == 0.0
        assert distance(a, Point3(1.5, -2.0, 3.250001)) > 0.0


class TestIncidenceAngle:
    def test_directly_beneath(self):
        lum = make_luminaire(anchor=Point3(100, 100, 300))
        pose = Pose(Point3(100, 100, 50))
        assert incidence_angle(lum, pose) == pytest.approx(0.0, abs=1e-12)

    def test_right_triangle_30deg(self):
        h = 200.0
        offset = h * math.tan(math.radians(30.0))
        lum = make_luminaire(anchor=Point3(offset, 0, 300))
        pose = Pose(Point3(0, 0, 100))
        assert incidence_angle(lum, pose) == pytest.approx(30.0, abs=1e-9)

    def test_45deg(self):
        lum = make_luminaire(anchor=Point3(250, 0, 350))
        pose = Pose(Point3(0, 0, 100))
        assert incidence_angle(lum, pose) == pytest.approx(45.0, abs=1e-9)

    def test_coincident_raises(self):
        lum = make_luminaire(anchor=Point3(1, 2, 3))
        with pytest.raises(ValueError):
            incidence_angle(lum, Pose(Point3(1, 2, 3)))

    @given(st.floats(min_value=0, max_value=2 * math.pi))
    def test_rotation_about_axis_invariant(self, rot):
        # rotating the scene about the (vertical) optical axis keeps the angle
        c, s = math.cos(rot), math.sin(rot)
        x, y = 120.0, -80.0
        lum0 = make_luminaire(anchor=Point3(x, y, 300))
        lum1 = make_luminaire(anchor=Point3(c * x - s * y, s * x + c * y, 300))
        pose = Pose(Point3(0, 0, 100))
        assert incidence_angle(lum0, pose) == pytest.approx(
            incidence_angle(lum1, pose), abs=1e-9
        )


class TestTypes:
    def test_point_requires_finite(self):
        with pytest.raises(ValueError):
            Point3(math.nan, 0, 0)

    def test_point_is_a_frozen_value(self):
        """Point3 sets its fields in its own __init__; it keeps the value
        semantics a plain frozen dataclass gives."""
        p = Point3(1, 2.5, -0.0)
        assert (type(p.x), p.as_tuple()) == (float, (1.0, 2.5, 0.0))
        assert p == Point3(1.0, 2.5, 0.0) and hash(p) == hash(Point3(1.0, 2.5, 0.0))
        assert repr(p) == "Point3(x=1.0, y=2.5, z=-0.0)"
        assert replace(p, z=3) == Point3(x=1.0, y=2.5, z=3.0)
        with pytest.raises(ValueError, match="non-finite"):
            replace(p, y=math.inf)
        with pytest.raises(FrozenInstanceError):
            p.x = 0.0
        assert not hasattr(p, "__dict__")
        assert pickle.loads(pickle.dumps(p)) == p

    def test_pose_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            Pose(Point3(0, 0, 0), (0.0, 0.0, 1.001))

    def test_room_requires_positive(self):
        with pytest.raises(ValueError):
            RoomConfig(100, 100, 0)

    def test_camera_fov_range(self):
        with pytest.raises(ValueError):
            CameraModel(5.0, 7.1e-3, 200.0)

    def test_luminaire_area_mismatch(self):
        with pytest.raises(ValueError):
            make_luminaire(area_mm2=25000.0)

    @pytest.mark.parametrize(
        "shape, message",
        [
            (lambda: Circular(-85.0), "radius_mm=-85.0 must be finite and non-negative"),
            (lambda: Circular(math.nan), "radius_mm=nan must be finite"),
            (lambda: Circular(math.inf), "radius_mm=inf must be finite"),
            (lambda: Rectangular(-10.0, -20.0), "width_mm=-10.0 must be finite and non-negative"),
            (lambda: Rectangular(10.0, -20.0), "height_mm=-20.0 must be finite and non-negative"),
            (lambda: Rectangular(10.0, math.inf), "height_mm=inf must be finite"),
        ],
        ids=["negative-radius", "nan-radius", "infinite-radius", "negative-rectangle",
             "negative-height", "infinite-height"],
    )
    def test_a_size_that_is_negative_or_not_finite_is_refused(self, shape, message):
        """pi r^2 and w h are positive for negative sizes, so a -85 mm radius
        and a -10 x -20 mm rectangle were once accepted."""
        with pytest.raises(ValueError, match=re.escape(message)):
            shape()

    def test_a_zero_size_is_kept(self):
        assert Circular(0.0).area_mm2 == 0.0 and Rectangular(0.0, 5.0).area_mm2 == 0.0

    @pytest.mark.parametrize(
        "shape, area_mm2",
        [(Circular(1e154), 22700.0), (Circular(1e300), None), (Circular(1e300), 22700.0),
         (Rectangular(1e200, 1e200), None), (Circular(85.0), math.inf),
         (Circular(85.0), math.nan)],
        ids=["area-rounds-to-inf", "radius-squared-overflows", "overflow-beside-a-given-area",
             "rectangle", "infinite-given-area", "nan-given-area"],
    )
    def test_an_area_that_is_not_finite_is_refused(self, shape, area_mm2):
        """The 0.1 % agreement test passes against an infinite shape area and
        against a NaN given one, so both were once built."""
        with pytest.raises(ValueError, match="must be finite"):
            Luminaire(1, Point3(0, 0, 0), shape, area_mm2=area_mm2)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Circular(10**400), "radius_mm=1000"),
            (lambda: Rectangular(10**400, 1), "width_mm=1000"),
            (lambda: Rectangular(1, 10**400), "height_mm=1000"),
            (lambda: Luminaire(1, Point3(0, 0, 0), Circular(85.0), area_mm2=10**400),
             "must be finite"),
            (lambda: Luminaire(1, Point3(0, 0, 0), Rectangular(10**200, 10**200)),
             "must be finite"),
            (lambda: RoomConfig(1000, 10**400, 300), "depth_cm must be finite"),
            (lambda: CameraModel(10**400, 7.1e-3, 120.0), "focal_length_mm must be finite"),
            (lambda: CameraModel(5.0, 10**400, 120.0), "pixel_edge_mm must be finite"),
            (lambda: Point3(0, 10**400, 0), "non-finite point"),
            (lambda: Pose(Point3(0, 0, 0), (0, 0, 10**400)), "must be unit length"),
        ],
        ids=["radius", "width", "height", "given-area", "int-shape-area", "room", "focal-length",
             "pixel-edge", "point", "axis"],
    )
    def test_an_int_past_the_float_range_raises_value_error(self, build, message):
        """math.isfinite and float() raise OverflowError for such an int, and
        each of these once let it out."""
        with pytest.raises(ValueError, match=message):
            build()

    def test_luminaire_area_within_tolerance(self):
        lum = make_luminaire(area_mm2=22700.0)  # pi * 85^2 = 22698.0
        assert lum.area_mm2 == 22700.0

    @given(st.floats(min_value=1.0, max_value=500.0))
    def test_circular_area_consistency(self, r):
        lum = Luminaire(1, Point3(0, 0, 300), Circular(r))
        assert lum.area_mm2 == pytest.approx(math.pi * r * r, rel=1e-12)

    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=1.0, max_value=500.0),
    )
    def test_rectangular_area_consistency(self, w, h):
        lum = Luminaire(1, Point3(0, 0, 300), Rectangular(w, h))
        assert lum.area_mm2 == pytest.approx(w * h, rel=1e-12)

    def test_led_id_32bit(self):
        with pytest.raises(ValueError):
            make_luminaire(led_id=2**32)
