import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occloc.geometry import CameraModel, Circular, Luminaire, Point3, Pose, distance
from occloc.imaging import (
    FeasibilityRegime,
    distance_from_pixels,
    feasibility,
    image_distance,
    observe_scene,
    pixel_count,
    project,
    ranging_constant,
    visible,
)

CAMERA = CameraModel(focal_length_mm=5.0, pixel_edge_mm=7.1e-3, fov_full_angle_deg=120.0)
FIXTURE = Luminaire(1, Point3(0, 0, 300), Circular(85.0), area_mm2=22700.0)


class TestImageDistance:
    def test_symmetric_conjugate(self):
        assert image_distance(5.0, 10.0) == pytest.approx(10.0)

    def test_worked_value(self):
        assert image_distance(5.0, 3000.0) == pytest.approx(5.00835, abs=1e-5)

    def test_far_limit_approaches_focal_length(self):
        assert image_distance(5.0, 1e9) == pytest.approx(5.0, rel=1e-8)

    def test_inside_focal_length(self):
        with pytest.raises(ValueError):
            image_distance(5.0, 5.0)


class TestPixelCount:
    def test_reference_value(self):
        # f=5 mm, rho=7.1e-3 mm, S=22700 mm^2, d=3000 mm
        assert pixel_count(CAMERA, FIXTURE, 300.0) == pytest.approx(1250.9, abs=0.1)

    def test_inverse_square(self):
        assert pixel_count(CAMERA, FIXTURE, 600.0) == pytest.approx(
            pixel_count(CAMERA, FIXTURE, 300.0) / 4.0, rel=1e-12
        )

    def test_zero_area(self):
        lum = Luminaire(1, Point3(0, 0, 300), Circular(0.0))
        assert pixel_count(CAMERA, lum, 300.0) == 0.0

    def test_non_positive_distance(self):
        with pytest.raises(ValueError):
            pixel_count(CAMERA, FIXTURE, 0.0)

    def test_projection_matches_far_field(self):
        # the exact thin-lens projection converges to the far-field count
        exact = project(CAMERA, FIXTURE, 30000.0).pixel_count
        approx = pixel_count(CAMERA, FIXTURE, 3000.0)
        assert approx == pytest.approx(exact, rel=1e-3)

    def test_projection_invariants(self):
        proj = project(CAMERA, FIXTURE, 3000.0)
        d, f = 3000.0, CAMERA.focal_length_mm
        assert proj.magnification == pytest.approx(proj.image_distance_mm / d, rel=1e-12)
        assert proj.magnification == pytest.approx(f / (d - f), rel=1e-12)

    def test_rectangular_projection_pixel_identity(self):
        # for rectangular emitters the pixel count is the image area in pixels
        from occloc.geometry import Rectangular

        lum = Luminaire(1, Point3(0, 0, 300), Rectangular(100.0, 200.0))
        proj = project(CAMERA, lum, 4000.0)
        assert proj.pixel_count == pytest.approx(
            proj.image_width_mm * proj.image_height_mm / CAMERA.pixel_edge_mm**2,
            rel=1e-12,
        )


class TestDistanceFromPixels:
    def test_algebraic_identity(self):
        tau = ranging_constant(CAMERA, FIXTURE)
        assert distance_from_pixels(tau, tau**2) == pytest.approx(1.0)

    def test_round_trip_reference(self):
        tau = ranging_constant(CAMERA, FIXTURE)
        assert distance_from_pixels(tau, 1250.9) == pytest.approx(3000.0, abs=1.0)

    def test_quadrupled_count_halves_distance(self):
        tau = ranging_constant(CAMERA, FIXTURE)
        assert distance_from_pixels(tau, 4.0 * 100.0) == pytest.approx(
            distance_from_pixels(tau, 100.0) / 2.0, rel=1e-12
        )

    def test_rejects_non_positive(self):
        tau = ranging_constant(CAMERA, FIXTURE)
        with pytest.raises(ValueError):
            distance_from_pixels(tau, 0.0)

    def test_zero_area_fixture_has_no_ranging_constant(self):
        lum = Luminaire(1, Point3(0, 0, 300), Circular(0.0))
        with pytest.raises(ValueError, match="tau_mm must be positive"):
            ranging_constant(CAMERA, lum)

    @given(st.floats(min_value=50.0, max_value=5e6))
    def test_round_trip_property(self, d_mm):
        tau = ranging_constant(CAMERA, FIXTURE)
        eta = pixel_count(CAMERA, FIXTURE, d_mm / 10.0)
        assert distance_from_pixels(tau, eta) == pytest.approx(d_mm, rel=1e-9)

    @given(
        st.floats(min_value=50.0, max_value=1e5),
        st.floats(min_value=1.01, max_value=10.0),
    )
    def test_strictly_decreasing_in_distance(self, d_mm, factor):
        near = pixel_count(CAMERA, FIXTURE, d_mm / 10.0)
        far = pixel_count(CAMERA, FIXTURE, d_mm * factor / 10.0)
        assert far < near


class TestVisible:
    def test_directly_overhead(self):
        lum = Luminaire(1, Point3(0, 0, 300), Circular(85.0))
        assert visible(lum, Pose(Point3(0, 0, 100)), 120.0)

    def test_fov_boundary(self):
        dz = 200.0
        for angle, expected in ((59.0, True), (61.0, False)):
            lum = Luminaire(
                1, Point3(dz * math.tan(math.radians(angle)), 0, 300), Circular(85.0)
            )
            assert visible(lum, Pose(Point3(0, 0, 100)), 120.0) is expected

    def test_degenerate_zero_fov(self):
        overhead = Luminaire(1, Point3(0, 0, 300), Circular(85.0))
        offset = Luminaire(2, Point3(1.0, 0, 300), Circular(85.0))
        pose = Pose(Point3(0, 0, 100))
        assert visible(overhead, pose, 0.0)
        assert not visible(offset, pose, 0.0)


class TestFeasibility:
    @pytest.mark.parametrize(
        "eta,regime",
        [
            (4.0, FeasibilityRegime.FULL),
            (10.0, FeasibilityRegime.FULL),
            (2.0, FeasibilityRegime.DEGRADED),
            (1.0, FeasibilityRegime.DEGRADED),
            (0.5, FeasibilityRegime.IMPOSSIBLE),
        ],
    )
    def test_thresholds(self, eta, regime):
        assert feasibility(eta) is regime

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            feasibility(-0.1)


def scene_luminaires(xy_list, ceiling=300.0):
    return [
        Luminaire(i + 1, Point3(x, y, ceiling), Circular(85.0))
        for i, (x, y) in enumerate(xy_list)
    ]


class TestObserveScene:
    def test_noise_free_matches_pixel_count(self):
        lums = scene_luminaires([(0, 0), (150, 0), (0, 150)])
        pose = Pose(Point3(20, 30, 100))
        for sig in observe_scene(lums, pose, CAMERA):
            lum = lums[sig.led_id - 1]
            d = distance(pose.position, lum.anchor)
            assert sig.pixel_area == pytest.approx(pixel_count(CAMERA, lum, d), rel=1e-12)

    def test_three_fixture_ordering(self):
        # nearly-overhead green, nearby blue, distant red: pixel areas must
        # order green > blue > red while distances order the other way
        green, blue, red = (100.0, 100.0), (180.0, 100.0), (300.0, 220.0)
        lums = scene_luminaires([red, green, blue])
        pose = Pose(Point3(101.0, 100.0, 100.0))
        sightings = {s.led_id: s.pixel_area for s in observe_scene(lums, pose, CAMERA)}
        eta_red, eta_green, eta_blue = sightings[1], sightings[2], sightings[3]
        assert eta_green > eta_blue > eta_red

    def test_invisible_fixtures_skipped(self):
        lums = scene_luminaires([(0, 0), (5000, 5000)])
        pose = Pose(Point3(0, 0, 100))
        ids = [s.led_id for s in observe_scene(lums, pose, CAMERA)]
        assert ids == [1]

    def test_deterministic_for_seed(self):
        lums = scene_luminaires([(0, 0), (150, 0), (0, 150)])
        pose = Pose(Point3(20, 30, 100))
        a = observe_scene(lums, pose, CAMERA, 5.0, np.random.default_rng(42))
        b = observe_scene(lums, pose, CAMERA, 5.0, np.random.default_rng(42))
        assert a == b

    def test_noise_requires_rng(self):
        with pytest.raises(ValueError):
            observe_scene([], Pose(Point3(0, 0, 0)), CAMERA, noise_sigma_pixels=1.0)

    def test_noise_clamped_at_zero(self):
        lums = scene_luminaires([(0, 0)])
        pose = Pose(Point3(0, 0, 100))
        out = observe_scene(lums, pose, CAMERA, 1e9, np.random.default_rng(3))
        assert all(s.pixel_area >= 0.0 for s in out)

    def test_nearest_has_largest_area(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            xy = rng.uniform(0, 600, size=(6, 2))
            lums = scene_luminaires([tuple(p) for p in xy])
            pose = Pose(Point3(*rng.uniform(100, 500, size=2), 100.0))
            sightings = observe_scene(lums, pose, CAMERA)
            if len(sightings) < 2:
                continue
            by_eta = sorted(sightings, key=lambda s: -s.pixel_area)
            dists = {
                s.led_id: distance(pose.position, lums[s.led_id - 1].anchor)
                for s in sightings
            }
            by_dist = sorted(sightings, key=lambda s: dists[s.led_id])
            # argsort by pixel area descending equals argsort by distance ascending
            assert [s.led_id for s in by_eta] == [s.led_id for s in by_dist]
