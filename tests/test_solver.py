import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from occloc.geometry import Point3, RoomConfig, distance
from occloc.solver import (
    CEILING_TOLERANCE_CM,
    AnchorMeasurement,
    CollinearAnchors,
    DegenerateAnchors,
    InsufficientAnchors,
    Method,
    NoFeasibleCandidate,
    NoRealRoot,
    RankDeficient,
    estimate_position,
    multilaterate,
    resolve_ambiguity,
    trilaterate,
    trilaterate_collinear,
)

ROOM = RoomConfig(1219.0, 1219.0, 300.0)


def measure_from(truth: Point3, anchors_xy, ceiling=300.0):
    """Forward-distance oracle: exact measurements from a known truth."""
    out = []
    for x, y in anchors_xy:
        anchor = Point3(x, y, ceiling)
        out.append(AnchorMeasurement(anchor, distance(truth, anchor)))
    return out


def sphere_misfits(measurements, p: Point3):
    return [abs(distance(p, m.anchor) - m.distance_cm) for m in measurements]


def exact_reference(measurements):
    """The centered solve in exact rational arithmetic.

    Solves the normal equations of 2 c_j . p = (|c_j|^2 - mean |c|^2) -
    (d_j^2 - mean d^2) for the horizontal position and returns (x, y, h, m):
    the position, the mean anchor height and m = mean(d^2 - rho^2), the
    squared height offset (negative when the distances admit no real root).
    """
    n = len(measurements)
    ax = [Fraction(meas.anchor.x) for meas in measurements]
    ay = [Fraction(meas.anchor.y) for meas in measurements]
    d2 = [Fraction(meas.distance_cm) ** 2 for meas in measurements]
    cx0, cy0 = sum(ax) / n, sum(ay) / n
    cx = [x - cx0 for x in ax]
    cy = [y - cy0 for y in ay]
    c2 = [x * x + y * y for x, y in zip(cx, cy)]
    c2_mean, d2_mean = sum(c2) / n, sum(d2) / n
    rhs = [(a - c2_mean) - (b - d2_mean) for a, b in zip(c2, d2)]
    # (2C)^T (2C) p = (2C)^T rhs, solved by Cramer's rule
    sxx = sum(x * x for x in cx)
    sxy = sum(x * y for x, y in zip(cx, cy))
    syy = sum(y * y for y in cy)
    bx = sum(x * r for x, r in zip(cx, rhs)) / 2
    by = sum(y * r for y, r in zip(cy, rhs)) / 2
    det = sxx * syy - sxy * sxy
    px = (bx * syy - by * sxy) / det
    py = (sxx * by - sxy * bx) / det
    rho2 = [(x - px) ** 2 + (y - py) ** 2 for x, y in zip(cx, cy)]
    m = sum(b - r for b, r in zip(d2, rho2)) / n
    h = sum(Fraction(meas.anchor.z) for meas in measurements) / n
    return cx0 + px, cy0 + py, h, m


class TestBuildSystem:
    """What building the anchor system checks: the anchor count, one common
    ceiling, and that measurement order does not matter."""

    def test_reversed_measurements_give_the_same_estimate(self):
        rng = np.random.default_rng(4)
        anchors = [(0, 0), (150, 0), (0, 150), (150, 150), (300, 75)]
        for n in (3, 5):
            exact = measure_from(Point3(50, 60, 100), anchors[:n])
            ms = [AnchorMeasurement(m.anchor, m.distance_cm + rng.normal(0, 5.0)) for m in exact]
            a = estimate_position(ms, ROOM)
            b = estimate_position(ms[::-1], ROOM)
            assert distance(a.position, b.position) <= 1e-9
            assert a.method is b.method

    def test_too_few(self):
        with pytest.raises(InsufficientAnchors):
            estimate_position(measure_from(Point3(0, 0, 0), [(0, 0), (1, 1)]), ROOM)

    def test_mixed_ceilings(self):
        ms = [
            AnchorMeasurement(Point3(0, 0, 300), 1.0),
            AnchorMeasurement(Point3(1, 0, 299), 1.0),
            AnchorMeasurement(Point3(0, 1, 300), 1.0),
        ]
        with pytest.raises(ValueError):
            estimate_position(ms, ROOM)


class TestTrilaterate:
    def test_mirror_candidates(self):
        truth = Point3(50, 50, 0)
        ms = measure_from(truth, [(0, 0), (150, 0), (0, 150)])
        est = trilaterate(ms)
        assert distance(est.position, truth) < 1e-6
        assert len(est.candidates) == 1
        assert distance(est.candidates[0], Point3(50, 50, 600)) < 1e-6
        for cand in (est.position, *est.candidates):
            assert max(sphere_misfits(ms, cand)) < 1e-6
        assert est.method is Method.TRILATERATION
        assert est.residual_cm < 1e-9

    def test_equidistant_centroid(self):
        # equilateral anchor triangle, camera equidistant -> x, y at the centroid
        anchors = [(0.0, 0.0), (150.0, 0.0), (75.0, 75.0 * math.sqrt(3.0))]
        cx, cy = 75.0, 75.0 / math.sqrt(3.0) * 1.5  # centroid of equilateral triangle
        truth = Point3(cx, cy, 80.0)
        est = trilaterate(measure_from(truth, anchors))
        assert est.position.x == pytest.approx(cx, abs=1e-6)
        assert est.position.y == pytest.approx(cy, abs=1e-6)

    def test_collinear_rejected(self):
        ms = measure_from(Point3(200, 40, 100), [(200, 0), (200, 150), (200, 300)])
        with pytest.raises(CollinearAnchors):
            trilaterate(ms)

    def test_inconsistent_distances_no_real_root(self):
        ms = [
            AnchorMeasurement(Point3(0, 0, 300), 300.5),
            AnchorMeasurement(Point3(150, 0, 300), 300.5),
            AnchorMeasurement(Point3(0, 150, 300), 2000.0),
        ]
        with pytest.raises(NoRealRoot):
            trilaterate(ms)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            trilaterate(measure_from(Point3(1, 1, 0), [(0, 0), (1, 0), (0, 1), (1, 1)]))

    def test_mirror_structure(self):
        # candidates share (x, y) and mirror across the anchor plane
        rng = np.random.default_rng(33)
        for _ in range(100):
            ceiling = float(rng.uniform(250, 400))
            truth = Point3(*rng.uniform(100, 900, size=2), rng.uniform(0, ceiling - 20))
            spread = rng.uniform(100, 400)
            anchors = [
                (truth.x - spread, truth.y - spread),
                (truth.x + spread, truth.y - spread),
                (truth.x, truth.y + spread),
            ]
            est = trilaterate(measure_from(truth, anchors, ceiling))
            if not est.candidates:
                continue
            a, b = est.position, est.candidates[0]
            assert a.x == pytest.approx(b.x, abs=1e-6)
            assert a.y == pytest.approx(b.y, abs=1e-6)
            assert (a.z + b.z) / 2.0 == pytest.approx(ceiling, abs=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_forward_inverse_random(self, seed):
        rng = np.random.default_rng(seed)
        ceiling = float(rng.uniform(250, 400))
        room = RoomConfig(1219, 1219, ceiling)
        anchors = rng.uniform(0, 1000, size=(3, 2))
        # reject nearly-collinear triples the same way a grid layout avoids them
        u, v = anchors[1] - anchors[0], anchors[2] - anchors[0]
        area = abs(u[0] * v[1] - u[1] * v[0])
        if area < 1e3:
            return
        truth = Point3(*rng.uniform(100, 900, size=2), rng.uniform(0, ceiling - 50))
        ms = measure_from(truth, [tuple(a) for a in anchors], ceiling)
        est = estimate_position(ms, room)
        assert distance(est.position, truth) < 1e-6


class TestTrilaterateCollinear:
    def test_exact_recovery_with_height(self):
        truth = Point3(200, 40, 100)
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = trilaterate_collinear(ms, camera_height_cm=100.0)
        assert distance(est.position, truth) < 1e-6
        assert est.method is Method.COLLINEAR_FAMILY
        assert est.family is not None
        # family: along-line coordinate at y = 40, radius = vertical drop
        assert est.family.line_point.y == pytest.approx(40.0, abs=1e-9)
        assert est.family.radius_cm == pytest.approx(200.0, abs=1e-9)

    def test_family_without_height_reports_circle_bottom(self):
        truth = Point3(200, 40, 100)
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = trilaterate_collinear(ms)
        assert est.position.z == pytest.approx(100.0, abs=1e-9)

    def test_two_points_at_height(self):
        truth = Point3(230, 40, 100)  # off the anchor plane: two mirror points
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = trilaterate_collinear(ms, camera_height_cm=100.0)
        pts = [est.position, *est.candidates]
        assert len(pts) == 2
        assert any(distance(p, truth) < 1e-6 for p in pts)
        mirror = Point3(170, 40, 100)
        assert any(distance(p, mirror) < 1e-6 for p in pts)

    def test_truth_on_line_degenerates(self):
        truth = Point3(200, 70, 300)
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = trilaterate_collinear(ms)
        assert est.family.radius_cm == pytest.approx(0.0, abs=1e-5)
        assert distance(est.position, truth) < 1e-5

    def test_mirrored_truths_same_family(self):
        ms_left = measure_from(Point3(150, 40, 100), [(200, 0), (200, 150), (200, 300)])
        ms_right = measure_from(Point3(250, 40, 100), [(200, 0), (200, 150), (200, 300)])
        fam_l = trilaterate_collinear(ms_left).family
        fam_r = trilaterate_collinear(ms_right).family
        assert distance(fam_l.line_point, fam_r.line_point) < 1e-9
        assert fam_l.radius_cm == pytest.approx(fam_r.radius_cm, abs=1e-9)

    def test_coincident_anchors(self):
        ms = [
            AnchorMeasurement(Point3(10, 10, 300), 100.0),
            AnchorMeasurement(Point3(10, 10, 300), 120.0),
        ]
        with pytest.raises(DegenerateAnchors):
            trilaterate_collinear(ms)

    def test_non_collinear_rejected(self):
        ms = measure_from(Point3(50, 50, 100), [(0, 0), (150, 0), (0, 150)])
        with pytest.raises(ValueError):
            trilaterate_collinear(ms)


class TestMultilaterate:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            truth = Point3(*rng.uniform(200, 1000, size=2), rng.uniform(0, 250))
            anchors = [tuple(a) for a in rng.uniform(0, 1200, size=(5, 2))]
            est = multilaterate(measure_from(truth, anchors))
            assert distance(est.position, truth) < 1e-6
            assert est.method is Method.LEAST_SQUARES

    def test_duplicated_measurements_identical(self):
        truth = Point3(300, 400, 120)
        ms = measure_from(truth, [(0, 0), (600, 0), (0, 600), (600, 600)])
        a = multilaterate(ms)
        b = multilaterate(ms + ms)
        assert distance(a.position, b.position) < 1e-9

    def test_perturbed_distance_raises_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            truth = Point3(*rng.uniform(300, 900, size=2), float(rng.uniform(50, 200)))
            anchors = [
                (truth.x - 200, truth.y - 200),
                (truth.x + 200, truth.y - 200),
                (truth.x - 200, truth.y + 200),
                (truth.x + 200, truth.y + 200),
            ]
            ms = measure_from(truth, anchors)
            bumped = [
                AnchorMeasurement(ms[0].anchor, ms[0].distance_cm + 5.0),
                *ms[1:],
            ]
            est = multilaterate(bumped)
            assert est.residual_cm > 0.0
            assert distance(est.position, truth) < 15.0

    def test_collinear_rank_deficient(self):
        ms = measure_from(Point3(200, 40, 100), [(200, 0), (200, 100), (200, 200), (200, 300)])
        with pytest.raises(RankDeficient):
            multilaterate(ms)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            multilaterate(measure_from(Point3(1, 1, 0), [(0, 0), (1, 0), (0, 1)]))


class TestResolveAmbiguity:
    def test_only_feasible_survives(self):
        got = resolve_ambiguity([Point3(50, 50, 0), Point3(50, 50, 600)], ROOM)
        assert got == Point3(50, 50, 0)

    def test_prior_breaks_tie(self):
        cands = [Point3(50, 50, 40), Point3(50, 50, 260)]
        got = resolve_ambiguity(cands, ROOM, prior=Point3(10, 10, 250))
        assert got == Point3(50, 50, 260)

    def test_no_prior_picks_lowest(self):
        cands = [Point3(50, 50, 260), Point3(50, 50, 40)]
        assert resolve_ambiguity(cands, ROOM) == Point3(50, 50, 40)

    def test_empty_feasible_set(self):
        with pytest.raises(NoFeasibleCandidate):
            resolve_ambiguity([Point3(0, 0, -50), Point3(0, 0, 650)], ROOM)


class TestEstimatePosition:
    def test_three_anchor_truth(self):
        truth = Point3(420, 510, 110)
        ms = measure_from(truth, [(300, 450), (450, 450), (300, 600)])
        est = estimate_position(ms, ROOM)
        assert distance(est.position, truth) < 1e-6
        assert est.method is Method.TRILATERATION

    def test_five_anchors_tagged_least_squares(self):
        truth = Point3(420, 510, 110)
        ms = measure_from(truth, [(300, 450), (450, 450), (300, 600), (450, 600), (600, 450)])
        est = estimate_position(ms, ROOM)
        assert est.method is Method.LEAST_SQUARES
        assert distance(est.position, truth) < 1e-6

    def test_two_anchors_insufficient(self):
        ms = measure_from(Point3(100, 100, 50), [(0, 0), (150, 0)])
        with pytest.raises(InsufficientAnchors):
            estimate_position(ms, ROOM)

    def test_noisy_three_anchor_fallback(self):
        # distances inconsistent: exact intersection impossible, least-squares
        # compromise returned instead of an error
        truth = Point3(420, 510, 110)
        ms = measure_from(truth, [(300, 450), (450, 450), (300, 600)])
        bumped = [
            AnchorMeasurement(ms[0].anchor, ms[0].distance_cm * 1.25),
            AnchorMeasurement(ms[1].anchor, ms[1].distance_cm * 0.8),
            ms[2],
        ]
        est = estimate_position(bumped, ROOM)
        assert est.method is Method.LEAST_SQUARES
        assert est.residual_cm > 0.0

    def test_prior_steers_collinear_case(self):
        truth = Point3(230, 40, 100)
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = estimate_position(ms, ROOM, prior=Point3(228, 42, 100))
        assert distance(est.position, truth) < 1e-6

    def test_collinear_circle_dipping_below_floor(self):
        # distances larger than the ceiling drop: the circle's lowest point is
        # underground, so the estimate comes from the floor-level slice
        ms = [
            AnchorMeasurement(Point3(200, 0, 300), math.hypot(40, 350)),
            AnchorMeasurement(Point3(200, 150, 300), math.hypot(110, 350)),
            AnchorMeasurement(Point3(200, 300, 300), math.hypot(260, 350)),
        ]
        est = estimate_position(ms, ROOM)
        assert est.position.z == pytest.approx(0.0, abs=1e-9)
        assert est.position.y == pytest.approx(40.0, abs=1e-6)
        assert 0 <= est.position.x <= ROOM.width_cm

    def test_room_mismatch(self):
        ms = measure_from(Point3(100, 100, 50), [(0, 0), (150, 0), (0, 150)], ceiling=250.0)
        with pytest.raises(ValueError):
            estimate_position(ms, ROOM)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(9)
        truth = Point3(400, 500, 90)
        anchors = [(300, 450), (450, 450), (300, 600), (500, 550)]
        base = estimate_position(measure_from(truth, anchors), ROOM)
        for _ in range(10):
            dx, dy = rng.uniform(-100, 100, size=2)
            shifted_truth = Point3(truth.x + dx, truth.y + dy, truth.z)
            shifted_anchors = [(x + dx, y + dy) for x, y in anchors]
            est = estimate_position(measure_from(shifted_truth, shifted_anchors), ROOM)
            assert est.position.x == pytest.approx(base.position.x + dx, abs=1e-6)
            assert est.position.y == pytest.approx(base.position.y + dy, abs=1e-6)
            assert est.position.z == pytest.approx(base.position.z, abs=1e-6)

    def test_residual_zero_iff_consistent(self):
        truth = Point3(420, 510, 110)
        anchors = [(300, 450), (450, 450), (300, 600), (450, 600)]
        exact = estimate_position(measure_from(truth, anchors), ROOM)
        assert exact.residual_cm <= 1e-9
        ms = measure_from(truth, anchors)
        noisy = [AnchorMeasurement(ms[0].anchor, ms[0].distance_cm + 1.0), *ms[1:]]
        assert estimate_position(noisy, ROOM).residual_cm > 1e-9


class TestWorkedExample:
    """The three published distances are mutually inconsistent; the pair
    d1/d3 plus the anchor-line constraint reproduces the published answer."""

    ANCHORS = [(200.0, 0.0), (200.0, 150.0), (200.0, 300.0)]
    D1, D2, D3 = 320.0, 317.5, 410.37

    def test_consistent_pair_recovers_published_point(self):
        ceiling = 300.0
        ms = [
            AnchorMeasurement(Point3(200, 0, ceiling), self.D1),
            AnchorMeasurement(Point3(200, 300, ceiling), self.D3),
        ]
        est = trilaterate_collinear(ms)
        # published answer: y = 40, vertical offset 317.5 below the fixtures
        assert est.family.line_point.y == pytest.approx(40.0, abs=0.1)
        assert est.family.radius_cm == pytest.approx(317.5, abs=0.5)

    def test_middle_distance_is_inconsistent(self):
        # d1 and d3 imply y = 40; d2 would imply y = 80.3: no common point
        y_from_pair = (90000.0 - (self.D3**2 - self.D1**2)) / 600.0
        y_from_d2 = (22500.0 - (self.D2**2 - self.D1**2)) / 300.0
        assert y_from_pair == pytest.approx(40.0, abs=0.1)
        assert y_from_d2 == pytest.approx(80.3, abs=0.1)

    def test_three_distance_solve_has_large_residual(self):
        ceiling = 300.0
        ms = [
            AnchorMeasurement(Point3(x, y, ceiling), d)
            for (x, y), d in zip(self.ANCHORS, (self.D1, self.D2, self.D3))
        ]
        est = estimate_position(ms, RoomConfig(1219, 1219, ceiling))
        assert est.method is Method.COLLINEAR_FAMILY
        assert est.residual_cm > 1.0


class TestGeometricDilution:
    def test_vertical_error_dominates(self):
        # overhead anchors at the view-cone periphery (horizontal spread wider
        # than the vertical drop) resolve x/y from range differences but leave
        # the vertical component noise-amplified
        rng = np.random.default_rng(21)
        truth = Point3(600, 600, 100)
        anchors = [(225, 225), (975, 225), (225, 975), (975, 975)]
        z_sq, xy_sq = [], []
        for _ in range(300):
            ms = [
                AnchorMeasurement(m.anchor, m.distance_cm + rng.normal(0, 2.0))
                for m in measure_from(truth, anchors)
            ]
            est = estimate_position(ms, ROOM)
            z_sq.append((est.position.z - truth.z) ** 2)
            xy_sq.append((est.position.x - truth.x) ** 2)
            xy_sq.append((est.position.y - truth.y) ** 2)
        assert math.sqrt(np.mean(z_sq)) > math.sqrt(np.mean(xy_sq))


def _pool(est):
    return {est.position, *est.candidates}


class TestSinglePass:
    """estimate_position solves non-collinear anchors in one pass; its pool
    must be the one the dedicated solvers produce."""

    GRID = [(300, 450), (450, 450), (300, 600), (450, 600), (600, 450), (600, 600)]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(4, 6),
        x=st.floats(300, 600),
        y=st.floats(450, 600),
        z=st.floats(20, 250),
        noise=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    )
    def test_pool_matches_multilaterate(self, n, x, y, z, noise):
        exact = measure_from(Point3(x, y, z), self.GRID[:n])
        ms = [AnchorMeasurement(m.anchor, m.distance_cm + e) for m, e in zip(exact, noise)]
        est = estimate_position(ms, ROOM)
        assert est.method is Method.LEAST_SQUARES
        assert _pool(est) == _pool(multilaterate(ms))

    def test_three_consistent_anchors_match_trilaterate(self):
        ms = measure_from(Point3(420, 510, 110), self.GRID[:3])
        est = estimate_position(ms, ROOM)
        assert est.method is Method.TRILATERATION
        assert _pool(est) == _pool(trilaterate(ms))

    def test_three_inconsistent_anchors_fall_back_to_the_vertex(self):
        ms = measure_from(Point3(420, 510, 110), self.GRID[:3])
        bumped = [
            AnchorMeasurement(ms[0].anchor, ms[0].distance_cm * 1.25),
            AnchorMeasurement(ms[1].anchor, ms[1].distance_cm * 0.8),
            ms[2],
        ]
        with pytest.raises(NoRealRoot):
            trilaterate(bumped)
        x, y, h, m = exact_reference(bumped)
        assert m < 0
        est = estimate_position(bumped, ROOM)
        assert est.method is Method.LEAST_SQUARES
        assert est.candidates == ()
        assert est.position.z == ROOM.ceiling_height_cm
        assert est.position.x == pytest.approx(float(x), abs=1e-9)
        assert est.position.y == pytest.approx(float(y), abs=1e-9)


class TestExactReference:
    """estimate_position against the centered solve in exact arithmetic."""

    @settings(max_examples=200, deadline=None)
    @given(
        offsets=st.lists(
            st.tuples(st.floats(-400, 400), st.floats(-400, 400)), min_size=3, max_size=8
        ),
        x=st.floats(400, 800),
        y=st.floats(400, 800),
        z=st.floats(0, 299),
        noise=st.lists(st.floats(-30.0, 30.0), min_size=8, max_size=8),
    )
    def test_matches_the_rational_solve(self, offsets, x, y, z, noise):
        s = np.linalg.svd(np.array(offsets) - np.mean(offsets, axis=0), compute_uv=False)
        assume(s[-1] > 0.05 * s[0])
        exact = measure_from(Point3(x, y, z), [(x + dx, y + dy) for dx, dy in offsets])
        assume(all(ex.distance_cm + e > 0 for ex, e in zip(exact, noise)))
        ms = [AnchorMeasurement(ex.anchor, ex.distance_cm + e) for ex, e in zip(exact, noise)]
        rx, ry, h, m = exact_reference(ms)
        # resolve_ambiguity rejects a pool with no candidate inside the room
        assume(m < 0 or math.sqrt(m) <= ROOM.ceiling_height_cm)
        est = estimate_position(ms, ROOM)
        pool = sorted(_pool(est), key=lambda p: p.z)
        for p in pool:
            assert p.x == pytest.approx(float(rx), abs=1e-9)
            assert p.y == pytest.approx(float(ry), abs=1e-9)
        assert (est.method is Method.TRILATERATION) == (len(ms) == 3 and m >= 0)
        if m >= 0:
            r = math.sqrt(m)
            assert [p.z for p in pool] == pytest.approx([float(h) - r, float(h) + r], abs=1e-6)
        else:
            assert [p.z for p in pool] == [float(h)]


class TestFloorLevelPhone:
    """A phone near the floor: ranging noise can push the lower mirror root
    below the floor while the upper one stays above the ceiling."""

    @settings(max_examples=200, deadline=None)
    @given(
        offsets=st.lists(
            st.tuples(st.floats(-400, 400), st.floats(-400, 400)), min_size=4, max_size=8
        ),
        x=st.floats(400, 800),
        y=st.floats(400, 800),
        z=st.floats(0, 30),
        noise=st.lists(st.floats(-30.0, 30.0), min_size=8, max_size=8),
    )
    def test_estimate_stays_in_the_room(self, offsets, x, y, z, noise):
        s = np.linalg.svd(np.array(offsets) - np.mean(offsets, axis=0), compute_uv=False)
        assume(s[-1] > 0.05 * s[0])
        exact = measure_from(Point3(x, y, z), [(x + dx, y + dy) for dx, dy in offsets])
        assume(all(ex.distance_cm + e > 0 for ex, e in zip(exact, noise)))
        ms = [AnchorMeasurement(ex.anchor, ex.distance_cm + e) for ex, e in zip(exact, noise)]
        est = estimate_position(ms, ROOM)
        # resolve_ambiguity's rounding tolerance: a root at -6e-14 cm is the floor
        assert -1e-9 <= est.position.z <= ROOM.ceiling_height_cm + 1e-9
        reference = multilaterate(ms).position
        assert (est.position.x, est.position.y) == (reference.x, reference.y)

    def test_both_roots_outside_clamp_to_the_floor(self):
        # three anchors with exact roots, but neither root inside the room
        ms = measure_from(Point3(420, 510, 0), [(300, 450), (450, 450), (300, 600)])
        long = [AnchorMeasurement(m.anchor, m.distance_cm + 20.0) for m in ms]
        assert all(p.z < 0 or p.z > 300 for p in _pool(trilaterate(long)))
        est = estimate_position(long, ROOM)
        assert est.position.z == 0.0
        assert est.method is Method.LEAST_SQUARES
        assert est.candidates == ()


def _in_extended_bounds(room: RoomConfig, p: Point3) -> bool:
    mx, my, mz = 0.1 * room.width_cm, 0.1 * room.depth_cm, 0.1 * room.ceiling_height_cm
    return (
        -mx <= p.x <= room.width_cm + mx
        and -my <= p.y <= room.depth_cm + my
        and -mz <= p.z <= room.ceiling_height_cm + mz
    )


class TestCeilingTolerance:
    """Anchors may differ in height by up to CEILING_TOLERANCE_CM; the tiny
    tilt must not cost the mirror pair."""

    SMALL_ROOM = RoomConfig(300.0, 300.0, 300.0)
    CORNERS = [(0, 0), (300, 0), (0, 300), (300, 300), (150, 150), (300, 150)]

    def test_raised_anchor_keeps_the_mirror_pair(self):
        rng = np.random.default_rng(0)
        truth = Point3(150, 120, 100)
        anchors = [Point3(x, y, 300.0) for x, y in self.CORNERS[:4]]
        anchors[0] = Point3(0, 0, 300.0 + 9e-7)
        ms = [AnchorMeasurement(a, distance(truth, a) + rng.normal(0, 1.0)) for a in anchors]
        zs = sorted(p.z for p in _pool(multilaterate(ms)))
        assert zs == pytest.approx([99.77, 500.23], abs=0.01)
        assert estimate_position(ms, self.SMALL_ROOM).position.z == pytest.approx(99.77, abs=0.01)

    @settings(max_examples=150, deadline=None)
    @given(
        raises=st.lists(st.floats(0.0, CEILING_TOLERANCE_CM), min_size=3, max_size=6),
        x=st.floats(50, 250),
        y=st.floats(50, 250),
        z=st.floats(50, 200),
        noise=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    )
    def test_anchors_within_tolerance_give_bounded_estimates(self, raises, x, y, z, noise):
        truth = Point3(x, y, z)
        anchors = [Point3(ax, ay, 300.0 + dz) for (ax, ay), dz in zip(self.CORNERS, raises)]
        ms = [AnchorMeasurement(a, distance(truth, a) + e) for a, e in zip(anchors, noise)]
        est = estimate_position(ms, self.SMALL_ROOM)
        assert _in_extended_bounds(self.SMALL_ROOM, est.position)
        # the mirror candidate lies above the ceiling, but no farther than a range
        reach = max(m.distance_cm for m in ms)
        assert all(abs(p.z - 300.0) <= reach for p in _pool(est))
