import itertools
import math
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from occloc import solver
from occloc.geometry import Point3, RoomConfig, distance
from occloc.server import (
    ANCHOR_CACHE_SIZE,
    DetectionPacket,
    DetectionRecord,
    LedRegistry,
    LightingServer,
)
from occloc.solver import (
    CEILING_TOLERANCE_CM,
    CollinearAnchors,
    CollinearFamily,
    DegenerateAnchors,
    InsufficientAnchors,
    Method,
    NoFeasibleCandidate,
    NoRealRoot,
    estimate_position,
    multilaterate,
    resolve_ambiguity,
    trilaterate,
    trilaterate_collinear,
)

ROOM = RoomConfig(1219.0, 1219.0, 300.0)


def measure_from(truth: Point3, anchors_xy, ceiling=300.0):
    """Forward-distance oracle: the anchors on the ceiling, and the exact
    distance from a known truth to each."""
    anchors = tuple(Point3(x, y, ceiling) for x, y in anchors_xy)
    return anchors, [distance(truth, a) for a in anchors]


def sphere_misfits(anchors, dists, p: Point3):
    return [abs(distance(p, a) - d) for a, d in zip(anchors, dists)]


def exact_reference(anchors, dists):
    """The centered solve in exact rational arithmetic.

    Solves the normal equations of 2 c_j . p = (|c_j|^2 - mean |c|^2) -
    (d_j^2 - mean d^2) for the horizontal position and returns (x, y, h, m):
    the position, the mean anchor height and m = mean(d^2 - rho^2), the
    squared height offset (negative when the distances admit no real root).
    """
    n = len(anchors)
    ax = [Fraction(a.x) for a in anchors]
    ay = [Fraction(a.y) for a in anchors]
    d2 = [Fraction(d) ** 2 for d in dists]
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
    h = sum(Fraction(a.z) for a in anchors) / n
    return cx0 + px, cy0 + py, h, m


class TestBuildSystem:
    """What building the anchor system checks: the anchor count, one common
    ceiling, and that measurement order does not matter."""

    def test_reversed_measurements_give_the_same_estimate(self):
        rng = np.random.default_rng(4)
        anchors = [(0, 0), (150, 0), (0, 150), (150, 150), (300, 75)]
        for n in (3, 5):
            points, exact = measure_from(Point3(50, 60, 100), anchors[:n])
            dists = [d + rng.normal(0, 5.0) for d in exact]
            a = estimate_position(points, dists, ROOM)
            b = estimate_position(points[::-1], dists[::-1], ROOM)
            assert distance(a.position, b.position) <= 1e-9
            assert a.method is b.method

    def test_too_few(self):
        with pytest.raises(InsufficientAnchors):
            estimate_position(*measure_from(Point3(0, 0, 0), [(0, 0), (1, 1)]), ROOM)

    def test_mixed_ceilings(self):
        anchors = (Point3(0, 0, 300), Point3(1, 0, 299), Point3(0, 1, 300))
        with pytest.raises(ValueError):
            estimate_position(anchors, [1.0, 1.0, 1.0], ROOM)


class TestAnchorSpread:
    """Anchors closer together than SINGULAR_FLOOR_CM in one or both directions
    take the collinear path or raise DegenerateAnchors. Without that floor the
    least-squares map divides by their singular values, and at anchors
    1e-150 cm apart its terms overflow."""

    @settings(max_examples=300, deadline=None)
    @given(
        log_spread=st.tuples(st.floats(-300.0, -3.0), st.floats(-300.0, -3.0)),
        base=st.sampled_from([(0.0, 0.0), (1e-200, 0.0), (609.5, 609.5), (1219.0, 0.0)]),
        shape=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=3,
                       max_size=8),
        dists=st.lists(st.floats(1.0, 1e4), min_size=8, max_size=8),
        with_prior=st.booleans(),
    )
    def test_gives_an_estimate_or_a_solver_error(self, log_spread, base, shape, dists,
                                                 with_prior):
        sx, sy = 10.0 ** log_spread[0], 10.0 ** log_spread[1]
        anchors = tuple(Point3(base[0] + sx * u, base[1] + sy * v, 300.0) for u, v in shape)
        prior = Point3(600.0, 600.0, 100.0) if with_prior else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                est = estimate_position(anchors, dists[: len(anchors)], ROOM, prior)
            except solver.SolverError:
                return
        assert isinstance(est, solver.PositionEstimate)
        assert math.isfinite(est.residual_cm)

    @pytest.mark.parametrize(
        "offsets, expected",
        [([(0, 0), (1e-150, 0), (0, 1e-150)], DegenerateAnchors),
         ([(0, 0), (1e-7, 0), (0, 1e-7), (1e-7, 1e-7)], DegenerateAnchors),
         ([(0, 0), (1e-3, 0), (5e-4, 5e-7)], Method.COLLINEAR_FAMILY),
         ([(0, 0), (1e-3, 0), (0, 1e-3)], Method.LEAST_SQUARES)],
        ids=["1e-150", "below-the-floor", "thin-triangle", "above-the-floor"],
    )
    def test_the_floor_picks_the_path(self, offsets, expected):
        anchors = tuple(Point3(x, y, 300.0) for x, y in offsets)
        dists = [100.0 + 100.0 * k for k in range(len(anchors))]
        if isinstance(expected, Method):
            assert estimate_position(anchors, dists, ROOM).method is expected
        else:
            with pytest.raises(expected):
                estimate_position(anchors, dists, ROOM)

    @settings(max_examples=100, deadline=None)
    @given(
        log_coordinate=st.floats(12.0, 308.0),
        which=st.integers(0, 2),
        axis=st.integers(0, 2),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_far_anchors_raise(self, log_coordinate, which, axis, sign):
        """An anchor coordinate past MAX_DISTANCE_CM raises ValueError: its
        square, or a sum of them, would overflow."""
        coordinate = sign * min(10.0**log_coordinate, 1.7e308)
        xyz = [[0.0, 0.0, 300.0], [150.0, 0.0, 300.0], [0.0, 150.0, 300.0]]
        if axis == 2:  # anchors must share one height
            for row in xyz:
                row[2] = coordinate
        else:
            xyz[which][axis] = coordinate
        anchors = tuple(Point3(*row) for row in xyz)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="anchor coordinates"):
                trilaterate(anchors, [200.0] * 3)


class TestDistanceArguments:
    """estimate_position takes the anchor tuple and one distance per anchor,
    each positive and below MAX_DISTANCE_CM; anything else raises ValueError."""

    ANCHORS = tuple(Point3(x, y, 300.0) for x, y in [(300, 450), (450, 450), (300, 600),
                                                     (450, 600), (600, 450), (600, 600)])
    LINE = tuple(Point3(200.0 + 150 * k, 450.0, 300.0) for k in range(6))
    # a distance past the bound once overflowed d^2 in fit_xy, with numpy
    # warnings and a non-finite Point3 in place of this ValueError
    # float() takes numeric strings and booleans, which once solved as numbers
    BAD = (st.floats(max_value=0.0) | st.floats(min_value=solver.MAX_DISTANCE_CM)
           | st.sampled_from([math.nan, math.inf, -math.inf, True, "250", "2e2", b"250"]))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 6),
        dists=st.lists(st.floats(1.0, 1e4), min_size=7, max_size=7),
        extra=st.integers(-3, 1),
        bad=st.lists(st.tuples(st.integers(0, 6), BAD), max_size=3),
    )
    def test_bad_distances_raise(self, n, dists, extra, bad):
        for where, value in bad:
            dists[where] = value
        dists = dists[: n + extra]
        assume(extra != 0 or bad and min(where for where, _ in bad) < n)
        with pytest.raises(ValueError, match="finite, positive distance"):
            estimate_position(self.ANCHORS[:n], dists, ROOM)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(3, 6), dists=st.lists(st.floats(150.0, 400.0), min_size=6, max_size=6))
    def test_any_sequence_of_distances_solves_alike(self, n, dists):
        anchors, dists = self.ANCHORS[:n], dists[:n]
        outcomes = {
            _outcome(estimate_position, anchors, ds, ROOM, None)
            for ds in (dists, tuple(dists), np.array(dists))
        }
        assert len(outcomes) == 1
        # the dedicated solvers take the same sequences alike
        dedicated = trilaterate if n == 3 else multilaterate
        assert len({
            _outcome(dedicated, anchors, ds) for ds in (dists, tuple(dists), np.array(dists))
        }) == 1

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e200])
    @pytest.mark.parametrize(
        "solve, n", [(trilaterate, 3), (multilaterate, 4), (trilaterate_collinear, 3)]
    )
    def test_dedicated_solvers_check_their_distances(self, solve, n, bad):
        if solve is trilaterate_collinear:
            anchors = [Point3(200, 150 * k, 300) for k in range(n)]
        else:
            anchors = self.ANCHORS[:n]
        with pytest.raises(ValueError, match="finite, positive distance"):
            solve(anchors, [bad] + [250.0] * (n - 1))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(3, 6),
        log_dists=st.lists(st.floats(-3.0, math.log10(solver.MAX_DISTANCE_CM)), min_size=6,
                           max_size=6),
        collinear=st.booleans(),
    )
    def test_distances_below_the_bound_stay_finite(self, n, log_dists, collinear):
        """Up to the bound, every square the solve takes stays finite: it gives
        an estimate or a SolverError, never a numpy warning."""
        dists = [min(10.0**e, math.nextafter(solver.MAX_DISTANCE_CM, 0.0)) for e in log_dists[:n]]
        anchors = self.LINE[:n] if collinear else self.ANCHORS[:n]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                est = estimate_position(anchors, dists, ROOM)
            except solver.SolverError:
                return
        assert math.isfinite(est.residual_cm)

    @pytest.mark.parametrize(
        "dists",
        [[[250.0], [260.0], [270.0]], np.full((3, 1), 250.0), None, 250.0, [250.0, None, 270.0],
         "250", b"250", [250.0, "x", 270.0], [250.0, 1j, 270.0], {250.0: 1},
         ["250", "260", "270"], np.array(["250", "260", "270"]), [True, True, True],
         [250.0, True, 270.0], np.array([True, True, True])],
        ids=["nested", "column-array", "none", "scalar", "none-inside", "str", "bytes",
             "word-inside", "complex-inside", "dict", "numeric-strings", "string-array",
             "booleans", "boolean-inside", "boolean-array"],
    )
    def test_malformed_sequences_raise(self, dists):
        with pytest.raises(ValueError, match="finite, positive distance"):
            estimate_position(self.ANCHORS[:3], dists, ROOM)

    def test_real_numbers_of_any_type_solve_alike(self):
        anchors = self.ANCHORS[:3]
        expected = repr(estimate_position(anchors, [250.0, 260.0, 270.0], ROOM))
        for dists in ([250, 260, 270], np.array([250, 260, 270]),
                      np.array([250.0, 260.0, 270.0], dtype=np.float32),
                      [Fraction(250), np.float64(260.0), 270]):
            assert repr(estimate_position(anchors, dists, ROOM)) == expected

    def test_a_list_of_anchors_solves_like_the_tuple(self):
        dists = [200.0, 210.0, 220.0, 230.0]
        anchors = self.ANCHORS[:4]
        assert repr(estimate_position(list(anchors), dists, ROOM)) == repr(
            estimate_position(anchors, dists, ROOM)
        )


class TestResidual:
    @settings(max_examples=300, deadline=None)
    @given(
        xy=st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=3,
                    max_size=20),
        ceiling=st.floats(-1e6, 1e6),
        position=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
        dists=st.lists(st.floats(1e-3, 1e7), min_size=20, max_size=20),
    )
    def test_within_4_ulp_of_a_50_digit_reference(self, xy, ceiling, position, dists):
        """Each gap |a_j - p| - d_j is off by at most about 2.5 ulp of the larger
        of its terms, and the RMS over the gaps adds about one more."""
        anchors = tuple(Point3(x, y, ceiling) for x, y in xy)
        dists = dists[: len(xy)]
        p = Point3(*position)
        got = solver.AnchorPlan(anchors).residual_cm(dists, p)
        with mpmath.workdps(50):
            gaps = [
                mpmath.sqrt((mpmath.mpf(a.x) - p.x) ** 2 + (mpmath.mpf(a.y) - p.y) ** 2
                            + (mpmath.mpf(a.z) - p.z) ** 2) - d
                for a, d in zip(anchors, dists)
            ]
            expected = mpmath.sqrt(mpmath.fsum(g * g for g in gaps) / len(gaps))
            scale = max(max(distance(a, p), d) for a, d in zip(anchors, dists))
            assert abs(got - expected) <= 4 * math.ulp(scale)


class TestTrilaterate:
    def test_mirror_candidates(self):
        truth = Point3(50, 50, 0)
        anchors, dists = measure_from(truth, [(0, 0), (150, 0), (0, 150)])
        est = trilaterate(anchors, dists)
        assert distance(est.position, truth) < 1e-6
        assert len(est.candidates) == 1
        assert distance(est.candidates[0], Point3(50, 50, 600)) < 1e-6
        for cand in (est.position, *est.candidates):
            assert max(sphere_misfits(anchors, dists, cand)) < 1e-6
        assert est.method is Method.TRILATERATION
        assert est.residual_cm < 1e-9

    def test_equidistant_centroid(self):
        # equilateral anchor triangle, camera equidistant -> x, y at the centroid
        anchors = [(0.0, 0.0), (150.0, 0.0), (75.0, 75.0 * math.sqrt(3.0))]
        cx, cy = 75.0, 75.0 / math.sqrt(3.0) * 1.5  # centroid of equilateral triangle
        truth = Point3(cx, cy, 80.0)
        est = trilaterate(*measure_from(truth, anchors))
        assert est.position.x == pytest.approx(cx, abs=1e-6)
        assert est.position.y == pytest.approx(cy, abs=1e-6)

    def test_collinear_rejected(self):
        anchors, dists = measure_from(Point3(200, 40, 100), [(200, 0), (200, 150), (200, 300)])
        with pytest.raises(CollinearAnchors):
            trilaterate(anchors, dists)

    def test_inconsistent_distances_no_real_root(self):
        anchors = (Point3(0, 0, 300), Point3(150, 0, 300), Point3(0, 150, 300))
        with pytest.raises(NoRealRoot):
            trilaterate(anchors, [300.5, 300.5, 2000.0])

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            trilaterate(*measure_from(Point3(1, 1, 0), [(0, 0), (1, 0), (0, 1), (1, 1)]))

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
            est = trilaterate(*measure_from(truth, anchors, ceiling))
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
        est = estimate_position(*measure_from(truth, [tuple(a) for a in anchors], ceiling), room)
        assert distance(est.position, truth) < 1e-6


class TestTrilaterateCollinear:
    def test_exact_recovery_with_height(self):
        truth = Point3(200, 40, 100)
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = trilaterate_collinear(*ms, camera_height_cm=100.0)
        assert distance(est.position, truth) < 1e-6
        assert est.method is Method.COLLINEAR_FAMILY
        assert est.family is not None
        # family: along-line coordinate at y = 40, radius = vertical drop
        assert est.family.line_point.y == pytest.approx(40.0, abs=1e-9)
        assert est.family.radius_cm == pytest.approx(200.0, abs=1e-9)

    def test_family_without_height_reports_circle_bottom(self):
        truth = Point3(200, 40, 100)
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = trilaterate_collinear(*ms)
        assert est.position.z == pytest.approx(100.0, abs=1e-9)

    def test_two_points_at_height(self):
        truth = Point3(230, 40, 100)  # off the anchor plane: two mirror points
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = trilaterate_collinear(*ms, camera_height_cm=100.0)
        pts = [est.position, *est.candidates]
        assert len(pts) == 2
        assert any(distance(p, truth) < 1e-6 for p in pts)
        mirror = Point3(170, 40, 100)
        assert any(distance(p, mirror) < 1e-6 for p in pts)

    @settings(max_examples=100, deadline=None)
    @given(offset=st.floats(1e10, 1e11), radius=st.floats(1.0, 10.0),
           gap=st.floats(1.0, 3.0), turn=st.floats(0.0, 2 * math.pi))
    def test_points_at_height_are_distinct(self, offset, radius, gap, turn):
        """Far from the origin the two points of a near-tangent slice once
        rounded to one point, listed twice; an estimate takes its position
        from that list and drops it from the candidates by identity."""
        family = CollinearFamily(Point3(offset, offset, 300.0),
                                 (math.cos(turn), math.sin(turn), 0.0), radius)
        # a slice gap * 1e-6 cm inside the circle's rim: points about 2e-6 r apart
        horiz = gap * 1e-6 * radius
        pts = family.points_at_height(300.0 - math.sqrt(radius * radius - horiz * horiz))
        assert 1 <= len(pts) <= 2
        assert len(set(pts)) == len(pts)

    def test_truth_on_line_degenerates(self):
        truth = Point3(200, 70, 300)
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = trilaterate_collinear(*ms)
        assert est.family.radius_cm == pytest.approx(0.0, abs=1e-5)
        assert distance(est.position, truth) < 1e-5

    def test_mirrored_truths_same_family(self):
        ms_left = measure_from(Point3(150, 40, 100), [(200, 0), (200, 150), (200, 300)])
        ms_right = measure_from(Point3(250, 40, 100), [(200, 0), (200, 150), (200, 300)])
        fam_l = trilaterate_collinear(*ms_left).family
        fam_r = trilaterate_collinear(*ms_right).family
        assert distance(fam_l.line_point, fam_r.line_point) < 1e-9
        assert fam_l.radius_cm == pytest.approx(fam_r.radius_cm, abs=1e-9)

    def test_coincident_anchors(self):
        with pytest.raises(DegenerateAnchors):
            trilaterate_collinear((Point3(10, 10, 300), Point3(10, 10, 300)), [100.0, 120.0])

    def test_non_collinear_rejected(self):
        ms = measure_from(Point3(50, 50, 100), [(0, 0), (150, 0), (0, 150)])
        with pytest.raises(ValueError):
            trilaterate_collinear(*ms)


class TestMultilaterate:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            truth = Point3(*rng.uniform(200, 1000, size=2), rng.uniform(0, 250))
            anchors = [tuple(a) for a in rng.uniform(0, 1200, size=(5, 2))]
            est = multilaterate(*measure_from(truth, anchors))
            assert distance(est.position, truth) < 1e-6
            assert est.method is Method.LEAST_SQUARES

    def test_duplicated_measurements_identical(self):
        truth = Point3(300, 400, 120)
        anchors, dists = measure_from(truth, [(0, 0), (600, 0), (0, 600), (600, 600)])
        a = multilaterate(anchors, dists)
        b = multilaterate(anchors + anchors, dists + dists)
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
            points, dists = measure_from(truth, anchors)
            est = multilaterate(points, [dists[0] + 5.0, *dists[1:]])
            assert est.residual_cm > 0.0
            assert distance(est.position, truth) < 15.0

    def test_collinear_rejected(self):
        ms = measure_from(Point3(200, 40, 100), [(200, 0), (200, 100), (200, 200), (200, 300)])
        with pytest.raises(CollinearAnchors):
            multilaterate(*ms)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            multilaterate(*measure_from(Point3(1, 1, 0), [(0, 0), (1, 0), (0, 1)]))


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
        est = estimate_position(*ms, ROOM)
        assert distance(est.position, truth) < 1e-6
        assert est.method is Method.TRILATERATION

    def test_five_anchors_tagged_least_squares(self):
        truth = Point3(420, 510, 110)
        ms = measure_from(truth, [(300, 450), (450, 450), (300, 600), (450, 600), (600, 450)])
        est = estimate_position(*ms, ROOM)
        assert est.method is Method.LEAST_SQUARES
        assert distance(est.position, truth) < 1e-6

    def test_two_anchors_insufficient(self):
        ms = measure_from(Point3(100, 100, 50), [(0, 0), (150, 0)])
        with pytest.raises(InsufficientAnchors):
            estimate_position(*ms, ROOM)

    def test_noisy_three_anchor_fallback(self):
        # distances inconsistent: exact intersection impossible, least-squares
        # compromise returned instead of an error
        truth = Point3(420, 510, 110)
        anchors, dists = measure_from(truth, [(300, 450), (450, 450), (300, 600)])
        est = estimate_position(anchors, [dists[0] * 1.25, dists[1] * 0.8, dists[2]], ROOM)
        assert est.method is Method.LEAST_SQUARES
        assert est.residual_cm > 0.0

    def test_prior_steers_collinear_case(self):
        truth = Point3(230, 40, 100)
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = estimate_position(*ms, ROOM, prior=Point3(228, 42, 100))
        assert distance(est.position, truth) < 1e-6

    def test_collinear_circle_dipping_below_floor(self):
        # distances larger than the ceiling drop: the circle's lowest point is
        # underground, so the estimate comes from the floor-level slice
        anchors = (Point3(200, 0, 300), Point3(200, 150, 300), Point3(200, 300, 300))
        dists = [math.hypot(40, 350), math.hypot(110, 350), math.hypot(260, 350)]
        est = estimate_position(anchors, dists, ROOM)
        assert est.position.z == pytest.approx(0.0, abs=1e-9)
        assert est.position.y == pytest.approx(40.0, abs=1e-6)
        assert 0 <= est.position.x <= ROOM.width_cm

    def test_room_mismatch(self):
        ms = measure_from(Point3(100, 100, 50), [(0, 0), (150, 0), (0, 150)], ceiling=250.0)
        with pytest.raises(ValueError):
            estimate_position(*ms, ROOM)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(9)
        truth = Point3(400, 500, 90)
        anchors = [(300, 450), (450, 450), (300, 600), (500, 550)]
        base = estimate_position(*measure_from(truth, anchors), ROOM)
        for _ in range(10):
            dx, dy = rng.uniform(-100, 100, size=2)
            shifted_truth = Point3(truth.x + dx, truth.y + dy, truth.z)
            shifted_anchors = [(x + dx, y + dy) for x, y in anchors]
            est = estimate_position(*measure_from(shifted_truth, shifted_anchors), ROOM)
            assert est.position.x == pytest.approx(base.position.x + dx, abs=1e-6)
            assert est.position.y == pytest.approx(base.position.y + dy, abs=1e-6)
            assert est.position.z == pytest.approx(base.position.z, abs=1e-6)

    def test_residual_zero_iff_consistent(self):
        truth = Point3(420, 510, 110)
        anchors = [(300, 450), (450, 450), (300, 600), (450, 600)]
        points, dists = measure_from(truth, anchors)
        exact = estimate_position(points, dists, ROOM)
        assert exact.residual_cm <= 1e-9
        noisy = [dists[0] + 1.0, *dists[1:]]
        assert estimate_position(points, noisy, ROOM).residual_cm > 1e-9


class TestWorkedExample:
    """The three published distances are mutually inconsistent; the pair
    d1/d3 plus the anchor-line constraint reproduces the published answer."""

    ANCHORS = [(200.0, 0.0), (200.0, 150.0), (200.0, 300.0)]
    D1, D2, D3 = 320.0, 317.5, 410.37

    def test_consistent_pair_recovers_published_point(self):
        ceiling = 300.0
        anchors = (Point3(200, 0, ceiling), Point3(200, 300, ceiling))
        est = trilaterate_collinear(anchors, [self.D1, self.D3])
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
        anchors = tuple(Point3(x, y, ceiling) for x, y in self.ANCHORS)
        est = estimate_position(anchors, [self.D1, self.D2, self.D3],
                                RoomConfig(1219, 1219, ceiling))
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
        points, exact = measure_from(truth, anchors)
        z_sq, xy_sq = [], []
        for _ in range(300):
            est = estimate_position(points, [d + rng.normal(0, 2.0) for d in exact], ROOM)
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
        anchors, exact = measure_from(Point3(x, y, z), self.GRID[:n])
        dists = [d + e for d, e in zip(exact, noise)]
        est = estimate_position(anchors, dists, ROOM)
        assert est.method is Method.LEAST_SQUARES
        assert _pool(est) == _pool(multilaterate(anchors, dists))

    def test_three_consistent_anchors_match_trilaterate(self):
        ms = measure_from(Point3(420, 510, 110), self.GRID[:3])
        est = estimate_position(*ms, ROOM)
        assert est.method is Method.TRILATERATION
        assert _pool(est) == _pool(trilaterate(*ms))

    def test_three_inconsistent_anchors_fall_back_to_the_vertex(self):
        anchors, dists = measure_from(Point3(420, 510, 110), self.GRID[:3])
        bumped = [dists[0] * 1.25, dists[1] * 0.8, dists[2]]
        with pytest.raises(NoRealRoot):
            trilaterate(anchors, bumped)
        x, y, h, m = exact_reference(anchors, bumped)
        assert m < 0
        est = estimate_position(anchors, bumped, ROOM)
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
        # the guard reads the anchors as built: an offset of 1e-18 cm vanishes
        # when added to x = 400, and three such anchors coincide
        xy = [(x + dx, y + dy) for dx, dy in offsets]
        s = np.linalg.svd(np.array(xy) - np.mean(xy, axis=0), compute_uv=False)
        assume(s[-1] > 0.05 * s[0])
        anchors, exact = measure_from(Point3(x, y, z), xy)
        assume(all(d + e > 0 for d, e in zip(exact, noise)))
        dists = [d + e for d, e in zip(exact, noise)]
        rx, ry, h, m = exact_reference(anchors, dists)
        # resolve_ambiguity rejects a pool with no candidate inside the room
        assume(m < 0 or math.sqrt(m) <= ROOM.ceiling_height_cm)
        est = estimate_position(anchors, dists, ROOM)
        pool = sorted(_pool(est), key=lambda p: p.z)
        for p in pool:
            assert p.x == pytest.approx(float(rx), abs=1e-9)
            assert p.y == pytest.approx(float(ry), abs=1e-9)
        assert (est.method is Method.TRILATERATION) == (len(anchors) == 3 and m >= 0)
        if m >= 0:
            r = math.sqrt(m)
            assert [p.z for p in pool] == pytest.approx([float(h) - r, float(h) + r], abs=1e-6)
        else:
            assert [p.z for p in pool] == [float(h)]


class _SvdReference(solver.AnchorPlan):
    """The solve plan with the former array formulas in place of its float
    sums: p = ((U_r^T rhs) / 2s_r) V_r^T over one numpy SVD of the centered
    anchor xy, and the residual through the row norms. Paths and decisions
    stay the plan's, so a solve through it differs only in the arithmetic."""

    __slots__ = ("xyz", "centered", "u", "s", "vt", "c2c")

    def __init__(self, anchors):
        super().__init__(anchors)
        self.xyz = np.array([a.as_tuple() for a in anchors], dtype=float)
        self.centered = self.xyz[:, :2] - self.xyz[:, :2].mean(axis=0)
        self.u, self.s, self.vt = np.linalg.svd(self.centered, full_matrices=False)
        c2 = (self.centered**2).sum(axis=1)
        self.c2c = c2 - c2.mean()

    def fit_xy(self, dists):
        rank = 1 if self.collinear else 2
        d2 = np.asarray(dists) ** 2
        rhs = self.c2c - (d2 - d2.mean())
        p = ((self.u[:, :rank].T @ rhs) / (2.0 * self.s[:rank])) @ self.vt[:rank]
        rho2 = ((self.centered - p) ** 2).sum(axis=1)
        x, y = self.xyz[:, :2].mean(axis=0) + p
        return (float(x), float(y)), float((d2 - rho2).mean()), float(d2.mean())

    def residual_cm(self, dists, position):
        gaps = np.linalg.norm(self.xyz - position.as_tuple(), axis=1) - dists
        return float(np.sqrt((gaps**2).mean()))


def _svd_reference_estimate(anchors, dists, room):
    """estimate_position with every plan taken from _SvdReference."""
    with mock.patch.object(solver, "AnchorPlan", _SvdReference):
        return estimate_position(anchors, dists, room)


def _assert_same_estimate(est, ref, tol=1e-9):
    """Each point, the residual and the radius agree to tol cm or, where the
    values are so large that tol lies below their rounding, to 4 ulp of the
    largest of them: collinear anchors a few micrometres apart put the line
    point near 1.5e7 cm, where one ulp is 1.9e-9 cm."""

    def bound(*values):
        return max(tol, 4 * math.ulp(max(map(abs, values))))

    def same_point(p, q):
        return distance(p, q) <= bound(*p.as_tuple(), *q.as_tuple())

    assert est.method is ref.method
    assert len(est.candidates) == len(ref.candidates)
    for p, q in zip((est.position, *est.candidates), (ref.position, *ref.candidates)):
        assert same_point(p, q)
    assert abs(est.residual_cm - ref.residual_cm) <= bound(est.residual_cm, ref.residual_cm)
    assert (est.family is None) == (ref.family is None)
    if est.family is not None:
        assert same_point(est.family.line_point, ref.family.line_point)
        radii = est.family.radius_cm, ref.family.radius_cm
        assert abs(radii[0] - radii[1]) <= bound(*radii)
        dot = sum(a * b for a, b in zip(est.family.direction, ref.family.direction))
        assert abs(dot) == pytest.approx(1.0, abs=1e-12)


# One input for each solve path: the truth, the anchor xy, an offset added to
# every exact distance, the method and, where the path fixes it, the z solved.
EACH_PATH = pytest.mark.parametrize(
    "truth, anchors_xy, offset_cm, method, z",
    [
        (Point3(420, 510, 110), [(300, 450), (450, 450), (300, 600), (450, 600), (600, 450)],
         0.0, Method.LEAST_SQUARES, None),
        (Point3(50, 60, 100), [(0, 0), (150, 0), (0, 150)], 0.0, Method.TRILATERATION, None),
        (Point3(230, 40, 100), [(200, 0), (200, 150), (200, 300)], 0.0,
         Method.COLLINEAR_FAMILY, None),
        # both mirror roots outside the room: the estimate is clamped to the floor
        (Point3(420, 510, 0), [(300, 450), (450, 450), (300, 600)], 20.0,
         Method.LEAST_SQUARES, 0.0),
    ],
    ids=["least-squares", "three-anchor", "collinear", "floor-clamped"],
)


class TestSvdCrossCheck:
    """The float plan against the former numpy SVD formulas, to 1e-9 cm, on
    the least-squares, three-anchor, collinear and floor-clamp paths."""

    @EACH_PATH
    def test_each_path(self, truth, anchors_xy, offset_cm, method, z):
        anchors, exact = measure_from(truth, anchors_xy)
        dists = [d + offset_cm for d in exact]
        est = estimate_position(anchors, dists, ROOM)
        assert est.method is method
        if z is not None:
            assert est.position.z == z
        _assert_same_estimate(est, _svd_reference_estimate(anchors, dists, ROOM))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.just(3) | st.integers(4, 17),
        offsets=st.lists(
            st.tuples(st.floats(-400, 400), st.floats(-400, 400)), min_size=17, max_size=17
        ),
        collinear=st.booleans(),
        x=st.floats(300, 900),
        y=st.floats(300, 900),
        z=st.floats(0, 290),
        noise=st.lists(st.floats(-30.0, 30.0), min_size=17, max_size=17),
    )
    # collinear anchors 6e-5 cm apart: both line points lie near y = -1.48e7 cm,
    # one ulp (1.86e-9 cm) apart
    @example(n=3, offsets=[(0.0, 0.0), (0.0, 0.0), (0.0, 6.103515625e-05)] + [(0.0, 0.0)] * 14,
             collinear=False, x=300.0, y=300.0, z=0.0, noise=[0.0, 0.0, 3.0] + [0.0] * 14)
    def test_matches_the_svd_formulas(self, n, offsets, collinear, x, y, z, noise):
        offsets = offsets[:n]
        if collinear:
            offsets = [(dx, 0.5 * dx) for dx, _ in offsets]
        anchors = tuple(Point3(x + dx, y + dy, 300.0) for dx, dy in offsets)
        dists = [max(distance(Point3(x, y, z), a) + e, 1e-3) for a, e in zip(anchors, noise)]
        reference = _SvdReference(anchors)
        assume(not reference.coincident)
        if not reference.collinear:
            assume(reference.s[-1] > 1e-3 * reference.s[0])
        # away from the decisions a last-bit change may flip: m near 0, where
        # sqrt(m) turns a rounding of m into a large step in z (and decides
        # root or vertex), and a lower root near the floor
        _, m, _ = reference.fit_xy(dists)
        assume(abs(m) > 1.0 and abs(300.0 - math.sqrt(abs(m))) > 1e-3)
        est = estimate_position(anchors, dists, ROOM)
        _assert_same_estimate(est, _svd_reference_estimate(anchors, dists, ROOM))


def _per_anchor_fit(plan, anchors, dists):
    """fit_xy and residual_cm written anchor by anchor, as the plan once
    computed them: the centered anchor xy rebuilt from the anchors, p from the
    plan's least-squares map, m = mean(d_j^2 - rho_j^2) summed over the
    anchors, and the residual's gaps one hypot at a time. Returns the fit and
    a residual function."""
    n = len(anchors)
    cx0, cy0 = math.fsum(a.x for a in anchors) / n, math.fsum(a.y for a in anchors) / n
    cx = [a.x - cx0 for a in anchors]
    cy = [a.y - cy0 for a in anchors]
    c2 = [x * x + y * y for x, y in zip(cx, cy)]
    c2_mean = math.fsum(c2) / n
    d2 = [d * d for d in dists]
    d2_mean = math.fsum(d2) / n
    rhs = [(c - c2_mean) - (e - d2_mean) for c, e in zip(c2, d2)]
    mx, my = plan.lsq_map
    px = math.fsum([a * r for a, r in zip(mx, rhs)])
    py = math.fsum([a * r for a, r in zip(my, rhs)])
    m = math.fsum([e - ((x - px) * (x - px) + (y - py) * (y - py))
                   for e, x, y in zip(d2, cx, cy)]) / n

    def residual(position):
        dz = plan.h - position.z
        gaps = [math.hypot(a.x - position.x, a.y - position.y, dz) - d
                for a, d in zip(anchors, dists)]
        return math.sqrt(math.fsum([g * g for g in gaps]) / n)

    return ((cx0 + px, cy0 + py), m, d2_mean), residual


class TestPerAnchorReference:
    """The plan's map passes against the per-anchor formulas they replace: x,
    y, mean d^2, the mirror roots and the residual bit for bit; m, which now
    comes from mean d^2 - (mean |c|^2 + |p|^2), within a stated bound of the
    exact centered solve's m."""

    @settings(max_examples=200, deadline=None)
    @given(
        offsets=st.lists(
            st.tuples(st.floats(-400, 400), st.floats(-400, 400)), min_size=3, max_size=17
        ),
        x=st.floats(400, 800),
        y=st.floats(400, 800),
        z=st.floats(0, 299),
        noise=st.lists(st.floats(-30.0, 30.0), min_size=17, max_size=17),
    )
    def test_matches_the_per_anchor_formulas(self, offsets, x, y, z, noise):
        xy = [(x + dx, y + dy) for dx, dy in offsets]
        s = np.linalg.svd(np.array(xy) - np.mean(xy, axis=0), compute_uv=False)
        assume(s[-1] > 0.05 * s[0])
        anchors, exact = measure_from(Point3(x, y, z), xy)
        assume(all(d + e > 0 for d, e in zip(exact, noise)))
        dists = [d + e for d, e in zip(exact, noise)]
        plan = solver.AnchorPlan(anchors)
        (fx, fy), m, d2_mean = plan.fit_xy(dists)
        (ref_xy, ref_m, ref_d2_mean), ref_residual = _per_anchor_fit(plan, anchors, dists)
        assert ((fx, fy), d2_mean) == (ref_xy, ref_d2_mean)
        pool, exact_roots = plan.mirror_pair(dists, allow_approximate=True)
        if exact_roots:
            r = math.sqrt(max(m, 0.0))
            assert [q.z for q in pool] == sorted({plan.h - r, plan.h + r})
        for q in pool:
            assert plan.residual_cm(dists, q) == ref_residual(q)

        # m = mean d^2 - (mean |c|^2 + |p|^2) carries p's own rounding dp as
        # -2 p . dp, as the per-anchor sum does; dp is measured against the
        # exact p, with the centroid's and the output's rounding. Each formula
        # itself adds a few ulp of the larger of its two terms, which is mean
        # d^2 whenever m >= 0 (at most 1.8 ulp in 9,000 random sets).
        rx, ry, _, m_exact = exact_reference(anchors, dists)
        gx, gy = plan.centroid
        p = math.hypot(fx - gx, fy - gy)
        dp = math.hypot(fx - float(rx), fy - float(ry)) + 2 * math.ulp(max(abs(fx), abs(fy)))
        scale = math.ulp(max(d2_mean, plan.c2_mean + p * p))
        for got in (m, ref_m):
            assert abs(got - float(m_exact)) <= 2 * p * dp + 4 * scale


class TestMirrorRoots:
    """The mirror pair built as (h - r, h + r), one point when the two round
    to one float. Each estimate is pinned by repr to what the pair's former
    sorted-set form gave."""

    @pytest.mark.parametrize(
        "anchors_xy, dists, m_is, expected",
        [
            # anchors a few micrometres apart and the phone a hair below them:
            # r is positive but under half an ulp of h
            ([(187.91050817409078, 130.4908496534002), (187.9105050531143, 130.49084850549963),
              (187.9105038212499, 130.49085048372783)],
             [3.261650554564246e-06, 6.306647566468703e-07, 1.7669158165455303e-06],
             "positive",
             "PositionEstimate(position=Point3(x=187.91050495495705, y=130.4908491284789, "
             "z=300.0), candidates=(), residual_cm=0.0, "
             "method=<Method.TRILATERATION: 'trilateration'>, family=None)"),
            # the phone at (15, 31) on the ceiling plane: m is 0 exactly
            ([(7, 0), (3, 3), (21, 9)],
             [32.01562118716424, 30.463092423455635, 22.80350850198276],
             "zero",
             "PositionEstimate(position=Point3(x=15.000000000000007, y=31.0, z=300.0), "
             "candidates=(), residual_cm=0.0, "
             "method=<Method.TRILATERATION: 'trilateration'>, family=None)"),
            # the phone on the floor, every distance 20 cm long: the lower root
            # lies below the floor and is clamped to it
            ([(300, 450), (450, 450), (300, 600)],
             [348.63353450309967, 327.40852297878797, 355.4101966249685],
             "positive",
             "PositionEstimate(position=Point3(x=422.8300015365749, y=509.09644505041746, "
             "z=0.0), candidates=(), residual_cm=19.444409310111332, "
             "method=<Method.LEAST_SQUARES: 'least-squares'>, family=None)"),
        ],
        ids=["merged-roots", "zero-m", "floor-clamped"],
    )
    def test_pinned_by_repr(self, anchors_xy, dists, m_is, expected):
        anchors = tuple(Point3(float(x), float(y), 300.0) for x, y in anchors_xy)
        _, m, _ = solver.AnchorPlan(anchors).fit_xy(dists)
        assert (m > 0.0) if m_is == "positive" else (m == 0.0)
        assert repr(estimate_position(anchors, dists, ROOM)) == expected


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
        xy = [(x + dx, y + dy) for dx, dy in offsets]
        s = np.linalg.svd(np.array(xy) - np.mean(xy, axis=0), compute_uv=False)
        assume(s[-1] > 0.05 * s[0])
        anchors, exact = measure_from(Point3(x, y, z), xy)
        assume(all(d + e > 0 for d, e in zip(exact, noise)))
        dists = [d + e for d, e in zip(exact, noise)]
        est = estimate_position(anchors, dists, ROOM)
        # resolve_ambiguity's rounding tolerance: a root at -6e-14 cm is the floor
        assert -1e-9 <= est.position.z <= ROOM.ceiling_height_cm + 1e-9
        reference = multilaterate(anchors, dists).position
        assert (est.position.x, est.position.y) == (reference.x, reference.y)

    def test_both_roots_outside_clamp_to_the_floor(self):
        # three anchors with exact roots, but neither root inside the room
        anchors, dists = measure_from(Point3(420, 510, 0), [(300, 450), (450, 450), (300, 600)])
        long = [d + 20.0 for d in dists]
        assert all(p.z < 0 or p.z > 300 for p in _pool(trilaterate(anchors, long)))
        est = estimate_position(anchors, long, ROOM)
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
        dists = [distance(truth, a) + rng.normal(0, 1.0) for a in anchors]
        zs = sorted(p.z for p in _pool(multilaterate(anchors, dists)))
        assert zs == pytest.approx([99.77, 500.23], abs=0.01)
        est = estimate_position(anchors, dists, self.SMALL_ROOM)
        assert est.position.z == pytest.approx(99.77, abs=0.01)

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
        dists = [distance(truth, a) + e for a, e in zip(anchors, noise)]
        est = estimate_position(anchors, dists, self.SMALL_ROOM)
        assert _in_extended_bounds(self.SMALL_ROOM, est.position)
        # the mirror candidate lies above the ceiling, but no farther than a range
        reach = max(dists)
        assert all(abs(p.z - 300.0) <= reach for p in _pool(est))


def _outcome(solve, *args) -> str:
    """What a solve gives, as text that tells every float bit apart: the
    estimate's repr, or the type and message of what it raised."""
    try:
        return repr(solve(*args))
    except ValueError as exc:  # SolverError is a ValueError
        return f"{type(exc).__name__}: {exc}"


def _registry_of(*anchor_sets):
    """A registry holding each anchor set in turn, each fixture under its own
    key (j, k) for anchor j of set k, and the index tuple of each set."""
    entries = {(j, k): a for k, anchors in enumerate(anchor_sets) for j, a in enumerate(anchors)}
    registry = LedRegistry(entries)
    keys = list(entries)
    return registry, [tuple(keys.index((j, k)) for j in range(len(anchors)))
                      for k, anchors in enumerate(anchor_sets)]


class TestPlanCache:
    """The registry's plan cache, keyed by fixture indices, changes no result:
    a solve from a plan that an earlier solve, with other distances, put in
    the cache gives the bits of a solve with the cache empty, and the bits of
    estimate_position, which builds its plan per call."""

    @staticmethod
    def _warm_and_cold(anchors, dists, other_dists, prior=None):
        """The library outcome, and the registry outcomes with the cache cold
        and warm. The warm-up solves a set shifted by 37 cm first, so that a
        lookup matching on less than the indices themselves would find a wrong
        entry, then the same anchors with other distances."""
        shifted = [Point3(a.x + 37.0, a.y, a.z) for a in anchors]
        registry, (indices, shifted_indices) = _registry_of(anchors, shifted)

        def outcome(idx, ds):
            return _outcome(lambda: solver.solve(registry.plan(idx), ds, ROOM, prior))

        library = _outcome(estimate_position, tuple(anchors), dists, ROOM, prior)
        registry.plan.cache_clear()
        cold = outcome(indices, dists)
        registry.plan.cache_clear()
        outcome(shifted_indices, dists)
        outcome(indices, other_dists)
        hits = registry.plan.cache_info().hits
        warm = outcome(indices, dists)
        assert registry.plan.cache_info().hits == hits + 1
        return library, cold, warm

    @pytest.mark.parametrize(
        "truth, anchors_xy, offset_cm, prior, method, z",
        [
            (Point3(50, 60, 100), [(0, 0), (150, 0), (0, 150)], 0.0, None,
             Method.TRILATERATION, None),
            (Point3(230, 40, 100), [(200, 0), (200, 150), (200, 300)], 0.0,
             Point3(228, 42, 100), Method.COLLINEAR_FAMILY, None),
            # both mirror roots outside the room: the estimate is clamped to the floor
            (Point3(420, 510, 0), [(300, 450), (450, 450), (300, 600)], 20.0, None,
             Method.LEAST_SQUARES, 0.0),
        ],
        ids=["three-anchor", "collinear", "floor-clamped"],
    )
    def test_each_path_warm_equals_cold(self, truth, anchors_xy, offset_cm, prior, method, z):
        anchors, exact = measure_from(truth, anchors_xy)
        dists = [d + offset_cm for d in exact]
        library, cold, warm = self._warm_and_cold(
            anchors, dists, [d + 3.0 for d in dists], prior
        )
        assert warm == cold == library
        est = estimate_position(anchors, dists, ROOM, prior)
        assert est.method is method
        if z is not None:
            assert est.position.z == z

    @settings(max_examples=200, deadline=None)
    @given(
        offsets=st.lists(
            st.tuples(st.floats(-400, 400), st.floats(-400, 400)), min_size=3, max_size=8
        ),
        collinear=st.booleans(),
        x=st.floats(300, 900),
        y=st.floats(300, 900),
        z=st.floats(0, 290),
        noise=st.lists(st.floats(-30.0, 30.0), min_size=16, max_size=16),
        with_prior=st.booleans(),
    )
    def test_warm_equals_cold(self, offsets, collinear, x, y, z, noise, with_prior):
        if collinear:
            offsets = [(dx, 0.5 * dx) for dx, _ in offsets]
        truth = Point3(x, y, z)
        anchors = [Point3(x + dx, y + dy, 300.0) for dx, dy in offsets]
        exact = [distance(truth, a) for a in anchors]
        dists = [max(d + e, 1e-3) for d, e in zip(exact, noise[:8])]
        other = [max(d + e, 1e-3) for d, e in zip(exact, noise[8:])]
        prior = Point3(x + 5.0, y - 5.0, z) if with_prior else None
        library, cold, warm = self._warm_and_cold(anchors, dists, other, prior)
        assert warm == cold == library

    @settings(max_examples=50, deadline=None)
    @given(dz=st.floats(2 * CEILING_TOLERANCE_CM, 50.0), which=st.integers(0, 3))
    def test_mixed_heights_raise_on_every_call(self, dz, which):
        """The library path raises on every call; a registry refuses the set
        when it is built, so no plan of it can be cached."""
        anchors = [Point3(x, y, 300.0) for x, y in [(0, 0), (150, 0), (0, 150), (150, 150)]]
        anchors[which] = Point3(anchors[which].x, anchors[which].y, 300.0 - dz)
        dists = [200.0] * 4
        for _ in range(3):
            for solve in (lambda: estimate_position(anchors, dists, ROOM),
                          lambda: multilaterate(anchors, dists)):
                with pytest.raises(ValueError, match="share one ceiling"):
                    solve()
        with pytest.raises(ValueError, match="share the ceiling height"):
            _registry_of(anchors)

    def test_a_set_that_fails_its_checks_raises_on_every_call_and_is_never_stored(self):
        """A registered anchor past MAX_DISTANCE_CM fails the plan's checks."""
        anchors = [Point3(0, 0, 300.0), Point3(150, 0, 300.0),
                   Point3(2 * solver.MAX_DISTANCE_CM, 150, 300.0)]
        registry, (indices,) = _registry_of(anchors)
        for _ in range(3):
            with pytest.raises(ValueError, match="anchor coordinates must lie under"):
                registry.plan(indices)
        info = registry.plan.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_cached_plan_holds_floats_and_tuples_only(self):
        anchors, _ = measure_from(Point3(50, 60, 100), [(0, 0), (150, 0), (0, 150), (150, 150)])
        registry, (indices,) = _registry_of(anchors)
        registry.plan(indices)
        hits = registry.plan.cache_info().hits
        plan = registry.plan(indices)
        assert registry.plan.cache_info().hits == hits + 1

        def leaves(value):
            if type(value) is tuple:
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        for name in solver.AnchorPlan.__slots__:
            value = getattr(plan, name)
            assert type(value) in (tuple, float, int, bool), name
            for leaf in leaves(value):
                assert type(leaf) in (float, int, bool, type(None)), name

    @EACH_PATH
    def test_a_cached_plan_solves_without_numpy(self, truth, anchors_xy, offset_cm, method, z):
        anchors, exact = measure_from(truth, anchors_xy)
        dists = [d + offset_cm for d in exact]
        registry, (indices,) = _registry_of(anchors)

        def outcome():
            return _outcome(lambda: solver.solve(registry.plan(indices), dists, ROOM))

        before = outcome()
        with mock.patch.object(solver, "np", None):
            assert outcome() == before
        assert registry.plan.cache_info().hits == 1

    def test_cache_stays_within_its_bound(self):
        # 30 fixtures on a 150 cm grid hold 4,060 sets of three
        anchors = [Point3(150.0 * (i % 6), 150.0 * (i // 6), 300.0) for i in range(30)]
        registry, _ = _registry_of(anchors)
        cache = registry.plan
        sets = list(itertools.islice(itertools.combinations(range(30), 3),
                                     ANCHOR_CACHE_SIZE + 10))
        for s in sets:
            cache(s)
            assert cache.cache_info().currsize <= ANCHOR_CACHE_SIZE
        assert cache.cache_info().currsize == ANCHOR_CACHE_SIZE
        # the oldest sets went first: the newer ones all hit, then the oldest
        # all miss (each miss evicts a set already checked)
        hits, misses = cache.cache_info()[:2]
        for s in sets[10:]:
            cache(s)
        assert cache.cache_info()[:2] == (hits + len(sets) - 10, misses)
        for s in sets[:10]:
            cache(s)
        assert cache.cache_info()[:2] == (hits + len(sets) - 10, misses + 10)

    def test_servers_on_one_registry_share_its_plans(self):
        """A fleet replay or an ensemble member builds a fresh server on a
        shared registry; the second server's solves find the first's plans."""
        registry = _grid_registry([(450, 450), (600, 450), (450, 600), (600, 600)])
        packet = _packet(Point3(500, 520, 100), 0, registry)
        first = LightingServer(registry, ROOM).ingest(packet)
        assert registry.plan.cache_info()[:2] == (0, 1)
        second = LightingServer(registry, ROOM).ingest(packet)
        assert registry.plan.cache_info()[:2] == (1, 1)
        assert repr(second) == repr(first)

    def test_a_warm_ingest_hashes_no_point(self):
        registry = _grid_registry([(450, 450), (600, 450), (450, 600), (600, 600), (750, 450)])
        server = LightingServer(registry, ROOM)
        server.ingest(_packet(Point3(500, 520, 100), 0, registry))

        def no_hash(self):
            raise AssertionError("a Point3 was hashed")

        with mock.patch.object(Point3, "__hash__", no_hash):
            with pytest.raises(AssertionError, match="hashed"):
                hash(Point3(0, 0, 0))
            result = server.ingest(_packet(Point3(510, 525, 100), 1000, registry))
        assert not result.cold_start
        assert registry.plan.cache_info().hits == 1


def _grid_registry(anchors_xy):
    """A registry of fixtures at whole-centimetre xy on the 300 cm ceiling,
    each broadcasting its own xy."""
    return LedRegistry({xy: Point3(*xy, 300.0) for xy in anchors_xy})


def _packet(truth: Point3, ts_ms: int, registry: LedRegistry):
    """A packet with the exact distance to every fixture of the registry."""
    return DetectionPacket("s", ts_ms, tuple(
        DetectionRecord(int(a.x), int(a.y), 10.0 * distance(truth, a)) for a in registry.anchors
    ))
