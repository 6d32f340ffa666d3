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


def estimate(measurements, room, prior=None):
    """estimate_position over AnchorMeasurement pairs: their anchors as a
    tuple, and their distances."""
    return estimate_position(
        tuple(m.anchor for m in measurements), [m.distance_cm for m in measurements], room, prior
    )


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
            a = estimate(ms, ROOM)
            b = estimate(ms[::-1], ROOM)
            assert distance(a.position, b.position) <= 1e-9
            assert a.method is b.method

    def test_too_few(self):
        with pytest.raises(InsufficientAnchors):
            estimate(measure_from(Point3(0, 0, 0), [(0, 0), (1, 1)]), ROOM)

    def test_mixed_ceilings(self):
        ms = [
            AnchorMeasurement(Point3(0, 0, 300), 1.0),
            AnchorMeasurement(Point3(1, 0, 299), 1.0),
            AnchorMeasurement(Point3(0, 1, 300), 1.0),
        ]
        with pytest.raises(ValueError):
            estimate(ms, ROOM)


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
                trilaterate([AnchorMeasurement(a, 200.0) for a in anchors])


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
        ms = [AnchorMeasurement(a, d) for a, d in zip(anchors, dists)]
        assert outcomes == {_outcome(estimate, ms, ROOM, None)}

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 1e200])
    @pytest.mark.parametrize(
        "solve, n", [(trilaterate, 3), (multilaterate, 4), (trilaterate_collinear, 3)]
    )
    def test_dedicated_solvers_check_their_distances(self, solve, n, bad):
        if solve is trilaterate_collinear:
            anchors = [Point3(200, 150 * k, 300) for k in range(n)]
        else:
            anchors = self.ANCHORS[:n]
        ms = [AnchorMeasurement(a, 250.0) for a in anchors[1:]]
        with pytest.raises(ValueError, match="finite, positive distance"):
            solve([AnchorMeasurement(anchors[0], bad), *ms])

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
        got = solver._AnchorGeometry(anchors).residual_cm(dists, p)
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
        est = estimate(ms, room)
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
        est = estimate(ms, ROOM)
        assert distance(est.position, truth) < 1e-6
        assert est.method is Method.TRILATERATION

    def test_five_anchors_tagged_least_squares(self):
        truth = Point3(420, 510, 110)
        ms = measure_from(truth, [(300, 450), (450, 450), (300, 600), (450, 600), (600, 450)])
        est = estimate(ms, ROOM)
        assert est.method is Method.LEAST_SQUARES
        assert distance(est.position, truth) < 1e-6

    def test_two_anchors_insufficient(self):
        ms = measure_from(Point3(100, 100, 50), [(0, 0), (150, 0)])
        with pytest.raises(InsufficientAnchors):
            estimate(ms, ROOM)

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
        est = estimate(bumped, ROOM)
        assert est.method is Method.LEAST_SQUARES
        assert est.residual_cm > 0.0

    def test_prior_steers_collinear_case(self):
        truth = Point3(230, 40, 100)
        ms = measure_from(truth, [(200, 0), (200, 150), (200, 300)])
        est = estimate(ms, ROOM, prior=Point3(228, 42, 100))
        assert distance(est.position, truth) < 1e-6

    def test_collinear_circle_dipping_below_floor(self):
        # distances larger than the ceiling drop: the circle's lowest point is
        # underground, so the estimate comes from the floor-level slice
        ms = [
            AnchorMeasurement(Point3(200, 0, 300), math.hypot(40, 350)),
            AnchorMeasurement(Point3(200, 150, 300), math.hypot(110, 350)),
            AnchorMeasurement(Point3(200, 300, 300), math.hypot(260, 350)),
        ]
        est = estimate(ms, ROOM)
        assert est.position.z == pytest.approx(0.0, abs=1e-9)
        assert est.position.y == pytest.approx(40.0, abs=1e-6)
        assert 0 <= est.position.x <= ROOM.width_cm

    def test_room_mismatch(self):
        ms = measure_from(Point3(100, 100, 50), [(0, 0), (150, 0), (0, 150)], ceiling=250.0)
        with pytest.raises(ValueError):
            estimate(ms, ROOM)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(9)
        truth = Point3(400, 500, 90)
        anchors = [(300, 450), (450, 450), (300, 600), (500, 550)]
        base = estimate(measure_from(truth, anchors), ROOM)
        for _ in range(10):
            dx, dy = rng.uniform(-100, 100, size=2)
            shifted_truth = Point3(truth.x + dx, truth.y + dy, truth.z)
            shifted_anchors = [(x + dx, y + dy) for x, y in anchors]
            est = estimate(measure_from(shifted_truth, shifted_anchors), ROOM)
            assert est.position.x == pytest.approx(base.position.x + dx, abs=1e-6)
            assert est.position.y == pytest.approx(base.position.y + dy, abs=1e-6)
            assert est.position.z == pytest.approx(base.position.z, abs=1e-6)

    def test_residual_zero_iff_consistent(self):
        truth = Point3(420, 510, 110)
        anchors = [(300, 450), (450, 450), (300, 600), (450, 600)]
        exact = estimate(measure_from(truth, anchors), ROOM)
        assert exact.residual_cm <= 1e-9
        ms = measure_from(truth, anchors)
        noisy = [AnchorMeasurement(ms[0].anchor, ms[0].distance_cm + 1.0), *ms[1:]]
        assert estimate(noisy, ROOM).residual_cm > 1e-9


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
        est = estimate(ms, RoomConfig(1219, 1219, ceiling))
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
            est = estimate(ms, ROOM)
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
        est = estimate(ms, ROOM)
        assert est.method is Method.LEAST_SQUARES
        assert _pool(est) == _pool(multilaterate(ms))

    def test_three_consistent_anchors_match_trilaterate(self):
        ms = measure_from(Point3(420, 510, 110), self.GRID[:3])
        est = estimate(ms, ROOM)
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
        est = estimate(bumped, ROOM)
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
        est = estimate(ms, ROOM)
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


class _SvdReference(solver._AnchorGeometry):
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
    with mock.patch.object(solver, "_anchor_geometry", _SvdReference):
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
        ms = measure_from(truth, anchors_xy)
        anchors = tuple(m.anchor for m in ms)
        dists = [m.distance_cm + offset_cm for m in ms]
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
        est = estimate(ms, ROOM)
        # resolve_ambiguity's rounding tolerance: a root at -6e-14 cm is the floor
        assert -1e-9 <= est.position.z <= ROOM.ceiling_height_cm + 1e-9
        reference = multilaterate(ms).position
        assert (est.position.x, est.position.y) == (reference.x, reference.y)

    def test_both_roots_outside_clamp_to_the_floor(self):
        # three anchors with exact roots, but neither root inside the room
        ms = measure_from(Point3(420, 510, 0), [(300, 450), (450, 450), (300, 600)])
        long = [AnchorMeasurement(m.anchor, m.distance_cm + 20.0) for m in ms]
        assert all(p.z < 0 or p.z > 300 for p in _pool(trilaterate(long)))
        est = estimate(long, ROOM)
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
        assert estimate(ms, self.SMALL_ROOM).position.z == pytest.approx(99.77, abs=0.01)

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
        est = estimate(ms, self.SMALL_ROOM)
        assert _in_extended_bounds(self.SMALL_ROOM, est.position)
        # the mirror candidate lies above the ceiling, but no farther than a range
        reach = max(m.distance_cm for m in ms)
        assert all(abs(p.z - 300.0) <= reach for p in _pool(est))


def _outcome(solve, *args) -> str:
    """What a solve gives, as text that tells every float bit apart: the
    estimate's repr, or the type and message of what it raised."""
    try:
        return repr(solve(*args))
    except ValueError as exc:  # SolverError is a ValueError
        return f"{type(exc).__name__}: {exc}"


def _every_outcome(ms, prior):
    """The outcome of every entry point that takes this many measurements."""
    outcomes = [
        _outcome(estimate, ms, ROOM, prior),
        _outcome(trilaterate_collinear, ms, None if prior is None else prior.z),
    ]
    if len(ms) == 3:
        outcomes.append(_outcome(trilaterate, ms))
    if len(ms) >= 4:
        outcomes.append(_outcome(multilaterate, ms))
    return outcomes


class TestAnchorCache:
    """The per-process anchor-geometry cache changes no result: a solve over an
    anchor set that an earlier solve, with other distances, put in the cache
    gives the bits of a solve with the cache empty."""

    @staticmethod
    def _warm_and_cold(anchors, dists, other_dists, prior=None):
        """Outcomes with the cache warmed and cold. The warm-up solves a set
        shifted by 37 cm first, so that a lookup matching on less than the
        anchors themselves would find a wrong entry, then the same anchors with
        other distances."""
        ms = [AnchorMeasurement(a, d) for a, d in zip(anchors, dists)]
        shifted = [Point3(a.x + 37.0, a.y, a.z) for a in anchors]
        solver._anchor_geometry.cache_clear()
        cold = _every_outcome(ms, prior)
        solver._anchor_geometry.cache_clear()
        for warm_up, ds in ((shifted, dists), (anchors, other_dists)):
            _every_outcome([AnchorMeasurement(a, d) for a, d in zip(warm_up, ds)], prior)
        warm = _every_outcome(ms, prior)
        return warm, cold, ms

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
        exact = measure_from(truth, anchors_xy)
        anchors = [m.anchor for m in exact]
        dists = [m.distance_cm + offset_cm for m in exact]
        warm, cold, ms = self._warm_and_cold(anchors, dists, [d + 3.0 for d in dists], prior)
        assert warm == cold
        est = estimate(ms, ROOM, prior)
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
        warm, cold, _ = self._warm_and_cold(anchors, dists, other, prior)
        assert warm == cold

    def test_signed_zero_anchors_share_one_geometry(self):
        dists = [120.0, 130.0, 140.0, 150.0]
        plus = [Point3(0.0, 0.0, 300), Point3(150, 0.0, 300), Point3(0.0, 150, 300),
                Point3(-150, 150, 300)]
        minus = [Point3(-0.0, -0.0, 300), Point3(150, -0.0, 300), Point3(-0.0, 150, 300),
                 Point3(-150, 150, 300)]
        solver._anchor_geometry.cache_clear()
        cold = _every_outcome([AnchorMeasurement(a, d) for a, d in zip(minus, dists)], None)
        solver._anchor_geometry.cache_clear()
        _every_outcome([AnchorMeasurement(a, d) for a, d in zip(plus, dists)], None)
        warm = _every_outcome([AnchorMeasurement(a, d) for a, d in zip(minus, dists)], None)
        assert warm == cold

    @settings(max_examples=50, deadline=None)
    @given(dz=st.floats(2 * CEILING_TOLERANCE_CM, 50.0), which=st.integers(0, 3))
    def test_mixed_heights_raise_on_every_call(self, dz, which):
        anchors = [Point3(x, y, 300.0) for x, y in [(0, 0), (150, 0), (0, 150), (150, 150)]]
        anchors[which] = Point3(anchors[which].x, anchors[which].y, 300.0 - dz)
        ms = [AnchorMeasurement(a, 200.0) for a in anchors]
        solver._anchor_geometry.cache_clear()
        for _ in range(3):
            for solve in (lambda: estimate(ms, ROOM), lambda: multilaterate(ms)):
                with pytest.raises(ValueError, match="share one ceiling"):
                    solve()
        info = solver._anchor_geometry.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 6, 0)

    def test_cached_plan_holds_floats_and_tuples_only(self):
        ms = measure_from(Point3(50, 60, 100), [(0, 0), (150, 0), (0, 150), (150, 150)])
        estimate(ms, ROOM)
        hits = solver._anchor_geometry.cache_info().hits
        geometry = solver._anchor_geometry(tuple(m.anchor for m in ms))
        assert solver._anchor_geometry.cache_info().hits == hits + 1

        def leaves(value):
            if type(value) is tuple:
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        for name in solver._AnchorGeometry.__slots__:
            value = getattr(geometry, name)
            assert type(value) in (tuple, float, int, bool), name
            for leaf in leaves(value):
                assert type(leaf) in (float, int, bool, type(None)), name

    @EACH_PATH
    def test_a_cached_plan_solves_without_numpy(self, truth, anchors_xy, offset_cm, method, z):
        ms = [AnchorMeasurement(m.anchor, m.distance_cm + offset_cm)
              for m in measure_from(truth, anchors_xy)]
        before = _every_outcome(ms, None)
        with mock.patch.object(solver, "np", None):
            assert _every_outcome(ms, None) == before

    def test_cache_stays_within_its_bound(self):
        cache = solver._anchor_geometry
        cache.cache_clear()
        sets = []
        for i in range(solver.ANCHOR_CACHE_SIZE + 10):
            x0 = 0.25 * i
            ms = measure_from(Point3(x0 + 50, 60, 100), [(x0, 0), (x0 + 150, 0), (x0, 150)])
            estimate(ms, ROOM)
            sets.append(tuple(m.anchor for m in ms))
            assert cache.cache_info().currsize <= solver.ANCHOR_CACHE_SIZE
        assert cache.cache_info().currsize == solver.ANCHOR_CACHE_SIZE
        # the oldest sets went first: the newer ones all hit, then the oldest
        # all miss (each miss evicts a set already checked)
        hits, misses = cache.cache_info()[:2]
        for s in sets[10:]:
            cache(s)
        assert cache.cache_info()[:2] == (hits + len(sets) - 10, misses)
        for s in sets[:10]:
            cache(s)
        assert cache.cache_info()[:2] == (hits + len(sets) - 10, misses + 10)
