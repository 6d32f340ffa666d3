"""Position estimation from ceiling anchors and their measured distances.

solve is the one dispatch: it takes an AnchorPlan, the distances as a list
of Python floats and the room. The server resolves a packet to fixture
indices, fetches the plan from its registry's cache and solves through it;
its records' types already bound every distance. estimate_position, the
library entry point, takes the anchor tuple and one sequence of distances,
checks them in one pass (one per anchor, each a number, positive and below
MAX_DISTANCE_CM), builds the plan and solves through the same solve.

Every anchor sits on one ceiling plane z = h, so the sphere equations
|P - a_j|^2 = d_j^2 separate. Let c_j be anchor j's horizontal offset from
the anchor centroid and p the phone's. Subtracting the mean sphere equation
removes |p|^2 and the height, which leaves a linear least-squares problem in
the two unknowns of p:

    2 c_j . p = (|c_j|^2 - mean |c|^2) - (d_j^2 - mean d^2)

The mean equation then gives the height: (z - h)^2 = m = mean(d_j^2 - rho_j^2),
with rho_j = |c_j - p| each anchor's horizontal distance. So the candidates
are the mirror pair z = h -/+ sqrt(m) below and above the anchor plane or,
when noise drives m negative, the least-violating point z = h (Manolakis 1996,
"Efficient solution and performance analysis of 3-D position estimation by
trilateration", IEEE TAES; Beck, Stoica & Li 2008, "Exact and approximate
solutions of source localization problems", IEEE TSP).

Everything that depends on the anchors alone is a solve plan, an AnchorPlan.
The server caches one per anchor set, keyed by fixture indices (see
occloc.server.LedRegistry.plan); the library entry points build one per call.
One thin SVD of the centered horizontal anchor matrix builds it: its singular
values decide collinearity, and it gives the least-squares map from the
right-hand sides to p. Collinear anchors fix p only along their line, which is
the rank-one part of the same map; the rest is a circle of radius sqrt(m)
around the line, a CollinearFamily. The plan holds Python floats only, so a
solve over a set seen before is a few sums over its n distances (math.fsum,
math.hypot), with no array call: at n = 3 to 17, numpy's per-call dispatch
cost more than its arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import fsum, hypot
from numbers import Real
from operator import mul

import numpy as np

from .geometry import Point3, RoomConfig, distance

CEILING_TOLERANCE_CM = 1e-6
COLLINEARITY_RTOL = 1e-9
# A singular value of the centered anchor xy below this counts as zero: below
# it on the larger one the anchors coincide, and below it on the smaller one
# they lie on a line, whatever the ratio of the two. The least-squares map
# scales by 1/(2s), so a smaller s could carry the distance terms past the
# float range: at anchors 1e-150 cm apart, a 1e4 cm^2 term becomes 1e154 cm
# and its square overflows.
SINGULAR_FLOOR_CM = 1e-6
# Every distance, and every anchor coordinate, must lie below this in
# magnitude. Past about 1.3e154 cm, d^2 alone overflows, and math.fsum raises
# OverflowError when a partial sum overflows, not only the total. Below
# 1e12 cm each d^2 and each centered |c|^2 stays under 1e25 cm^2, and with
# SINGULAR_FLOOR_CM each coefficient of the least-squares map stays under
# 1/(2 * 1e-6 cm), so p stays under n * 1e31 cm and every square and partial
# sum a solve takes stays far inside the float range. 1e12 cm lies far beyond
# any room.
MAX_DISTANCE_CM = 1e12
# A candidate this far below the floor or above the ceiling still counts as
# inside the room: a root that rounding put at -6e-14 cm is the floor.
ROOM_TOLERANCE_CM = 1e-9


class SolverError(ValueError):
    pass


class InsufficientAnchors(SolverError):
    """Fewer than three usable anchor measurements."""


class CollinearAnchors(SolverError):
    """Anchors lie on one line; trilaterate and multilaterate need a plane."""


class DegenerateAnchors(SolverError):
    """Anchors coincide; no geometry can be recovered."""


class NoRealRoot(SolverError):
    """Measured distances admit no exact sphere intersection (noise too large)."""


class NoFeasibleCandidate(SolverError):
    """Every candidate lies outside the room's vertical extent."""


class Method(enum.Enum):
    TRILATERATION = "trilateration"
    COLLINEAR_FAMILY = "collinear-family"
    LEAST_SQUARES = "least-squares"


@dataclass(frozen=True)
class CollinearFamily:
    """Solution family for anchors on a line: a circle of the given radius
    around the line, centered at line_point, in the plane normal to direction."""

    line_point: Point3
    direction: tuple[float, float, float]
    radius_cm: float

    def points_at_height(self, z_cm: float) -> "list[Point3]":
        """The 0, 1 or 2 family members at a given camera height."""
        dz = z_cm - self.line_point.z
        if abs(dz) > self.radius_cm:
            return []
        horiz = math.sqrt(max(self.radius_cm**2 - dz * dz, 0.0))
        ux, uy, _ = self.direction
        nx, ny = -uy, ux
        # the sqrt amplifies float noise near tangency; merge sub-micron pairs
        if horiz <= 1e-6 * max(1.0, self.radius_cm):
            return [Point3(self.line_point.x, self.line_point.y, z_cm)]
        pts = [
            Point3(self.line_point.x - horiz * nx, self.line_point.y - horiz * ny, z_cm),
            Point3(self.line_point.x + horiz * nx, self.line_point.y + horiz * ny, z_cm),
        ]
        pts.sort(key=lambda p: (p.x, p.y))
        # far from the origin the two can still round to one point
        return pts if pts[0] != pts[1] else pts[:1]


@dataclass(frozen=True)
class PositionEstimate:
    """Solved coordinate with its alternative candidates and fit quality.

    residual_cm is the RMS mismatch between the measured distances and the
    distances from the chosen position to the anchors; zero iff the
    measurements are exactly consistent.
    """

    position: Point3
    candidates: tuple[Point3, ...]
    residual_cm: float
    method: Method
    family: CollinearFamily | None = None


class AnchorPlan:
    """The solve plan of one anchor set: everything a solve derives from the
    anchor positions alone, held as Python floats and tuples, so that a solve
    is a few scalar sums with no array dispatch.

    One thin SVD of the centered horizontal anchor matrix C = U S V^T builds
    it. It decides collinearity, and it gives the least-squares map
    M = V_r diag(1/2s_r) U_r^T over the first r singular directions, r = 2
    for a plane and 1 along a line, stored as its two coefficient rows. The
    plan also holds the anchor xy, absolute and centered, the centered |c|^2
    term of fit_xy, the centroid, the common ceiling height h and the
    direction of the line, which family needs.

    Every solve path (three anchors, least squares, collinear family, floor
    clamp) reads the one plan, and nothing changes it after it is built, so a
    cached plan gives the bits a fresh one does."""

    __slots__ = ("n", "h", "ax", "ay", "centroid", "cx", "cy", "c2_centered", "lsq_map",
                 "coincident", "collinear", "direction")

    def __init__(self, anchors: "tuple[Point3, ...]"):
        xyz = [(a.x, a.y, a.z) for a in anchors]
        if not all(abs(v) < MAX_DISTANCE_CM for a in xyz for v in a):
            raise ValueError(f"anchor coordinates must lie under {MAX_DISTANCE_CM:g} cm")
        self.ax, self.ay, zs = (tuple(column) for column in zip(*xyz))
        if max(zs) - min(zs) > CEILING_TOLERANCE_CM:
            raise ValueError("anchors must share one ceiling height")
        n = self.n = len(anchors)
        # exactly z0 when every anchor sits at z0
        self.h = zs[0] + fsum(z - zs[0] for z in zs) / n
        cx0, cy0 = self.centroid = (fsum(self.ax) / n, fsum(self.ay) / n)
        self.cx = tuple(x - cx0 for x in self.ax)
        self.cy = tuple(y - cy0 for y in self.ay)
        c2 = [x * x + y * y for x, y in zip(self.cx, self.cy)]
        c2_mean = fsum(c2) / n
        self.c2_centered = tuple(c - c2_mean for c in c2)
        u, s, vt = np.linalg.svd(np.array([self.cx, self.cy]).T, full_matrices=False)
        self.coincident = bool(s[0] < SINGULAR_FLOOR_CM)
        self.collinear = bool(self.coincident or s[-1] < SINGULAR_FLOOR_CM
                              or s[-1] <= COLLINEARITY_RTOL * s[0])
        self.direction = tuple(vt[0].tolist())
        r = 1 if self.collinear else 2
        self.lsq_map = None if self.coincident else tuple(
            map(tuple, ((vt[:r].T / (2.0 * s[:r])) @ u[:, :r].T).tolist())
        )

    def fit_xy(self, dists: "list[float]") -> "tuple[tuple[float, float], float, float]":
        """The least-squares horizontal position (along the line, for collinear
        anchors), m = mean(d^2 - rho^2) and mean(d^2), the scale m is rounded
        at."""
        n = self.n
        d2 = [d * d for d in dists]
        d2_mean = fsum(d2) / n
        rhs = [c - (e - d2_mean) for c, e in zip(self.c2_centered, d2)]
        mx, my = self.lsq_map
        px = fsum(map(mul, mx, rhs))
        py = fsum(map(mul, my, rhs))
        m = fsum([e - ((cx - px) * (cx - px) + (cy - py) * (cy - py))
                  for e, cx, cy in zip(d2, self.cx, self.cy)]) / n
        cx0, cy0 = self.centroid
        return (cx0 + px, cy0 + py), m, d2_mean

    def mirror_pair(self, dists: "list[float]", allow_approximate: bool) -> tuple[list[Point3], bool]:
        """Candidates sorted by z ascending, and whether they are exact roots.

        A negative m beyond rounding either raises NoRealRoot or, when
        approximation is allowed, gives the vertex z = h.
        """
        (x, y), m, d2_mean = self.fit_xy(dists)
        h = self.h
        if m >= -1e-10 * d2_mean:
            r = math.sqrt(max(m, 0.0))
            zs, exact = sorted({h - r, h + r}), True
        elif allow_approximate:
            zs, exact = [h], False
        else:
            raise NoRealRoot(f"sphere constraint has no real solution (m = {m:.3g} cm^2)")
        return [Point3(x, y, z) for z in zs], exact

    def family(self, dists: "list[float]") -> CollinearFamily:
        """The circle of solutions around collinear anchors."""
        if self.coincident:
            raise DegenerateAnchors(f"anchors coincide within {SINGULAR_FLOOR_CM:g} cm")
        (x, y), m, _ = self.fit_xy(dists)
        ux, uy = self.direction
        return CollinearFamily(
            line_point=Point3(x, y, self.h),
            direction=(ux, uy, 0.0),
            radius_cm=math.sqrt(max(m, 0.0)),
        )

    def residual_cm(self, dists: "list[float]", position: Point3) -> float:
        """RMS of (distance to anchor - measured distance) over all anchors,
        each taken at the common height h."""
        x, y, dz = position.x, position.y, self.h - position.z
        gaps = [hypot(ax - x, ay - y, dz) - d for ax, ay, d in zip(self.ax, self.ay, dists)]
        return math.sqrt(fsum(map(mul, gaps, gaps)) / self.n)


def _resolved(anchors: "tuple[Point3, ...]", distances_cm) -> "tuple[AnchorPlan, list[float]]":
    """The plan of the anchors, and the distances as a list of floats.
    There must be one distance per anchor, each a number, positive and below
    MAX_DISTANCE_CM."""
    dists = None
    # a string would iterate as its characters, each a number or not
    if not isinstance(distances_cm, (str, bytes)):
        try:
            values = list(distances_cm)
        except TypeError:  # not iterable
            values = []
        # float() would also take numeric strings and booleans; numpy floats are Real
        if all(t is not bool and issubclass(t, Real) for t in set(map(type, values))):
            dists = list(map(float, values))
    if (dists is None or len(dists) != len(anchors)
            or not all(0.0 < d < MAX_DISTANCE_CM for d in dists)):
        raise ValueError(
            f"need one finite, positive distance under {MAX_DISTANCE_CM:g} cm for each of "
            f"{len(anchors)} anchors"
        )
    return AnchorPlan(tuple(anchors)), dists


def _estimate(plan: AnchorPlan, dists: "list[float]", position: Point3, pool,
              method: Method, family: CollinearFamily | None = None) -> PositionEstimate:
    """The chosen position, which is one of the pool's points; the rest of
    the pool stays as candidates. The pool's points are distinct, so the
    chosen one is dropped by identity, not by comparing coordinates."""
    return PositionEstimate(
        position=position,
        candidates=tuple(c for c in pool if c is not position),
        residual_cm=plan.residual_cm(dists, position),
        method=method,
        family=family,
    )


def _rim_points(family: CollinearFamily, camera_height_cm: float | None) -> "list[Point3]":
    """The family members at the camera height, or the circle's lowest point
    without one."""
    lp = family.line_point
    if camera_height_cm is None:
        return [Point3(lp.x, lp.y, lp.z - family.radius_cm)]
    at_height = family.points_at_height(camera_height_cm)
    if not at_height:
        # Height constraint misses the circle (noise); take the nearest rim.
        z_near = lp.z - family.radius_cm if camera_height_cm < lp.z else lp.z + family.radius_cm
        at_height = [Point3(lp.x, lp.y, z_near)]
    return at_height


def trilaterate(anchors: "tuple[Point3, ...]", distances_cm) -> PositionEstimate:
    """Exact three-anchor solve; both mirror candidates satisfy every sphere
    equation when the distances are consistent.

    Position is the lower-z candidate; use resolve_ambiguity to pick with room
    bounds or a motion prior. Raises CollinearAnchors for in-line anchors and
    NoRealRoot when the distances are inconsistent beyond tolerance.
    """
    if len(anchors) != 3:
        raise ValueError(f"trilaterate takes exactly 3 anchors, got {len(anchors)}")
    plan, dists = _resolved(anchors, distances_cm)
    if plan.collinear:
        raise CollinearAnchors("anchors are collinear; use trilaterate_collinear")
    pool, _ = plan.mirror_pair(dists, allow_approximate=False)
    return _estimate(plan, dists, pool[0], pool, Method.TRILATERATION)


def trilaterate_collinear(anchors: "tuple[Point3, ...]", distances_cm,
                          camera_height_cm: float | None = None) -> PositionEstimate:
    """Solve for anchors on one line (two or more).

    Distance differences pin the coordinate along the line; the remainder is a
    circle around it, returned as the estimate's family. With a known camera
    height the at-height family members become the position/candidates;
    without one the circle's lowest point is reported.
    """
    if len(anchors) < 2:
        raise InsufficientAnchors("collinear solve needs at least 2 anchors")
    plan, dists = _resolved(anchors, distances_cm)
    if not plan.collinear:
        raise ValueError("anchors are not collinear")
    family = plan.family(dists)
    pool = _rim_points(family, camera_height_cm)
    return _estimate(plan, dists, pool[0], pool, Method.COLLINEAR_FAMILY, family)


def multilaterate(anchors: "tuple[Point3, ...]", distances_cm) -> PositionEstimate:
    """Least-squares solve over four or more anchors.

    The centered solve fixes x and y; the mean sphere equation resolves z
    (mirror pair, lower one reported first). Inconsistent distances fall back
    to the least-violating point, with the mismatch visible in the residual.
    Collinear anchors raise CollinearAnchors.
    """
    if len(anchors) < 4:
        raise ValueError(f"multilaterate takes at least 4 anchors, got {len(anchors)}")
    plan, dists = _resolved(anchors, distances_cm)
    if plan.collinear:
        raise CollinearAnchors("anchors are collinear; use trilaterate_collinear")
    pool, _ = plan.mirror_pair(dists, allow_approximate=True)
    return _estimate(plan, dists, pool[0], pool, Method.LEAST_SQUARES)


def resolve_ambiguity(candidates, room: RoomConfig, prior: Point3 | None = None) -> Point3:
    """Pick one candidate: drop those outside [0, ceiling], then prefer the one
    nearest the prior, or the lowest when no prior is available."""
    if not candidates:
        raise NoFeasibleCandidate("no candidates supplied")
    top = room.ceiling_height_cm + ROOM_TOLERANCE_CM
    feasible = [c for c in candidates if -ROOM_TOLERANCE_CM <= c.z <= top]
    if not feasible:
        raise NoFeasibleCandidate(
            f"all {len(candidates)} candidates outside [0, {room.ceiling_height_cm}] cm"
        )
    if len(feasible) == 1:
        return feasible[0]
    if prior is not None:
        return min(feasible, key=lambda c: distance(c, prior))
    return min(feasible, key=lambda c: c.z)


def estimate_position(
    anchors: "tuple[Point3, ...]", distances_cm, room: RoomConfig, prior: Point3 | None = None
) -> PositionEstimate:
    """The library entry point: check the arguments, build the anchors' plan
    and solve through it.

    anchors are the ranged fixtures' ceiling points and distances_cm their
    measured distances, in the same order: at least three anchors, else
    InsufficientAnchors, and one distance per anchor, each positive and below
    MAX_DISTANCE_CM, else ValueError.
    """
    if len(anchors) < 3:
        raise InsufficientAnchors(f"need at least 3 anchors, got {len(anchors)}")
    plan, dists = _resolved(anchors, distances_cm)
    return solve(plan, dists, room, prior)


def solve(plan: AnchorPlan, dists: "list[float]", room: RoomConfig,
          prior: Point3 | None = None) -> PositionEstimate:
    """Full dispatch: pick the solve by anchor count and collinearity, then
    settle the candidate ambiguity against the room and the motion prior.

    plan holds at least three anchors, and dists is a list of Python floats,
    one per anchor, each in (0, MAX_DISTANCE_CM); the caller checks both, as
    estimate_position does. The anchors must sit at the room's ceiling, else
    ValueError.

    Three inconsistent distances (no exact intersection) degrade to the
    least-squares compromise rather than failing, and are tagged as such.
    A lower mirror root below the floor (whose mirror is then above the
    ceiling) is raised to the floor, also tagged least-squares. Every path
    shares one factorization of the anchor geometry.
    """
    if abs(plan.h - room.ceiling_height_cm) > CEILING_TOLERANCE_CM:
        raise ValueError("anchor height disagrees with the room ceiling")

    if plan.collinear:
        family = plan.family(dists)
        pool = _rim_points(family, None if prior is None else prior.z)
        top = room.ceiling_height_cm + ROOM_TOLERANCE_CM
        if not any(-ROOM_TOLERANCE_CM <= p.z <= top for p in pool):
            # The circle dips below the floor (or above the ceiling) at the
            # chosen height; re-slice it at the nearest height inside the room.
            lp = family.line_point
            z_rep = min(max(lp.z - family.radius_cm, 0.0), room.ceiling_height_cm)
            pool = family.points_at_height(z_rep) or [Point3(lp.x, lp.y, z_rep)]
        position = resolve_ambiguity(pool, room, prior)
        return _estimate(plan, dists, position, pool, Method.COLLINEAR_FAMILY, family)

    # The exact roots are trilaterate's answer for three anchors; without
    # them the vertex is the least-squares compromise it falls back to.
    pool, exact = plan.mirror_pair(dists, allow_approximate=True)
    low = pool[0]
    if low.z < -ROOM_TOLERANCE_CM:
        # Ranging noise put the lower root below the floor, so its mirror lies
        # above the ceiling; like the collinear path, take the nearest height
        # inside the room, the floor. That point is no exact root.
        pool, exact = [Point3(low.x, low.y, 0.0)], False
    method = Method.TRILATERATION if exact and plan.n == 3 else Method.LEAST_SQUARES
    return _estimate(plan, dists, resolve_ambiguity(pool, room, prior), pool, method)
