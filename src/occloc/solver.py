"""Position estimation from anchor/distance pairs.

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

One thin SVD of the centered horizontal anchor matrix serves every solve: its
singular values decide collinearity, and it solves for p. Collinear anchors
fix p only along their line, which is the rank-one part of the same solve; the
rest is a circle of radius sqrt(m) around the line, a CollinearFamily.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point3, RoomConfig, distance

CEILING_TOLERANCE_CM = 1e-6
COLLINEARITY_RTOL = 1e-9


class SolverError(ValueError):
    pass


class InsufficientAnchors(SolverError):
    """Fewer than three usable anchor measurements."""


class CollinearAnchors(SolverError):
    """Anchors lie on one line; the triangle solver does not apply."""


class DegenerateAnchors(SolverError):
    """Anchors coincide; no geometry can be recovered."""


class NoRealRoot(SolverError):
    """Measured distances admit no exact sphere intersection (noise too large)."""


class RankDeficient(SolverError):
    """The multilateration system carries less than the expected rank."""


class NoFeasibleCandidate(SolverError):
    """Every candidate lies outside the room's vertical extent."""


@dataclass(frozen=True)
class AnchorMeasurement:
    """One ranged fixture: its ceiling anchor and the measured distance in cm."""

    anchor: Point3
    distance_cm: float

    def __post_init__(self):
        if self.distance_cm <= 0:
            raise ValueError("distance must be positive")


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
        return pts


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


class _Anchors:
    """The measurements as arrays on their common ceiling plane, with the one
    thin SVD of the centered horizontal anchor matrix that every solve shares."""

    def __init__(self, measurements):
        self.xyz = np.array(
            [[m.anchor.x, m.anchor.y, m.anchor.z] for m in measurements], dtype=float
        )
        if np.ptp(self.xyz[:, 2]) > CEILING_TOLERANCE_CM:
            raise ValueError("anchors must share one ceiling height")
        self.dists = np.array([m.distance_cm for m in measurements], dtype=float)
        # sum / n is np.mean's arithmetic without its per-call overhead
        self.n = len(self.dists)
        self.h = float(self.xyz[:, 2].sum()) / self.n
        self.centroid = self.xyz[:, :2].sum(axis=0) / self.n
        self.centered = self.xyz[:, :2] - self.centroid
        self.u, self.s, self.vt = np.linalg.svd(self.centered, full_matrices=False)
        # coincident anchors count as collinear
        self.collinear = bool(self.s[0] == 0.0 or self.s[-1] <= COLLINEARITY_RTOL * self.s[0])

    def fit_xy(self, rank: int) -> tuple[np.ndarray, float, float]:
        """The least-squares horizontal position over the first `rank` singular
        directions (2 for a plane, 1 along a line), m = mean(d^2 - rho^2) and
        mean(d^2), the scale m is rounded at."""
        c2 = (self.centered**2).sum(axis=1)
        d2 = self.dists**2
        d2_mean = float(d2.sum()) / self.n
        rhs = (c2 - c2.sum() / self.n) - (d2 - d2_mean)
        p = ((self.u[:, :rank].T @ rhs) / (2.0 * self.s[:rank])) @ self.vt[:rank]
        rho2 = ((self.centered - p) ** 2).sum(axis=1)
        return self.centroid + p, float((d2 - rho2).sum()) / self.n, d2_mean

    def mirror_pair(self, allow_approximate: bool) -> tuple[list[Point3], bool]:
        """Candidates sorted by z ascending, and whether they are exact roots.

        A negative m beyond rounding either raises NoRealRoot or, when
        approximation is allowed, gives the vertex z = h.
        """
        (x, y), m, d2_mean = self.fit_xy(2)
        if m >= -1e-10 * d2_mean:
            r = math.sqrt(max(m, 0.0))
            zs, exact = sorted({self.h - r, self.h + r}), True
        elif allow_approximate:
            zs, exact = [self.h], False
        else:
            raise NoRealRoot(f"sphere constraint has no real solution (m = {m:.3g} cm^2)")
        return [Point3(x, y, z) for z in zs], exact

    def family(self) -> CollinearFamily:
        """The circle of solutions around collinear anchors."""
        if self.s[0] == 0.0:
            raise DegenerateAnchors("anchors coincide")
        direction = self.vt[0]
        if np.ptp(self.centered @ direction) <= 1e-9:
            raise DegenerateAnchors("anchors coincide along the line")
        (x, y), m, _ = self.fit_xy(1)
        return CollinearFamily(
            line_point=Point3(x, y, self.h),
            direction=(float(direction[0]), float(direction[1]), 0.0),
            radius_cm=math.sqrt(max(m, 0.0)),
        )

    def residual_cm(self, position: Point3) -> float:
        """RMS of (distance to anchor - measured distance) over all anchors."""
        gaps = np.linalg.norm(self.xyz - position.as_tuple(), axis=1) - self.dists
        return math.sqrt(float((gaps**2).sum()) / self.n)


def _estimate(anchors: _Anchors, position: Point3, pool, method: Method,
              family: CollinearFamily | None = None) -> PositionEstimate:
    """The chosen position; the rest of the pool stays as candidates."""
    return PositionEstimate(
        position=position,
        candidates=tuple(c for c in pool if c != position),
        residual_cm=anchors.residual_cm(position),
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


def trilaterate(measurements) -> PositionEstimate:
    """Exact three-anchor solve; both mirror candidates satisfy every sphere
    equation when the distances are consistent.

    Position is the lower-z candidate; use resolve_ambiguity to pick with room
    bounds or a motion prior. Raises CollinearAnchors for in-line anchors and
    NoRealRoot when the distances are inconsistent beyond tolerance.
    """
    if len(measurements) != 3:
        raise ValueError(f"trilaterate takes exactly 3 measurements, got {len(measurements)}")
    anchors = _Anchors(measurements)
    if anchors.collinear:
        raise CollinearAnchors("anchors are collinear; use trilaterate_collinear")
    pool, _ = anchors.mirror_pair(allow_approximate=False)
    return _estimate(anchors, pool[0], pool, Method.TRILATERATION)


def trilaterate_collinear(measurements, camera_height_cm: float | None = None) -> PositionEstimate:
    """Solve for anchors on one line (two or more).

    Distance differences pin the coordinate along the line; the remainder is a
    circle around it, returned as the estimate's family. With a known camera
    height the at-height family members become the position/candidates;
    without one the circle's lowest point is reported.
    """
    if len(measurements) < 2:
        raise InsufficientAnchors("collinear solve needs at least 2 anchors")
    anchors = _Anchors(measurements)
    if not anchors.collinear:
        raise ValueError("anchors are not collinear")
    family = anchors.family()
    pool = _rim_points(family, camera_height_cm)
    return _estimate(anchors, pool[0], pool, Method.COLLINEAR_FAMILY, family)


def multilaterate(measurements) -> PositionEstimate:
    """Least-squares solve over four or more anchors.

    The centered solve fixes x and y; the mean sphere equation resolves z
    (mirror pair, lower one reported first). Inconsistent distances fall back
    to the least-violating point, with the mismatch visible in the residual.
    Collinear anchors raise RankDeficient.
    """
    if len(measurements) < 4:
        raise ValueError(f"multilaterate takes at least 4 measurements, got {len(measurements)}")
    anchors = _Anchors(measurements)
    if anchors.collinear:
        raise RankDeficient("anchors are collinear")
    pool, _ = anchors.mirror_pair(allow_approximate=True)
    return _estimate(anchors, pool[0], pool, Method.LEAST_SQUARES)


def resolve_ambiguity(candidates, room: RoomConfig, prior: Point3 | None = None) -> Point3:
    """Pick one candidate: drop those outside [0, ceiling], then prefer the one
    nearest the prior, or the lowest when no prior is available."""
    if not candidates:
        raise NoFeasibleCandidate("no candidates supplied")
    feasible = [
        c for c in candidates if -1e-9 <= c.z <= room.ceiling_height_cm + 1e-9
    ]
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
    measurements, room: RoomConfig, prior: Point3 | None = None
) -> PositionEstimate:
    """Full dispatch: pick the solve by anchor count and collinearity, then
    settle the candidate ambiguity against the room and the motion prior.

    Three inconsistent distances (no exact intersection) degrade to the
    least-squares compromise rather than failing, and are tagged as such.
    A lower mirror root below the floor (whose mirror is then above the
    ceiling) is raised to the floor, also tagged least-squares. Every path
    shares one factorization of the anchor geometry.
    """
    if len(measurements) < 3:
        raise InsufficientAnchors(f"need at least 3 anchors, got {len(measurements)}")
    anchors = _Anchors(measurements)
    if abs(anchors.xyz[0, 2] - room.ceiling_height_cm) > CEILING_TOLERANCE_CM:
        raise ValueError("anchor height disagrees with the room ceiling")

    if anchors.collinear:
        family = anchors.family()
        pool = _rim_points(family, None if prior is None else prior.z)
        if not any(-1e-9 <= p.z <= room.ceiling_height_cm + 1e-9 for p in pool):
            # The circle dips below the floor (or above the ceiling) at the
            # chosen height; re-slice it at the nearest height inside the room.
            lp = family.line_point
            z_rep = min(max(lp.z - family.radius_cm, 0.0), room.ceiling_height_cm)
            pool = family.points_at_height(z_rep) or [Point3(lp.x, lp.y, z_rep)]
        position = resolve_ambiguity(pool, room, prior)
        return _estimate(anchors, position, pool, Method.COLLINEAR_FAMILY, family)

    # The exact roots are trilaterate's answer for three anchors; without
    # them the vertex is the least-squares compromise it falls back to.
    pool, exact = anchors.mirror_pair(allow_approximate=True)
    low = pool[0]
    if low.z < -1e-9:
        # Ranging noise put the lower root below the floor, so its mirror lies
        # above the ceiling; like the collinear path, take the nearest height
        # inside the room, the floor. That point is no exact root.
        pool, exact = [Point3(low.x, low.y, 0.0)], False
    method = (
        Method.TRILATERATION if exact and len(measurements) == 3 else Method.LEAST_SQUARES
    )
    return _estimate(anchors, resolve_ambiguity(pool, room, prior), pool, method)
