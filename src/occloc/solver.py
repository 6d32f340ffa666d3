"""Position estimation from anchor/distance pairs.

The sphere equations |P - a_j|^2 = d_j^2 linearize into rows
[1, -2x_j, -2y_j, -2h] . [w, x, y, z] = d_j^2 - |a_j|^2 with the auxiliary
unknown w = x^2 + y^2 + z^2. With every anchor at the common ceiling height h,
the first and last columns are proportional, so the system has rank at most 3
no matter how many anchors contribute: a least-squares solve pins x and y but
leaves a one-parameter line in (w, z). The consistency constraint
w = x^2 + y^2 + z^2 closes it as a quadratic whose two roots are the mirror
candidates above and below the anchor plane.

Collinear anchors drop the rank to 2; the solution set is then a circle around
the anchor line, handled by the dedicated collinear path.
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


@dataclass(frozen=True)
class LinearSystem:
    """Linearized sphere system: rows [1, -2x_j, -2y_j, -2h] against
    q_j = d_j^2 - |a_j|^2, unknowns [x^2+y^2+z^2, x, y, z]."""

    z_matrix: np.ndarray
    q_vector: np.ndarray


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


def _anchor_arrays(measurements) -> tuple[np.ndarray, np.ndarray]:
    anchors = np.array(
        [[m.anchor.x, m.anchor.y, m.anchor.z] for m in measurements], dtype=float
    )
    dists = np.array([m.distance_cm for m in measurements], dtype=float)
    return anchors, dists


def _check_common_ceiling(anchors: np.ndarray):
    if np.ptp(anchors[:, 2]) > CEILING_TOLERANCE_CM:
        raise ValueError("anchors must share one ceiling height")


def _collinear_xy(anchors: np.ndarray) -> bool:
    """Smallest singular value of the centered horizontal anchor matrix below
    COLLINEARITY_RTOL times the largest (coincident anchors count as collinear)."""
    centered = anchors[:, :2] - anchors[:, :2].mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return s[0] == 0.0 or s[-1] <= COLLINEARITY_RTOL * s[0]


def residual_rms_cm(measurements, position: Point3) -> float:
    """RMS of (distance to anchor - measured distance) over all measurements."""
    errs = [distance(position, m.anchor) - m.distance_cm for m in measurements]
    return math.sqrt(sum(e * e for e in errs) / len(errs))


def _linear_system(anchors: np.ndarray, dists: np.ndarray) -> LinearSystem:
    n = len(anchors)
    z = np.column_stack([np.ones(n), -2.0 * anchors[:, 0], -2.0 * anchors[:, 1], -2.0 * anchors[:, 2]])
    q = dists**2 - (anchors**2).sum(axis=1)
    return LinearSystem(z, q)


def build_system(measurements) -> LinearSystem:
    """Assemble the linearized sphere system; rows follow measurement order."""
    if len(measurements) < 3:
        raise InsufficientAnchors(f"need at least 3 anchors, got {len(measurements)}")
    anchors, dists = _anchor_arrays(measurements)
    _check_common_ceiling(anchors)
    return _linear_system(anchors, dists)


def _constrained_candidates(system: LinearSystem, allow_approximate: bool):
    """Solve the rank-3 system and close it with w = x^2 + y^2 + z^2.

    Returns (candidates sorted by z ascending, exact_roots flag). Candidates
    come from the quadratic's two roots; a negative discriminant either raises
    NoRealRoot or, when approximation is allowed, takes the quadratic's vertex
    (the least-violating point on the solution line).

    Anchors on one ceiling leave the system at rank 3; an anchor raised within
    CEILING_TOLERANCE_CM can lift the fourth singular value above the rank
    threshold, so the rank is capped at 3 and the weakest direction is always
    the one the constraint closes.
    """
    z_mat, q = system.z_matrix, system.q_vector
    # Columns span very different magnitudes (1 vs coordinate scale); solve the
    # column-equilibrated system to keep the factorization well conditioned.
    col_scale = np.linalg.norm(z_mat, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    u, s, vt = np.linalg.svd(z_mat / col_scale, full_matrices=True)
    if s[0] == 0.0:
        raise DegenerateAnchors("zero system matrix")
    rank = int(np.sum(s > 1e-10 * s[0]))
    if rank < 3:
        raise RankDeficient(f"system rank {rank} < 3")
    x_p = (vt[:3].T @ ((u[:, :3].T @ q) / s[:3])) / col_scale
    x_h = vt[3] / col_scale
    x_h = x_h / np.linalg.norm(x_h)
    a = float(x_h[1:] @ x_h[1:])
    if a == 0.0:
        raise DegenerateAnchors("null direction carries no spatial component")
    b = float(2.0 * (x_p[1:] @ x_h[1:]) - x_h[0])
    c = float(x_p[1:] @ x_p[1:] - x_p[0])
    disc = b * b - 4.0 * a * c
    scale = max(1.0, b * b, abs(4.0 * a * c))
    if disc < -1e-10 * scale:
        if not allow_approximate:
            raise NoRealRoot(
                f"sphere constraint has no real solution (discriminant {disc:.3g})"
            )
        ts = [-b / (2.0 * a)]
        exact = False
    elif disc <= 1e-12 * scale or b == 0.0:
        root = math.sqrt(max(disc, 0.0))
        ts = sorted({(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)})
        exact = True
    else:
        # cancellation-free pairing: the large-magnitude root first, its twin
        # from the product of roots
        big = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
        ts = sorted({big / a, c / big})
        exact = True
    pts = [Point3(*(x_p[1:4] + t * x_h[1:4])) for t in ts]
    pts.sort(key=lambda p: p.z)
    return pts, exact


def trilaterate(measurements) -> PositionEstimate:
    """Exact three-anchor solve; both mirror candidates satisfy every sphere
    equation when the distances are consistent.

    Position is the lower-z candidate; use resolve_ambiguity to pick with room
    bounds or a motion prior. Raises CollinearAnchors for in-line anchors and
    NoRealRoot when the distances are inconsistent beyond tolerance.
    """
    if len(measurements) != 3:
        raise ValueError(f"trilaterate takes exactly 3 measurements, got {len(measurements)}")
    anchors, dists = _anchor_arrays(measurements)
    if _collinear_xy(anchors):
        raise CollinearAnchors("anchors are collinear; use trilaterate_collinear")
    _check_common_ceiling(anchors)
    cands, _ = _constrained_candidates(_linear_system(anchors, dists), allow_approximate=False)
    return PositionEstimate(
        position=cands[0],
        candidates=tuple(cands[1:]),
        residual_cm=residual_rms_cm(measurements, cands[0]),
        method=Method.TRILATERATION,
    )


def trilaterate_collinear(measurements, camera_height_cm: float | None = None) -> PositionEstimate:
    """Solve for anchors on one line (two or more).

    Distance differences pin the coordinate along the line; the remainder is a
    circle around it, returned as the estimate's family. With a known camera
    height the at-height family members become the position/candidates;
    without one the circle's lowest point is reported.
    """
    if len(measurements) < 2:
        raise InsufficientAnchors("collinear solve needs at least 2 anchors")
    anchors, dists = _anchor_arrays(measurements)
    _check_common_ceiling(anchors)
    h = float(anchors[:, 2].mean())
    centroid = anchors[:, :2].mean(axis=0)
    centered = anchors[:, :2] - centroid
    u_svd, s_svd, vt_svd = np.linalg.svd(centered, full_matrices=False)
    if s_svd[0] == 0.0:
        raise DegenerateAnchors("anchors coincide")
    if len(s_svd) > 1 and s_svd[1] > COLLINEARITY_RTOL * s_svd[0]:
        raise ValueError("anchors are not collinear")
    direction = vt_svd[0]
    along = centered @ direction
    if np.ptp(along) <= 1e-9:
        raise DegenerateAnchors("anchors coincide along the line")
    # d_j^2 = (s - along_j)^2 + r^2 linearizes to [1, -2*along_j] . [s^2 + r^2, s]
    design = np.column_stack([np.ones(len(along)), -2.0 * along])
    rhs = dists**2 - along**2
    (c_val, s_val), *_ = np.linalg.lstsq(design, rhs, rcond=None)
    radius = math.sqrt(max(c_val - s_val * s_val, 0.0))
    line_xy = centroid + s_val * direction
    family = CollinearFamily(
        line_point=Point3(float(line_xy[0]), float(line_xy[1]), h),
        direction=(float(direction[0]), float(direction[1]), 0.0),
        radius_cm=radius,
    )
    if camera_height_cm is None:
        position = Point3(family.line_point.x, family.line_point.y, h - radius)
        cands: tuple[Point3, ...] = ()
    else:
        at_height = family.points_at_height(camera_height_cm)
        if not at_height:
            # Height constraint misses the circle (noise); take the nearest rim.
            z_near = h - radius if camera_height_cm < h else h + radius
            at_height = [Point3(family.line_point.x, family.line_point.y, z_near)]
        position = at_height[0]
        cands = tuple(at_height[1:])
    return PositionEstimate(
        position=position,
        candidates=cands,
        residual_cm=residual_rms_cm(measurements, position),
        method=Method.COLLINEAR_FAMILY,
        family=family,
    )


def multilaterate(measurements) -> PositionEstimate:
    """Least-squares solve over four or more anchors.

    The orthogonal-factorization solve fixes x and y; the sphere constraint
    resolves z (mirror pair, lower one reported first). Inconsistent distances
    fall back to the least-violating point, with the mismatch visible in the
    residual. Collinear anchors raise RankDeficient.
    """
    if len(measurements) < 4:
        raise ValueError(f"multilaterate takes at least 4 measurements, got {len(measurements)}")
    anchors, dists = _anchor_arrays(measurements)
    if _collinear_xy(anchors):
        raise RankDeficient("anchors are collinear")
    _check_common_ceiling(anchors)
    cands, _ = _constrained_candidates(_linear_system(anchors, dists), allow_approximate=True)
    return PositionEstimate(
        position=cands[0],
        candidates=tuple(cands[1:]),
        residual_cm=residual_rms_cm(measurements, cands[0]),
        method=Method.LEAST_SQUARES,
    )


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


def _settle(measurements, pool, room: RoomConfig, prior: Point3 | None, method: Method,
            family: CollinearFamily | None = None) -> PositionEstimate:
    """Pick the position from the candidate pool; the rest stay candidates."""
    position = resolve_ambiguity(pool, room, prior)
    return PositionEstimate(
        position=position,
        candidates=tuple(c for c in pool if c != position),
        residual_cm=residual_rms_cm(measurements, position),
        method=method,
        family=family,
    )


def estimate_position(
    measurements, room: RoomConfig, prior: Point3 | None = None
) -> PositionEstimate:
    """Full dispatch: pick the solver by anchor count and collinearity, then
    settle the candidate ambiguity against the room and the motion prior.

    Three inconsistent distances (no exact intersection) degrade to the
    least-squares compromise rather than failing, and are tagged as such.
    Non-collinear anchors are solved in one pass: trilaterate's and
    multilaterate's answers are the pool it picks from.
    """
    if len(measurements) < 3:
        raise InsufficientAnchors(f"need at least 3 anchors, got {len(measurements)}")
    anchors, dists = _anchor_arrays(measurements)
    _check_common_ceiling(anchors)
    if abs(anchors[0, 2] - room.ceiling_height_cm) > CEILING_TOLERANCE_CM:
        raise ValueError("anchor height disagrees with the room ceiling")

    if _collinear_xy(anchors):
        est = trilaterate_collinear(
            measurements, camera_height_cm=None if prior is None else prior.z
        )
        pool = (est.position,) + est.candidates
        feasible = [p for p in pool if -1e-9 <= p.z <= room.ceiling_height_cm + 1e-9]
        if not feasible:
            # The circle dips below the floor (or above the ceiling) at the
            # chosen height; re-slice it at the nearest height inside the room.
            fam = est.family
            z_rep = min(
                max(fam.line_point.z - fam.radius_cm, 0.0), room.ceiling_height_cm
            )
            pool = tuple(fam.points_at_height(z_rep)) or (
                Point3(fam.line_point.x, fam.line_point.y, z_rep),
            )
        return _settle(measurements, pool, room, prior, est.method, est.family)

    # The exact roots are trilaterate's answer for three anchors; without
    # them the vertex is the least-squares compromise it falls back to.
    cands, exact = _constrained_candidates(
        _linear_system(anchors, dists), allow_approximate=True
    )
    method = (
        Method.TRILATERATION if exact and len(measurements) == 3 else Method.LEAST_SQUARES
    )
    return _settle(measurements, tuple(cands), room, prior, method)
