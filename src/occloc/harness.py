"""Scenario generation and end-to-end experiment loops.

A scenario describes one desk-scale room: an LED grid on the ceiling, a
camera model, a waypoint trajectory walked at constant speed, noise levels
and a seed. The loops reproduce the artifact's four experiments: a tracking
run, an OOK error-rate sweep, a ranging-feasibility sweep over distance, and
a filtered-versus-raw error comparison over a seeded ensemble.

Every loop is deterministic in the scenario seed; ensemble members derive
child seeds arithmetically so runs are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from itertools import compress
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .geometry import (
    CameraModel,
    Circular,
    Luminaire,
    Point3,
    Pose,
    Rectangular,
    RoomConfig,
    finite,
)
from .imaging import (
    FeasibilityRegime,
    feasibility,
    observe_scene,
    pixel_count,
    ranging_constant,
    distance_from_pixels,
)
from .modem import (
    MIN_BER_BITS,
    decode_frame,
    demodulate,
    encode_frame,
    measure_ber,
    modulate,
    ook_ber_theoretical,
)
from .server import (
    MAX_DISTANCE_MM,
    MIN_DISTANCE_MM,
    DetectionPacket,
    LedRegistry,
    LightingServer,
)
from .solver import SolverError
from .tracker import KalmanConfig


class ScenarioError(ValueError):
    """A scenario file or dict that violates the configuration contract."""


# Desk-scale defaults: a 1600 sqft square room, the reference camera
# (5 mm focal length, 7.1e-3 mm pixel edge, 120 degree cone) and a 170 mm
# circular downlight fixture (FixtureSpec's defaults).
DEFAULT_ROOM = dict(width_cm=1219.0, depth_cm=1219.0, ceiling_height_cm=300.0)
DEFAULT_CAMERA = dict(focal_length_mm=5.0, pixel_edge_mm=7.1e-3, fov_full_angle_deg=120.0)
# Pixel-area jitter that maps to roughly 5 cm of ranging noise at the nominal
# 2.3 m slant range of the default room (error grows with the cube of range).
DEFAULT_PIXEL_SIGMA = 100.0
# visibility_scan's grid: its pitch, and the wall margin inside which README's
# visibility guarantee (at least three fixtures in view) holds.
SCAN_STEP_CM = 10.0
SCAN_MARGIN_CM = 75.0

MAX_SNIR_DB = 300.0  # |SNIR| bound of the BER sweep; 10^(SNIR/10) overflows past about 3,080 dB
# At most this many fixtures on one ceiling: about 90 MiB of luminaires, at
# some 344 B each, and 14.8 times the 17,689 of a 200 m hall at 150 cm spacing.
MAX_FIXTURES = 2**18
MAX_ROOM_CM = 2**16  # the most a room's width, depth or ceiling height may be
# At most this many ticks in one run: run_tracking holds about 1.9 KB a tick
# (tracemalloc, the default scenario walked at 0.2 cm/s for 2,000 ticks), so
# about 120 MiB at the cap.
MAX_TICKS = 2**16
# Packets stamp tick k at round(1000 k / sampling_hz) ms, and ingest refuses a
# stamp that does not advance. At or below 1000 Hz ticks lie at least 1 ms
# apart, so within MAX_TICKS each stamp advances.
MAX_SAMPLING_HZ = 1000.0


@dataclass(frozen=True)
class FixtureSpec:
    """Fixture template stamped onto every grid position."""

    shape: str = "circular"
    radius_mm: float | None = 85.0
    width_mm: float | None = None
    height_mm: float | None = None
    area_mm2: float | None = 22700.0

    def make_shape(self):
        if self.shape == "circular":
            if self.radius_mm is None:
                raise ScenarioError("circular fixture needs radius_mm")
            return Circular(self.radius_mm)
        if self.shape == "rectangular":
            if self.width_mm is None or self.height_mm is None:
                raise ScenarioError("rectangular fixture needs width_mm and height_mm")
            return Rectangular(self.width_mm, self.height_mm)
        raise ScenarioError(f"fixture.shape must be circular or rectangular, not {self.shape!r}")

    def __post_init__(self):
        # a fixture that cannot be stamped fails when its scenario loads
        shape = self.make_shape()
        if shape.area_mm2 == math.inf:
            sizes = " and ".join(f"fixture.{k}={v!r}" for k, v in asdict(shape).items())
            raise ScenarioError(f"the area of {sizes} lies past the float range")
        self.make_luminaire(0, Point3(0.0, 0.0, 0.0))

    def make_luminaire(self, led_id: int, anchor: Point3) -> Luminaire:
        return Luminaire(
            led_id=led_id, anchor=anchor, shape=self.make_shape(), area_mm2=self.area_mm2
        )



@dataclass(frozen=True)
class Scenario:
    room: RoomConfig = field(default_factory=lambda: RoomConfig(**DEFAULT_ROOM))
    camera: CameraModel = field(default_factory=lambda: CameraModel(**DEFAULT_CAMERA))
    fixture: FixtureSpec = field(default_factory=FixtureSpec)
    led_spacing_cm: float = 150.0
    led_origin_cm: tuple[float, float] = (75.0, 75.0)
    explicit_led_xy_cm: tuple[tuple[float, float], ...] | None = None
    waypoints_cm: tuple[tuple[float, float, float], ...] = (
        (300.0, 300.0, 100.0),
        (900.0, 900.0, 100.0),
    )
    speed_cm_s: float = 10.0
    sampling_hz: float = 1.0
    duration_s: float = 50.0
    pixel_sigma: float = DEFAULT_PIXEL_SIGMA
    distance_sigma_cm: float = 0.0
    seed: int = 1

    def __post_init__(self):
        # NaN passes every range check below, and a finite duration and rate
        # can still give an infinite tick count
        fix = self.fixture
        numbers = (
            self.led_spacing_cm, *self.led_origin_cm, self.speed_cm_s, self.sampling_hz,
            self.duration_s, self.pixel_sigma,
            self.distance_sigma_cm, *(c for xy in self.explicit_led_xy_cm or () for c in xy),
            *(v for v in (fix.radius_mm, fix.width_mm, fix.height_mm, fix.area_mm2)
              if v is not None),
        )
        # the product only once both factors are within the float range
        if not (all(map(finite, numbers)) and finite(self.duration_s * self.sampling_hz)):
            raise ScenarioError("scenario values must be finite")
        if self.sampling_hz <= 0:
            raise ScenarioError("sampling_hz must be positive")
        try:  # the filter run_tracking builds, checked as FixtureSpec stamps a fixture
            KalmanConfig(dt_s=1.0 / self.sampling_hz)
        except ValueError as exc:
            raise ScenarioError(f"sampling_hz={self.sampling_hz} gives a sampling interval "
                                f"the filter cannot hold: {exc}") from exc
        if self.sampling_hz > MAX_SAMPLING_HZ:
            raise ScenarioError(f"sampling_hz={self.sampling_hz} exceeds the {MAX_SAMPLING_HZ:g} "
                                "Hz that millisecond packet timestamps can tell apart")
        if self.tick_count() > MAX_TICKS:
            raise ScenarioError(f"duration_s * sampling_hz gives {self.tick_count()} ticks, "
                                f"more than the {MAX_TICKS} a run may take")
        if self.led_spacing_cm <= 0:
            raise ScenarioError("led_spacing_cm must be positive")
        if self.duration_s <= 0:
            raise ScenarioError("duration_s must be positive")
        if self.speed_cm_s < 0:
            raise ScenarioError("speed_cm_s must be non-negative")
        if self.pixel_sigma < 0 or self.distance_sigma_cm < 0:
            raise ScenarioError("noise sigmas must be non-negative")
        if not (0 <= self.seed < 2**64):
            raise ScenarioError("seed must fit an unsigned 64-bit value")
        if not self.waypoints_cm:
            raise ScenarioError("trajectory needs at least one waypoint")
        for wp in self.waypoints_cm:
            x, y, z = wp
            if not (0 <= x <= self.room.width_cm and 0 <= y <= self.room.depth_cm):
                raise ScenarioError(f"waypoint {wp} leaves the room floor plan")
            if not (0 <= z < self.room.ceiling_height_cm):
                raise ScenarioError(f"waypoint {wp} is not below the ceiling")
            # The camera looks straight up and z moves linearly between
            # waypoints, so this keeps every fixture beyond the focal length,
            # where the far-field ranging model holds.
            if self.room.ceiling_height_cm - z <= self.camera.focal_length_mm / 10.0:
                raise ScenarioError(
                    f"waypoint {wp} is within the camera's focal length of the ceiling"
                )
        if self.explicit_led_xy_cm is not None:
            _check_fixture_count(len(self.explicit_led_xy_cm))
            _check_broadcasts(self.explicit_led_xy_cm)
        else:
            # a grid's broadcasts are the product of its rounded axes, so they
            # are distinct and fit exactly when each axis's are
            for origin, extent in zip(self.led_origin_cm, (self.room.width_cm, self.room.depth_cm)):
                # the axis's first fixture, at the origin, could not broadcast
                if abs(origin) > MAX_ROOM_CM:
                    raise ScenarioError(f"led_origin_cm={self.led_origin_cm!r} lies beyond the "
                                        f"{MAX_ROOM_CM} cm that 16-bit broadcasts span")
                # more positions than 16-bit values cannot all broadcast apart
                if (extent - origin) / self.led_spacing_cm > 2**16:
                    raise ScenarioError(
                        f"led_spacing_cm={self.led_spacing_cm} puts more than {2**16} fixtures "
                        "on one grid axis, more than 16-bit broadcasts can tell apart"
                    )
            xs, ys = self._grid_axes()
            if xs and ys:
                _check_broadcasts([(x, ys[0]) for x in xs])
                _check_broadcasts([(xs[0], y) for y in ys])
            _check_fixture_count(len(xs) * len(ys))
        # No 16-bit broadcast names a fixture past 65,535 cm, and the
        # visibility scan's grid grows with the floor plan.
        for name in ("width_cm", "depth_cm"):
            extent = getattr(self.room, name)
            if extent > MAX_ROOM_CM:
                raise ScenarioError(f"room.{name}={extent!r} exceeds the {MAX_ROOM_CM} cm "
                                    "that 16-bit broadcast coordinates span")
        # The solver takes no anchor at 1e12 cm or higher, and pixel_count
        # squares the distance to a fixture, which overflows past about 1e153 cm.
        if self.room.ceiling_height_cm > MAX_ROOM_CM:
            raise ScenarioError(
                f"room.ceiling_height_cm={self.room.ceiling_height_cm!r} exceeds the "
                f"{MAX_ROOM_CM} cm a ceiling may take: the solver bounds anchor coordinates, "
                "and the pixel count squares the distance to a fixture"
            )
        try:  # the constant run_tracking ranges with, checked as FixtureSpec stamps a fixture
            tau_mm = ranging_constant(self.camera, fix.make_luminaire(0, Point3(0.0, 0.0, 0.0)))
        except ValueError:  # it underflows to 0
            tau_mm = 0.0
        if not 0 < tau_mm < math.inf:
            raise ScenarioError(
                f"camera.focal_length_mm={self.camera.focal_length_mm!r}, "
                f"camera.pixel_edge_mm={self.camera.pixel_edge_mm!r} and the fixture's area "
                f"give the ranging constant {tau_mm} mm, which is not positive and finite"
            )
        # pixel_count squares f and rho apart and divides by rho^2 d^2 with
        # d > f, so neither square may overflow and rho^2 f^2 must stay positive
        f_mm, rho_mm = self.camera.focal_length_mm, self.camera.pixel_edge_mm
        try:
            squares_fit = rho_mm**2 * f_mm**2 > 0
        except OverflowError:
            squares_fit = False
        if not squares_fit:
            raise ScenarioError(
                f"camera.focal_length_mm={f_mm!r} and camera.pixel_edge_mm={rho_mm!r} "
                "square past the float range that the pixel count is computed in"
            )

    def _grid_axes(self) -> "tuple[list[float], list[float]]":
        """The grid's fixture x and y positions."""
        (ox, oy), spacing = self.led_origin_cm, self.led_spacing_cm
        return (np.arange(ox, self.room.width_cm, spacing).tolist(),
                np.arange(oy, self.room.depth_cm, spacing).tolist())

    def build_luminaires(self) -> "list[Luminaire]":
        """Materialize the ceiling fixtures: explicit placements, or the grid."""
        ceiling = self.room.ceiling_height_cm
        if self.explicit_led_xy_cm is not None:
            coords = list(self.explicit_led_xy_cm)
        else:
            xs, ys = self._grid_axes()
            coords = [(x, y) for x in xs for y in ys]
        return [
            self.fixture.make_luminaire(i + 1, Point3(x, y, ceiling))
            for i, (x, y) in enumerate(coords)
        ]

    def tick_count(self) -> int:
        return int(round(self.duration_s * self.sampling_hz))


def _check_fixture_count(n: int):
    if n > MAX_FIXTURES:
        raise ScenarioError(f"the scenario places {n} fixtures, more than the {MAX_FIXTURES} "
                            "a ceiling may hold")


def _check_broadcasts(fixtures_xy):
    """Raise ScenarioError naming the first fixture whose broadcast, its x and
    y rounded to whole centimeters, does not fit 16 bits or repeats an earlier
    fixture's. round() rounds halves to even, so 1.5 and 2.5 both give 2."""
    seen = {}
    for x, y in fixtures_xy:
        kx, ky = key = (int(round(x)), int(round(y)))
        if not (0 <= kx < 2**16 and 0 <= ky < 2**16):
            name, v = ("x_cm", kx) if not 0 <= kx < 2**16 else ("y_cm", ky)
            raise ScenarioError(f"fixture ({x}, {y}) broadcasts {name}={v}, "
                                "which does not fit 16 bits")
        if key in seen:
            raise ScenarioError(f"fixtures {seen[key]} and ({x}, {y}) both broadcast {key}")
        seen[key] = (x, y)


def trajectory_point(scenario: Scenario, t_s: float) -> Point3:
    """Truth position after walking the waypoint polyline for t_s seconds,
    clamped at the final waypoint."""
    # + 0.0 turns -0.0 into 0.0: scenarios that differ only there are equal
    # keys of the walk cache, so they must walk the same truth
    wps = [Point3(x + 0.0, y + 0.0, z + 0.0) for x, y, z in scenario.waypoints_cm]
    if len(wps) == 1 or scenario.speed_cm_s == 0:
        return wps[0]
    target = scenario.speed_cm_s * t_s
    walked = 0.0
    for a, b in zip(wps, wps[1:]):
        seg = math.dist(a.as_tuple(), b.as_tuple())
        if walked + seg >= target and seg > 0:
            f = (target - walked) / seg
            return Point3(a.x + f * (b.x - a.x), a.y + f * (b.y - a.y), a.z + f * (b.z - a.z))
        walked += seg
    return wps[-1]


class RunRecord(NamedTuple):
    """One sample tick of a tracking run. Errors are horizontal (x, y)
    distances in cm; gap ticks (fewer than three usable detections, or a
    solver failure) carry NaN errors and no estimates. A NamedTuple:
    immutable, and compared and hashed as the tuple of its fields."""

    t_s: float
    truth: Point3
    visible: int
    raw: Point3 | None
    filtered: Point3 | None
    predicted: Point3 | None
    raw_err_cm: float
    kf_err_cm: float
    cold_start: bool
    gap: bool


def _decoded_coordinates(luminaires) -> "dict[int, tuple[int, int]]":
    """Run every fixture's broadcast through the full modem chain once."""
    decoded = {}
    for lum in luminaires:
        bits = encode_frame(int(round(lum.anchor.x)), int(round(lum.anchor.y)))
        decoded[lum.led_id] = decode_frame(demodulate(modulate(bits)))
    return decoded


@dataclass(frozen=True)
class _Ceiling:
    """Everything run_tracking derives from the fixtures and the camera alone."""

    luminaires: "tuple[Luminaire, ...]"
    registry: LedRegistry
    tau_mm: float  # every fixture is stamped from the one FixtureSpec
    coords: "dict[int, tuple[int, int]]"
    xy: np.ndarray  # (N, 2) fixture positions, in luminaire order
    height_cm: float
    reach_per_dz: float  # tan of the view cone's semi-angle

    def within_reach(self, position: Point3) -> "list[Luminaire]":
        """Fixtures that a straight-up camera at position can possibly see, in
        input order: those inside the view cone's footprint on the ceiling. The
        1 cm margin absorbs rounding in observe_scene's angle test, which still
        decides visibility."""
        reach = (self.height_cm - position.z) * self.reach_per_dz + 1.0
        d2 = ((self.xy - (position.x, position.y)) ** 2).sum(axis=1)
        near = np.flatnonzero(d2 <= reach * reach)
        return [self.luminaires[i] for i in near]


@dataclass(frozen=True)
class _Tick:
    """One sample of the noise-free walk: the time, the truth, the fixtures
    inside the view cone, in ceiling order, and the columns of its ranged
    sightings: the decoded broadcast x_cm and y_cm and the distance in mm of
    each."""

    t_s: float
    truth: Point3
    in_view: "tuple[Luminaire, ...]"
    x_cm: "tuple[int, ...]"
    y_cm: "tuple[int, ...]"
    dists_mm: "tuple[float, ...]"


def _ranged(sightings, tau_mm: float, coords
            ) -> "tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]":
    """The columns of the sightings that can be ranged, those with a finite
    pixel area of at least 1 px (feasibility() not IMPOSSIBLE): the decoded
    broadcast x_cm and y_cm of each, and its distance in mm."""
    ranged = [sig for sig in sightings if 1.0 <= sig.pixel_area < math.inf]
    xy = [coords[sig.led_id] for sig in ranged]
    return (tuple([x for x, _ in xy]), tuple([y for _, y in xy]),
            tuple([distance_from_pixels(tau_mm, sig.pixel_area) for sig in ranged]))


# The Scenario fields the walk depends on: all but the seed and the two noise
# levels. Their values, in this order, are the key of the walk cache.
_WALK_FIELDS = tuple(f.name for f in fields(Scenario)
                     if f.name not in ("seed", "pixel_sigma", "distance_sigma_cm"))
_walk_key = attrgetter(*_WALK_FIELDS)


# The most recent walk with its ceiling. It holds nothing that depends on the
# seed or the noise, so an ensemble's members, which differ only in their
# seeds, share it. Every run reads the same objects, so nothing may modify them.
@lru_cache(maxsize=1)
def _walk(key: tuple) -> "tuple[_Ceiling, tuple[_Tick, ...]]":
    """The ceiling and the noise-free walk of the scenario whose _walk_key is
    key. Only a miss builds (and so checks) that scenario."""
    scenario = Scenario(**dict(zip(_WALK_FIELDS, key)), pixel_sigma=0.0)
    luminaires = tuple(scenario.build_luminaires())
    height = scenario.room.ceiling_height_cm
    ceiling = _Ceiling(
        luminaires=luminaires,
        registry=LedRegistry.from_luminaires(luminaires),
        tau_mm=ranging_constant(
            scenario.camera, scenario.fixture.make_luminaire(0, Point3(0.0, 0.0, height))
        ),
        coords=_decoded_coordinates(luminaires),
        xy=np.array([[lum.anchor.x, lum.anchor.y] for lum in luminaires]).reshape(-1, 2),
        height_cm=height,
        reach_per_dz=math.tan(math.radians(scenario.camera.fov_semi_angle_deg)),
    )
    ticks = []
    for k in range(scenario.tick_count()):
        t_s = k / scenario.sampling_hz
        truth = trajectory_point(scenario, t_s)
        reach = ceiling.within_reach(truth)
        sightings = observe_scene(reach, Pose(truth), scenario.camera)
        seen = {sig.led_id for sig in sightings}
        in_view = tuple(lum for lum in reach if lum.led_id in seen)
        columns = _ranged(sightings, ceiling.tau_mm, ceiling.coords)
        ticks.append(_Tick(t_s, truth, in_view, *columns))
    return ceiling, tuple(ticks)


def run_tracking(scenario: Scenario) -> "list[RunRecord]":
    """Walk the trajectory and push every tick through the full pipeline:
    observe pixel areas, decode fixture IDs, invert to distances, upload a
    packet, solve and filter on the server.

    The ceiling set-up (fixtures, registry, ranging constant and decoded
    broadcasts) and the noise-free walk (per tick the truth, the fixtures in
    view and the broadcast and distance of each ranged sighting) are
    cached per process, so the ensemble members of a filter comparison, which
    differ only in their seeds, build them once. Each tick then draws its noise
    in the one order a fresh walk would: the pixel noise of every fixture in
    view first, through observe_scene, then the distance noise of every ranged
    sighting. Without pixel noise the walk's ranged distances serve as they
    are, beside the broadcast coordinates it cached for them; with it, the
    coordinates are looked up for the noisy sightings. The distance noise of a
    tick is one draw of as many normals as it has ranged sightings, which
    gives the stream of that many scalar draws, added to the distances one by
    one. The records in range go to the server as one packet of columns
    (DetectionPacket.from_columns), and no DetectionRecord is built: when
    every distance is in range, the columns are the cached (or just ranged)
    ones as they are."""
    ceiling, walk = _walk(_walk_key(scenario))
    tau_mm, coords = ceiling.tau_mm, ceiling.coords
    server = LightingServer(
        ceiling.registry,
        scenario.room,
        kalman_config=KalmanConfig(dt_s=1.0 / scenario.sampling_hz),
    )
    rng = np.random.default_rng(scenario.seed)
    distance_sigma_mm = scenario.distance_sigma_cm * 10.0

    records: list[RunRecord] = []
    for k, tick in enumerate(walk):
        if scenario.pixel_sigma > 0:
            sightings = observe_scene(
                tick.in_view, Pose(tick.truth), scenario.camera, scenario.pixel_sigma, rng
            )
            x_cm, y_cm, dists_mm = _ranged(sightings, tau_mm, coords)
        else:
            x_cm, y_cm, dists_mm = tick.x_cm, tick.y_cm, tick.dists_mm
        if distance_sigma_mm > 0:
            noise = rng.normal(0.0, distance_sigma_mm, size=len(dists_mm)).tolist()
            # a list first: a tuple sized up front, not grown from an iterator
            dists_mm = tuple([d + e for d, e in zip(dists_mm, noise)])
        # no distance is NaN, so min and max test every one against the range
        if dists_mm and not (MIN_DISTANCE_MM < min(dists_mm)
                             and max(dists_mm) < MAX_DISTANCE_MM):
            keep = [MIN_DISTANCE_MM < d < MAX_DISTANCE_MM for d in dists_mm]
            x_cm, y_cm, dists_mm = (tuple(compress(column, keep))
                                    for column in (x_cm, y_cm, dists_mm))

        # The server raises InsufficientAnchors, a SolverError, for fewer than
        # three records before it touches the session.
        result = None
        if dists_mm:
            packet = DetectionPacket.from_columns(
                "sim", int(round(1000.0 * k / scenario.sampling_hz)), x_cm, y_cm, dists_mm
            )
            try:
                result = server.ingest(packet)
            except SolverError:
                pass
        # every fixture in view gives one sighting, noisy or not
        truth, visible = tick.truth, len(tick.in_view)
        if result is None:
            records.append(RunRecord(tick.t_s, truth, visible, None, None, None,
                                     math.nan, math.nan, False, True))
            continue
        raw, filtered = result.estimate.position, result.filtered
        records.append(RunRecord(tick.t_s, truth, visible, raw, filtered, result.predicted,
                                 math.hypot(raw.x - truth.x, raw.y - truth.y),
                                 math.hypot(filtered.x - truth.x, filtered.y - truth.y),
                                 result.cold_start, False))
    return records


@dataclass(frozen=True)
class BerPoint:
    snir_db: float
    ber_sim: float
    ber_theory: float


def run_ber_sweep(snir_db_grid, n_bits: int, seed: int) -> "list[BerPoint]":
    """Monte-Carlo OOK error rate against the analytic curve per SNIR point,
    each within +/- MAX_SNIR_DB."""
    if n_bits < MIN_BER_BITS:
        raise ValueError("need at least 1e4 bits per point")
    grid = list(snir_db_grid)
    if not all(finite(db) and abs(db) <= MAX_SNIR_DB for db in grid):
        raise ValueError(f"SNIR values must be finite and within +/-{MAX_SNIR_DB} dB")
    grid = list(map(float, grid))
    points = []
    for i, db in enumerate(grid):
        lin = 10.0 ** (db / 10.0)
        points.append(
            BerPoint(db, measure_ber(lin, n_bits, seed + i), ook_ber_theoretical(lin))
        )
    return points


@dataclass(frozen=True)
class RangePoint:
    d_m: float
    eta: float
    regime: FeasibilityRegime


def range_boundaries_m(camera: CameraModel, luminaire: Luminaire) -> tuple[float, float]:
    """Distances where ranging degrades (4 px) and becomes impossible (1 px):
    half the ranging constant, and the ranging constant itself."""
    tau_m = ranging_constant(camera, luminaire) / 1000.0
    return tau_m / 2.0, tau_m


def run_range_sweep(camera: CameraModel, luminaire: Luminaire, d_grid_m) -> "list[RangePoint]":
    """Pixel area and feasibility regime along an ascending distance grid."""
    grid = list(d_grid_m)
    if not all(map(finite, grid)):
        raise ValueError("distance grid values must be finite")
    grid = list(map(float, grid))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("distance grid must be strictly ascending")
    points = []
    for d_m in grid:
        eta = pixel_count(camera, luminaire, d_m * 100.0)
        points.append(RangePoint(d_m, eta, feasibility(eta)))
    return points


@dataclass(frozen=True)
class FilterComparisonPoint:
    t_s: float
    err_kf_norm: float
    err_raw_norm: float


def _member_seed(base: int, member: int) -> int:
    """The seed of ensemble member member, reduced to the 64 bits a seed
    holds; below about 1.8e13 the reduction leaves it as it is."""
    return (base * 1_000_003 + member) % 2**64


def run_filter_comparison(scenario: Scenario, ensemble_size: int = 100) -> "list[FilterComparisonPoint]":
    """Ensemble-mean error of the delivered next position, with and without the
    filter, normalized to the shared tick-0 error.

    The server's answer for tick k is consumed one interval later, so each
    pipeline is scored against the truth at tick k+1: the filtered pipeline
    delivers the one-step prediction, the raw pipeline its current solve. At
    tick 0 the cold-started filter predicts zero motion, so both answers (and
    both curves, after normalization) start at the same point.

    A tick where no member has an estimate scores nan, as a gap tick does in
    track.csv; when tick 0 is such a tick, or every member's tick-0 error is
    0, there is nothing to normalize by, and ValueError is raised.
    """
    if scenario.distance_sigma_cm <= 0:
        raise ValueError("filter comparison needs distance noise > 0")
    if ensemble_size < 1:
        raise ValueError("ensemble_size must be positive")
    n = scenario.tick_count()
    if n < 2:
        raise ValueError("scenario too short to compare")
    truths_next = [tick.truth for tick in _walk(_walk_key(scenario))[1][1:]]
    # per tick, the sums of the members' errors, added in member order, and
    # how many members have an estimate there
    sum_kf, sum_raw, count = [0.0] * (n - 1), [0.0] * (n - 1), [0] * (n - 1)
    for j in range(ensemble_size):
        member = replace(scenario, seed=_member_seed(scenario.seed, j))
        for k, (rec, truth_next) in enumerate(zip(run_tracking(member), truths_next)):
            if rec.gap:
                continue
            sum_kf[k] += math.hypot(rec.predicted.x - truth_next.x, rec.predicted.y - truth_next.y)
            sum_raw[k] += math.hypot(rec.raw.x - truth_next.x, rec.raw.y - truth_next.y)
            count[k] += 1
    if count[0] == 0:
        raise ValueError("no member has an estimate at tick 0 to normalize by")
    mean_kf = [s / c if c else math.nan for s, c in zip(sum_kf, count)]
    mean_raw = [s / c if c else math.nan for s, c in zip(sum_raw, count)]
    if mean_kf[0] == 0 or mean_raw[0] == 0:
        raise ValueError("every member's tick-0 error is 0, so there is nothing to normalize by")
    return [
        FilterComparisonPoint(k / scenario.sampling_hz, mean_kf[k] / mean_kf[0],
                              mean_raw[k] / mean_raw[0])
        for k in range(n - 1)
    ]


@dataclass(frozen=True)
class VisibilityScan:
    min_visible: int
    worst_xy_cm: tuple[float, float]
    ok: bool


def visibility_scan(scenario: Scenario, camera_height_cm: float = 100.0) -> VisibilityScan:
    """Exhaustive grid scan, at SCAN_STEP_CM pitch, of how many fixtures each
    floor position at least SCAN_MARGIN_CM from the walls sees; ok when every
    scanned point sees at least three. The worst point is the first to see the
    fewest, x-major. The scan holds one x-row at a time, and in it only the
    fixtures with (x - ax)^2 within reach^2, the only ones a point of the row
    can see: adding dy^2 >= 0 cannot bring a farther one back in floats."""
    if not finite(camera_height_cm):
        raise ValueError(f"camera height must be finite, got {camera_height_cm!r}")
    luminaires = scenario.build_luminaires()
    ax = np.array([l.anchor.x for l in luminaires], dtype=float)
    ay = np.array([l.anchor.y for l in luminaires], dtype=float)
    dz = scenario.room.ceiling_height_cm - camera_height_cm
    if dz <= 0:
        raise ValueError("camera must sit below the ceiling")
    reach = dz * math.tan(math.radians(scenario.camera.fov_semi_angle_deg))
    xs = np.arange(SCAN_MARGIN_CM, scenario.room.width_cm - SCAN_MARGIN_CM + 1e-9, SCAN_STEP_CM)
    ys = np.arange(SCAN_MARGIN_CM, scenario.room.depth_cm - SCAN_MARGIN_CM + 1e-9, SCAN_STEP_CM)
    if not (xs.size and ys.size):
        raise ScenarioError(f"the room has no point {SCAN_MARGIN_CM} cm from every wall to scan")
    r2 = reach * reach
    fewest = worst = None
    for x in xs.tolist():
        dx2 = (x - ax) ** 2
        near = dx2 <= r2
        counts = (dx2[near] + (ys[:, None] - ay[near]) ** 2 <= r2).sum(axis=1)
        j = int(np.argmin(counts))
        # strict <: the first point to see the fewest stays the worst
        if fewest is None or counts[j] < fewest:
            fewest, worst = int(counts[j]), (x, float(ys[j]))
    return VisibilityScan(min_visible=fewest, worst_xy_cm=worst, ok=fewest >= 3)


def default_scenario() -> Scenario:
    """The reference tracking run: 10 cm/s diagonal walk, 1 Hz, 50 samples,
    pixel noise worth about 5 cm of ranging error."""
    return Scenario()


def default_filtercmp_scenario() -> Scenario:
    """Reference filter-comparison run: a brisker straight walk with direct
    5 cm distance noise, long enough to read the curves at t = 10 s."""
    return Scenario(
        waypoints_cm=((100.0, 300.0, 100.0), (1100.0, 300.0, 100.0)),
        speed_cm_s=40.0,
        duration_s=25.0,
        pixel_sigma=0.0,
        distance_sigma_cm=5.0,
        seed=7,
    )


# --- scenario <-> dict mapping (strict: unknown keys are rejected) ---------


def _object(value, where: str, keys) -> dict:
    """A scenario file's object, with no key outside keys."""
    if type(value) is not dict:
        raise ScenarioError(f"{where} must be a JSON object, not {value!r}")
    unknown = value.keys() - keys
    if unknown:
        raise ScenarioError(f"unknown {where} fields: {', '.join(sorted(unknown))}")
    return value


def _list(value, where: str) -> list:
    if type(value) is not list:
        raise ScenarioError(f"{where} must be a list, not {value!r}")
    return value


def _number(value, where: str) -> float:
    """A scenario file's number as a float: a JSON int or float, not a boolean
    or a string, which float() would also take."""
    if type(value) not in (int, float):
        raise ScenarioError(f"{where} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ScenarioError(f"{where} lies past the float range") from None


def _point(value, where: str, n: int = 2) -> "tuple[float, ...]":
    point = tuple(_number(v, where) for v in _list(value, where))
    if len(point) != n:
        raise ScenarioError(f"{where} needs [{', '.join('xyz'[:n])}], not {value!r}")
    return point


def _luminaires(value, where: str):  # null stands for the grid
    return None if value is None else tuple(_point(xy, where) for xy in _list(value, where))


def _waypoints(value, where: str):
    return tuple(_point(wp, where, 3) for wp in _list(value, where))


def _seed(value, where: str) -> int:
    """A scenario file's seed: an int, or a float with no fractional part."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ScenarioError(f"{where} must be an integer, not {value!r}")
    return value


def _fields(default):
    """The reader of a room, camera or fixture section: default with the
    file's values, each checked against the kind its dataclass field declares
    and kept as the file gave it, so a manifest echoes an int as an int."""
    kinds = {f.name: f.type for f in fields(default)}

    def read(value, where: str):
        given = _object(value, where, kinds.keys())
        for name, v in given.items():
            # the fixture checks its shape, the one string field, itself
            if kinds[name] != "str" and not (v is None and "None" in kinds[name]):
                _number(v, f"{where}.{name}")
        if given.get("shape") == "rectangular":
            # a rectangular fixture takes none of the circular default's sizes
            given = {"radius_mm": None, "area_mm2": None, **given}
        return replace(default, **given)

    return read


# Where each Scenario attribute sits in a scenario file, and its reader, which
# takes the file's value and its path. Both directions of the mapping walk this.
_FORMAT = {
    "room": ("room", _fields(RoomConfig(**DEFAULT_ROOM))),
    "camera": ("camera", _fields(CameraModel(**DEFAULT_CAMERA))),
    "fixture": ("fixture", _fields(FixtureSpec())),
    "led_grid": {"spacing_cm": ("led_spacing_cm", _number), "origin_cm": ("led_origin_cm", _point)},
    "luminaires": ("explicit_led_xy_cm", _luminaires),
    "trajectory": {"waypoints_cm": ("waypoints_cm", _waypoints),
                   "speed_cm_s": ("speed_cm_s", _number)},
    "sampling_hz": ("sampling_hz", _number),
    "duration_s": ("duration_s", _number),
    "noise": {"pixel_sigma": ("pixel_sigma", _number),
              "distance_sigma_cm": ("distance_sigma_cm", _number)},
    "seed": ("seed", _seed),
}


def _json(value):
    """A Scenario attribute as its scenario file writes it."""
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return asdict(value) if is_dataclass(value) else value


def scenario_to_dict(s: Scenario) -> dict:
    def write(table: dict) -> dict:
        return {key: write(entry) if type(entry) is dict else _json(getattr(s, entry[0]))
                for key, entry in table.items()}
    return write(_FORMAT)


def _read(data, where: str, table: dict, values: dict):
    """Read each value data gives into values, under its Scenario attribute."""
    for key, value in _object(data, where or "scenario", table.keys()).items():
        path = f"{where}.{key}" if where else key
        if type(table[key]) is dict:
            _read(value, path, table[key], values)
        else:
            attr, read = table[key]
            values[attr] = read(value, path)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from a parsed config; absent fields take the desk-scale
    defaults. An unknown field, or a value of the wrong kind, raises
    ScenarioError naming its path."""
    values: dict = {}
    try:
        _read(data, "", _FORMAT, values)
        return Scenario(**values)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc)) from exc
