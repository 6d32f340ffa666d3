"""Lighting-server role: fixture registry, detection-packet ingestion,
per-smartphone sessions, solver + tracker orchestration, and liveness probing.

Smartphones upload packets whose records pair a fixture's broadcast ceiling
coordinates with the photogrammetric distance to it; the server resolves the
coordinates against its stored fixture map, solves for position, runs the
Kalman recursion, and answers with the filtered position plus the predicted
next one. Timestamps are caller-supplied logical time, so replaying a packet
log reproduces every estimate exactly.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache

from .geometry import Luminaire, Point3, RoomConfig
from .solver import CEILING_TOLERANCE_CM, AnchorPlan, InsufficientAnchors, PositionEstimate, solve
# ingest solves through solve; perfbench's tracer still wraps the name
# estimate_position in this module, so it stays imported here
from .solver import estimate_position  # noqa: F401
from . import tracker

SNAPSHOT_VERSION = 4
PROBE_INTERVAL_MS = 2000  # a session silent this long is probed
PROBE_LIMIT = 3  # missed probes that close a session
# The open range a record's distance must lie in, in mm. Nothing optical
# ranges under a micrometre, and a subnormal distance would round to 0 cm in
# ingest. Two 16-bit centimeter coordinates lie at most about 9.3e5 mm apart,
# so 1e7 mm passes any range in the coordinate space, while the solver's
# squared distances (at most 1e12 cm^2) stay far from the float overflow that
# distances near 1e155 mm reach.
MIN_DISTANCE_MM = 1e-3
MAX_DISTANCE_MM = 1e7
# Solve plans a registry keeps, least recently used out first. A server's
# phones move under one fixture grid and an ensemble's members walk the same
# truth, so the same anchor sets recur: the 100 members of the reference filter
# comparison hold 14 sets between them, and a 64-phone, 55 s fleet log about
# 1,700.
ANCHOR_CACHE_SIZE = 2048


class UnknownLedId(KeyError):
    """Broadcast coordinates that match no registered fixture."""


class StaleTimestamp(ValueError):
    """Packet time does not advance the session clock."""


class SessionClosed(ValueError):
    """The session was closed by the probe state machine."""


@dataclass(frozen=True, slots=True, init=False)
class DetectionRecord:
    """One wire record: slot 1 carries the fixture's broadcast centimeter
    coordinates, slot 2 the measured distance in millimeters.

    Coordinates are ints (not booleans) that fit 16 bits, and the distance an
    int or float (numpy.float64 included, booleans not) in the open range
    (MIN_DISTANCE_MM, MAX_DISTANCE_MM); anything else raises ValueError."""

    x_cm: int
    y_cm: int
    distance_mm: float

    def __init__(self, x_cm: int, y_cm: int, distance_mm: float):
        # checks first, then sets each field once; one chained test for the
        # common valid record, and the loop names the field
        if not (type(x_cm) is int and type(y_cm) is int
                and 0 <= x_cm < 65536 and 0 <= y_cm < 65536):
            for name, v in (("x_cm", x_cm), ("y_cm", y_cm)):
                if type(v) is not int or not (0 <= v < 2**16):
                    raise ValueError(f"{name}={v!r} does not fit 16 bits")
        if type(distance_mm) is not float and type(distance_mm) is not int:
            if distance_mm is True:  # compares as 1; False fails the range below
                raise ValueError("distance_mm must be a number, not a boolean")
            if not isinstance(distance_mm, (int, float)):
                raise ValueError(f"distance_mm={distance_mm!r} is not a number")
        if not MIN_DISTANCE_MM < distance_mm < MAX_DISTANCE_MM:
            raise ValueError(
                f"distance_mm={distance_mm} outside ({MIN_DISTANCE_MM}, {MAX_DISTANCE_MM})"
            )
        object.__setattr__(self, "x_cm", x_cm)
        object.__setattr__(self, "y_cm", y_cm)
        object.__setattr__(self, "distance_mm", distance_mm)


@dataclass(frozen=True)
class DetectionPacket:
    """A phone's upload: its session id (a string), the capture time (an int
    that fits 64 bits, not a boolean) and a tuple of at least one
    DetectionRecord. ingest relies on the records' own checks, so nothing
    else may stand in for a record."""

    session_id: str
    timestamp_ms: int
    records: tuple[DetectionRecord, ...]

    def __post_init__(self):
        if type(self.session_id) is not str:
            raise ValueError(f"session_id={self.session_id!r} is not a string")
        if type(self.timestamp_ms) is not int or not (0 <= self.timestamp_ms < 2**64):
            raise ValueError(f"timestamp_ms={self.timestamp_ms!r} does not fit 64 bits")
        if type(self.records) is not tuple:
            raise ValueError(f"records must be a tuple, not {type(self.records).__name__}")
        if len(self.records) < 1:
            raise ValueError("packet needs at least one record")
        if set(map(type, self.records)) != {DetectionRecord}:
            raise ValueError("every record must be a DetectionRecord")


class LedRegistry:
    """Fixture map from broadcast (x_cm, y_cm) to the fixture's ceiling anchor.

    Each key is a pair of ints (not booleans) that fit 16 bits, as a record's
    coordinates must, so that every fixture can be matched. The anchors are
    held in one tuple, in entry order, and a packet resolves to indices into
    it. plan(indices) is the solve plan of those anchors, cached by the index
    tuple up to ANCHOR_CACHE_SIZE sets, so every server on the registry shares
    it. A set that fails the plan's checks raises, so it is never stored and
    raises again on every call."""

    def __init__(self, entries: "dict[tuple[int, int], Point3]"):
        for key in entries:
            if not (type(key) is tuple and len(key) == 2
                    and type(key[0]) is int and 0 <= key[0] < 2**16
                    and type(key[1]) is int and 0 <= key[1] < 2**16):
                raise ValueError(f"broadcast coordinates {key!r} are not two 16-bit ints")
        heights = {anchor.z for anchor in entries.values()}
        if len(heights) > 1 and max(heights) - min(heights) > CEILING_TOLERANCE_CM:
            raise ValueError("all anchors must share the ceiling height")
        anchors = self.anchors = tuple(entries.values())
        self._index = {key: i for i, key in enumerate(entries)}
        # the closure holds the anchors, not the registry, so no cycle keeps it
        self.plan = lru_cache(maxsize=ANCHOR_CACHE_SIZE)(
            lambda indices: AnchorPlan(tuple(anchors[i] for i in indices))
        )

    @classmethod
    def from_luminaires(cls, luminaires: "list[Luminaire]") -> "LedRegistry":
        entries = {}
        for lum in luminaires:
            key = (int(round(lum.anchor.x)), int(round(lum.anchor.y)))
            if key in entries:
                raise ValueError(f"duplicate broadcast coordinates {key}")
            entries[key] = lum.anchor
        return cls(entries)

    def lookup(self, x_cm: int, y_cm: int) -> Point3:
        i = self._index.get((x_cm, y_cm))
        if i is None:
            raise UnknownLedId(f"no fixture at ({x_cm}, {y_cm})")
        return self.anchors[i]

    def resolve(self, records) -> "tuple[tuple[int, ...], list[float]]":
        """The fixture indices of the records that match a fixture, in record
        order, and their distances in cm as Python floats. Records that match
        none are left out."""
        index = self._index.get
        indices = []
        dists = []
        for rec in records:
            i = index((rec.x_cm, rec.y_cm))
            if i is not None:
                indices.append(i)
                dists.append(float(rec.distance_mm) / 10.0)
        return tuple(indices), dists


class ProbePhase(enum.Enum):
    ACTIVE = "active"
    PROBING = "probing"
    CLOSED = "closed"


@dataclass(frozen=True)
class ProbeStatus:
    phase: ProbePhase
    missed_probes: int


@dataclass
class Session:
    """A phone's state, complete from its first packet: the filter state, its
    look-ahead (the next ingest's prediction), the last estimate's height
    (the next solve's prior takes it) and the clock."""

    session_id: str
    tracker_state: tracker.KalmanState
    ahead: tracker.KalmanState
    height_cm: float
    last_seen_ms: int
    last_probe_ms: int | None = None  # None: not probed since the last packet
    missed_probes: int = 0
    closed: bool = False


@dataclass(frozen=True)
class IngestResult:
    """Per-packet answer: the raw solver estimate, the filtered position, the
    one-step-ahead prediction, and bookkeeping flags."""

    estimate: PositionEstimate
    filtered: Point3
    predicted: Point3
    out_of_bounds: bool
    dropped_records: int
    cold_start: bool


class LightingServer:
    def __init__(
        self,
        registry: LedRegistry,
        room: RoomConfig,
        kalman_config: tracker.KalmanConfig | None = None,
    ):
        """Raises ValueError unless every registered anchor lies within
        CEILING_TOLERANCE_CM of the room's ceiling, which each solve requires."""
        if any(abs(anchor.z - room.ceiling_height_cm) > CEILING_TOLERANCE_CM
               for anchor in registry.anchors):
            raise ValueError("anchor height disagrees with the room ceiling")
        self.registry = registry
        self.room = room
        self.kalman_config = kalman_config or tracker.KalmanConfig()
        self.sessions: dict[str, Session] = {}
        self.archive: dict[str, dict] = {}

    def _in_extended_bounds(self, p: Point3) -> bool:
        mx = 0.1 * self.room.width_cm
        my = 0.1 * self.room.depth_cm
        mz = 0.1 * self.room.ceiling_height_cm
        return (
            -mx <= p.x <= self.room.width_cm + mx
            and -my <= p.y <= self.room.depth_cm + my
            and -mz <= p.z <= self.room.ceiling_height_cm + mz
        )

    def ingest(self, packet: DetectionPacket) -> IngestResult:
        """Resolve, solve, filter, predict. Failed packets (stale clock, too few
        resolvable records, solver failure) leave the session untouched."""
        session = self.sessions.get(packet.session_id)
        cold_start = session is None
        if not cold_start:
            if session.closed:
                raise SessionClosed(f"session {packet.session_id} is closed")
            if packet.timestamp_ms <= session.last_seen_ms:
                raise StaleTimestamp(
                    f"timestamp {packet.timestamp_ms} does not advance past {session.last_seen_ms}"
                )

        # DetectionRecord bounds every distance to (1e-4, 1e6) cm, inside the
        # range solve takes, so the distances need no second check
        indices, dists = self.registry.resolve(packet.records)
        dropped = len(packet.records) - len(indices)
        if len(indices) < 3:
            raise InsufficientAnchors(f"{len(indices)} resolvable records after dropping {dropped}")

        prior = None
        if not cold_start:
            # one prediction, the last look-ahead, serves as the solver's prior
            # and as the update's input
            px, py = session.ahead.position_xy
            prior = Point3(px, py, session.height_cm)

        estimate = solve(self.registry.plan(indices), dists, self.room, prior)

        if cold_start:
            state = tracker.initial_state(
                (estimate.position.x, estimate.position.y), self.kalman_config
            )
        else:
            state = tracker.update(
                session.ahead,
                (estimate.position.x, estimate.position.y),
                self.kalman_config,
            )
        filtered = Point3(state.x, state.y, estimate.position.z)
        ahead = tracker.predict(state, self.kalman_config)
        predicted = Point3(ahead.x, ahead.y, estimate.position.z)
        out_of_bounds = not (
            self._in_extended_bounds(filtered) and self._in_extended_bounds(estimate.position)
        )

        self.sessions[packet.session_id] = Session(
            packet.session_id, state, ahead, estimate.position.z, packet.timestamp_ms
        )
        return IngestResult(estimate, filtered, predicted, out_of_bounds, dropped, cold_start)

    def probe_tick(self, session_id: str, now_ms: int) -> ProbeStatus:
        """Advance the liveness state machine at logical time now_ms.

        A silent interval increments the miss counter (at most once per elapsed
        interval); reaching the limit closes the session and archives its final
        state. Any successful ingest resets the counter. Closed is absorbing.
        """
        session = self.sessions[session_id]
        if session.closed:
            return ProbeStatus(ProbePhase.CLOSED, session.missed_probes)
        if now_ms - session.last_seen_ms <= PROBE_INTERVAL_MS:
            return ProbeStatus(ProbePhase.ACTIVE, session.missed_probes)
        since_probe = (
            now_ms - session.last_probe_ms
            if session.last_probe_ms is not None
            else now_ms - session.last_seen_ms
        )
        if since_probe > PROBE_INTERVAL_MS:
            session.missed_probes += 1
            session.last_probe_ms = now_ms
        if session.missed_probes >= PROBE_LIMIT:
            session.closed = True
            self.archive[session_id] = self.snapshot(session_id)
            return ProbeStatus(ProbePhase.CLOSED, session.missed_probes)
        return ProbeStatus(ProbePhase.PROBING, session.missed_probes)

    def snapshot(self, session_id: str) -> dict:
        """Serializable record of the session: its clock, liveness counters and
        filter state, with the last height beside the filter's mean."""
        session = self.sessions[session_id]
        kf = session.tracker_state
        return {
            "version": SNAPSHOT_VERSION,
            "session_id": session.session_id,
            "closed": session.closed,
            "last_seen_ms": session.last_seen_ms,
            "last_probe_ms": session.last_probe_ms,
            "missed_probes": session.missed_probes,
            "tracker": {
                "x": [kf.x, kf.y, kf.vx, kf.vy],
                "p": [kf.p_pos, kf.p_cross, kf.p_vel],
                "height_cm": session.height_cm,
            },
        }

    def restore_session(self, snapshot: dict):
        """Rebuild a session from a snapshot dict (inverse of snapshot).

        Every field is checked before the session is registered, and a bad one
        raises ValueError naming it. The snapshot holds exactly the keys that
        snapshot writes, and its tracker object exactly x, p and height_cm.
        session_id is a string; last_seen_ms is an integer in [0, 2**64), the
        packet timestamp range, and last_probe_ms one too or null;
        missed_probes is an integer >= 0 and closed a boolean. The filter
        state is 4 finite numbers x = (x, y, vx, vy), the 3 finite numbers
        p = (p_pos, p_cross, p_vel) of the per-axis covariance block and the
        finite number height_cm. An earlier version's snapshot is rejected."""
        if type(snapshot) is not dict:
            raise ValueError("snapshot must be an object")
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {snapshot.get('version')}")
        _check_fields(snapshot, _SNAPSHOT_FIELDS, "snapshot")
        _check_fields(snapshot["tracker"], _TRACKER_FIELDS, "snapshot tracker")
        x = _state_numbers(snapshot["tracker"], "x", 4)
        p = _state_numbers(snapshot["tracker"], "p", 3)
        height = snapshot["tracker"]["height_cm"]
        if not _finite_number(height):
            raise ValueError("snapshot field tracker.height_cm must be a finite number")
        _check_session_fields(snapshot)
        state = tracker.KalmanState(*x, *p)
        session = Session(
            session_id=snapshot["session_id"],
            tracker_state=state,
            ahead=tracker.predict(state, self.kalman_config),
            height_cm=float(height),
            last_seen_ms=snapshot["last_seen_ms"],
            last_probe_ms=snapshot["last_probe_ms"],
            missed_probes=snapshot["missed_probes"],
            closed=snapshot["closed"],
        )
        self.sessions[session.session_id] = session


_SNAPSHOT_FIELDS = {"version", "session_id", "closed", "last_seen_ms", "last_probe_ms",
                    "missed_probes", "tracker"}
_TRACKER_FIELDS = {"x", "p", "height_cm"}


def _finite_number(value) -> bool:
    """Whether value is a finite int or float, not a boolean."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _clock(value) -> bool:
    """Whether value is a time a packet can carry: an int in [0, 2**64)."""
    return type(value) is int and 0 <= value < 2**64


def _check_session_fields(snapshot: dict):
    """Raise ValueError naming the first field besides tracker that a session
    cannot hold."""

    def require(name: str, ok: bool, what: str):
        if not ok:
            raise ValueError(f"snapshot field {name} must be {what}")

    require("session_id", type(snapshot["session_id"]) is str, "a string")
    # a clock past the packet clock range would make every packet stale
    require("last_seen_ms", _clock(snapshot["last_seen_ms"]), "an integer in [0, 2**64)")
    last_probe = snapshot["last_probe_ms"]
    require("last_probe_ms", last_probe is None or _clock(last_probe),
            "an integer in [0, 2**64) or null")
    missed = snapshot["missed_probes"]
    require("missed_probes", type(missed) is int and missed >= 0, "an integer >= 0")
    require("closed", type(snapshot["closed"]) is bool, "a boolean")


def _state_numbers(state: dict, name: str, n: int) -> "list[float]":
    """A snapshot's tracker.<name> as n floats; each must be a finite int or
    float (not a string or boolean)."""
    value = state[name]
    if type(value) not in (list, tuple) or len(value) != n or not all(map(_finite_number, value)):
        raise ValueError(f"snapshot field tracker.{name} must be {n} finite numbers")
    return [float(v) for v in value]


def packet_to_line(packet: DetectionPacket) -> str:
    """One-line JSON wire form of a packet, for log files and replay."""
    return json.dumps(
        {
            "session_id": packet.session_id,
            "timestamp_ms": packet.timestamp_ms,
            "records": [
                {"x_cm": r.x_cm, "y_cm": r.y_cm, "distance_mm": r.distance_mm}
                for r in packet.records
            ],
        },
        separators=(",", ":"),
    )


_PACKET_FIELDS = {"session_id", "timestamp_ms", "records"}
_RECORD_FIELDS = {"x_cm", "y_cm", "distance_mm"}


def _check_fields(obj, fields: "set[str]", what: str):
    if type(obj) is not dict:
        raise ValueError(f"{what} must be a JSON object")
    if obj.keys() != fields:
        raise ValueError(
            f"{what} fields: unknown {sorted(obj.keys() - fields)}, "
            f"missing {sorted(fields - obj.keys())}"
        )


def packet_from_line(line: str) -> DetectionPacket:
    """Parse one wire line; anything but a well-formed packet raises ValueError.

    Coordinates and the timestamp must be JSON integers (not booleans), the
    distance a JSON number and the session id a string. JSON nested deeper
    than the parser's recursion limit is malformed too."""
    try:
        obj = json.loads(line)
    except RecursionError:
        raise ValueError("packet nests too deeply to parse") from None
    _check_fields(obj, _PACKET_FIELDS, "packet")
    if type(obj["records"]) is not list:
        raise ValueError("records must be a list")
    records = []
    for rec in obj["records"]:
        _check_fields(rec, _RECORD_FIELDS, "record")
        records.append(DetectionRecord(rec["x_cm"], rec["y_cm"], rec["distance_mm"]))
    return DetectionPacket(obj["session_id"], obj["timestamp_ms"], tuple(records))


def replay_packet_log(server: LightingServer, lines) -> "list[IngestResult]":
    """Feed a packet log (one JSON packet per line) through the server in order."""
    return [server.ingest(packet_from_line(line)) for line in lines if line.strip()]
