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
from operator import attrgetter

from .geometry import Luminaire, Point3, RoomConfig, finite
from .solver import (CEILING_TOLERANCE_CM, AnchorPlan, InsufficientAnchors, PositionEstimate,
                     SolverError, solve)
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


class DegenerateCovariance(SolverError):
    """The session's look-ahead leaves the update an innovation variance
    p_pos + r2 of 0, or one so near 0 that its reciprocal overflows, so the
    filter has no finite gain to fold the packet in with."""


def _check_record(x_cm, y_cm, distance_mm):
    """Raise ValueError naming the first field of one record that a packet
    cannot carry."""
    # one chained test for the common valid record, and the loop names the field
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


@dataclass(frozen=True, slots=True, init=False)
class DetectionRecord:
    """One wire record: slot 1 carries the fixture's broadcast centimeter
    coordinates, slot 2 the measured distance in millimeters. A packet
    carries its records as columns, and is built from a tuple of these.

    Coordinates are ints (not booleans) that fit 16 bits, and the distance an
    int or float (numpy.float64 included, booleans not) in the open range
    (MIN_DISTANCE_MM, MAX_DISTANCE_MM); anything else raises ValueError."""

    x_cm: int
    y_cm: int
    distance_mm: float

    def __init__(self, x_cm: int, y_cm: int, distance_mm: float):
        _check_record(x_cm, y_cm, distance_mm)
        object.__setattr__(self, "x_cm", x_cm)
        object.__setattr__(self, "y_cm", y_cm)
        object.__setattr__(self, "distance_mm", distance_mm)


_fields_of = attrgetter("x_cm", "y_cm", "distance_mm")  # a record's, as a tuple


@dataclass(frozen=True, slots=True, init=False)
class DetectionPacket:
    """A phone's upload: its session id (a string), the capture time (an int
    that fits 64 bits, not a boolean) and at least one record, held as three
    equal-length tuple columns: the broadcast coordinates x_cm and y_cm and the
    distance_mm of each record, in record order. Each record holds what a
    DetectionRecord holds, so ingest takes the columns unchecked.

    DetectionPacket(session_id, timestamp_ms, records) takes a tuple of
    DetectionRecords, and from_columns the three columns, which it checks in
    one pass over the records with DetectionRecord's own check. The packet is
    frozen, and equality and hashing take its fields."""

    session_id: str
    timestamp_ms: int
    x_cm: "tuple[int, ...]"
    y_cm: "tuple[int, ...]"
    distance_mm: "tuple[float, ...]"

    def __init__(self, session_id: str, timestamp_ms: int,
                 records: "tuple[DetectionRecord, ...]"):
        _check_header(session_id, timestamp_ms)
        if type(records) is not tuple:
            raise ValueError(f"records must be a tuple, not {type(records).__name__}")
        if len(records) < 1:
            raise ValueError("packet needs at least one record")
        if set(map(type, records)) != {DetectionRecord}:
            raise ValueError("every record must be a DetectionRecord")
        self._set(session_id, timestamp_ms, *zip(*map(_fields_of, records)))

    @classmethod
    def from_columns(cls, session_id: str, timestamp_ms: int, x_cm: "tuple[int, ...]",
                     y_cm: "tuple[int, ...]", distance_mm: "tuple[float, ...]"
                     ) -> "DetectionPacket":
        """The packet of three columns, checked in the order a packet of
        DetectionRecords built from them would be: each record in turn, then
        the session id and the time, then that there is a record at all."""
        if not (type(x_cm) is tuple and type(y_cm) is tuple and type(distance_mm) is tuple):
            raise ValueError("the columns must be tuples")
        if not len(x_cm) == len(y_cm) == len(distance_mm):
            raise ValueError(f"the columns differ in length: {len(x_cm)} x_cm, "
                             f"{len(y_cm)} y_cm, {len(distance_mm)} distance_mm")
        # one pass over the records: at 3 to 17 records this measured faster
        # than whole-column tests (set(map(type, ...)), min and max). The
        # common valid record passes one chained test; any other goes to
        # _check_record, which passes it or names its first bad field.
        for x, y, d in zip(x_cm, y_cm, distance_mm):
            if not (type(x) is int and type(y) is int and 0 <= x < 65536 and 0 <= y < 65536
                    and type(d) is float and MIN_DISTANCE_MM < d < MAX_DISTANCE_MM):
                _check_record(x, y, d)
        _check_header(session_id, timestamp_ms)
        if not x_cm:
            raise ValueError("packet needs at least one record")
        packet = object.__new__(cls)
        packet._set(session_id, timestamp_ms, x_cm, y_cm, distance_mm)
        return packet

    def _set(self, session_id, timestamp_ms, x_cm, y_cm, distance_mm):
        object.__setattr__(self, "session_id", session_id)
        object.__setattr__(self, "timestamp_ms", timestamp_ms)
        object.__setattr__(self, "x_cm", x_cm)
        object.__setattr__(self, "y_cm", y_cm)
        object.__setattr__(self, "distance_mm", distance_mm)


def _check_header(session_id, timestamp_ms):
    if type(session_id) is not str:
        raise ValueError(f"session_id={session_id!r} is not a string")
    if type(timestamp_ms) is not int or not (0 <= timestamp_ms < 2**64):
        raise ValueError(f"timestamp_ms={timestamp_ms!r} does not fit 64 bits")


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

    def resolve(self, x_cm, y_cm, distance_mm) -> "tuple[tuple[int, ...], list[float]]":
        """The fixture indices of the records, given as a packet's columns,
        that match a fixture, in record order, and their distances in cm as
        Python floats. Records that match none are left out."""
        # one loop over the columns: at 3 to 17 records it measured as fast as
        # a map over the keys when every key is found, and faster with misses
        index = self._index.get
        indices = []
        dists = []
        for x, y, d in zip(x_cm, y_cm, distance_mm):
            i = index((x, y))
            if i is not None:
                indices.append(i)
                dists.append(float(d) / 10.0)
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
    look-ahead (the next ingest's prediction), the next solve's prior (the
    look-ahead's position at the last estimate's height, which the last
    IngestResult returned as predicted) and the clock."""

    session_id: str
    tracker_state: tracker.KalmanState
    ahead: tracker.KalmanState
    prior: Point3
    last_seen_ms: int
    last_probe_ms: int | None = None  # None: not probed since the last packet
    missed_probes: int = 0
    closed: bool = False


@dataclass(frozen=True)
class IngestResult:
    """Per-packet answer: the raw solver estimate, the filtered position, the
    one-step-ahead prediction, and bookkeeping flags; out_of_bounds when any
    of the three points leaves the room grown by a tenth on every side."""

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
        # the room grown by a tenth of its size on every side
        mx, my, mz = 0.1 * room.width_cm, 0.1 * room.depth_cm, 0.1 * room.ceiling_height_cm
        self._bounds = (-mx, room.width_cm + mx, -my, room.depth_cm + my,
                        -mz, room.ceiling_height_cm + mz)
        self.kalman_config = kalman_config or tracker.KalmanConfig()
        self.sessions: dict[str, Session] = {}
        self.archive: dict[str, dict] = {}

    def ingest(self, packet: DetectionPacket) -> IngestResult:
        """Resolve, solve, filter, predict. Failed packets (stale clock, too few
        resolvable records, solver failure, a look-ahead innovation variance
        too near 0 for a finite gain) leave the session untouched."""
        session = self.sessions.get(packet.session_id)
        cold_start = session is None
        if not cold_start:
            if session.closed:
                raise SessionClosed(f"session {packet.session_id} is closed")
            if packet.timestamp_ms <= session.last_seen_ms:
                raise StaleTimestamp(
                    f"timestamp {packet.timestamp_ms} does not advance past {session.last_seen_ms}"
                )

        # the packet bounds every distance to (1e-4, 1e6) cm, inside the range
        # solve takes, so the distances need no second check
        indices, dists = self.registry.resolve(packet.x_cm, packet.y_cm, packet.distance_mm)
        dropped = len(packet.x_cm) - len(indices)
        if len(indices) < 3:
            raise InsufficientAnchors(f"{len(indices)} resolvable records after dropping {dropped}")

        # one prediction, the last look-ahead, serves as the solver's prior
        # and as the update's input
        prior = None if cold_start else session.prior
        estimate = solve(self.registry.plan(indices), dists, self.room, prior)
        position = estimate.position

        if cold_start:
            state = tracker.initial_state((position.x, position.y), self.kalman_config)
        else:
            innovation = session.ahead.p_pos + self.kalman_config.r2
            if innovation == 0.0 or not math.isfinite(1.0 / innovation):
                raise DegenerateCovariance(
                    f"session {packet.session_id} has a look-ahead innovation variance of "
                    f"{innovation}, too near 0 for a finite gain"
                )
            state = tracker.update(session.ahead, (position.x, position.y), self.kalman_config)
        filtered = Point3(state.x, state.y, position.z)
        ahead = tracker.predict(state, self.kalman_config)
        predicted = Point3(ahead.x, ahead.y, position.z)
        # the estimate, filtered and predicted points share one z
        x_lo, x_hi, y_lo, y_hi, z_lo, z_hi = self._bounds
        out_of_bounds = not (
            z_lo <= position.z <= z_hi
            and x_lo <= position.x <= x_hi and y_lo <= position.y <= y_hi
            and x_lo <= state.x <= x_hi and y_lo <= state.y <= y_hi
            and x_lo <= ahead.x <= x_hi and y_lo <= ahead.y <= y_hi
        )

        self.sessions[packet.session_id] = Session(
            packet.session_id, state, ahead, predicted, packet.timestamp_ms
        )
        return IngestResult(estimate, filtered, predicted, out_of_bounds, dropped, cold_start)

    def probe_tick(self, session_id: str, now_ms: int) -> ProbeStatus:
        """Advance the liveness state machine at logical time now_ms.

        A silent interval increments the miss counter (at most once per elapsed
        interval); reaching the limit closes the session and archives its final
        state. Any successful ingest resets the counter. Closed is absorbing.
        now_ms must be a time a packet can carry, as the snapshot stores it.
        """
        if not _clock(now_ms):
            raise ValueError(f"now_ms={now_ms!r} is not an integer in [0, 2**64)")
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
            **{name: getattr(session, name) for name in _SESSION_FIELDS},
            "tracker": {
                "x": [kf.x, kf.y, kf.vx, kf.vy],
                "p": [kf.p_pos, kf.p_cross, kf.p_vel],
                "height_cm": session.prior.z,
            },
        }

    def restore_session(self, snapshot: dict):
        """Rebuild a session from a snapshot dict (inverse of snapshot).

        Every field is checked before the session is registered, and a bad one
        raises ValueError naming it. The snapshot holds exactly the version,
        the keys of _SESSION_FIELDS and tracker, and its tracker object exactly
        the keys of _TRACKER_FIELDS. Each value must then pass its table's
        test, the tracker's first, each table in the order snapshot writes it.
        A filter state whose look-ahead position leaves the float range, which
        no solve could take as its prior, is rejected too, and so is one whose
        look-ahead covariance does, which would make the next update's gain
        NaN. An earlier version's snapshot is rejected. The covariance block
        need not be positive semi-definite: the filter writes blocks that are
        not once the measurement noise vanishes next to the state variance in
        floats, and a snapshot of such a session must restore."""
        if type(snapshot) is not dict:
            raise ValueError("snapshot must be an object")
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {snapshot.get('version')}")
        _check_fields(snapshot, {"version", *_SESSION_FIELDS, "tracker"}, "snapshot")
        saved = snapshot["tracker"]
        _check_fields(saved, _TRACKER_FIELDS.keys(), "snapshot tracker")
        for obj, table, prefix in ((saved, _TRACKER_FIELDS, "tracker."),
                                   (snapshot, _SESSION_FIELDS, "")):
            for name, (ok, what) in table.items():
                if not ok(obj[name]):
                    raise ValueError(f"snapshot field {prefix}{name} must be {what}")
        state = tracker.KalmanState(*map(float, saved["x"]), *map(float, saved["p"]))
        ahead = tracker.predict(state, self.kalman_config)
        if not (math.isfinite(ahead.x) and math.isfinite(ahead.y)):
            raise ValueError("snapshot field tracker.x must be a state whose look-ahead "
                             "position is finite")
        if not all(map(math.isfinite, (ahead.p_pos, ahead.p_cross, ahead.p_vel))):
            raise ValueError("snapshot field tracker.p must be a covariance whose look-ahead "
                             "is finite")
        session = Session(
            tracker_state=state,
            ahead=ahead,
            prior=Point3(ahead.x, ahead.y, saved["height_cm"]),
            **{name: snapshot[name] for name in _SESSION_FIELDS},
        )
        self.sessions[session.session_id] = session


def _finite_number(value) -> bool:
    """Whether value is a finite int or float, not a boolean."""
    return type(value) in (int, float) and finite(value)


def _clock(value) -> bool:
    """Whether value is a time a packet can carry: an int in [0, 2**64)."""
    return type(value) is int and 0 <= value < 2**64


def _finite_numbers(n: int):
    """The test of a list (or tuple) of n finite numbers."""
    return lambda v: type(v) in (list, tuple) and len(v) == n and all(map(_finite_number, v))


# The Session attributes a snapshot carries, in the order snapshot writes
# them: the test a restored value must pass, and what its error says it must be.
_SESSION_FIELDS = {
    "session_id": (lambda v: type(v) is str, "a string"),
    "closed": (lambda v: type(v) is bool, "a boolean"),
    # a clock past the packet clock range would make every packet stale
    "last_seen_ms": (_clock, "an integer in [0, 2**64)"),
    "last_probe_ms": (lambda v: v is None or _clock(v), "an integer in [0, 2**64) or null"),
    "missed_probes": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
}
# The same for the snapshot's tracker object: the filter's mean (x, y, vx, vy),
# the per-axis covariance block (p_pos, p_cross, p_vel) and the last height.
_TRACKER_FIELDS = {
    "x": (_finite_numbers(4), "4 finite numbers"),
    "p": (_finite_numbers(3), "3 finite numbers"),
    "height_cm": (_finite_number, "a finite number"),
}


def packet_to_line(packet: DetectionPacket) -> str:
    """One-line JSON wire form of a packet, for log files and replay."""
    return json.dumps(
        {
            "session_id": packet.session_id,
            "timestamp_ms": packet.timestamp_ms,
            "records": [
                {"x_cm": x, "y_cm": y, "distance_mm": d}
                for x, y, d in zip(packet.x_cm, packet.y_cm, packet.distance_mm)
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
    records = obj["records"]
    if type(records) is not list:
        raise ValueError("records must be a list")
    x_cm, y_cm, distance_mm = [], [], []
    for rec in records:
        if type(rec) is not dict or rec.keys() != _RECORD_FIELDS:
            _raise_first_fault(records)
        x_cm.append(rec["x_cm"])
        y_cm.append(rec["y_cm"])
        distance_mm.append(rec["distance_mm"])
    return DetectionPacket.from_columns(obj["session_id"], obj["timestamp_ms"], tuple(x_cm),
                                        tuple(y_cm), tuple(distance_mm))


def _raise_first_fault(records: list):
    """Raise the first fault of wire records, each checked whole in turn: its
    fields, then its values."""
    for rec in records:
        _check_fields(rec, _RECORD_FIELDS, "record")
        _check_record(rec["x_cm"], rec["y_cm"], rec["distance_mm"])
