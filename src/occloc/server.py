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
from collections import deque
from dataclasses import dataclass, field

from .geometry import Luminaire, Point3, RoomConfig
from .solver import InsufficientAnchors, PositionEstimate, estimate_position
from . import tracker

SNAPSHOT_VERSION = 3
PROBE_INTERVAL_MS = 2000  # a session silent this long is probed
PROBE_LIMIT = 3  # missed probes that close a session
HISTORY_LIMIT = 256  # per-session ring of ingest results
# The open range a record's distance must lie in, in mm. Nothing optical
# ranges under a micrometre, and a subnormal distance would round to 0 cm in
# ingest. Two 16-bit centimeter coordinates lie at most about 9.3e5 mm apart,
# so 1e7 mm passes any range in the coordinate space, while the solver's
# squared distances (at most 1e12 cm^2) stay far from the float overflow that
# distances near 1e155 mm reach.
MIN_DISTANCE_MM = 1e-3
MAX_DISTANCE_MM = 1e7


class UnknownLedId(KeyError):
    """Broadcast coordinates that match no registered fixture."""


class StaleTimestamp(ValueError):
    """Packet time does not advance the session clock."""


class SessionClosed(ValueError):
    """The session was closed by the probe state machine."""


@dataclass(frozen=True, slots=True, init=False)
class DetectionRecord:
    """One wire record: slot 1 carries the fixture's broadcast centimeter
    coordinates, slot 2 the measured distance in millimeters."""

    x_cm: int
    y_cm: int
    distance_mm: float

    def __init__(self, x_cm: int, y_cm: int, distance_mm: float):
        # checks first, then sets each field once; one chained test for the
        # common valid record, and the loop names the field
        if not (0 <= x_cm < 65536 and 0 <= y_cm < 65536):
            for name, v in (("x_cm", x_cm), ("y_cm", y_cm)):
                if not (0 <= v < 2**16):
                    raise ValueError(f"{name}={v} does not fit 16 bits")
        if distance_mm is True:  # compares as 1; False already fails the range
            raise ValueError("distance_mm must be a number, not a boolean")
        if not MIN_DISTANCE_MM < distance_mm < MAX_DISTANCE_MM:
            raise ValueError(
                f"distance_mm={distance_mm} outside ({MIN_DISTANCE_MM}, {MAX_DISTANCE_MM})"
            )
        object.__setattr__(self, "x_cm", x_cm)
        object.__setattr__(self, "y_cm", y_cm)
        object.__setattr__(self, "distance_mm", distance_mm)


@dataclass(frozen=True)
class DetectionPacket:
    session_id: str
    timestamp_ms: int
    records: tuple[DetectionRecord, ...]

    def __post_init__(self):
        if not (0 <= self.timestamp_ms < 2**64):
            raise ValueError("timestamp_ms must fit 64 bits")
        if len(self.records) < 1:
            raise ValueError("packet needs at least one record")


class LedRegistry:
    """Fixture map from broadcast (x_cm, y_cm) to the fixture's ceiling anchor."""

    def __init__(self, entries: "dict[tuple[int, int], Point3]"):
        heights = {anchor.z for anchor in entries.values()}
        if len(heights) > 1 and max(heights) - min(heights) > 1e-6:
            raise ValueError("all anchors must share the ceiling height")
        self._entries = dict(entries)

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
        try:
            return self._entries[(x_cm, y_cm)]
        except KeyError:
            raise UnknownLedId(f"no fixture at ({x_cm}, {y_cm})") from None


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
    session_id: str
    tracker_state: tracker.KalmanState | None = None
    last_seen_ms: int | None = None
    last_probe_ms: int | None = None
    missed_probes: int = 0
    closed: bool = False
    last_position: tuple[float, float, float] | None = None
    history: deque = field(default_factory=lambda: deque(maxlen=HISTORY_LIMIT))
    # the look-ahead of tracker_state, which the next ingest takes as its
    # prediction; a restored session has none until its first ingest
    ahead: tracker.KalmanState | None = field(default=None, init=False, repr=False)


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
        if session is not None and session.closed:
            raise SessionClosed(f"session {packet.session_id} is closed")
        if (
            session is not None
            and session.last_seen_ms is not None
            and packet.timestamp_ms <= session.last_seen_ms
        ):
            raise StaleTimestamp(
                f"timestamp {packet.timestamp_ms} does not advance past {session.last_seen_ms}"
            )

        anchors = []
        dists = []
        dropped = 0
        lookup = self.registry.lookup
        for rec in packet.records:
            try:
                anchors.append(lookup(rec.x_cm, rec.y_cm))
            except UnknownLedId:
                dropped += 1
                continue
            dists.append(rec.distance_mm / 10.0)
        if len(anchors) < 3:
            raise InsufficientAnchors(f"{len(anchors)} resolvable records after dropping {dropped}")

        cold_start = session is None or session.tracker_state is None
        prior = None
        if not cold_start:
            # one prediction serves as the solver's prior and as the update's
            # input: the last ingest's look-ahead, or a fresh one after a restore
            prior_state = session.ahead
            if prior_state is None:
                prior_state = tracker.predict(session.tracker_state, self.kalman_config)
            px, py = prior_state.position_xy
            prior = Point3(px, py, session.last_position[2])

        estimate = estimate_position(tuple(anchors), dists, self.room, prior)

        if cold_start:
            state = tracker.initial_state(
                (estimate.position.x, estimate.position.y), self.kalman_config
            )
        else:
            state = tracker.update(
                prior_state,
                (estimate.position.x, estimate.position.y),
                self.kalman_config,
            )
        filtered = Point3(state.x, state.y, estimate.position.z)
        ahead = tracker.predict(state, self.kalman_config)
        predicted = Point3(ahead.x, ahead.y, estimate.position.z)
        out_of_bounds = not (
            self._in_extended_bounds(filtered) and self._in_extended_bounds(estimate.position)
        )

        if session is None:
            session = Session(packet.session_id)
            self.sessions[packet.session_id] = session
        session.tracker_state = state
        session.ahead = ahead
        session.last_seen_ms = packet.timestamp_ms
        session.last_probe_ms = None
        session.missed_probes = 0
        session.last_position = filtered.as_tuple()
        session.history.append(
            {
                "timestamp_ms": packet.timestamp_ms,
                "raw": list(estimate.position.as_tuple()),
                "filtered": list(filtered.as_tuple()),
                "predicted": list(predicted.as_tuple()),
                "residual_cm": estimate.residual_cm,
                "method": estimate.method.value,
                "out_of_bounds": out_of_bounds,
            }
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
        anchor_ms = session.last_seen_ms if session.last_seen_ms is not None else 0
        if now_ms - anchor_ms <= PROBE_INTERVAL_MS:
            return ProbeStatus(ProbePhase.ACTIVE, session.missed_probes)
        since_probe = (
            now_ms - session.last_probe_ms
            if session.last_probe_ms is not None
            else now_ms - anchor_ms
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
        """Serializable record of the session: history ring plus filter state."""
        session = self.sessions[session_id]
        kf = session.tracker_state
        state = None if kf is None else {
            "x": [kf.x, kf.y, kf.vx, kf.vy],
            "p": [kf.p_pos, kf.p_cross, kf.p_vel],
        }
        return {
            "version": SNAPSHOT_VERSION,
            "session_id": session.session_id,
            "closed": session.closed,
            "last_seen_ms": session.last_seen_ms,
            "last_probe_ms": session.last_probe_ms,
            "missed_probes": session.missed_probes,
            "last_position": list(session.last_position) if session.last_position else None,
            "tracker": state,
            "history": [dict(entry) for entry in session.history],
        }

    def restore_session(self, snapshot: dict):
        """Rebuild a session from a snapshot dict (inverse of snapshot).

        Every field is checked before the session is registered, and a bad one
        raises ValueError naming it. session_id is a string; last_seen_ms and
        last_probe_ms are integers or null; missed_probes is an integer >= 0
        and closed a boolean; history is a list of objects. The filter state
        tracker must be 4 finite numbers x = (x, y, vx, vy) and the 3 finite
        numbers p = (p_pos, p_cross, p_vel) of the per-axis covariance block,
        or null, and last_position 3 finite numbers exactly when it is not
        null. An earlier version's snapshot is rejected."""
        if type(snapshot) is not dict:
            raise ValueError("snapshot must be an object")
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {snapshot.get('version')}")
        missing = [name for name in _SNAPSHOT_FIELDS if name not in snapshot]
        if missing:
            raise ValueError(f"snapshot fields missing: {', '.join(missing)}")
        state = None
        if snapshot["tracker"] is not None:
            if type(snapshot["tracker"]) is not dict:
                raise ValueError("snapshot field tracker must be an object or null")
            x = _state_numbers(snapshot["tracker"], "x", 4)
            p = _state_numbers(snapshot["tracker"], "p", 3)
            state = tracker.KalmanState(*x, *p)
        _check_session_fields(snapshot)
        position = snapshot["last_position"]
        session = Session(
            session_id=snapshot["session_id"],
            tracker_state=state,
            last_seen_ms=snapshot["last_seen_ms"],
            last_probe_ms=snapshot["last_probe_ms"],
            missed_probes=snapshot["missed_probes"],
            closed=snapshot["closed"],
            last_position=None if position is None else tuple(position),
            history=deque((dict(e) for e in snapshot["history"]), maxlen=HISTORY_LIMIT),
        )
        self.sessions[session.session_id] = session


_SNAPSHOT_FIELDS = ("session_id", "closed", "last_seen_ms", "last_probe_ms", "missed_probes",
                    "last_position", "tracker", "history")


def _finite_numbers(value, n: int) -> bool:
    """Whether value is a list (or tuple) of n finite ints or floats, not booleans."""
    if type(value) not in (list, tuple) or len(value) != n:
        return False
    try:
        return all(type(v) in (int, float) and math.isfinite(v) for v in value)
    except OverflowError:  # an int past the float range
        return False


def _check_session_fields(snapshot: dict):
    """Raise ValueError naming the first field besides tracker that a session
    cannot hold."""

    def require(name: str, ok: bool, what: str):
        if not ok:
            raise ValueError(f"snapshot field {name} must be {what}")

    require("session_id", type(snapshot["session_id"]) is str, "a string")
    for name in ("last_seen_ms", "last_probe_ms"):
        value = snapshot[name]
        require(name, value is None or type(value) is int, "an integer or null")
    missed = snapshot["missed_probes"]
    require("missed_probes", type(missed) is int and missed >= 0, "an integer >= 0")
    require("closed", type(snapshot["closed"]) is bool, "a boolean")
    position = snapshot["last_position"]
    require(
        "last_position",
        position is None if snapshot["tracker"] is None else _finite_numbers(position, 3),
        "3 finite numbers, and null exactly when tracker is",
    )
    history = snapshot["history"]
    require("history", type(history) is list and all(type(e) is dict for e in history),
            "a list of objects")


def _state_numbers(state: dict, name: str, n: int) -> "list[float]":
    """A snapshot's tracker.<name> as n floats; each must be a finite int or
    float (not a string or boolean)."""
    value = state.get(name)
    if not _finite_numbers(value, n):
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
    distance a JSON number and the session id a string."""
    obj = json.loads(line)
    _check_fields(obj, _PACKET_FIELDS, "packet")
    session_id, timestamp_ms = obj["session_id"], obj["timestamp_ms"]
    if type(session_id) is not str or type(timestamp_ms) is not int:
        raise ValueError("session_id must be a string and timestamp_ms an integer")
    if type(obj["records"]) is not list:
        raise ValueError("records must be a list")
    records = []
    for rec in obj["records"]:
        _check_fields(rec, _RECORD_FIELDS, "record")
        x_cm, y_cm, distance_mm = rec["x_cm"], rec["y_cm"], rec["distance_mm"]
        if type(x_cm) is not int or type(y_cm) is not int:
            raise ValueError("x_cm and y_cm must be integers")
        if type(distance_mm) is not float and type(distance_mm) is not int:
            raise ValueError("distance_mm must be a number")
        records.append(DetectionRecord(x_cm, y_cm, distance_mm))
    return DetectionPacket(session_id, timestamp_ms, tuple(records))


def replay_packet_log(server: LightingServer, lines) -> "list[IngestResult]":
    """Feed a packet log (one JSON packet per line) through the server in order."""
    return [server.ingest(packet_from_line(line)) for line in lines if line.strip()]
