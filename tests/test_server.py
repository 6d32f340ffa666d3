import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occloc.geometry import Circular, Luminaire, Point3, RoomConfig, distance
from occloc.server import (
    DetectionPacket,
    DetectionRecord,
    LedRegistry,
    LightingServer,
    ProbePhase,
    SessionClosed,
    StaleTimestamp,
    UnknownLedId,
    packet_from_line,
    packet_to_line,
    replay_packet_log,
)
from occloc.solver import InsufficientAnchors, SolverError

ROOM = RoomConfig(1219.0, 1219.0, 300.0)
ANCHORS = [(450, 450), (600, 450), (450, 600), (600, 600)]


def make_registry(anchors=ANCHORS):
    lums = [
        Luminaire(i + 1, Point3(x, y, 300.0), Circular(85.0))
        for i, (x, y) in enumerate(anchors)
    ]
    return LedRegistry.from_luminaires(lums)


def packet_from_truth(truth: Point3, ts_ms: int, anchors=ANCHORS, session="s1"):
    records = tuple(
        DetectionRecord(x, y, 10.0 * distance(truth, Point3(x, y, 300.0)))
        for x, y in anchors
    )
    return DetectionPacket(session, ts_ms, records)


def make_server():
    return LightingServer(make_registry(), ROOM)


class TestRegistry:
    def test_lookup(self):
        reg = make_registry()
        assert reg.lookup(450, 450) == Point3(450, 450, 300)

    def test_unknown(self):
        with pytest.raises(UnknownLedId):
            make_registry().lookup(1, 2)

    def test_duplicate_broadcast_coordinates_rejected(self):
        # 150.4 and 149.6 both round to the broadcast x = 150
        lums = [
            Luminaire(1, Point3(150.4, 0, 300), Circular(85.0)),
            Luminaire(2, Point3(149.6, 0, 300), Circular(85.0)),
        ]
        with pytest.raises(ValueError, match="duplicate broadcast coordinates"):
            LedRegistry.from_luminaires(lums)

    def test_mixed_ceilings_rejected(self):
        with pytest.raises(ValueError):
            LedRegistry({(0, 0): Point3(0, 0, 300), (150, 0): Point3(150, 0, 250)})


class TestIngest:
    def test_exact_records_recover_truth(self):
        server = make_server()
        truth = Point3(520, 510, 100)
        result = server.ingest(packet_from_truth(truth, 1000))
        assert distance(result.estimate.position, truth) < 1e-6
        assert result.cold_start
        assert not result.out_of_bounds

    def test_cold_start_prediction_is_zero_velocity(self):
        server = make_server()
        result = server.ingest(packet_from_truth(Point3(520, 510, 100), 1000))
        assert result.predicted.x == pytest.approx(result.filtered.x)
        assert result.predicted.y == pytest.approx(result.filtered.y)

    def test_two_records_insufficient(self):
        server = make_server()
        pkt = packet_from_truth(Point3(520, 510, 100), 1000, anchors=ANCHORS[:2])
        with pytest.raises(InsufficientAnchors):
            server.ingest(pkt)
        assert "s1" not in server.sessions

    def test_unknown_records_dropped(self):
        server = make_server()
        truth = Point3(520, 510, 100)
        good = packet_from_truth(truth, 1000)
        bad = DetectionRecord(9, 9, 1234.0)
        result = server.ingest(
            DetectionPacket("s1", 1000, good.records + (bad,))
        )
        assert result.dropped_records == 1
        assert distance(result.estimate.position, truth) < 1e-6

    def test_drop_below_three_raises(self):
        server = make_server()
        records = (
            DetectionRecord(450, 450, 2000.0),
            DetectionRecord(600, 450, 2000.0),
            DetectionRecord(9, 9, 2000.0),
        )
        with pytest.raises(InsufficientAnchors):
            server.ingest(DetectionPacket("s1", 1000, records))

    def test_stale_timestamp_rejected(self):
        server = make_server()
        truth = Point3(520, 510, 100)
        server.ingest(packet_from_truth(truth, 2000))
        with pytest.raises(StaleTimestamp):
            server.ingest(packet_from_truth(truth, 2000))
        with pytest.raises(StaleTimestamp):
            server.ingest(packet_from_truth(truth, 1500))

    def test_failed_packet_leaves_session_unchanged(self):
        server = make_server()
        truth = Point3(520, 510, 100)
        server.ingest(packet_from_truth(truth, 1000))
        before = server.snapshot("s1")
        with pytest.raises(StaleTimestamp):
            server.ingest(packet_from_truth(truth, 500))
        with pytest.raises(InsufficientAnchors):
            server.ingest(
                DetectionPacket("s1", 3000, (DetectionRecord(9, 9, 100.0),) * 3)
            )
        assert server.snapshot("s1") == before

    def test_filter_tracks_motion(self):
        server = make_server()
        for k in range(20):
            truth = Point3(480 + 5 * k, 500, 100)
            result = server.ingest(packet_from_truth(truth, 1000 * (k + 1)))
        assert abs(result.filtered.x - truth.x) < 1.0
        # one-step prediction leads the filtered position along the motion
        assert result.predicted.x > result.filtered.x

    def test_out_of_bounds_flagged(self):
        # consistent records placing the camera far outside the room
        server = LightingServer(make_registry([(0, 0), (150, 0), (0, 150), (150, 150)]),
                                RoomConfig(100.0, 100.0, 300.0))
        truth = Point3(500, 500, 100)
        records = tuple(
            DetectionRecord(x, y, 10.0 * distance(truth, Point3(x, y, 300.0)))
            for x, y in [(0, 0), (150, 0), (0, 150), (150, 150)]
        )
        result = server.ingest(DetectionPacket("s1", 1000, records))
        assert result.out_of_bounds

    def test_replay_is_deterministic(self):
        lines = []
        for k in range(10):
            truth = Point3(480 + 5 * k, 500 + 3 * k, 100)
            lines.append(packet_to_line(packet_from_truth(truth, 1000 * (k + 1))))
        a = replay_packet_log(make_server(), lines)
        b = replay_packet_log(make_server(), lines)
        assert [r.filtered for r in a] == [r.filtered for r in b]
        assert [r.predicted for r in a] == [r.predicted for r in b]


class TestProbe:
    def test_fresh_session_active(self):
        server = make_server()
        server.ingest(packet_from_truth(Point3(520, 510, 100), 1000))
        assert server.probe_tick("s1", 2500).phase is ProbePhase.ACTIVE

    def test_three_silent_intervals_close(self):
        server = make_server()
        server.ingest(packet_from_truth(Point3(520, 510, 100), 1000))
        assert server.probe_tick("s1", 4000).phase is ProbePhase.PROBING
        assert server.probe_tick("s1", 7000).phase is ProbePhase.PROBING
        status = server.probe_tick("s1", 10000)
        assert status.phase is ProbePhase.CLOSED
        assert status.missed_probes == 3
        assert "s1" in server.archive

    def test_reply_resets_counter(self):
        server = make_server()
        server.ingest(packet_from_truth(Point3(520, 510, 100), 1000))
        server.probe_tick("s1", 4000)
        server.probe_tick("s1", 7000)
        assert server.sessions["s1"].missed_probes == 2
        server.ingest(packet_from_truth(Point3(521, 510, 100), 7500))
        assert server.sessions["s1"].missed_probes == 0
        assert server.probe_tick("s1", 8000).phase is ProbePhase.ACTIVE

    def test_closed_is_absorbing(self):
        server = make_server()
        server.ingest(packet_from_truth(Point3(520, 510, 100), 1000))
        server.probe_tick("s1", 4000)
        server.probe_tick("s1", 7000)
        server.probe_tick("s1", 10000)
        assert server.probe_tick("s1", 100000).phase is ProbePhase.CLOSED
        with pytest.raises(SessionClosed):
            server.ingest(packet_from_truth(Point3(520, 510, 100), 200000))

    def test_rapid_ticks_count_once_per_interval(self):
        server = make_server()
        server.ingest(packet_from_truth(Point3(520, 510, 100), 1000))
        server.probe_tick("s1", 4000)
        server.probe_tick("s1", 4100)
        server.probe_tick("s1", 4200)
        assert server.sessions["s1"].missed_probes == 1


class TestSnapshot:
    def test_round_trip_through_json(self):
        server = make_server()
        for k in range(5):
            server.ingest(packet_from_truth(Point3(480 + 5 * k, 500, 100), 1000 * (k + 1)))
        snap = server.snapshot("s1")
        restored_server = make_server()
        restored_server.restore_session(json.loads(json.dumps(snap)))
        assert restored_server.snapshot("s1") == snap
        # the restored session keeps filtering identically
        a = server.ingest(packet_from_truth(Point3(520, 500, 100), 9000))
        b = restored_server.ingest(packet_from_truth(Point3(520, 500, 100), 9000))
        assert a.filtered == b.filtered

    def test_history_ring_evicts_oldest(self):
        server = make_server()
        for k in range(257):
            server.ingest(packet_from_truth(Point3(500, 500, 100), 1000 * (k + 1)))
        hist = server.snapshot("s1")["history"]
        assert len(hist) == 256
        assert hist[0]["timestamp_ms"] == 2000  # the first entry was evicted

    def test_unknown_session_raises(self):
        with pytest.raises(KeyError):
            make_server().snapshot("missing")

    def test_restore_keeps_the_last_probe_time(self):
        def probe_after_restore(restore: bool):
            server = make_server()
            server.ingest(packet_from_truth(Point3(520, 510, 100), 0))
            server.probe_tick("s1", 2500)
            if restore:
                snap = json.loads(json.dumps(server.snapshot("s1")))
                server = make_server()
                server.restore_session(snap)
            return server.probe_tick("s1", 3000).missed_probes

        assert probe_after_restore(False) == 1
        assert probe_after_restore(True) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        events=st.lists(
            st.tuples(st.sampled_from(["ingest", "probe"]), st.integers(1, 6).map(lambda k: 500 * k),
                      st.floats(470, 580), st.floats(470, 580)),
            min_size=1,
            max_size=10,
        ),
    )
    def test_snapshot_restore_continue_equals_uninterrupted(self, events):
        def outcome(server, kind, t_ms, x, y):
            try:
                if kind == "probe":
                    return server.probe_tick("s1", t_ms)
                return server.ingest(packet_from_truth(Point3(x, y, 100), t_ms)).filtered
            except (SessionClosed, StaleTimestamp) as exc:
                return type(exc)

        schedule, t_ms = [("ingest", 0, 500.0, 500.0)], 0
        for kind, dt_ms, x, y in events:
            t_ms += dt_ms
            schedule.append((kind, t_ms, x, y))
        plain = make_server()
        expected = [outcome(plain, *e) for e in schedule]
        for split in range(1, len(schedule) + 1):
            first = make_server()
            got = [outcome(first, *e) for e in schedule[:split]]
            resumed = make_server()
            resumed.restore_session(json.loads(json.dumps(first.snapshot("s1"))))
            got += [outcome(resumed, *e) for e in schedule[split:]]
            assert got == expected
            assert resumed.snapshot("s1") == plain.snapshot("s1")

    def test_version_checked(self):
        server = make_server()
        server.ingest(packet_from_truth(Point3(500, 500, 100), 1000))
        snap = server.snapshot("s1")
        snap["version"] = 99
        with pytest.raises(ValueError):
            server.restore_session(snap)


class TestPacketLines:
    def test_round_trip(self):
        pkt = packet_from_truth(Point3(520, 510, 100), 1234)
        assert packet_from_line(packet_to_line(pkt)) == pkt

    def test_unknown_fields_rejected(self):
        line = json.dumps(
            {"session_id": "x", "timestamp_ms": 1, "records": [], "bogus": 1}
        )
        with pytest.raises(ValueError):
            packet_from_line(line)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            DetectionRecord(70000, 0, 100.0)
        with pytest.raises(ValueError):
            DetectionRecord(0, 0, 0.0)
        with pytest.raises(ValueError):
            DetectionPacket("s", 1, ())

    @pytest.mark.parametrize("distance_mm", [math.nan, math.inf, -math.inf, 1e7, 1e155, 1e-3])
    def test_record_distance_outside_the_accepted_range(self, distance_mm):
        with pytest.raises(ValueError):
            DetectionRecord(0, 0, distance_mm)

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            '"packet"',
            '{"session_id": "s", "timestamp_ms": 1}',
            '{"session_id": "s", "timestamp_ms": "5", "records": []}',
            '{"session_id": 5, "timestamp_ms": 1, "records": []}',
            '{"session_id": "s", "timestamp_ms": true, "records": []}',
            '{"session_id": "s", "timestamp_ms": 1.0, "records": []}',
            '{"session_id": "s", "timestamp_ms": 1, "records": {}}',
            '{"session_id": "s", "timestamp_ms": 1, "records": [7]}',
            '{"session_id": "s", "timestamp_ms": 1, "records": [{"x_cm": 1, "y_cm": 2}]}',
            '{"session_id": "s", "timestamp_ms": 1,'
            ' "records": [{"x_cm": true, "y_cm": 2, "distance_mm": 2000.0}]}',
            '{"session_id": "s", "timestamp_ms": 1,'
            ' "records": [{"x_cm": 1.0, "y_cm": 2, "distance_mm": 2000.0}]}',
            '{"session_id": "s", "timestamp_ms": 1,'
            ' "records": [{"x_cm": 1, "y_cm": 2, "distance_mm": "2000"}]}',
            '{"session_id": "s", "timestamp_ms": 1,'
            ' "records": [{"x_cm": 1, "y_cm": 2, "distance_mm": false}]}',
            '{"session_id": "s", "timestamp_ms": 1,'
            ' "records": [{"x_cm": 1, "y_cm": 2, "distance_mm": NaN}]}',
            '{"session_id": "s", "timestamp_ms": 1,'
            ' "records": [{"x_cm": 1, "y_cm": 2, "distance_mm": Infinity}]}',
            '{"session_id": "s", "timestamp_ms": 1,'
            ' "records": [{"x_cm": 1, "y_cm": 2, "distance_mm": 1e200}]}',
        ],
    )
    def test_malformed_lines_raise_value_error(self, line):
        with pytest.raises(ValueError):
            packet_from_line(line)

    def test_integer_distance_parses(self):
        line = (
            '{"session_id":"s","timestamp_ms":1,'
            '"records":[{"x_cm":1,"y_cm":2,"distance_mm":2000}]}'
        )
        assert packet_from_line(line).records[0].distance_mm == 2000


# Every kind of JSON value, including the NaN and Infinity that Python's json
# module reads and writes.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Wire objects near the packet schema: every field present, each value either
# plausible or any JSON value, sometimes an unknown field beside them.
wire_records = st.fixed_dictionaries(
    {
        "x_cm": st.sampled_from([450, 600]) | json_values,
        "y_cm": st.sampled_from([450, 600]) | json_values,
        "distance_mm": st.floats(1500.0, 4000.0) | json_values,
    },
    optional={"bogus": json_values},
)
wire_packets = st.fixed_dictionaries(
    {
        "session_id": st.text(max_size=4) | json_values,
        "timestamp_ms": st.integers(0, 2**64) | json_values,
        "records": st.lists(wire_records | json_values, max_size=5) | json_values,
    },
    optional={"bogus": json_values},
)
# Packets with the schema's types, whose distances run from plausible ranges
# to the extremes of the float range.
distances = st.floats(1500.0, 4000.0) | st.floats() | st.integers(-(2**70), 2**70)
typed_records = st.fixed_dictionaries(
    {
        "x_cm": st.sampled_from([450, 600, 9]),
        "y_cm": st.sampled_from([450, 600, 9]),
        "distance_mm": distances,
    }
)
typed_packets = st.fixed_dictionaries(
    {
        "session_id": st.sampled_from(["a", "b"]),
        "timestamp_ms": st.integers(0, 20_000),
        "records": st.lists(typed_records, min_size=1, max_size=6),
    }
)


class TestWireRobustness:
    @settings(max_examples=300, deadline=None)
    @given(line=st.one_of(wire_packets.map(json.dumps), json_values.map(json.dumps), st.text()))
    def test_any_line_parses_or_raises_value_error(self, line):
        try:
            packet = packet_from_line(line)
        except ValueError:
            return
        assert isinstance(packet, DetectionPacket)
        assert all(isinstance(r, DetectionRecord) for r in packet.records)

    @settings(max_examples=200, deadline=None)
    @given(
        events=st.lists(
            st.tuples(typed_packets, st.none() | st.integers(0, 30_000)), min_size=1, max_size=8
        )
    )
    def test_any_parsed_packet_ingests_finitely_or_raises_a_typed_error(self, events):
        server = make_server()
        for obj, probe_ms in events:
            if probe_ms is not None:
                for session_id in list(server.sessions):
                    server.probe_tick(session_id, probe_ms)
            try:
                packet = packet_from_line(json.dumps(obj))
            except ValueError:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = server.ingest(packet)
                except (SolverError, StaleTimestamp, SessionClosed):
                    continue
            for point in (result.estimate.position, result.filtered, result.predicted):
                assert all(math.isfinite(v) for v in point.as_tuple())
