import json
import math

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
from occloc.solver import InsufficientAnchors

ROOM = RoomConfig(1219.0, 1219.0, 300.0)
ANCHORS = [(450, 450), (600, 450), (450, 600), (600, 600)]


def make_registry(anchors=ANCHORS):
    lums = [
        Luminaire(i + 1, Point3(x, y, 300.0), Circular(85.0), 20.0)
        for i, (x, y) in enumerate(anchors)
    ]
    return LedRegistry.from_luminaires(lums)


def packet_from_truth(truth: Point3, ts_ms: int, anchors=ANCHORS, session="s1"):
    records = tuple(
        DetectionRecord(x, y, 10.0 * distance(truth, Point3(x, y, 300.0)))
        for x, y in anchors
    )
    return DetectionPacket(session, ts_ms, records)


def make_server(**kw):
    return LightingServer(make_registry(), ROOM, **kw)


class TestRegistry:
    def test_lookup(self):
        reg = make_registry()
        assert reg.lookup(450, 450) == Point3(450, 450, 300)

    def test_unknown(self):
        with pytest.raises(UnknownLedId):
            make_registry().lookup(1, 2)

    def test_duplicate_ids_rejected(self):
        lums = [
            Luminaire(1, Point3(0, 0, 300), Circular(85.0), 20.0),
            Luminaire(1, Point3(150, 0, 300), Circular(85.0), 20.0),
        ]
        with pytest.raises(ValueError):
            LedRegistry(
                {(0, 0): (lums[0].anchor, 1), (150, 0): (lums[1].anchor, 1)}
            )

    def test_mixed_ceilings_rejected(self):
        with pytest.raises(ValueError):
            LedRegistry(
                {
                    (0, 0): (Point3(0, 0, 300), 1),
                    (150, 0): (Point3(150, 0, 250), 2),
                }
            )


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
        server = make_server(probe_interval_ms=2000, probe_limit=3)
        server.ingest(packet_from_truth(Point3(520, 510, 100), 1000))
        assert server.probe_tick("s1", 4000).phase is ProbePhase.PROBING
        assert server.probe_tick("s1", 7000).phase is ProbePhase.PROBING
        status = server.probe_tick("s1", 10000)
        assert status.phase is ProbePhase.CLOSED
        assert status.missed_probes == 3
        assert "s1" in server.archive

    def test_reply_resets_counter(self):
        server = make_server(probe_interval_ms=2000, probe_limit=3)
        server.ingest(packet_from_truth(Point3(520, 510, 100), 1000))
        server.probe_tick("s1", 4000)
        server.probe_tick("s1", 7000)
        assert server.sessions["s1"].missed_probes == 2
        server.ingest(packet_from_truth(Point3(521, 510, 100), 7500))
        assert server.sessions["s1"].missed_probes == 0
        assert server.probe_tick("s1", 8000).phase is ProbePhase.ACTIVE

    def test_closed_is_absorbing(self):
        server = make_server(probe_interval_ms=2000, probe_limit=2)
        server.ingest(packet_from_truth(Point3(520, 510, 100), 1000))
        server.probe_tick("s1", 4000)
        server.probe_tick("s1", 7000)
        assert server.probe_tick("s1", 100000).phase is ProbePhase.CLOSED
        with pytest.raises(SessionClosed):
            server.ingest(packet_from_truth(Point3(520, 510, 100), 200000))

    def test_rapid_ticks_count_once_per_interval(self):
        server = make_server(probe_interval_ms=2000, probe_limit=3)
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
        server = make_server(history_limit=256)
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
            server = make_server(probe_interval_ms=2000, probe_limit=3)
            server.ingest(packet_from_truth(Point3(520, 510, 100), 0))
            server.probe_tick("s1", 2500)
            if restore:
                snap = json.loads(json.dumps(server.snapshot("s1")))
                server = make_server(probe_interval_ms=2000, probe_limit=3)
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
        plain = make_server(probe_limit=3)
        expected = [outcome(plain, *e) for e in schedule]
        for split in range(1, len(schedule) + 1):
            first = make_server(probe_limit=3)
            got = [outcome(first, *e) for e in schedule[:split]]
            resumed = make_server(probe_limit=3)
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
