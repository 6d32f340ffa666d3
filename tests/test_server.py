import json
import math
import pickle
import re
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from occloc.geometry import Circular, Luminaire, Point3, RoomConfig, distance
from occloc import harness, server as server_module, solver
from occloc.server import (
    MAX_DISTANCE_MM,
    MIN_DISTANCE_MM,
    DegenerateCovariance,
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
)
from occloc import tracker
from occloc.solver import InsufficientAnchors, SolverError, estimate_position

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

    @pytest.mark.parametrize(
        "key", [(-10, 5), (70000, 5), (5, 65536), (True, 5), (5.0, 5), (5, "5"), (5,), (5, 5, 5), "ab"],
    )
    def test_a_key_no_record_can_carry_is_rejected(self, key):
        """A record's coordinates are two ints that fit 16 bits, so a fixture
        under any other key could never be matched."""
        with pytest.raises(ValueError, match="are not two 16-bit ints"):
            LedRegistry({(0, 0): Point3(0, 0, 300), key: Point3(5, 5, 300)})
        if type(key) is tuple and len(key) == 2 and all(type(v) is int for v in key):
            lums = [Luminaire(1, Point3(*key, 300.0), Circular(85.0))]
            with pytest.raises(ValueError, match="are not two 16-bit ints"):
                LedRegistry.from_luminaires(lums)

    @pytest.mark.parametrize("ceiling_cm, ok", [(300.0, True), (300.0 + 5e-7, True),
                                                (300.0 + 2e-6, False), (250.0, False)])
    def test_the_server_checks_the_registry_against_the_room(self, ceiling_cm, ok):
        """An anchor off the room's ceiling would fail every solve, so the
        server refuses it when it is built."""
        room = RoomConfig(1219.0, 1219.0, ceiling_cm)
        if ok:
            LightingServer(make_registry(), room).ingest(packet_from_truth(Point3(500, 500, 100), 0))
        else:
            with pytest.raises(ValueError, match="anchor height disagrees with the room ceiling"):
                LightingServer(make_registry(), room)

    TOL = solver.CEILING_TOLERANCE_CM

    @settings(max_examples=300, deadline=None)
    @given(
        ceiling=st.sampled_from([300.0, 3.0, 65536.0]) | st.floats(1e-3, 2.0**16),
        low=st.floats(-2 * TOL, 2 * TOL) | st.sampled_from([-TOL, TOL]),
        rises=st.lists(st.floats(0.0, TOL) | st.just(TOL), max_size=5),
    )
    def test_the_height_span_decides_as_every_anchor_would(self, ceiling, low, rises):
        """The server tests only the registry's lowest and highest anchor
        against the ceiling: it builds exactly when no anchor lies farther
        than CEILING_TOLERANCE_CM from it, anchor by anchor, in floats."""
        heights = [ceiling + low + rise for rise in (0.0, *rises)]
        try:
            registry = LedRegistry({(i, 0): Point3(i, 0, z) for i, z in enumerate(heights)})
        except ValueError:  # the rounded heights spread past the tolerance
            reject()
        room = RoomConfig(1219.0, 1219.0, ceiling)
        if any(abs(anchor.z - ceiling) > self.TOL for anchor in registry.anchors):
            with pytest.raises(ValueError, match="anchor height disagrees with the room ceiling"):
                LightingServer(registry, room)
        else:
            LightingServer(registry, room)


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
            DetectionPacket("s1", 1000, tuple(map(DetectionRecord, good.x_cm, good.y_cm,
                                                  good.distance_mm)) + (bad,))
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

    @pytest.mark.parametrize(
        "p, far_cm",
        [([999990000025.0, -999995000000.0, 1e12], 9e5), ([-1.7e308, 0.0, 1.7e308], 1e307)],
        ids=["rank-one", "indefinite"],
    )
    def test_a_look_ahead_outside_the_room_is_flagged(self, p, far_cm):
        """Each restored covariance gives the next packet a velocity gain that
        throws the look-ahead far out of the room, while its solve and filtered
        point stay inside. out_of_bounds once tested those two alone and
        answered False."""
        anchors = [(450, 450), (750, 450), (450, 750), (750, 750)]
        server = LightingServer(make_registry(anchors), RoomConfig(1200.0, 1200.0, 300.0))
        server.restore_session(_snapshot_with_state([590.0, 610.0, 0.0, 0.0], p))
        result = server.ingest(packet_from_truth(Point3(600, 600, 100), 2000, anchors))
        x_lo, x_hi, y_lo, y_hi, z_lo, z_hi = server._bounds
        for inside in (result.estimate.position, result.filtered):
            assert x_lo <= inside.x <= x_hi and y_lo <= inside.y <= y_hi
            assert z_lo <= inside.z <= z_hi
        assert max(abs(result.predicted.x), abs(result.predicted.y)) > far_cm
        assert result.out_of_bounds

    def test_replay_is_deterministic(self):
        lines = []
        for k in range(10):
            truth = Point3(480 + 5 * k, 500 + 3 * k, 100)
            lines.append(packet_to_line(packet_from_truth(truth, 1000 * (k + 1))))

        def replay(server):
            return [server.ingest(packet_from_line(line)) for line in lines]

        a = replay(make_server())
        b = replay(make_server())
        assert [r.filtered for r in a] == [r.filtered for r in b]
        assert [r.predicted for r in a] == [r.predicted for r in b]

    def test_a_gain_past_the_float_range_raises_a_typed_error(self):
        """With no measurement noise and a subnormal process noise, the second
        packet leaves a look-ahead innovation variance of 2e-323, whose
        reciprocal overflows: the third packet's gain was NaN and its ingest
        raised "non-finite point"."""
        config = tracker.KalmanConfig(2.0, process_noise_intensity=5e-324,
                                      measurement_noise_std_cm=0.0)
        server = LightingServer(make_registry(), ROOM, config)
        for ts_ms in (1000, 2000):
            server.ingest(packet_from_truth(Point3(520, 510, 100), ts_ms))
        before = server.snapshot("s1")
        with pytest.raises(DegenerateCovariance, match="variance of 2e-323, too near 0"):
            server.ingest(packet_from_truth(Point3(520, 510, 100), 3000))
        assert server.snapshot("s1") == before


class TestOnePredictionPerPacket:
    """A session keeps its last look-ahead and takes it as the next packet's
    prediction, so a warm ingest predicts once; restore_session computes a
    restored session's look-ahead, so its first ingest predicts once too."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        predict = tracker.predict

        def counting(state, config):
            calls.append(state)
            return predict(state, config)

        monkeypatch.setattr(tracker, "predict", counting)
        return calls

    def test_warm_ingest_predicts_once(self, monkeypatch):
        server = make_server()
        calls = self._counted(monkeypatch)
        server.ingest(packet_from_truth(Point3(500, 500, 100), 1000))
        assert len(calls) == 1  # the cold start only looks ahead
        for k in range(2, 6):
            calls.clear()
            server.ingest(packet_from_truth(Point3(500 + 5 * k, 500, 100), 1000 * k))
            assert len(calls) == 1

    def test_restored_session_predicts_afresh(self, monkeypatch):
        server = make_server()
        for k in range(1, 4):
            server.ingest(packet_from_truth(Point3(500 + 5 * k, 500, 100), 1000 * k))
        calls = self._counted(monkeypatch)
        restored = make_server()
        restored.restore_session(json.loads(json.dumps(server.snapshot("s1"))))
        assert len(calls) == 1
        calls.clear()
        a = server.ingest(packet_from_truth(Point3(520, 500, 100), 4000))
        assert len(calls) == 1
        calls.clear()
        b = restored.ingest(packet_from_truth(Point3(520, 500, 100), 4000))
        assert len(calls) == 1
        assert repr(a) == repr(b)

    def test_a_failed_packet_keeps_the_look_ahead(self, monkeypatch):
        server = make_server()
        server.ingest(packet_from_truth(Point3(500, 500, 100), 1000))
        calls = self._counted(monkeypatch)
        with pytest.raises(InsufficientAnchors):
            server.ingest(DetectionPacket("s1", 2000, (DetectionRecord(9, 9, 100.0),) * 3))
        server.ingest(packet_from_truth(Point3(505, 500, 100), 3000))
        assert len(calls) == 1


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

    @pytest.mark.parametrize("now_ms", [1e30, 2**64 + 5000, -1, 1.5, True])
    def test_a_clock_a_packet_cannot_carry_is_refused(self, now_ms):
        """probe_tick once answered PROBING at 1e30 and 2**64 + 5000 and kept
        either as last_probe_ms, a snapshot that restore_session refuses."""
        server = make_server()
        server.ingest(packet_from_truth(Point3(520, 510, 100), 1000))
        before = server.snapshot("s1")
        with pytest.raises(ValueError, match=re.escape(f"now_ms={now_ms!r} is not an integer")):
            server.probe_tick("s1", now_ms)
        assert server.snapshot("s1") == before
        assert server.archive == {}
        make_server().restore_session(json.loads(json.dumps(server.snapshot("s1"))))


class TestSnapshot:
    def test_round_trip_through_json(self):
        server = make_server()
        for k in range(5):
            server.ingest(packet_from_truth(Point3(480 + 5 * k, 500, 100), 1000 * (k + 1)))
        snap = server.snapshot("s1")
        # version 4: the mean, the 3 numbers of the per-axis covariance block
        # and the last height, all under tracker
        assert snap["version"] == 4 and len(snap["tracker"]["p"]) == 3
        assert snap["tracker"]["height_cm"] == server.sessions["s1"].prior.z
        restored_server = make_server()
        restored_server.restore_session(json.loads(json.dumps(snap)))
        assert restored_server.snapshot("s1") == snap
        assert restored_server.sessions["s1"].tracker_state == server.sessions["s1"].tracker_state
        # the restored session keeps filtering identically
        a = server.ingest(packet_from_truth(Point3(520, 500, 100), 9000))
        b = restored_server.ingest(packet_from_truth(Point3(520, 500, 100), 9000))
        assert a.filtered == b.filtered

    def test_version_4_format_is_pinned(self):
        server = make_server()
        for k, (x, y) in enumerate([(500, 500), (510, 505), (520, 510)]):
            server.ingest(packet_from_truth(Point3(x, y, 100), 1000 * (k + 1)))
        assert json.dumps(server.snapshot("s1")) == (
            '{"version": 4, "session_id": "s1", "closed": false, "last_seen_ms": 3000, '
            '"last_probe_ms": null, "missed_probes": 0, "tracker": '
            '{"x": [519.9875984731701, 509.9937992365851, 9.987639262245168, 4.993819631122583], '
            '"p": [20.859187873037158, 12.567159314916637, 13.858051382286206], '
            '"height_cm": 100.0}}'
        )

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
                # the whole answer: raw estimate, filtered, predicted, flags
                return repr(server.ingest(packet_from_truth(Point3(x, y, 100), t_ms)))
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

    @pytest.mark.parametrize("version", [99, 3, 2, 1])
    def test_version_checked(self, version):
        """Version 2 held the full 4x4 covariance, version 3 its per-axis block
        beside a history ring and the last position; version 4 holds the block
        and the last height alone."""
        server = make_server()
        server.ingest(packet_from_truth(Point3(500, 500, 100), 1000))
        snap = server.snapshot("s1")
        snap["version"] = version
        with pytest.raises(ValueError, match=f"unsupported snapshot version {version}"):
            server.restore_session(snap)


def _snapshot_with_state(x, p, height_cm=100.0):
    server = make_server()
    server.ingest(packet_from_truth(Point3(500, 500, 100), 1000))
    snap = json.loads(json.dumps(server.snapshot("s1")))
    snap["tracker"] = {"x": x, "p": p, "height_cm": height_cm}
    return snap


class TestRestoreTrackerState:
    """restore_session takes a filter state only as 4 finite numbers x, the 3
    finite numbers p = (p_pos, p_cross, p_vel) of the per-axis covariance
    block and one finite number height_cm, with a mean whose look-ahead
    position is finite; anything else raises ValueError naming the field, and
    no session is registered."""

    GOOD_X = [500.0, 500.0, 0.0, 0.0]
    GOOD_P = [25.0, 0.0, 1e4]

    @pytest.mark.parametrize(
        "x, p, field",
        [
            (GOOD_X, np.diag([25.0, 25.0, 1e4, 1e4]).tolist(), "tracker.p"),
            (GOOD_X[:3], GOOD_P, "tracker.x"),
            (GOOD_X + [0.0], GOOD_P, "tracker.x"),
            ([500.0, math.nan, 0.0, 0.0], GOOD_P, "tracker.x"),
            (["500", 500.0, 0.0, 0.0], GOOD_P, "tracker.x"),
            ([True, False, True, False], GOOD_P, "tracker.x"),
            (None, GOOD_P, "tracker.x"),
            (GOOD_X, [math.inf, 0.0, 1e4], "tracker.p"),
            (GOOD_X, GOOD_P[:2], "tracker.p"),
            (GOOD_X, GOOD_P + [0.0], "tracker.p"),
            (GOOD_X, [[25.0], [0.0], [1e4]], "tracker.p"),
            (GOOD_X, {"p_pos": 25.0}, "tracker.p"),
            (GOOD_X, None, "tracker.p"),
        ],
    )
    def test_bad_state_is_rejected(self, x, p, field):
        server = make_server()
        with pytest.raises(ValueError, match=field):
            server.restore_session(_snapshot_with_state(x, p))
        assert server.sessions == {}

    @pytest.mark.parametrize("x", [[1e308, 500.0, 1e308, 0.0], [500.0, -1e308, 0.0, -1e308]])
    def test_a_look_ahead_past_the_float_range_is_rejected(self, x):
        """Such a session was once restored, and then every ingest raised
        building the prior from its look-ahead."""
        server = make_server()
        with pytest.raises(ValueError, match="snapshot field tracker.x must be a state whose "
                                             "look-ahead position is finite"):
            server.restore_session(_snapshot_with_state(x, self.GOOD_P))
        assert server.sessions == {}

    def test_a_look_ahead_covariance_past_the_float_range_is_rejected(self):
        """Such a session was once restored, and then its look-ahead p_pos was
        inf, the gain NaN, and every ingest raised "non-finite point"."""
        server = make_server()
        with pytest.raises(ValueError, match="snapshot field tracker.p must be a covariance "
                                             "whose look-ahead is finite"):
            server.restore_session(_snapshot_with_state(self.GOOD_X, [1.7e308] * 3))
        assert server.sessions == {}

    @settings(max_examples=200, deadline=None)
    @given(p=st.lists(st.floats(0.0, sys.float_info.max), min_size=3, max_size=3))
    def test_a_restored_covariance_ingests_to_a_finite_answer(self, p):
        """A covariance block of entries up to the float maximum is rejected,
        or the session's next valid packet gives a finite answer."""
        server = make_server()
        try:
            server.restore_session(_snapshot_with_state(self.GOOD_X, p))
        except ValueError:
            assert server.sessions == {}
            return
        result = server.ingest(packet_from_truth(Point3(520, 480, 100), 4000))
        assert all(map(math.isfinite, (*result.filtered.as_tuple(),
                                       *result.predicted.as_tuple())))

    def test_a_look_ahead_with_no_innovation_variance_raises_a_typed_error(self):
        """Such a session restores, as any finite block whose look-ahead is
        finite does; its ingest raised an untyped ZeroDivisionError."""
        server = make_server()
        server.restore_session(_snapshot_with_state(self.GOOD_X, [-25.25, 0.0, 0.0]))
        ahead = server.sessions["s1"].ahead
        assert ahead.p_pos + server.kalman_config.r2 == 0.0
        before = server.snapshot("s1")
        with pytest.raises(DegenerateCovariance, match="s1 has a look-ahead innovation "
                                                       "variance of 0.0, too near 0"):
            server.ingest(packet_from_truth(Point3(520, 480, 100), 4000))
        assert server.snapshot("s1") == before

    def test_a_block_the_filter_leaves_indefinite_restores(self):
        """With measurement noise far below the state variance, the filter's
        own update writes blocks that are not positive semi-definite, here
        (0, 7.3e-12, 0) and then a negative p_vel with a look-ahead whose
        innovation variance is negative. Each written snapshot restores, and
        the copy answers the next packet as the original does."""
        config = tracker.KalmanConfig(10.0, process_noise_intensity=0.0,
                                      measurement_noise_std_cm=1e-6)
        server = LightingServer(make_registry(), ROOM, config)
        indefinite = 0
        for k in range(6):
            packet = packet_from_truth(Point3(500 + 7 * k, 480 - 3 * k, 100), 10_000 * (k + 1))
            if k:
                p_pos, p_cross, p_vel = server.snapshot("s1")["tracker"]["p"]
                indefinite += min(p_pos, p_vel) < 0 or p_cross**2 > p_pos * p_vel
                restored = LightingServer(make_registry(), ROOM, config)
                restored.restore_session(server.snapshot("s1"))
                assert repr(restored.ingest(packet)) == repr(server.ingest(packet))
            else:
                server.ingest(packet)
        assert indefinite >= 2

    @pytest.mark.parametrize(
        "height_cm",
        [math.nan, math.inf, -math.inf, True, False, "100", None, [100.0], 10**400, "missing"],
    )
    def test_bad_height_is_rejected(self, height_cm):
        snap = _snapshot_with_state(self.GOOD_X, self.GOOD_P, height_cm)
        message = "snapshot field tracker.height_cm "
        if height_cm == "missing":  # a filter state without the height its prior needs
            del snap["tracker"]["height_cm"]
            message = r"snapshot tracker fields: unknown \[\], missing \['height_cm'\]"
        server = make_server()
        with pytest.raises(ValueError, match=message):
            server.restore_session(snap)
        assert server.sessions == {}

    @settings(max_examples=100, deadline=None)
    @given(field=st.sampled_from(["x", "p"]), where=st.integers(0, 11), flag=st.booleans())
    def test_a_boolean_among_numbers_is_rejected(self, field, where, flag):
        """numpy read [True, 500.0, ...] as floats, so a boolean mixed with
        numbers once restored as 1.0 or 0.0."""
        x, p = list(self.GOOD_X), list(self.GOOD_P)
        if field == "x":
            x[where % 4] = flag
        else:
            p[where % 3] = flag
        server = make_server()
        with pytest.raises(ValueError, match=f"tracker.{field}"):
            server.restore_session(_snapshot_with_state(x, p))
        assert server.sessions == {}

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=6),
        p=st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=6),
        height_cm=st.floats(allow_nan=True, allow_infinity=True, width=64),
    )
    # random draws seldom give a valid state, so both branches get an example:
    # one valid state, and one whose look-ahead position overflows
    @example(x=GOOD_X, p=GOOD_P, height_cm=100.0)
    @example(x=[1e308, 500.0, 1e308, 0.0], p=GOOD_P, height_cm=100.0)
    def test_restore_accepts_exactly_the_valid_states(self, x, p, height_cm):
        """Any 3 finite numbers are a block the server restores, a slightly
        negative posterior p_vel included: no positive-definiteness check.
        The mean must keep its look-ahead position finite, and the block its
        look-ahead covariance."""
        server = make_server()
        valid = (len(x) == 4 and len(p) == 3
                 and all(math.isfinite(v) for v in x + p + [height_cm])
                 and all(map(math.isfinite, tuple(tracker.predict(
                     tracker.KalmanState(*x, *p), server.kalman_config)))))
        snap = _snapshot_with_state(x, p, height_cm)
        if valid:
            server.restore_session(snap)
            assert server.snapshot("s1") == snap
        else:
            with pytest.raises(ValueError, match="snapshot field tracker"):
                server.restore_session(snap)
            assert server.sessions == {}


def _valid_snapshot():
    server = make_server()
    server.ingest(packet_from_truth(Point3(500, 500, 100), 1000))
    server.probe_tick("s1", 4000)
    return json.loads(json.dumps(server.snapshot("s1")))


_ANY = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3) | st.lists(
    st.integers(), max_size=3) | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
# integers a packet timestamp cannot hold
_OUTSIDE_THE_CLOCK = st.integers(max_value=-1) | st.integers(min_value=2**64)
_BAD_FIELDS = {
    "session_id": _ANY.filter(lambda v: type(v) is not str),
    "last_seen_ms": _ANY.filter(lambda v: type(v) is not int) | _OUTSIDE_THE_CLOCK,
    "last_probe_ms": _ANY.filter(lambda v: v is not None and type(v) is not int)
    | _OUTSIDE_THE_CLOCK,
    "missed_probes": _ANY.filter(lambda v: type(v) is not int or v < 0),
    "closed": _ANY.filter(lambda v: type(v) is not bool),
}


class TestRestoreSessionFields:
    """restore_session checks every session field before it registers the
    session; a bad one raises ValueError naming it, where it used to pass and
    make the next ingest or probe_tick raise an untyped error."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(_BAD_FIELDS)))
    def test_bad_field_is_rejected(self, data, name):
        snap = _valid_snapshot()
        snap[name] = data.draw(_BAD_FIELDS[name], label=name)
        server = make_server()
        with pytest.raises(ValueError, match=f"snapshot field {name} "):
            server.restore_session(snap)
        assert server.sessions == {}

    # every key snapshot writes, the tracker's as tracker.<key>
    WRITTEN = ["version", "session_id", "closed", "last_seen_ms", "last_probe_ms",
               "missed_probes", "tracker", "tracker.x", "tracker.p", "tracker.height_cm"]

    def test_written_lists_every_key_snapshot_writes(self):
        snap = _valid_snapshot()
        assert self.WRITTEN == [*snap, *(f"tracker.{key}" for key in snap["tracker"])]

    @pytest.mark.parametrize("name", WRITTEN)
    def test_missing_field_is_named(self, name):
        snap = _valid_snapshot()
        where, prefix, key = snap, "snapshot", name
        if name.startswith("tracker."):
            where, prefix, key = snap["tracker"], "snapshot tracker", name[len("tracker."):]
        del where[key]
        message = rf"{prefix} fields: unknown \[\], missing \['{key}'\]"
        if name == "version":  # read before the other keys
            message = "unsupported snapshot version None"
        server = make_server()
        with pytest.raises(ValueError, match=message):
            server.restore_session(snap)
        assert server.sessions == {}

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        in_tracker=st.booleans(),
        key=st.sampled_from(["history", "last_position", "extra"]) | st.text(max_size=8),
    )
    def test_an_unknown_key_is_named(self, data, in_tracker, key):
        """A key that snapshot never writes, at the top level or inside
        tracker, is rejected by name, where it used to restore and vanish from
        the next snapshot."""
        snap = _valid_snapshot()
        where = snap["tracker"] if in_tracker else snap
        assume(key not in where)
        where[key] = data.draw(_ANY, label="value")
        server = make_server()
        prefix = "snapshot tracker" if in_tracker else "snapshot"
        with pytest.raises(ValueError, match=re.escape(f"{prefix} fields: unknown [{key!r}]")):
            server.restore_session(snap)
        assert server.sessions == {}

    def test_bad_fields_are_named_in_the_order_snapshot_writes_them(self):
        """The tracker's fields first, then the session's, closed before the
        clocks: one bad field is named at a time, and mending it names the
        next."""
        good = _valid_snapshot()
        snap = {**good, "session_id": 1, "closed": None, "last_seen_ms": -1,
                "last_probe_ms": -1, "missed_probes": -1,
                "tracker": {"x": None, "p": None, "height_cm": None}}
        named = []
        while True:
            try:
                make_server().restore_session(snap)
                break
            except ValueError as exc:
                name = str(exc).split()[2]
            named.append(name)
            where, mended = (snap["tracker"], good["tracker"]) if "." in name else (snap, good)
            key = name.rpartition(".")[2]
            where[key] = mended[key]
        assert named == ["tracker.x", "tracker.p", "tracker.height_cm", "session_id", "closed",
                         "last_seen_ms", "last_probe_ms", "missed_probes"]
        assert snap == good

    @pytest.mark.parametrize("value", [None, [], "tracker", 1])
    def test_tracker_must_be_an_object(self, value):
        """A session holds a filter state from its first packet, so a
        snapshot without one (tracker null) is rejected."""
        snap = {**_valid_snapshot(), "tracker": value}
        server = make_server()
        with pytest.raises(ValueError, match="snapshot tracker must be a JSON object"):
            server.restore_session(snap)
        assert server.sessions == {}

    @pytest.mark.parametrize("name", ["last_seen_ms", "last_probe_ms"])
    @pytest.mark.parametrize("value", [2**64, -1])
    def test_clocks_stay_within_the_packet_clock_range(self, name, value):
        """A last_seen_ms of 2**64 once restored: the session then found every
        packet stale and every probe active, so it could neither ingest nor
        close."""
        snap = {**_valid_snapshot(), name: value}
        server = make_server()
        with pytest.raises(ValueError, match=rf"snapshot field {name} must be an integer "
                                             r"in \[0, 2\*\*64\)"):
            server.restore_session(snap)
        assert server.sessions == {}

    def test_the_last_packet_time_is_accepted_as_a_clock(self):
        snap = {**_valid_snapshot(), "last_seen_ms": 2**64 - 1, "last_probe_ms": 2**64 - 1}
        server = make_server()
        server.restore_session(snap)
        assert server.snapshot("s1") == snap

    def test_a_non_object_is_rejected(self):
        with pytest.raises(ValueError, match="snapshot must be an object"):
            make_server().restore_session([("version", 4)])

    @settings(max_examples=100, deadline=None)
    @given(
        last_seen_ms=st.integers(0, 10**6),
        last_probe_ms=st.none() | st.integers(0, 10**6),
        missed_probes=st.integers(0, 5),
        closed=st.booleans(),
        height_cm=st.floats(-1e4, 1e4),
        t_ms=st.integers(0, 2 * 10**6),
    )
    def test_accepted_sessions_ingest_and_probe_with_typed_errors(
        self, last_seen_ms, last_probe_ms, missed_probes, closed, height_cm, t_ms
    ):
        snap = {**_valid_snapshot(), "last_seen_ms": last_seen_ms,
                "last_probe_ms": last_probe_ms, "missed_probes": missed_probes, "closed": closed}
        snap["tracker"]["height_cm"] = height_cm
        server = make_server()
        server.restore_session(snap)
        assert server.snapshot("s1") == snap
        server.probe_tick("s1", t_ms)
        try:
            result = server.ingest(packet_from_truth(Point3(520, 510, 100), t_ms))
        except (SessionClosed, StaleTimestamp):
            return
        assert math.isfinite(result.filtered.x) and math.isfinite(result.predicted.y)


_P, _Q = Point3(1.0, 2.0, 100.0), Point3(1.5, 2.5, 100.0)
_ESTIMATE = solver.PositionEstimate(_P, (Point3(1.0, 2.0, 500.0),), 0.25,
                                    solver.Method.LEAST_SQUARES)


@pytest.mark.parametrize(
    "cls, values",
    [
        (tracker.KalmanState, (500.0, 510.0, 1.0, -2.0, 25.0, 0.5, 1e4)),
        (solver.PositionEstimate, tuple(_ESTIMATE)),
        (server_module.IngestResult, (_ESTIMATE, _P, _Q, False, 1, True)),
        (server_module.ProbeStatus, (ProbePhase.PROBING, 2)),
        (harness.RunRecord, (3.0, _Q, 17, _P, _P, _Q, 0.5, 0.25, False, False)),
    ],
    ids=["KalmanState", "PositionEstimate", "IngestResult", "ProbeStatus", "RunRecord"],
)
def test_per_packet_results_are_immutable_values(cls, values):
    """The records built once or more per packet are NamedTuples: fields
    that cannot be assigned, equality and hashing by field, a dataclass-style
    repr, pickling, and no per-instance dict."""
    value = cls(*values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == cls(*values) and hash(value) == hash(cls(*values))
    assert value == values  # compared as the tuple of its fields
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={v!r}" for name, v in zip(cls._fields, values)) + ")"
    assert pickle.loads(pickle.dumps(value)) == value
    assert not hasattr(value, "__dict__")


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

    def test_record_is_a_frozen_value(self):
        rec = DetectionRecord(x_cm=450, y_cm=600, distance_mm=2000.0)
        assert rec == DetectionRecord(450, 600, 2000.0)
        assert hash(rec) == hash(DetectionRecord(450, 600, 2000.0))
        assert repr(rec) == "DetectionRecord(x_cm=450, y_cm=600, distance_mm=2000.0)"
        assert replace(rec, x_cm=300).x_cm == 300
        with pytest.raises(ValueError, match="y_cm=70000"):
            replace(rec, y_cm=70000)
        with pytest.raises(FrozenInstanceError):
            rec.distance_mm = 1.0

    def test_record_validation(self):
        with pytest.raises(ValueError):
            DetectionRecord(70000, 0, 100.0)
        with pytest.raises(ValueError):
            DetectionRecord(0, 0, 0.0)
        with pytest.raises(ValueError):
            DetectionPacket("s", 1, ())

    @pytest.mark.parametrize(
        "x_cm, y_cm, distance_mm, message",
        [
            (-1, 0, 100.0, "x_cm=-1 does not fit 16 bits"),
            (65536, 0, 100.0, "x_cm=65536 does not fit 16 bits"),
            (0, -1, 100.0, "y_cm=-1 does not fit 16 bits"),
            (0, 65536, 100.0, "y_cm=65536 does not fit 16 bits"),
            (70000, -5, 100.0, "x_cm=70000 does not fit 16 bits"),
            (math.nan, 0, 100.0, "x_cm=nan does not fit 16 bits"),
            (0, math.inf, 100.0, "y_cm=inf does not fit 16 bits"),
            (65535, 65535, 0.0, "distance_mm=0.0 outside (0.001, 10000000.0)"),
            (0, 0, math.nan, "distance_mm=nan outside (0.001, 10000000.0)"),
            (-1, 0, 0.0, "x_cm=-1 does not fit 16 bits"),
            (1, 2, True, "distance_mm must be a number, not a boolean"),
            (1, 2, False, "distance_mm=False outside (0.001, 10000000.0)"),
            (True, False, 100.0, "x_cm=True does not fit 16 bits"),
            (0, False, 100.0, "y_cm=False does not fit 16 bits"),
            (1.5, 2, 250.0, "x_cm=1.5 does not fit 16 bits"),
            (1, 2.0, 250.0, "y_cm=2.0 does not fit 16 bits"),
            ("1", 2, 250.0, "x_cm='1' does not fit 16 bits"),
            (1, 2, "250", "distance_mm='250' is not a number"),
            (1, 2, None, "distance_mm=None is not a number"),
        ],
    )
    def test_each_bad_field_names_itself(self, x_cm, y_cm, distance_mm, message):
        with pytest.raises(ValueError) as info:
            DetectionRecord(x_cm, y_cm, distance_mm)
        assert str(info.value) == message

    def test_a_numpy_float_distance_is_a_number(self):
        assert DetectionRecord(1, 2, np.float64(250.0)).distance_mm == 250.0
        with pytest.raises(ValueError, match="x_cm=np.int64"):
            DetectionRecord(np.int64(1), 2, 250.0)

    @pytest.mark.parametrize(
        "session_id, timestamp_ms, message",
        [
            (5, 1, "session_id=5 is not a string"),
            (None, 1, "session_id=None is not a string"),
            ("s", True, "timestamp_ms=True does not fit 64 bits"),
            ("s", 1.0, "timestamp_ms=1.0 does not fit 64 bits"),
            ("s", "5", "timestamp_ms='5' does not fit 64 bits"),
            ("s", -1, "timestamp_ms=-1 does not fit 64 bits"),
            ("s", 2**64, f"timestamp_ms={2**64} does not fit 64 bits"),
        ],
    )
    def test_each_bad_packet_field_names_itself(self, session_id, timestamp_ms, message):
        with pytest.raises(ValueError) as info:
            DetectionPacket(session_id, timestamp_ms, (DetectionRecord(1, 2, 250.0),))
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None)
    @given(x=st.integers(-3, 2**16 + 3), y=st.integers(-3, 2**16 + 3))
    def test_coordinates_fit_16_bits_exactly(self, x, y):
        if 0 <= x < 2**16 and 0 <= y < 2**16:
            assert DetectionRecord(x, y, 100.0).x_cm == x
        else:
            name, v = ("x_cm", x) if not 0 <= x < 2**16 else ("y_cm", y)
            with pytest.raises(ValueError) as info:
                DetectionRecord(x, y, 100.0)
            assert str(info.value) == f"{name}={v} does not fit 16 bits"

    @pytest.mark.parametrize(
        "distance_mm", [math.nan, math.inf, -math.inf, 1e7, 1e155, 1e-3, True, False]
    )
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

    @pytest.mark.parametrize("line", ["[" * 100_000, '{"a":' * 100_000],
                             ids=["arrays", "objects"])
    def test_nesting_past_the_recursion_limit_raises_value_error(self, line):
        """The JSON parser raises RecursionError here, which is no ValueError."""
        with pytest.raises(ValueError, match="nests too deeply"):
            packet_from_line(line)

    def test_integer_distance_parses(self):
        line = (
            '{"session_id":"s","timestamp_ms":1,'
            '"records":[{"x_cm":1,"y_cm":2,"distance_mm":2000}]}'
        )
        assert packet_from_line(line).distance_mm[0] == 2000


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
# Records with the schema's types, whose coordinates may name no fixture and
# whose distances run from plausible ranges to the extremes of the float range.
distances = st.floats(1500.0, 4000.0) | st.floats() | st.integers(-(2**70), 2**70)
typed_records = st.fixed_dictionaries(
    {
        "x_cm": st.sampled_from([450, 600, 9]),
        "y_cm": st.sampled_from([450, 600, 9]),
        "distance_mm": distances,
    }
)


@st.composite
def _typed_packet(draw):
    """A packet with the schema's types. Three in four range 3 or 4
    registered fixtures from a drawn truth, each distance within 5 cm of the
    true one (as packet_from_truth ranges them), so that the filter updates
    the sessions it holds; a quarter of those carry typed records beside
    them. The rest hold typed records alone."""
    if draw(st.integers(0, 3)):
        truth = Point3(draw(st.floats(0.0, 1219.0)), draw(st.floats(0.0, 1219.0)),
                       draw(st.floats(0.0, 290.0)))
        seen = draw(st.permutations(ANCHORS))[:draw(st.integers(3, 4))]
        records = [{"x_cm": x, "y_cm": y,
                    "distance_mm": 10.0 * distance(truth, Point3(x, y, 300.0))
                    + draw(st.floats(-50.0, 50.0))} for x, y in seen]
        if not draw(st.integers(0, 3)):
            records += draw(st.lists(typed_records, min_size=1, max_size=2))
    else:
        records = draw(st.lists(typed_records, min_size=1, max_size=6))
    return {"session_id": draw(st.sampled_from(["a", "b"])),
            "timestamp_ms": draw(st.integers(0, 20_000)), "records": records}


typed_packets = _typed_packet()


class TestWireRobustness:
    @settings(max_examples=300, deadline=None)
    @given(line=st.one_of(wire_packets.map(json.dumps), json_values.map(json.dumps), st.text()))
    def test_any_line_parses_or_raises_value_error(self, line):
        try:
            packet = packet_from_line(line)
        except ValueError:
            return
        assert isinstance(packet, DetectionPacket)
        assert all(isinstance(r, DetectionRecord)
                   for r in map(DetectionRecord, packet.x_cm, packet.y_cm, packet.distance_mm))

    @settings(max_examples=200, deadline=None)
    @given(
        events=st.lists(
            st.tuples(typed_packets, st.integers(0, 4_000), st.booleans()),
            min_size=1, max_size=8,
        )
    )
    def test_any_parsed_packet_ingests_finitely_or_raises_a_typed_error(self, events):
        """Each packet comes gap_ms after the last (a gap of 0 is stale), in
        place of its drawn time, and a probe sweep of every session may come
        at the same time, before it."""
        server = make_server()
        now_ms = 0
        for obj, gap_ms, sweep in events:
            now_ms += gap_ms
            if sweep:
                for session_id in list(server.sessions):
                    server.probe_tick(session_id, now_ms)
            try:
                packet = packet_from_line(json.dumps({**obj, "timestamp_ms": now_ms}))
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


class TestWrittenSnapshotsRestore:
    @settings(max_examples=200, deadline=None)
    @given(
        dt=st.floats(1e-3, 10.0),
        q=st.floats(0.0, 1e4),
        std=st.just(0.0) | st.floats(1e-12, 1e-3) | st.floats(1e-3, 100.0),
        events=st.lists(
            st.tuples(st.sampled_from(["a", "b"]), st.floats(0.0, 1219.0),
                      st.floats(0.0, 1219.0), st.integers(0, 5_000),
                      st.none() | st.integers(0, 10_000)),
            min_size=1, max_size=12,
        ),
    )
    def test_every_written_snapshot_restores_and_its_next_packet_answers(self, dt, q, std,
                                                                         events):
        """Before each packet of a walk, the packet's session as the server
        last wrote it restores on a fresh server, and that copy's answer to
        the packet is finite or a typed error, as the original's is. The
        measurement noise reaches 0 and the values below 1e-3 cm where the
        filter's own blocks are not positive semi-definite."""
        try:
            config = tracker.KalmanConfig(dt, process_noise_intensity=q,
                                          measurement_noise_std_cm=std)
        except ValueError:  # no noise at all, or noise that underflows to none
            reject()
        server = LightingServer(make_registry(), ROOM, config)

        def answer(target, packet):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = target.ingest(packet)
                except (SolverError, StaleTimestamp, SessionClosed) as exc:
                    return type(exc)
            for point in (result.estimate.position, result.filtered, result.predicted):
                assert all(math.isfinite(v) for v in point.as_tuple())
            return repr(result)

        now_ms = 0
        for session_id, x, y, gap_ms, probe_after_ms in events:
            now_ms += gap_ms
            packet = packet_from_truth(Point3(x, y, 100.0), now_ms, session=session_id)
            if session_id in server.sessions:
                restored = LightingServer(make_registry(), ROOM, config)
                restored.restore_session(json.loads(json.dumps(server.snapshot(session_id))))
                assert answer(restored, packet) == answer(server, packet)
            else:
                answer(server, packet)
            if probe_after_ms is not None:
                for open_id in list(server.sessions):
                    server.probe_tick(open_id, now_ms + probe_after_ms)


class TestPacketRecords:
    @pytest.mark.parametrize(
        "records, message",
        [
            ([DetectionRecord(1, 2, 250.0)], "records must be a tuple, not list"),
            ("abc", "records must be a tuple, not str"),
            (None, "records must be a tuple, not NoneType"),
            (((0, 0, 2000.0),), "every record must be a DetectionRecord"),
            ((None,), "every record must be a DetectionRecord"),
            ((DetectionRecord(1, 2, 250.0), "abc"), "every record must be a DetectionRecord"),
        ],
        ids=["list", "string", "none", "plain-tuple", "none-record", "mixed"],
    )
    def test_records_must_be_a_tuple_of_records(self, records, message):
        with pytest.raises(ValueError) as info:
            DetectionPacket("a", 1, records)
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None)
    @given(
        items=st.lists(
            json_values | st.tuples(st.integers(), st.integers(), st.floats())
            | st.builds(dict, x_cm=st.integers(), y_cm=st.integers(), distance_mm=st.floats()),
            min_size=1, max_size=4,
        ),
        at=st.integers(0, 4),
    )
    def test_any_item_but_a_record_is_rejected(self, items, at):
        """A stand-in record, even one with the right fields, would reach the
        solve unchecked, so the packet refuses it wherever it stands."""
        records = [DetectionRecord(450, 450, 2000.0)] * 2
        records[min(at, 2):min(at, 2)] = items
        with pytest.raises(ValueError, match="every record must be a DetectionRecord"):
            DetectionPacket("a", 1, tuple(records))


# --- packets as columns -----------------------------------------------------


def _record_parser_fields(obj, fields, what):
    if type(obj) is not dict:
        raise ValueError(f"{what} must be a JSON object")
    if obj.keys() != fields:
        raise ValueError(
            f"{what} fields: unknown {sorted(obj.keys() - fields)}, "
            f"missing {sorted(fields - obj.keys())}"
        )


def _record_parser(line):
    """The wire parser as it was while a packet held DetectionRecords: every
    record is checked whole, in turn, then the packet."""
    try:
        obj = json.loads(line)
    except RecursionError:
        raise ValueError("packet nests too deeply to parse") from None
    _record_parser_fields(obj, {"session_id", "timestamp_ms", "records"}, "packet")
    if type(obj["records"]) is not list:
        raise ValueError("records must be a list")
    records = []
    for rec in obj["records"]:
        _record_parser_fields(rec, {"x_cm", "y_cm", "distance_mm"}, "record")
        records.append(DetectionRecord(rec["x_cm"], rec["y_cm"], rec["distance_mm"]))
    return DetectionPacket(obj["session_id"], obj["timestamp_ms"], tuple(records))


def _record_writer(packet):
    """The wire writer as it was: one object per DetectionRecord."""
    return json.dumps(
        {
            "session_id": packet.session_id,
            "timestamp_ms": packet.timestamp_ms,
            "records": [
                {"x_cm": r.x_cm, "y_cm": r.y_cm, "distance_mm": r.distance_mm}
                for r in map(DetectionRecord, packet.x_cm, packet.y_cm, packet.distance_mm)
            ],
        },
        separators=(",", ":"),
    )


def _outcome(fn, *args):
    """What fn(*args) gives a caller: the packet's fields, with the type of
    every value, or the ValueError's message."""
    try:
        packet = fn(*args)
    except ValueError as exc:
        return ("raises", type(exc), str(exc))
    return ("packet", repr((packet.session_id, packet.timestamp_ms,
                            list(zip(packet.x_cm, packet.y_cm, packet.distance_mm)))))


_good_coordinates = st.integers(0, 2**16 - 1)
_good_distances = (
    st.floats(MIN_DISTANCE_MM, MAX_DISTANCE_MM, exclude_min=True, exclude_max=True)
    | st.integers(1, 10**7 - 1)
    | st.floats(1500.0, 4000.0).map(np.float64)
)
# values a column may hold that no record takes, and some that one does
_any_column_value = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1, 2**16, MIN_DISTANCE_MM,
                     MAX_DISTANCE_MM, 0.0, -0.0, True, False, None, "1", 1.5, 2**70]),
    st.floats(), st.integers(-(2**70), 2**70),
    st.floats().map(np.float64), st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _good_coordinates, _good_distances,
)


@st.composite
def _columns(draw):
    """Three columns of valid records with up to three values replaced by
    any column value, at any position; sometimes a column is one longer or
    shorter than the others."""
    n = draw(st.integers(0, 7))
    cols = [draw(st.lists(_good_coordinates, min_size=n, max_size=n)),
            draw(st.lists(_good_coordinates, min_size=n, max_size=n)),
            draw(st.lists(_good_distances, min_size=n, max_size=n))]
    if n:
        for _ in range(draw(st.integers(0, 3))):
            col = draw(st.integers(0, 2))
            cols[col][draw(st.integers(0, n - 1))] = draw(_any_column_value)
    if draw(st.integers(0, 9)) == 0:
        col = cols[draw(st.integers(0, 2))]
        if col and draw(st.booleans()):
            col.pop()
        else:
            col.append(draw(_any_column_value))
    return tuple(map(tuple, cols))


def _plain(value):
    """A column value as the JSON encoder takes it: numpy scalars as Python ones."""
    return value.item() if isinstance(value, np.generic) else value


class TestPacketColumns:
    def test_columns_are_the_records_fields(self):
        packet = DetectionPacket("s", 5, (DetectionRecord(1, 2, 250.0),
                                          DetectionRecord(3, 4, 300)))
        assert (packet.x_cm, packet.y_cm, packet.distance_mm) == ((1, 3), (2, 4), (250.0, 300))
        assert tuple(map(DetectionRecord, packet.x_cm, packet.y_cm, packet.distance_mm)) == (
            DetectionRecord(1, 2, 250.0), DetectionRecord(3, 4, 300))
        assert packet == DetectionPacket.from_columns("s", 5, (1, 3), (2, 4), (250.0, 300))
        assert repr(packet) == ("DetectionPacket(session_id='s', timestamp_ms=5, x_cm=(1, 3), "
                                "y_cm=(2, 4), distance_mm=(250.0, 300))")
        with pytest.raises(FrozenInstanceError):
            packet.x_cm = (5, 6)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([1], (2,), (250.0,)), "the columns must be tuples"),
            (((1,), (2,), 250.0), "the columns must be tuples"),
            (((1, 3), (2,), (250.0,)),
             "the columns differ in length: 2 x_cm, 1 y_cm, 1 distance_mm"),
        ],
        ids=["list", "number", "unequal"],
    )
    def test_columns_must_be_equal_length_tuples(self, columns, message):
        with pytest.raises(ValueError) as info:
            DetectionPacket.from_columns("s", 5, *columns)
        assert str(info.value) == message

    @settings(max_examples=500, deadline=None)
    @given(
        columns=_columns(),
        session_id=st.sampled_from(["s", ""]) | st.sampled_from([5, None]),
        timestamp_ms=st.integers(0, 2**64 - 1) | st.sampled_from([-1, 2**64, True, 1.0]),
    )
    def test_from_columns_equals_the_packet_of_records(self, columns, session_id, timestamp_ms):
        """The packet, or the message, that the records built from the same
        columns give, with NaN, infinities, booleans, numpy scalars and
        out-of-range values anywhere in a column."""
        if len(set(map(len, columns))) > 1:
            with pytest.raises(ValueError, match="^the columns differ in length"):
                DetectionPacket.from_columns(session_id, timestamp_ms, *columns)
            return
        want = _outcome(lambda: DetectionPacket(session_id, timestamp_ms,
                                                tuple(map(DetectionRecord, *columns))))
        assert _outcome(DetectionPacket.from_columns, session_id, timestamp_ms,
                        *columns) == want
        if want[0] == "packet":
            packet = DetectionPacket.from_columns(session_id, timestamp_ms, *columns)
            reference = DetectionPacket(session_id, timestamp_ms,
                                        tuple(map(DetectionRecord, *columns)))
            assert packet == reference and hash(packet) == hash(reference)

    @settings(max_examples=500, deadline=None)
    @given(line=st.one_of(
        wire_packets.map(json.dumps), json_values.map(json.dumps), st.text(),
        typed_packets.map(json.dumps),
        st.builds(lambda sid, ts, cols: json.dumps({
            "session_id": sid, "timestamp_ms": ts,
            "records": [{"x_cm": x, "y_cm": y, "distance_mm": d}
                        for x, y, d in zip(*(map(_plain, col) for col in cols))],
        }), st.sampled_from(["s", 5]), st.sampled_from([1, -1, True]), _columns()),
    ))
    def test_the_wire_parser_gives_the_record_parsers_packet_or_message(self, line):
        """Lines with several faults report the first in the record parser's
        order: each record whole, in turn, then the session id, the time and
        that there is a record."""
        assert _outcome(packet_from_line, line) == _outcome(_record_parser, line)

    @settings(max_examples=300, deadline=None)
    @given(
        session_id=st.text(max_size=4),
        timestamp_ms=st.integers(0, 2**64 - 1),
        records=st.lists(st.builds(DetectionRecord, _good_coordinates, _good_coordinates,
                                   _good_distances), min_size=1, max_size=6),
    )
    def test_the_wire_form_round_trips_in_the_record_writers_bytes(
            self, session_id, timestamp_ms, records):
        packet = DetectionPacket(session_id, timestamp_ms, tuple(records))
        line = packet_to_line(packet)
        assert line == _record_writer(packet)
        assert packet_from_line(line) == packet


class TestNoRecordOnTheHotPath:
    """The timed paths carry columns: neither the filter comparison nor the
    wire parser builds a DetectionRecord."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        init = DetectionRecord.__init__

        def counting(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(DetectionRecord, "__init__", counting)
        DetectionRecord(1, 2, 250.0)  # the count sees every record built
        assert len(calls) == 1
        calls.clear()
        return calls

    def test_the_filter_comparison_builds_no_record(self, built):
        points = harness.run_filter_comparison(harness.default_filtercmp_scenario(), 3)
        assert points and built == []

    def test_the_wire_parser_builds_no_record(self, built):
        line = json.dumps({
            "session_id": "s", "timestamp_ms": 1000,
            "records": [{"x_cm": 75 + 150 * i, "y_cm": 450, "distance_mm": 2000.0 + i}
                        for i in range(6)],
        })
        assert len(packet_from_line(line).x_cm) == 6
        assert built == []


class TestNothingRebuiltOnTheHotPath:
    """A warm ingest builds only the points its result returns and reuses the
    last look-ahead point as its prior, and a member run on a warm walk
    builds no Scenario."""

    @staticmethod
    def _counting(monkeypatch, cls, name):
        """The calls of cls.name from now on, each as its arguments."""
        calls = []
        method = getattr(cls, name)

        def counting(self, *args):
            calls.append(args)
            method(self, *args)

        monkeypatch.setattr(cls, name, counting)
        return calls

    def test_a_warm_ingest_builds_at_most_four_points(self, monkeypatch):
        server = make_server()
        server.ingest(packet_from_truth(Point3(500, 500, 100), 1000))
        packet = packet_from_truth(Point3(510, 505, 100), 2000)
        built = self._counting(monkeypatch, Point3, "__init__")
        Point3(0.0, 0.0, 0.0)  # the count sees every point built
        assert len(built) == 1
        built.clear()
        result = server.ingest(packet)
        # the mirror pair, filtered and predicted
        assert len(result.estimate.candidates) == 1
        assert len(built) <= 4

    def test_the_prior_is_the_last_predicted_point(self):
        server = make_server()
        for k, x in enumerate([500, 510, 520]):
            result = server.ingest(packet_from_truth(Point3(x, 505, 100), 1000 * (k + 1)))
            session = server.sessions["s1"]
            assert session.prior is result.predicted
            assert session.prior == Point3(session.ahead.x, session.ahead.y,
                                           result.estimate.position.z)

    def test_a_restored_prior_is_the_look_ahead_at_the_saved_height(self):
        snap = {**_valid_snapshot()}
        snap["tracker"] = {"x": [500.0, 480.0, 12.5, -3.0], "p": [25.0, 1.0, 100.0],
                           "height_cm": 97.5}
        server = make_server()
        server.restore_session(snap)
        session = server.sessions["s1"]
        assert session.ahead == tracker.predict(session.tracker_state, server.kalman_config)
        assert session.prior == Point3(session.ahead.x, session.ahead.y, 97.5)
        assert session.prior.x != 500.0 and session.prior.y != 480.0

    def test_a_member_on_a_warm_walk_checks_no_scenario(self, monkeypatch):
        s = harness.default_filtercmp_scenario()
        member = replace(s, seed=11)
        harness.run_tracking(s)  # the walk is warm now
        checked = self._counting(monkeypatch, harness.Scenario, "__post_init__")
        replace(s, seed=12)  # the count sees every scenario built
        assert len(checked) == 1
        checked.clear()
        assert harness.run_tracking(member)
        assert checked == []

    def test_a_warm_filter_comparison_checks_no_scenario(self, monkeypatch):
        """Each member is its scenario with only the seed replaced, so no
        member runs Scenario's checks again."""
        s = harness.default_filtercmp_scenario()
        harness.run_tracking(s)  # the walk is warm now
        checked = self._counting(monkeypatch, harness.Scenario, "__post_init__")
        replace(s, seed=12)  # the count sees every scenario built
        assert len(checked) == 1
        checked.clear()
        assert harness.run_filter_comparison(s, 5)
        assert checked == []

    def test_a_member_without_pixel_noise_draws_its_noise_once(self, monkeypatch):
        s = harness.default_filtercmp_scenario()
        assert s.pixel_sigma == 0
        expected = harness.run_filter_comparison(s, 5)
        default_rng, made = np.random.default_rng, []

        class Counting:
            """A generator that counts its normal() calls."""

            def __init__(self, seed):
                self.rng, self.normals = default_rng(seed), 0
                made.append(self)

            def normal(self, *args, **kwargs):
                self.normals += 1
                return self.rng.normal(*args, **kwargs)

        monkeypatch.setattr(harness.np.random, "default_rng", Counting)
        assert harness.run_filter_comparison(s, 5) == expected
        assert [rng.normals for rng in made] == [1] * 5


class TestPriorDecidedPackets:
    """Packets whose solve the motion prior decides, which neither benchmark
    workload sends: ingest gives the library solve with the last result's
    predicted point as its prior."""

    @staticmethod
    def _packet(truth, ts_ms, anchors_xy):
        return DetectionPacket.from_columns(
            "s1", ts_ms, tuple(x for x, _ in anchors_xy), tuple(y for _, y in anchors_xy),
            tuple(10.0 * distance(truth, Point3(x, y, 300.0)) for x, y in anchors_xy),
        )

    @staticmethod
    def _library(server, packet, prior):
        anchors = tuple(server.registry.lookup(x, y) for x, y in zip(packet.x_cm, packet.y_cm))
        dists = [d / 10.0 for d in packet.distance_mm]
        return estimate_position(anchors, dists, server.room, prior)

    def test_a_collinear_second_packet(self):
        """The prior's height slices the collinear family's circle, and its
        position picks one of the two points there."""
        server = LightingServer(make_registry(ANCHORS + [(750, 450)]), ROOM)
        first = server.ingest(self._packet(Point3(520, 510, 100), 1000, ANCHORS))
        packet = self._packet(Point3(525, 515, 100), 2000, [(450, 450), (600, 450), (750, 450)])
        result = server.ingest(packet)
        assert result.estimate.method is solver.Method.COLLINEAR_FAMILY
        assert repr(result.estimate) == repr(self._library(server, packet, first.predicted))
        # without the prior the lowest point of the circle is taken
        assert result.estimate.position != self._library(server, packet, None).position

    def test_two_mirror_roots_inside_the_room(self):
        """A phone within a micron of the ceiling, with the room's ceiling
        half a micron above the fixtures: both mirror roots lie in the room,
        so resolve_ambiguity takes the one nearer the prior."""
        room = RoomConfig(1219.0, 1219.0, 300.0 + 5e-7)
        anchors_xy = [(450, 450), (451, 450), (450, 451), (451, 451)]
        server = LightingServer(make_registry(anchors_xy), room)
        first = server.ingest(self._packet(Point3(450.4, 450.6, 300.0 - 4e-7), 1000, anchors_xy))
        packet = self._packet(Point3(450.5, 450.5, 300.0 - 4e-7), 2000, anchors_xy)
        result = server.ingest(packet)
        (other,) = result.estimate.candidates
        assert result.estimate.position.z < 300.0 < other.z <= room.ceiling_height_cm
        assert repr(result.estimate) == repr(self._library(server, packet, first.predicted))
        # a prior above the fixtures would take the upper root
        above = Point3(first.predicted.x, first.predicted.y, room.ceiling_height_cm)
        assert self._library(server, packet, above).position == other


def _prefixes(order, most):
    return st.integers(0, most).map(lambda n: order[:n])


# Indices into a 5 x 5 grid, index 5 i + j at (75 + 150 i, 75 + 150 j): a
# random subset in random order, or part of one grid line, which is collinear.
_fixture_subsets = st.permutations(range(25)).flatmap(lambda order: _prefixes(order, 8)) | (
    st.integers(0, 4).flatmap(
        lambda i: st.permutations(range(5 * i, 5 * i + 5)).flatmap(lambda o: _prefixes(o, 5))
    )
)


class TestIndexResolve:
    """ingest resolves records to fixture indices and solves from the
    registry's plan, with the record-bounded distances unchecked; the result
    is the library path's, estimate_position over the same anchors, floats
    and prior."""

    def test_record_bounds_lie_inside_the_solver_bounds(self):
        assert 0 < MIN_DISTANCE_MM / 10
        assert MAX_DISTANCE_MM / 10 < solver.MAX_DISTANCE_CM

    @pytest.mark.parametrize("kind", [int, float, np.float64])
    def test_each_distance_type_gives_the_library_result(self, kind):
        anchors_xy = ANCHORS + [(750, 450)]
        truths = [Point3(500, 520, 100), Point3(512, 530, 101), Point3(520, 545, 99)]
        packets = [
            DetectionPacket("s1", 1000 * t, tuple(
                DetectionRecord(x, y, kind(round(10.0 * distance(truth, Point3(x, y, 300.0)))))
                for x, y in anchors_xy
            ))
            for t, truth in enumerate(truths)
        ]
        server = LightingServer(make_registry(anchors_xy), ROOM)
        reference = LightingServer(make_registry(anchors_xy), ROOM)
        for packet in packets:
            assert repr(server.ingest(packet)) == repr(_library_ingest(reference, packet))
            indices, dists = server.registry.resolve(packet.x_cm, packet.y_cm, packet.distance_mm)
            assert indices == tuple(range(len(anchors_xy)))
            assert {type(d) for d in dists} == {float}

    @settings(max_examples=300, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                _fixture_subsets,
                st.lists(st.tuples(st.integers(0, 8),
                                   st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))),
                         max_size=3),
                st.tuples(st.floats(0, 1200), st.floats(0, 1200), st.floats(0, 290)),
                st.lists(st.floats(-50.0, 50.0), min_size=11, max_size=11),
                st.sampled_from([int, float, np.float64]),
            ),
            min_size=1, max_size=5,
        )
    )
    def test_ingest_equals_the_library_solve(self, events):
        """Random fixture subsets in random order from a 5 x 5 grid, with
        unregistered records among them, distances of each type, and the
        prior of the session so far."""
        grid = [(75 + 150 * i, 75 + 150 * j) for i in range(5) for j in range(5)]
        registry = make_registry(grid)
        server = LightingServer(registry, ROOM)
        for t, (chosen, strays, truth_xyz, noise, kind) in enumerate(events):
            truth = Point3(*truth_xyz)
            keys = [grid[i] for i in chosen]
            for at, xy in strays:
                keys.insert(at, xy)
            records = tuple(
                DetectionRecord(*xy, kind(max(1, round(
                    10.0 * (distance(truth, Point3(*xy, 300.0)) + e)))))
                for xy, e in zip(keys, noise)
            )
            if not records:
                continue
            packet = DetectionPacket("s", 1000 * t, records)
            session = server.sessions.get("s")
            prior = None if session is None else Point3(session.ahead.x, session.ahead.y,
                                                        session.prior.z)
            known = [r for r in records if (r.x_cm, r.y_cm) in grid]
            try:
                want = repr(estimate_position(
                    tuple(registry.lookup(r.x_cm, r.y_cm) for r in known),
                    [float(r.distance_mm) / 10.0 for r in known], ROOM, prior,
                ))
            except ValueError as exc:  # SolverError is a ValueError
                with pytest.raises(type(exc)):
                    server.ingest(packet)
                continue
            result = server.ingest(packet)
            assert repr(result.estimate) == want
            assert result.dropped_records == len(records) - len(known)


def _library_ingest(server: LightingServer, packet: DetectionPacket):
    """ingest with its solve replaced by the call it made before it resolved
    records to indices: estimate_position over the records' anchors and their
    distance_mm / 10.0, whatever type that has."""
    anchors = tuple(server.registry.lookup(x, y) for x, y in zip(packet.x_cm, packet.y_cm))
    dists = [d / 10.0 for d in packet.distance_mm]

    def library_solve(plan, floats, room, prior=None):
        return estimate_position(anchors, dists, room, prior)

    with mock.patch.object(server_module, "solve", library_solve):
        return server.ingest(packet)
