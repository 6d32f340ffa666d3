"""The benchmark's three workloads, built on occloc's public API.

Each workload turns the run's seed into inputs once, then runs units of
work: one `run_tracking` call (hall), one `run_filter_comparison` call
(ensemble) or one replay of the packet log into a fresh server (fleet). A
unit appends the latency of every ingest it makes to an `IngestTimer` and
returns its outputs; the workload digests, checks and scores them afterwards,
outside the timed region. Every unit calls occloc through module attributes
(`harness.run_tracking`, `server.packet_from_line`, ...) so that a traced run
can wrap them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace
from time import perf_counter_ns

import numpy as np

from occloc import harness
from occloc import server as occ_server
from occloc.geometry import RoomConfig
from occloc.tracker import constant_velocity_config

from spans import patched

# Output bounds. A run whose outputs exceed them fails its check; each
# workload's `quality_bounds` caps its own figures the same way.
MAX_FAIL_RATIO = 0.01  # gap ticks or raised requests per attempt
FILTERCMP_READ_S = 10.0  # the paper reads the filter comparison here
RANGING_SIGMA_CM = 5.0  # noise of the fleet's ranged distances


def unit_seed(seed: int, unit: int) -> int:
    """A 40-bit seed per (run seed, unit); small enough that the filter
    comparison's member seeds (base * 1_000_003 + j) still fit 64 bits."""
    digest = hashlib.sha256(f"{seed}:{unit}".encode()).digest()
    return int.from_bytes(digest[:5], "big")


def _in_extended_bounds(room: RoomConfig, x: float, y: float, z: float) -> bool:
    """Finite and within the room grown by 10 % on every side."""
    mx, my, mz = 0.1 * room.width_cm, 0.1 * room.depth_cm, 0.1 * room.ceiling_height_cm
    return (
        -mx <= x <= room.width_cm + mx
        and -my <= y <= room.depth_cm + my
        and -mz <= z <= room.ceiling_height_cm + mz
    )


def _sha256_rows(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(repr(v) for v in row) + "\n").encode())
    return h.hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class IngestTimer:
    """Ingest latencies (ns) and raised ingests of the units it is passed to,
    and the time the client spent inside its calls into occloc, by its own
    clock reads around each call (what the traced run's spans must add up to)."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.raised = 0
        self.occloc_ns = 0

    def call(self, fn, *args):
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.occloc_ns += perf_counter_ns() - start


def _timed_ingest(timer: IngestTimer):
    """Replacement of LightingServer.ingest that times each call; two clock
    reads per call, which is well under 1 % of an ingest."""

    def make(ingest):
        def timed(self, packet):
            start = perf_counter_ns()
            try:
                return ingest(self, packet)
            except Exception:
                timer.raised += 1
                raise
            finally:
                timer.latencies_ns.append(perf_counter_ns() - start)

        return timed

    return [(occ_server.LightingServer, "ingest", make)]


class Hall:
    """`run_tracking` in a 200 m x 200 m hall under a 150 cm grid: 17 689
    fixtures, so observe_scene and the per-call decode of every fixture do
    nearly all the work. The phone walks straight at 1 m/s, 1 m above the
    floor, sampled at 1 Hz; each unit draws fresh pixel noise."""

    name = "hall"
    quality_bounds = {"kf_err_p95_cm": 30.0}  # straight walk, about 17 anchors in view

    def __init__(self, seed: int, side_cm: float = 20000.0, duration_s: float = 50.0,
                 quality_units: int = 4):
        self.seed = seed
        self.quality_units = quality_units
        rng = np.random.default_rng([seed, 1])
        # A straight walk that stays clear of the walls; turns are the fleet's
        # business. Rooms too small for the whole walk clip its end point.
        walk = 100.0 * duration_s
        margin = min(500.0, side_cm / 4.0)
        lo = margin + walk if side_cm > 2.0 * (margin + walk) else margin
        start = rng.uniform(lo, side_cm - lo, size=2)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        end = np.clip(start + walk * np.array([math.cos(heading), math.sin(heading)]),
                      margin, side_cm - margin)
        self.scenario = harness.Scenario(
            room=RoomConfig(side_cm, side_cm, 300.0),
            led_spacing_cm=150.0,
            led_origin_cm=(75.0, 75.0),
            waypoints_cm=tuple((float(x), float(y), 100.0) for x, y in (start, end)),
            speed_cm_s=100.0,
            sampling_hz=1.0,
            duration_s=duration_s,
        )

    def run_unit(self, unit: int, timer: IngestTimer):
        scenario = replace(self.scenario, seed=unit_seed(self.seed, unit))
        with patched(_timed_ingest(timer)):
            return timer.call(harness.run_tracking, scenario)

    def work(self, records, ingested: int) -> "tuple[int, int, int]":
        """(ticks, attempted, failed) of one unit, given its successful
        ingests; a tick fails when it yields no estimate (a gap)."""
        return len(records), len(records), sum(r.gap for r in records)

    def digest(self, records) -> str:
        def cells(r):
            if r.gap:
                return (r.t_s, r.truth.x, r.truth.y, r.visible)
            return (r.t_s, r.truth.x, r.truth.y, r.raw.x, r.raw.y, r.raw.z,
                    r.filtered.x, r.filtered.y, r.predicted.x, r.predicted.y,
                    r.raw_err_cm, r.kf_err_cm, r.visible, r.cold_start)

        return _sha256_rows(cells(r) for r in records)

    def check(self, records) -> "list[str]":
        room = self.scenario.room
        problems = []
        if len(records) != self.scenario.tick_count():
            problems.append(f"{len(records)} records for {self.scenario.tick_count()} ticks")
        for r in records:
            if r.gap:
                continue
            for label, p in (("raw", r.raw), ("filtered", r.filtered), ("predicted", r.predicted)):
                if not _in_extended_bounds(room, p.x, p.y, p.z):
                    problems.append(f"t={r.t_s}: {label} {p} outside the room")
            if not (math.isfinite(r.raw_err_cm) and math.isfinite(r.kf_err_cm)):
                problems.append(f"t={r.t_s}: non-finite error")
        return problems

    def quality(self, outputs) -> "dict[str, float]":
        """Filtered-error p95 over the first quality_units units."""
        recs = [r for out in outputs[: self.quality_units] for r in out if not r.gap]
        if not recs:
            return {"kf_err_p95_cm": math.inf, "raw_err_p95_cm": math.inf}
        return {"kf_err_p95_cm": percentile([r.kf_err_cm for r in recs], 95),
                "raw_err_p95_cm": percentile([r.raw_err_cm for r in recs], 95)}


class Ensemble:
    """`run_filter_comparison(default_filtercmp_scenario(), 100)`: 100 members
    x 25 ticks, each member repeating its own setup (luminaires, registry, tau,
    64 decodes). The unit's seed replaces the scenario's base seed."""

    name = "ensemble"
    quality_units = 1
    quality_bounds: dict = {}  # check() already holds the filtered curve below the raw one

    def __init__(self, seed: int, ensemble_size: int = 100):
        self.seed = seed
        self.ensemble_size = ensemble_size
        self.scenario = harness.default_filtercmp_scenario()

    def run_unit(self, unit: int, timer: IngestTimer):
        scenario = replace(self.scenario, seed=unit_seed(self.seed, unit))
        with patched(_timed_ingest(timer)):
            return timer.call(harness.run_filter_comparison, scenario, self.ensemble_size)

    def work(self, points, ingested: int) -> "tuple[int, int, int]":
        """Member-ticks; the comparison hides its gap ticks, so a member-tick
        without a successful ingest counts as failed."""
        ticks = self.ensemble_size * self.scenario.tick_count()
        return ticks, ticks, ticks - ingested

    def digest(self, points) -> str:
        return _sha256_rows((p.t_s, p.err_kf_norm, p.err_raw_norm) for p in points)

    def check(self, points) -> "list[str]":
        problems = []
        if len(points) != self.scenario.tick_count() - 1:
            problems.append(f"{len(points)} points for {self.scenario.tick_count()} ticks")
        for p in points:
            if not (math.isfinite(p.err_kf_norm) and math.isfinite(p.err_raw_norm)):
                problems.append(f"t={p.t_s}: non-finite point")
            elif p.t_s >= FILTERCMP_READ_S and not p.err_kf_norm < p.err_raw_norm:
                problems.append(
                    f"t={p.t_s}: filtered {p.err_kf_norm:.4f} not below raw {p.err_raw_norm:.4f}"
                )
        return problems

    def quality(self, outputs) -> "dict[str, float]":
        at = {p.t_s: p for p in outputs[0]}.get(FILTERCMP_READ_S)
        return {"kf_over_raw_10s": at.err_kf_norm / at.err_raw_norm if at else math.inf}


class Fleet:
    """Wire-form replay into one server: each request is `packet_from_line`
    then `LightingServer.ingest`. About 64 phones at 1 Hz walk a 30 m room
    under a sparse 250 cm grid (3 to 10 fixtures in view), leave and are
    replaced; once per logical second the client probes every session the
    server holds. About 1 record in 20 names a fixture the registry lacks."""

    name = "fleet"
    quality_units = 1
    # One fixture spacing of the grid. The filter trails a phone that turns by
    # about a metre (its process noise is 1 cm^2/s^4), so the filtered p95
    # sits near 1.3 m while the raw solve's p95 is near 0.1 m.
    quality_bounds = {"kf_err_p95_cm": 250.0}
    SWEEP = object()  # schedule marker: a probe sweep at the given time

    def __init__(self, seed: int, side_cm: float = 3000.0, phones: int = 64,
                 duration_s: int = 55):
        rng = np.random.default_rng([seed, 3])
        ceiling = 300.0
        scenario = harness.Scenario(
            room=RoomConfig(side_cm, side_cm, ceiling),
            led_spacing_cm=250.0,
            led_origin_cm=(125.0, 125.0),
            waypoints_cm=((side_cm / 2, side_cm / 2, 100.0),),
        )
        self.room = scenario.room
        luminaires = scenario.build_luminaires()
        self.registry = occ_server.LedRegistry.from_luminaires(luminaires)
        grid = np.array([[l.anchor.x, l.anchor.y] for l in luminaires])
        known = {(int(round(x)), int(round(y))) for x, y in grid}
        reach_per_dz = math.tan(math.radians(scenario.camera.fov_semi_angle_deg))
        margin = 20.0  # phones may walk along a wall, where the fixtures in view can be collinear

        def new_phone(t: int, n: int):
            return {
                "sid": f"phone-{n}",
                "leave": t + int(rng.integers(20, 61)),
                "offset": int(rng.integers(1, 1000)),
                "z": float(rng.uniform(60.0, 160.0)),
                "xy": rng.uniform(margin, side_cm - margin, size=2),
                "goal": rng.uniform(margin, side_cm - margin, size=2),
                "silent": 0,
            }

        slots = [new_phone(0, n) for n in range(phones)]
        joined = phones
        # (SWEEP, time ms, None) for a sweep, or (line, truth xy, phantoms)
        self.schedule = []
        for t in range(duration_s):
            self.schedule.append((self.SWEEP, t * 1000, None))
            packets = []
            for k, ph in enumerate(slots):
                if t >= ph["leave"] or ph["silent"] > 3:
                    ph = slots[k] = new_phone(t, joined)
                    joined += 1
                step = ph["goal"] - ph["xy"]
                dist = float(np.hypot(*step))
                if dist <= 100.0:
                    ph["xy"] = ph["goal"]
                    ph["goal"] = rng.uniform(margin, side_cm - margin, size=2)
                else:
                    ph["xy"] = ph["xy"] + step * (100.0 / dist)
                dz = ceiling - ph["z"]
                horiz = np.hypot(*(grid - ph["xy"]).T)
                seen = np.flatnonzero(horiz <= dz * reach_per_dz)
                if len(seen) < 3:
                    ph["silent"] += 1
                    continue
                ph["silent"] = 0
                records, phantoms = [], 0
                for j in seen:
                    d_cm = math.hypot(horiz[j], dz) + rng.normal(0.0, RANGING_SIGMA_CM)
                    records.append(occ_server.DetectionRecord(
                        int(round(grid[j, 0])), int(round(grid[j, 1])), d_cm * 10.0))
                    if rng.random() < 1.0 / 19.0:
                        while True:
                            xy = (int(rng.integers(0, side_cm)), int(rng.integers(0, side_cm)))
                            if xy not in known:
                                break
                        records.append(occ_server.DetectionRecord(
                            *xy, float(rng.uniform(1400.0, 4000.0))))
                        phantoms += 1
                packet = occ_server.DetectionPacket(ph["sid"], t * 1000 + ph["offset"],
                                                    tuple(records))
                packets.append((packet.timestamp_ms, occ_server.packet_to_line(packet),
                                (float(ph["xy"][0]), float(ph["xy"][1])), phantoms))
            packets.sort()
            self.schedule += [(line, truth, phantoms) for _, line, truth, phantoms in packets]
        self.requests = sum(item[0] is not self.SWEEP for item in self.schedule)
        self.sweeps = duration_s
        self.kalman = constant_velocity_config(dt_s=1.0)

    def run_unit(self, unit: int, timer: IngestTimer):
        """One replay of the whole log into a fresh server. Outputs hold an
        IngestResult or the raised exception per request, and the probe
        statuses of each sweep."""
        server = occ_server.LightingServer(self.registry, self.room, kalman_config=self.kalman)
        outputs = []
        latencies = timer.latencies_ns
        for item, arg, _ in self.schedule:
            if item is self.SWEEP:
                statuses = []
                for sid in list(server.sessions):
                    start = perf_counter_ns()
                    statuses.append(server.probe_tick(sid, arg))
                    timer.occloc_ns += perf_counter_ns() - start
                outputs.append(statuses)
                continue
            start = perf_counter_ns()
            try:
                result = server.ingest(occ_server.packet_from_line(item))
            except Exception as exc:  # a failed request is counted, not fatal
                result = exc
                timer.raised += 1
            latency = perf_counter_ns() - start
            latencies.append(latency)
            timer.occloc_ns += latency
            outputs.append(result)
        return outputs

    def _requests(self, outputs):
        """(output, truth xy, phantoms) per request, in schedule order."""
        return [
            (out, item[1], item[2])
            for out, item in zip(outputs, self.schedule)
            if item[0] is not self.SWEEP
        ]

    def work(self, outputs, ingested: int) -> "tuple[int, int, int]":
        """Logical seconds (probe sweeps), requests and raised requests."""
        failed = sum(isinstance(out, Exception) for out, _, _ in self._requests(outputs))
        return self.sweeps, self.requests, failed

    def digest(self, outputs) -> str:
        def cells(out):
            if isinstance(out, list):
                return tuple(f"{s.phase.value}:{s.missed_probes}" for s in out)
            if isinstance(out, Exception):
                return (type(out).__name__,)
            e, f, p = out.estimate, out.filtered, out.predicted
            return (e.position.x, e.position.y, e.position.z, e.method.value, e.residual_cm,
                    f.x, f.y, p.x, p.y, out.out_of_bounds, out.dropped_records, out.cold_start)

        return _sha256_rows(cells(out) for out in outputs)

    def check(self, outputs) -> "list[str]":
        problems = []
        if len(outputs) != len(self.schedule):
            problems.append(f"{len(outputs)} outputs for {len(self.schedule)} schedule items")
        for n, (out, _, phantoms) in enumerate(self._requests(outputs)):
            if isinstance(out, Exception):
                continue
            for label, p in (("raw", out.estimate.position), ("filtered", out.filtered),
                             ("predicted", out.predicted)):
                if not _in_extended_bounds(self.room, p.x, p.y, p.z):
                    problems.append(f"request {n}: {label} {p} outside the room")
            if out.dropped_records != phantoms:
                problems.append(
                    f"request {n}: dropped {out.dropped_records} records, {phantoms} unregistered"
                )
        return problems

    def quality(self, outputs) -> "dict[str, float]":
        solved = [(out, truth) for out, truth, _ in self._requests(outputs[0])
                  if not isinstance(out, Exception)]
        if not solved:
            return {"kf_err_p95_cm": math.inf, "raw_err_p95_cm": math.inf}
        return {
            "kf_err_p95_cm": percentile(
                [math.hypot(o.filtered.x - t[0], o.filtered.y - t[1]) for o, t in solved], 95),
            "raw_err_p95_cm": percentile(
                [math.hypot(o.estimate.position.x - t[0], o.estimate.position.y - t[1])
                 for o, t in solved], 95),
        }


WORKLOADS = {w.name: w for w in (Hall, Ensemble, Fleet)}
