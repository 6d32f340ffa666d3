"""In-memory span tracer that wraps occloc's public functions from outside.

Each wrapped function records a span (id, name, start, end, parent id,
request id) and adds to per-function totals: calls, self time and raised
exceptions. Self time is the span's duration minus the time its child spans
cover; the benchmark is single-threaded, so children nest strictly inside
their parent and never overlap, and a running sum per open span is exact.
`self_times` recomputes the same figure from a finished span list, by
interval union, as the reference the running sums are checked against.

Wrappers are installed at the attribute each caller resolves (for example
`occloc.harness.observe_scene`, which harness imported by name) and are
always removed again in `finally`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

from occloc import harness, server, solver, tracker


class Tracer:
    """Spans and counters of one traced unit of work, held in memory until
    written; a unit is at most a few hundred thousand spans."""

    def __init__(self, request_of=lambda: 0):
        self.request_of = request_of  # the request a span starting now belongs to
        self.spans: list[tuple] = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, self_ns, failed]
        self.counters: dict[str, float] = {}
        self._stack: list[list[int]] = []  # open spans: [span id, child ns]
        self._next_id = 0

    def count(self, name: str, amount: float = 1.0):
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(args, result) adds counters
        after the span has closed, so its cost lands in the parent's self time."""
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            request = self.request_of()
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                totals[2] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.spans.append((span_id, name, start, end, parent, request))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "request": request},
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def self_times(spans) -> "dict[int, int]":
    """Self time of every span in ns: its duration minus the union of the
    intervals its direct children cover, clipped to the span itself."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for span_id, _, start, end, parent, _ in spans:
        if parent in by_id:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


@contextmanager
def patched(replacements):
    """Install (owner, attribute, make_wrapper) replacements for the duration
    of the block. make_wrapper receives the plain function; a classmethod is
    unwrapped before and re-wrapped after, so it stays a classmethod."""
    saved = []
    try:
        for owner, attr, make_wrapper in replacements:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
            else:
                setattr(owner, attr, make_wrapper(raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# --- the occloc layers -------------------------------------------------------

# Wrapped functions, as (metric name, owner, attribute, reports failures).
# The owner is where callers resolve the name: harness imported observe_scene
# and the modem functions by name, server imported estimate_position, and the
# solver calls its own module globals. Registry lookups and builds are named
# for what they do, since `lookup` and `from_luminaires` say little alone.
WRAPPED = [
    ("imaging.observe_scene", harness, "observe_scene", False),
    ("imaging.ranging_constant", harness, "ranging_constant", False),
    ("imaging.distance_from_pixels", harness, "distance_from_pixels", False),
    ("modem.encode_frame", harness, "encode_frame", False),
    ("modem.modulate", harness, "modulate", False),
    ("modem.demodulate", harness, "demodulate", False),
    ("modem.decode_frame", harness, "decode_frame", True),
    ("solver.estimate_position", server, "estimate_position", True),
    ("solver.trilaterate", solver, "trilaterate", True),
    ("solver.multilaterate", solver, "multilaterate", True),
    ("solver.trilaterate_collinear", solver, "trilaterate_collinear", True),
    ("solver.resolve_ambiguity", solver, "resolve_ambiguity", True),
    ("tracker.predict", tracker, "predict", False),
    ("tracker.update", tracker, "update", False),
    ("tracker.initial_state", tracker, "initial_state", False),
    ("server.packet_from_line", server, "packet_from_line", True),
    ("server.ingest", server.LightingServer, "ingest", True),
    ("server.probe_tick", server.LightingServer, "probe_tick", True),
    ("server.registry_lookup", server.LedRegistry, "lookup", True),
    ("server.registry_build", server.LedRegistry, "from_luminaires", False),
    ("harness.run_tracking", harness, "run_tracking", False),
    ("harness.run_filter_comparison", harness, "run_filter_comparison", False),
    ("harness.build_luminaires", harness.Scenario, "build_luminaires", False),
    ("harness.trajectory_point", harness, "trajectory_point", False),
]
METHODS = ("trilateration", "least-squares", "collinear-family")


def _failure_metric(name: str) -> str:
    # a registry miss is the lookup's only failure: it raises UnknownLedId
    return f"{name}.misses" if name == "server.registry_lookup" else f"{name}.failed"


def per_layer_spec() -> "list[dict]":
    """Every per-layer metric the traced run reports, in report order."""
    spec = []
    for name, _, _, reports_failures in WRAPPED:
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
        if reports_failures:
            spec.append({"name": _failure_metric(name), "unit": "count", "better": "lower"})
        if name == "imaging.observe_scene":
            spec += [
                {"name": f"{name}.fixtures_scanned", "unit": "count", "better": "lower"},
                {"name": f"{name}.sightings", "unit": "count", "better": "higher"},
                {"name": f"{name}.hit_ratio", "unit": "ratio", "better": "higher"},
            ]
    spec += [{"name": "solver.anchors_mean", "unit": "count", "better": "lower"}]
    spec += [{"name": f"solver.method.{m}", "unit": "count", "better": "lower"} for m in METHODS]
    spec += [
        {"name": "server.record_drop_ratio", "unit": "ratio", "better": "lower"},
        {"name": "server.sessions_held", "unit": "count", "better": "lower"},
        {"name": "server.archive_held", "unit": "count", "better": "lower"},
        {"name": "bench.self_s", "unit": "s", "better": "lower"},
        {"name": "trace.wall_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
    ]
    return spec


def occloc_replacements(tracer: Tracer):
    """(owner, attribute, make_wrapper) for every function in WRAPPED."""

    def scene_seen(args, result):
        tracer.count("imaging.observe_scene.fixtures_scanned", len(args[0]))
        tracer.count("imaging.observe_scene.sightings", len(result))

    def solved(args, result):
        tracer.count("solver.anchors", len(args[0]))
        tracer.count(f"solver.method.{result.method.value}")

    def ingested(args, result):
        # overwritten on every ingest, so the unit's last ingest leaves its sizes
        tracer.counters["server.sessions_held"] = len(args[0].sessions)
        tracer.counters["server.archive_held"] = len(args[0].archive)

    observers = {
        "imaging.observe_scene": scene_seen,
        "solver.estimate_position": solved,
        "server.ingest": ingested,
    }
    return [
        (owner, attr, lambda fn, name=name: tracer.wrap(name, fn, observers.get(name)))
        for name, owner, attr, _ in WRAPPED
    ]


def layer_metrics(tracer: Tracer, wall_ns: int, bench_ns: int,
                  overhead_ns: int) -> "dict[str, float]":
    """Per-layer figures of one traced unit of work (one call or replay pass)
    that took wall_ns, of which the client spent bench_ns outside its calls
    into occloc."""
    out = {}
    for name, _, _, reports_failures in WRAPPED:
        calls, self_ns, failed = tracer.totals.get(name, (0, 0, 0))
        out[f"{name}.calls"] = float(calls)
        out[f"{name}.self_s"] = self_ns * 1e-9
        if reports_failures:
            out[_failure_metric(name)] = float(failed)
    c = tracer.counters.get
    scanned = c("imaging.observe_scene.fixtures_scanned", 0.0)
    sightings = c("imaging.observe_scene.sightings", 0.0)
    out["imaging.observe_scene.fixtures_scanned"] = scanned
    out["imaging.observe_scene.sightings"] = sightings
    out["imaging.observe_scene.hit_ratio"] = sightings / scanned if scanned else 0.0
    solves = tracer.totals.get("solver.estimate_position", (0, 0, 0))[0]
    out["solver.anchors_mean"] = c("solver.anchors", 0.0) / solves if solves else 0.0
    for m in METHODS:
        out[f"solver.method.{m}"] = c(f"solver.method.{m}", 0.0)
    lookups, _, misses = tracer.totals.get("server.registry_lookup", (0, 0, 0))
    out["server.record_drop_ratio"] = misses / lookups if lookups else 0.0
    out["server.sessions_held"] = c("server.sessions_held", 0.0)
    out["server.archive_held"] = c("server.archive_held", 0.0)
    out["bench.self_s"] = bench_ns * 1e-9
    out["trace.wall_s"] = wall_ns * 1e-9
    out["trace.overhead_s"] = overhead_ns * 1e-9
    return out
