"""Tests of the benchmark itself: span arithmetic, wrapping, the metric lists
in BENCHMARK.json, and each workload at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Ensemble, Fleet, Hall, IngestTimer  # noqa: E402


def tiny(name: str, seed: int):
    if name == "hall":
        return Hall(seed, side_cm=2600.0, duration_s=6.0, quality_units=2)
    if name == "ensemble":
        return Ensemble(seed, ensemble_size=8)
    return Fleet(seed, side_cm=1250.0, phones=6, duration_s=15)


def test_self_times_of_a_synthetic_tree():
    # root [0, 100] holds a [10, 30] and b [40, 70]; b holds c [45, 55]
    tree = [
        (0, "root", 0, 100, -1, 0),
        (1, "a", 10, 30, 0, 0),
        (2, "b", 40, 70, 0, 0),
        (3, "c", 45, 55, 2, 0),
    ]
    assert spans.self_times(tree) == {0: 50, 1: 20, 2: 20, 3: 10}
    assert sum(spans.self_times(tree).values()) == 100


def test_self_times_count_overlapping_children_once():
    tree = [(0, "p", 0, 10, -1, 0), (1, "x", 2, 6, 0, 0), (2, "y", 4, 8, 0, 0)]
    assert spans.self_times(tree)[0] == 4


def test_running_self_times_match_the_span_tree():
    tracer = spans.Tracer()

    def leaf(n):
        return sum(range(n))

    def boom():
        raise KeyError("x")

    leaf_t = tracer.wrap("leaf", leaf)
    boom_t = tracer.wrap("boom", boom)

    def outer():
        leaf_t(1000)
        with pytest.raises(KeyError):
            boom_t()
        return leaf_t(2000)

    tracer.wrap("outer", outer)()
    assert tracer.totals["leaf"][0] == 2
    assert tracer.totals["boom"][2] == 1
    by_id = spans.self_times(tracer.spans)
    assert sum(t[1] for t in tracer.totals.values()) == sum(by_id.values())
    roots_ns = sum(end - start for _, _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(by_id.values()) == roots_ns
    (root,) = [s for s in tracer.spans if s[4] < 0]
    assert all(s[4] == root[0] for s in tracer.spans if s is not root)


def test_patched_restores_functions_and_classmethods():
    class Owner:
        @classmethod
        def build(cls, x):
            return (cls, x)

        def method(self, x):
            return x + 1

    raw_build, raw_method = vars(Owner)["build"], vars(Owner)["method"]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.patched([(Owner, "build", lambda f: tracer.wrap("b", f)),
                            (Owner, "method", lambda f: tracer.wrap("m", f))]):
            assert Owner.build(3) == (Owner, 3)
            assert Owner().method(1) == 2
            raise RuntimeError
    assert vars(Owner)["build"] is raw_build and vars(Owner)["method"] is raw_method
    assert tracer.totals["b"][0] == 1 and tracer.totals["m"][0] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert spec["per_layer"] == spans.per_layer_spec()
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", ["hall", "ensemble", "fleet"])
def test_tiny_workload_is_correct_and_deterministic(name):
    workload = tiny(name, 5)
    warm = workload.run_unit(0, IngestTimer())
    result = run.measure(workload, warm, seconds=0.0)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    assert all(v > 0 for v in result["metrics"].values())
    again = tiny(name, 5)
    assert again.digest(again.run_unit(0, IngestTimer())) == workload.digest(warm)


@pytest.mark.parametrize("name", ["hall", "ensemble", "fleet"])
def test_tiny_traced_unit_matches_untraced(name):
    # several pairs, so that the overhead the span accounting is held to is
    # their median and not one pair's, which a burst of the host can swamp
    metrics, report, problems = run.traced(tiny(name, 6), seconds=1.0)
    assert problems == [] and report["traced_units"] > 1
    assert metrics["trace.wall_s"] > 0 and metrics["bench.self_s"] >= 0
    called = {"hall": "imaging.observe_scene.calls", "ensemble": "harness.run_tracking.calls",
              "fleet": "server.packet_from_line.calls"}[name]
    assert metrics[called] > 0


def test_accounting_flags_an_occloc_call_without_a_span(monkeypatch, tmp_path):
    def busy(seconds=0.02):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    layer = types.SimpleNamespace(wrapped=busy, lost=busy)  # stands in for an occloc module

    class TwoCalls:
        name = "two-calls"

        def run_unit(self, unit, timer):
            timer.call(layer.wrapped)
            timer.call(layer.lost)
            return unit

        def digest(self, out):
            return str(out)

        def check(self, out):
            return []

    monkeypatch.setattr(spans, "occloc_replacements",
                        lambda tracer: [(layer, "wrapped", lambda f: tracer.wrap("wrapped", f))])
    monkeypatch.setattr(spans, "layer_metrics", lambda *args: {})
    monkeypatch.setattr(run, "OUT", tmp_path)  # where the spans of the first unit go
    _, report, problems = run.traced(TwoCalls(), seconds=0.0)
    assert report["accounting_gap_s"] < -0.015
    assert any("miss the traced wall time" in p for p in problems)


def test_fleet_counts_unregistered_records_as_drops():
    fleet = tiny("fleet", 7)
    phantoms = sum(item[2] for item in fleet.schedule if item[0] is not fleet.SWEEP)
    outputs = fleet.run_unit(0, IngestTimer())
    drops = sum(out.dropped_records for out, _, _ in fleet._requests(outputs))
    assert phantoms > 0 and drops == phantoms


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hall", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_traced_cli_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in spans.per_layer_spec()]
