"""occloc benchmark: one workload per run, or all of them in turn.

    python3 perfbench/run.py [--workload hall|ensemble|fleet|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout; occloc is imported from its `src/`. The run
prints one line per metric with its unit, then, as its last line, a JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 they are
the per-layer ones of a traced run. Full results, and the spans of the first
traced unit, go to perfbench/out/. The exit code is 1 when an output check
fails and 2 when occloc cannot be imported from the checkout.
"""

import time

PROCESS_START = time.perf_counter()  # set-up time counts from here, before occloc loads

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5  # set-ups per run (this process and fresh ones); setup_s is their median

WORKLOAD_NAMES = ("hall", "ensemble", "fleet")
END_TO_END = [
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("packets_per_s", "1/s"),
    ("ingest_p50_us", "us"),
    ("ingest_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
]


def import_occloc():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import occloc
    except ImportError as exc:
        print(f"perfbench: cannot import occloc from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(occloc.__file__).resolve().is_relative_to(src):
        print(f"perfbench: occloc loaded from {occloc.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return occloc


def set_up(name: str, seed: int):
    """Build the workload's inputs and make one full-size warm-up unit.
    Returns (workload, warm-up output, seconds since process start)."""
    import_occloc()
    from workloads import WORKLOADS, IngestTimer

    workload = WORKLOADS[name](seed)
    warm = workload.run_unit(0, IngestTimer())
    return workload, warm, time.perf_counter() - PROCESS_START


def fresh_setup_seconds(name: str, seed: int) -> float:
    """Set-up time of a new process, so that process-level caches show."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(workload, warm, seconds: float) -> dict:
    """Untraced units after the warm-up one until `seconds` have passed (at
    least one), then the output checks. Every metric but setup_s."""
    from workloads import MAX_FAIL_RATIO, IngestTimer, percentile

    problems = workload.check(warm)
    kept = [warm]  # outputs the quality figures and the digest are taken from
    units = []  # (seconds, ticks, ingests, attempted, failed, ingest p99 us)
    # Per request position (the i-th ingest of a unit), the lowest latency in
    # us over the units; positions past the shortest unit are dropped. Every
    # unit makes the same requests (fleet) or the same requests with fresh
    # noise (hall, ensemble), so a position's minimum is that request's cost
    # with the least interference from the host.
    best = None
    unit = 1
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        timer = IngestTimer()
        t0 = time.perf_counter_ns()
        out = workload.run_unit(unit, timer)
        elapsed = (time.perf_counter_ns() - t0) * 1e-9
        ingests = len(timer.latencies_ns)
        ticks, attempted, failed = workload.work(out, ingests - timer.raised)
        lat_us = [ns * 1e-3 for ns in timer.latencies_ns]
        units.append((elapsed, ticks, ingests, attempted, failed, percentile(lat_us, 99)))
        best = lat_us if best is None else [min(a, b) for a, b in zip(best, lat_us)]
        problems += workload.check(out)
        if len(kept) < workload.quality_units:
            kept.append(out)
        unit += 1
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(kept) < workload.quality_units:  # the clock ran out first
        out = workload.run_unit(unit, IngestTimer())
        problems += workload.check(out)
        kept.append(out)
        unit += 1

    quality = workload.quality(kept)
    problems += [f"{k} {quality[k]:.4g} above {limit}"
                 for k, limit in workload.quality_bounds.items() if not quality[k] <= limit]
    attempted = sum(u[3] for u in units)
    failed = sum(u[4] for u in units)
    fail_ratio = failed / attempted
    if fail_ratio > MAX_FAIL_RATIO:
        problems.append(f"fail_ratio {fail_ratio:.4f} above {MAX_FAIL_RATIO}")
    # The host's speed drifts by up to 2x for minutes, so each timing is a
    # best case over the run's units, which a slow phase moves far less
    # than a median. One timed figure, the fastest unit, gives both
    # throughputs: the ticks and the ingests of a unit are fixed by the seed.
    units_per_s = 1.0 / min(u[0] for u in units)
    metrics = {
        "ticks_per_s": units_per_s * statistics.median(u[1] for u in units),
        "packets_per_s": units_per_s * statistics.median(u[2] for u in units),
        "ingest_p50_us": percentile(best, 50),
        "ingest_p99_us": percentile(best, 99),
        "peak_rss_mib": rss_mib,
    }
    digests = "".join(workload.digest(out) for out in kept)
    report = {
        **quality,
        "fail_ratio": fail_ratio,
        "unit_seconds": [u[0] for u in units],
        "ingest_samples": sum(u[2] for u in units),
        "ingest_positions": len(best),
        "ingest_unit_p99_median_us": statistics.median(u[5] for u in units),
        "digest": hashlib.sha256(digests.encode()).hexdigest(),
    }
    return {"metrics": metrics, "report": report, "problems": problems,
            "attempted": attempted, "failed": failed}


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    workload, warm, setup_s = set_up(name, seed)
    result = measure(workload, warm, seconds)
    setups = [setup_s] + [fresh_setup_seconds(name, seed) for _ in range(SETUP_REPEATS - 1)]
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["report"]["setup_samples_s"] = setups
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": u} for k, u in END_TO_END}
    return result


def timed_unit(workload, unit: int, timer) -> "tuple[object, int]":
    t0 = time.perf_counter_ns()
    out = workload.run_unit(unit, timer)
    return out, time.perf_counter_ns() - t0


def traced(workload, seconds: float):
    """Pairs of the same unit, one untraced and one traced, the untraced one
    first in every other pair, until `seconds` have passed (at least one
    pair). Returns the per-layer figures per unit, averaged over the traced
    units, a report of the span accounting, and the problems found."""
    from spans import Tracer, layer_metrics, occloc_replacements, patched, self_times
    from workloads import IngestTimer

    problems = []
    sums: dict[str, float] = {}
    totals = {"span_self_ns": 0, "bench_self_ns": 0, "wall_ns": 0}
    overheads = []  # traced minus untraced wall time, per pair
    units = 0
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        unit = units + 1
        if units % 2 == 0:
            plain, plain_ns = timed_unit(workload, unit, IngestTimer())
        timer = IngestTimer()
        tracer = Tracer(request_of=lambda: len(timer.latencies_ns))
        with patched(occloc_replacements(tracer)):
            out, traced_ns = timed_unit(workload, unit, timer)
        if units % 2 == 1:
            plain, plain_ns = timed_unit(workload, unit, IngestTimer())
        if workload.digest(out) != workload.digest(plain):
            problems.append(f"unit {unit}: traced output differs from untraced")
        problems += workload.check(out)
        span_self_ns = sum(self_times(tracer.spans).values())
        if sum(t[1] for t in tracer.totals.values()) != span_self_ns:
            problems.append(f"unit {unit}: running self times disagree with the span tree")
        # The client's own clock reads around its occloc calls, not the spans,
        # give the benchmark's self time; a span lost or counted twice shows
        # as a gap between the two.
        bench_self_ns = traced_ns - timer.occloc_ns
        overhead_ns = traced_ns - plain_ns
        overheads.append(overhead_ns)
        for key, value in (("span_self_ns", span_self_ns), ("bench_self_ns", bench_self_ns),
                           ("wall_ns", traced_ns)):
            totals[key] += value
        for k, v in layer_metrics(tracer, traced_ns, bench_self_ns, overhead_ns).items():
            sums[k] = sums.get(k, 0.0) + v
        if units == 0:
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(OUT / f"spans-{workload.name}.jsonl")
        units += 1
    # The median pair, since a burst of the host can slow either side of a pair.
    overhead_ns = statistics.median(overheads) * units
    gap_ns = totals["span_self_ns"] + totals["bench_self_ns"] - totals["wall_ns"]
    if abs(gap_ns) > abs(overhead_ns):
        problems.append(f"span self times plus the benchmark's self time miss the traced wall "
                        f"time by {gap_ns * 1e-9:.4f} s, more than the tracing overhead "
                        f"{overhead_ns * 1e-9:.4f} s")
    report = {"traced_units": units, "accounting_gap_s": gap_ns * 1e-9,
              "overhead_total_s": overhead_ns * 1e-9,
              **{k.replace("_ns", "_total_s"): v * 1e-9 for k, v in totals.items()}}
    return {k: v / units for k, v in sums.items()}, report, problems


def run_traced(name: str, seed: int, seconds: float) -> dict:
    workload, _, _ = set_up(name, seed)
    from spans import per_layer_spec

    metrics, report, problems = traced(workload, seconds)
    return {
        "attempted": report["traced_units"],
        "failed": 0,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in per_layer_spec()},
        "report": report,
        "problems": problems,
    }


def print_result(name: str, args, result: dict):
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, m in result["metrics"].items():
        print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    for key, value in result["report"].items():
        if isinstance(value, float):
            shown = f"{value:.6g}"
        elif isinstance(value, list):
            shown = " ".join(f"{v:.4g}" for v in value)
        else:
            shown = value
        print(f"  {key:48s} {shown}")
    print(f"  {'attempted':48s} {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  {'check':48s} {'ok' if result['correct'] else 'FAILED'}")


def run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.setup_only:
        print(set_up(args.workload, args.seed)[2])
        return 0
    if args.workload == "all":
        import_occloc()  # fail fast, before any workload starts
        return run_all(args)
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds)
    result["correct"] = not result["problems"]
    result["report"]["environment"] = environment()
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print_result(args.workload, args, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
