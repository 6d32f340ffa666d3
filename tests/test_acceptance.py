"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import erfc

from occloc.cli import main
from occloc.geometry import (
    CameraModel,
    Circular,
    Luminaire,
    Point3,
    Rectangular,
    RoomConfig,
    distance,
)
from occloc.harness import (
    _member_seed,
    default_filtercmp_scenario,
    default_scenario,
    range_boundaries_m,
    run_ber_sweep,
    run_filter_comparison,
    run_range_sweep,
    run_tracking,
)
from occloc.imaging import (
    FeasibilityRegime,
    distance_from_pixels,
    feasibility,
    pixel_count,
    ranging_constant,
)
from occloc.modem import BadCrc, BadPreamble, decode_frame, encode_frame
from occloc.solver import (
    AnchorMeasurement,
    Method,
    estimate_position,
    trilaterate,
    trilaterate_collinear,
)


def estimate(measurements, room, prior=None):
    """estimate_position over AnchorMeasurement pairs: their anchors as a
    tuple, and their distances."""
    return estimate_position(
        tuple(m.anchor for m in measurements), [m.distance_cm for m in measurements], room, prior
    )


def report(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {name}" + (f" ({detail})" if detail else ""))
    return ok


def q_function(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


def test_criterion_01_photogrammetric_round_trip():
    rng = np.random.default_rng(101)
    n = 10_000
    start = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        f = rng.uniform(1.0, 10.0)
        rho = rng.uniform(1e-3, 2e-2)
        camera = CameraModel(f, rho, 120.0)
        if rng.integers(2):
            shape = Circular(rng.uniform(10.0, 500.0))
        else:
            shape = Rectangular(rng.uniform(10.0, 500.0), rng.uniform(10.0, 500.0))
        fixture = Luminaire(1, Point3(0, 0, 300), shape)
        d_mm = f * 10.0 ** rng.uniform(1.0, 6.0)  # d in [10f, 1e6 f]
        eta = pixel_count(camera, fixture, d_mm / 10.0)
        back = distance_from_pixels(ranging_constant(camera, fixture), eta)
        worst = max(worst, abs(back - d_mm) / d_mm)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    assert report(1, "photogrammetric round trip", ok,
                  f"worst rel err {worst:.2e}, {elapsed:.2f}s for {n} triples")


def test_criterion_02_trilateration_exactness():
    rng = np.random.default_rng(202)
    n = 10_000
    start = time.perf_counter()
    worst_pos, worst_sphere = 0.0, 0.0
    done = 0
    while done < n:
        ceiling = rng.uniform(250.0, 400.0)
        anchors = rng.uniform(0.0, 1000.0, size=(3, 2))
        u, v = anchors[1] - anchors[0], anchors[2] - anchors[0]
        if abs(u[0] * v[1] - u[1] * v[0]) < 1e3:
            continue
        truth = Point3(rng.uniform(0, 1000), rng.uniform(0, 1000), rng.uniform(0, ceiling - 10))
        ms = [
            AnchorMeasurement(Point3(x, y, ceiling), distance(truth, Point3(x, y, ceiling)))
            for x, y in anchors
        ]
        est = trilaterate(ms)
        candidates = (est.position, *est.candidates)
        pos_err = min(distance(c, truth) for c in candidates)
        sphere_err = max(
            abs(distance(c, m.anchor) - m.distance_cm) for c in candidates for m in ms
        )
        worst_pos = max(worst_pos, pos_err)
        worst_sphere = max(worst_sphere, sphere_err)
        done += 1
    elapsed = time.perf_counter() - start
    ok = worst_pos < 1e-6 and worst_sphere < 1e-6 and elapsed < 5.0
    assert report(2, "trilateration exactness", ok,
                  f"worst pos {worst_pos:.2e} cm, worst sphere {worst_sphere:.2e} cm, {elapsed:.2f}s")


def test_criterion_03_worked_localization_example():
    ceiling = 400.0
    d1, d2, d3 = 320.0, 317.5, 410.37
    # consistent pair plus the anchor-line constraint
    pair = [
        AnchorMeasurement(Point3(200.0, 0.0, ceiling), d1),
        AnchorMeasurement(Point3(200.0, 300.0, ceiling), d3),
    ]
    est = trilaterate_collinear(pair)
    y = est.family.line_point.y
    depth = est.family.radius_cm  # vertical drop below the fixture line
    x = est.position.x
    ok_pair = abs(x - 200.0) < 1e-9 and abs(y - 40.0) <= 0.1 and abs(depth - 317.5) <= 0.5

    # brute-force oracle: no point is consistent with all three distances
    anchors = [Point3(200.0, yy, ceiling) for yy in (0.0, 150.0, 300.0)]
    dists = (d1, d2, d3)
    best = math.inf
    for yy in np.linspace(0.0, 150.0, 601):
        for dd in np.linspace(280.0, 360.0, 801):
            p = Point3(200.0, yy, ceiling - dd)
            best = min(best, max(abs(distance(p, a) - d) for a, d in zip(anchors, dists)))
    ok_inconsistent = best > 1.0

    # full three-distance least-squares answer, emitted for the record
    ms = [AnchorMeasurement(a, d) for a, d in zip(anchors, dists)]
    full = estimate(ms, RoomConfig(1219.0, 1219.0, ceiling))
    print(
        f"    three-distance least squares: y={full.family.line_point.y:.2f} cm, "
        f"drop={full.family.radius_cm:.2f} cm, residual={full.residual_cm:.2f} cm "
        f"(middle distance is inconsistent; best exhaustive misfit {best:.2f} cm)"
    )
    ok = ok_pair and ok_inconsistent and full.residual_cm > 1.0
    assert report(3, "published worked example", ok,
                  f"pair gives ({x:.1f}, {y:.2f}, drop {depth:.2f})")


def test_criterion_04_ber_curve_replication():
    start = time.perf_counter()
    n_bits = 100_000
    points = run_ber_sweep(list(range(0, 16)), n_bits, seed=404)
    elapsed = time.perf_counter() - start
    worst_sigma = 0.0
    for p in points:
        margin = math.sqrt(max(p.ber_theory * (1.0 - p.ber_theory), 1e-300) / n_bits)
        worst_sigma = max(worst_sigma, abs(p.ber_sim - p.ber_theory) / margin)
    ok = worst_sigma <= 3.0 and elapsed < 30.0
    assert report(4, "OOK BER curve vs analytic", ok,
                  f"worst deviation {worst_sigma:.2f} binomial sigma, {elapsed:.1f}s")


def test_criterion_05_ranging_regime_boundaries():
    scen = default_scenario()
    fixture = scen.fixture.make_luminaire(1, Point3(0, 0, 300))
    lo, hi = range_boundaries_m(scen.camera, fixture)
    ok_values = abs(lo - 53.05) <= 0.1 and abs(hi - 106.1) <= 0.1
    # boundary law: exactly at lo the area is 4 px (full), at hi exactly 1 px
    eta_lo = pixel_count(scen.camera, fixture, lo * 100.0)
    eta_hi = pixel_count(scen.camera, fixture, hi * 100.0)
    ok_law = (
        abs(eta_lo - 4.0) < 1e-9
        and abs(eta_hi - 1.0) < 1e-9
        and feasibility(eta_lo) is FeasibilityRegime.FULL
        and feasibility(eta_hi) is FeasibilityRegime.DEGRADED
    )
    points = run_range_sweep(scen.camera, fixture, np.linspace(1.0, 120.0, 477))
    regimes = [p.regime for p in points]
    order = [FeasibilityRegime.FULL, FeasibilityRegime.DEGRADED, FeasibilityRegime.IMPOSSIBLE]
    ok_shape = sorted(regimes, key=order.index) == regimes
    print(
        "    note: the published absolute boundaries (10 m / 35 m) do not follow from"
        " the published parameters; the threshold law d_4px = tau/2, d_1px = tau is"
        f" the target and gives {lo:.2f} m / {hi:.2f} m here"
    )
    ok = ok_values and ok_law and ok_shape
    assert report(5, "ranging feasibility boundaries", ok,
                  f"boundaries {lo:.2f} m and {hi:.2f} m")


def test_criterion_06_ten_cm_tracking_resolution():
    start = time.perf_counter()
    scen = default_scenario()
    kf_sq, raw_sq = [], []
    for j in range(100):
        records = run_tracking(replace(scen, seed=_member_seed(scen.seed, j)))
        for rec in records[10:]:
            assert not rec.gap
            kf_sq.append(rec.kf_err_cm**2)
            raw_sq.append(rec.raw_err_cm**2)
    elapsed = time.perf_counter() - start
    kf_rms = math.sqrt(float(np.mean(kf_sq)))
    raw_rms = math.sqrt(float(np.mean(raw_sq)))
    ok = kf_rms <= 10.0 and kf_rms <= raw_rms and elapsed < 60.0
    assert report(6, "10 cm tracking resolution", ok,
                  f"filtered RMS {kf_rms:.2f} cm vs raw {raw_rms:.2f} cm, {elapsed:.1f}s")


def test_criterion_07_filter_comparison_curves():
    points = run_filter_comparison(default_filtercmp_scenario(), ensemble_size=100)
    at_10 = next(p for p in points if abs(p.t_s - 10.0) < 1e-9)
    ok = (
        points[0].err_kf_norm == pytest.approx(1.0, abs=1e-12)
        and points[0].err_raw_norm == pytest.approx(1.0, abs=1e-12)
        and at_10.err_kf_norm <= 0.1
        and at_10.err_raw_norm >= 0.4
    )
    assert report(7, "filtered vs raw normalized error", ok,
                  f"at t=10s: filtered {at_10.err_kf_norm:.3f}, raw {at_10.err_raw_norm:.3f}")


def test_criterion_08_estimate_spacing():
    # 10 cm/s at 1 Hz under light ranging noise: consecutive estimates pace the walk
    scen = replace(default_scenario(), pixel_sigma=30.0)
    records = run_tracking(scen)
    spacing = [
        math.hypot(b.filtered.x - a.filtered.x, b.filtered.y - a.filtered.y)
        for a, b in zip(records[10:], records[11:])
    ]
    mean_spacing = float(np.mean(spacing))
    ok = 9.0 <= mean_spacing <= 10.5 and records[0].cold_start
    assert report(8, "consecutive estimate spacing", ok,
                  f"mean {mean_spacing:.2f} cm, first tick cold-start={records[0].cold_start}")


def test_criterion_09_geometric_dilution():
    # overhead grid fixtures spread wider than the vertical drop; isotropic
    # 2 cm range noise
    rng = np.random.default_rng(909)
    room = RoomConfig(1219.0, 1219.0, 300.0)
    truth = Point3(600.0, 600.0, 100.0)
    anchors = [Point3(x, y, 300.0) for x, y in ((225, 225), (975, 225), (225, 975), (975, 975))]
    z_sq, xy_sq = [], []
    for _ in range(1000):
        ms = [
            AnchorMeasurement(a, distance(truth, a) + rng.normal(0.0, 2.0)) for a in anchors
        ]
        est = estimate(ms, room)
        z_sq.append((est.position.z - truth.z) ** 2)
        xy_sq.append((est.position.x - truth.x) ** 2)
        xy_sq.append((est.position.y - truth.y) ** 2)
    z_rms = math.sqrt(float(np.mean(z_sq)))
    xy_rms = math.sqrt(float(np.mean(xy_sq)))
    test = stats.ttest_ind(z_sq, xy_sq, equal_var=False, alternative="greater")
    ok = z_rms > xy_rms and test.pvalue < 0.01
    assert report(9, "vertical error dominates horizontal", ok,
                  f"z RMS {z_rms:.2f} cm vs xy RMS {xy_rms:.2f} cm, p={test.pvalue:.2e}")


def test_criterion_10_modem_and_pipeline_integrity():
    # exhaustive single-bit corruption over payload + checksum positions
    rng = np.random.default_rng(1010)
    silent_wrong = 0
    for _ in range(100):
        x, y = int(rng.integers(0, 65536)), int(rng.integers(0, 65536))
        frame = encode_frame(x, y)
        for pos in range(8, 48):
            corrupted = frame.copy()
            corrupted[pos] ^= 1
            try:
                got = decode_frame(corrupted)
            except (BadCrc, BadPreamble):
                continue
            if got != (x, y):
                silent_wrong += 1
    # noise-free end-to-end run: the pipeline introduces no error of its own
    scen = replace(default_scenario(), pixel_sigma=0.0)
    records = run_tracking(scen)
    max_raw = max(r.raw_err_cm for r in records)
    ok = silent_wrong == 0 and max_raw < 1e-6
    assert report(10, "modem integrity and exact pipeline", ok,
                  f"silent wrong decodes {silent_wrong}, max raw err {max_raw:.2e} cm")


def test_criterion_11_manifest_determinism(tmp_path):
    import json

    runs = {
        "track": ["track"],
        "ber": ["ber", "--snir-max", "4", "--bits", "20000"],
        "range": ["range", "--points", "40"],
        "filtercmp": ["filtercmp", "--ensemble", "5"],
    }
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(
        {"duration_s": 8.0, "seed": 5, "noise": {"distance_sigma_cm": 5.0}}
    ))
    all_ok = True
    for name, argv in runs.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert main(argv + ["--scenario", str(scenario_path), "--out", str(out_a)]) == 0
        assert main([argv[0], "--scenario", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        csv = f"{name}.csv"
        identical = (out_a / csv).read_bytes() == (out_b / csv).read_bytes()
        all_ok = all_ok and identical
    assert report(11, "manifest replay is byte-identical", all_ok)
