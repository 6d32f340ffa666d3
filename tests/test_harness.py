import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from occloc import harness
from occloc.harness import (
    BER_HEADER,
    FILTERCMP_HEADER,
    RANGE_HEADER,
    TRACK_HEADER,
    Scenario,
    ScenarioError,
    default_filtercmp_scenario,
    default_scenario,
    range_boundaries_m,
    run_ber_sweep,
    run_filter_comparison,
    run_range_sweep,
    run_tracking,
    scenario_from_dict,
    scenario_to_dict,
    trajectory_point,
    visibility_scan,
    write_ber_csv,
    write_filtercmp_csv,
    write_range_csv,
    write_track_csv,
)
from occloc.imaging import FeasibilityRegime, observe_scene
from occloc.geometry import Point3, Pose


class TestScenarioConfig:
    def test_empty_dict_gives_reference_defaults(self):
        s = scenario_from_dict({})
        assert s.camera.focal_length_mm == 5.0
        assert s.camera.pixel_edge_mm == 7.1e-3
        assert s.camera.fov_full_angle_deg == 120.0
        assert s.fixture.radius_mm == 85.0  # 170 mm diameter
        assert s.fixture.area_mm2 == 22700.0
        assert s.led_spacing_cm == 150.0
        assert s.room.ceiling_height_cm == 300.0

    def test_fov_out_of_range_rejected(self):
        with pytest.raises((ScenarioError, ValueError)):
            scenario_from_dict({"camera": {"fov_full_angle_deg": 200.0}})

    def test_spacing_default_150(self):
        s = scenario_from_dict({"led_grid": {"origin_cm": [75, 75]}})
        assert s.led_spacing_cm == 150.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError, match="bogus"):
            scenario_from_dict({"bogus": 1})
        with pytest.raises(ScenarioError, match="zoom"):
            scenario_from_dict({"camera": {"zoom": 2}})

    @pytest.mark.parametrize(
        "section,key,value",
        [("camera", "pixel_size_um", 1.0), ("fixture", "emitted_power_mw", 1500)],
    )
    def test_link_budget_keys_rejected(self, section, key, value):
        # ranging reads no radiometry, so the format has no such fields
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict({section: {key: value}})

    def test_readme_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) == 1
        data = json.loads(blocks[0])
        written = scenario_to_dict(scenario_from_dict(data))
        assert written.keys() == data.keys()
        for section in ("room", "camera", "fixture"):
            assert data[section].items() <= written[section].items()

    def test_round_trip(self):
        s = default_filtercmp_scenario()
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_trajectory_must_stay_inside(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(
                {"trajectory": {"waypoints_cm": [[-5.0, 10.0, 100.0]]}}
            )

    def test_waypoint_within_the_focal_length_rejected(self):
        # the 5 mm focal length puts the limit 0.5 cm below the 300 cm ceiling
        with pytest.raises(ScenarioError, match="299.96"):
            replace(
                default_scenario(),
                waypoints_cm=((75, 75, 299.96),),
                speed_cm_s=0,
                duration_s=2,
            )
        with pytest.raises(ScenarioError, match="299.96"):
            scenario_from_dict(
                {"trajectory": {"waypoints_cm": [[75, 75, 299.96]], "speed_cm_s": 0},
                 "duration_s": 2}
            )

    def test_waypoint_beyond_the_focal_length_runs(self):
        s = replace(
            default_scenario(), waypoints_cm=((75, 75, 299.4),), speed_cm_s=0, duration_s=2
        )
        assert len(run_tracking(s)) == s.tick_count()

    def test_grid_count(self):
        # 1219 cm span, origin 75, spacing 150: 8 positions per axis
        assert len(default_scenario().build_luminaires()) == 64

    def test_explicit_luminaires(self):
        s = scenario_from_dict({"luminaires": [[75, 75], [225, 75], [75, 225]]})
        lums = s.build_luminaires()
        assert [(l.anchor.x, l.anchor.y) for l in lums] == [(75, 75), (225, 75), (75, 225)]


class TestTrajectory:
    def test_static_single_waypoint(self):
        s = replace(default_scenario(), waypoints_cm=((500.0, 500.0, 100.0),))
        assert trajectory_point(s, 10.0) == Point3(500, 500, 100)

    def test_constant_speed_spacing(self):
        s = default_scenario()
        pts = [trajectory_point(s, float(t)) for t in range(10)]
        gaps = [
            math.dist(a.as_tuple(), b.as_tuple()) for a, b in zip(pts, pts[1:])
        ]
        assert all(g == pytest.approx(10.0, abs=1e-9) for g in gaps)

    def test_clamps_at_end(self):
        s = replace(
            default_scenario(),
            waypoints_cm=((100.0, 100.0, 100.0), (110.0, 100.0, 100.0)),
        )
        assert trajectory_point(s, 1e6) == Point3(110, 100, 100)


class TestRunTracking:
    def test_zero_noise_static_is_exact(self):
        s = replace(
            default_scenario(),
            waypoints_cm=((600.0, 600.0, 100.0),),
            speed_cm_s=0.0,
            pixel_sigma=0.0,
            duration_s=5.0,
        )
        records = run_tracking(s)
        assert len(records) == 5
        for r in records:
            assert not r.gap
            assert r.raw_err_cm < 1e-6

    def test_fifty_ticks(self):
        s = replace(default_scenario(), pixel_sigma=0.0)
        records = run_tracking(s)
        assert len(records) == 50
        assert records[0].cold_start
        assert not any(r.cold_start for r in records[1:])

    def test_consecutive_truths_ten_cm_apart(self):
        s = replace(default_scenario(), pixel_sigma=0.0)
        records = run_tracking(s)
        for a, b in zip(records, records[1:]):
            step = math.hypot(b.truth.x - a.truth.x, b.truth.y - a.truth.y)
            assert step == pytest.approx(10.0, abs=1e-9)

    def test_estimate_spacing_after_convergence(self):
        s = replace(default_scenario(), pixel_sigma=30.0)
        records = run_tracking(s)
        spacing = [
            math.hypot(b.filtered.x - a.filtered.x, b.filtered.y - a.filtered.y)
            for a, b in zip(records[10:], records[11:])
        ]
        assert 9.0 <= float(np.mean(spacing)) <= 10.5

    def test_deterministic(self):
        s = default_scenario()
        a = run_tracking(s)
        b = run_tracking(s)
        assert a == b

    def test_visibility_gap_ticks_flagged(self, tmp_path):
        # three fixtures bunched in a far corner: the static camera sees none
        s = replace(
            default_scenario(),
            explicit_led_xy_cm=((1100.0, 1100.0), (1150.0, 1100.0), (1100.0, 1150.0)),
            waypoints_cm=((100.0, 100.0, 100.0),),
            speed_cm_s=0.0,
            duration_s=3.0,
        )
        records = run_tracking(s)
        assert all(r.gap for r in records)
        assert all(math.isnan(r.raw_err_cm) for r in records)
        path = tmp_path / "track.csv"
        write_track_csv(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[3] == "nan"


def _cold(fn, *args):
    """fn(*args) as a new process would run it, with no ceiling cached."""
    harness._ceiling_cache.clear()
    return fn(*args)


class TestCeilingCache:
    BASE = replace(default_scenario(), duration_s=6.0)

    @pytest.mark.parametrize(
        "other",
        [
            replace(BASE, camera=replace(BASE.camera, focal_length_mm=6.0)),
            replace(BASE, fixture=replace(BASE.fixture, radius_mm=100.0, area_mm2=None)),
        ],
        ids=["focal_length", "fixture"],
    )
    def test_a_changed_ceiling_is_rebuilt(self, other):
        cold_base, cold_other = _cold(run_tracking, self.BASE), _cold(run_tracking, other)
        assert cold_other != cold_base
        harness._ceiling_cache.clear()
        assert run_tracking(self.BASE) == cold_base
        assert run_tracking(other) == cold_other
        assert run_tracking(self.BASE) == cold_base

    def test_filter_comparison_cold_and_warm(self):
        s = default_filtercmp_scenario()
        cold = _cold(run_filter_comparison, s, 5)
        assert run_filter_comparison(s, 5) == cold


class TestViewWindow:
    """The fixtures within reach, observed, give the sightings of the full
    ceiling: the window drops only fixtures outside the view cone."""

    SCENARIO = default_scenario()
    CEILING = SCENARIO.room.ceiling_height_cm

    def _same_sightings(self, position: Point3, seed: int):
        camera = self.SCENARIO.camera
        ceiling = harness._ceiling(self.SCENARIO)
        pose = Pose(position)
        full = observe_scene(ceiling.luminaires, pose, camera, 100.0, np.random.default_rng(seed))
        near = observe_scene(
            ceiling.within_reach(position), pose, camera, 100.0, np.random.default_rng(seed)
        )
        assert near == full

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.floats(-100, 1300),
        y=st.floats(-100, 1300),
        z=st.floats(0, 299.0),
        seed=st.integers(0, 2**32),
    )
    def test_random_positions(self, x, y, z, seed):
        self._same_sightings(Point3(x, y, z), seed)

    @settings(max_examples=100, deadline=None)
    @given(
        fixture=st.integers(0, 63),
        off_deg=st.floats(-1e-6, 1e-6),
        azimuth=st.floats(0, 2 * math.pi),
        dz=st.floats(1.0, 300.0),
        seed=st.integers(0, 2**32),
    )
    def test_positions_at_the_cone_edge(self, fixture, off_deg, azimuth, dz, seed):
        # a fixture seen at the cone's semi-angle, give or take rounding
        anchor = self.SCENARIO.build_luminaires()[fixture].anchor
        theta = math.radians(self.SCENARIO.camera.fov_semi_angle_deg + off_deg)
        r = dz * math.tan(theta)
        position = Point3(
            anchor.x - r * math.cos(azimuth), anchor.y - r * math.sin(azimuth), self.CEILING - dz
        )
        self._same_sightings(position, seed)


class TestBerSweep:
    def test_zero_db_theory_point(self):
        points = run_ber_sweep([0.0], 10_000, seed=1)
        assert points[0].ber_theory == pytest.approx(0.1587, abs=1e-4)

    def test_sim_tracks_theory(self):
        n = 50_000
        for p in run_ber_sweep([0.0, 6.0, 9.0], n, seed=3):
            margin = 3.0 * math.sqrt(p.ber_theory * (1 - p.ber_theory) / n)
            assert abs(p.ber_sim - p.ber_theory) <= margin

    def test_theory_column_monotone(self):
        points = run_ber_sweep(list(range(0, 16)), 10_000, seed=1)
        theories = [p.ber_theory for p in points]
        assert all(b < a for a, b in zip(theories, theories[1:]))

    def test_rejects_tiny_runs(self):
        with pytest.raises(ValueError):
            run_ber_sweep([0.0], 0, seed=1)


class TestRangeSweep:
    def test_reference_boundaries(self):
        s = default_scenario()
        fixture = s.fixture.make_luminaire(1, Point3(0, 0, 300))
        lo, hi = range_boundaries_m(s.camera, fixture)
        assert lo == pytest.approx(53.05, abs=0.1)
        assert hi == pytest.approx(106.1, abs=0.1)

    def test_regimes_partition_without_interleaving(self):
        s = default_scenario()
        fixture = s.fixture.make_luminaire(1, Point3(0, 0, 300))
        points = run_range_sweep(s.camera, fixture, np.linspace(1.0, 120.0, 240))
        names = [p.regime for p in points]
        order = [FeasibilityRegime.FULL, FeasibilityRegime.DEGRADED, FeasibilityRegime.IMPOSSIBLE]
        assert sorted(names, key=order.index) == names

    def test_boundary_classification(self):
        s = default_scenario()
        fixture = s.fixture.make_luminaire(1, Point3(0, 0, 300))
        lo, hi = range_boundaries_m(s.camera, fixture)
        points = run_range_sweep(
            s.camera, fixture, [lo - 0.01, lo + 0.01, hi - 0.01, hi + 0.01]
        )
        assert [p.regime for p in points] == [
            FeasibilityRegime.FULL,
            FeasibilityRegime.DEGRADED,
            FeasibilityRegime.DEGRADED,
            FeasibilityRegime.IMPOSSIBLE,
        ]

    def test_unsorted_grid_rejected(self):
        s = default_scenario()
        fixture = s.fixture.make_luminaire(1, Point3(0, 0, 300))
        with pytest.raises(ValueError):
            run_range_sweep(s.camera, fixture, [10.0, 5.0])


class TestFilterComparison:
    def test_both_curves_start_at_one(self):
        points = run_filter_comparison(default_filtercmp_scenario(), ensemble_size=10)
        assert points[0].err_kf_norm == pytest.approx(1.0, abs=1e-12)
        assert points[0].err_raw_norm == pytest.approx(1.0, abs=1e-12)

    def test_filter_curve_decays(self):
        points = run_filter_comparison(default_filtercmp_scenario(), ensemble_size=20)
        kf = [p.err_kf_norm for p in points]
        # ensemble mean decays to a small steady state; allow sampling wiggle
        assert all(b <= a + 0.02 for a, b in zip(kf, kf[1:]))
        assert min(kf) < 0.2

    def test_requires_distance_noise(self):
        with pytest.raises(ValueError):
            run_filter_comparison(default_scenario(), ensemble_size=2)

    def test_filtered_energy_beats_raw(self):
        # delivered-position errors: the filter must not lose to the raw solver
        points = run_filter_comparison(default_filtercmp_scenario(), ensemble_size=10)
        kf_rms = math.sqrt(float(np.mean([p.err_kf_norm**2 for p in points])))
        raw_rms = math.sqrt(float(np.mean([p.err_raw_norm**2 for p in points])))
        assert kf_rms <= raw_rms


class TestVisibilityGuarantee:
    def test_interior_points_see_three_fixtures(self):
        scan = visibility_scan(default_scenario())
        assert scan.ok
        assert scan.min_visible >= 3


class TestCsvWriters:
    def test_golden_headers(self, tmp_path):
        assert TRACK_HEADER == "t_s,true_x,true_y,raw_x,raw_y,kf_x,kf_y,raw_err,kf_err,visible"
        assert BER_HEADER == "snir_db,ber_sim,ber_theory"
        assert RANGE_HEADER == "d_m,eta,regime"
        assert FILTERCMP_HEADER == "t_s,err_kf_norm,err_raw_norm"

    def test_track_csv_shape(self, tmp_path):
        s = replace(default_scenario(), duration_s=5.0)
        records = run_tracking(s)
        path = tmp_path / "track.csv"
        write_track_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRACK_HEADER
        assert len(lines) == 6
        assert all(len(line.split(",")) == 10 for line in lines[1:])

    def test_deterministic_bytes(self, tmp_path):
        s = replace(default_scenario(), duration_s=5.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_track_csv(run_tracking(s), p1)
        write_track_csv(run_tracking(s), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_range_csv(self, tmp_path):
        s = default_scenario()
        fixture = s.fixture.make_luminaire(1, Point3(0, 0, 300))
        points = run_range_sweep(s.camera, fixture, [10.0, 60.0, 110.0])
        path = tmp_path / "range.csv"
        write_range_csv(points, path)
        lines = path.read_text().splitlines()
        assert lines[0] == RANGE_HEADER
        assert lines[1].endswith(",full")
        assert lines[2].endswith(",degraded")
        assert lines[3].endswith(",impossible")
