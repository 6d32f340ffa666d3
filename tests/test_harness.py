import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from occloc import harness
from occloc.cli import _write_outputs
from occloc.harness import (
    MAX_FIXTURES,
    MAX_TICKS,
    SCAN_MARGIN_CM,
    SCAN_STEP_CM,
    FilterComparisonPoint,
    FixtureSpec,
    Scenario,
    ScenarioError,
    VisibilityScan,
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
)
from occloc.imaging import FeasibilityRegime, distance_from_pixels, observe_scene
from occloc.geometry import Point3, Pose, RoomConfig
from occloc.server import MAX_DISTANCE_MM, MIN_DISTANCE_MM, LedRegistry
from occloc.solver import estimate_position, trilaterate_collinear
from occloc.tracker import KalmanConfig


def _slots(value, path=()):
    """Every place in a scenario file, with the value there: each object key,
    and the first entry of each list."""
    yield path, value
    if type(value) is dict:
        for key, inner in value.items():
            yield from _slots(inner, (*path, key))
    elif type(value) is list and value:
        yield from _slots(value[0], (*path, 0))


# a scenario file that sets every field; the circular fixture ignores width_mm
_FULL_FILE = scenario_to_dict(replace(default_scenario(), explicit_led_xy_cm=((75.0, 75.0),)))
_FULL_FILE["fixture"]["width_mm"] = 120.0


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

    def test_readme_example_writes_what_it_wrote_before(self):
        """The manifest echo of the README scenario, pinned value by value and
        type by type: room, camera and fixture keep the file's ints, and every
        other number is written as a float."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        data = json.loads(re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)[0])
        expected = {
            "room": {"width_cm": 1219, "depth_cm": 1219, "ceiling_height_cm": 300},
            "camera": {"focal_length_mm": 5, "pixel_edge_mm": 0.0071, "fov_full_angle_deg": 120},
            "fixture": {"shape": "circular", "radius_mm": 85, "width_mm": None,
                        "height_mm": None, "area_mm2": 22700},
            "led_grid": {"spacing_cm": 150.0, "origin_cm": [75.0, 75.0]},
            "luminaires": [[75.0, 75.0], [225.0, 75.0]],
            "trajectory": {"waypoints_cm": [[300.0, 300.0, 100.0], [900.0, 900.0, 100.0]],
                           "speed_cm_s": 10.0},
            "sampling_hz": 1.0,
            "duration_s": 50.0,
            "noise": {"pixel_sigma": 100.0, "distance_sigma_cm": 0.0},
            "seed": 1,
        }
        written = scenario_to_dict(scenario_from_dict(data))
        assert json.dumps(written, sort_keys=True) == json.dumps(expected, sort_keys=True)

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

    # where each value sits in a scenario file
    NUMBER_PATHS = {
        "speed": ("trajectory", "speed_cm_s"),
        "sampling": ("sampling_hz",),
        "duration": ("duration_s",),
        "spacing": ("led_grid", "spacing_cm"),
        "pixel_sigma": ("noise", "pixel_sigma"),
        "distance_sigma": ("noise", "distance_sigma_cm"),
        "room": ("room", "width_cm"),
        "camera": ("camera", "pixel_edge_mm"),
        "fixture": ("fixture", "radius_mm"),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        where=st.sampled_from([*NUMBER_PATHS, "origin", "luminaire"]),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite_values_rejected(self, where, value):
        if where == "origin":
            data = {"led_grid": {"origin_cm": [75.0, value]}}
        elif where == "luminaire":
            data = {"luminaires": [[75.0, 75.0], [value, 225.0], [75.0, 225.0]]}
        else:
            *outer, key = self.NUMBER_PATHS[where]
            data = {outer[0]: {key: value}} if outer else {key: value}
        with pytest.raises(ScenarioError):
            scenario_from_dict(json.loads(json.dumps(data)))

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"seed": 1.5}, "seed must be an integer, not 1.5"),
            ({"seed": True}, "seed must be an integer, not True"),
            ({"seed": "7"}, "seed must be an integer, not '7'"),
            ({"seed": None}, "seed must be an integer, not None"),
            ({"sampling_hz": True}, "sampling_hz must be a number, not True"),
            ({"duration_s": "5"}, "duration_s must be a number, not '5'"),
            ({"duration_s": 10**400}, "duration_s lies past the float range"),
            ({"noise": {"pixel_sigma": "1"}}, "noise.pixel_sigma must be a number, not '1'"),
            ({"noise": {"distance_sigma_cm": False}},
             "noise.distance_sigma_cm must be a number, not False"),
            ({"trajectory": {"speed_cm_s": "10"}},
             "trajectory.speed_cm_s must be a number, not '10'"),
            ({"trajectory": {"waypoints_cm": [[75, "75", 100]]}},
             "trajectory.waypoints_cm must be a number, not '75'"),
            ({"led_grid": {"spacing_cm": True}}, "led_grid.spacing_cm must be a number, not True"),
            ({"led_grid": {"origin_cm": ["75", 75]}},
             "led_grid.origin_cm must be a number, not '75'"),
            ({"luminaires": [[75, 75], [225, True], [75, 225]]},
             "luminaires must be a number, not True"),
            ({"room": {"width_cm": True}}, "room.width_cm must be a number, not True"),
            ({"room": {"ceiling_height_cm": "300"}},
             "room.ceiling_height_cm must be a number, not '300'"),
            ({"camera": {"focal_length_mm": True}},
             "camera.focal_length_mm must be a number, not True"),
            ({"camera": {"fov_full_angle_deg": "120"}},
             "camera.fov_full_angle_deg must be a number, not '120'"),
            ({"fixture": {"radius_mm": True}}, "fixture.radius_mm must be a number, not True"),
            ({"fixture": {"area_mm2": "22700"}}, "fixture.area_mm2 must be a number, not '22700'"),
            ({"room": {"depth_cm": 10**400}}, "room.depth_cm lies past the float range"),
            ({"fixture": {"shape": 1}}, "fixture.shape must be circular or rectangular, not 1"),
            ({"fixture": {"shape": "hexagon"}},
             "fixture.shape must be circular or rectangular, not 'hexagon'"),
            ({"noise": []}, "noise must be a JSON object, not []"),
            ({"trajectory": 5}, "trajectory must be a JSON object, not 5"),
            ({"camera": None}, "camera must be a JSON object, not None"),
            ({"luminaires": 5}, "luminaires must be a list, not 5"),
            ({"luminaires": [[75, 75], "225, 75"]}, "luminaires must be a list, not '225, 75'"),
            ({"trajectory": {"waypoints_cm": {"x": 300}}},
             "trajectory.waypoints_cm must be a list, not {'x': 300}"),
            ({"trajectory": {"waypoints_cm": [[300, 300]]}},
             "trajectory.waypoints_cm needs [x, y, z], not [300, 300]"),
        ],
        ids=["fractional-seed", "boolean-seed", "string-seed", "null-seed", "boolean-rate",
             "string-duration", "huge-duration", "string-noise", "boolean-noise",
             "string-speed", "string-waypoint", "boolean-spacing", "string-origin",
             "boolean-luminaire", "boolean-room", "string-room", "boolean-camera",
             "string-camera", "boolean-fixture", "string-fixture", "huge-room",
             "non-string-shape", "unknown-shape", "list-section", "number-section",
             "null-section", "number-luminaires", "string-luminaire", "object-waypoints",
             "short-waypoint"],
    )
    def test_mistyped_numbers_rejected(self, data, message):
        """float() and int() would take these, and the manifest would echo a
        value the file did not hold."""
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(data)
        assert str(info.value) == message

    # the sizes a fixture may leave null, and the null that stands for the grid
    NULLABLE = {"luminaires", "fixture.radius_mm", "fixture.width_mm", "fixture.height_mm",
                "fixture.area_mm2"}

    @settings(max_examples=400, deadline=None)
    @given(
        slot=st.sampled_from(list(_slots(_FULL_FILE))),
        wrong=st.one_of(
            st.booleans(), st.text(max_size=4), st.none(),
            st.lists(st.integers(0, 9), max_size=2),
            st.dictionaries(st.sampled_from(["x", "width_cm"]), st.integers(0, 9), max_size=1),
            st.integers(2**1024, 2**1100), st.integers(-(2**1100), -(2**1024)),
        ),
    )
    def test_a_wrong_kind_anywhere_names_its_path(self, slot, wrong):
        path, value = slot
        where = ".".join(k for k in path if type(k) is str) or "scenario"
        # skip values of the kind the slot takes
        assume(type(value) not in (dict, list) or type(wrong) is not type(value))
        assume(not (wrong is None and where in self.NULLABLE))
        assume(wrong not in ("circular", "rectangular"))
        bad = json.loads(json.dumps(_FULL_FILE))
        if path:
            holder = bad
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] = wrong
        else:
            bad = wrong
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(bad)
        assert where in str(info.value)

    @pytest.mark.parametrize("seed, expected", [(7, 7), (7.0, 7), (0, 0), (2**64 - 1, 2**64 - 1)])
    def test_integral_seeds_accepted(self, seed, expected):
        assert scenario_from_dict({"seed": seed}).seed == expected

    @pytest.mark.parametrize(
        "seed, message",
        [(1.5, "seed must be an integer, not 1.5"), (2.0, "seed must be an integer, not 2.0"),
         (True, "seed must be an integer, not True"), ("7", "seed must be an integer, not '7'"),
         (-1, "seed must fit an unsigned 64-bit value"),
         (2**64, "seed must fit an unsigned 64-bit value")],
        ids=["fractional", "integral-float", "boolean", "string", "negative", "past-64-bits"],
    )
    def test_a_seed_that_is_not_a_64_bit_int_is_refused(self, seed, message):
        """Scenario takes the seeds a scenario file takes, as ints: 1.5 and
        2.0 were once taken, and their run raised numpy's TypeError, True ran
        as seed 1 and "7" raised a bare TypeError. An ensemble member's seed,
        the one field a member does not take from its checked scenario, is
        checked alike."""
        for build in (lambda: Scenario(seed=seed), lambda: harness._with_seed(Scenario(), seed)):
            with pytest.raises(ScenarioError) as info:
                build()
            assert str(info.value) == message

    @settings(max_examples=30, deadline=None)
    @given(duration=st.floats(1e160, 1e300), rate=st.floats(1e160, 1e300))
    def test_an_infinite_tick_count_rejected(self, duration, rate):
        with pytest.raises(ScenarioError, match="finite"):
            replace(default_scenario(), duration_s=duration, sampling_hz=rate)

    def test_grid_count(self):
        # 1219 cm span, origin 75, spacing 150: 8 positions per axis
        assert len(default_scenario().build_luminaires()) == 64

    @pytest.mark.parametrize(
        "rate, duration",
        # 1e100 s between ticks: dt**4 overflowed in KalmanConfig at run time;
        # 1 / 5e-324 is inf, which it refused only when track ran
        [(1e-100, 1e100), (5e-324, 50.0)],
        ids=["dt4-overflows", "dt-is-inf"],
    )
    def test_a_sampling_interval_the_filter_cannot_hold_is_rejected(self, rate, duration):
        with pytest.raises(ScenarioError, match=f"sampling_hz={rate} gives a sampling interval"):
            scenario_from_dict({"sampling_hz": rate, "duration_s": duration})

    @pytest.mark.parametrize(
        "fixture, message",
        [
            ({"radius_mm": 1e300}, "the area of fixture.radius_mm=1e+300 lies past the float range"),
            # pi r^2 rounds to inf here without an OverflowError, and the
            # 0.1 % agreement test with area_mm2 passes against inf
            ({"radius_mm": 1e154}, "the area of fixture.radius_mm=1e+154 lies past the float range"),
            ({"shape": "rectangular", "width_mm": 1e200, "height_mm": 1e200},
             "the area of fixture.width_mm=1e+200 and fixture.height_mm=1e+200 lies past the "
             "float range"),
        ],
        ids=["radius-squared-overflows", "area-rounds-to-inf", "rectangle"],
    )
    def test_a_fixture_area_past_the_float_range_is_refused(self, fixture, message):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict({"fixture": fixture})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "fixture, message",
        [
            ({"radius_mm": -85}, "radius_mm=-85 must be finite and non-negative"),
            ({"shape": "rectangular", "width_mm": -10, "height_mm": -20},
             "width_mm=-10 must be finite and non-negative"),
            ({"shape": "rectangular", "width_mm": 10, "height_mm": -20},
             "height_mm=-20 must be finite and non-negative"),
        ],
        ids=["negative-radius", "negative-rectangle", "negative-height"],
    )
    def test_a_negative_fixture_size_is_refused(self, fixture, message):
        """These once loaded and tracked, since pi r^2 and w h are positive."""
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict({"fixture": fixture})
        assert str(info.value) == message

    @pytest.mark.parametrize("spacing", [20.0, 2.0])
    def test_a_grid_past_the_fixture_cap_is_refused_before_it_is_built(self, spacing):
        """A 650 m room at 20 cm spacing once loaded with 10,562,500 fixtures,
        about 3.4 GiB of luminaires once built."""
        fixture = harness.FixtureSpec()  # which stamps one fixture to check itself
        tracemalloc.start()
        try:
            with mock.patch.object(harness.FixtureSpec, "make_luminaire",
                                   side_effect=AssertionError("a fixture was built")):
                with pytest.raises(ScenarioError, match=f"more than the {MAX_FIXTURES}"):
                    Scenario(room=RoomConfig(65000.0, 65000.0, 300.0), fixture=fixture,
                             led_spacing_cm=spacing, led_origin_cm=(10.0, 10.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_the_fixture_cap_is_inclusive(self):
        # a 1 cm grid from the origin: 512 x 512 fixtures is the cap itself
        square = Scenario(room=RoomConfig(512.0, 512.0, 300.0), led_spacing_cm=1.0,
                          led_origin_cm=(0.0, 0.0), waypoints_cm=((80.0, 80.0, 100.0),))
        assert MAX_FIXTURES == 512 * 512
        with pytest.raises(ScenarioError, match="places 262656 fixtures"):
            replace(square, room=RoomConfig(513.0, 512.0, 300.0))
        with pytest.raises(ScenarioError, match="places 262145 fixtures"):
            replace(square, explicit_led_xy_cm=((75.0, 75.0),) * (MAX_FIXTURES + 1))

    def test_the_tick_cap_is_inclusive_and_refused_at_construction(self):
        """{"duration_s": 1e12} once loaded with 10**12 ticks, about 1.9 KB
        each once tracked. Only construction runs here."""
        assert scenario_from_dict({"duration_s": MAX_TICKS}).tick_count() == MAX_TICKS
        for duration in (MAX_TICKS + 1, 1e12):
            with pytest.raises(ScenarioError, match=f"ticks, more than the {MAX_TICKS} a run"):
                scenario_from_dict({"duration_s": duration})

    def test_a_hall_is_within_the_fixture_cap(self):
        # perfbench's hall: 200 m square under a 150 cm grid
        hall = Scenario(room=RoomConfig(20000.0, 20000.0, 300.0), led_spacing_cm=150.0,
                        waypoints_cm=((500.0, 500.0, 100.0),))
        assert len(hall.build_luminaires()) == 17_689

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"luminaires": [[-10, 75], [225, 75], [75, 225]]},
             r"fixture \(-10.0, 75.0\) broadcasts x_cm=-10, which does not fit 16 bits"),
            ({"luminaires": [[75, 75], [225, 75], [75, -0.6]]},
             r"fixture \(75.0, -0.6\) broadcasts y_cm=-1,"),
            ({"luminaires": [[75.2, 75], [75.4, 75], [75, 225]]},
             r"fixtures \(75.2, 75.0\) and \(75.4, 75.0\) both broadcast \(75, 75\)"),
            ({"room": {"width_cm": 70000}, "luminaires": [[66000, 75], [225, 75], [75, 225]]},
             r"fixture \(66000.0, 75.0\) broadcasts x_cm=66000"),
            # round() takes halves to even: 1.5 and 2.5 both broadcast 2
            ({"led_grid": {"spacing_cm": 1.0, "origin_cm": [1.5, 75]}},
             r"fixtures \(1.5, 75.0\) and \(2.5, 75.0\) both broadcast \(2, 75\)"),
            ({"led_grid": {"spacing_cm": 0.5, "origin_cm": [75, 75]}},
             r"fixtures \(75.5, 75.0\) and \(76.0, 75.0\) both broadcast \(76, 75\)"),
            ({"room": {"width_cm": 70000}, "led_grid": {"spacing_cm": 150}},
             r"fixture \(65625.0, 75.0\) broadcasts x_cm=65625"),
            ({"led_grid": {"spacing_cm": 1e-9}}, "more than 65536 fixtures on one grid axis"),
            # numpy could not size this axis, and validate printed only its
            # "Maximum allowed size exceeded"
            ({"led_grid": {"origin_cm": [75, 1e300]}},
             r"led_origin_cm=\(75.0, 1e\+300\) lies beyond the 65536 cm"),
            # this grid's axis was empty, and the scenario loaded with no fixture
            ({"led_grid": {"origin_cm": [1e17, 75]}}, r"led_origin_cm=\(1e\+17, 75.0\)"),
            ({"led_grid": {"origin_cm": [-1e300, 75]}}, r"led_origin_cm=\(-1e\+300, 75.0\)"),
        ],
        ids=["negative", "rounds-negative", "clash", "past-16-bits", "half-to-even",
             "sub-cm-grid", "grid-past-16-bits", "grid-too-fine", "origin-past-numpy",
             "origin-empties-axis", "origin-far-negative"],
    )
    def test_fixtures_must_broadcast_distinct_16_bit_coordinates(self, data, message):
        with pytest.raises(ScenarioError, match=message):
            scenario_from_dict(data)

    def test_the_16_bit_edges_are_accepted(self):
        # 65535.4 broadcasts 65535, and -0.5 rounds to 0
        scenario = scenario_from_dict(
            {"room": {"width_cm": 65536}, "luminaires": [[65535.4, 75], [0, 0], [-0.5, 225]]}
        )
        registry = LedRegistry.from_luminaires(scenario.build_luminaires())
        assert registry.lookup(65535, 75).x == 65535.4
        assert registry.lookup(0, 225).x == -0.5

    @pytest.mark.parametrize("name", ["width_cm", "depth_cm", "ceiling_height_cm"])
    def test_the_room_spans_at_most_16_bits(self, name):
        """No broadcast names a fixture past 65,535 cm, and visibility_scan
        once asked numpy for about 745 GiB to scan a room 1e12 cm deep. A
        1e12 cm ceiling passed, and track then failed on the solver's anchor
        bound."""
        data = {"room": {name: 1e12}, "luminaires": [[100, 100], [200, 100], [100, 200]]}
        with pytest.raises(ScenarioError,
                           match=rf"room\.{name}=1000000000000\.0 exceeds the 65536 cm"):
            scenario_from_dict(data)
        data["room"][name] = 2**16
        assert getattr(scenario_from_dict(data).room, name) == 2**16

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
        _write_outputs(str(tmp_path), "track", records, False)
        lines = (tmp_path / "track.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[3] == "nan"

    @pytest.mark.parametrize("pixel_sigma, distance_sigma_cm", [(0.0, 0.0), (100.0, 5.0)])
    def test_empty_ceiling_gives_gap_ticks(self, pixel_sigma, distance_sigma_cm):
        s = replace(default_scenario(), explicit_led_xy_cm=(), duration_s=4.0,
                    pixel_sigma=pixel_sigma, distance_sigma_cm=distance_sigma_cm)
        records = _cold(run_tracking, s)
        assert len(records) == 4
        assert all(r.gap and r.visible == 0 and r.raw is None for r in records)

    @pytest.mark.parametrize("pixel_sigma", [0.0, 0.1])
    def test_sightings_under_one_pixel_are_not_ranged(self, pixel_sigma):
        """A 1 mm downlight projects under 1 px (IMPOSSIBLE) from 2 m on, so
        every tick is a gap, though each sees its fixtures; each tick was once
        ranged and solved from the sub-pixel areas."""
        s = replace(default_scenario(), fixture=FixtureSpec(radius_mm=1.0, area_mm2=None),
                    duration_s=4.0, pixel_sigma=pixel_sigma)
        luminaire = s.fixture.make_luminaire(1, Point3(0.0, 0.0, 300.0))
        assert range_boundaries_m(s.camera, luminaire)[1] < 2.0
        records = _cold(run_tracking, s)
        assert all(r.gap and r.visible >= 3 for r in records)


def _cold(fn, *args):
    """fn(*args) as a new process would run it, with no walk (or ceiling) cached."""
    harness._walk.cache_clear()
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
        assert run_tracking(self.BASE) == cold_base
        assert run_tracking(other) == cold_other
        assert run_tracking(self.BASE) == cold_base

    def test_filter_comparison_cold_and_warm(self):
        s = default_filtercmp_scenario()
        cold = _cold(run_filter_comparison, s, 5)
        assert run_filter_comparison(s, 5) == cold


class TestWalkCache:
    """The noise-free walk is cached per process and rebuilt when anything it
    depends on changes; it holds nothing that depends on the seed or noise."""

    BASE = replace(default_scenario(), duration_s=8.0, distance_sigma_cm=2.0)

    @pytest.mark.parametrize(
        "other",
        [
            replace(BASE, waypoints_cm=((300.0, 300.0, 100.0), (900.0, 300.0, 100.0))),
            replace(BASE, speed_cm_s=25.0),
            replace(BASE, sampling_hz=2.0),
            replace(BASE, duration_s=9.0),
            replace(BASE, led_spacing_cm=140.0),
        ],
        ids=["waypoints", "speed", "sampling", "duration", "ceiling"],
    )
    def test_a_changed_walk_is_rebuilt(self, other):
        cold_base, cold_other = _cold(run_tracking, self.BASE), _cold(run_tracking, other)
        assert cold_other != cold_base
        assert run_tracking(self.BASE) == cold_base
        assert run_tracking(other) == cold_other
        assert harness._walk.cache_info().currsize == 1

    @pytest.mark.parametrize("pixel_sigma", [0.0, 100.0])
    def test_members_with_other_seeds_share_the_walk(self, pixel_sigma):
        base = replace(self.BASE, pixel_sigma=pixel_sigma)
        for seed in (3, 4):
            member = replace(base, seed=seed)
            cold = _cold(run_tracking, member)
            # warms the walk with other noise
            run_tracking(replace(base, seed=seed + 100, pixel_sigma=50.0, distance_sigma_cm=9.0))
            misses = harness._walk.cache_info().misses
            assert run_tracking(member) == cold
            assert harness._walk.cache_info().misses == misses

    def test_signed_zero_waypoint_warm_equals_cold(self):
        # -0.0 == 0.0, so the two scenarios are one key of the walk cache;
        # repr tells the signs apart where == does not
        plus = replace(self.BASE, waypoints_cm=((0.0, 300.0, 100.0),), speed_cm_s=0.0)
        minus = replace(plus, waypoints_cm=((-0.0, 300.0, 100.0),))
        for first, second in ((plus, minus), (minus, plus)):
            cold = _cold(run_tracking, second)
            _cold(run_tracking, first)  # the walk cache now holds first's walk
            assert repr(run_tracking(second)) == repr(cold)

    def test_walk_matches_the_trajectory(self):
        s = self.BASE
        ceiling, walk = _cold(harness._walk, harness._walk_key(s))
        assert [t.t_s for t in walk] == [k / s.sampling_hz for k in range(s.tick_count())]
        assert [t.truth for t in walk] == [trajectory_point(s, t.t_s) for t in walk]
        for tick in walk:
            seen = observe_scene(ceiling.luminaires, Pose(tick.truth), s.camera)
            assert [sig.led_id for sig in seen] == [lum.led_id for lum in tick.in_view]


class TestCachedRanges:
    """Without pixel noise a run takes each tick's ranged distances from the
    walk, and adds its distance noise to them one by one."""

    BASE = replace(default_scenario(), duration_s=8.0, pixel_sigma=0.0, distance_sigma_cm=5.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32), sigma=st.floats(0.0, 50.0), other_seed=st.integers(0, 2**32))
    def test_cold_equals_warm(self, seed, sigma, other_seed):
        s = replace(self.BASE, seed=seed, distance_sigma_cm=sigma)
        cold = _cold(run_tracking, s)
        run_tracking(replace(s, seed=other_seed))  # the walk is warm now
        hits = harness._walk.cache_info().hits
        assert repr(run_tracking(s)) == repr(cold)
        assert harness._walk.cache_info().hits == hits + 1

    def test_distances_are_the_scalar_inversions(self):
        ceiling, walk = _cold(harness._walk, harness._walk_key(self.BASE))
        for tick in walk:
            seen = observe_scene(tick.in_view, Pose(tick.truth), self.BASE.camera)
            ranged = [sig for sig in seen if 1.0 <= sig.pixel_area < math.inf]
            assert tuple(zip(tick.x_cm, tick.y_cm)) == tuple(
                ceiling.coords[sig.led_id] for sig in ranged
            )
            assert tick.dists_mm == tuple(
                distance_from_pixels(ceiling.tau_mm, sig.pixel_area) for sig in ranged
            )

    def test_noise_sum_equals_the_scalar_loop(self, monkeypatch):
        s = self.BASE
        sent = []
        ingest = harness.LightingServer.ingest

        def recording(server, packet):
            sent.append(list(packet.distance_mm))
            return ingest(server, packet)

        monkeypatch.setattr(harness.LightingServer, "ingest", recording)
        run_tracking(s)
        ceiling, walk = harness._walk(harness._walk_key(s))
        rng = np.random.default_rng(s.seed)
        expected = []
        for tick in walk:
            seen = observe_scene(tick.in_view, Pose(tick.truth), s.camera)
            dists = [distance_from_pixels(ceiling.tau_mm, sig.pixel_area)
                     for sig in seen if 1.0 <= sig.pixel_area < math.inf]
            noise = [float(rng.normal(0.0, 10.0 * s.distance_sigma_cm)) for _ in dists]
            expected.append([d + e for d, e in zip(dists, noise)])
        assert sent == [ds for ds in expected if ds]

    @staticmethod
    def _sent_and_scalar(s):
        """The columns of each packet run_tracking sends, and those of each
        packet a scalar loop that filters record by record would send, with
        the number of ticks where that loop keeps some records but not all,
        and the number where it keeps every record up to MAX_DISTANCE_MM."""
        sent = []
        ingest = harness.LightingServer.ingest

        def recording(server, packet):
            sent.append((packet.x_cm, packet.y_cm, packet.distance_mm))
            return ingest(server, packet)

        with mock.patch.object(harness.LightingServer, "ingest", recording):
            run_tracking(s)
        ceiling, walk = harness._walk(harness._walk_key(s))
        rng = np.random.default_rng(s.seed)
        expected, partial, only_far = [], 0, 0
        for tick in walk:
            if s.pixel_sigma > 0:
                seen = observe_scene(tick.in_view, Pose(tick.truth), s.camera, s.pixel_sigma, rng)
            else:
                seen = observe_scene(tick.in_view, Pose(tick.truth), s.camera)
            ranged = [sig for sig in seen if 1.0 <= sig.pixel_area < math.inf]
            x_cm, y_cm, distance_mm, far = [], [], [], 0
            for sig in ranged:
                d = (distance_from_pixels(ceiling.tau_mm, sig.pixel_area)
                     + float(rng.normal(0.0, 10.0 * s.distance_sigma_cm)))
                far += d >= MAX_DISTANCE_MM
                if MIN_DISTANCE_MM < d < MAX_DISTANCE_MM:
                    x, y = ceiling.coords[sig.led_id]
                    x_cm.append(x)
                    y_cm.append(y)
                    distance_mm.append(d)
            partial += 0 < len(distance_mm) < len(ranged)
            only_far += far > 0 and len(distance_mm) + far == len(ranged)
            if distance_mm:
                expected.append((tuple(x_cm), tuple(y_cm), tuple(distance_mm)))
        return sent, expected, partial, only_far

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        pixel_sigma=st.sampled_from([0.0, 100.0]),
        # about 1 distance in 8 goes negative, or most leave (1e-3, 1e7) mm
        distance_sigma_cm=st.floats(200.0, 400.0) | st.floats(5e5, 2e6),
    )
    def test_out_of_range_records_are_left_out_one_by_one(self, seed, pixel_sigma,
                                                          distance_sigma_cm):
        """Noise that pushes some distances, but not all, out of range: each
        packet sent holds the columns a scalar loop keeps, record by record."""
        s = replace(self.BASE, seed=seed, pixel_sigma=pixel_sigma,
                    distance_sigma_cm=distance_sigma_cm)
        sent, expected, partial, _ = self._sent_and_scalar(s)
        assert partial > 0
        assert sent == expected

    def test_records_past_the_range_are_left_out(self):
        """A tick whose distances all lie above MIN_DISTANCE_MM, some past
        MAX_DISTANCE_MM: symmetric noise reaches it only where few fixtures
        are in view, as under this three-fixture ceiling."""
        s = replace(self.BASE, explicit_led_xy_cm=((225.0, 225.0), (375.0, 225.0), (225.0, 375.0)),
                    duration_s=30.0, distance_sigma_cm=1e6, seed=0)
        sent, expected, _, only_far = self._sent_and_scalar(s)
        assert only_far > 0
        assert sent == expected

    def test_distances_are_a_tuple_of_floats(self):
        # every run reads the cached walk, so no run may change its distances
        _, walk = harness._walk(harness._walk_key(self.BASE))
        for tick in walk:
            assert type(tick.dists_mm) is tuple
            assert all(type(d) is float for d in tick.dists_mm)


class TestViewWindow:
    """The fixtures within reach, observed, give the sightings of the full
    ceiling: the window drops only fixtures outside the view cone."""

    SCENARIO = default_scenario()
    CEILING = SCENARIO.room.ceiling_height_cm

    def _same_sightings(self, position: Point3, seed: int):
        camera = self.SCENARIO.camera
        ceiling, _ = harness._walk(harness._walk_key(self.SCENARIO))
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

    @settings(max_examples=50, deadline=None)
    @given(
        db=st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, 4000.0]),
            st.floats(harness.MAX_SNIR_DB, 1e308, exclude_min=True),
            st.floats(-1e308, -harness.MAX_SNIR_DB, exclude_max=True),
        )
    )
    def test_rejects_a_value_beyond_the_bound(self, db):
        with pytest.raises(ValueError, match="SNIR"):
            run_ber_sweep([0.0, db], 10_000, seed=1)

    def test_the_bound_itself_runs(self):
        points = run_ber_sweep([-harness.MAX_SNIR_DB, harness.MAX_SNIR_DB], 10_000, seed=1)
        assert all(0.0 <= p.ber_sim <= 1.0 and 0.0 <= p.ber_theory <= 1.0 for p in points)

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

    @pytest.mark.parametrize("size", [2.5, 2.0, True, 0, -1, "3"])
    def test_an_ensemble_size_that_is_not_a_positive_int_is_refused(self, size):
        """2.5 and 2.0 once raised a bare TypeError from range(), and True
        ran one member."""
        with pytest.raises(ValueError, match="ensemble_size must be a positive integer"):
            run_filter_comparison(default_filtercmp_scenario(), size)

    def test_an_all_gap_tick_scores_nan_without_a_warning(self):
        """Fixtures in two far corners leave the middle of the walk out of
        view: those ticks score nan, as gap ticks do in track.csv, where
        nanmean warned of an empty slice; an all-gap tick 0 raises."""
        data = {"luminaires": [[75, 75], [225, 75], [75, 225],
                               [1100, 1100], [1000, 1100], [1100, 1000]],
                "trajectory": {"waypoints_cm": [[100, 100, 100], [1100, 1100, 100]],
                               "speed_cm_s": 50.0},
                "duration_s": 28.0, "noise": {"distance_sigma_cm": 5.0}}
        points = run_filter_comparison(scenario_from_dict(data), ensemble_size=3)
        gaps = [math.isnan(p.err_kf_norm) for p in points]
        assert gaps[0] is False and any(gaps) and not all(gaps)
        assert gaps == [math.isnan(p.err_raw_norm) for p in points]
        data["trajectory"]["waypoints_cm"][0] = [600, 600, 100]
        with pytest.raises(ValueError, match="no member has an estimate at tick 0"):
            run_filter_comparison(scenario_from_dict(data), ensemble_size=3)

    # a 4 x 3 fixture block in one corner: the walk leaves it at about tick 19,
    # and with strong pixel noise some members lose it earlier than others
    GAP_FILE = {"luminaires": [[x, y] for x in (75, 225, 375, 525) for y in (150, 300, 450)],
                "trajectory": {"waypoints_cm": [[100, 300, 100], [1100, 300, 100]],
                               "speed_cm_s": 40.0},
                "duration_s": 25.0, "noise": {"distance_sigma_cm": 5.0}}

    @pytest.mark.parametrize("pixel_sigma", [0.0, 8000.0])
    def test_equals_the_means_of_the_ensemble_arrays(self, pixel_sigma):
        """The per-tick running sums give, bit for bit, the means of the
        members' errors held as (ensemble, ticks) arrays with nan at the gaps:
        nansum down each column, divided by the column's member count."""
        s = replace(scenario_from_dict(self.GAP_FILE), pixel_sigma=pixel_sigma)
        size, n = 4, s.tick_count()
        truths = [trajectory_point(s, k / s.sampling_hz) for k in range(1, n)]
        err_kf, err_raw = np.full((size, n - 1), np.nan), np.full((size, n - 1), np.nan)
        for j in range(size):
            records = run_tracking(replace(s, seed=harness._member_seed(s.seed, j)))
            for k, (rec, truth) in enumerate(zip(records, truths)):
                if not rec.gap:
                    err_kf[j, k] = math.hypot(rec.predicted.x - truth.x, rec.predicted.y - truth.y)
                    err_raw[j, k] = math.hypot(rec.raw.x - truth.x, rec.raw.y - truth.y)
        count = np.count_nonzero(~np.isnan(err_kf), axis=0)
        assert (count == 0).any()
        assert pixel_sigma == 0 or ((0 < count) & (count < size)).any()
        with np.errstate(invalid="ignore"):
            mean_kf = np.nansum(err_kf, axis=0) / count
            mean_raw = np.nansum(err_raw, axis=0) / count
        expected = [
            FilterComparisonPoint(k / s.sampling_hz, float(mean_kf[k] / mean_kf[0]),
                                  float(mean_raw[k] / mean_raw[0]))
            for k in range(n - 1)
        ]
        assert repr(run_filter_comparison(s, size)) == repr(expected)

    def test_a_seed_near_the_top_of_its_range_runs(self):
        """base * 1_000_003 + member once left [0, 2**64) here, so a seed that
        track takes made the members' scenarios raise ScenarioError."""
        top = replace(default_filtercmp_scenario(), seed=2**64 - 1)
        points = run_filter_comparison(top, ensemble_size=2)
        assert len(points) == top.tick_count() - 1
        assert harness._member_seed(2**64 - 1, 1) == (2**64 - 1) * 1_000_003 % 2**64 + 1
        # smaller seeds keep the member seeds they always had
        assert harness._member_seed(7, 99) == 7 * 1_000_003 + 99

    def test_a_tick_0_error_of_zero_raises(self):
        # distance noise far below a float's resolution leaves a static
        # phone's every tick-0 solve exact, so there is no error to divide by
        s = replace(default_scenario(), waypoints_cm=((600.0, 600.0, 100.0),), speed_cm_s=0.0,
                    pixel_sigma=0.0, distance_sigma_cm=1e-300, duration_s=4.0)
        with pytest.raises(ValueError, match="nothing to normalize by"):
            run_filter_comparison(s, 3)

    def test_filtered_energy_beats_raw(self):
        # delivered-position errors: the filter must not lose to the raw solver
        points = run_filter_comparison(default_filtercmp_scenario(), ensemble_size=10)
        kf_rms = math.sqrt(float(np.mean([p.err_kf_norm**2 for p in points])))
        raw_rms = math.sqrt(float(np.mean([p.err_raw_norm**2 for p in points])))
        assert kf_rms <= raw_rms


def _whole_grid_scan(scenario: Scenario, camera_height_cm: float) -> VisibilityScan:
    """visibility_scan over one (points, fixtures, 2) array of offsets: the
    reference that the row-by-row scan must match."""
    anchors = np.array([[l.anchor.x, l.anchor.y] for l in scenario.build_luminaires()])
    anchors = anchors.reshape(-1, 2)
    dz = scenario.room.ceiling_height_cm - camera_height_cm
    reach = dz * math.tan(math.radians(scenario.camera.fov_semi_angle_deg))
    room = scenario.room
    xs = np.arange(SCAN_MARGIN_CM, room.width_cm - SCAN_MARGIN_CM + 1e-9, SCAN_STEP_CM)
    ys = np.arange(SCAN_MARGIN_CM, room.depth_cm - SCAN_MARGIN_CM + 1e-9, SCAN_STEP_CM)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    d2 = ((pts[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
    counts = (d2 <= reach * reach).sum(axis=1)
    worst = int(np.argmin(counts))
    return VisibilityScan(int(counts[worst]), (float(pts[worst, 0]), float(pts[worst, 1])),
                          bool(counts.min() >= 3))


class TestVisibilityGuarantee:
    def test_interior_points_see_three_fixtures(self):
        scan = visibility_scan(default_scenario())
        assert scan.ok
        assert scan.min_visible >= 3

    def test_memory_stays_below_the_whole_grid(self):
        # a 20 m room's whole grid of offsets, 186 x 186 points by 196
        # fixtures, takes over 100 MiB
        s = replace(default_scenario(), room=RoomConfig(2000.0, 2000.0, 300.0))
        tracemalloc.start()
        try:
            scan = visibility_scan(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scan.ok
        assert peak < 8 * 2**20

    def test_a_60_m_room_keeps_one_row_of_fixtures(self):
        # the scan once held a (ys x fixtures) offset matrix and an (xs x ys)
        # count array for the whole scan: 18.4 MiB here
        s = replace(default_scenario(), room=RoomConfig(6000.0, 6000.0, 300.0))
        tracemalloc.start()
        try:
            scan = visibility_scan(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scan == VisibilityScan(8, (75.0, 75.0), True)
        assert peak < 6 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.lists(st.tuples(st.integers(0, 1300), st.integers(0, 1300)),
                        max_size=16, unique=True),
        width=st.sampled_from([160.0, 700.0, 1219.0]),
        depth=st.sampled_from([300.0, 1000.0]),
        camera_height=st.sampled_from([0.0, 100.0, 250.0, 299.0]),
    )
    def test_matches_the_whole_grid_scan(self, layout, width, depth, camera_height):
        # whole-cm fixtures and camera heights give many ties in the counts,
        # so the first worst point in x-major order is what is checked
        s = replace(default_scenario(), room=RoomConfig(width, depth, 300.0),
                    explicit_led_xy_cm=tuple((float(x), float(y)) for x, y in layout),
                    waypoints_cm=((80.0, 80.0, 100.0),))
        assert visibility_scan(s, camera_height) == _whole_grid_scan(s, camera_height)


_HUGE = 10**400  # an int past the float range
_S = default_scenario()
_FIXTURE = _S.fixture.make_luminaire(1, Point3(0.0, 0.0, 300.0))
_ANCHORS = (Point3(0.0, 0.0, 300.0), Point3(100.0, 0.0, 300.0), Point3(0.0, 100.0, 300.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: KalmanConfig(dt_s=_HUGE), "dt_s must be finite"),
        (lambda: KalmanConfig(process_noise_intensity=_HUGE), "process_noise_intensity must be"),
        (lambda: Scenario(led_spacing_cm=_HUGE), "scenario values must be finite"),
        (lambda: Scenario(led_origin_cm=(_HUGE, 75.0)), "scenario values must be finite"),
        (lambda: Scenario(duration_s=_HUGE), "scenario values must be finite"),
        (lambda: Scenario(speed_cm_s=_HUGE), "scenario values must be finite"),
        (lambda: estimate_position(_ANCHORS, [_HUGE, 100.0, 100.0], _S.room), "finite, positive"),
        (lambda: trilaterate_collinear(_ANCHORS[:2], [_HUGE, 100.0]), "finite, positive"),
        (lambda: run_ber_sweep([_HUGE], 10_000, seed=1), "SNIR values must be finite"),
        (lambda: run_range_sweep(_S.camera, _FIXTURE, [1.0, _HUGE]), "must be finite"),
        (lambda: run_range_sweep(_S.camera, _FIXTURE, [math.nan]), "must be finite"),
        (lambda: run_range_sweep(_S.camera, _FIXTURE, [1.0, math.inf]), "must be finite"),
        (lambda: visibility_scan(_S, _HUGE), "camera height must be finite"),
        (lambda: visibility_scan(_S, math.nan), "camera height must be finite"),
        (lambda: visibility_scan(_S, -math.inf), "camera height must be finite"),
    ],
    ids=["kalman-dt", "kalman-q", "led-spacing", "led-origin", "duration", "speed",
         "estimate-position", "trilaterate-collinear", "ber-sweep", "range-sweep", "range-nan",
         "range-inf", "visibility-huge", "visibility-nan", "visibility-minus-inf"],
)
def test_a_value_that_is_not_finite_raises_value_error(call, message):
    """An int past the float range raises the ValueError that NaN raises,
    where each of these once raised OverflowError from a bare float() or
    math.isfinite. The range sweep once returned a NaN row, and the
    visibility scan reported NaN as 0 fixtures in view and -inf as every
    point seeing all 64."""
    with pytest.raises(ValueError, match=message):
        call()


# the float range's ends and a few steps between, drawn beside log-uniform values
_FLOAT_EXTREMES = (5e-324, 2.2e-308, 1e-154, 1e-12, 1e12, 1e154, 1e300, 1.7e308)


@st.composite
def _magnitude(draw, lo: float, hi: float):
    """A positive number: one time in ten a float extreme, else log-uniform
    over [lo, hi]."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_FLOAT_EXTREMES))
    return 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))


@st.composite
def _scenario_dicts(draw):
    room = {"width_cm": draw(_magnitude(100.0, 7e4)), "depth_cm": draw(_magnitude(100.0, 7e4)),
            "ceiling_height_cm": draw(_magnitude(50.0, 1e5))}
    # waypoints on the floor plan and below the ceiling, as fractions of the room
    unit = st.floats(0.0, 1.0)
    waypoints = [[draw(unit) * room["width_cm"], draw(unit) * room["depth_cm"],
                  draw(st.floats(0.0, 0.95)) * room["ceiling_height_cm"]]
                 for _ in range(draw(st.integers(1, 3)))]
    return {
        "room": room,
        "camera": {"focal_length_mm": draw(_magnitude(0.1, 100.0)),
                   "pixel_edge_mm": draw(_magnitude(1e-4, 0.1)),
                   "fov_full_angle_deg": draw(st.floats(1.0, 179.0))},
        "fixture": {"radius_mm": draw(_magnitude(1.0, 1e3)), "area_mm2": None},
        "led_grid": {"spacing_cm": draw(_magnitude(20.0, 2e3)),
                     "origin_cm": [draw(_magnitude(1.0, 500.0)), draw(_magnitude(1.0, 500.0))]},
        "trajectory": {"waypoints_cm": waypoints, "speed_cm_s": draw(_magnitude(0.1, 1e3))},
        "sampling_hz": draw(_magnitude(0.1, 100.0)),
        "duration_s": draw(_magnitude(0.5, 100.0)),
        "noise": {"pixel_sigma": draw(_magnitude(1e-3, 1e4)),
                  "distance_sigma_cm": draw(_magnitude(1e-3, 100.0))},
        "seed": draw(st.integers(0, 2**64 - 1)),
    }


# The budget each accepted scenario runs within: its ticks, its fixtures and
# the points of its visibility scan.
_FUZZ_TICKS, _FUZZ_FIXTURES, _FUZZ_SCAN_POINTS = 60, 5_000, 10_000


class TestAcceptedScenariosRun:
    @given(data=_scenario_dicts())
    @example(data={"room": {"ceiling_height_cm": 1e154}, "duration_s": 3})
    @example(data={"room": {"ceiling_height_cm": 1e12}, "duration_s": 3})
    @settings(max_examples=300, deadline=None)
    def test_track_is_finite_and_the_scan_returns_or_raises_a_typed_error(self, data):
        """The two examples passed validation, then track exited 1: an
        OverflowError from d^2 in pixel_count at 1e154 cm, and the solver's
        anchor bound at 1e12 cm."""
        try:
            s = scenario_from_dict(data)
        except ScenarioError:
            return
        (ox, oy), spacing = s.led_origin_cm, s.led_spacing_cm
        fixtures = (max(0.0, math.ceil((s.room.width_cm - ox) / spacing))
                    * max(0.0, math.ceil((s.room.depth_cm - oy) / spacing)))
        if s.tick_count() > _FUZZ_TICKS or fixtures > _FUZZ_FIXTURES:
            return
        for r in run_tracking(s):
            if not r.gap:
                points = (r.raw, r.filtered, r.predicted)
                assert all(math.isfinite(v) for p in points for v in p.as_tuple()), r
                assert math.isfinite(r.raw_err_cm) and math.isfinite(r.kf_err_cm), r
        if s.room.width_cm * s.room.depth_cm / SCAN_STEP_CM**2 > _FUZZ_SCAN_POINTS:
            return
        try:
            visibility_scan(s, camera_height_cm=max(wp[2] for wp in s.waypoints_cm))
        except ValueError:  # ScenarioError among them
            pass
