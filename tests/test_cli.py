import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import occloc
from occloc.cli import COMMANDS, MAX_BER_BITS, _write_outputs, main
from occloc.geometry import Point3
from occloc.harness import (
    default_filtercmp_scenario,
    default_scenario,
    run_filter_comparison,
    run_range_sweep,
    run_tracking,
)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def fast_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"duration_s": 5.0, "seed": 3}))
    return str(path)


class TestTrackCommand:
    def test_writes_csv_and_manifest(self, tmp_path, fast_scenario):
        out = tmp_path / "results"
        code = main(["track", "--scenario", fast_scenario, "--out", str(out)])
        assert code == 0
        assert (out / "track.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "track"
        assert manifest["seed"] == 3
        assert manifest["outputs"] == ["track.csv"]

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        code = main(["track", "--scenario", "/no/such/file.json", "--out", str(tmp_path)])
        assert code == 2
        assert "/no/such/file.json" in capsys.readouterr().err

    def test_directory_as_scenario_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["track", "--scenario", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"scenario file {tmp_path} cannot be read: Is a directory" in err
        assert not out.exists()

    def test_deeply_nested_scenario_exits_2(self, tmp_path, capsys):
        """The JSON parser raises RecursionError here, which once ended the
        command with a traceback and exit 1."""
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        out = tmp_path / "o"
        assert main(["track", "--scenario", str(bad), "--out", str(out)]) == 2
        assert f"scenario file {bad} is not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "validate"])
    @pytest.mark.parametrize("data", [{"sampling_hz": 1e-100, "duration_s": 1e100},
                                      {"sampling_hz": 5e-324}],
                             ids=["dt4-overflows", "dt-is-inf"])
    def test_sampling_interval_the_filter_cannot_hold_exits_2(self, tmp_path, capsys, command,
                                                               data):
        """validate once passed these and track failed at run time: with an
        uncaught OverflowError, or with exit 1."""
        bad = tmp_path / "slow.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert f"sampling_hz={data['sampling_hz']} gives a sampling interval" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "validate"])
    @pytest.mark.parametrize("rate", [1500, 3000])
    def test_a_rate_past_the_millisecond_clock_exits_2(self, tmp_path, capsys, command, rate):
        """validate once passed these, and track exited 1 when two ticks
        rounded to one millisecond stamp: "timestamp 1 does not advance past
        1" at 1500 Hz, "timestamp 0 does not advance past 0" at 3000 Hz."""
        bad = tmp_path / "fast.json"
        bad.write_text(json.dumps({"sampling_hz": rate, "duration_s": 0.02}))
        out = tmp_path / "o"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert f"sampling_hz={float(rate)} exceeds the 1000 Hz" in capsys.readouterr().err
        assert not out.exists()

    def test_a_rate_of_one_tick_a_millisecond_tracks(self, tmp_path):
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps({"sampling_hz": 1000, "duration_s": 0.02}))
        assert main(["track", "--scenario", str(fast), "--out", str(tmp_path / "o")]) == 0
        assert len(read(tmp_path / "o" / "track.csv").splitlines()) == 21

    @pytest.mark.parametrize("command", ["track", "range", "validate"])
    @pytest.mark.parametrize(
        "data, message",
        [
            ({"fixture": {"radius_mm": 1e300}},
             "the area of fixture.radius_mm=1e+300 lies past the float range"),
            ({"camera": {"focal_length_mm": 5e-324, "pixel_edge_mm": 7000}},
             "camera.focal_length_mm=5e-324, camera.pixel_edge_mm=7000 and the fixture's area "
             "give the ranging constant 0.0 mm, which is not positive and finite"),
            ({"camera": {"pixel_edge_mm": 5e-324}}, "give the ranging constant inf mm"),
            ({"camera": {"pixel_edge_mm": 1e300}},
             "camera.pixel_edge_mm=1e+300 square past the float range"),
            ({"camera": {"pixel_edge_mm": 1e-300}},
             "camera.pixel_edge_mm=1e-300 square past the float range"),
        ],
        ids=["area-overflows", "tau-underflows", "tau-overflows", "square-overflows",
             "square-underflows"],
    )
    def test_a_fixture_or_camera_that_cannot_range_exits_2(self, tmp_path, capsys, command,
                                                           data, message):
        """validate once ended with an OverflowError traceback or passed these,
        and track and range failed at run time with exit 1. The last two give
        a finite ranging constant, but pixel_count's squares of the pixel edge
        overflow or round to 0."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_pixel_noise_at_the_float_maximum_runs(self, tmp_path, capsys):
        """A noisy pixel area that overflows to inf is not ranged; track once
        exited 1 inverting it."""
        noisy = tmp_path / "noisy.json"
        noisy.write_text(json.dumps({"noise": {"pixel_sigma": 1.7e308}, "duration_s": 5.0}))
        assert main(["track", "--scenario", str(noisy), "--out", str(tmp_path / "o")]) == 0
        assert "runtime failure" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["track", "validate"])
    @pytest.mark.parametrize(
        "data, message",
        [
            ({"fixture": {"radius_mm": -85}}, "radius_mm=-85 must be finite and non-negative"),
            ({"fixture": {"shape": "rectangular", "width_mm": -10, "height_mm": -20}},
             "width_mm=-10 must be finite and non-negative"),
        ],
        ids=["negative-radius", "negative-rectangle"],
    )
    def test_a_negative_fixture_size_exits_2(self, tmp_path, capsys, command, data, message):
        """Both once loaded, and track ran them."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"camera": {"fov_full_angle_deg": 200}}))
        code = main(["track", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "fov" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [{"trajectory": {"speed_cm_s": float("nan")}}, {"sampling_hz": float("inf")},
         {"duration_s": float("inf")}, {"noise": {"pixel_sigma": float("nan")}}],
        ids=["speed-nan", "sampling-inf", "duration-inf", "pixel-sigma-nan"],
    )
    def test_non_finite_value_exits_2(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["track", "--scenario", str(bad), "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, message",
        [({"seed": 1.5}, "seed must be an integer"), ({"seed": "7"}, "seed must be an integer"),
         ({"duration_s": "5"}, "duration_s must be a number"),
         ({"sampling_hz": True}, "sampling_hz must be a number")],
        ids=["fractional-seed", "string-seed", "string-duration", "boolean-rate"],
    )
    def test_mistyped_number_exits_2(self, tmp_path, capsys, data, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["track", "--scenario", str(bad), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "validate"])
    @pytest.mark.parametrize(
        "data, message",
        [
            ({"luminaires": [[-10, 75], [225, 75], [75, 225]]}, "x_cm=-10"),
            ({"luminaires": [[75.2, 75], [75.4, 75], [75, 225]]}, "both broadcast (75, 75)"),
            ({"room": {"width_cm": 70000}, "luminaires": [[66000, 75], [225, 75], [75, 225]]},
             "x_cm=66000"),
        ],
        ids=["negative", "clash", "past-16-bits"],
    )
    def test_fixture_that_cannot_broadcast_exits_2(self, tmp_path, capsys, command, data, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_room_past_16_bits_exits_2(self, tmp_path, capsys):
        """validate once scanned this room, for which numpy was asked for
        about 745 GiB."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"room": {"depth_cm": 1e12},
                                   "luminaires": [[100, 100], [200, 100], [100, 200]]}))
        out = tmp_path / "o"
        assert main(["validate", "--scenario", str(bad), "--out", str(out)]) == 2
        assert "room.depth_cm=1000000000000.0 exceeds the 65536 cm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "track"])
    @pytest.mark.parametrize("height", [1e154, 1e12], ids=["d-squared-overflows", "anchor-bound"])
    def test_a_ceiling_past_the_room_bound_exits_2(self, tmp_path, capsys, command, height):
        """validate once passed both, and track exited 1: with an
        OverflowError traceback from d^2 in pixel_count at 1e154 cm, and with
        the solver's "anchor coordinates must lie under 1e+12 cm" at 1e12 cm."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"room": {"ceiling_height_cm": height}, "duration_s": 3}))
        out = tmp_path / "o"
        assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
        assert f"room.ceiling_height_cm={height!r} exceeds the 65536 cm" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_replay_is_byte_identical(self, tmp_path, fast_scenario):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["track", "--scenario", fast_scenario, "--out", str(out_a)]) == 0
        assert main(["track", "--scenario", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
        assert read(out_a / "track.csv") == read(out_b / "track.csv")

    def test_plot_flag_writes_svg(self, tmp_path, fast_scenario):
        out = tmp_path / "o"
        assert main(["track", "--scenario", fast_scenario, "--out", str(out), "--plot"]) == 0
        svg = (out / "track.svg").read_text()
        assert svg.startswith("<svg")


class TestSeedPrecedence:
    def test_flag_overrides_file(self, tmp_path, fast_scenario):
        out = tmp_path / "o"
        main(["track", "--scenario", fast_scenario, "--out", str(out), "--seed", "99"])
        assert json.loads((out / "manifest.json").read_text())["seed"] == 99

    def test_env_seed_when_file_silent(self, tmp_path, monkeypatch):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"duration_s": 5.0}))
        monkeypatch.setenv("OCC_SEED", "41")
        out = tmp_path / "o"
        main(["track", "--scenario", str(scenario), "--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["seed"] == 41

    def test_file_seed_beats_env(self, tmp_path, monkeypatch, fast_scenario):
        monkeypatch.setenv("OCC_SEED", "41")
        out = tmp_path / "o"
        main(["track", "--scenario", fast_scenario, "--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["seed"] == 3

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_flag_seed_exits_2(self, tmp_path, capsys, monkeypatch, seed):
        monkeypatch.delenv("OCC_SEED", raising=False)
        out = tmp_path / "o"
        assert main(["track", "--seed", seed, "--out", str(out)]) == 2
        assert "seed must fit an unsigned 64-bit value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("env_seed, flag", [("5", []), (None, ["--seed", "9"])])
    def test_a_seed_cannot_fold_into_a_non_object(self, tmp_path, capsys, monkeypatch,
                                                   env_seed, flag):
        if env_seed is None:
            monkeypatch.delenv("OCC_SEED", raising=False)
        else:
            monkeypatch.setenv("OCC_SEED", env_seed)
        scenario = tmp_path / "s.json"
        scenario.write_text("[1, 2]")
        out = tmp_path / "o"
        assert main(["track", "--scenario", str(scenario), "--out", str(out), *flag]) == 2
        assert "scenario must be a JSON object" in capsys.readouterr().err
        assert not out.exists()


class TestFiltercmpDefault:
    """Without --scenario, filtercmp runs the reference filter comparison."""

    def test_writes_the_reference_run(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OCC_SEED", raising=False)
        out = tmp_path / "o"
        assert main(["filtercmp", "--out", str(out), "--ensemble", "3"]) == 0
        expected = tmp_path / "expected"
        _write_outputs(str(expected), "filtercmp",
                       run_filter_comparison(default_filtercmp_scenario(), 3), False)
        assert read(out / "filtercmp.csv") == read(expected / "filtercmp.csv")
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7

    def test_takes_every_seed_that_track_takes(self, tmp_path, monkeypatch):
        """The members' seeds once left the 64 bits a seed holds, and this
        exited 2 with "seed must fit an unsigned 64-bit value"."""
        monkeypatch.delenv("OCC_SEED", raising=False)
        out = tmp_path / "o"
        seed = str(2**64 - 1)
        assert main(["filtercmp", "--out", str(out), "--ensemble", "2", "--seed", seed]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 2**64 - 1

    @pytest.mark.parametrize(
        "env_seed, flag, seed",
        [("5", [], 5), (None, ["--seed", "9"], 9), ("5", ["--seed", "9"], 9)],
    )
    def test_env_and_flag_change_the_seed(self, tmp_path, monkeypatch, env_seed, flag, seed):
        if env_seed is None:
            monkeypatch.delenv("OCC_SEED", raising=False)
        else:
            monkeypatch.setenv("OCC_SEED", env_seed)
        out = tmp_path / "o"
        assert main(["filtercmp", "--out", str(out), "--ensemble", "2", *flag]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed

    def test_manifest_replay_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OCC_SEED", raising=False)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["filtercmp", "--out", str(out_a), "--ensemble", "2", "--plot"]) == 0
        assert main(["filtercmp", "--scenario", str(out_a / "manifest.json"),
                     "--out", str(out_b), "--plot"]) == 0
        for name in ("filtercmp.csv", "filtercmp.svg", "manifest.json"):
            assert read(out_a / name) == read(out_b / name)


class TestPinnedDigests:
    """SHA-256 of reference outputs. The per-process caches (ceiling, walk,
    anchor geometries, covariance memos) must leave every byte as it was; the
    last digest also pins the order of the noise draws, pixel noise first,
    then distance noise."""

    def test_default_track_csv(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OCC_SEED", raising=False)
        assert main(["track", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256(read(tmp_path / "track.csv")).hexdigest() == (
            "9d556c7f569d7ac50d80038545594b1b2a0b38e154b076f48b98d74e593e42c3"
        )

    def test_default_filtercmp_csv(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OCC_SEED", raising=False)
        assert main(["filtercmp", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256(read(tmp_path / "filtercmp.csv")).hexdigest() == (
            "8e57ccf6a4cab7c969419da72f79bd3a83d5d0abc5a2c1f139b3c49a7e9157a2"
        )

    def test_default_ber_csv(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OCC_SEED", raising=False)
        assert main(["ber", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256(read(tmp_path / "ber.csv")).hexdigest() == (
            "4d189f39794d2f03b6a50f51185d3d55d119e72da9b21b8edd3350f1c8d0e363"
        )

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("track", "8d505d3f88c507bbb072235e05f37e4c4f17be5d02403d3a1589aafcba66f5bc"),
            ("ber", "5b56631acdf4ac581e58d06bf2aa7098ec7117b374c7b26d3d94650e2916f4ce"),
            ("range", "526879d3c5da47457f027a9ec1b050653a2018baa710299031e1bb91b75525e2"),
            ("filtercmp", "829ecbe4c93e4c09304361b6cface29fd5b30ab3cdd14e46317530a376c816f7"),
        ],
    )
    def test_default_chart(self, tmp_path, monkeypatch, command, digest):
        """Every chart, the two log-scale ones (ber, range) included."""
        monkeypatch.delenv("OCC_SEED", raising=False)
        assert main([command, "--out", str(tmp_path), "--plot"]) == 0
        assert hashlib.sha256(read(tmp_path / f"{command}.svg")).hexdigest() == digest

    def test_tracking_with_pixel_and_distance_noise(self, tmp_path):
        scenario = replace(default_scenario(), distance_sigma_cm=3.0, seed=11)
        assert scenario.pixel_sigma > 0
        _write_outputs(str(tmp_path), "track", run_tracking(scenario), False)
        assert hashlib.sha256(read(tmp_path / "track.csv")).hexdigest() == (
            "3ae2728cb2e7fff2d395965ca9a2691344a00f5da03ea79323780c0e8d03bbca"
        )


class TestCsvColumns:
    """Each command's CSV header and cells, as its COMMANDS row declares them."""

    def test_golden_headers(self):
        headers = {command: row[3][0] for command, row in COMMANDS.items() if row[3]}
        assert headers == {
            "track": "t_s,true_x,true_y,raw_x,raw_y,kf_x,kf_y,raw_err,kf_err,visible",
            "ber": "snir_db,ber_sim,ber_theory",
            "range": "d_m,eta,regime",
            "filtercmp": "t_s,err_kf_norm,err_raw_norm",
        }

    def test_track_csv_shape(self, tmp_path):
        s = replace(default_scenario(), duration_s=5.0)
        records = run_tracking(s)
        _write_outputs(str(tmp_path), "track", records, False)
        lines = (tmp_path / "track.csv").read_text().splitlines()
        assert lines[0] == COMMANDS["track"][3][0]
        assert len(lines) == 6
        assert all(len(line.split(",")) == 10 for line in lines[1:])

    def test_deterministic_bytes(self, tmp_path):
        s = replace(default_scenario(), duration_s=5.0)
        p1, p2 = tmp_path / "a", tmp_path / "b"
        _write_outputs(str(p1), "track", run_tracking(s), False)
        _write_outputs(str(p2), "track", run_tracking(s), False)
        assert read(p1 / "track.csv") == read(p2 / "track.csv")

    def test_range_csv(self, tmp_path):
        s = default_scenario()
        fixture = s.fixture.make_luminaire(1, Point3(0, 0, 300))
        points = run_range_sweep(s.camera, fixture, [10.0, 60.0, 110.0])
        _write_outputs(str(tmp_path), "range", points, False)
        lines = (tmp_path / "range.csv").read_text().splitlines()
        assert lines[0] == COMMANDS["range"][3][0]
        assert lines[1].endswith(",full")
        assert lines[2].endswith(",degraded")
        assert lines[3].endswith(",impossible")


def test_cli_loads_every_module():
    """A module that nothing imports is dead code; the CLI must reach them all."""
    package_dir = Path(occloc.__file__).parent
    expected = {"occloc" if p.stem == "__init__" else f"occloc.{p.stem}"
                for p in package_dir.glob("*.py")}
    env = {**os.environ, "PYTHONPATH": str(package_dir.parent)}
    script = "import sys, occloc.cli; print(' '.join(m for m in sys.modules if 'occloc' in m))"
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert expected - set(loaded) == set()


def test_the_package_loads_no_module_and_geometry_and_tracker_need_no_numpy():
    """Each public name is imported from its own module, so import occloc
    loads none of them; and the filter's and the ranging's modules import with
    numpy blocked."""
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import occloc\n"
        "loaded = [m for m in sys.modules if m.startswith('occloc.')]\n"
        "assert loaded == [], loaded\n"
        "import occloc.geometry, occloc.imaging, occloc.tracker\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(occloc.__file__).parent.parent)}
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_runs_without_scipy(tmp_path, fast_scenario):
    """The package needs numpy alone: with every scipy import made to fail,
    import occloc and the track and ber commands still work."""
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import occloc\n"
        "from occloc.cli import main\n"
        "out, scenario = sys.argv[1:]\n"
        "assert main(['track', '--scenario', scenario, '--out', out + '/track']) == 0\n"
        "assert main(['ber', '--out', out + '/ber', '--snir-max', '3', '--bits', '10000']) == 0\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(occloc.__file__).parent.parent)}
    subprocess.run([sys.executable, "-c", script, str(tmp_path), fast_scenario], env=env,
                   check=True)
    assert (tmp_path / "track" / "track.csv").exists()
    assert (tmp_path / "ber" / "ber.csv").exists()


class TestOutputs:
    """Each command writes <command>.csv, with --plot also <command>.svg, and
    its manifest lists exactly the files it wrote."""

    @pytest.mark.parametrize("plot", [[], ["--plot"]], ids=["csv", "plot"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["track", "--seed", "3"],
            ["ber", "--snir-max", "3", "--bits", "10000"],
            ["range", "--points", "50"],
            ["filtercmp", "--ensemble", "2"],
        ],
        ids=["track", "ber", "range", "filtercmp"],
    )
    def test_the_manifest_lists_every_file_written(self, tmp_path, monkeypatch, argv, plot):
        monkeypatch.delenv("OCC_SEED", raising=False)
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out), *plot]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        command = argv[0]
        assert outputs == [f"{command}.csv"] + [f"{command}.svg"] * bool(plot)
        assert sorted(outputs) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")

    def test_a_run_with_nothing_finite_to_plot_gets_an_empty_chart(self, tmp_path, capsys):
        """With no fixture every tick is a gap. --plot once made this valid run
        exit 1 with "nothing to plot", leaving track.csv without a manifest."""
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"luminaires": [], "duration_s": 3}))
        out = tmp_path / "o"
        assert main(["track", "--scenario", str(scenario), "--out", str(out), "--plot"]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "manifest.json").read_text())["outputs"] == [
            "track.csv", "track.svg"]
        svg = (out / "track.svg").read_text()
        assert svg.count('<polyline points=""') == 2
        # the frame spans [0, 1] on both axes
        assert ">0</text>" in svg and ">1</text>" in svg


class TestOtherCommands:
    def test_ber(self, tmp_path):
        out = tmp_path / "o"
        code = main(["ber", "--out", str(out), "--snir-max", "3", "--bits", "10000"])
        assert code == 0
        lines = (out / "ber.csv").read_text().splitlines()
        assert lines[0] == "snir_db,ber_sim,ber_theory"
        assert len(lines) == 5  # 0..3 dB

    def test_ber_replay_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["ber", "--out", str(out_a), "--snir-max", "3", "--bits", "10000"])
        main(["ber", "--scenario", str(out_a / "manifest.json"), "--out", str(out_b)])
        assert read(out_a / "ber.csv") == read(out_b / "ber.csv")

    def test_range(self, tmp_path):
        out = tmp_path / "o"
        assert main(["range", "--out", str(out), "--points", "50"]) == 0
        lines = (out / "range.csv").read_text().splitlines()
        assert lines[0] == "d_m,eta,regime"
        assert len(lines) == 51

    @pytest.mark.parametrize(
        "data, flags",
        [
            ({}, ["--d-min-m", "1", "--d-max-m", "1e300", "--points", "3"]),
            ({"camera": {"focal_length_mm": 6e5, "pixel_edge_mm": 1e100},
              "fixture": {"radius_mm": 4e148, "area_mm2": None},
              "room": {"ceiling_height_cm": 65000}},
             ["--d-min-m", "1.1e151", "--d-max-m", "1.2e151"]),
        ],
        ids=["distance-squared-overflows", "pixel-count-is-nan"],
    )
    def test_range_past_the_float_range_exits_2(self, tmp_path, capsys, data, flags):
        """The first once ended in an OverflowError traceback from d^2, and the
        second in "pixel count must be finite and non-negative, got nan", as
        f^2 S and rho^2 d^2 both overflowed; both exited 1."""
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["range", "--scenario", str(scenario), "--out", str(out), *flags]) == 2
        assert "--d-max-m" in capsys.readouterr().err
        assert not out.exists()

    def test_filtercmp(self, tmp_path):
        out = tmp_path / "o"
        scenario = tmp_path / "s.json"
        scenario.write_text(
            json.dumps({"duration_s": 6.0, "noise": {"distance_sigma_cm": 5.0}})
        )
        code = main(
            ["filtercmp", "--scenario", str(scenario), "--out", str(out), "--ensemble", "3"]
        )
        assert code == 0
        lines = (out / "filtercmp.csv").read_text().splitlines()
        assert lines[0] == "t_s,err_kf_norm,err_raw_norm"
        assert len(lines) == 6  # ticks 0..4 score against the next truth

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["filtercmp", "--ensemble", "0"], "--ensemble"),
            (["ber", "--bits", "10"], "--bits"),
            (["ber", "--bits", str(MAX_BER_BITS + 1)], "--bits"),
            (["range", "--d-min-m", "0"], "--d-min-m"),
            (["range", "--d-min-m", "0.004"], "--d-min-m"),
            (["range", "--points", "1"], "--points"),
            (["ber", "--snir-min", "5", "--snir-max", "1"], "--snir-max"),
            (["ber", "--snir-min", "nan"], "--snir-min"),
            (["ber", "--snir-min", "3990", "--snir-max", "4000"], "--snir-max"),
        ],
        ids=["ensemble-0", "bits-10", "bits-past-the-cap", "d-min-0", "d-min-in-focal-length",
             "points-1", "snir-max-below-min", "snir-min-nan", "snir-max-overflows"],
    )
    def test_out_of_range_flag_exits_2_and_writes_nothing(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out), "--plot"]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["0", "-1", "nan", "inf", "1e-12"])
    def test_snir_step_that_cannot_build_a_grid_exits_2(self, tmp_path, capsys, step):
        out = tmp_path / "o"
        assert main(["ber", "--snir-step", step, "--bits", "10000", "--out", str(out)]) == 2
        assert "--snir-step" in capsys.readouterr().err
        assert not out.exists()

    def test_filtercmp_without_distance_noise_names_the_field(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"duration_s": 6.0}))
        out = tmp_path / "o"
        assert main(["filtercmp", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert "noise.distance_sigma_cm" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_ok(self, capsys):
        assert main(["validate"]) == 0
        assert "scenario OK" in capsys.readouterr().out

    def test_validate_reports_gap(self, tmp_path, capsys):
        # a sparse explicit layout cannot cover the room
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"luminaires": [[75, 75], [225, 75], [75, 225]]}))
        assert main(["validate", "--scenario", str(scenario)]) == 2
        assert "visibility" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, message",
        [
            # 140 cm is narrower than twice the scan's 75 cm wall margin
            ({"room": {"width_cm": 140, "depth_cm": 140},
              "trajectory": {"waypoints_cm": [[70, 70, 100]]}},
             "the room has no point 75.0 cm from every wall to scan"),
            ({"luminaires": []}, "sees 0 < 3 fixtures"),
        ],
        ids=["room-too-small-to-scan", "empty-ceiling"],
    )
    def test_validate_on_a_scan_that_cannot_pass_exits_2(self, tmp_path, capsys, data, message):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(data))
        assert main(["validate", "--scenario", str(scenario)]) == 2
        assert message in capsys.readouterr().err


class TestManifestParams:
    """A replayed manifest's params are checked as the flags they stand for."""

    @staticmethod
    def _manifest(tmp_path, params):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"tool": "occloc", "scenario": {}, "params": params}))
        return str(path)

    @pytest.mark.parametrize(
        "command, params, message",
        [
            ("ber", {"bits": "x"}, "manifest params.bits must be an integer, not 'x'"),
            ("ber", {"snir-step": None}, "manifest params.snir-step must be a number, not None"),
            ("range", {"points": 2.7}, "manifest params.points must be an integer, not 2.7"),
            ("filtercmp", {"ensemble": True},
             "manifest params.ensemble must be an integer, not True"),
            ("ber", {"snir-max": float("inf")},
             "manifest params.snir-max must be finite and within the float range, not inf"),
            ("ber", [], "params must be a JSON object"),
        ],
        ids=["string-bits", "null-snir-step", "fractional-points", "boolean-ensemble",
             "infinite-snir-max", "list-params"],
    )
    def test_a_param_of_the_wrong_kind_exits_2(self, tmp_path, capsys, command, params, message):
        out = tmp_path / "o"
        assert main([command, "--scenario", self._manifest(tmp_path, params),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        flag=st.sampled_from([(c, *f) for c, (_, _, flags, _) in COMMANDS.items()
                              for f in flags]),
        wrong=st.one_of(
            st.booleans(), st.text(max_size=4), st.none(),
            st.lists(st.integers(0, 9), max_size=2),
            st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=1),
            st.integers(2**1024, 2**1100), st.integers(-(2**1100), -(2**1024)),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
    )
    def test_a_wrong_kind_in_any_param_names_it(self, flag, wrong):
        command, name, kind, _, _ = flag
        # a finite float is the kind a float flag takes
        assume(not (kind is float and type(wrong) is float and abs(wrong) < float("inf")))
        with tempfile.TemporaryDirectory() as tmp:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--scenario", self._manifest(Path(tmp), {name: wrong}),
                             "--out", os.path.join(tmp, "o")])
            assert code == 2
            assert f"manifest params.{name} " in err.getvalue()
            assert not os.path.exists(os.path.join(tmp, "o"))
