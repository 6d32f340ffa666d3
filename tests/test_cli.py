import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import occloc
from occloc.cli import main
from occloc.harness import (
    default_filtercmp_scenario,
    run_filter_comparison,
    write_filtercmp_csv,
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

    def test_invalid_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"camera": {"fov_full_angle_deg": 200}}))
        code = main(["track", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "fov" in capsys.readouterr().err

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


class TestFiltercmpDefault:
    """Without --scenario, filtercmp runs the reference filter comparison."""

    def test_writes_the_reference_run(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OCC_SEED", raising=False)
        out = tmp_path / "o"
        assert main(["filtercmp", "--out", str(out), "--ensemble", "3"]) == 0
        expected = tmp_path / "expected.csv"
        write_filtercmp_csv(run_filter_comparison(default_filtercmp_scenario(), 3), expected)
        assert read(out / "filtercmp.csv") == read(expected)
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7

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

    def test_validate_ok(self, capsys):
        assert main(["validate"]) == 0
        assert "scenario OK" in capsys.readouterr().out

    def test_validate_reports_gap(self, tmp_path, capsys):
        # a sparse explicit layout cannot cover the room
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"luminaires": [[75, 75], [225, 75], [75, 225]]}))
        assert main(["validate", "--scenario", str(scenario)]) == 2
        assert "visibility" in capsys.readouterr().err
