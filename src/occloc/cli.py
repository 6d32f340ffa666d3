"""Command-line front end: scenario files in, CSV (and optional SVG) out.

Subcommands: track, ber, range, filtercmp, validate. Every run writes a
manifest.json echoing the fully resolved configuration and seed; pointing
--scenario at a manifest replays the run byte-identically.

Exit codes: 0 success, 2 configuration error (message names the offending
field or path), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from . import harness, plots

SEED_ENV_VAR = "OCC_SEED"


class ConfigError(Exception):
    pass


def _load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"scenario file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc


def load_scenario(args):
    """Resolve the scenario: the --scenario file (plain scenario or run
    manifest), else the built-in default (the reference filter comparison for
    filtercmp). Seed precedence --seed > file seed > OCC_SEED > built-in default.

    Returns (scenario, manifest_params) where manifest_params are the extra
    run parameters echoed by a previous manifest, if one was loaded.
    """
    data: dict = {}
    manifest_params: dict = {}
    if args.scenario is not None:
        data = _load_json(args.scenario)
        if isinstance(data, dict) and data.get("tool") == "occloc":
            manifest_params = data.get("params", {})
            if "scenario" not in data:
                raise ConfigError(f"manifest {args.scenario} carries no scenario")
            data = data["scenario"]
    elif args.command == "filtercmp":
        data = harness.scenario_to_dict(harness.default_filtercmp_scenario())
    if (args.scenario is None or "seed" not in data) and SEED_ENV_VAR in os.environ:
        try:
            data = {**data, "seed": int(os.environ[SEED_ENV_VAR])}
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    try:
        scenario = harness.scenario_from_dict(data)
    except harness.ScenarioError as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc
    if args.seed is not None:
        scenario = harness.scenario_from_dict({**harness.scenario_to_dict(scenario), "seed": args.seed})
    return scenario, manifest_params


def _write_manifest(out_dir, command, scenario, params, outputs):
    manifest = {
        "tool": "occloc",
        "version": __version__,
        "command": command,
        "seed": scenario.seed,
        "scenario": harness.scenario_to_dict(scenario),
        "params": params,
        "outputs": outputs,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _param(args, manifest_params, name, default):
    value = getattr(args, name.replace("-", "_"))
    if value is not None:
        return value
    if name in manifest_params:
        return manifest_params[name]
    return default


def cmd_track(args, scenario, manifest_params) -> list[str]:
    records = harness.run_tracking(scenario)
    out = os.path.join(args.out, "track.csv")
    harness.write_track_csv(records, out)
    if args.plot:
        ok = [r for r in records if not r.gap]
        plots.svg_line_chart(
            os.path.join(args.out, "track.svg"),
            "Tracking error over time",
            "t (s)",
            "horizontal error (cm)",
            [
                ("raw", [r.t_s for r in ok], [r.raw_err_cm for r in ok]),
                ("filtered", [r.t_s for r in ok], [r.kf_err_cm for r in ok]),
            ],
        )
        return ["track.csv", "track.svg"]
    return ["track.csv"]


def cmd_ber(args, scenario, manifest_params) -> list[str]:
    lo = float(_param(args, manifest_params, "snir-min", 0.0))
    hi = float(_param(args, manifest_params, "snir-max", 15.0))
    step = float(_param(args, manifest_params, "snir-step", 1.0))
    bits = int(_param(args, manifest_params, "bits", 100_000))
    grid = []
    v = lo
    while v <= hi + 1e-9:
        grid.append(round(v, 9))
        v += step
    points = harness.run_ber_sweep(grid, bits, scenario.seed)
    harness.write_ber_csv(points, os.path.join(args.out, "ber.csv"))
    outputs = ["ber.csv"]
    if args.plot:
        plots.svg_line_chart(
            os.path.join(args.out, "ber.svg"),
            "OOK bit error rate vs SNIR",
            "SNIR (dB)",
            "BER",
            [
                ("simulated", [p.snir_db for p in points], [p.ber_sim for p in points]),
                ("analytic", [p.snir_db for p in points], [p.ber_theory for p in points]),
            ],
            log_y=True,
        )
        outputs.append("ber.svg")
    return outputs


def cmd_range(args, scenario, manifest_params) -> list[str]:
    lo = float(_param(args, manifest_params, "d-min-m", 1.0))
    hi = float(_param(args, manifest_params, "d-max-m", 120.0))
    n = int(_param(args, manifest_params, "points", 120))
    if n < 2 or hi <= lo:
        raise ConfigError("range sweep needs points >= 2 and d-max-m > d-min-m")
    grid = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
    fixture = scenario.fixture.make_luminaire(
        1, harness.Point3(0.0, 0.0, scenario.room.ceiling_height_cm)
    )
    points = harness.run_range_sweep(scenario.camera, fixture, grid)
    harness.write_range_csv(points, os.path.join(args.out, "range.csv"))
    outputs = ["range.csv"]
    if args.plot:
        plots.svg_line_chart(
            os.path.join(args.out, "range.svg"),
            "Projected pixel area vs distance",
            "distance (m)",
            "pixel area",
            [("pixel area", [p.d_m for p in points], [p.eta for p in points])],
            log_y=True,
        )
        outputs.append("range.svg")
    return outputs


def cmd_filtercmp(args, scenario, manifest_params) -> list[str]:
    ensemble = int(_param(args, manifest_params, "ensemble", 100))
    points = harness.run_filter_comparison(scenario, ensemble_size=ensemble)
    harness.write_filtercmp_csv(points, os.path.join(args.out, "filtercmp.csv"))
    outputs = ["filtercmp.csv"]
    if args.plot:
        plots.svg_line_chart(
            os.path.join(args.out, "filtercmp.svg"),
            "Normalized delivered-position error",
            "t (s)",
            "error / initial error",
            [
                ("with filter", [p.t_s for p in points], [p.err_kf_norm for p in points]),
                ("without filter", [p.t_s for p in points], [p.err_raw_norm for p in points]),
            ],
        )
        outputs.append("filtercmp.svg")
    return outputs


def cmd_validate(args, scenario, manifest_params) -> list[str]:
    luminaires = scenario.build_luminaires()
    # scan at the highest camera position: the view cone is narrowest there
    camera_z = max(wp[2] for wp in scenario.waypoints_cm)
    scan = harness.visibility_scan(scenario, camera_height_cm=camera_z)
    print(f"room: {scenario.room.width_cm} x {scenario.room.depth_cm} cm, "
          f"ceiling {scenario.room.ceiling_height_cm} cm")
    print(f"luminaires: {len(luminaires)} (spacing {scenario.led_spacing_cm} cm)")
    print(f"trajectory: {len(scenario.waypoints_cm)} waypoints at {scenario.speed_cm_s} cm/s, "
          f"camera height {camera_z} cm")
    print(f"samples: {scenario.tick_count()} at {scenario.sampling_hz} Hz")
    print(f"visibility scan: worst point {scan.worst_xy_cm} sees {scan.min_visible} fixtures")
    if not scan.ok:
        raise ConfigError(
            f"visibility guarantee violated: point {scan.worst_xy_cm} sees "
            f"{scan.min_visible} < 3 fixtures"
        )
    print("scenario OK")
    return []


_COMMANDS = {
    "track": cmd_track,
    "ber": cmd_ber,
    "range": cmd_range,
    "filtercmp": cmd_filtercmp,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occloc",
        description="Indoor localization simulator: LED fixtures, camera ranging, "
        "trilateration and Kalman tracking.",
    )
    parser.add_argument("--version", action="version", version=f"occloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", help="scenario JSON (or a previous run's manifest.json)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--plot", action="store_true", help="emit SVG charts next to the CSVs")

    p = sub.add_parser("track", help="run the tracking pipeline, write track.csv")
    common(p)
    p = sub.add_parser("ber", help="OOK BER sweep, write ber.csv")
    common(p)
    p.add_argument("--snir-min", type=float, default=None, help="grid start in dB (default 0)")
    p.add_argument("--snir-max", type=float, default=None, help="grid end in dB (default 15)")
    p.add_argument("--snir-step", type=float, default=None, help="grid step in dB (default 1)")
    p.add_argument("--bits", type=int, default=None, help="bits per point (default 1e5)")
    p = sub.add_parser("range", help="feasibility sweep over distance, write range.csv")
    common(p)
    p.add_argument("--d-min-m", type=float, default=None, help="grid start in m (default 1)")
    p.add_argument("--d-max-m", type=float, default=None, help="grid end in m (default 120)")
    p.add_argument("--points", type=int, default=None, help="grid size (default 120)")
    p = sub.add_parser("filtercmp", help="filtered vs raw error ensemble, write filtercmp.csv "
                       "(default scenario: the reference filter comparison)")
    common(p)
    p.add_argument("--ensemble", type=int, default=None, help="ensemble size (default 100)")
    p = sub.add_parser("validate", help="check scenario invariants and the visibility guarantee")
    common(p)
    return parser


def _collect_params(args) -> dict:
    params = {}
    for key in ("snir-min", "snir-max", "snir-step", "bits", "d-min-m", "d-max-m",
                "points", "ensemble"):
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is not None:
            params[key] = getattr(args, attr)
    return params


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario, manifest_params = load_scenario(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command != "validate":
            os.makedirs(args.out, exist_ok=True)
        outputs = _COMMANDS[args.command](args, scenario, manifest_params)
        if args.command != "validate":
            params = {**manifest_params, **_collect_params(args)}
            _write_manifest(args.out, args.command, scenario, params, outputs)
            for name in outputs:
                print(os.path.join(args.out, name))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
