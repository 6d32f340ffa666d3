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
import math
import os
import sys

from . import __version__
from . import harness, plots
from .geometry import Point3, finite
from .imaging import pixel_count
from .modem import MIN_BER_BITS

SEED_ENV_VAR = "OCC_SEED"
MAX_GRID_POINTS = 100_000  # largest sweep grid a command builds
MAX_BER_BITS = 10**7  # most bits per BER point; each takes about 20 bytes at once


class ConfigError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:  # a missing file, a directory, or a file it may not read
        raise ConfigError(f"scenario file {path} cannot be read: {exc.strerror}") from exc
    # a JSONDecodeError, an int too long to convert, or nesting past the
    # parser's recursion limit
    except (ValueError, RecursionError) as exc:
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
            if type(manifest_params) is not dict:
                raise ConfigError(f"manifest {args.scenario} params must be a JSON object")
            if "scenario" not in data:
                raise ConfigError(f"manifest {args.scenario} carries no scenario")
            data = data["scenario"]
    elif args.command == "filtercmp":
        data = harness.scenario_to_dict(harness.default_filtercmp_scenario())
    if type(data) is not dict:  # the seeds below fold into it
        raise ConfigError("invalid scenario: scenario must be a JSON object")
    if (args.scenario is None or "seed" not in data) and SEED_ENV_VAR in os.environ:
        try:
            data = {**data, "seed": int(os.environ[SEED_ENV_VAR])}
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    if args.seed is not None:
        data = {**data, "seed": args.seed}
    return harness.scenario_from_dict(data), manifest_params


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


def _checked(value, where: str, kind):
    """A flag's value as its type: an int for an int flag, an int or a float
    for a float flag; not a boolean, and finite as a float."""
    if type(value) not in (int, kind):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} must be {noun}, not {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be finite and within the float range, not {value!r}")
    return kind(value)


def _flags(args, manifest_params: dict) -> "tuple[dict, dict]":
    """The command's flag values, and the params its manifest echoes. A flag
    left off the command line takes the replayed manifest's value, checked as
    the flag's own, else its default."""
    values, given = {}, {}
    for name, kind, default, _ in COMMANDS[args.command][2]:
        flag = getattr(args, name.replace("-", "_"))
        if flag is not None:
            values[name] = given[name] = _checked(flag, f"--{name}", kind)
        elif name in manifest_params:
            values[name] = _checked(manifest_params[name], f"manifest params.{name}", kind)
        else:
            values[name] = default
    return values, {**manifest_params, **given}


def cmd_track(scenario, flags):
    return harness.run_tracking(scenario)


def cmd_ber(scenario, flags):
    lo, hi, step, bits = (flags[k] for k in ("snir-min", "snir-max", "snir-step", "bits"))
    if not -harness.MAX_SNIR_DB <= lo <= hi <= harness.MAX_SNIR_DB:
        raise ConfigError(
            f"--snir-min {lo} and --snir-max {hi} must satisfy "
            f"-{harness.MAX_SNIR_DB} <= snir-min <= snir-max <= {harness.MAX_SNIR_DB} dB"
        )
    if step <= 0:
        raise ConfigError(f"--snir-step must be positive, got {step}")
    if not MIN_BER_BITS <= bits <= MAX_BER_BITS:
        raise ConfigError(
            f"--bits must be within [{MIN_BER_BITS}, {MAX_BER_BITS}], got {bits}"
        )
    grid = []
    v = lo
    while v <= hi + 1e-9:
        grid.append(round(v, 9))
        if len(grid) > MAX_GRID_POINTS:
            # also catches a step too small to move v past rounding
            raise ConfigError(f"--snir-step {step} gives more than {MAX_GRID_POINTS} grid points")
        v += step
    return harness.run_ber_sweep(grid, bits, scenario.seed)


def cmd_range(scenario, flags):
    lo, hi, n = (flags[k] for k in ("d-min-m", "d-max-m", "points"))
    if n < 2 or n > MAX_GRID_POINTS or hi <= lo:
        raise ConfigError(
            f"range sweep needs 2 <= --points <= {MAX_GRID_POINTS} and "
            f"--d-max-m > --d-min-m, got {n} points over [{lo}, {hi}] m"
        )
    # pixel_count's far-field model needs every fixture beyond the focal length
    if not lo * 100.0 * 10.0 > scenario.camera.focal_length_mm:
        raise ConfigError(
            f"--d-min-m must exceed the camera's focal length "
            f"({scenario.camera.focal_length_mm} mm), got {lo} m"
        )
    grid = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
    fixture = scenario.fixture.make_luminaire(
        1, Point3(0.0, 0.0, scenario.room.ceiling_height_cm)
    )
    # f^2 S is the same at every distance and rho^2 d^2 grows with it, so the
    # pixel count leaves the float range first at the grid's end, if at all
    try:
        end_fits = finite(pixel_count(scenario.camera, fixture, grid[-1] * 100.0))
    except (OverflowError, ValueError):  # d^2, or d in cm, past the float range
        end_fits = False
    if not end_fits:
        raise ConfigError(
            f"--d-max-m {hi} m takes the pixel count of camera.focal_length_mm="
            f"{scenario.camera.focal_length_mm!r} and camera.pixel_edge_mm="
            f"{scenario.camera.pixel_edge_mm!r} past the float range"
        )
    return harness.run_range_sweep(scenario.camera, fixture, grid)


def cmd_filtercmp(scenario, flags):
    ensemble = flags["ensemble"]
    if ensemble < 1:
        raise ConfigError(f"--ensemble must be at least 1, got {ensemble}")
    if not scenario.distance_sigma_cm > 0:
        raise ConfigError(
            f"noise.distance_sigma_cm must be positive for a filter comparison, "
            f"got {scenario.distance_sigma_cm}"
        )
    if scenario.tick_count() < 2:
        raise ConfigError("duration_s * sampling_hz must give a filter comparison 2 ticks or more")
    return harness.run_filter_comparison(scenario, ensemble_size=ensemble)


def cmd_validate(scenario, flags):
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


def _track_cells(r):
    """A tracking record's cells; a gap tick has NaN estimates and errors."""
    if r.gap:
        return (r.t_s, r.truth.x, r.truth.y, *[math.nan] * 6, r.visible)
    return (r.t_s, r.truth.x, r.truth.y, r.raw.x, r.raw.y, r.filtered.x, r.filtered.y,
            r.raw_err_cm, r.kf_err_cm, r.visible)


# Each command's row: its runner, its help line, its run flags and its
# outputs. A flag is a name, type, default and help; the parser, the
# resolution of each value and the manifest's params all read them. The
# outputs, None for a command that writes nothing, are the CSV header and the
# function that turns one record into its cells, then the chart's title and
# axis labels, x column, lines as (name, y column), and whether y is on a log
# scale. A command writes <command>.csv, and under --plot <command>.svg beside
# it, drawn from the CSV's own cells.
COMMANDS = {
    "track": (cmd_track, "run the tracking pipeline, write track.csv", (),
              ("t_s,true_x,true_y,raw_x,raw_y,kf_x,kf_y,raw_err,kf_err,visible", _track_cells,
               ("Tracking error over time", "t (s)", "horizontal error (cm)"),
               "t_s", (("raw", "raw_err"), ("filtered", "kf_err")), False)),
    "ber": (cmd_ber, "OOK BER sweep, write ber.csv",
            (("snir-min", float, 0.0, "grid start in dB"),
             ("snir-max", float, 15.0, "grid end in dB"),
             ("snir-step", float, 1.0, "grid step in dB"),
             ("bits", int, 100_000, "bits per point")),
            ("snir_db,ber_sim,ber_theory", lambda p: (p.snir_db, p.ber_sim, p.ber_theory),
             ("OOK bit error rate vs SNIR", "SNIR (dB)", "BER"),
             "snir_db", (("simulated", "ber_sim"), ("analytic", "ber_theory")), True)),
    "range": (cmd_range, "feasibility sweep over distance, write range.csv",
              (("d-min-m", float, 1.0, "grid start in m"),
               ("d-max-m", float, 120.0, "grid end in m"),
               ("points", int, 120, "grid size")),
              ("d_m,eta,regime", lambda p: (p.d_m, p.eta, p.regime.value),
               ("Projected pixel area vs distance", "distance (m)", "pixel area"),
               "d_m", (("pixel area", "eta"),), True)),
    "filtercmp": (cmd_filtercmp, "filtered vs raw error ensemble, write filtercmp.csv "
                  "(default scenario: the reference filter comparison)",
                  (("ensemble", int, 100, "ensemble size"),),
                  ("t_s,err_kf_norm,err_raw_norm",
                   lambda p: (p.t_s, p.err_kf_norm, p.err_raw_norm),
                   ("Normalized delivered-position error", "t (s)", "error / initial error"),
                   "t_s", (("with filter", "err_kf_norm"), ("without filter", "err_raw_norm")),
                   False)),
    "validate": (cmd_validate, "check scenario invariants and the visibility guarantee", (),
                 None),
}


def _write_outputs(out_dir: str, command: str, records, plot: bool) -> list[str]:
    """Write the command's records as its row's outputs declare, and return
    the file names the manifest lists. A float cell is written as its repr
    (numpy 2 would print a float64 as np.float64(...)), any other as str. The
    directory is made here, after the run, so a command whose flags fail their
    checks leaves nothing behind."""
    header, cells, labels, x_column, lines, log_y = COMMANDS[command][3]
    rows = [cells(r) for r in records]
    os.makedirs(out_dir, exist_ok=True)
    names = [f"{command}.csv"]
    with open(os.path.join(out_dir, names[0]), "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    if plot:
        names.append(f"{command}.svg")
        index = header.split(",").index
        xs = [row[index(x_column)] for row in rows]
        series = [(name, xs, [row[index(y)] for row in rows]) for name, y in lines]
        plots.svg_line_chart(os.path.join(out_dir, names[1]), *labels, series, log_y=log_y)
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occloc",
        description="Indoor localization simulator: LED fixtures, camera ranging, "
        "trilateration and Kalman tracking.",
    )
    parser.add_argument("--version", action="version", version=f"occloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, flags, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--scenario", help="scenario JSON (or a previous run's manifest.json)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--plot", action="store_true", help="emit SVG charts next to the CSVs")
        for name, kind, default, help_text in flags:
            p.add_argument(f"--{name}", type=kind, help=f"{help_text} (default {default:g})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario, manifest_params = load_scenario(args)
        flags, params = _flags(args, manifest_params)
        runner, _, _, writes = COMMANDS[args.command]
        records = runner(scenario, flags)
        if writes is not None:
            outputs = _write_outputs(args.out, args.command, records, args.plot)
            _write_manifest(args.out, args.command, scenario, params, outputs)
            for name in outputs:
                print(os.path.join(args.out, name))
        return 0
    except (ConfigError, harness.ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
