"""Command-line front end.

Subcommands mirror the workflow: ``geometry generate|validate`` to
produce or check array layouts, ``design`` to solve for filter weights,
``evaluate`` to render beampattern/WNG/DF CSVs for one design, and
``montecarlo`` for randomized robustness studies. Every output is a
deterministic function of (config, seed); the ``--threads`` knob changes
wall time only, never bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import (
    AllTrialsFailedError,
    GeometryMismatchError,
    InfeasibleGeometryError,
    RankDeficientSystemError,
)
from .geometry import (
    PhysicalConstants,
    geometry_digest,
    sample_random_geometry,
    validate_geometry,
)
from .metrics import (
    BEAMPATTERN_FLOOR_DB,
    MIN_INTEGRATION_POINTS,
    check_integration_points,
    coefficient_gains,
    equispaced_pattern,
    filter_coefficients,
    magnitude_db,
    power_db,
)
from .montecarlo import STATISTICS_FLOOR_DB, TrialConfig, keep_freed_memory, run_trials
from .patterns import evaluate_target
from .solver import FrequencyGrid, design_filter

# default sweep: 50 Hz to 4 kHz in 50 Hz steps
DEFAULT_GRID = FrequencyGrid(50.0, 4000.0, 80)

# GeometryMismatchError and the pattern/grid errors subclass ValueError
_USER_ERRORS = (
    ValueError,
    OSError,
    InfeasibleGeometryError,
    RankDeficientSystemError,
    AllTrialsFailedError,
)


def _angle_count(step_deg: float) -> int:
    if not (math.isfinite(step_deg) and step_deg > 0.0):
        raise ValueError(f"angle step must be positive and finite, got {step_deg!r} deg")
    count = int(round(360.0 / step_deg))
    if count < 1 or abs(count * step_deg - 360.0) > 1e-9:
        raise ValueError(f"angle step {step_deg} deg must divide 360 evenly")
    return count


def _resolve(base: Path, relative: str) -> Path:
    path = Path(relative)
    return path if path.is_absolute() else base / path


def _grid(config: dict, config_path: Path) -> FrequencyGrid:
    grid_config = config.get("grid_hz")
    if not grid_config:
        return DEFAULT_GRID
    return fileio.grid_from_config(grid_config, context=str(config_path))


def _speed_of_sound(args, config: dict, fallback: float = 343.0) -> float:
    if args.c_mps is not None:
        return float(args.c_mps)
    return float(config.get("speed_of_sound_mps", fallback))


def _cmd_geometry(args) -> int:
    config_path = Path(args.config)
    if args.mode == "validate":
        geometry = fileio.load_geometry_file(config_path)
        report = validate_geometry(geometry)
        print(report.describe())
        return 0 if report.ok else 1

    config = fileio.load_json(config_path)
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is None:
        raise ValueError("geometry generation needs a seed (--seed or config field)")
    geometry = sample_random_geometry(
        int(config["element_count"]),
        float(config["aperture_radius_mm"]) * 1e-3,
        float(config["min_spacing_mm"]) * 1e-3,
        seed=int(seed),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "geometry.json"
    fileio.save_geometry_file(geometry, target)
    print(target)
    return 0


def _cmd_design(args) -> int:
    config_path = Path(args.config)
    config = fileio.load_json(config_path)
    base = config_path.parent
    geometry_file = _resolve(base, str(config["geometry_file"]))
    geometry = fileio.load_geometry_file(geometry_file)
    target, pattern_id, coeffs = fileio.pattern_from_config(
        config.get("pattern", {}), context=str(config_path)
    )
    grid = _grid(config, config_path)
    element_model = str(config.get("element_model", "first_order"))
    c = _speed_of_sound(args, config)
    constants = PhysicalConstants(speed_of_sound=c)

    filt = design_filter(
        geometry, constants, target, grid, element_model, pattern_id=pattern_id
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_filter_csv(filt, out_dir / "filter.csv")
    fileio.write_design_manifest(
        out_dir / "design_manifest.json",
        filt,
        pattern_coefficients=coeffs,
        steer_deg=math.degrees(target.theta_s),
        geometry_file=str(geometry_file),
        speed_of_sound=c,
        filter_file="filter.csv",
        seed=args.seed,
    )
    print(out_dir / "filter.csv")
    return 0


def _cmd_evaluate(args) -> int:
    config_path = Path(args.config)
    config = fileio.load_json(config_path)
    base = config_path.parent
    geometry = fileio.load_geometry_file(_resolve(base, str(config["geometry_file"])))
    filt, manifest = fileio.load_design(_resolve(base, str(config["design_manifest"])))
    if geometry_digest(geometry) != filt.geometry_digest:
        raise GeometryMismatchError(
            "geometry file does not match the design manifest digest; "
            "evaluating a filter on a different array is not meaningful"
        )

    c = _speed_of_sound(args, config, fallback=manifest.get("speed_of_sound_mps", 343.0))
    constants = PhysicalConstants(speed_of_sound=c)
    angle_count = _angle_count(float(config.get("angle_step_deg", 1.0)))
    # DF is exact: the key sets nothing, but values below 512 are still refused
    check_integration_points(config.get("integration_points", MIN_INTEGRATION_POINTS))
    floor_db = float(config.get("beampattern_floor_db", BEAMPATTERN_FLOOR_DB))
    if not math.isfinite(floor_db):
        raise ValueError(f"beampattern_floor_db must be finite, got {floor_db!r} dB")

    eval_index = filt.grid.index(float(config["eval_frequency_hz"]))
    theta_deg = 360.0 * np.arange(angle_count) / angle_count
    target, _, _ = fileio.pattern_from_config(
        {**manifest["pattern"], "family": "custom"}, context="design manifest"
    )
    target_values = evaluate_target(target, np.radians(theta_deg))

    coefficients, n_values = filter_coefficients(filt, geometry, constants)
    rendered = equispaced_pattern(coefficients[eval_index], n_values, angle_count)
    wng, df = coefficient_gains(coefficients, filt.weights, n_values, filt.theta_s)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_beampattern_csv(
        out_dir / "beampattern.csv",
        theta_deg,
        magnitude_db(rendered, floor_db=floor_db),
        magnitude_db(target_values, floor_db=floor_db),
    )
    fileio.write_wng_csv(out_dir / "wng.csv", filt.grid.frequencies_hz, power_db(wng))
    fileio.write_df_csv(out_dir / "df.csv", filt.grid.frequencies_hz, power_db(df))
    print(out_dir / "beampattern.csv")
    return 0


def _cmd_montecarlo(args) -> int:
    config_path = Path(args.config)
    config = fileio.load_json(config_path)
    pattern = config.get("pattern", {})
    grid = _grid(config, config_path)
    seed = args.seed if args.seed is not None else config.get("master_seed")
    if seed is None:
        raise ValueError("montecarlo needs a master seed (--seed or config field)")
    custom = pattern.get("a")
    check_integration_points(config.get("integration_points", MIN_INTEGRATION_POINTS))
    trial_config = TrialConfig(
        trials=config["trials"],
        element_count=int(config["element_count"]),
        order=int(pattern["order"]),
        steer_deg=float(pattern["steer_deg"]),
        aperture_radius=float(config["aperture_radius_mm"]) * 1e-3,
        min_spacing=float(config["min_spacing_mm"]) * 1e-3,
        grid=grid,
        eval_frequency_hz=float(config["eval_frequency_hz"]),
        master_seed=int(seed),
        pattern_family=str(pattern.get("family", "hypercardioid")),
        custom_a=tuple(custom) if custom is not None else None,
        element_model=str(config.get("element_model", "first_order")),
        speed_of_sound=_speed_of_sound(args, config),
        angle_count=_angle_count(float(config.get("angle_step_deg", 1.0))),
        db_floor=float(config.get("db_floor", STATISTICS_FLOOR_DB)),
    )
    stats = run_trials(trial_config, workers=max(1, args.threads))

    out_dir = Path(args.out)
    fileio.write_study(out_dir, stats)
    print(out_dir / "bp_stats.csv")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="diffbeam",
        description="Design and evaluate frequency-invariant differential "
        "beamformers on planar arrays of first-order elements.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the run config (JSON)")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker count; results are byte-identical for any value",
    )
    common.add_argument(
        "--c-mps", type=float, default=None, dest="c_mps",
        help="speed of sound override in m/s",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    geometry = sub.add_parser(
        "geometry", parents=[common], help="generate or validate array geometries"
    )
    geometry.add_argument("mode", choices=("generate", "validate"))
    geometry.set_defaults(handler=_cmd_geometry)
    design = sub.add_parser("design", parents=[common], help="solve for filter weights")
    design.set_defaults(handler=_cmd_design)
    evaluate = sub.add_parser(
        "evaluate", parents=[common], help="render beampattern/WNG/DF CSVs"
    )
    evaluate.set_defaults(handler=_cmd_evaluate)
    montecarlo = sub.add_parser(
        "montecarlo", parents=[common], help="randomized robustness study"
    )
    montecarlo.set_defaults(handler=_cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyError as err:
        print(f"error: missing required config field {err}", file=sys.stderr)
        return 1
    except _USER_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
