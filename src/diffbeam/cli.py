"""Command-line front end.

Subcommands mirror the workflow: ``geometry generate|validate`` to
produce or check array layouts, ``design`` to solve for filter weights,
``evaluate`` to render beampattern/WNG/DF CSVs for one design, and
``montecarlo`` for randomized robustness studies. Each takes ``--config``;
all but ``geometry validate``, which writes nothing, take ``--out``;
``geometry generate``, ``design`` and ``montecarlo`` take ``--seed`` and
``montecarlo`` ``--threads``, which changes wall time only, never bytes.
Every output is a deterministic function of (config, seed). The speed of
sound is set by the config key ``speed_of_sound_mps`` alone.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import (
    AllTrialsFailedError,
    FrequencyGridError,
    GeometryMismatchError,
    InfeasibleGeometryError,
    RankDeficientSystemError,
)
from .fileio import read, read_checked, read_constants
from .geometry import (
    check_count,
    check_non_negative,
    geometry_digest,
    sample_random_geometry,
    validate_geometry,
)
from .metrics import (
    BEAMPATTERN_FLOOR_DB,
    angle_count,
    check_floor_db,
    coefficient_gains,
    equispaced_pattern,
    filter_coefficients,
    magnitude_db,
    power_db,
)
from .modal import ELEMENT_MODELS
from .montecarlo import (
    STATISTICS_FLOOR_DB,
    TrialConfig,
    check_trials,
    keep_freed_memory,
    run_trials,
)
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


# the keys each command's run config may hold; its pattern and grid_hz
# sections hold fileio.PATTERN_KEYS and fileio.GRID_KEYS. A design
# manifest's pattern also carries its "id" and is not checked
_CONFIG_KEYS = {
    "generate": ("element_count", "aperture_radius_mm", "min_spacing_mm", "seed"),
    "design": ("geometry_file", "pattern", "grid_hz", "element_model", "speed_of_sound_mps"),
    "evaluate": (
        "geometry_file", "design_manifest", "eval_frequency_hz", "angle_step_deg",
        "integration_points", "beampattern_floor_db", "speed_of_sound_mps",
    ),
    "montecarlo": (
        "trials", "element_count", "aperture_radius_mm", "min_spacing_mm", "pattern",
        "grid_hz", "eval_frequency_hz", "master_seed", "element_model", "speed_of_sound_mps",
        "angle_step_deg", "db_floor",
    ),
}


def _known(mapping: dict, keys: tuple[str, ...], context: str) -> dict:
    """``mapping``, refused by the first key that is not one of ``keys``."""
    for key in mapping:
        if key not in keys:
            raise ValueError(
                f"{context}: unknown key {key!r}; expected one of {', '.join(sorted(keys))}"
            )
    return mapping


def _load_config(config_path: Path, command: str) -> tuple[dict, str]:
    """The run config at ``config_path`` with its context, unknown keys refused."""
    context = str(config_path)
    return _known(fileio.load_json(config_path), _CONFIG_KEYS[command], context), context


def _pattern(config: dict, context: str) -> tuple[dict, str]:
    where = f"{context}: pattern"
    return _known(read(config, "pattern", dict, context), fileio.PATTERN_KEYS, where), where


def _grid(config: dict, context: str) -> FrequencyGrid:
    grid_config = read(config, "grid_hz", dict, context, default={})
    if not grid_config:
        return DEFAULT_GRID
    where = f"{context}: grid_hz"
    return fileio.grid_from_config(_known(grid_config, fileio.GRID_KEYS, where), context=where)


def _eval_frequency(config: dict, context: str, grid: FrequencyGrid) -> float:
    """The config's ``eval_frequency_hz``; one off ``grid`` is refused naming the key."""
    f_hz = read(config, "eval_frequency_hz", float, context)
    try:
        grid.index(f_hz)
    except FrequencyGridError as err:
        raise ValueError(f"{context}: 'eval_frequency_hz': {err}") from None
    return f_hz


def _floor_db(config: dict, key: str, context: str, default: float) -> float:
    """The config's dB floor ``key``, refused where `magnitude_db` cannot clamp at it."""
    return read_checked(config, key, float, context,
                        functools.partial(check_floor_db, name=key), default)


def _angle_count(config: dict, context: str) -> int:
    """The number of angles the config's ``angle_step_deg``, 1 by default, closes the circle in."""
    return read_checked(config, "angle_step_deg", float, context, angle_count, 1.0)


def _seed(args, config: dict, key: str, context: str) -> int:
    """``--seed``, else the config's ``key``."""
    seed = read(config, key, int, context) if args.seed is None else args.seed
    if seed < 0:
        raise ValueError(f"{context}: {key!r} must be non-negative, got {seed}")
    return seed


def _inert_integration_points(config: dict, context: str) -> None:
    """DF is exact, so the key sets nothing, but values below 512 are refused."""
    points = read(config, "integration_points", int, context, default=512)
    if points < 512:
        raise ValueError(f"{context}: integration_points must be >= 512, got {points}")


def _cmd_validate(args) -> int:
    report = validate_geometry(fileio.load_geometry_file(Path(args.config)))
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_generate(args) -> int:
    config, context = _load_config(Path(args.config), "generate")
    geometry = sample_random_geometry(
        read_checked(config, "element_count", int, context,
                     functools.partial(check_count, name="element_count")),
        fileio.read_length(config, "aperture_radius_mm", context),
        fileio.read_length(config, "min_spacing_mm", context),
        seed=_seed(args, config, "seed", context),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "geometry.json"
    fileio.save_geometry_file(geometry, target)
    print(target)
    return 0


def _cmd_design(args) -> int:
    config_path = Path(args.config)
    config, context = _load_config(config_path, "design")
    # a relative path is taken from the config's directory, an absolute one as it is
    geometry_file = config_path.parent / read(config, "geometry_file", str, context)
    geometry = fileio.load_geometry_file(geometry_file)
    target, pattern_id, coeffs = fileio.pattern_from_config(*_pattern(config, context))
    grid = _grid(config, context)
    element_model = read(config, "element_model", ELEMENT_MODELS, context, default="first_order")
    constants = read_constants(config, context)

    filt = design_filter(
        geometry, constants, target, grid, element_model, pattern_id=pattern_id
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    fileio.write_filter_csv(out_dir / fileio.FILTER_FILE, filt)
    fileio.write_design_manifest(
        out_dir / "design_manifest.json",
        filt,
        pattern_coefficients=coeffs,
        geometry_file=str(geometry_file),
        speed_of_sound=constants.speed_of_sound,
        seed=args.seed,
    )
    print(out_dir / fileio.FILTER_FILE)
    return 0


def _cmd_evaluate(args) -> int:
    config_path = Path(args.config)
    config, context = _load_config(config_path, "evaluate")
    base = config_path.parent
    geometry = fileio.load_geometry_file(base / read(config, "geometry_file", str, context))
    filt, target, designed_c = fileio.load_design(
        base / read(config, "design_manifest", str, context)
    )
    if geometry_digest(geometry) != filt.geometry_digest:
        raise GeometryMismatchError(
            "geometry file does not match the design manifest digest; "
            "evaluating a filter on a different array is not meaningful"
        )

    constants = read_constants(config, context, default=designed_c)
    count = _angle_count(config, context)
    _inert_integration_points(config, context)
    floor_db = _floor_db(config, "beampattern_floor_db", context, BEAMPATTERN_FLOOR_DB)

    eval_index = filt.grid.index(_eval_frequency(config, context, filt.grid))
    theta_deg = 360.0 * np.arange(count) / count
    target_values = evaluate_target(target, np.radians(theta_deg))

    coefficients = filter_coefficients(filt, geometry, constants)
    rendered = equispaced_pattern(coefficients[eval_index], count)
    wng, df = coefficient_gains(coefficients, filt.weights, filt.theta_s)

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
    config, context = _load_config(config_path, "montecarlo")
    pattern, where = _pattern(config, context)
    # a study's pattern reads as a design's, but is a hypercardioid unless it names a family
    pattern.setdefault("family", "hypercardioid")
    target, _, _ = fileio.pattern_from_config(pattern, where)
    grid = _grid(config, context)
    trial_config = TrialConfig(
        trials=read_checked(config, "trials", object, context, check_trials),
        element_count=read_checked(config, "element_count", int, context,
                                   functools.partial(check_count, name="element_count")),
        target=target,
        aperture_radius=fileio.read_length(config, "aperture_radius_mm", context),
        # a study may set no spacing at all
        min_spacing=fileio.read_length(config, "min_spacing_mm", context, check_non_negative),
        grid=grid,
        eval_frequency_hz=_eval_frequency(config, context, grid),
        master_seed=_seed(args, config, "master_seed", context),
        element_model=read(config, "element_model", ELEMENT_MODELS, context,
                           default="first_order"),
        speed_of_sound=read_constants(config, context).speed_of_sound,
        angle_count=_angle_count(config, context),
        db_floor=_floor_db(config, "db_floor", context, STATISTICS_FLOOR_DB),
    )
    stats = run_trials(trial_config, workers=args.threads)

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
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="path to the run config (JSON)")
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--out", default=".", help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)
    geometry = sub.add_parser("geometry", help="generate or validate array geometries")
    modes = geometry.add_subparsers(dest="mode", required=True)
    generate = modes.add_parser("generate", parents=[common], help="sample a random geometry")
    generate.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    generate.set_defaults(handler=_cmd_generate)
    validate = modes.add_parser("validate", parents=[config], help="check a geometry file")
    validate.set_defaults(handler=_cmd_validate)
    design = sub.add_parser("design", parents=[common], help="solve for filter weights")
    design.add_argument("--seed", type=int, default=None, help="recorded in the design manifest")
    design.set_defaults(handler=_cmd_design)
    evaluate = sub.add_parser("evaluate", parents=[common], help="render beampattern/WNG/DF CSVs")
    evaluate.set_defaults(handler=_cmd_evaluate)
    montecarlo = sub.add_parser("montecarlo", parents=[common], help="randomized robustness study")
    montecarlo.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    montecarlo.add_argument("--threads", type=int, default=1,
                            help="worker count; results are byte-identical for any value")
    montecarlo.set_defaults(handler=_cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, minimum in (("seed", 0), ("threads", 1)):
        value = getattr(args, flag, None)  # None where the subcommand lacks the flag
        if value is not None and value < minimum:
            parser.error(f"argument --{flag}: must be >= {minimum}, got {value}")
    try:
        return args.handler(args)
    except _USER_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
    except MemoryError as err:
        # an array a config's sizes call for that cannot be allocated
        print(f"error: {err or 'out of memory'} ({args.config})", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
