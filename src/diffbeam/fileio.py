"""File formats: geometry and run configs (JSON), filter and result CSVs.

Unit policy at the file boundary: lengths in millimeters, angles in
degrees, frequencies in Hz, with the unit spelled out in the field name.
Everything becomes meters/radians the moment it is parsed. Every CSV is
one header row and a float table written by `write_table`: result CSVs
carry nine significant digits (``%.9g``), the filter export keeps full
precision (``%r``) so a design round-trips exactly.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .geometry import (
    ArrayElement,
    ArrayGeometry,
    PhysicalConstants,
    check_element_field,
    check_positive,
)
from .patterns import PATTERN_FAMILIES, PatternCoefficients, SteeredTarget, a_to_b, resolve_pattern
from .solver import BeamformerFilter, FrequencyGrid

FORMAT_VERSION = 1


def write_table(path, header, table, exact: bool = False) -> None:
    """One CSV: a header row, then the (rows, cols) float ``table``.

    Cells are ``%.9g``, or ``%r`` (the shortest text that reads back to the
    same double) when ``exact``; a negative zero is written as ``0``. Lines
    end in LF and nothing is quoted.
    """
    table = np.asarray(table, dtype=float) + 0.0
    rows, cols = table.shape
    line = ",".join(["%r" if exact else "%.9g"] * cols) + "\n"
    text = ",".join(header) + "\n" + (line * rows) % tuple(table.ravel().tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def load_json(path) -> dict:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"{path}: malformed JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


def write_json(path, payload) -> None:
    """``payload`` as JSON, indented two spaces with sorted keys and a final
    newline, in one write."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


_REQUIRED = object()
_JSON_NAMES = {float: "number", int: "integer", str: "string", dict: "object", list: "array"}


def read(mapping: dict, key: str, kind, context: str, default=_REQUIRED):
    """``mapping[key]`` as a JSON value of ``kind``, or ``default`` when absent.

    ``float`` takes any JSON number a double can hold and returns a float,
    ``int`` only an integer literal (``80.0`` is refused), ``str``,
    ``dict`` and ``list`` their JSON type, ``object`` any value, for a key
    whose user checks it, and a tuple of names one of them. Booleans are not
    numbers. A missing required key, or a value of another type, raises
    `ValueError` naming ``context`` and ``key``.
    """
    if not isinstance(mapping, dict):
        raise ValueError(f"{context}: expected a JSON object, got {type(mapping).__name__}")
    if key not in mapping:
        if default is _REQUIRED:
            raise ValueError(f"{context}: missing required field {key!r}")
        return default
    return _typed(mapping[key], kind, f"{context}: {key!r}")


def read_checked(mapping: dict, key: str, kind, context: str, check, default=_REQUIRED):
    """``check`` of the value `read` gives; a value ``check`` refuses is
    refused on one line ending with ``context`` and the key."""
    value = read(mapping, key, kind, context, default)
    try:
        return check(value)
    except ValueError as err:
        raise ValueError(f"{err} ({context}: {key!r})") from None


def read_constants(mapping: dict, context: str, default: float = 343.0) -> PhysicalConstants:
    """The constants of ``mapping``'s ``speed_of_sound_mps``, as `read_checked` reads it."""
    return read_checked(mapping, "speed_of_sound_mps", float, context, PhysicalConstants, default)


def read_numbers(mapping: dict, key: str, context: str, default=_REQUIRED):
    """``mapping[key]`` as a JSON array of numbers, each a float as `read`
    gives it, or ``default`` when absent; an entry of another type is
    refused by its index."""
    entries = read(mapping, key, list, context, default)
    if entries is default:
        return default
    return [
        _typed(entry, float, f"{context}: {key!r} entry {i}") for i, entry in enumerate(entries)
    ]


def _typed(value, kind, name: str):
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
        return value
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind in (int, float)):
        raise ValueError(f"{name} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{name} must be a JSON number a double can hold, "
            f"got an integer of {value.bit_length()} bits"
        ) from None


# ---------------------------------------------------------------------------
# geometry files

def geometry_to_payload(geometry: ArrayGeometry) -> dict:
    return {
        "aperture_radius_mm": geometry.aperture_radius * 1e3,
        "min_spacing_mm": geometry.min_spacing * 1e3,
        "elements": [
            {
                "r_mm": e.r * 1e3,
                "phi_deg": math.degrees(e.phi),
                "q": e.q,
                "theta_steer_deg": math.degrees(e.theta_steer),
            }
            for e in geometry.elements
        ],
    }


def read_length(mapping: dict, key: str, context: str, check=check_positive) -> float:
    """``mapping``'s length ``key``, written in millimeters, in meters, as
    `read_checked` reads it with ``check``, by default `ArrayGeometry`'s
    rule: positive and finite."""
    return read_checked(mapping, key, float, context,
                        functools.partial(check, name=key)) * 1e-3


# each element key of a geometry file, with the ArrayElement field it sets
_ELEMENT_KEYS = (("r_mm", "r"), ("phi_deg", "phi"), ("q", "q"), ("theta_steer_deg", "theta_steer"))


def geometry_from_payload(payload: dict, context: str = "geometry") -> ArrayGeometry:
    """The geometry a geometry file's ``payload`` holds. A value that its
    element or the geometry refuses is refused naming ``context``, the
    element index and the key, with the value as written."""
    aperture = read_length(payload, "aperture_radius_mm", context)
    spacing = read_length(payload, "min_spacing_mm", context)
    raw_elements = read(payload, "elements", list, context)
    elements = []
    for i, entry in enumerate(raw_elements):
        where = f"{context}: element {i}"
        r, phi, q, steer = (
            read_checked(entry, key, float, where, functools.partial(check_element_field, name))
            for key, name in _ELEMENT_KEYS
        )
        elements.append(
            ArrayElement(r=r * 1e-3, phi=math.radians(phi), q=q, theta_steer=math.radians(steer))
        )
    try:
        return ArrayGeometry(
            elements=tuple(elements), aperture_radius=aperture, min_spacing=spacing
        )
    except ValueError as err:
        # the lengths are checked above, so the geometry refuses its elements
        raise ValueError(f"{err} ({context}: 'elements')") from None


def save_geometry_file(geometry: ArrayGeometry, path) -> None:
    write_json(path, geometry_to_payload(geometry))


def load_geometry_file(path) -> ArrayGeometry:
    return geometry_from_payload(load_json(path), context=str(path))


# ---------------------------------------------------------------------------
# pattern and grid configs

# the keys a run config's pattern section may hold
PATTERN_KEYS = ("family", "order", "steer_deg", "a")


def pattern_from_config(config: dict, context: str = "pattern"):
    """Resolve a pattern config into (target, pattern_id, coefficients).

    A pattern `resolve_pattern` refuses is refused with ``context`` at the
    end of its message.
    """
    family = read(config, "family", PATTERN_FAMILIES, context)
    order = read(config, "order", int, context)
    steer_deg = read(config, "steer_deg", float, context)
    custom = read_numbers(config, "a", context, default=None)
    try:
        coeffs, pattern_id = resolve_pattern(family, order, custom)
    except ValueError as err:
        raise ValueError(f"{err} ({context})") from None
    target = SteeredTarget(coefficients=a_to_b(coeffs), theta_s=math.radians(steer_deg))
    return target, pattern_id, coeffs


GRID_KEYS = ("f_min", "f_max", "count")


def grid_from_config(config: dict, context: str = "grid_hz") -> FrequencyGrid:
    """The grid a ``grid_hz`` section holds; a grid `FrequencyGrid` refuses
    is refused naming ``context``."""
    f_min = read(config, "f_min", float, context)
    f_max = read(config, "f_max", float, context)
    count = read(config, "count", int, context)
    try:
        return FrequencyGrid(f_min_hz=f_min, f_max_hz=f_max, count=count)
    except ValueError as err:
        raise ValueError(f"{context}: {err}") from None


def grid_to_payload(grid: FrequencyGrid) -> dict:
    return {"f_min": grid.f_min_hz, "f_max": grid.f_max_hz, "count": grid.count}


# ---------------------------------------------------------------------------
# filter export and design manifest

FILTER_FILE = "filter.csv"


def write_filter_csv(path, filt: BeamformerFilter) -> None:
    """One row per grid frequency: f_hz then interleaved re/im weights."""
    weights = np.ascontiguousarray(filt.weights, dtype=complex).view(float)
    table = np.column_stack([filt.grid.frequencies_hz, weights])
    write_table(path, _filter_header(filt.size), table, exact=True)


def _filter_header(size: int) -> list[str]:
    """``f_hz, re_h1, im_h1, ..., re_hM, im_hM`` for ``size`` elements."""
    return ["f_hz"] + [f"{part}_h{m}" for m in range(1, size + 1) for part in ("re", "im")]


def write_design_manifest(
    path,
    filt: BeamformerFilter,
    pattern_coefficients: PatternCoefficients,
    geometry_file: str,
    speed_of_sound: float,
    seed: int | None = None,
) -> None:
    """The manifest of ``filt``, whose weights sit in `FILTER_FILE` beside it."""
    from . import __version__

    payload = {
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "filter_file": FILTER_FILE,
        "geometry_file": geometry_file,
        "geometry_digest": filt.geometry_digest,
        "element_model": filt.element_model,
        "pattern": {
            "id": filt.pattern_id,
            "order": filt.order,
            "steer_deg": math.degrees(filt.theta_s),
            "a": list(pattern_coefficients.a),
        },
        "grid_hz": grid_to_payload(filt.grid),
        "speed_of_sound_mps": speed_of_sound,
        "seed": seed,
    }
    write_json(path, payload)


def _read_filter_weights(filter_file, grid: FrequencyGrid) -> np.ndarray:
    """The (F, M) complex weights of a filter CSV written by `write_filter_csv`.

    The file is parsed as one float table. Refused, naming the file: a
    header other than `_filter_header`, a row count other than the grid's,
    and, naming the first bad row, a row with another cell count, a cell
    that is not a number, a weight that is not finite, or a frequency off
    its grid point by more than 1e-9 (relative and absolute, as
    `math.isclose`).
    """
    with open(filter_file, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",") if lines else []
    width = len(header)
    if width < 3 or header != _filter_header((width - 1) // 2):
        raise ValueError(
            f"{filter_file}: header must read f_hz, re_h1, im_h1, ..., re_hM, im_hM; "
            f"found {lines[0] if lines else ''!r}"
        )
    rows = lines[1:]
    if len(rows) != grid.count:
        raise ValueError(
            f"{filter_file}: expected {grid.count} rows, found {len(rows)}"
        )
    for i, row in enumerate(rows):
        if row.count(",") != width - 1:
            raise ValueError(
                f"{filter_file}: row {i} has {row.count(',') + 1} cells, "
                f"the header has {width}"
            )
    cells = ",".join(rows).split(",")
    try:
        table = np.array(cells, dtype=float).reshape(grid.count, width)
    except ValueError:
        for k, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                raise ValueError(
                    f"{filter_file}: row {k // width} column {header[k % width]}: "
                    f"{cell!r} is not a number"
                ) from None
        raise

    finite = np.isfinite(table[:, 1:])
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(
            f"{filter_file}: row {i} column {header[j + 1]}: "
            f"{cells[i * width + j + 1]!r} is not a finite number"
        )

    frequencies, expected = table[:, 0], grid.frequencies_hz
    tolerance = np.maximum(1e-9 * np.maximum(np.abs(frequencies), np.abs(expected)), 1e-9)
    close = np.isfinite(frequencies) & (np.abs(frequencies - expected) <= tolerance)
    if not close.all():
        i = int(np.argmin(close))
        raise ValueError(
            f"{filter_file}: row {i} frequency {frequencies[i]} does not match "
            f"the manifest grid point {expected[i]}"
        )
    return table[:, 1::2] + 1j * table[:, 2::2]


def load_design(manifest_path):
    """The design a manifest and its filter CSV hold.

    Returns
    -------
    (BeamformerFilter, SteeredTarget, float)
        The filter; its target, from the manifest's pattern, whose order and
        steering the filter carries; and the speed of sound it was designed
        at, 343 m/s when absent, refused naming the manifest unless positive
        and finite. The pattern's ``a`` is the normalized one the design
        solved for and is read as written: it is refused naming the
        manifest unless it holds ``order + 1`` finite entries summing to
        within 1e-9 of 1, the tolerance `solver.design_rhs` allows.
    """
    manifest_path = Path(manifest_path)
    manifest = load_json(manifest_path)
    context = str(manifest_path)
    grid = grid_from_config(read(manifest, "grid_hz", dict, context), f"{context}: grid_hz")
    pattern, where = read(manifest, "pattern", dict, context), f"{context}: pattern"
    order = read(pattern, "order", int, where)
    a = read_numbers(pattern, "a", where)
    if len(a) != order + 1:
        raise ValueError(
            f"{where}: 'a' holds {len(a)} coefficients, order {order} needs {order + 1}"
        )
    if not all(math.isfinite(v) for v in a):
        raise ValueError(f"{where}: 'a' entries must be finite, got {a!r}")
    if abs(sum(a) - 1.0) > 1e-9:
        raise ValueError(f"{where}: 'a' sums to {sum(a)!r}, not 1 as a design's coefficients do")
    target = SteeredTarget(
        coefficients=a_to_b(PatternCoefficients(a)),
        theta_s=math.radians(read(pattern, "steer_deg", float, where)),
    )
    constants = read_constants(manifest, context)
    filter_file = manifest_path.parent / read(manifest, "filter_file", str, context)

    weights = _read_filter_weights(filter_file, grid)

    filt = BeamformerFilter(
        grid=grid,
        weights=weights,
        order=target.order,
        theta_s=target.theta_s,
        pattern_id=read(pattern, "id", str, where),
        geometry_digest=read(manifest, "geometry_digest", str, context),
        element_model=read(manifest, "element_model", str, context),
    )
    return filt, target, constants.speed_of_sound


# ---------------------------------------------------------------------------
# result CSVs

def write_beampattern_csv(path, angles_deg, rendered_db, target_db) -> None:
    write_table(
        path,
        ["angle_deg", "rendered_db", "target_db"],
        np.column_stack([angles_deg, rendered_db, target_db]),
    )


def write_wng_csv(path, frequencies_hz, wng_db) -> None:
    write_table(path, ["freq_hz", "wng_db"], np.column_stack([frequencies_hz, wng_db]))


def write_df_csv(path, frequencies_hz, df_db) -> None:
    write_table(path, ["freq_hz", "df_db"], np.column_stack([frequencies_hz, df_db]))


def write_bp_stats_csv(path, angles_deg, mean_db, std_db) -> None:
    mean_db = np.asarray(mean_db, dtype=float)
    std_db = np.asarray(std_db, dtype=float)
    write_table(
        path,
        ["angle_deg", "mean_db", "std_db", "lower_ci", "upper_ci"],
        np.column_stack([angles_deg, mean_db, std_db, mean_db - std_db, mean_db + std_db]),
    )


def write_wng_stats_csv(path, frequencies_hz, mean_db, std_db) -> None:
    write_table(
        path,
        ["freq_hz", "mean_wng", "std_wng"],
        np.column_stack([frequencies_hz, mean_db, std_db]),
    )


def write_df_stats_csv(path, frequencies_hz, mean_db, std_db) -> None:
    write_table(
        path,
        ["freq_hz", "mean_df", "std_df"],
        np.column_stack([frequencies_hz, mean_db, std_db]),
    )


def write_failures_report(path, trials: int, failures) -> None:
    write_json(path, {
        "total_trials": trials,
        "failed_trials": len(failures),
        "failures": [{"trial": f.index, "reason": f.reason} for f in failures],
    })


def write_study(out_dir, stats) -> None:
    """The four files of a Monte Carlo study (`TrialStatistics`) in
    ``out_dir``, made if missing: bp_stats.csv, wng_stats.csv, df_stats.csv
    and failures.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_bp_stats_csv(
        out_dir / "bp_stats.csv", stats.angles_deg, stats.bp_mean_db, stats.bp_std_db
    )
    write_wng_stats_csv(
        out_dir / "wng_stats.csv", stats.frequencies_hz, stats.wng_mean_db, stats.wng_std_db
    )
    write_df_stats_csv(
        out_dir / "df_stats.csv", stats.frequencies_hz, stats.df_mean_db, stats.df_std_db
    )
    write_failures_report(out_dir / "failures.json", stats.trials, stats.failures)
