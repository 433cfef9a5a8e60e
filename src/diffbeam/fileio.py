"""File formats: geometry and run configs (JSON), filter and result CSVs.

Unit policy at the file boundary: lengths in millimeters, angles in
degrees, frequencies in Hz, with the unit spelled out in the field name.
Everything becomes meters/radians the moment it is parsed. Result CSVs
carry one header row and numbers with nine significant digits; the
filter export keeps full precision so a design round-trips exactly.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .geometry import ArrayElement, ArrayGeometry
from .patterns import PatternCoefficients, SteeredTarget, a_to_b, resolve_pattern
from .solver import BeamformerFilter, FrequencyGrid

FORMAT_VERSION = 1


def _fmt(value: float) -> str:
    # nine significant digits; +0.0 normalizes a negative zero
    return format(float(value) + 0.0, ".9g")


def _fmt_exact(value: float) -> str:
    return repr(float(value) + 0.0)


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


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ValueError(f"{context}: missing required field {key!r}")
    return mapping[key]


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


def geometry_from_payload(payload: dict, context: str = "geometry") -> ArrayGeometry:
    aperture = float(_require(payload, "aperture_radius_mm", context)) * 1e-3
    spacing = float(_require(payload, "min_spacing_mm", context)) * 1e-3
    raw_elements = _require(payload, "elements", context)
    if not isinstance(raw_elements, list) or not raw_elements:
        raise ValueError(f"{context}: 'elements' must be a non-empty list")
    elements = []
    for i, entry in enumerate(raw_elements):
        where = f"{context}: element {i}"
        elements.append(
            ArrayElement(
                r=float(_require(entry, "r_mm", where)) * 1e-3,
                phi=math.radians(float(_require(entry, "phi_deg", where))),
                q=float(_require(entry, "q", where)),
                theta_steer=math.radians(float(_require(entry, "theta_steer_deg", where))),
            )
        )
    return ArrayGeometry(
        elements=tuple(elements), aperture_radius=aperture, min_spacing=spacing
    )


def save_geometry_file(geometry: ArrayGeometry, path) -> None:
    payload = geometry_to_payload(geometry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_geometry_file(path) -> ArrayGeometry:
    return geometry_from_payload(load_json(path), context=str(path))


# ---------------------------------------------------------------------------
# pattern and grid configs

def pattern_from_config(config: dict, context: str = "pattern"):
    """Resolve a pattern config into (target, pattern_id, coefficients)."""
    family = str(_require(config, "family", context))
    order = int(_require(config, "order", context))
    steer_deg = float(_require(config, "steer_deg", context))
    custom = config.get("a")
    coeffs, pattern_id = resolve_pattern(family, order, custom)
    target = SteeredTarget(coefficients=a_to_b(coeffs), theta_s=math.radians(steer_deg))
    return target, pattern_id, coeffs


def grid_from_config(config: dict, context: str = "grid_hz") -> FrequencyGrid:
    return FrequencyGrid(
        f_min_hz=float(_require(config, "f_min", context)),
        f_max_hz=float(_require(config, "f_max", context)),
        count=int(_require(config, "count", context)),
    )


def grid_to_payload(grid: FrequencyGrid) -> dict:
    return {"f_min": grid.f_min_hz, "f_max": grid.f_max_hz, "count": grid.count}


# ---------------------------------------------------------------------------
# filter export and design manifest

def write_filter_csv(filt: BeamformerFilter, path) -> None:
    """One row per grid frequency: f_hz then interleaved re/im weights."""
    header = ["f_hz"]
    for m in range(1, filt.size + 1):
        header += [f"re_h{m}", f"im_h{m}"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for f_hz, row in zip(filt.grid.frequencies_hz, filt.weights):
            cells = [_fmt_exact(f_hz)]
            for w in row:
                cells += [_fmt_exact(w.real), _fmt_exact(w.imag)]
            writer.writerow(cells)


def write_design_manifest(
    path,
    filt: BeamformerFilter,
    pattern_coefficients: PatternCoefficients,
    steer_deg: float,
    geometry_file: str,
    speed_of_sound: float,
    filter_file: str,
    seed: int | None = None,
) -> None:
    from . import __version__

    payload = {
        "format_version": FORMAT_VERSION,
        "package_version": __version__,
        "filter_file": filter_file,
        "geometry_file": geometry_file,
        "geometry_digest": filt.geometry_digest,
        "element_model": filt.element_model,
        "pattern": {
            "id": filt.pattern_id,
            "order": filt.order,
            "steer_deg": steer_deg,
            "a": list(pattern_coefficients.a),
        },
        "grid_hz": grid_to_payload(filt.grid),
        "speed_of_sound_mps": speed_of_sound,
        "seed": seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_design(manifest_path):
    """Load a design manifest plus its filter CSV.

    Returns
    -------
    (BeamformerFilter, dict)
        The reconstructed filter and the raw manifest payload.
    """
    manifest_path = Path(manifest_path)
    manifest = load_json(manifest_path)
    context = str(manifest_path)
    grid = grid_from_config(_require(manifest, "grid_hz", context), context)
    pattern = _require(manifest, "pattern", context)
    filter_file = manifest_path.parent / _require(manifest, "filter_file", context)

    with open(filter_file, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if len(rows) != grid.count:
        raise ValueError(
            f"{filter_file}: expected {grid.count} rows, found {len(rows)}"
        )
    size = (len(header) - 1) // 2
    weights = np.empty((grid.count, size), dtype=complex)
    for i, row in enumerate(rows):
        values = [float(v) for v in row]
        expected = grid.frequencies_hz[i]
        if not math.isclose(values[0], expected, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(
                f"{filter_file}: row {i} frequency {values[0]} does not match "
                f"the manifest grid point {expected}"
            )
        re = np.array(values[1::2])
        im = np.array(values[2::2])
        weights[i] = re + 1j * im

    filt = BeamformerFilter(
        grid=grid,
        weights=weights,
        order=int(_require(pattern, "order", context)),
        theta_s=math.radians(float(_require(pattern, "steer_deg", context))),
        pattern_id=str(_require(pattern, "id", context)),
        geometry_digest=str(_require(manifest, "geometry_digest", context)),
        element_model=str(_require(manifest, "element_model", context)),
    )
    return filt, manifest


# ---------------------------------------------------------------------------
# result CSVs

def _write_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_beampattern_csv(path, angles_deg, rendered_db, target_db) -> None:
    _write_rows(
        path,
        ["angle_deg", "rendered_db", "target_db"],
        zip(angles_deg, rendered_db, target_db),
    )


def write_wng_csv(path, frequencies_hz, wng_db) -> None:
    _write_rows(path, ["freq_hz", "wng_db"], zip(frequencies_hz, wng_db))


def write_df_csv(path, frequencies_hz, df_db) -> None:
    _write_rows(path, ["freq_hz", "df_db"], zip(frequencies_hz, df_db))


def write_bp_stats_csv(path, angles_deg, mean_db, std_db) -> None:
    rows = [
        (a, m, s, m - s, m + s)
        for a, m, s in zip(angles_deg, mean_db, std_db)
    ]
    _write_rows(path, ["angle_deg", "mean_db", "std_db", "lower_ci", "upper_ci"], rows)


def write_wng_stats_csv(path, frequencies_hz, mean_db, std_db) -> None:
    _write_rows(
        path,
        ["freq_hz", "mean_wng", "std_wng"],
        zip(frequencies_hz, mean_db, std_db),
    )


def write_df_stats_csv(path, frequencies_hz, mean_db, std_db) -> None:
    _write_rows(
        path,
        ["freq_hz", "mean_df", "std_df"],
        zip(frequencies_hz, mean_db, std_db),
    )


def write_failures_report(path, trials: int, failures) -> None:
    payload = {
        "total_trials": trials,
        "failed_trials": len(failures),
        "failures": [{"trial": f.index, "reason": f.reason} for f in failures],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
