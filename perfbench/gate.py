"""Correctness gate: judges the outputs of every benchmark call.

Only the package's stable public surface is used: the CLI output files,
`beampattern`, `evaluate_target` and `apply_steering`, plus the plain data
types needed to call them. A call's first outputs for an input are checked
against independent recomputation; every later call on the same input must
reproduce them byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from diffbeam import (
    ArrayElement,
    ArrayGeometry,
    BeamformerFilter,
    FrequencyGrid,
    PhysicalConstants,
    SteeredTarget,
    SymmetricB,
    apply_steering,
    beampattern,
    evaluate_target,
)

from workloads import BEAMPATTERN_FLOOR_DB, INTEGRATION_POINTS, SPEED_OF_SOUND, Call

# criterion 03's bound on the in-band modal residual
MODAL_TOL = 1e-9
# rendered harmonics are read off this many angles; harmonics past |n| ~ 30
# vanish at these apertures, so nothing aliases onto |n| <= 4
FFT_ANGLES = 128
# result CSVs carry nine significant digits
DB_TOL = 1e-6
# weights may move by a few ulps times the Gram condition, never more
WEIGHT_RTOL = 1e-7
# desk-scale mean rendered level at the steering angle
STEER_LEVEL_DB = 1.0

OUTPUT_FILES = {
    "design": ("filter.csv", "design_manifest.json"),
    "evaluate": ("beampattern.csv", "wng.csv", "df.csv"),
    "montecarlo": ("bp_stats.csv", "wng_stats.csv", "df_stats.csv", "failures.json"),
}
CONSTANTS = PhysicalConstants(speed_of_sound=SPEED_OF_SOUND)
BEAMPATTERN_HEADER = ["angle_deg", "rendered_db", "target_db"]
BP_STATS_HEADER = ["angle_deg", "mean_db", "std_db", "lower_ci", "upper_ci"]


def stats_header(name: str) -> list[str]:
    return ["freq_hz", f"mean_{name}", f"std_{name}"]


class GateError(Exception):
    """A call's outputs are wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def geometry_from(payload: dict) -> ArrayGeometry:
    # same unit conversions as the geometry file reader
    return ArrayGeometry(
        elements=tuple(
            ArrayElement(
                r=float(e["r_mm"]) * 1e-3,
                phi=math.radians(float(e["phi_deg"])),
                q=float(e["q"]),
                theta_steer=math.radians(float(e["theta_steer_deg"])),
            )
            for e in payload["elements"]
        ),
        aperture_radius=float(payload["aperture_radius_mm"]) * 1e-3,
        min_spacing=float(payload["min_spacing_mm"]) * 1e-3,
    )


def target_from(a: list[float], steer_deg: float) -> SteeredTarget:
    order = len(a) - 1
    b = [a[abs(n)] / (1.0 if n == 0 else 2.0) for n in range(-order, order + 1)]
    return SteeredTarget(coefficients=SymmetricB(b=tuple(b)), theta_s=math.radians(steer_deg))


def read_rows(path: Path, header: list[str]) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows) and rows[0] == header, f"{path.name}: header {rows[:1]} != {header}")
    try:
        values = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    except ValueError as err:
        raise GateError(f"{path.name}: {err}") from None
    _require(values.ndim == 2 and values.shape[1] == len(header), f"{path.name}: ragged rows")
    _require(bool(np.all(np.isfinite(values))), f"{path.name}: non-finite values")
    return values


def read_filter(expect: dict, out: Path) -> BeamformerFilter:
    """The weights a design call wrote to ``out``, as a filter for `beampattern`."""
    grid = expect["grid"]
    size = len(expect["geometry"]["elements"])
    header = ["f_hz"] + [f"{p}_h{m}" for m in range(1, size + 1) for p in ("re", "im")]
    values = read_rows(out / "filter.csv", header)
    freqs = np.linspace(grid["f_min"], grid["f_max"], grid["count"])
    _require(values.shape[0] == grid["count"], f"filter.csv: {values.shape[0]} rows")
    _require(bool(np.allclose(values[:, 0], freqs, rtol=1e-12, atol=0.0)), "filter.csv: grid")
    return BeamformerFilter(
        grid=FrequencyGrid(grid["f_min"], grid["f_max"], grid["count"]),
        weights=values[:, 1::2] + 1j * values[:, 2::2],
        order=expect["pattern"]["order"],
        theta_s=math.radians(expect["pattern"]["steer_deg"]),
        pattern_id="gate",
        geometry_digest="",
        element_model=expect["element_model"],
    )


def check_design(call: Call, rc: int, stderr: str) -> None:
    expect = call.expect
    refused = expect["refused_at_hz"]
    if refused is not None:
        _require(rc == 1, f"expected a rank-gate refusal, exit code {rc}")
        _require(
            "rank deficient" in stderr and f"at {refused:.6g} Hz" in stderr,
            f"expected a refusal at {refused:.6g} Hz, got {stderr.strip()!r}",
        )
        return
    _require(rc == 0, f"exit code {rc}: {stderr.strip()}")
    manifest = json.loads((call.out / "design_manifest.json").read_text(encoding="utf-8"))
    pattern = manifest["pattern"]
    _require(pattern["order"] == expect["pattern"]["order"], "manifest order")
    # the manifest writes degrees(radians(steer)), exact up to an ulp
    _require(
        math.isclose(pattern["steer_deg"], expect["pattern"]["steer_deg"], abs_tol=1e-9),
        "manifest steering",
    )
    _require(np.allclose(pattern["a"], expect["a"], rtol=1e-12, atol=0.0), "manifest pattern")
    _require(manifest["element_model"] == expect["element_model"], "manifest element model")

    filt = read_filter(expect, call.out)
    geometry = geometry_from(expect["geometry"])
    target = target_from(expect["a"], expect["pattern"]["steer_deg"])
    order = target.order
    harmonics = np.arange(-order, order + 1)
    wanted = apply_steering(target.coefficients, target.theta_s)
    theta = 2.0 * np.pi * np.arange(FFT_ANGLES) / FFT_ANGLES
    for f_hz, omega in zip(filt.grid.frequencies_hz, filt.grid.omegas):
        rendered = np.fft.fft(beampattern(filt, geometry, CONSTANTS, omega, theta)) / FFT_ANGLES
        in_band = rendered[harmonics % FFT_ANGLES]
        residual = float(np.max(np.abs(in_band - wanted)))
        _require(residual <= MODAL_TOL, f"modal residual {residual:.3e} at {f_hz:.6g} Hz")
        # the matched (|n| <= N) part of the pattern passes theta_s at unity
        steered = abs(complex(np.sum(in_band * np.exp(1j * harmonics * target.theta_s))))
        _require(
            abs(steered - 1.0) <= MODAL_TOL,
            f"in-band response {steered!r} at theta_s, {f_hz:.6g} Hz",
        )


def _close_db(got, want, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    worst = float(np.max(np.abs(got - want) - 1e-8 * np.abs(want), initial=0.0))
    _require(worst <= DB_TOL, f"{what}: off by {worst:.3e} dB")


def _db(values, floor_db=None):
    mags = np.abs(np.asarray(values))
    if floor_db is not None:
        mags = np.maximum(mags, 10.0 ** (floor_db / 20.0))
    return 20.0 * np.log10(mags)


def check_evaluate(call: Call, rc: int, stderr: str) -> None:
    _require(rc == 0, f"exit code {rc}: {stderr.strip()}")
    expect = call.expect
    filt = read_filter(expect, expect["design_out"])
    geometry = geometry_from(expect["geometry"])
    target = target_from(expect["a"], expect["pattern"]["steer_deg"])

    count = int(round(360.0 / expect["angle_step_deg"]))
    theta_deg = 360.0 * np.arange(count) / count
    theta = np.radians(theta_deg)
    bp = read_rows(call.out / "beampattern.csv", BEAMPATTERN_HEADER)
    _close_db(bp[:, 0], theta_deg, "beampattern angles")
    omega = 2.0 * np.pi * expect["eval_hz"]
    rendered = beampattern(filt, geometry, CONSTANTS, omega, theta)
    _close_db(bp[:, 1], _db(rendered, BEAMPATTERN_FLOOR_DB), "rendered_db")
    _close_db(bp[:, 2], _db(evaluate_target(target, theta), BEAMPATTERN_FLOOR_DB), "target_db")

    quadrature = -np.pi + 2.0 * np.pi * np.arange(INTEGRATION_POINTS) / INTEGRATION_POINTS
    wng, df = [], []
    for h, omega in zip(filt.weights, filt.grid.omegas):
        peak = abs(beampattern(filt, geometry, CONSTANTS, omega, target.theta_s)) ** 2
        mean_power = np.mean(np.abs(beampattern(filt, geometry, CONSTANTS, omega, quadrature)) ** 2)
        wng.append(peak / float(np.vdot(h, h).real))
        df.append(peak / mean_power)
    freqs = filt.grid.frequencies_hz
    for name, values in (("wng", wng), ("df", df)):
        rows = read_rows(call.out / f"{name}.csv", ["freq_hz", f"{name}_db"])
        _close_db(rows[:, 0], freqs, f"{name}.csv frequencies")
        _close_db(rows[:, 1], 10.0 * np.log10(values), f"{name}_db")


def check_montecarlo(call: Call, rc: int, stderr: str) -> None:
    _require(rc == 0, f"exit code {rc}: {stderr.strip()}")
    expect = call.expect
    bp = read_rows(call.out / "bp_stats.csv", BP_STATS_HEADER)
    _close_db(bp[:, 0], np.arange(360.0), "bp_stats angles")
    _require(bool(np.all(bp[:, 2] >= 0.0)), "bp_stats: negative std")
    _close_db(bp[:, 3], bp[:, 1] - bp[:, 2], "bp_stats lower_ci")
    _close_db(bp[:, 4], bp[:, 1] + bp[:, 2], "bp_stats upper_ci")
    steer = int(expect["pattern"]["steer_deg"])
    _require(
        abs(bp[steer, 1]) <= STEER_LEVEL_DB,
        f"mean level {bp[steer, 1]} dB at the steering angle",
    )
    grid = expect["grid"]
    freqs = np.linspace(grid["f_min"], grid["f_max"], grid["count"])
    for name in ("wng", "df"):
        rows = read_rows(call.out / f"{name}_stats.csv", stats_header(name))
        _close_db(rows[:, 0], freqs, f"{name}_stats frequencies")
        _require(bool(np.all(rows[:, 2] >= 0.0)), f"{name}_stats: negative std")
    failures = json.loads((call.out / "failures.json").read_text(encoding="utf-8"))
    # every Monte Carlo slot keeps its Gram ratio decades above the rank gate
    _require(
        failures == {"total_trials": expect["trials"], "failed_trials": 0, "failures": []},
        f"unplanned trial failures: {failures}",
    )


CHECKS = {"design": check_design, "evaluate": check_evaluate, "montecarlo": check_montecarlo}


def output_digest(call: Call, rc: int, stderr: str) -> str:
    """Fingerprint of everything a call produced: exit code, then files or message."""
    digest = hashlib.sha256(str(rc).encode())
    if rc != 0:
        digest.update(stderr.encode())
        return digest.hexdigest()
    for name in OUTPUT_FILES[call.kind]:
        digest.update(name.encode())
        digest.update((call.out / name).read_bytes())
    return digest.hexdigest()


class Gate:
    """Checks each call: in full on an input's first outputs, by bytes after."""

    def __init__(self):
        self.verified: dict[tuple, str] = {}

    def check(self, call: Call, rc: int, stderr: str) -> None:
        key = (call.kind, call.slot, tuple(call.argv))
        known = self.verified.get(key)
        try:
            digest = output_digest(call, rc, stderr)
            if known is None:
                CHECKS[call.kind](call, rc, stderr)
        except (OSError, ValueError, KeyError, IndexError) as err:
            raise GateError(f"missing or malformed output: {err!r}") from None
        if known is None:
            self.verified[key] = digest
        elif digest != known:
            raise GateError(f"{call.kind} slot {call.slot}: outputs differ from the first call")


# ---------------------------------------------------------------------------
# stored reference outputs for the default seed


def summarize(call: Call, rc: int, stderr: str) -> dict:
    """A compact, tolerance-comparable extract of a call's outputs."""
    if call.kind == "design":
        if rc != 0:
            return {"exit": rc, "refused_at_hz": call.expect["refused_at_hz"]}
        weights = read_filter(call.expect, call.out).weights
        rows = sorted({0, len(weights) // 2, len(weights) - 1})
        return {
            "exit": 0,
            "rows": rows,
            "weights": [[[w.real, w.imag] for w in weights[i]] for i in rows],
        }
    if call.kind == "evaluate":
        bp = read_rows(call.out / "beampattern.csv", BEAMPATTERN_HEADER)
        wng = read_rows(call.out / "wng.csv", ["freq_hz", "wng_db"])
        df = read_rows(call.out / "df.csv", ["freq_hz", "df_db"])
        stride = max(1, len(bp) // 24)
        return {
            "exit": 0,
            "rendered_db": bp[::stride, 1].tolist(),
            "wng_db": wng[:, 1].tolist(),
            "df_db": df[:, 1].tolist(),
        }
    bp = read_rows(call.out / "bp_stats.csv", BP_STATS_HEADER)
    summary = {"exit": 0, "bp_mean_db": bp[::15, 1].tolist(), "bp_std_db": bp[::15, 2].tolist()}
    for name in ("wng", "df"):
        rows = read_rows(call.out / f"{name}_stats.csv", stats_header(name))
        summary[f"{name}_mean_db"] = rows[:, 1].tolist()
        summary[f"{name}_std_db"] = rows[:, 2].tolist()
    failures = json.loads((call.out / "failures.json").read_text(encoding="utf-8"))
    summary["failed_trials"] = failures["failed_trials"]
    return summary


def compare_summary(got: dict, want: dict) -> None:
    """Raise unless ``got`` matches the stored ``want`` up to last-digit noise."""
    _require(set(got) == set(want), f"summary keys {sorted(got)} != {sorted(want)}")
    for key, value in want.items():
        if key == "weights":
            _require(len(got[key]) == len(value), "weights: row count")
            for got_row, want_row in zip(got[key], value):
                g = np.array([complex(*w) for w in got_row])
                w = np.array([complex(*w) for w in want_row])
                _require(g.shape == w.shape, "weights: element count")
                scale = float(np.max(np.abs(w)))
                worst = float(np.max(np.abs(g - w))) / scale
                _require(worst <= WEIGHT_RTOL, f"weights off by {worst:.3e} (relative)")
        elif isinstance(value, list) and key != "rows":
            _close_db(got[key], value, key)
        else:
            _require(got[key] == value, f"{key}: {got[key]!r} != {value!r}")
