"""`scripts/fixed_geometry_study.py` designs and scores a whole band as one
stack; each frequency must match its own one-point design."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from diffbeam import (
    ArrayElement,
    ArrayGeometry,
    FrequencyGrid,
    RankDeficientSystemError,
    beampattern,
    design_filter,
    evaluate_target,
    sample_random_geometry,
)
from diffbeam.metrics import coefficient_gains, filter_coefficients, magnitude_db, power_db
from tests.conftest import angle_grid, steered_hypercardioid

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fixed_geometry_study.py"
FLOOR_DB = -50.0


@pytest.fixture(scope="module")
def study():
    spec = importlib.util.spec_from_file_location("fixed_geometry_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def per_frequency(geometry, constants, target, frequencies, angle_count):
    """The sweep as it was made before: one `design_filter` per frequency,
    rendered by `beampattern` and scored by `coefficient_gains` from
    `filter_coefficients`, with each filter's weight norm ``sum |h_m|``."""
    theta = angle_grid(angle_count)
    patterns, curves, norms, skipped = {}, {}, {}, []
    for f_hz in frequencies:
        try:
            filt = design_filter(geometry, constants, target, FrequencyGrid(f_hz, f_hz, 1))
        except RankDeficientSystemError as err:
            skipped.append((f_hz, str(err)))
            continue
        patterns[f_hz] = magnitude_db(
            beampattern(filt, geometry, constants, 2.0 * np.pi * f_hz, theta), floor_db=FLOOR_DB
        )
        coefficients = filter_coefficients(filt, geometry, constants)
        gains = coefficient_gains(coefficients, filt.weights, filt.theta_s)
        curves[f_hz] = power_db(gains)[:, 0]
        norms[f_hz] = np.sum(np.abs(filt.weights))
    return patterns, curves, norms, skipped


@pytest.mark.parametrize("order", [1, 4])
@pytest.mark.parametrize("angle_count", [8, 360])
def test_sweep_matches_per_frequency_design(study, constants, fixed_geometry, order, angle_count):
    # the script's band and array; order 4 is refused below 500 Hz, and
    # 8 angles are fewer than the harmonics the pattern is sampled from
    frequencies = np.linspace(50.0, 4000.0, 80)
    target = steered_hypercardioid(order)
    pattern_table, curve_table, skipped = study.sweep(
        fixed_geometry, constants, target, frequencies, angle_count, FLOOR_DB
    )
    patterns, curves, norms, want_skipped = per_frequency(
        fixed_geometry, constants, target, frequencies, angle_count
    )
    assert skipped == want_skipped
    assert bool(skipped) == (order == 4)

    assert curve_table.shape == (len(curves), 3)
    assert list(curve_table[:, 0]) == list(curves)
    assert np.max(np.abs(curve_table[:, 1:] - np.array(list(curves.values())))) <= 1e-9

    assert pattern_table.shape == (len(patterns) * angle_count, 4)
    rows = pattern_table.reshape(len(patterns), angle_count, 4)
    want_db = np.array(list(patterns.values()))
    assert np.array_equal(rows[:, :, 0], np.tile(list(patterns), (angle_count, 1)).T)
    assert np.max(np.abs(rows[:, :, 1] - 360.0 * np.arange(angle_count) / angle_count)) <= 1e-12
    # the two renders round differently, by a few ulps of sum |h_m| |T d|;
    # the superdirective order-4 weights reach 3e3 at 500 Hz, where that is
    # 1.5e-9 dB of a -13 dB sample, so the bound scales with the weights
    scale = np.array(list(norms.values()))[:, None]
    assert np.max(np.abs(10.0 ** (rows[:, :, 2] / 20.0) - 10.0 ** (want_db / 20.0)) / scale) <= 1e-14
    if order == 1:
        assert np.max(np.abs(rows[:, :, 2] - want_db)) <= 1e-9
    target_db = magnitude_db(evaluate_target(target, angle_grid(angle_count)), floor_db=FLOOR_DB)
    assert np.max(np.abs(rows[:, :, 3] - target_db)) <= 1e-9


# the default run's files by sha256, taken before the study designed through
# `design_weights` and scored through `pattern_coefficients`; a byte that
# moves must be a recorded, deliberate change
DEFAULT_DIGESTS = {
    "beampattern_vs_frequency_n1.csv":
        "31d29098c90ca5479409cc88490898ee478c105889ef7040a34f0a756174684b",
    "beampattern_vs_frequency_n4.csv":
        "e335263fbfcab4b6f510e560f4a18b70218ac7e3ce7f91aa3d89c8e8d00af113",
    "geometry.json": "506141f206d13a2828e143f8dcbf02c510500731d0bcd93bc08809caba7bef1d",
    "wng_df_n1.csv": "02cafe9f107cb716f29c92e17cec89cca99bb2c9872f5bb9da862fe233e1e3be",
    "wng_df_n4.csv": "8c7bb9e4e335c32436794d112a3465cd050d1d0f931aa667ec7eb6f0149df207",
}


def test_default_outputs_digests(study, tmp_path, capsys):
    out = tmp_path / "fixed"
    assert study.main(["--out", str(out)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == DEFAULT_DIGESTS
    assert capsys.readouterr().out == (
        "order 1: 80 frequencies designed\n"
        "order 4: 71 frequencies designed, 9 refused by the rank gate (50-450 Hz)\n"
    )


def test_too_few_elements_refused(study, constants):
    geometry = sample_random_geometry(5, 0.02, 0.008, seed=69)
    with pytest.raises(ValueError, match="order 4 needs at least 9 elements"):
        study.sweep(geometry, constants, steered_hypercardioid(4), [1000.0], 8, FLOOR_DB)


def test_element_past_the_table_refused_in_physical_terms(study, constants):
    # one element 1.2 m out: x = 2 pi 8000 1.2 / 343 = 175.9 at 8 kHz
    elements = [ArrayElement(1.2, 0.0, 0.5, 0.0)] + [
        ArrayElement(0.1, 2.0 * np.pi * m / 8, 0.5, 0.0) for m in range(1, 9)
    ]
    geometry = ArrayGeometry(elements, aperture_radius=1.3, min_spacing=0.008)
    with pytest.raises(ValueError) as excinfo:
        study.sweep(geometry, constants, steered_hypercardioid(4), [500.0, 8000.0], 8, FLOOR_DB)
    assert str(excinfo.value) == (
        "largest element radius 1200 mm at 8000 Hz gives omega r / c = 175.9, "
        "past 100, the largest argument the Bessel table is checked for"
    )


@pytest.mark.parametrize(
    "step_deg, message",
    [("0", "must be positive and finite"), ("-1", "must be positive and finite"),
     ("0.7", "must divide 360 evenly")],
)
def test_angle_step_refused(study, tmp_path, capsys, step_deg, message):
    out = tmp_path / "fixed"
    with pytest.raises(SystemExit) as excinfo:
        study.main(["--out", str(out), "--angle-step-deg", step_deg])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --angle-step-deg: angle step" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "f_count, message",
    [("80", "array is too big"), ("1", "Unable to allocate 1.00 EiB")],
    ids=["past-the-ceiling", "past-memory"],
)
def test_sweep_past_an_array_refused(study, tmp_path, capsys, f_count, message):
    # 2**56 angles pass for one row; 80 rows of them are more bytes than NumPy
    # can index, and one row, 1 EiB, more than any address space holds
    out = tmp_path / "fixed"
    with pytest.raises(SystemExit) as excinfo:
        study.main(["--out", str(out), "--f-count", f_count,
                    "--angle-step-deg", repr(360.0 / 2**56)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: arguments --f-count and --angle-step-deg: " in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("floor_db", ["7000", "1e308", "nan", "inf"])
def test_floor_past_a_double_refused(study, tmp_path, capsys, floor_db):
    # 20 log10 of the largest double, about 6165.09 dB, is the highest floor
    # whose amplitude a double holds
    out = tmp_path / "fixed"
    with pytest.raises(SystemExit) as excinfo:
        study.main(["--out", str(out), "--floor-db", floor_db])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --floor-db: floor must be finite and at most about 6165.09 dB" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--orders", "1,x"], "argument --orders: expected comma-separated integers, got '1,x'"),
        (["--f-count", "0"], "arguments --f-min, --f-max and --f-count: count must be >= 1"),
        (["--f-min", "0"], "arguments --f-min, --f-max and --f-count: need 0 < f_min <= f_max"),
        (["--c-mps", "0"], "argument --c-mps: speed of sound must be positive and finite, got 0.0"),
        (["--elements", "0"], "arguments --elements and --seed: element_count must be an integer >= 1, got 0"),
        (["--elements", "5", "--orders", "1,4"], "order 4 needs at least 9 elements, got 5"),
    ],
    ids=["orders", "f-count", "f-min", "c-mps", "elements", "order-past-the-elements"],
)
def test_bad_arguments_refused_before_any_file(study, tmp_path, capsys, args, message):
    # each is refused on one error line, with no traceback and no output
    # directory, even where an earlier order could have been written
    out = tmp_path / "fixed"
    with pytest.raises(SystemExit) as excinfo:
        study.main(["--out", str(out), *args])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"error: {message}")
    assert "Traceback" not in err
    assert not out.exists()
