import copy
import csv
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import diffbeam.montecarlo as mc
from diffbeam import FrequencyGrid, PhysicalConstants, TrialConfig, beampattern, cli, fileio
from diffbeam.cli import main
from diffbeam.metrics import magnitude_db
from tests.test_montecarlo import STAT_NAMES, oracle_statistics


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2))
    return path


def read_csv(path: Path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


@pytest.fixture
def workspace(tmp_path):
    gen_config = write_json(
        tmp_path / "generate.json",
        {"element_count": 9, "aperture_radius_mm": 20.0, "min_spacing_mm": 8.0},
    )
    assert main([
        "geometry", "generate",
        "--config", str(gen_config),
        "--seed", "7",
        "--out", str(tmp_path),
    ]) == 0
    return tmp_path


class TestGeometryCommands:
    def test_generated_geometry_validates(self, workspace):
        assert main([
            "geometry", "validate", "--config", str(workspace / "geometry.json")
        ]) == 0

    def test_validate_rejects_close_pair(self, tmp_path):
        bad = write_json(
            tmp_path / "bad.json",
            {
                "aperture_radius_mm": 20.0,
                "min_spacing_mm": 8.0,
                "elements": [
                    {"r_mm": 2.5, "phi_deg": 0.0, "q": 0.0, "theta_steer_deg": 0.0},
                    {"r_mm": 2.5, "phi_deg": 180.0, "q": 0.0, "theta_steer_deg": 0.0},
                ],
            },
        )
        assert main(["geometry", "validate", "--config", str(bad)]) == 1

    def test_generate_needs_seed(self, tmp_path):
        config = write_json(
            tmp_path / "g.json",
            {"element_count": 4, "aperture_radius_mm": 20.0, "min_spacing_mm": 8.0},
        )
        assert main(["geometry", "generate", "--config", str(config)]) == 1

    # a value its element or the geometry refuses is refused naming the
    # file, the element and the key, as written in the file
    @pytest.mark.parametrize("command", ["validate", "design", "evaluate"])
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("elements", 1, "q"), 1.5,
             "shape coefficient must lie in [0, 1], got 1.5 ({}: element 1: 'q')"),
            (("elements", 0, "r_mm"), -2.5,
             "radial distance must be >= 0, got -2.5 ({}: element 0: 'r_mm')"),
            (("elements", 2, "theta_steer_deg"), float("nan"),
             "theta_steer must be finite ({}: element 2: 'theta_steer_deg')"),
            (("aperture_radius_mm",), -20.0,
             "aperture_radius_mm must be positive and finite, got -20.0 "
             "({}: 'aperture_radius_mm')"),
            (("min_spacing_mm",), float("inf"),
             "min_spacing_mm must be positive and finite, got inf ({}: 'min_spacing_mm')"),
            (("elements",), [], "geometry needs at least one element ({}: 'elements')"),
        ],
        ids=["q", "r", "steer-nan", "aperture", "spacing-inf", "no-elements"],
    )
    def test_geometry_value_refused_naming_file_element_and_key(
        self, workspace, capsys, command, path, value, message
    ):
        configs = TestConfigValueTypes.CONFIGS
        design = write_json(workspace / "design.json", configs["design"])
        assert main(["design", "--config", str(design), "--out", str(workspace / "design")]) == 0
        geometry = json.loads((workspace / "geometry.json").read_text())
        *sections, key = path
        functools.reduce(lambda section, step: section[step], sections, geometry)[key] = value
        bad = write_json(workspace / "bad_geometry.json", geometry)
        out = workspace / "out"
        if command == "validate":
            argv = ["geometry", "validate", "--config", str(bad)]
        else:
            config = {**configs[command], "geometry_file": bad.name}
            config_path = write_json(workspace / f"{command}_bad.json", config)
            argv = [command, "--config", str(config_path), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message.format(bad)}"]
        assert captured.out == ""
        assert not out.exists()

    # validate reads its geometry file and prints a report; it takes no seed
    # and writes nothing, so neither flag is accepted
    @pytest.mark.parametrize(
        "flags", [["--seed", "3", "--out", "x"], ["--out", "x"], ["--seed", "3"]],
        ids=["seed-and-out", "out", "seed"],
    )
    def test_validate_takes_config_alone(self, workspace, capsys, monkeypatch, flags):
        monkeypatch.chdir(workspace)
        before = sorted(workspace.iterdir())
        with pytest.raises(SystemExit) as excinfo:
            main(["geometry", "validate", "--config", "geometry.json", *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"error: unrecognized arguments: {' '.join(flags)}" in captured.err
        assert captured.out == ""
        assert sorted(workspace.iterdir()) == before


class TestDesignCommand:
    def test_design_writes_filter_and_manifest(self, workspace):
        config = write_json(
            workspace / "design.json",
            {
                "geometry_file": "geometry.json",
                "pattern": {"family": "hypercardioid", "order": 4, "steer_deg": 60.0},
                "grid_hz": {"f_min": 1000.0, "f_max": 4000.0, "count": 7},
                "element_model": "first_order",
            },
        )
        out = workspace / "design"
        assert main(["design", "--config", str(config), "--out", str(out)]) == 0
        header, rows = read_csv(out / "filter.csv")
        assert len(rows) == 7
        assert len(header) == 1 + 2 * 9
        manifest = json.loads((out / "design_manifest.json").read_text())
        assert manifest["pattern"]["id"] == "hypercardioid-n4"

    def test_single_omni_design_weight_is_one(self, tmp_path):
        geometry = write_json(
            tmp_path / "one.json",
            {
                "aperture_radius_mm": 20.0,
                "min_spacing_mm": 8.0,
                "elements": [
                    {"r_mm": 0.0, "phi_deg": 0.0, "q": 0.0, "theta_steer_deg": 0.0}
                ],
            },
        )
        config = write_json(
            tmp_path / "design.json",
            {
                "geometry_file": "one.json",
                "pattern": {"family": "hypercardioid", "order": 0, "steer_deg": 0.0},
                "grid_hz": {"f_min": 50.0, "f_max": 4000.0, "count": 5},
                "element_model": "omni",
            },
        )
        out = tmp_path / "design"
        assert main(["design", "--config", str(config), "--out", str(out)]) == 0
        _, rows = read_csv(out / "filter.csv")
        for row in rows:
            assert row[1] == pytest.approx(1.0, abs=1e-12)
            assert row[2] == pytest.approx(0.0, abs=1e-12)

    def test_design_reruns_are_byte_identical(self, workspace):
        config = write_json(
            workspace / "design.json",
            {
                "geometry_file": "geometry.json",
                "pattern": {"family": "hypercardioid", "order": 2, "steer_deg": 60.0},
                "grid_hz": {"f_min": 1000.0, "f_max": 2000.0, "count": 3},
            },
        )
        out1, out2 = workspace / "d1", workspace / "d2"
        assert main(["design", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["design", "--config", str(config), "--out", str(out2)]) == 0
        assert (out1 / "filter.csv").read_bytes() == (out2 / "filter.csv").read_bytes()

    def test_too_few_elements_fails_before_solving(self, tmp_path):
        geometry = write_json(
            tmp_path / "three.json",
            {
                "aperture_radius_mm": 20.0,
                "min_spacing_mm": 8.0,
                "elements": [
                    {"r_mm": 10.0, "phi_deg": a, "q": 0.0, "theta_steer_deg": 0.0}
                    for a in (0.0, 120.0, 240.0)
                ],
            },
        )
        config = write_json(
            tmp_path / "design.json",
            {
                "geometry_file": "three.json",
                "pattern": {"family": "hypercardioid", "order": 2, "steer_deg": 0.0},
                "grid_hz": {"f_min": 1000.0, "f_max": 1000.0, "count": 1},
            },
        )
        assert main(["design", "--config", str(config), "--out", str(tmp_path)]) == 1

    # an overflowing sum and a NaN literal (which JSON readers accept) each
    # get their own message, with no NumPy warning; a zero sum keeps its own,
    # and each ends naming the file and its pattern section
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, message", [
        ([1e308, 1e308, 1e308], "coefficient sum is inf, not a finite number: "
                                "the pattern cannot be normalized"),
        ([float("nan"), 1.0, 1.0], "coefficient sum is nan, not a finite number: "
                                   "the pattern cannot be normalized"),
        ([1.0, -1.0, 0.0], "coefficient sum is zero: pattern nulls its own steering direction"),
    ], ids=["overflow", "nan", "zero"])
    def test_custom_pattern_sum_refused(self, workspace, capsys, a, message):
        config = write_json(
            workspace / "design.json",
            {
                "geometry_file": "geometry.json",
                "pattern": {"family": "custom", "order": 2, "steer_deg": 0.0, "a": a},
                "grid_hz": {"f_min": 1000.0, "f_max": 2000.0, "count": 2},
            },
        )
        out = workspace / "design"
        assert main(["design", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message} ({config}: pattern)\n"
        assert not out.exists()


class TestEvaluateCommand:
    @pytest.fixture
    def design_dir(self, workspace):
        config = write_json(
            workspace / "design.json",
            {
                "geometry_file": "geometry.json",
                "pattern": {"family": "hypercardioid", "order": 4, "steer_deg": 60.0},
                "grid_hz": {"f_min": 1000.0, "f_max": 4000.0, "count": 7},
            },
        )
        out = workspace / "design"
        assert main(["design", "--config", str(config), "--out", str(out)]) == 0
        return out

    def evaluate(self, workspace, design_dir, out_name="eval", **extra):
        config = write_json(
            workspace / "evaluate.json",
            {
                "geometry_file": "geometry.json",
                "design_manifest": "design/design_manifest.json",
                "eval_frequency_hz": 1000.0,
                **extra,
            },
        )
        out = workspace / out_name
        code = main(["evaluate", "--config", str(config), "--out", str(out)])
        return code, out

    def test_distortionless_at_steering_angle(self, workspace, design_dir):
        code, out = self.evaluate(workspace, design_dir)
        assert code == 0
        header, rows = read_csv(out / "beampattern.csv")
        assert header == ["angle_deg", "rendered_db", "target_db"]
        assert len(rows) == 360
        at_60 = next(r for r in rows if r[0] == 60.0)
        assert abs(at_60[1] - at_60[2]) < 0.5
        assert abs(at_60[1]) < 0.5
        header, rows = read_csv(out / "wng.csv")
        assert header == ["freq_hz", "wng_db"]
        assert [r[0] for r in rows] == [1000.0, 1500.0, 2000.0, 2500.0, 3000.0, 3500.0, 4000.0]

    def test_byte_identical_reruns(self, workspace, design_dir):
        _, first = self.evaluate(workspace, design_dir, "eval1")
        _, second = self.evaluate(workspace, design_dir, "eval2")
        for name in ("beampattern.csv", "wng.csv", "df.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_geometry_hash_mismatch_rejected(self, workspace, design_dir):
        # regenerate the geometry with another seed, keep the old design
        gen_config = workspace / "generate.json"
        assert main([
            "geometry", "generate", "--config", str(gen_config),
            "--seed", "8", "--out", str(workspace),
        ]) == 0
        code, _ = self.evaluate(workspace, design_dir, "eval_mismatch")
        assert code == 1

    def test_filter_of_another_element_count_refused(self, workspace, design_dir, capsys):
        # drop the last element's re/im pair from every line of the filter
        path = design_dir / "filter.csv"
        lines = [line.rsplit(",", 2)[0] for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        code, _ = self.evaluate(workspace, design_dir, "short")
        assert code == 1
        err = capsys.readouterr().err
        assert "the filter has weights for 8 elements but the geometry has 9" in err

    def test_integration_points_key_accepted_and_inert(self, workspace, design_dir):
        _, plain = self.evaluate(workspace, design_dir, "plain")
        code, keyed = self.evaluate(workspace, design_dir, "keyed", integration_points=4096)
        assert code == 0
        for name in ("wng.csv", "df.csv"):
            assert (plain / name).read_bytes() == (keyed / name).read_bytes()

    def test_integration_points_below_minimum_refused(self, workspace, design_dir, capsys):
        code, _ = self.evaluate(workspace, design_dir, "few", integration_points=256)
        assert code == 1
        assert "integration_points must be >= 512" in capsys.readouterr().err

    @pytest.mark.parametrize("step_deg", [0.0, -1.0])
    def test_angle_step_not_positive_refused(self, workspace, design_dir, capsys, step_deg):
        code, _ = self.evaluate(workspace, design_dir, "no_step", angle_step_deg=step_deg)
        assert code == 1
        assert "angle step must be positive and finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_weight_not_finite_refused(self, workspace, design_dir, capsys):
        # a nan weight in row 2 and an inf one in row 4; the first is named
        path = design_dir / "filter.csv"
        lines = path.read_text().splitlines()
        for line, column, text in ((3, 5, "nan"), (5, 12, "inf")):
            cells = lines[line].split(",")
            cells[column] = text
            lines[line] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code, out = self.evaluate(workspace, design_dir, "not_finite")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: row 2 column re_h3: 'nan' is not a finite number\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("floor_db", [float("nan"), float("inf"), float("-inf")])
    def test_floor_not_finite_refused(self, workspace, design_dir, capsys, floor_db):
        code, out = self.evaluate(workspace, design_dir, "no_floor", beampattern_floor_db=floor_db)
        assert code == 1
        assert "beampattern_floor_db must be finite" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))


class TestEvaluateRendering:
    """`evaluate` samples the pattern from the filter's harmonic coefficients
    at the evaluation frequency; it must equal the direct element sum."""

    EVAL_HZ = 2500.0  # an inner grid point, so a neighbouring row cannot pass

    # floors high enough that every angle step, 45 deg included, clamps some
    # samples: the omni design of this directional array stays above -3.3 dB
    @pytest.mark.parametrize("element_model, floor_db", [("first_order", -20.0), ("omni", 0.0)])
    @pytest.mark.parametrize("step_deg", [1.0, 0.5, 0.25, 45.0])
    def test_rendered_db_matches_direct_beampattern(
        self, workspace, monkeypatch, element_model, floor_db, step_deg
    ):
        design = write_json(
            workspace / "design.json",
            {
                "geometry_file": "geometry.json",
                "pattern": {"family": "hypercardioid", "order": 2, "steer_deg": 60.0},
                "grid_hz": {"f_min": 1000.0, "f_max": 4000.0, "count": 7},
                "element_model": element_model,
            },
        )
        assert main(["design", "--config", str(design), "--out", str(workspace / "design")]) == 0
        config = write_json(
            workspace / "evaluate.json",
            {
                "geometry_file": "geometry.json",
                "design_manifest": "design/design_manifest.json",
                "eval_frequency_hz": self.EVAL_HZ,
                "angle_step_deg": step_deg,
                "beampattern_floor_db": floor_db,
            },
        )
        # the CSV keeps nine digits; compare the values handed to the writer
        written = {}
        write = fileio.write_beampattern_csv

        def capture(path, angles_deg, rendered_db, target_db):
            written["rendered_db"] = np.asarray(rendered_db)
            write(path, angles_deg, rendered_db, target_db)

        monkeypatch.setattr(fileio, "write_beampattern_csv", capture)
        out = workspace / "eval"
        assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 0

        geometry = fileio.load_geometry_file(workspace / "geometry.json")
        filt, _, _ = fileio.load_design(workspace / "design" / "design_manifest.json")
        count = round(360.0 / step_deg)
        theta = 2.0 * np.pi * np.arange(count) / count
        direct = magnitude_db(
            beampattern(filt, geometry, PhysicalConstants(), 2.0 * np.pi * self.EVAL_HZ, theta),
            floor_db=floor_db,
        )
        got = written["rendered_db"]
        assert got.shape == direct.shape == (count,)
        assert np.max(np.abs(got - direct)) <= 1e-9
        clamped = direct <= floor_db + 1e-9
        assert clamped.any() and not clamped.all()


class TestMontecarloCommand:
    def mc_config(self, tmp_path, trials=3):
        return write_json(
            tmp_path / "mc.json",
            {
                "trials": trials,
                "element_count": 5,
                "aperture_radius_mm": 20.0,
                "min_spacing_mm": 8.0,
                "pattern": {"family": "hypercardioid", "order": 1, "steer_deg": 60.0},
                "grid_hz": {"f_min": 1000.0, "f_max": 1000.0, "count": 1},
                "eval_frequency_hz": 1000.0,
                "master_seed": 4242,
                "angle_step_deg": 2.0,
            },
        )

    def test_single_trial_confidence_collapses(self, tmp_path):
        config = self.mc_config(tmp_path, trials=1)
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(config), "--out", str(out)]) == 0
        header, rows = read_csv(out / "bp_stats.csv")
        assert header == ["angle_deg", "mean_db", "std_db", "lower_ci", "upper_ci"]
        for row in rows:
            assert row[2] == 0.0
            assert row[3] == row[1] == row[4]
        failures = json.loads((out / "failures.json").read_text())
        assert failures["failed_trials"] == 0

    def test_same_seed_same_bytes(self, tmp_path):
        config = self.mc_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["montecarlo", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["montecarlo", "--config", str(config), "--out", str(out2)]) == 0
        for name in ("bp_stats.csv", "wng_stats.csv", "df_stats.csv", "failures.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_integration_points_refused_by_name(self, tmp_path, capsys):
        # DF is exact and a study never took the key; only evaluate still accepts it
        config = json.loads(self.mc_config(tmp_path).read_text())
        config["integration_points"] = 1024
        path = write_json(tmp_path / "points.json", config)
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: unknown key 'integration_points'; expected one of ")
        assert not out.exists()

    # a design or evaluate config is refused the same way; Infinity and NaN
    # are JSON literals Python's reader accepts
    @pytest.mark.parametrize("command, c_mps, got", [
        pytest.param("montecarlo", "0", "0.0", id="0"),
        pytest.param("montecarlo", "-343", "-343.0", id="-343"),
        pytest.param("montecarlo", "Infinity", "inf", id="inf"),
        pytest.param("montecarlo", "NaN", "nan", id="nan"),
        pytest.param("design", "-5", "-5.0", id="design--5"),
        pytest.param("design", "Infinity", "inf", id="design-inf"),
        pytest.param("evaluate", "0", "0.0", id="evaluate-0"),
        pytest.param("evaluate", "NaN", "nan", id="evaluate-nan"),
    ])
    def test_speed_of_sound_refused(self, workspace, capsys, command, c_mps, got):
        configs = TestConfigValueTypes.CONFIGS
        if command == "evaluate":
            design = write_json(workspace / "design.json", configs["design"])
            assert main(["design", "--config", str(design), "--out", str(workspace / "design")]) == 0
        config = {**configs[command], "speed_of_sound_mps": json.loads(c_mps)}
        path = write_json(workspace / f"{command}_c.json", config)
        out = workspace / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: speed of sound must be positive and finite, got {got} "
            f"({path}: 'speed_of_sound_mps')\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param("aperture_radius_mm", -5.0,
                         "aperture_radius_mm must be positive and finite, got -5.0",
                         id="negative-aperture"),
            pytest.param("aperture_radius_mm", 0.0,
                         "aperture_radius_mm must be positive and finite, got 0.0",
                         id="zero-aperture"),
            pytest.param("min_spacing_mm", -1.0,
                         "min_spacing_mm must be non-negative and finite, got -1.0",
                         id="negative-spacing"),
            pytest.param("min_spacing_mm", float("nan"),
                         "min_spacing_mm must be non-negative and finite, got nan",
                         id="nan-spacing"),
            pytest.param("element_count", 0, "element_count must be an integer >= 1, got 0",
                         id="zero-elements"),
            pytest.param("trials", 2.5, "trials must be an integer >= 1, got 2.5",
                         id="fractional-trials"),
            pytest.param("trials", True, "trials must be an integer >= 1, got True",
                         id="boolean-trials"),
            pytest.param("db_floor", float("nan"), "db_floor must be finite", id="nan-floor"),
            pytest.param("db_floor", float("inf"), "db_floor must be finite", id="inf-floor"),
        ],
    )
    def test_config_value_outside_its_domain_refused(self, tmp_path, capsys, key, value, message):
        config = json.loads(self.mc_config(tmp_path).read_text())
        config[key] = value
        path = write_json(tmp_path / "bad.json", config)
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_zero_spacing_accepted(self, tmp_path):
        # a study may set no spacing at all, though a geometry file may not
        config = json.loads(self.mc_config(tmp_path).read_text())
        config["min_spacing_mm"] = 0.0
        path = write_json(tmp_path / "no_spacing.json", config)
        assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "mc")]) == 0

    def test_angle_step_zero_refused(self, tmp_path, capsys):
        config = json.loads(self.mc_config(tmp_path).read_text())
        config["angle_step_deg"] = 0
        path = write_json(tmp_path / "no_step.json", config)
        assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "angle step must be positive and finite" in capsys.readouterr().err

    def test_interior_eval_frequency_matches_the_per_trial_oracle(self, tmp_path, monkeypatch):
        # 1 kHz is an inner point of a 4-point grid, so reading a neighbouring
        # grid row cannot pass; the CSVs keep nine digits, so compare the
        # statistics handed to the writer
        config = json.loads(self.mc_config(tmp_path, trials=6).read_text())
        config.update(element_count=7, grid_hz={"f_min": 500.0, "f_max": 2000.0, "count": 4})
        config["pattern"]["order"] = 2
        path = write_json(tmp_path / "grid.json", config)
        written = {}
        write = fileio.write_study

        def capture(out_dir, stats):
            written["stats"] = stats
            write(out_dir, stats)

        monkeypatch.setattr(fileio, "write_study", capture)
        assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "mc")]) == 0
        expected, failures = oracle_statistics(TrialConfig(
            trials=6, element_count=7, target=fileio.pattern_from_config(config["pattern"])[0],
            aperture_radius=0.02, min_spacing=0.008, grid=FrequencyGrid(500.0, 2000.0, 4),
            eval_frequency_hz=1000.0, master_seed=4242, angle_count=180,
        ))
        stats = written["stats"]
        assert failures == [] and stats.failures == ()
        for name in STAT_NAMES:
            assert np.max(np.abs(getattr(stats, name) - expected[name])) <= 1e-9, name

    @pytest.mark.parametrize("order, a, message", [
        (1, [1.0, -1.0], "coefficient sum is zero: pattern nulls its own steering direction"),
        (2, [1.0, 1.0], "custom coefficients imply order 1, config says 2"),
    ], ids=["zero-sum", "order-mismatch"])
    def test_custom_pattern_refused_naming_the_file(self, tmp_path, capsys, monkeypatch,
                                                    order, a, message):
        def unreachable(*args):
            raise AssertionError("sampled a study whose pattern is refused")

        monkeypatch.setattr(mc, "sample_element_stack", unreachable)
        config = json.loads(self.mc_config(tmp_path).read_text())
        config["pattern"] = {"family": "custom", "order": order, "steer_deg": 60.0, "a": a}
        path = write_json(tmp_path / "custom.json", config)
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message} ({path}: pattern)\n"
        assert not out.exists()

    def test_pattern_without_family_is_hypercardioid(self, tmp_path):
        named = self.mc_config(tmp_path)
        config = json.loads(named.read_text())
        assert config["pattern"].pop("family") == "hypercardioid"
        unnamed = write_json(tmp_path / "unnamed.json", config)
        for path in (named, unnamed):
            out = tmp_path / path.stem
            assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 0
        for name in ("bp_stats.csv", "wng_stats.csv", "df_stats.csv", "failures.json"):
            assert (tmp_path / "unnamed" / name).read_bytes() == (tmp_path / "mc" / name).read_bytes()

    def test_custom_study_equals_run_trials_of_its_target(self, tmp_path):
        # the CLI's study is the TrialConfig of the target the shared reader builds
        config = json.loads(self.mc_config(tmp_path, trials=8).read_text())
        pattern = {"family": "custom", "order": 1, "steer_deg": 45.0, "a": [1.0, 3.0]}
        config["pattern"] = pattern
        path = write_json(tmp_path / "custom.json", config)
        assert main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
        target, _, _ = fileio.pattern_from_config(pattern)
        stats = mc.run_trials(TrialConfig(
            trials=8, element_count=5, target=target, aperture_radius=0.02, min_spacing=0.008,
            grid=FrequencyGrid(1000.0, 1000.0, 1), eval_frequency_hz=1000.0, master_seed=4242,
            angle_count=180,
        ))
        fileio.write_study(tmp_path / "api", stats)
        for name in ("bp_stats.csv", "wng_stats.csv", "df_stats.csv", "failures.json"):
            assert (tmp_path / "api" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()

    def test_stats_headers(self, tmp_path):
        config = self.mc_config(tmp_path)
        out = tmp_path / "mc"
        assert main(["montecarlo", "--config", str(config), "--out", str(out)]) == 0
        assert read_csv(out / "wng_stats.csv")[0] == ["freq_hz", "mean_wng", "std_wng"]
        assert read_csv(out / "df_stats.csv")[0] == ["freq_hz", "mean_df", "std_df"]


class TestOutOfReachRefusals:
    """A grid the Bessel table cannot reach, x = omega r / c > 100, or a
    one-point grid whose ends differ, is refused on one ``error:`` line in
    physical terms before any work, and nothing is written."""

    # one element 1.2 m out: x = 2 pi 8000 1.2 / 343 = 175.9 at 8 kHz
    GEOMETRY = {
        "aperture_radius_mm": 1300.0,
        "min_spacing_mm": 8.0,
        "elements": [{"r_mm": 1200.0, "phi_deg": 0.0, "q": 0.5, "theta_steer_deg": 0.0}]
        + [
            {"r_mm": 100.0, "phi_deg": phi, "q": 0.5, "theta_steer_deg": 0.0}
            for phi in (72.0, 144.0, 216.0, 288.0)
        ],
    }

    def design_config(self, tmp_path, f_min, f_max, count):
        write_json(tmp_path / "far.json", self.GEOMETRY)
        return write_json(tmp_path / "design.json", {
            "geometry_file": "far.json",
            "pattern": {"family": "hypercardioid", "order": 2, "steer_deg": 60.0},
            "grid_hz": {"f_min": f_min, "f_max": f_max, "count": count},
        })

    def refusal(self, capsys, argv) -> str:
        code = main(argv)
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "np.float64(" not in lines[0]
        return lines[0]

    def test_design_past_the_table(self, tmp_path, capsys):
        config = self.design_config(tmp_path, 500.0, 8000.0, 8)
        out = tmp_path / "design"
        line = self.refusal(capsys, ["design", "--config", str(config), "--out", str(out)])
        assert line == (
            "error: largest element radius 1200 mm at 8000 Hz gives omega r / c = 175.9, "
            "past 100, the largest argument the Bessel table is checked for"
        )
        assert not out.exists()

    def test_evaluate_past_the_table(self, tmp_path, capsys):
        # designed at c = 343 m/s to 4 kHz (x = 87.9); scored at 300 m/s, x = 100.5
        design = self.design_config(tmp_path, 2000.0, 4000.0, 3)
        assert main(["design", "--config", str(design), "--out", str(tmp_path / "design")]) == 0
        config = write_json(tmp_path / "evaluate.json", {
            "geometry_file": "far.json",
            "design_manifest": "design/design_manifest.json",
            "eval_frequency_hz": 4000.0,
            "speed_of_sound_mps": 300.0,
        })
        out = tmp_path / "evaluate"
        line = self.refusal(capsys, ["evaluate", "--config", str(config), "--out", str(out)])
        assert "largest element radius 1200 mm at 4000 Hz gives omega r / c = 100.5" in line
        assert "past 100" in line
        assert not out.exists()

    def test_montecarlo_past_the_table_before_sampling(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("sampled a study that cannot be scored")

        monkeypatch.setattr(mc, "sample_element_stack", unreachable)
        config = write_json(tmp_path / "mc.json", {
            "trials": 20, "element_count": 7, "aperture_radius_mm": 1500.0,
            "min_spacing_mm": 8.0,
            "pattern": {"family": "hypercardioid", "order": 2, "steer_deg": 60.0},
            "grid_hz": {"f_min": 500.0, "f_max": 8000.0, "count": 4},
            "eval_frequency_hz": 500.0, "master_seed": 4242,
        })
        out = tmp_path / "mc"
        line = self.refusal(capsys, ["montecarlo", "--config", str(config), "--out", str(out)])
        assert line == (
            "error: aperture radius 1500 mm at 8000 Hz gives omega r / c = 219.8, "
            "past 100, the largest argument the Bessel table is checked for"
        )
        assert not out.exists()

    def test_one_point_grid_with_unequal_ends(self, tmp_path, capsys):
        config = self.design_config(tmp_path, 1000.0, 4000.0, 1)
        out = tmp_path / "design"
        line = self.refusal(capsys, ["design", "--config", str(config), "--out", str(out)])
        assert line == (
            f"error: {config}: grid_hz: a one-point grid designs at f_min only, so f_max "
            "must equal it; got f_min 1000 and f_max 4000 Hz"
        )
        assert not out.exists()


MISSING = object()


class TestConfigValueTypes:
    """Every config value is read as its JSON type. A missing key, a
    fractional integer, a boolean, a number in a string, a section that is
    not an object, a coefficient vector that is not an array, a negative
    seed, an element count below 1, an aperture or spacing outside its
    domain, a key the run config or its ``pattern`` or ``grid_hz`` section
    does not hold, an unknown element model or pattern family, an
    evaluation frequency off the grid, a dB floor whose amplitude overflows
    a double, an angle step that does not divide 360 degrees or gives more
    angles than an array can hold and 2**32 trials or more are each refused
    on one ``error:`` line naming the file and the key, before any trial is
    sampled or any output is written."""

    # with CONFIGS, every key a run config and its sections may hold
    OPTIONAL = {
        "generate": {},
        "design": {
            "pattern": {"family": "custom", "order": 2, "steer_deg": 60.0, "a": [1.0, 2.0, 2.0]},
            "element_model": "omni", "speed_of_sound_mps": 340.0,
        },
        "evaluate": {
            "integration_points": 4096, "beampattern_floor_db": -40.0,
            "speed_of_sound_mps": 343.0,
        },
        "montecarlo": {
            "pattern": {"family": "custom", "order": 2, "steer_deg": 60.0, "a": [1.0, 2.0, 2.0]},
            "element_model": "omni", "speed_of_sound_mps": 340.0, "angle_step_deg": 5.0,
            "db_floor": -100.0,
        },
    }

    CONFIGS = {
        "generate": {
            "element_count": 9, "aperture_radius_mm": 20.0, "min_spacing_mm": 8.0, "seed": 7,
        },
        "design": {
            "geometry_file": "geometry.json",
            "pattern": {"family": "hypercardioid", "order": 2, "steer_deg": 60.0},
            "grid_hz": {"f_min": 500.0, "f_max": 4000.0, "count": 8},
        },
        "evaluate": {
            "geometry_file": "geometry.json",
            "design_manifest": "design/design_manifest.json",
            "eval_frequency_hz": 2500.0,
            "angle_step_deg": 2.0,
        },
        "montecarlo": {
            "trials": 2,
            "element_count": 7,
            "aperture_radius_mm": 20.0,
            "min_spacing_mm": 8.0,
            "pattern": {"family": "hypercardioid", "order": 2, "steer_deg": 60.0},
            "grid_hz": {"f_min": 500.0, "f_max": 2000.0, "count": 4},
            "eval_frequency_hz": 1000.0,
            "master_seed": 4242,
        },
    }
    COMMANDS = {
        "generate": ["geometry", "generate"],
        "design": ["design"],
        "evaluate": ["evaluate"],
        "montecarlo": ["montecarlo"],
    }

    @pytest.mark.parametrize(
        "command, path, value",
        [
            pytest.param("generate", ("element_count",), MISSING, id="generate-missing"),
            pytest.param("generate", ("element_count",), 5.7, id="generate-fractional-count"),
            pytest.param("generate", ("seed",), 7.9, id="generate-fractional-seed"),
            pytest.param("generate", ("element_count",), True, id="generate-boolean"),
            pytest.param("generate", ("aperture_radius_mm",), "20", id="generate-string"),
            pytest.param("generate", ("seed",), -1, id="generate-negative-seed"),
            pytest.param("generate", ("element_count",), 0, id="generate-zero-count"),
            pytest.param("generate", ("aperture_radius_mm",), -20.0,
                         id="generate-negative-aperture"),
            pytest.param("generate", ("aperture_radius_mm",), float("inf"),
                         id="generate-infinite-aperture"),
            pytest.param("generate", ("aperture_radius_mm",), float("nan"),
                         id="generate-nan-aperture"),
            pytest.param("generate", ("min_spacing_mm",), -8.0, id="generate-negative-spacing"),
            pytest.param("design", ("geometry_file",), MISSING, id="design-missing"),
            pytest.param("design", ("pattern", "order"), 1.9, id="design-fractional-order"),
            pytest.param("design", ("grid_hz", "count"), 8.7, id="design-fractional-count"),
            pytest.param("design", ("grid_hz", "count"), True, id="design-boolean"),
            pytest.param("design", ("pattern", "steer_deg"), "60", id="design-string"),
            pytest.param("design", ("grid_hz",), 5, id="design-section"),
            pytest.param("design", ("pattern", "a"), 5, id="design-coefficients"),
            pytest.param("design", ("grid_hz", "f_max"), 10**400, id="design-huge-number"),
            pytest.param("design", ("pattern", "a"), ["x", 1], id="design-coefficient-string"),
            pytest.param("design", ("pattern", "a"), [True, 1],
                         id="design-coefficient-boolean"),
            pytest.param("evaluate", ("eval_frequency_hz",), MISSING, id="evaluate-missing"),
            pytest.param("evaluate", ("integration_points",), 4096.0,
                         id="evaluate-fractional-points"),
            pytest.param("evaluate", ("eval_frequency_hz",), True, id="evaluate-boolean"),
            pytest.param("evaluate", ("angle_step_deg",), "2", id="evaluate-string"),
            pytest.param("evaluate", ("design_manifest",), 5, id="evaluate-path"),
            pytest.param("montecarlo", ("trials",), MISSING, id="montecarlo-missing"),
            pytest.param("montecarlo", ("element_count",), 5.7, id="montecarlo-fractional-count"),
            pytest.param("montecarlo", ("pattern", "order"), 1.9,
                         id="montecarlo-fractional-order"),
            pytest.param("montecarlo", ("master_seed",), 7.9, id="montecarlo-fractional-seed"),
            pytest.param("montecarlo", ("element_count",), True, id="montecarlo-boolean"),
            pytest.param("montecarlo", ("pattern", "steer_deg"), "60", id="montecarlo-string"),
            pytest.param("montecarlo", ("grid_hz",), 5, id="montecarlo-section"),
            pytest.param("montecarlo", ("pattern", "a"), 5, id="montecarlo-coefficients"),
            pytest.param("montecarlo", ("pattern", "a"), ["x", 1],
                         id="montecarlo-coefficient-string"),
            pytest.param("montecarlo", ("pattern", "a"), [True, 1],
                         id="montecarlo-coefficient-boolean"),
            pytest.param("montecarlo", ("master_seed",), -1, id="montecarlo-negative-seed"),
            pytest.param("montecarlo", ("element_count",), 0, id="montecarlo-zero-count"),
            pytest.param("montecarlo", ("element_count",), -3, id="montecarlo-negative-count"),
            pytest.param("montecarlo", ("aperture_radius_mm",), -20.0,
                         id="montecarlo-negative-aperture"),
            pytest.param("montecarlo", ("aperture_radius_mm",), 0.0,
                         id="montecarlo-zero-aperture"),
            pytest.param("montecarlo", ("aperture_radius_mm",), float("inf"),
                         id="montecarlo-infinite-aperture"),
            pytest.param("montecarlo", ("min_spacing_mm",), -8.0,
                         id="montecarlo-negative-spacing"),
            pytest.param("montecarlo", ("min_spacing_mm",), float("nan"),
                         id="montecarlo-nan-spacing"),
            pytest.param("generate", ("element_cuont",), 9, id="generate-unknown"),
            pytest.param("design", ("grid",), {"count": 8}, id="design-unknown"),
            pytest.param("design", ("pattern", "steer"), 60.0, id="design-unknown-in-pattern"),
            pytest.param("design", ("grid_hz", "fmax"), 4000.0, id="design-unknown-in-grid"),
            pytest.param("design", ("pattern", "id"), "hypercardioid-2",
                         id="design-pattern-id"),
            pytest.param("evaluate", ("angle_step",), 2.0, id="evaluate-unknown"),
            pytest.param("montecarlo", ("trails",), 20, id="montecarlo-unknown"),
            pytest.param("montecarlo", ("seed",), 7, id="montecarlo-seed-for-master-seed"),
            pytest.param("montecarlo", ("pattern", "orders"), 2,
                         id="montecarlo-unknown-in-pattern"),
            pytest.param("montecarlo", ("grid_hz", "points"), 4,
                         id="montecarlo-unknown-in-grid"),
            pytest.param("design", ("element_model",), "cardioid", id="design-unknown-model"),
            pytest.param("montecarlo", ("element_model",), "cardioid",
                         id="montecarlo-unknown-model"),
            pytest.param("design", ("pattern", "family"), "supercardioid",
                         id="design-unknown-family"),
            pytest.param("montecarlo", ("pattern", "family"), "supercardioid",
                         id="montecarlo-unknown-family"),
            pytest.param("evaluate", ("eval_frequency_hz",), 1100.0, id="evaluate-off-grid"),
            pytest.param("montecarlo", ("eval_frequency_hz",), 1100.0,
                         id="montecarlo-off-grid"),
            pytest.param("evaluate", ("beampattern_floor_db",), 1e308,
                         id="evaluate-floor-overflows"),
            pytest.param("montecarlo", ("db_floor",), 1e308, id="montecarlo-floor-overflows"),
            pytest.param("evaluate", ("angle_step_deg",), 7.0, id="evaluate-uneven-step"),
            pytest.param("evaluate", ("angle_step_deg",), 1e-300, id="evaluate-step-past-arrays"),
            pytest.param("montecarlo", ("angle_step_deg",), 1e-300,
                         id="montecarlo-step-past-arrays"),
            pytest.param("montecarlo", ("trials",), 2**32, id="montecarlo-trials-past-2**32"),
            pytest.param("montecarlo", ("trials",), 10**15, id="montecarlo-trials-1e15"),
        ],
    )
    def test_refused_naming_file_and_key(self, workspace, capsys, monkeypatch, command, path,
                                         value):
        def unreachable(*args):
            raise AssertionError("sampled a study its config refuses")

        monkeypatch.setattr(mc, "sample_element_stack", unreachable)
        monkeypatch.setattr(cli, "sample_random_geometry", unreachable)
        if command == "evaluate":
            design = write_json(workspace / "design.json", self.CONFIGS["design"])
            assert main(["design", "--config", str(design), "--out", str(workspace / "design")]) == 0
        config = copy.deepcopy(self.CONFIGS[command])
        *sections, key = path
        section = functools.reduce(dict.__getitem__, sections, config)
        if value is MISSING:
            del section[key]
        else:
            section[key] = value
        if key == "a":
            section["family"] = "custom"
        config_path = write_json(workspace / f"{command}_bad.json", config)
        out = workspace / "out"
        code = main([*self.COMMANDS[command], "--config", str(config_path), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(config_path) in lines[0] and f"'{key}'" in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "design", "evaluate", "montecarlo"])
    def test_every_key_of_a_config_accepted(self, workspace, monkeypatch, command):
        # the full config holds exactly the keys the CLI accepts, and running
        # it looks up each of them and no other, so the key tables, the
        # readers and OPTIONAL cannot drift apart
        if command == "evaluate":
            design = write_json(workspace / "design.json", self.CONFIGS["design"])
            assert main(["design", "--config", str(design), "--out", str(workspace / "design")]) == 0
        config = {**copy.deepcopy(self.CONFIGS[command]), **self.OPTIONAL[command]}
        assert set(config) == set(cli._CONFIG_KEYS[command])
        for section, keys in (("pattern", fileio.PATTERN_KEYS), ("grid_hz", fileio.GRID_KEYS)):
            assert set(config.get(section, keys)) == set(keys)
        config_path = write_json(workspace / f"{command}_full.json", config)
        objects = []
        load_json = fileio.load_json

        def looked_up(obj):
            objects.append(LookedUp(obj))
            return objects[-1]

        def recording_load(path):
            data = load_json(path)
            if Path(path) != config_path:
                return data
            return json.loads(json.dumps(data), object_hook=looked_up)

        monkeypatch.setattr(fileio, "load_json", recording_load)
        out = workspace / "out"
        assert main([*self.COMMANDS[command], "--config", str(config_path), "--out", str(out)]) == 0
        assert out.exists()
        assert len(objects) == 1 + ("pattern" in config) + ("grid_hz" in config)
        for obj in objects:
            assert obj.keys_looked_up == set(obj)


class TestAllocationFailures:
    """A config whose sizes call for an array no address space can hold is
    refused on one ``error:`` line naming the file, with no traceback and
    nothing written. Every size here is far past the 128 PiB a 57-bit
    address space holds, so no host can grant it."""

    @pytest.mark.parametrize(
        "command, path, value, shape",
        [
            pytest.param("design", ("grid_hz", "count"), 10**18, "(1000000000000000000,)",
                         id="design-grid"),
            pytest.param("montecarlo", ("grid_hz", "count"), 10**18, "(1000000000000000000,)",
                         id="montecarlo-grid"),
            # 2**56 angles: 512 PiB of int64 indices before the angles are taken
            pytest.param("evaluate", ("angle_step_deg",), 360.0 / 2**56, "(72057594037927936,)",
                         id="evaluate-angles"),
            # 2**56 angles: one trial's pattern, 1 EiB, refused before any trial is drawn
            pytest.param("montecarlo", ("angle_step_deg",), 360.0 / 2**56,
                         "(1, 72057594037927936)", id="montecarlo-angles"),
        ],
    )
    def test_refused_naming_the_file(self, workspace, capsys, monkeypatch, command, path, value,
                                     shape):
        def unreachable(*args):
            raise AssertionError("sampled a study that cannot be allocated")

        monkeypatch.setattr(mc, "sample_element_stack", unreachable)
        configs = TestConfigValueTypes.CONFIGS
        if command == "evaluate":
            design = write_json(workspace / "design.json", configs["design"])
            assert main(["design", "--config", str(design), "--out", str(workspace / "design")]) == 0
        config = copy.deepcopy(configs[command])
        *sections, key = path
        functools.reduce(dict.__getitem__, sections, config)[key] = value
        config_path = write_json(workspace / f"{command}_huge.json", config)
        out = workspace / "out"
        code = main([*TestConfigValueTypes.COMMANDS[command], "--config", str(config_path),
                     "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1
        assert lines[0].startswith("error: Unable to allocate ") and shape in lines[0]
        assert lines[0].endswith(f" ({config_path})")
        assert not out.exists()


class LookedUp(dict):
    """A JSON object that notes each key looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.keys_looked_up = set()

    def __contains__(self, key):
        self.keys_looked_up.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.keys_looked_up.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize(
    "argv",
    [["geometry", "generate", "--seed", "-1"], ["design", "--seed", "-3"],
     ["montecarlo", "--threads", "0"], ["montecarlo", "--threads", "-2"]],
    ids=["generate-seed", "design-seed", "threads-zero", "threads-negative"],
)
def test_flag_out_of_range_refused(tmp_path, capsys, argv):
    config = write_json(tmp_path / "config.json", {})
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--config", str(config), "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    flag, value = argv[-2:]
    err = capsys.readouterr().err
    assert f"error: argument {flag}: must be >= " in err and f"got {value}" in err


# each subcommand takes only the flags it reads; the speed of sound is a config key
@pytest.mark.parametrize(
    "argv",
    [["design", "--threads", "2"], ["evaluate", "--seed", "1"], ["evaluate", "--c-mps", "300"],
     ["geometry", "generate", "--threads", "2"]],
    ids=["design-threads", "evaluate-seed", "evaluate-c-mps", "generate-threads"],
)
def test_flag_the_subcommand_does_not_read_refused(tmp_path, capsys, argv):
    config = write_json(tmp_path / "config.json", {})
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--config", str(config), "--out", str(out)])
    assert excinfo.value.code == 2
    flag, value = argv[-2:]
    assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


class TestLoadDesign:
    """`fileio.load_design` hands `evaluate` the target a design was made
    for. The manifest stores the normalized ``a``, read back as written, so
    the target's coefficients are the design config's to the bit; it stores
    the steering in degrees, so the steering is the config's to the bit when
    the degrees read back to the same radians (60 does, 48 does not) and
    within an ulp otherwise."""

    @pytest.mark.parametrize("pattern, exact", [
        ({"family": "hypercardioid", "order": 2, "steer_deg": 60.0}, True),
        ({"family": "cardioid", "order": 2, "steer_deg": 60.0}, True),
        ({"family": "custom", "order": 2, "steer_deg": 60.0, "a": [1.0, 2.0, 2.0]}, True),
        ({"family": "hypercardioid", "order": 3, "steer_deg": 48.0}, False),
        ({"family": "custom", "order": 2, "steer_deg": 60.0, "a": [1.0, 1.5, 0.5]}, True),
    ], ids=["hypercardioid", "cardioid", "custom", "hypercardioid-n3-48deg", "custom-1.5"])
    def test_returns_the_designed_target(self, workspace, pattern, exact):
        manifest = self.design(workspace, pattern)
        filt, target, speed_of_sound = fileio.load_design(manifest)
        designed, _, _ = fileio.pattern_from_config(pattern)
        assert speed_of_sound == 340.0
        assert (filt.order, filt.theta_s) == (target.order, target.theta_s)
        assert target.coefficients.b == designed.coefficients.b
        if exact:
            assert target.theta_s == designed.theta_s
        else:
            np.testing.assert_array_max_ulp(target.theta_s, designed.theta_s, maxulp=1)

    @staticmethod
    def design(workspace, pattern):
        """The manifest of a design of ``pattern`` on the workspace's geometry."""
        design = write_json(workspace / "design.json", {
            "geometry_file": "geometry.json", "pattern": pattern,
            "grid_hz": {"f_min": 1000.0, "f_max": 4000.0, "count": 4},
            "speed_of_sound_mps": 340.0,
        })
        out = workspace / "design"
        assert main(["design", "--config", str(design), "--out", str(out)]) == 0
        return out / "design_manifest.json"

    @pytest.mark.parametrize("a, message", [
        ([0.1, 0.5, 0.5], "'a' sums to 1.1, not 1 as a design's coefficients do"),
        ([0.5, 0.5], "'a' holds 2 coefficients, order 2 needs 3"),
        ([0.5, float("nan"), 0.5], "'a' entries must be finite, got [0.5, nan, 0.5]"),
    ], ids=["sum-1.1", "short", "nan"])
    def test_refuses_coefficients_no_design_solved_for(self, workspace, a, message):
        manifest = self.design(
            workspace, {"family": "hypercardioid", "order": 2, "steer_deg": 60.0}
        )
        payload = json.loads(manifest.read_text())
        payload["pattern"]["a"] = a
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as excinfo:
            fileio.load_design(manifest)
        assert str(excinfo.value) == f"{manifest}: pattern: {message}"


class TestGoldenOutputs:
    """Every CSV of one small design -> evaluate -> montecarlo run, pinned by
    sha256. The digests were taken before the CSV writers became whole-table
    writers; an output byte that moves must be a recorded, deliberate change.
    ``filter.csv`` (weights in ``%r``) was retaken once, when the harmonic
    kernel moved to real arithmetic and the weights moved in the last ulps."""

    DIGESTS = {
        "design/filter.csv":
            "65accb35cb734de94165c840ee7135f2a8a2e06d178f7088a115a2624b719f0b",
        "evaluate/beampattern.csv":
            "d5ab842ee6f461b9afe48bf04c16b2c192a41090f9a1ba799d2f2584139cc9cf",
        "evaluate/df.csv":
            "fc56604fd6af815ab1564f15a8a3c8cae5879dd32bf39fe05611a455a4b42483",
        "evaluate/wng.csv":
            "082e26ce2339db221d5494d2ef2b50f9499c9aada35504a9d30579052733f0ee",
        "montecarlo/bp_stats.csv":
            "209334ede5da47645881cac25583eba3c246c3a62b27674432b797ccb0a23990",
        "montecarlo/df_stats.csv":
            "e52fdd57d9860e310533a8f9b4e132e1aae75a819e378ce9efddbd47f85ec3b6",
        "montecarlo/wng_stats.csv":
            "dd3ae27648890df26b902d0f41808a1935aaacc5fb10791b98d32da705c0af0e",
    }

    # the same flow with "element_model": "omni" in the design and the study
    # configs: omni designs its own q = 0 rows and is scored with the true q
    OMNI_DIGESTS = {
        "design/filter.csv":
            "62580030dc466feab04b173671d0d18ecf7c3d3c8dd6b9430a39326eb5830d2a",
        "evaluate/beampattern.csv":
            "c2086d6922832bed03ed42258eef00f8f7c63e7c550c1e1fe5e4f8ad417e705e",
        "evaluate/df.csv":
            "5cc9df85f63ba04097357a2cc106899c2db07066b8b66e90b1e3b1c9a5ea24c0",
        "evaluate/wng.csv":
            "e44bb573344fe696445ad27913577784386915650e093988de4a8471996ad8ae",
        "montecarlo/bp_stats.csv":
            "c8b5e1eb1bddff9167e589fdad7b2dd3545d837f7bc6282b83c2b04d1b7b1b2b",
        "montecarlo/df_stats.csv":
            "2abd1eaf7fa2d55a6d028a110f94cc9967aee0ef9a8d95b57a5f429fdc125b4d",
        "montecarlo/wng_stats.csv":
            "05910d7162bf365cd65de050b7c2623da750a964bfc9876fe0b6ce26707d00fe",
    }

    @staticmethod
    def run_flow(workspace, **model) -> dict:
        """The sha256 of every CSV of the design -> evaluate -> montecarlo
        flow, with ``model`` (an ``element_model``, or nothing) in the
        design and the study configs."""
        design = write_json(
            workspace / "design.json",
            {
                "geometry_file": "geometry.json",
                "pattern": {"family": "hypercardioid", "order": 2, "steer_deg": 60.0},
                "grid_hz": {"f_min": 500.0, "f_max": 4000.0, "count": 8},
                **model,
            },
        )
        evaluate = write_json(
            workspace / "evaluate.json",
            {
                "geometry_file": "geometry.json",
                "design_manifest": "design/design_manifest.json",
                "eval_frequency_hz": 2500.0,
                "angle_step_deg": 2.0,
            },
        )
        study = write_json(
            workspace / "mc.json",
            {
                "trials": 4,
                "element_count": 7,
                "aperture_radius_mm": 20.0,
                "min_spacing_mm": 8.0,
                "pattern": {"family": "hypercardioid", "order": 2, "steer_deg": 60.0},
                "grid_hz": {"f_min": 500.0, "f_max": 2000.0, "count": 4},
                "eval_frequency_hz": 1000.0,
                "master_seed": 4242,
                "angle_step_deg": 5.0,
                **model,
            },
        )
        for command, config in (("design", design), ("evaluate", evaluate), ("montecarlo", study)):
            assert main([command, "--config", str(config), "--out", str(workspace / command)]) == 0
        return {
            path.relative_to(workspace).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in workspace.rglob("*.csv")
        }

    def test_csv_digests(self, workspace):
        assert self.run_flow(workspace) == self.DIGESTS

    def test_omni_csv_digests(self, workspace):
        assert self.run_flow(workspace, element_model="omni") == self.OMNI_DIGESTS

    # a study past the stacked sampler's window: at 13 elements about a third
    # of the trials are handed over to the single-geometry sampler, and the
    # master seed is two entropy words; the digests predate the stacked sampler
    HAND_OVER_DIGESTS = {
        "bp_stats.csv": "ca057e0754a6807881ba310e7105a30f1ff7a5d6456096caead799bf8fedb960",
        "df_stats.csv": "e16db991b366752c702255c7257e0f9cee12f1bdb860e874e360d6d474aeaac2",
        "failures.json": "8592ad7ebe17d739c4f45086c1bddb4281c98580ebab3fb3cd19924402b028e0",
        "wng_stats.csv": "d23c81cd5e25486b0d953797b58aca7d1fb0406445067c9bcd8eb139c99c8631",
    }

    def test_hand_over_study_digests(self, tmp_path):
        study = write_json(
            tmp_path / "mc13.json",
            {
                "trials": 40,
                "element_count": 13,
                "aperture_radius_mm": 20.0,
                "min_spacing_mm": 8.0,
                "pattern": {"family": "hypercardioid", "order": 2, "steer_deg": 60.0},
                "grid_hz": {"f_min": 500.0, "f_max": 2000.0, "count": 4},
                "eval_frequency_hz": 1000.0,
                "master_seed": 2**40 + 7,
                "angle_step_deg": 5.0,
            },
        )
        out = tmp_path / "montecarlo13"
        assert main(["montecarlo", "--config", str(study), "--out", str(out)]) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()
        }
        assert digests == self.HAND_OVER_DIGESTS
