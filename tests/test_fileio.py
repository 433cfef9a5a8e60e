import json

import numpy as np
import pytest

from diffbeam import (
    FrequencyGrid,
    design_filter,
    geometry_digest,
    sample_random_geometry,
)
from diffbeam.fileio import (
    geometry_from_payload,
    geometry_to_payload,
    grid_from_config,
    load_design,
    load_geometry_file,
    load_json,
    pattern_from_config,
    save_geometry_file,
    write_design_manifest,
    write_filter_csv,
    write_wng_csv,
)
from tests.conftest import steered_hypercardioid


class TestGeometryFiles:
    def test_roundtrip(self, tmp_path):
        geom = sample_random_geometry(7, 0.02, 0.008, seed=77)
        path = tmp_path / "geometry.json"
        save_geometry_file(geom, path)
        loaded = load_geometry_file(path)
        assert loaded.size == 7
        rows = [0, 2]  # radii and shape coefficients
        assert np.allclose(loaded.element_values[rows], geom.element_values[rows], rtol=1e-14)

    def test_digest_is_stable_per_file(self, tmp_path):
        geom = sample_random_geometry(5, 0.02, 0.008, seed=3)
        path = tmp_path / "geometry.json"
        save_geometry_file(geom, path)
        assert geometry_digest(load_geometry_file(path)) == geometry_digest(
            load_geometry_file(path)
        )

    def test_missing_field_reported(self):
        payload = geometry_to_payload(sample_random_geometry(3, 0.02, 0.008, seed=1))
        del payload["elements"][1]["q"]
        with pytest.raises(ValueError, match="element 1.*'q'"):
            geometry_from_payload(payload)

    def test_malformed_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"aperture_radius_mm": 20.0,\n oops}\n')
        with pytest.raises(ValueError, match="line 2"):
            load_json(path)


class TestPatternAndGridConfigs:
    def test_pattern_builtin(self):
        target, pattern_id, coeffs = pattern_from_config(
            {"family": "hypercardioid", "order": 2, "steer_deg": 60.0}
        )
        assert pattern_id == "hypercardioid-n2"
        assert target.order == 2
        assert sum(coeffs.a) == pytest.approx(1.0)

    def test_pattern_custom(self):
        target, pattern_id, coeffs = pattern_from_config(
            {"family": "custom", "order": 1, "steer_deg": 0.0, "a": [3.0, 1.0]}
        )
        assert coeffs.a == (0.75, 0.25)

    def test_grid(self):
        grid = grid_from_config({"f_min": 50.0, "f_max": 4000.0, "count": 80})
        assert grid == FrequencyGrid(50.0, 4000.0, 80)

    def test_missing_keys(self):
        with pytest.raises(ValueError, match="'steer_deg'"):
            pattern_from_config({"family": "hypercardioid", "order": 2})
        with pytest.raises(ValueError, match="'count'"):
            grid_from_config({"f_min": 1.0, "f_max": 2.0})


class TestFilterRoundtrip:
    def test_exact_weight_roundtrip(self, tmp_path, constants, fixed_geometry):
        target = steered_hypercardioid(2)
        grid = FrequencyGrid(500.0, 2000.0, 4)
        filt = design_filter(
            fixed_geometry, constants, target, grid, pattern_id="hypercardioid-n2"
        )
        save_geometry_file(fixed_geometry, tmp_path / "geometry.json")
        write_filter_csv(filt, tmp_path / "filter.csv")
        from diffbeam import hypercardioid_coefficients

        write_design_manifest(
            tmp_path / "design_manifest.json",
            filt,
            pattern_coefficients=hypercardioid_coefficients(2),
            steer_deg=60.0,
            geometry_file=str(tmp_path / "geometry.json"),
            speed_of_sound=constants.speed_of_sound,
            filter_file="filter.csv",
        )
        loaded, manifest = load_design(tmp_path / "design_manifest.json")
        # repr formatting preserves every bit of the weights
        assert np.array_equal(loaded.weights, filt.weights)
        assert loaded.geometry_digest == filt.geometry_digest
        assert loaded.pattern_id == "hypercardioid-n2"
        assert manifest["speed_of_sound_mps"] == constants.speed_of_sound

    def test_header_layout(self, tmp_path, constants, fixed_geometry):
        filt = design_filter(
            fixed_geometry, constants, steered_hypercardioid(1),
            FrequencyGrid(1000.0, 1000.0, 1),
        )
        write_filter_csv(filt, tmp_path / "filter.csv")
        header = (tmp_path / "filter.csv").read_text().splitlines()[0]
        columns = header.split(",")
        assert columns[0] == "f_hz"
        assert columns[1:5] == ["re_h1", "im_h1", "re_h2", "im_h2"]
        assert len(columns) == 1 + 2 * 9


class TestResultCsvFormat:
    def test_nine_significant_digits_and_header(self, tmp_path):
        path = tmp_path / "wng.csv"
        write_wng_csv(path, [50.0, 1000.0], [1.23456789123456, -0.000123456789123])
        lines = path.read_text().splitlines()
        assert lines[0] == "freq_hz,wng_db"
        assert lines[1] == "50,1.23456789"
        assert lines[2] == "1000,-0.000123456789"

    def test_manifest_is_json(self, tmp_path, constants, fixed_geometry):
        filt = design_filter(
            fixed_geometry, constants, steered_hypercardioid(1),
            FrequencyGrid(1000.0, 1000.0, 1),
        )
        from diffbeam import hypercardioid_coefficients

        write_design_manifest(
            tmp_path / "m.json",
            filt,
            pattern_coefficients=hypercardioid_coefficients(1),
            steer_deg=60.0,
            geometry_file="geometry.json",
            speed_of_sound=343.0,
            filter_file="filter.csv",
        )
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["pattern"]["order"] == 1
        assert manifest["geometry_digest"] == geometry_digest(fixed_geometry)
