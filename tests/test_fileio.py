import json
import math

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
    read,
    save_geometry_file,
    write_design_manifest,
    write_filter_csv,
    write_table,
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

    def test_element_that_is_not_an_object_reported(self):
        payload = geometry_to_payload(sample_random_geometry(3, 0.02, 0.008, seed=1))
        payload["elements"][1] = 5
        with pytest.raises(ValueError, match="element 1: expected a JSON object, got int"):
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


class TestRead:
    @pytest.mark.parametrize(
        "value, kind, expected",
        [(80, float, 80.0), (0.5, float, 0.5), (80, int, 80), ("x", str, "x"),
         ({}, dict, {}), ([1], list, [1]), (True, object, True), (2.5, object, 2.5)],
    )
    def test_accepted(self, value, kind, expected):
        got = read({"k": value}, "k", kind, "cfg.json")
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize(
        "value, kind, name",
        [(80.0, int, "integer"), (True, int, "integer"), (False, float, "number"),
         ("80", int, "integer"), ("1.5", float, "number"), (5, str, "string"),
         (5, dict, "object"), ({"a": 1}, list, "array")],
    )
    def test_refused_naming_file_and_key(self, value, kind, name):
        with pytest.raises(ValueError, match=f"^cfg.json: 'k' must be a JSON {name}, got "):
            read({"k": value}, "k", kind, "cfg.json")

    def test_missing_key(self):
        assert read({}, "k", int, "cfg.json", default=None) is None
        with pytest.raises(ValueError, match="^cfg.json: missing required field 'k'$"):
            read({}, "k", int, "cfg.json")


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


class TestFilterRefusals:
    """`load_design` refuses a filter CSV it cannot read as the manifest's
    table, naming the file and, for a bad row, the row."""

    @pytest.fixture
    def manifest(self, tmp_path, constants, fixed_geometry):
        from diffbeam import hypercardioid_coefficients

        filt = design_filter(
            fixed_geometry, constants, steered_hypercardioid(1),
            FrequencyGrid(1000.0, 2500.0, 4),
        )
        write_filter_csv(filt, tmp_path / "filter.csv")
        write_design_manifest(
            tmp_path / "design_manifest.json",
            filt,
            pattern_coefficients=hypercardioid_coefficients(1),
            steer_deg=60.0,
            geometry_file="geometry.json",
            speed_of_sound=constants.speed_of_sound,
            filter_file="filter.csv",
        )
        return tmp_path / "design_manifest.json"

    @staticmethod
    def edit(manifest, line: int, change) -> None:
        path = manifest.parent / "filter.csv"
        lines = path.read_text().splitlines()
        lines[line] = change(lines[line])
        path.write_text("\n".join(lines) + "\n")

    @staticmethod
    def replace_cell(column: int, text: str):
        def change(line):
            cells = line.split(",")
            cells[column] = text
            return ",".join(cells)
        return change

    def test_ragged_row(self, manifest):
        # row 2 (file line 3) loses its last element's pair
        self.edit(manifest, 3, lambda line: line.rsplit(",", 2)[0])
        with pytest.raises(ValueError, match=r"filter\.csv: row 2 has 17 cells, the header has 19"):
            load_design(manifest)

    @pytest.mark.parametrize("line, column, text, where", [
        (2, 3, "1.5e-3x", "row 1 column re_h2"),
        (4, 18, "", "row 3 column im_h9"),
    ])
    def test_non_numeric_cell(self, manifest, line, column, text, where):
        self.edit(manifest, line, self.replace_cell(column, text))
        with pytest.raises(ValueError, match=rf"filter\.csv: {where}: '{text}' is not a number"):
            load_design(manifest)

    @pytest.mark.parametrize("line, column, text, where", [
        (1, 1, "nan", "row 0 column re_h1"),
        (3, 8, "inf", "row 2 column im_h4"),
        (4, 18, "-inf", "row 3 column im_h9"),
    ])
    def test_weight_not_finite(self, manifest, line, column, text, where):
        self.edit(manifest, line, self.replace_cell(column, text))
        with pytest.raises(
            ValueError, match=rf"filter\.csv: {where}: '{text}' is not a finite number"
        ):
            load_design(manifest)

    @pytest.mark.parametrize("header", [
        ",".join(["freq"] + [f"{part}_h{m}" for m in range(1, 10) for part in ("re", "im")]),
        ",".join(["f_hz"] + [f"{part}_h{m}" for m in range(1, 10) for part in ("im", "re")]),
        ",".join(["f_hz"] + [f"{part}_h{m}" for m in range(2, 11) for part in ("re", "im")]),
        "f_hz,re_h1,im_h1,re_h2",
        "f_hz",
        "",
    ])
    def test_bad_header(self, manifest, header):
        self.edit(manifest, 0, lambda line: header)
        with pytest.raises(ValueError, match=r"filter\.csv: header must read f_hz, re_h1, im_h1"):
            load_design(manifest)

    def test_header_of_fewer_elements_than_the_rows(self, manifest):
        self.edit(manifest, 0, lambda line: "f_hz,re_h1,im_h1")
        with pytest.raises(ValueError, match=r"filter\.csv: row 0 has 19 cells, the header has 3"):
            load_design(manifest)

    def test_row_count(self, manifest):
        path = manifest.parent / "filter.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        with pytest.raises(ValueError, match=r"filter\.csv: expected 4 rows, found 3"):
            load_design(manifest)

    @pytest.mark.parametrize("text", ["2000.00001", "inf", "nan"])
    def test_frequency_off_grid(self, manifest, text):
        self.edit(manifest, 3, self.replace_cell(0, text))
        with pytest.raises(
            ValueError,
            match=rf"filter\.csv: row 2 frequency {text} does not match the manifest "
            r"grid point 2000\.0",
        ):
            load_design(manifest)

    def test_frequency_within_tolerance_accepted(self, manifest):
        self.edit(manifest, 3, self.replace_cell(0, "2000.000000001"))
        filt, _ = load_design(manifest)
        assert filt.weights.shape == (4, 9)


def oracle_csv(header, rows, exact=False) -> str:
    """The per-value writer the table writer replaced: one formatting call
    per cell, ``+ 0.0`` folding a negative zero, comma-joined, LF-ended."""
    cell = repr if exact else (lambda v: format(v, ".9g"))
    lines = [",".join(header)] + [",".join(cell(float(v) + 0.0) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


# edge values, and values that round at the ninth significant digit
AWKWARD = [
    -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-5, -1e300, 1e300,
    1.2345678949999999, 1.2345678950000001, 0.1234567895, 999999999.5, 9999999995.0,
    9.9999999949999, 9.999999995, -0.000123456789123, 2.2250738585072014e-308,
    1.7976931348623157e308, 1.0 / 3.0, 100.0, 1e16, 123456789012.0,
]


class TestTableWriter:
    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_per_value_oracle(self, tmp_path, exact):
        rng = np.random.default_rng(5)
        random = rng.standard_normal(60) * 10.0 ** rng.integers(-12, 12, 60)
        values = np.concatenate([AWKWARD, random])
        table = values.reshape(-1, 4)
        header = ["a", "b", "c", "d"]
        path = tmp_path / "table.csv"
        write_table(path, header, table, exact=exact)
        assert path.read_bytes() == oracle_csv(header, table.tolist(), exact).encode()

    def test_negative_zero_and_specials(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, ["x", "y"], [[-0.0, math.nan], [math.inf, -math.inf]])
        assert path.read_text() == "x,y\n0,nan\ninf,-inf\n"

    def test_exact_cells_read_back_bit_for_bit(self, tmp_path):
        values = np.array([v for v in AWKWARD if not math.isnan(v)])
        path = tmp_path / "table.csv"
        write_table(path, ["v"], values[:, None], exact=True)
        read = np.array([float(v) for v in path.read_text().splitlines()[1:]])
        assert np.array_equal(read, values + 0.0)
        assert not np.signbit(read[0])

    def test_empty_table_is_the_header(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, ["x", "y"], np.empty((0, 2)))
        assert path.read_text() == "x,y\n"


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
