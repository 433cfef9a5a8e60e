import math

import numpy as np
import pytest
import scipy.linalg

from diffbeam import (
    BeamformerFilter,
    FrequencyGrid,
    FrequencyGridError,
    RankDeficientSystemError,
    build_modal_system,
    design_filter,
    min_norm_solve,
    sample_random_geometry,
)
from diffbeam.geometry import ArrayElement, ArrayGeometry
from tests.conftest import steered_hypercardioid
from tests.test_modal import with_zero_shape


class TestFrequencyGrid:
    def test_linear_spacing(self):
        grid = FrequencyGrid(50.0, 4000.0, 80)
        freqs = grid.frequencies_hz
        assert freqs[0] == 50.0 and freqs[-1] == 4000.0
        assert np.allclose(np.diff(freqs), 50.0)
        assert 1000.0 in freqs

    def test_single_point(self):
        assert FrequencyGrid(1000.0, 1000.0, 1).frequencies_hz.tolist() == [1000.0]

    @pytest.mark.parametrize("name", ["frequencies_hz", "omegas"])
    def test_arrays_built_once_and_read_only(self, name):
        grid = FrequencyGrid(50.0, 4000.0, 80)
        array = getattr(grid, name)
        assert getattr(grid, name) is array
        with pytest.raises(ValueError):
            array[0] = 1.0

    @pytest.mark.parametrize("args", [(0.0, 100.0, 5), (200.0, 100.0, 5), (50.0, 100.0, 0)])
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            FrequencyGrid(*args)


class TestMinNormSolve:
    def test_scalar_system(self):
        assert min_norm_solve(np.array([[1.0]]), np.array([1.0])) == pytest.approx([1.0])

    def test_symmetric_split(self):
        h = min_norm_solve(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert h == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_null_direction_gets_nothing(self):
        matrix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
        rhs = np.array([0.3 - 0.2j, 1.5j])
        h = min_norm_solve(matrix, rhs)
        assert h[2] == 0.0
        assert h[:2] == pytest.approx(rhs)

    def test_matches_svd_pseudoinverse(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            rows, cols = rng.integers(1, 6), rng.integers(6, 12)
            matrix = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            rhs = rng.normal(size=rows) + 1j * rng.normal(size=rows)
            expected = np.linalg.pinv(matrix) @ rhs
            assert np.allclose(min_norm_solve(matrix, rhs), expected, atol=1e-10)

    def test_rank_deficiency_detected(self):
        matrix = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], dtype=complex)
        with pytest.raises(RankDeficientSystemError) as excinfo:
            min_norm_solve(matrix, np.array([1.0, 2.0]))
        assert excinfo.value.condition > 1e10

    def test_zero_row_detected(self):
        matrix = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex)
        with pytest.raises(RankDeficientSystemError):
            min_norm_solve(matrix, np.array([1.0, 0.0]))

    def test_tall_systems_rejected(self):
        with pytest.raises(ValueError):
            min_norm_solve(np.ones((3, 2)), np.ones(3))


class TestDesignFilter:
    def test_single_omni_element_identity(self, constants):
        geom = ArrayGeometry(
            elements=(ArrayElement(r=0.0, phi=0.0, q=0.0, theta_steer=0.0),),
            aperture_radius=0.02,
            min_spacing=0.008,
        )
        filt = design_filter(
            geom, constants, steered_hypercardioid(0), FrequencyGrid(50.0, 4000.0, 10),
            element_model="omni",
        )
        assert np.allclose(filt.weights, 1.0, atol=1e-14)

    def test_element_count_precondition(self, constants):
        geom = sample_random_geometry(3, 0.02, 0.008, seed=2)
        with pytest.raises(ValueError, match="at least 5 elements"):
            design_filter(
                geom, constants, steered_hypercardioid(2), FrequencyGrid(1000.0, 1000.0, 1)
            )

    def test_unnormalized_pattern_rejected(self, constants):
        from diffbeam import SteeredTarget, SymmetricB

        geom = sample_random_geometry(5, 0.02, 0.008, seed=2)
        bad = SteeredTarget(coefficients=SymmetricB(b=(0.5, 1.0, 0.5)), theta_s=0.0)
        with pytest.raises(ValueError, match="normalized"):
            design_filter(geom, constants, bad, FrequencyGrid(1000.0, 1000.0, 1))

    def test_omni_model_equals_first_order_for_zero_q(self, constants):
        grid = FrequencyGrid(200.0, 3800.0, 10)
        for seed in range(5):
            geom = with_zero_shape(sample_random_geometry(9, 0.02, 0.008, seed=seed))
            target = steered_hypercardioid(2)
            first = design_filter(geom, constants, target, grid, "first_order")
            omni = design_filter(geom, constants, target, grid, "omni")
            assert np.max(np.abs(first.weights - omni.weights)) < 1e-10

    def test_modal_residual(self, constants):
        grid = FrequencyGrid(500.0, 4000.0, 8)
        geom = sample_random_geometry(11, 0.02, 0.008, seed=19)
        target = steered_hypercardioid(3)
        filt = design_filter(geom, constants, target, grid)
        for omega, h in zip(grid.omegas, filt.weights):
            system = build_modal_system(geom, constants, omega, target)
            residual = system.matrix @ h.conj() - system.rhs
            assert np.max(np.abs(residual)) < 1e-9

    def test_minimum_norm_among_solutions(self, constants):
        geom = sample_random_geometry(9, 0.02, 0.008, seed=23)
        target = steered_hypercardioid(2)
        omega = 2 * np.pi * 1000.0
        system = build_modal_system(geom, constants, omega, target)
        matrix = system.matrix.conj()
        h = min_norm_solve(matrix, system.rhs.conj())
        null_space = scipy.linalg.null_space(matrix)
        rng = np.random.default_rng(4)
        for _ in range(10):
            mix = rng.normal(size=null_space.shape[1]) + 1j * rng.normal(
                size=null_space.shape[1]
            )
            perturbed = h + null_space @ mix
            assert np.linalg.norm(perturbed) > np.linalg.norm(h)

    def test_rank_error_reports_frequency(self, constants):
        # order 4 at 50 Hz: the outermost harmonic rows underflow the
        # rank gate, by design the solve fails loudly
        geom = sample_random_geometry(9, 0.02, 0.008, seed=42)
        with pytest.raises(RankDeficientSystemError) as excinfo:
            design_filter(
                geom, constants, steered_hypercardioid(4), FrequencyGrid(50.0, 50.0, 1)
            )
        assert excinfo.value.frequency_hz == pytest.approx(50.0)

    def test_filter_metadata(self, constants, fixed_geometry):
        grid = FrequencyGrid(1000.0, 2000.0, 3)
        filt = design_filter(
            fixed_geometry, constants, steered_hypercardioid(1), grid,
            pattern_id="hypercardioid-n1",
        )
        assert filt.size == 9
        assert filt.order == 1
        assert filt.pattern_id == "hypercardioid-n1"
        assert filt.weights.flags.writeable is False

    def test_frequency_lookup(self, constants, fixed_geometry):
        grid = FrequencyGrid(1000.0, 2000.0, 3)
        filt = design_filter(fixed_geometry, constants, steered_hypercardioid(1), grid)
        assert filt.frequency_index(2 * math.pi * 1500.0) == 1
        with pytest.raises(FrequencyGridError):
            filt.frequency_index(2 * math.pi * 1200.0)


class TestBeamformerFilterValidation:
    def test_weight_shape_checked(self):
        grid = FrequencyGrid(100.0, 200.0, 2)
        with pytest.raises(ValueError):
            BeamformerFilter(
                grid=grid,
                weights=np.ones((3, 4), dtype=complex),
                order=1,
                theta_s=0.0,
                pattern_id="x",
                geometry_digest="d",
                element_model="omni",
            )
