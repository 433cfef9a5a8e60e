import math

import numpy as np
import pytest
import scipy.linalg

from diffbeam import (
    BeamformerFilter,
    FrequencyGrid,
    FrequencyGridError,
    RankDeficientSystemError,
    design_filter,
    sample_random_geometry,
)
from diffbeam import solver
from diffbeam.geometry import ArrayElement, ArrayGeometry, sample_element_values
from diffbeam.metrics import parseval_reach
from diffbeam.modal import element_harmonics, model_values
from diffbeam.solver import RANK_RTOL, design_rhs, design_weights, solve_wide
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

    @pytest.mark.parametrize(
        "args", [(0.0, 100.0, 5), (200.0, 100.0, 5), (50.0, 100.0, 0), (1000.0, 4000.0, 1)]
    )
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            FrequencyGrid(*args)


def min_norm(matrix, rhs):
    """`solve_wide` on one system: its solution, or None when refused."""
    h, refused, _ = solve_wide(np.asarray(matrix, dtype=complex)[None], np.asarray(rhs)[None])
    return None if refused[0] else h[0]


class TestMinNormSolve:
    def test_scalar_system(self):
        assert min_norm(np.array([[1.0]]), np.array([1.0])) == pytest.approx([1.0])

    def test_symmetric_split(self):
        h = min_norm(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert h == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_null_direction_gets_nothing(self):
        matrix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
        rhs = np.array([0.3 - 0.2j, 1.5j])
        h = min_norm(matrix, rhs)
        assert h[2] == 0.0
        assert h[:2] == pytest.approx(rhs)

    def test_matches_svd_pseudoinverse(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            rows, cols = rng.integers(1, 6), rng.integers(6, 12)
            matrix = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            rhs = rng.normal(size=rows) + 1j * rng.normal(size=rows)
            expected = np.linalg.pinv(matrix) @ rhs
            assert np.allclose(min_norm(matrix, rhs), expected, atol=1e-10)

    def test_rank_deficiency_detected(self):
        matrix = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], dtype=complex)
        h, refused, condition = solve_wide(matrix[None], np.array([[1.0, 2.0]]))
        assert refused.tolist() == [True]
        assert np.isnan(h).all()
        assert condition[0] > 1e10

    def test_zero_row_detected(self):
        matrix = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex)
        assert min_norm(matrix, np.array([1.0, 0.0])) is None

    def test_tall_systems_rejected(self):
        # more rows than unknowns leave the Gram matrix singular
        assert min_norm(np.ones((3, 2)), np.ones(3)) is None


def equilibrated_reference(a, b):
    """`solve_wide` with the equilibrated Gram formed from the scaled rows,
    behind its own eigenvalue gate on the unscaled Gram."""
    eigs = np.linalg.eigvalsh(a @ a.conj().swapaxes(-1, -2))
    largest, smallest = eigs[..., -1], eigs[..., 0]
    refused = (largest <= 0.0) | (smallest < RANK_RTOL * largest)
    condition = np.divide(largest, smallest, out=np.full_like(largest, math.inf),
                          where=smallest > 0.0)
    h = np.full(a.shape[:-2] + a.shape[-1:], np.nan, dtype=complex)
    accepted = ~refused
    a = a[accepted]
    b = np.broadcast_to(b, refused.shape + b.shape[-1:])[accepted]
    row_norms = np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))
    scales = np.exp2(np.round(np.log2(row_norms)))
    a_eq = a / scales[..., None]
    chol = np.linalg.cholesky(a_eq @ a_eq.conj().swapaxes(-1, -2))
    y = np.linalg.solve(chol.conj().swapaxes(-1, -2), np.linalg.solve(chol, (b / scales)[..., None]))
    h[accepted] = (a_eq.conj().swapaxes(-1, -2) @ y)[..., 0]
    return h, refused, condition


class TestGramReuse:
    @pytest.mark.parametrize("order, elements", [(1, 3), (2, 5), (2, 9), (3, 7), (4, 13)])
    def test_bit_identical_to_the_scaled_gram(self, order, elements):
        # 16 desk-scale trials over the 80-point desk grid, low orders refused
        values = np.stack(
            [sample_element_values(elements, 0.02, 0.008, seed=s) for s in range(16)], axis=1
        )
        omegas = FrequencyGrid(50.0, 4000.0, 80).omegas
        xi = element_harmonics(values, omegas, order, 343.0)
        rhs = design_rhs(steered_hypercardioid(order))
        got = solve_wide(xi.conj(), rhs)
        expected = equilibrated_reference(xi.conj(), rhs)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e, equal_nan=True)
        assert (~got[1]).any()


class TestDesignWeights:
    """`design_weights` reads the rows n = -N .. N off the centre of the
    tensor it is given: a build at reach N, as `design_filter` makes, or a
    scoring tensor at the `parseval_reach` L > N, as the Monte Carlo chunks
    and the fixed-geometry study pass for the first-order model. Both give
    the same bits, for either element model, signed zeros included: the
    Bessel sweep runs from further up but settles on the same doubles, and
    every other step is elementwise. Designing from either cannot move a
    weight."""

    @staticmethod
    def stack(rng, trials, elements, aperture):
        """(4, T, M) values with q drawn from {0, 0.3, 0.5, 1} and [0, 1]. The
        first trial holds an element at the origin with phi = -0, one at
        the rim with phi = -0, one steered along its own radius (alpha = 0)
        and one steered against it (alpha = pi)."""
        q = rng.choice([0.0, 0.3, 0.5, 1.0, -1.0], (trials, elements))
        q = np.where(q < 0.0, rng.uniform(0.0, 1.0, q.shape), q)
        values = np.stack([
            aperture * np.sqrt(rng.uniform(0.0, 1.0, (trials, elements))),
            rng.uniform(0.0, 2 * np.pi, (trials, elements)),
            q,
            rng.uniform(0.0, 2 * np.pi, (trials, elements)),
        ])
        values[:, 0, 0] = (0.0, -0.0, 1.0, 0.0)
        values[:, 0, 1] = (aperture, -0.0, 0.5, 0.0)
        values[3, 0, 2] = values[1, 0, 2]
        values[3, 0, -1] = values[1, 0, -1] + np.pi
        return values

    @pytest.mark.parametrize("model", ["first_order", "omni"])
    @pytest.mark.parametrize("elements, order, aperture, f_min, f_max, count", [
        (3, 0, 0.005, 1000.0, 1000.0, 1),
        (3, 1, 0.02, 50.0, 4000.0, 80),
        (5, 2, 0.02, 50.0, 4000.0, 80),
        (9, 2, 0.02, 1000.0, 1000.0, 1),
        (7, 3, 0.02, 300.0, 4000.0, 75),
        (13, 4, 0.02, 50.0, 4000.0, 80),
        (13, 6, 0.1, 100.0, 12000.0, 40),
        (11, 5, 0.35, 500.0, 11400.0, 24),
        (4, 1, 0.2, 20.0, 20000.0, 9),
    ])
    def test_design_rows_are_the_scoring_tensors_centre_rows(
        self, monkeypatch, model, elements, order, aperture, f_min, f_max, count
    ):
        rng = np.random.default_rng(elements * 100 + order)
        values = self.stack(rng, 3, elements, aperture)
        omegas = FrequencyGrid(f_min, f_max, count).omegas
        reach = parseval_reach(order, omegas.max(), aperture, 343.0)
        assert reach > order
        seen = model_values(values, model)
        at_order = element_harmonics(seen, omegas, order, 343.0)
        at_reach = element_harmonics(seen, omegas, reach, 343.0)
        solved = []

        def capture(a, b):
            solved.append(a)
            return solve_wide(a, b)

        monkeypatch.setattr(solver, "solve_wide", capture)
        target = steered_hypercardioid(order)
        built_weights = design_weights(at_order, target)
        read_weights = design_weights(at_reach, target)
        built, read = solved

        centre = at_reach[..., reach - order : reach + order + 1, :].conj()
        assert built.shape == centre.shape == (3, count, 2 * order + 1, elements)
        assert built.tobytes() == centre.tobytes() == read.tobytes()
        for b, r in zip(built_weights, read_weights):
            assert b.tobytes() == r.tobytes()
        # negative zeros occur, so the byte comparison checks their signs
        zeros = np.concatenate([built.real[built.real == 0.0], built.imag[built.imag == 0.0]])
        assert np.signbit(zeros).any()

    def test_too_few_elements_refused_before_solving(self, monkeypatch):
        monkeypatch.setattr(solver, "solve_wide", None)
        xi = np.zeros((2, 1, 5, 4), dtype=complex)
        with pytest.raises(ValueError, match="order 2 needs at least 5 elements, got 4"):
            design_weights(xi, steered_hypercardioid(2))


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
        xi = element_harmonics(geom.element_values, grid.omegas, 3, constants.speed_of_sound)
        for matrix, h in zip(xi, filt.weights):
            residual = matrix.conj() @ h - design_rhs(target)
            assert np.max(np.abs(residual)) < 1e-9

    def test_minimum_norm_among_solutions(self, constants):
        geom = sample_random_geometry(9, 0.02, 0.008, seed=23)
        target = steered_hypercardioid(2)
        omega = 2 * np.pi * 1000.0
        xi = element_harmonics(geom.element_values, [omega], 2, constants.speed_of_sound)
        matrix = xi[0].conj()
        h = min_norm(matrix, design_rhs(target))
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
        assert filt.grid.index(1500.0) == 1
        assert np.array_equal(filt.weights_at(2 * math.pi * 1500.0), filt.weights[1])
        with pytest.raises(FrequencyGridError):
            filt.weights_at(2 * math.pi * 1200.0)


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
