import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffbeam import (
    BeamformerFilter,
    FrequencyGrid,
    GeometryMismatchError,
    InvalidFilterError,
    beampattern,
    design_filter,
    evaluate_target,
    geometry_digest,
)
from diffbeam.geometry import ArrayElement, ArrayGeometry
from diffbeam.metrics import (
    angle_count,
    check_floor_db,
    coefficient_gains,
    equispaced_pattern,
    filter_coefficients,
    magnitude_db,
    parseval_reach,
    pattern_coefficients,
    power_db,
    render_pattern,
)
from diffbeam.modal import element_harmonics
from diffbeam.oracles import (
    directivity_factor,
    harmonic_coefficient,
    steering_vector,
    white_noise_gain,
)
from tests.conftest import angle_grid, steered_hypercardioid


def manual_filter(geometry, weights_row, grid=None, theta_s=0.0):
    grid = grid or FrequencyGrid(1000.0, 1000.0, 1)
    return BeamformerFilter(
        grid=grid,
        weights=np.asarray(weights_row, dtype=complex)[None, :],
        order=0,
        theta_s=theta_s,
        pattern_id="manual",
        geometry_digest=geometry_digest(geometry),
        element_model="first_order",
    )


def single_omni():
    return ArrayGeometry(
        elements=(ArrayElement(r=0.0, phi=0.0, q=0.0, theta_steer=0.0),),
        aperture_radius=0.02,
        min_spacing=0.008,
    )


OMEGA_1K = 2 * np.pi * 1000.0


class TestBeampattern:
    def test_single_omni_unity(self, constants):
        geom = single_omni()
        filt = manual_filter(geom, [1.0])
        for theta in (0.0, 1.0, 4.5):
            assert beampattern(filt, geom, constants, OMEGA_1K, theta) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_omni_elements_reduce_to_bare_steering(self, constants, fixed_geometry):
        from tests.test_modal import with_zero_shape

        geom = with_zero_shape(fixed_geometry)
        rng = np.random.default_rng(8)
        weights = rng.normal(size=9) + 1j * rng.normal(size=9)
        filt = manual_filter(geom, weights)
        theta = angle_grid(64)
        direct = beampattern(filt, geom, constants, OMEGA_1K, theta)
        bare = weights.conj() @ steering_vector(geom, constants, OMEGA_1K, theta)
        assert np.allclose(direct, bare, atol=1e-15)

    def test_designed_filter_distortionless(self, constants, fixed_geometry):
        target = steered_hypercardioid(3)
        filt = design_filter(
            fixed_geometry, constants, target, FrequencyGrid(1000.0, 1000.0, 1)
        )
        value = beampattern(filt, fixed_geometry, constants, OMEGA_1K, target.theta_s)
        assert abs(value - 1.0) < 0.05

    def test_matches_high_order_modal_reconstruction(self, constants, fixed_geometry):
        # rebuild B(theta) from 61 harmonic coefficients; at aperture-scale
        # x the truncation tail is negligible, so the two routes must agree
        target = steered_hypercardioid(2)
        filt = design_filter(
            fixed_geometry, constants, target, FrequencyGrid(1000.0, 1000.0, 1)
        )
        h = filt.weights_at(OMEGA_1K)
        theta = angle_grid(180)
        direct = beampattern(filt, fixed_geometry, constants, OMEGA_1K, theta)
        reconstruction = np.zeros_like(direct)
        for n in range(-30, 31):
            coefficient = 0.0 + 0.0j
            for m, e in enumerate(fixed_geometry.elements):
                x = OMEGA_1K * e.r / constants.speed_of_sound
                coefficient += (
                    h[m].conjugate()
                    * harmonic_coefficient(n, x, e.q, e.theta_steer, e.phi)
                    * cmath.exp(-1j * n * e.theta_steer)
                )
            reconstruction += coefficient * np.exp(1j * n * theta)
        assert np.max(np.abs(direct - reconstruction)) < 1e-10

    def test_tracks_target_over_the_grid(self, constants, fixed_geometry):
        # frequency-invariant rendering tracks the target at every grid point
        target = steered_hypercardioid(2)
        grid = FrequencyGrid(500.0, 2000.0, 4)
        filt = design_filter(fixed_geometry, constants, target, grid)
        theta = angle_grid(180)
        target_values = evaluate_target(target, theta)
        for omega in grid.omegas:
            rendered = beampattern(filt, fixed_geometry, constants, omega, theta)
            assert rendered.shape == (180,)
            assert np.max(np.abs(rendered - target_values)) < 0.1
        wng, df = coefficient_gains(
            filter_coefficients(filt, fixed_geometry, constants), filt.weights, filt.theta_s
        )
        assert wng.shape == df.shape == (4,)

    def test_off_grid_frequency_rejected(self, constants, fixed_geometry):
        filt = design_filter(
            fixed_geometry, constants, steered_hypercardioid(1),
            FrequencyGrid(1000.0, 1000.0, 1),
        )
        from diffbeam import FrequencyGridError

        with pytest.raises(FrequencyGridError):
            beampattern(filt, fixed_geometry, constants, 2 * np.pi * 999.0, 0.0)


class TestWhiteNoiseGain:
    def test_single_omni(self, constants):
        geom = single_omni()
        filt = manual_filter(geom, [1.0])
        assert white_noise_gain(filt, geom, constants, OMEGA_1K, 0.3) == pytest.approx(1.0)

    def test_delay_and_sum_gain_is_element_count(self, constants):
        # h = d(theta_s) / M on omni elements: |B| = 1, h^H h = 1/M
        geom = ArrayGeometry(
            elements=tuple(
                ArrayElement(r=0.012, phi=2 * np.pi * m / 6, q=0.0, theta_steer=0.0)
                for m in range(6)
            ),
            aperture_radius=0.02,
            min_spacing=0.008,
        )
        theta_s = 0.7
        d = steering_vector(geom, constants, OMEGA_1K, theta_s)
        filt = manual_filter(geom, d / 6.0, theta_s=theta_s)
        wng = white_noise_gain(filt, geom, constants, OMEGA_1K, theta_s)
        assert wng == pytest.approx(6.0, rel=1e-12)

    def test_zero_filter_rejected(self, constants):
        geom = single_omni()
        filt = manual_filter(geom, [0.0])
        with pytest.raises(InvalidFilterError):
            white_noise_gain(filt, geom, constants, OMEGA_1K, 0.0)


class TestDirectivityFactor:
    def test_single_omni(self, constants):
        geom = single_omni()
        filt = manual_filter(geom, [1.0])
        assert directivity_factor(filt, geom, constants, OMEGA_1K, 0.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_rendered_hypercardioid_reaches_optimum(self, constants, fixed_geometry):
        for order in (1, 2, 3):
            target = steered_hypercardioid(order)
            filt = design_filter(
                fixed_geometry, constants, target, FrequencyGrid(1000.0, 1000.0, 1)
            )
            df = directivity_factor(
                filt, fixed_geometry, constants, OMEGA_1K, target.theta_s
            )
            assert abs(power_db(df) - power_db(2 * order + 1)) < 0.5

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_integration_point_convergence(self, constants, fixed_geometry, order):
        target = steered_hypercardioid(order)
        filt = design_filter(
            fixed_geometry, constants, target, FrequencyGrid(1000.0, 1000.0, 1)
        )
        coarse = directivity_factor(
            filt, fixed_geometry, constants, OMEGA_1K, target.theta_s, 2048
        )
        fine = directivity_factor(
            filt, fixed_geometry, constants, OMEGA_1K, target.theta_s, 4096
        )
        assert abs(coarse - fine) < 1e-9

    def test_point_minimum(self, constants, fixed_geometry):
        filt = design_filter(
            fixed_geometry, constants, steered_hypercardioid(1),
            FrequencyGrid(1000.0, 1000.0, 1),
        )
        with pytest.raises(ValueError):
            directivity_factor(filt, fixed_geometry, constants, OMEGA_1K, 0.0, 256)


class TestScalingInvariance:
    @given(
        scale_re=st.floats(min_value=-3.0, max_value=3.0),
        scale_im=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_metrics_unchanged_beampattern_conjugate_scaled(
        self, constants, fixed_geometry, scale_re, scale_im
    ):
        alpha = complex(scale_re, scale_im)
        if abs(alpha) < 1e-3:
            return
        target = steered_hypercardioid(1)
        filt = design_filter(
            fixed_geometry, constants, target, FrequencyGrid(1000.0, 1000.0, 1)
        )
        scaled = manual_filter(
            fixed_geometry, alpha * filt.weights[0], theta_s=target.theta_s
        )
        wng = white_noise_gain(filt, fixed_geometry, constants, OMEGA_1K, target.theta_s)
        wng_scaled = white_noise_gain(
            scaled, fixed_geometry, constants, OMEGA_1K, target.theta_s
        )
        assert wng_scaled == pytest.approx(wng, rel=1e-12)
        df = directivity_factor(filt, fixed_geometry, constants, OMEGA_1K, target.theta_s)
        df_scaled = directivity_factor(
            scaled, fixed_geometry, constants, OMEGA_1K, target.theta_s
        )
        assert df_scaled == pytest.approx(df, rel=1e-12)
        b = beampattern(filt, fixed_geometry, constants, OMEGA_1K, 0.9)
        b_scaled = beampattern(scaled, fixed_geometry, constants, OMEGA_1K, 0.9)
        assert b_scaled == pytest.approx(alpha.conjugate() * b, rel=1e-12)


class TestPatternMaximum:
    def test_power_peaks_at_steering_angle(self, constants, fixed_geometry):
        theta = angle_grid(360)
        for order in (1, 2, 3, 4):
            target = steered_hypercardioid(order)
            filt = design_filter(
                fixed_geometry, constants, target, FrequencyGrid(1000.0, 1000.0, 1)
            )
            power = np.abs(
                beampattern(filt, fixed_geometry, constants, OMEGA_1K, theta)
            ) ** 2
            assert np.argmax(power) == 60


class TestGainCurves:
    def test_matches_quadrature_oracles(self, constants, fixed_geometry):
        target = steered_hypercardioid(2)
        grid = FrequencyGrid(200.0, 3800.0, 7)
        filt = design_filter(fixed_geometry, constants, target, grid)
        wng, df = coefficient_gains(
            filter_coefficients(filt, fixed_geometry, constants), filt.weights, filt.theta_s
        )
        for i, omega in enumerate(grid.omegas):
            assert wng[i] == pytest.approx(
                white_noise_gain(filt, fixed_geometry, constants, omega, target.theta_s),
                rel=1e-12,
            )
            assert df[i] == pytest.approx(
                directivity_factor(
                    filt, fixed_geometry, constants, omega, target.theta_s
                ),
                rel=1e-12,
            )


    def test_zero_filter_rejected(self, constants):
        geom = single_omni()
        filt = manual_filter(geom, [0.0])
        coefficients = filter_coefficients(filt, geom, constants)
        with pytest.raises(InvalidFilterError):
            coefficient_gains(coefficients, filt.weights, 0.0)


@pytest.mark.parametrize("score", [
    lambda filt, geometry, constants: beampattern(filt, geometry, constants, OMEGA_1K, [0.0]),
    lambda filt, geometry, constants: filter_coefficients(filt, geometry, constants),
], ids=["beampattern", "filter_coefficients"])
def test_filter_of_another_element_count_refused(score, constants, fixed_geometry):
    filt = manual_filter(fixed_geometry, np.ones(8))
    with pytest.raises(
        GeometryMismatchError,
        match="the filter has weights for 8 elements but the geometry has 9",
    ):
        score(filt, fixed_geometry, constants)


class TestEquispacedPattern:
    @staticmethod
    def random_stack(rng, trials=5, elements=9):
        values = np.stack([
            rng.uniform(0.0, 0.05, (trials, elements)),
            rng.uniform(0.0, 2 * np.pi, (trials, elements)),
            rng.uniform(0.0, 1.0, (trials, elements)),
            rng.uniform(0.0, 2 * np.pi, (trials, elements)),
        ])
        weights = rng.normal(size=(trials, elements)) + 1j * rng.normal(size=(trials, elements))
        return values, weights

    @pytest.mark.parametrize("angle_count", [7, 16, 360, 1440])
    def test_matches_direct_render(self, angle_count):
        # 7 and 16 angles are fewer than the 2L + 1 harmonics, so they fold
        rng = np.random.default_rng(angle_count)
        values, weights = self.random_stack(rng)
        omega, c = 2 * np.pi * 3000.0, 343.0
        reach = parseval_reach(0, omega, values[0].max(), c)
        assert 2 * reach + 1 > 16
        xi = element_harmonics(values, [omega], reach, c)
        coefficients = pattern_coefficients(xi, weights[:, None, :])[:, 0]
        theta = 2 * np.pi * np.arange(angle_count) / angle_count
        got = equispaced_pattern(coefficients, angle_count)
        want = render_pattern(weights, values, omega, theta, c)
        assert got.shape == want.shape == (5, angle_count)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_first, angle_count", [(-7, 4), (3, 5), (-12, 25), (5, 1)])
    def test_any_run_of_harmonics(self, n_first, angle_count):
        # a pattern whose harmonics are the run n_first .. n_first + 10, held
        # as coefficients over -L .. L that are zero outside the run
        rng = np.random.default_rng(angle_count)
        run = rng.normal(size=(3, 11)) + 1j * rng.normal(size=(3, 11))
        n_values = np.arange(n_first, n_first + 11)
        reach = int(np.abs(n_values).max())
        coefficients = np.zeros((3, 2 * reach + 1), dtype=complex)
        coefficients[:, n_values + reach] = run
        theta = 2 * np.pi * np.arange(angle_count) / angle_count
        want = run @ np.exp(1j * np.outer(n_values, theta))
        got = equispaced_pattern(coefficients, angle_count)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def padded_fold_pattern(coefficients, angle_count):
    """`equispaced_pattern` as it was first written: pad to whole turns, sum
    the turns, roll by the first harmonic's residue and scale the inverse FFT."""
    k = coefficients.shape[-1]
    n_first = -(k // 2)
    turns = -(-k // angle_count)
    padded = np.zeros(coefficients.shape[:-1] + (turns * angle_count,), dtype=complex)
    padded[..., :k] = coefficients
    folded = padded.reshape(coefficients.shape[:-1] + (turns, angle_count)).sum(axis=-2)
    folded = np.roll(folded, n_first % angle_count, axis=-1)
    return angle_count * np.fft.ifft(folded, axis=-1)


class TestEquispacedPatternBits:
    """The fold places each coefficient at its turn and residue slot and
    transforms in its own buffer; every slot sums the same harmonics in the
    same order as the padded fold, so the pattern is the same bits."""

    @pytest.mark.parametrize("angle_count", [1, 2, 3, 36, 360, 1440])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 36, 37, 43, 72, 150, 301])
    def test_matches_the_padded_fold(self, angle_count, k):
        rng = np.random.default_rng(1000 * angle_count + k)
        coefficients = rng.normal(size=(4, k)) + 1j * rng.normal(size=(4, k))
        coefficients *= 10.0 ** rng.uniform(-12, 3, size=(4, k))
        # signed zeros in either part, and whole zero coefficients of each sign
        for sign in (1.0, -1.0):
            coefficients.real[rng.random((4, k)) < 0.15] = sign * 0.0
            coefficients.imag[rng.random((4, k)) < 0.15] = sign * 0.0
        got = equispaced_pattern(coefficients, angle_count)
        want = padded_fold_pattern(coefficients, angle_count)
        assert got.shape == want.shape == (4, angle_count)
        assert got.tobytes() == want.tobytes()

    def test_a_stack_of_grids(self):
        rng = np.random.default_rng(5)
        coefficients = rng.normal(size=(3, 2, 43)) + 1j * rng.normal(size=(3, 2, 43))
        got = equispaced_pattern(coefficients, 360)
        assert got.tobytes() == padded_fold_pattern(coefficients, 360).tobytes()

    @pytest.mark.parametrize("angle_count", [8, 360])
    def test_a_stack_of_no_rows(self, angle_count):
        # a Monte Carlo block whose every trial the rank gate refuses
        got = equispaced_pattern(np.zeros((0, 43), dtype=complex), angle_count)
        assert got.shape == (0, angle_count) and got.dtype == complex


class TestLargeAperture:
    """A 0.5 m aperture at 8 kHz reaches x = omega r / c ~ 73, far past the
    desk apertures (x < 2 at 2 cm and 4 kHz) and high in the Bessel table's
    domain x <= `TABLE_ARGUMENT_CAP`."""

    @pytest.fixture(scope="class")
    def design(self):
        from diffbeam import PhysicalConstants, sample_random_geometry

        constants = PhysicalConstants()
        geometry = sample_random_geometry(9, 0.5, 0.05, seed=7)
        target = steered_hypercardioid(2)
        filt = design_filter(
            geometry, constants, target, FrequencyGrid(2000.0, 8000.0, 4)
        )
        return geometry, constants, filt

    def test_reaches_high_in_the_table_domain(self, design):
        from diffbeam.bessel import TABLE_ARGUMENT_CAP

        geometry, constants, filt = design
        radius = geometry.element_values[0].max()
        x_max = filt.grid.omegas.max() * radius / constants.speed_of_sound
        assert 70.0 < x_max <= TABLE_ARGUMENT_CAP

    def test_bessel_table_against_mpmath(self, design):
        import mpmath

        from diffbeam.bessel import bessel_order_table

        geometry, constants, filt = design
        x = filt.grid.omegas[-1] * geometry.element_values[0] / constants.speed_of_sound
        # every order the DF sum at x ~ 73 keeps, and a margin past it
        table = bessel_order_table(140, x)
        worst = max(
            abs(table[n, m] - float(mpmath.besselj(n, mpmath.mpf(float(x[m])))))
            for n in range(0, 141, 3)
            for m in range(geometry.size)
        )
        assert worst < 1e-14

    def test_parseval_gains_match_quadrature(self, design):
        geometry, constants, filt = design
        wng, df = coefficient_gains(
            filter_coefficients(filt, geometry, constants), filt.weights, filt.theta_s
        )
        for i, omega in enumerate(filt.grid.omegas):
            assert df[i] == pytest.approx(
                directivity_factor(filt, geometry, constants, omega, filt.theta_s, 8192),
                rel=1e-12,
            )
            assert wng[i] == pytest.approx(
                white_noise_gain(filt, geometry, constants, omega, filt.theta_s),
                rel=1e-12,
            )


class TestDbHelpers:
    def test_magnitude_floor(self):
        values = magnitude_db([1.0, 1e-9], floor_db=-50.0)
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(-50.0)

    @pytest.mark.parametrize(
        "values, floor_db, expected",
        [
            pytest.param([1, 10, 100], None, [0.0, 20.0, 40.0], id="integer-list"),
            pytest.param([0.1, -1e-9], -50.0, [-20.0, -50.0], id="float-list"),
            pytest.param(10.0, None, 20.0, id="python-scalar"),
            pytest.param(1e-9, -50.0, -50.0, id="python-scalar-floored"),
            pytest.param(np.array(0.1), None, -20.0, id="zero-d-array"),
            pytest.param(np.array(0.0), -50.0, -50.0, id="zero-d-array-floored"),
            pytest.param(np.array([3 + 4j, 0j]), -120.0, [20 * math.log10(5.0), -120.0],
                         id="complex-array"),
        ],
    )
    def test_magnitude_accepts_any_array_like(self, values, floor_db, expected):
        got = magnitude_db(values, floor_db=floor_db)
        assert type(got) is (np.ndarray if np.ndim(expected) else np.float64)
        assert np.shape(got) == np.shape(expected)
        assert np.asarray(got).dtype == float
        assert np.allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_magnitude_matches_the_out_of_place_steps(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(5, 360)) + 1j * rng.normal(size=(5, 360))
        values[0, :40] = 0.0
        values[1, :40] *= 1e-4
        with np.errstate(divide="ignore"):
            for floor_db in (None, -50.0, -120.0):
                mags = np.abs(values)
                if floor_db is not None:
                    mags = np.maximum(mags, 10.0 ** (floor_db / 20.0))
                want = 20.0 * np.log10(mags)
                assert magnitude_db(values, floor_db).tobytes() == want.tobytes()

    def test_magnitude_leaves_its_input_alone(self):
        values = np.array([-0.5, 2.0, 1e-9])
        magnitude_db(values, floor_db=-50.0)
        assert values.tolist() == [-0.5, 2.0, 1e-9]

    def test_magnitude_of_zero_is_minus_infinity_without_a_floor(self):
        assert magnitude_db([0.0, 1.0])[0] == -np.inf

    @pytest.mark.parametrize(
        "floor_db", [-120.0, 0.0, 6165.09, math.nextafter(6165.094311198335, 0.0), -1e308]
    )
    def test_floor_whose_amplitude_a_double_holds_accepted(self, floor_db):
        assert check_floor_db(floor_db, "db_floor") == floor_db
        assert magnitude_db(1.0, floor_db=floor_db) >= min(floor_db, 0.0)

    @pytest.mark.parametrize(
        "floor_db", [6165.094311198335, 7000.0, 1e308, math.nan, math.inf, -math.inf]
    )
    def test_floor_past_a_double_refused(self, floor_db):
        # 20 log10 of the largest double is 6165.094311198335, whose amplitude overflows
        with pytest.raises(ValueError, match="^floor must be finite and at most about 6165.09 dB"):
            check_floor_db(floor_db, "floor")

    def test_power_db(self):
        assert power_db(100.0) == pytest.approx(20.0)


class TestAngleCount:
    @pytest.mark.parametrize("step_deg, count", [(1.0, 360), (45.0, 8), (360.0 / 2**56, 2**56)])
    def test_steps_that_close_the_circle(self, step_deg, count):
        assert angle_count(step_deg) == count

    @pytest.mark.parametrize("step_deg", [1e-16, 1e-300, 5e-324])
    def test_more_angles_than_an_array_holds_refused(self, step_deg):
        # (2**63 - 1) // 16 complex values is the most a NumPy array can address
        with pytest.raises(ValueError, match="an array of complex values can hold"):
            angle_count(step_deg)
