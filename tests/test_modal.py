import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffbeam import (
    PhysicalConstants,
    build_modal_system,
    build_xi_matrix,
    harmonic_tensor,
    sample_random_geometry,
)
from diffbeam.bessel import bessel_order_table
from diffbeam.geometry import ArrayElement, ArrayGeometry
from diffbeam.modal import element_harmonics
from diffbeam.oracles import (
    bessel_j,
    build_psi_matrix,
    harmonic_coefficient,
    harmonic_coefficient_quadrature,
    unit_imaginary_power,
)
from tests.conftest import steered_hypercardioid


def with_zero_shape(geometry: ArrayGeometry) -> ArrayGeometry:
    """Same layout, all elements forced omnidirectional."""
    return ArrayGeometry(
        elements=tuple(
            ArrayElement(r=e.r, phi=e.phi, q=0.0, theta_steer=e.theta_steer)
            for e in geometry.elements
        ),
        aperture_radius=geometry.aperture_radius,
        min_spacing=geometry.min_spacing,
    )


class TestImaginaryPowers:
    def test_four_cycle(self):
        assert [unit_imaginary_power(n) for n in range(4)] == [1, 1j, -1, -1j]
        assert unit_imaginary_power(-1) == -1j
        assert unit_imaginary_power(-2) == -1
        assert unit_imaginary_power(7) == unit_imaginary_power(3)


class TestHarmonicCoefficient:
    def test_omni_reduces_to_jacobi_anger_term(self):
        for n in (-3, 0, 2):
            value = harmonic_coefficient(n, 1.2, 0.0, theta_steer=0.8, phi=0.8)
            expected = unit_imaginary_power(n) * bessel_j(n, 1.2)
            assert value == pytest.approx(expected, abs=1e-15)

    def test_zeroth_coefficient_at_zero_aperture(self):
        for q in (0.0, 0.3, 1.0):
            value = harmonic_coefficient(0, 0.0, q, theta_steer=1.0, phi=2.0)
            assert value == pytest.approx(1.0 - q, abs=1e-15)

    def test_first_coefficient_at_zero_aperture(self):
        value = harmonic_coefficient(1, 0.0, 0.8, theta_steer=1.5, phi=1.5)
        assert value == pytest.approx(0.4, abs=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            harmonic_coefficient(0, -1.0, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            harmonic_coefficient(0, 1.0, 1.5, 0.0, 0.0)

    @given(
        n=st.integers(min_value=-6, max_value=6),
        x=st.floats(min_value=0.0, max_value=3.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        theta_steer=st.floats(min_value=0.0, max_value=2 * math.pi),
        phi=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_quadrature(self, n, x, q, theta_steer, phi):
        closed = harmonic_coefficient(n, x, q, theta_steer, phi)
        integral = harmonic_coefficient_quadrature(n, x, q, theta_steer, phi, 4096)
        assert abs(closed - integral) < 1e-9


class TestQuadrature:
    def test_omni_dc(self):
        assert harmonic_coefficient_quadrature(0, 0.0, 0.0, 0.0, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_pure_dipole_mean_vanishes(self):
        value = harmonic_coefficient_quadrature(0, 0.0, 1.0, 0.7, 0.7)
        assert abs(value) < 1e-12

    def test_point_minimum(self):
        with pytest.raises(ValueError):
            harmonic_coefficient_quadrature(0, 1.0, 0.5, 0.0, 0.0, points=512)


class TestTruncatedReconstruction:
    def test_pointwise_convergence(self):
        # truncated expansion must reproduce the element response times
        # propagation phase for aperture-scale arguments
        x, q, theta_m, phi_m = 1.5, 0.65, 1.1, 0.4
        order = 12
        theta = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
        exact = ((1 - q) + q * np.cos(theta - theta_m)) * np.exp(
            1j * x * np.cos(theta - phi_m)
        )
        series = np.zeros_like(exact)
        for n in range(-order, order + 1):
            series += harmonic_coefficient(n, x, q, theta_m, phi_m) * np.exp(
                1j * n * (theta - theta_m)
            )
        assert np.max(np.abs(series - exact)) < 1e-8


class TestMatrices:
    def test_psi_rows_at_zero_frequency(self, constants):
        geom = sample_random_geometry(5, 0.02, 0.008, seed=21)
        psi = build_psi_matrix(geom, constants, 0.0, 2)
        assert np.allclose(psi[2], 1.0)
        for row in (0, 1, 3, 4):
            assert np.allclose(psi[row], 0.0)

    def test_single_element_at_origin(self, constants):
        geom = ArrayGeometry(
            elements=(ArrayElement(r=0.0, phi=0.0, q=0.0, theta_steer=0.0),),
            aperture_radius=0.02,
            min_spacing=0.008,
        )
        psi = build_psi_matrix(geom, constants, 2 * np.pi * 1000.0, 3)
        expected = np.zeros(7)
        expected[3] = 1.0
        assert np.allclose(psi[:, 0], expected, atol=1e-15)

    def test_xi_entry_formula(self, constants):
        geom = sample_random_geometry(4, 0.02, 0.008, seed=33)
        omega = 2 * np.pi * 1700.0
        order = 2
        xi = build_xi_matrix(geom, constants, omega, order)
        for i, n in enumerate(range(-order, order + 1)):
            for m, e in enumerate(geom.elements):
                x = omega * e.r / constants.speed_of_sound
                expected = harmonic_coefficient(
                    n, x, e.q, e.theta_steer, e.phi
                ) * cmath.exp(-1j * n * e.theta_steer)
                assert xi[i, m] == pytest.approx(expected, abs=1e-14)

    def test_xi_reduces_to_psi_for_omni_elements(self, constants):
        for seed in range(8):
            geom = with_zero_shape(sample_random_geometry(7, 0.02, 0.008, seed=seed))
            for f_hz in (200.0, 1000.0, 3800.0):
                omega = 2 * np.pi * f_hz
                xi = build_xi_matrix(geom, constants, omega, 3)
                psi = build_psi_matrix(geom, constants, omega, 3)
                assert np.max(np.abs(xi - psi)) < 1e-12


class TestModalSystem:
    def test_rhs_is_frequency_invariant(self, constants):
        geom = sample_random_geometry(9, 0.02, 0.008, seed=5)
        target = steered_hypercardioid(2)
        low = build_modal_system(geom, constants, 2 * np.pi * 100.0, target)
        high = build_modal_system(geom, constants, 2 * np.pi * 4000.0, target)
        assert np.array_equal(low.rhs, high.rhs)
        assert low.matrix.shape == (5, 9)

    def test_unknown_element_model(self, constants):
        geom = sample_random_geometry(5, 0.02, 0.008, seed=5)
        with pytest.raises(ValueError):
            build_modal_system(geom, constants, 1000.0, steered_hypercardioid(1), "cardioid")


MIN_SPACING = 0.008


@st.composite
def tensor_cases(draw):
    """A geometry with the edge cases mixed in, a few frequencies, and a
    set of harmonic orders."""
    shape = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    angle = st.floats(0.0, 2 * math.pi, exclude_max=True)
    elements = [
        ArrayElement(r=draw(st.floats(0.0, 0.05)), phi=draw(angle), q=draw(shape),
                     theta_steer=draw(angle))
        for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        elements.append(ArrayElement(r=0.0, phi=draw(angle), q=draw(shape),
                                     theta_steer=draw(angle)))
    if draw(st.booleans()):
        # a pair exactly min_spacing apart along one radius
        r, phi = draw(st.floats(0.0, 0.04)), draw(angle)
        for radius in (r, r + MIN_SPACING):
            elements.append(ArrayElement(r=radius, phi=phi, q=draw(shape),
                                         theta_steer=draw(angle)))
    geometry = ArrayGeometry(
        elements=tuple(draw(st.permutations(elements))),
        aperture_radius=0.1,
        min_spacing=MIN_SPACING,
    )
    # x = omega r / c stays within the scalar kernel's validated x <= 50
    omegas = draw(st.lists(st.floats(0.0, 2 * math.pi * 50e3), min_size=1, max_size=3))
    orders = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=6))
    return geometry, omegas, orders


class TestHarmonicTensor:
    @given(case=tensor_cases(), model=st.sampled_from(["first_order", "omni"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_coefficients(self, case, model):
        geometry, omegas, orders = case
        constants = PhysicalConstants()
        tensor = harmonic_tensor(geometry, constants, omegas, orders, model)
        assert tensor.shape == (len(omegas), len(orders), geometry.size)
        for f, omega in enumerate(omegas):
            for i, n in enumerate(orders):
                for m, e in enumerate(geometry.elements):
                    x = omega * e.r / constants.speed_of_sound
                    q = e.q if model == "first_order" else 0.0
                    expected = harmonic_coefficient(
                        n, x, q, e.theta_steer, e.phi
                    ) * cmath.exp(-1j * n * e.theta_steer)
                    assert abs(tensor[f, i, m] - expected) < 1e-12

    def test_top_of_the_table_domain(self):
        # x up to 99.5 at reach 255, so the table runs at its 256-order cap;
        # elements at the origin and at q = 0 and 1; orders picked from both
        # ends and the middle of the built -255 .. 255
        c = 343.0
        values = np.array([
            [0.0, 0.2, 0.2, 0.2, 0.137, 0.2],
            [1.3, 0.0, 2.1, 4.4, 5.9, 3.0],
            [1.0, 0.0, 1.0, 0.37, 0.81, 0.0],
            [0.4, 2.2, 5.3, 1.7, 0.0, 6.1],
        ])
        omegas = [99.5 * c / 0.2, 2.0 * np.pi * 1000.0]
        orders = [255, -3, 0, 97, -255, 0, 101, -100, 3, 99, 1, -1, 200]
        tensor = element_harmonics(values, omegas, 255, c)
        assert tensor.shape == (2, 511, 6)
        for f, omega in enumerate(omegas):
            for n in orders:
                for m, (r, phi, q, steer) in enumerate(values.T):
                    expected = harmonic_coefficient(
                        n, omega * r / c, q, steer, phi
                    ) * cmath.exp(-1j * n * steer)
                    assert abs(tensor[f, n + 255, m] - expected) < 1e-12, (f, n, m)

    def test_xi_matrix_is_the_one_frequency_slice(self, constants):
        geom = sample_random_geometry(9, 0.02, 0.008, seed=12)
        omegas = 2 * np.pi * np.array([100.0, 1700.0, 4000.0])
        tensor = harmonic_tensor(geom, constants, omegas, np.arange(-3, 4))
        for f, omega in enumerate(omegas):
            assert np.array_equal(tensor[f], build_xi_matrix(geom, constants, omega, 3))

    def test_rejects_bad_input(self, constants):
        geom = sample_random_geometry(3, 0.02, 0.008, seed=1)
        with pytest.raises(ValueError, match="element model"):
            harmonic_tensor(geom, constants, [1000.0], [0], "cardioid")
        with pytest.raises(ValueError, match="argument"):
            harmonic_tensor(geom, constants, [-1.0], [0])
        with pytest.raises(ValueError, match="argument"):
            harmonic_tensor(geom, constants, [2 * np.pi * 1e6], [0])


def exp_per_order_harmonics(values, omegas, reach, speed_of_sound):
    """`element_harmonics` with the phase ``j^|k| e^{-jk phi}`` taken by one
    complex exponential per order k = -reach .. reach: the reference the +-k
    pairing must match bit for bit."""
    r, phi, q, steer = (np.asarray(v)[..., None] for v in values)
    x = r * np.atleast_1d(omegas) / speed_of_sound
    table = bessel_order_table(reach + 1, x)
    s = np.empty_like(table[:-1])
    d = np.empty_like(s)
    np.add(table[2:], table[:-2], out=s[1:])
    np.subtract(table[2:], table[:-2], out=d[1:])
    s[0] = 0.0
    d[0] = 2.0 * table[1]
    alpha = steer - phi
    s *= 0.5 * q * np.sin(alpha)
    d *= 0.5 * q * np.cos(alpha)
    omni = (1.0 - q) * table[:-1]
    xi = np.empty((2 * reach + 1,) + x.shape, dtype=complex)
    up, down = xi[reach:], xi[reach::-1]
    np.subtract(omni, s, out=up.real)
    np.add(omni[1:], s[1:], out=down[1:].real)
    up.imag = d
    down[1:].imag = d[1:]
    k = np.arange(-reach, reach + 1)
    along = (slice(None),) + (None,) * phi.ndim
    powers = np.array([1 + 0j, 1j, -1 + 0j, -1j])
    xi *= powers[np.abs(k) % 4][along] * np.exp(-1j * k[along] * phi)
    return np.moveaxis(xi, (0, -1), (-2, -3))


class TestPairedPhase:
    """One exponential serves each pair +-k; the tensor keeps every bit of
    the form that takes one per order, signed zeros included."""

    @pytest.mark.parametrize("count", [1, 80])
    def test_bit_equal_to_one_exponential_per_order(self, count):
        rng = np.random.default_rng(count)
        omegas = 2.0 * np.pi * np.linspace(50.0, 4000.0, count)
        for reach in range(1, 26):
            trials, elements = int(rng.integers(1, 4)), int(rng.integers(1, 14))
            shape = (trials, elements)
            values = np.stack([
                rng.uniform(0.0, 0.05, shape),
                rng.uniform(-np.pi, np.pi, shape),
                rng.choice([0.0, 0.3, 0.5, 1.0], shape),
                rng.uniform(-np.pi, np.pi, shape),
            ])
            # an element at the origin, and phi of either sign of zero
            values[:2, 0, 0] = 0.0
            values[1, -1, -1] = -0.0
            got = element_harmonics(values, omegas, reach, 343.0)
            want = exp_per_order_harmonics(values, omegas, reach, 343.0)
            assert got.shape == want.shape
            assert np.array_equal(got, want), reach
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), reach

    def test_conjugate_pairs_bit_equal(self):
        # e^{+jk phi} is the conjugate of e^{-jk phi} bit for bit under the C
        # library's cexp, except for the sign of a zero imaginary part
        phi = np.concatenate([
            np.random.default_rng(2).uniform(-np.pi, np.pi, 20000), [np.pi, -np.pi, 1e-300],
        ])
        for k in range(1, 40):
            minus, plus = np.exp(-1j * k * phi), np.exp(1j * k * phi)
            assert minus.conj().tobytes() == plus.tobytes(), k
