import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffbeam import (
    PhysicalConstants,
    bessel_j,
    build_modal_system,
    build_psi_matrix,
    build_xi_matrix,
    harmonic_coefficient,
    harmonic_coefficient_quadrature,
    harmonic_tensor,
    sample_random_geometry,
)
from diffbeam.geometry import ArrayElement, ArrayGeometry
from diffbeam.modal import unit_imaginary_power
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
