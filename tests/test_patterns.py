import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffbeam import (
    DegeneratePatternError,
    PatternCoefficients,
    SteeredTarget,
    SymmetricB,
    a_to_b,
    apply_steering,
    cardioid_family_coefficients,
    evaluate_target,
    hypercardioid_coefficients,
    normalize_distortionless,
    resolve_pattern,
)


def target_directivity_oracle(target: SteeredTarget, points: int = 8192) -> float:
    """Directivity of the target pattern by direct angular integration."""
    theta = -np.pi + 2 * np.pi * np.arange(points) / points
    values = evaluate_target(target, theta)
    peak = evaluate_target(target, target.theta_s) ** 2
    return peak / float(np.mean(values**2))


def steered(a, theta_s=0.0) -> SteeredTarget:
    return SteeredTarget(coefficients=a_to_b(PatternCoefficients(a=tuple(a))), theta_s=theta_s)


class TestCoefficientConversion:
    @pytest.mark.parametrize(
        "a,b",
        [
            ((1.0,), (1.0,)),
            ((0.5, 0.5), (0.25, 0.5, 0.25)),
            ((0.0, 1.0), (0.5, 0.0, 0.5)),
        ],
    )
    def test_a_to_b_examples(self, a, b):
        assert a_to_b(PatternCoefficients(a=a)).b == b

    @given(
        a=st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_identity(self, a):
        coeffs = PatternCoefficients(a=tuple(a))
        b, order = a_to_b(coeffs).as_array(), coeffs.order
        # a_0 = b_0 and a_i = 2 b_i
        back = np.concatenate([b[order : order + 1], 2.0 * b[order + 1 :]])
        assert np.allclose(back, coeffs.a, rtol=0, atol=1e-15)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            SymmetricB(b=(0.25, 0.5, 0.3))


class TestEvaluation:
    def test_distortionless_at_steering(self):
        target = steered([0.4, 0.6], theta_s=1.1)
        assert evaluate_target(target, 1.1) == pytest.approx(1.0, abs=1e-14)

    def test_dipole_side_null(self):
        target = steered([0.0, 1.0], theta_s=0.3)
        assert evaluate_target(target, 0.3 + math.pi / 2) == pytest.approx(0.0, abs=1e-14)

    def test_cardioid_rear_null(self):
        target = steered([0.5, 0.5], theta_s=2.0)
        assert evaluate_target(target, 2.0 + math.pi) == pytest.approx(0.0, abs=1e-14)

    @given(
        theta=st.floats(min_value=-7.0, max_value=7.0),
        theta_s=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_steering_covariance(self, theta, theta_s):
        a = [1 / 7, 2 / 7, 2 / 7, 2 / 7]
        rotated = steered(a, theta_s=theta_s)
        centered = steered(a, theta_s=0.0)
        assert evaluate_target(rotated, theta) == pytest.approx(
            evaluate_target(centered, theta - theta_s), abs=1e-12
        )

    def test_imaginary_residue_is_tiny(self):
        target = steered([0.2, 0.3, 0.5], theta_s=0.7)
        harmonics = np.arange(-target.order, target.order + 1)
        theta = np.linspace(0, 2 * np.pi, 720)
        phases = np.exp(1j * np.multiply.outer(theta - target.theta_s, harmonics))
        values = phases @ target.coefficients.as_array()
        assert np.max(np.abs(values.imag)) < 1e-12


class TestNormalization:
    def test_examples(self):
        assert normalize_distortionless([1.0, 1.0]).a == (0.5, 0.5)
        assert normalize_distortionless([2.0]).a == (1.0,)

    def test_zero_sum_rejected(self):
        with pytest.raises(DegeneratePatternError):
            normalize_distortionless([1.0, -1.0])


class TestHypercardioid:
    def test_order_zero(self):
        assert hypercardioid_coefficients(0).a == (1.0,)

    def test_order_one(self):
        a = hypercardioid_coefficients(1).a
        assert a == pytest.approx((1 / 3, 2 / 3), abs=1e-15)

    def test_equal_two_sided_coefficients(self):
        b = a_to_b(hypercardioid_coefficients(3)).b
        assert b == pytest.approx(tuple([1 / 7] * 7), abs=1e-15)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_directivity_is_2n_plus_1(self, order):
        target = SteeredTarget(
            coefficients=a_to_b(hypercardioid_coefficients(order)), theta_s=0.0
        )
        assert target_directivity_oracle(target) == pytest.approx(
            2 * order + 1, abs=1e-9
        )

    def test_order_one_maximizes_directivity_grid_search(self):
        # scan the normalized a-space [1-t, t]; the optimum must sit at
        # t = 2/3 with directivity 3
        best_value, best_t = -np.inf, None
        for t in np.linspace(-1.0, 2.0, 601):
            target = steered([1.0 - t, t])
            value = target_directivity_oracle(target, points=2048)
            if value > best_value:
                best_value, best_t = value, t
        assert best_value <= 3.0 + 1e-9
        assert best_t == pytest.approx(2 / 3, abs=0.01)
        assert best_value == pytest.approx(3.0, abs=1e-3)

    def test_dipole_directivity(self):
        assert target_directivity_oracle(steered([0.0, 1.0])) == pytest.approx(
            2.0, abs=1e-9
        )


class TestSteeringRotation:
    def test_zero_angle_is_identity(self):
        b = a_to_b(PatternCoefficients(a=(0.5, 0.5)))
        assert np.array_equal(apply_steering(b, 0.0), np.array(b.b, dtype=complex))

    def test_order_one_at_pi(self):
        b = a_to_b(PatternCoefficients(a=(0.5, 0.5)))
        rotated = apply_steering(b, math.pi)
        assert rotated == pytest.approx(np.array([-0.25, 0.5, -0.25]), abs=1e-15)

    @given(theta_s=st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_magnitudes_preserved(self, theta_s):
        b = a_to_b(PatternCoefficients(a=(0.2, 0.3, 0.5)))
        rotated = apply_steering(b, theta_s)
        assert np.allclose(np.abs(rotated), np.abs(b.b), atol=1e-15)


class TestFamilies:
    def test_cardioid_order_one(self):
        assert cardioid_family_coefficients(1).a == (0.5, 0.5)

    def test_resolver(self):
        coeffs, pattern_id = resolve_pattern("hypercardioid", 2)
        assert pattern_id == "hypercardioid-n2"
        assert coeffs.order == 2
        custom, custom_id = resolve_pattern("custom", 1, custom_a=[2.0, 2.0])
        assert custom.a == (0.5, 0.5)
        assert custom_id == "custom-n1"

    def test_resolver_errors(self):
        with pytest.raises(ValueError):
            resolve_pattern("supercardioid", 2)
        with pytest.raises(ValueError):
            resolve_pattern("custom", 2)
        with pytest.raises(ValueError):
            resolve_pattern("custom", 2, custom_a=[1.0, 1.0])
