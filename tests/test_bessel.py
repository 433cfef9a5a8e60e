"""Bessel kernel tests.

Frozen reference values come from the exact-rational ascending series
(computed with `fractions.Fraction`, 30+ terms); the integral oracle
`hansen_bessel_quadrature` provides the independent second route.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffbeam.bessel import TABLE_ARGUMENT_CAP, TABLE_ORDER_CAP, bessel_order_table
from diffbeam.oracles import (
    ORDER_CAP,
    bessel_j,
    bessel_j_prime,
    hansen_bessel_quadrature,
    harmonic_coefficient,
)


def series_oracle(n: int, x_num: int, x_den: int, terms: int = 40) -> float:
    """Ascending power series in exact rational arithmetic."""
    half = Fraction(x_num, x_den) / 2
    term = half**n / math.factorial(n)
    total = Fraction(0)
    half_sq = half * half
    for k in range(terms):
        if k > 0:
            term *= -half_sq / (k * (n + k))
        total += term
    return float(total)


# frozen from series_oracle(0, 1, 1, 30) and series_oracle(1, 1, 1, 40)
J0_AT_1 = 0.7651976865579666
J1_AT_1 = 0.4400505857449335


class TestFrozenValues:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_j3_at_zero(self):
        assert bessel_j(3, 0.0) == 0.0

    def test_j0_at_one(self):
        assert abs(bessel_j(0, 1.0) - J0_AT_1) < 1e-12
        assert abs(bessel_j(0, 1.0) - series_oracle(0, 1, 1, 30)) < 1e-15

    def test_negative_order_symmetry_example(self):
        assert bessel_j(-2, 1.3) == bessel_j(2, 1.3)

    def test_prime_at_zero(self):
        assert bessel_j_prime(1, 0.0) == 0.5
        assert bessel_j_prime(0, 0.0) == 0.0

    def test_prime_at_one(self):
        assert abs(bessel_j_prime(0, 1.0) + J1_AT_1) < 1e-12


class TestQuadratureOracle:
    def test_unit_integrand(self):
        assert abs(hansen_bessel_quadrature(0, 0.0, 1024) - 1.0) < 1e-12

    def test_matches_bessel_j(self):
        assert abs(
            hansen_bessel_quadrature(2, 1.5, 2048) - bessel_j(2, 1.5)
        ) < 1e-10

    def test_negative_order(self):
        assert abs(
            hansen_bessel_quadrature(-1, 0.7, 2048) + bessel_j(1, 0.7)
        ) < 1e-10

    def test_random_grid_agreement(self):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(-20, 21))
            x = float(rng.uniform(0.0, 30.0))
            worst = max(
                worst, abs(bessel_j(n, x) - hansen_bessel_quadrature(n, x, 4096))
            )
        assert worst < 1e-9

    def test_point_minimum_enforced(self):
        with pytest.raises(ValueError):
            hansen_bessel_quadrature(0, 1.0, 255)


class TestValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_bad_argument(self, bad):
        with pytest.raises(ValueError):
            bessel_j(0, bad)
        with pytest.raises(ValueError):
            bessel_j_prime(0, bad)

    def test_argument_past_the_tested_box_refused(self):
        bessel_j(3, TABLE_ARGUMENT_CAP)
        bessel_j_prime(3, TABLE_ARGUMENT_CAP)
        with pytest.raises(ValueError, match="argument must lie in"):
            bessel_j(3, 100.5)
        with pytest.raises(ValueError, match="argument must lie in"):
            bessel_j_prime(3, 100.5)
        with pytest.raises(ValueError, match="argument must lie in"):
            harmonic_coefficient(3, 100.5, 0.5, 0.3, 1.1)

    def test_order_cap(self):
        bessel_j(ORDER_CAP, 1.0)
        bessel_j(-ORDER_CAP, 1.0)
        with pytest.raises(ValueError):
            bessel_j(ORDER_CAP + 1, 1.0)

    def test_prime_at_cap_uses_internal_order(self):
        # J'_64 needs J_65 internally; the public cap applies to the input
        value = bessel_j_prime(ORDER_CAP, 30.0)
        assert math.isfinite(value)


class TestAccuracy:
    def test_against_mpmath_box(self):
        # the contract: absolute error < 1e-12 for |n| <= 64, x <= 100
        worst = 0.0
        for n in (0, 1, 2, 3, 5, 8, 13, 21, 34, 50, 64):
            for x in (0.0, 1e-6, 0.5, 1.0, 3.0, 7.0, 11.9, 12.0, 15.0, 25.0, 37.0, 50.0,
                      63.7, 75.0, 88.3, 99.0, TABLE_ARGUMENT_CAP):
                exact = float(mpmath.besselj(n, mpmath.mpf(x)))
                worst = max(worst, abs(bessel_j(n, x) - exact))
        assert worst < 1e-12


class TestProperties:
    @given(
        n=st.integers(min_value=-20, max_value=20),
        x=st.floats(min_value=0.1, max_value=30.0, exclude_min=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_recurrence(self, n, x):
        lhs = (2.0 * n / x) * bessel_j(n, x)
        rhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        assert abs(lhs - rhs) < 1e-10

    @given(
        n=st.integers(min_value=0, max_value=ORDER_CAP),
        x=st.floats(min_value=0.0, max_value=50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_negative_order_symmetry(self, n, x):
        expected = -bessel_j(n, x) if n % 2 else bessel_j(n, x)
        assert abs(bessel_j(-n, x) - expected) < 1e-14

    @given(
        n=st.integers(min_value=-10, max_value=10),
        x=st.floats(min_value=0.01, max_value=30.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_derivative_matches_finite_difference(self, n, x):
        step = 1e-5
        if x < step:
            return
        centered = (bessel_j(n, x + step) - bessel_j(n, x - step)) / (2 * step)
        assert abs(bessel_j_prime(n, x) - centered) < 1e-8


class TestOrderTable:
    def test_against_mpmath_box(self):
        # the contract: absolute error < 1e-14 for n <= 256, 0 <= x <= 100
        xs = np.array([0.0, 1e-8, 0.02, 0.37, 1.47, 3.99, 12.0, 37.0, 50.0, 73.3, 99.0, 100.0])
        orders = list(range(0, 24)) + list(range(24, TABLE_ORDER_CAP + 1, 11)) + [TABLE_ORDER_CAP]
        table = bessel_order_table(TABLE_ORDER_CAP, xs)
        assert table.shape == (TABLE_ORDER_CAP + 1, xs.size)
        worst = max(
            abs(table[n, i] - float(mpmath.besselj(n, mpmath.mpf(float(x)))))
            for n in orders
            for i, x in enumerate(xs)
        )
        assert worst < 1e-14

    def test_agrees_with_scalar_kernel(self):
        xs = np.array([[0.0, 0.3, 4.0], [11.99, 12.0, 50.0]])
        table = bessel_order_table(ORDER_CAP, xs)
        for n in range(ORDER_CAP + 1):
            for idx in np.ndindex(xs.shape):
                assert abs(table[(n, *idx)] - bessel_j(n, float(xs[idx]))) < 1e-12

    def test_exact_at_zero(self):
        table = bessel_order_table(5, np.zeros(3))
        assert np.array_equal(table[0], np.ones(3))
        assert np.array_equal(table[1:], np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [-1e-12, TABLE_ARGUMENT_CAP * (1 + 1e-15) + 1e-12,
                                     float("nan"), float("inf")])
    def test_argument_outside_domain_refused(self, bad):
        with pytest.raises(ValueError, match="argument must lie in"):
            bessel_order_table(3, np.array([1.0, bad]))

    def test_order_cap(self):
        bessel_order_table(TABLE_ORDER_CAP, 1.0)
        with pytest.raises(ValueError, match="table order"):
            bessel_order_table(TABLE_ORDER_CAP + 1, 1.0)


def cumprod_order_table(n_max: int, x) -> np.ndarray:
    """`bessel_order_table`'s sweep with a fresh array per ratio step, one
    `np.cumprod` along the order axis and `np.concatenate`: the reference the
    buffered sweep must match bit for bit."""
    x = np.asarray(x, dtype=float)
    top = max(n_max, math.ceil(x.max(initial=0.0)))
    steps = top + 12 + int(math.sqrt(40.0 * (top + 1)))
    ratios = np.empty((steps,) + x.shape)
    r = np.zeros(x.shape)
    for k in range(steps, 0, -1):
        r = ratios[k - 1] = x / (2.0 * k - x * r)
    to_j0 = np.cumprod(ratios, axis=0, out=ratios)
    j0 = 1.0 / (1.0 + 2.0 * to_j0[1::2].sum(axis=0))
    return np.concatenate([j0[None], j0 * to_j0[:n_max]])


class TestBufferedSweep:
    @pytest.mark.parametrize("shape", [(), (0,), (7,), (3, 9, 80)])
    def test_bit_equal_to_the_cumprod_sweep(self, shape):
        rng = np.random.default_rng(sum(shape) + 11)
        x = rng.uniform(0.0, TABLE_ARGUMENT_CAP, shape)
        if x.size:
            x.flat[0], x.flat[-1] = 0.0, TABLE_ARGUMENT_CAP
        for n_max in range(41):
            got, want = bessel_order_table(n_max, x), cumprod_order_table(n_max, x)
            assert got.shape == want.shape == (n_max + 1,) + shape
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), n_max

    def test_small_arguments_bit_equal(self):
        # a 2 cm aperture at 1 kHz: every x below 0.37, where the sweep runs
        # its fewest steps
        x = np.random.default_rng(5).uniform(0.0, 0.37, (182, 9, 1))
        for n_max in (1, 17, 40):
            got, want = bessel_order_table(n_max, x), cumprod_order_table(n_max, x)
            assert got.tobytes() == want.tobytes()
