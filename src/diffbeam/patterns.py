"""Symmetric frequency-invariant target beampatterns.

A target of order N is the cosine series ``sum_n a_n cos(n(theta - theta_s))``
or, equivalently, the symmetric two-sided harmonic form
``sum_{n=-N..N} b_n exp(jn(theta - theta_s))`` with ``b_0 = a_0`` and
``b_{+-i} = a_i / 2``. Two-sided vectors are stored with harmonic n at
position ``n + N``, the convention `diffbeam.modal` states for the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePatternError


@dataclass(frozen=True)
class PatternCoefficients:
    """One-sided cosine-series coefficients a_0 .. a_N."""

    a: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        if len(self.a) < 1:
            raise ValueError("need at least the constant coefficient a_0")
        if not all(math.isfinite(v) for v in self.a):
            raise ValueError("coefficients must be finite")

    @property
    def order(self) -> int:
        return len(self.a) - 1


@dataclass(frozen=True)
class SymmetricB:
    """Two-sided harmonic coefficients b_{-N} .. b_N with b_i = b_{-i}."""

    b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))
        if len(self.b) % 2 != 1:
            raise ValueError("two-sided coefficient vector must have odd length")
        if not all(math.isfinite(v) for v in self.b):
            raise ValueError("coefficients must be finite")
        for i in range(len(self.b) // 2):
            if self.b[i] != self.b[-1 - i]:
                raise ValueError(f"coefficients must be symmetric, mismatch at +-{self.order - i}")

    @property
    def order(self) -> int:
        return len(self.b) // 2

    def as_array(self) -> np.ndarray:
        return np.array(self.b)


@dataclass(frozen=True)
class SteeredTarget:
    """A symmetric pattern together with its steering direction."""

    coefficients: SymmetricB
    theta_s: float

    def __post_init__(self):
        if not math.isfinite(self.theta_s):
            raise ValueError("steering angle must be finite")

    @property
    def order(self) -> int:
        return self.coefficients.order


def a_to_b(coefficients: PatternCoefficients) -> SymmetricB:
    """Fold the one-sided cosine series into the two-sided harmonic form."""
    a = coefficients.a
    order = coefficients.order
    b = [0.0] * (2 * order + 1)
    b[order] = a[0]
    for i in range(1, order + 1):
        b[order + i] = b[order - i] = a[i] / 2.0
    return SymmetricB(b=tuple(b))


def evaluate_target(target: SteeredTarget, theta):
    """Target response at angle(s) ``theta``.

    Computed through the complex-exponential form; the imaginary residue
    (bounded by a few ulps thanks to the coefficient symmetry) is
    discarded.
    """
    order = target.order
    harmonics = np.arange(-order, order + 1)
    th = np.asarray(theta, dtype=float)
    phases = np.exp(1j * np.multiply.outer(th - target.theta_s, harmonics))
    values = phases @ target.coefficients.as_array()
    real = np.real(values)
    return float(real) if th.ndim == 0 else real


def normalize_distortionless(raw) -> PatternCoefficients:
    """Scale coefficients so the pattern equals one at its steering angle.

    Raises
    ------
    DegeneratePatternError
        When the coefficients sum to zero, i.e. the pattern has a null in
        the direction it is meant to pass undistorted, or their sum is not
        finite (an overflow, an infinite or a NaN coefficient).
    """
    a = np.asarray(raw, dtype=float)
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        total = float(a.sum())
    if not math.isfinite(total):
        raise DegeneratePatternError(
            f"coefficient sum is {total!r}, not a finite number: the pattern cannot be normalized"
        )
    if total == 0.0:
        raise DegeneratePatternError(
            "coefficient sum is zero: pattern nulls its own steering direction"
        )
    return PatternCoefficients(a=tuple(a / total))


def hypercardioid_coefficients(order: int) -> PatternCoefficients:
    """Order-N pattern maximizing the directivity factor.

    Under the distortionless constraint the two-sided coefficients come
    out equal, ``b_n = 1 / (2N + 1)``, giving a directivity factor of
    ``2N + 1``.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be >= 0")
    denom = 2 * order + 1
    a = [1.0 / denom] + [2.0 / denom] * order
    return PatternCoefficients(a=tuple(a))


def cardioid_family_coefficients(order: int) -> PatternCoefficients:
    """Order-N pattern with equal cosine weights a_n, normalized.

    At N = 1 this is the classic cardioid with its rear null.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be >= 0")
    return normalize_distortionless([1.0] * (order + 1))


def apply_steering(coefficients: SymmetricB, theta_s: float) -> np.ndarray:
    """Steered right-hand side: harmonic n carries ``b_n * exp(-jn*theta_s)``."""
    order = coefficients.order
    harmonics = np.arange(-order, order + 1)
    return coefficients.as_array() * np.exp(-1j * harmonics * float(theta_s))


PATTERN_FAMILIES = ("hypercardioid", "cardioid", "custom")


def resolve_pattern(family: str, order: int, custom_a=None) -> tuple[PatternCoefficients, str]:
    """Map a pattern family name to normalized coefficients and an id.

    ``custom`` takes a raw coefficient vector (any scale) and normalizes
    it; the built-in families ignore ``custom_a``.
    """
    if family == "hypercardioid":
        return hypercardioid_coefficients(order), f"hypercardioid-n{order}"
    if family == "cardioid":
        return cardioid_family_coefficients(order), f"cardioid-n{order}"
    if family == "custom":
        if custom_a is None:
            raise ValueError("custom pattern needs a coefficient vector")
        coeffs = normalize_distortionless(custom_a)
        if coeffs.order != order:
            raise ValueError(
                f"custom coefficients imply order {coeffs.order}, config says {order}"
            )
        return coeffs, f"custom-n{order}"
    raise ValueError(f"unknown pattern family {family!r}; known: {PATTERN_FAMILIES}")
