"""Planar arrays of first-order directional elements.

Elements live in the xy-plane at polar positions (r, phi) and carry a
first-order angular response ``(1 - q) + q * cos(theta - theta_steer)``:
``q = 0`` is omnidirectional, ``q = 1`` a dipole aimed at ``theta_steer``.
Angles are radians everywhere inside the package; degrees appear only at
file and CLI boundaries.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._seeding import seed_array, uniform_windows
from .errors import InfeasibleGeometryError

TWO_PI = 2.0 * math.pi

SAMPLING_BUDGET = 10**6
_PLACEMENT_CAP = 2000  # candidate draws per element before a full restart

# each pass of a stacked sample draws the windows of its trials in batches
# of about this many doubles, 1 MiB
SAMPLE_BATCH_DOUBLES = 1 << 17
# squared distances this close to min_spacing**2, relatively, are decided in
# `math`, as the scalar rejection loop decides them: np.cos and math.cos may
# differ in the last ulp
_NEAR_SPACING = 1e-12


def wrap_angle(angle: float) -> float:
    """Wrap a finite angle to [0, 2*pi)."""
    return float(angle) % TWO_PI


def _frozen(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class PhysicalConstants:
    """Propagation constants; only the speed of sound matters here."""

    speed_of_sound: float = 343.0

    def __post_init__(self):
        c = self.speed_of_sound
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"speed of sound must be positive and finite, got {c!r}")


def check_element_field(name: str, value: float) -> float:
    """``value`` if `ArrayElement`'s field ``name`` may hold it, in any unit:
    finite, and ``r`` >= 0 and ``q`` in [0, 1]."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    if name == "r" and value < 0.0:
        raise ValueError(f"radial distance must be >= 0, got {value!r}")
    if name == "q" and not 0.0 <= value <= 1.0:
        raise ValueError(f"shape coefficient must lie in [0, 1], got {value!r}")
    return value


def check_positive(value: float, name: str) -> float:
    """``value`` if it is positive and finite, as `ArrayGeometry`'s lengths must be."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """``value`` if it is non-negative and finite, as a study's spacing must be."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
    return value


@dataclass(frozen=True)
class ArrayElement:
    """One transducer: polar position plus first-order directivity.

    Parameters
    ----------
    r : float
        Radial distance from the origin in meters, >= 0.
    phi : float
        Position angle against the x-axis in radians (wrapped to [0, 2pi)).
    q : float
        First-order shape coefficient in [0, 1].
    theta_steer : float
        Element steering angle in radians (wrapped to [0, 2pi)).
    """

    r: float
    phi: float
    q: float
    theta_steer: float

    def __post_init__(self):
        for name in ("r", "phi", "q", "theta_steer"):
            check_element_field(name, getattr(self, name))
        object.__setattr__(self, "phi", wrap_angle(self.phi))
        object.__setattr__(self, "theta_steer", wrap_angle(self.theta_steer))

    @property
    def position(self) -> tuple[float, float]:
        return (self.r * math.cos(self.phi), self.r * math.sin(self.phi))


@dataclass(frozen=True)
class ArrayGeometry:
    """Ordered collection of elements with the aperture constraints they
    are supposed to satisfy (use `validate_geometry` to check them)."""

    elements: tuple[ArrayElement, ...]
    aperture_radius: float
    min_spacing: float

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) < 1:
            raise ValueError("geometry needs at least one element")
        for name in ("aperture_radius", "min_spacing"):
            check_positive(getattr(self, name), name)

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def element_values(self) -> np.ndarray:
        """Rows r, phi, q and theta_steer, shape (4, M), built once and read-only."""
        return _frozen([
            [e.r for e in self.elements],
            [e.phi for e in self.elements],
            [e.q for e in self.elements],
            [e.theta_steer for e in self.elements],
        ])

    @cached_property
    def positions(self) -> np.ndarray:
        return _frozen([e.position for e in self.elements])


@dataclass(frozen=True)
class GeometryReport:
    """Validation outcome; violations are data, not exceptions."""

    out_of_aperture: tuple[int, ...] = field(default_factory=tuple)
    spacing_violations: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.out_of_aperture and not self.spacing_violations

    def describe(self) -> str:
        if self.ok:
            return "ok"
        lines = []
        for idx in self.out_of_aperture:
            lines.append(f"element {idx} lies outside the aperture")
        for i, j, dist in self.spacing_violations:
            lines.append(f"elements ({i}, {j}) are {dist * 1e3:.3f} mm apart")
        return "; ".join(lines)


def validate_geometry(geometry: ArrayGeometry) -> GeometryReport:
    """Check the aperture and pairwise spacing constraints.

    Returns
    -------
    GeometryReport
        ``ok`` when every element is within ``aperture_radius`` of the
        origin and all pairwise distances are >= ``min_spacing``.
    """
    out = tuple(
        i for i, e in enumerate(geometry.elements) if e.r > geometry.aperture_radius
    )
    pos = geometry.positions
    too_close = []
    for i in range(geometry.size):
        for j in range(i + 1, geometry.size):
            dist = float(np.hypot(*(pos[i] - pos[j])))
            if dist < geometry.min_spacing:
                too_close.append((i, j, dist))
    return GeometryReport(out_of_aperture=out, spacing_violations=tuple(too_close))


def check_count(value, name: str) -> int:
    """``value`` if it is an integer >= 1; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


def sample_random_geometry(
    element_count: int,
    aperture_radius: float,
    min_spacing: float,
    seed: int | None,
) -> ArrayGeometry:
    """Draw a random admissible geometry, deterministically from ``seed``.

    Positions are uniform over the aperture disk; candidates closer than
    ``min_spacing`` to an already placed element are rejected and redrawn
    (with a full restart if an element cannot be placed at all). Shape
    coefficients are Uniform[0, 1] and element steering angles
    Uniform[0, 2pi). This is `sample_element_stack` over the one seed
    ``seed``, any non-negative integer; None draws one from fresh entropy,
    as ``np.random.default_rng(None)`` does.

    Raises
    ------
    ValueError
        If ``element_count`` is not an integer >= 1.
    InfeasibleGeometryError
        If the area heuristic ``M * (min_spacing / 2)^2 > aperture_radius^2``
        rules the request out immediately, or the rejection budget of
        10^6 candidate draws is exhausted.
    """
    seed = np.random.SeedSequence().entropy if seed is None else operator.index(seed)
    values, (reason,) = sample_element_stack(element_count, aperture_radius, min_spacing, [seed])
    if reason is not None:
        raise InfeasibleGeometryError(reason)
    elements = tuple(
        ArrayElement(r=r, phi=phi, q=q, theta_steer=t) for r, phi, q, t in values[:, 0].T.tolist()
    )
    return ArrayGeometry(
        elements=elements, aperture_radius=aperture_radius, min_spacing=min_spacing
    )


def sample_element_stack(
    element_count: int,
    aperture_radius: float,
    min_spacing: float,
    seeds,
) -> tuple[np.ndarray, list[str | None]]:
    """The element values `sample_random_geometry` draws for every seed, as one stack.

    Returns the values, shape (4, T, M), rows r, phi, q and theta_steer,
    and one reason per trial: None for a sampled trial, else the message
    of the `InfeasibleGeometryError` `sample_random_geometry` raises for
    its seed (its values are then NaN). ``seeds`` are as `seed_array` takes them.

    The values are the scalar rejection loop's over each seed's stream
    (``loop_sample`` in ``tests/test_geometry.py``), bit for bit: a
    candidate takes two doubles, and the M shapes and M steering angles
    follow the last placed one. Each pass walks every pending trial's
    window from the first candidate of its attempt, S candidates in the
    2(S + M) doubles that hold them and that tail, drawn in batches of
    about ``SAMPLE_BATCH_DOUBLES``. An attempt starts at S = M^2/2 + 3. A
    trial whose window runs out walks again from the same start at 2S; an
    attempt that dead-ends restarts where `_walk_slots` says, at M^2/2 + 3.
    No window reaches past candidate ``SAMPLING_BUDGET``: a trial that
    needs one is refused.
    """
    count = check_count(element_count, "element_count")
    seeds = seed_array(seeds)
    values = np.full((4, seeds.size, count), np.nan)
    if count * (min_spacing / 2.0) ** 2 > aperture_radius**2:
        reason = (f"{count} elements with {min_spacing} m spacing cannot fit "
                  f"an aperture of radius {aperture_radius} m")
        return values, [reason] * seeds.size
    exhausted = (f"rejection budget of {SAMPLING_BUDGET} draws exhausted "
                 f"for M={count}, spacing={min_spacing}, aperture={aperture_radius}")
    reasons: list[str | None] = [None] * seeds.size
    lead = count * count // 2 + 3
    # each trial's attempt starts at candidate starts[t], and its next walk
    # takes steps[t] candidates, 0 once the trial is placed or refused
    starts = np.zeros(seeds.size, dtype=np.int64)
    steps = np.full(seeds.size, min(lead, SAMPLING_BUDGET), dtype=np.int64)
    while (pending := np.flatnonzero(steps)).size:
        walks = steps[pending]
        for walked in sorted(set(walks.tolist())):
            group = pending[walks == walked]
            # the candidates, then the M shapes and the M steering angles
            width = 2 * (walked + count)
            batch = max(1, SAMPLE_BATCH_DOUBLES // width)
            for first in range(0, group.size, batch):
                trials = group[first : first + batch]
                window = uniform_windows(seeds[trials], width, 2 * starts[trials])
                chosen, placed, resume = _walk_slots(
                    window, walked, count, aperture_radius, min_spacing
                )
                rows = np.flatnonzero(placed)
                picks, column, done = chosen[rows], rows[:, None], trials[rows]
                values[0, done] = aperture_radius * np.sqrt(window[column, 2 * picks])
                values[1, done] = np.mod(TWO_PI * window[column, 2 * picks + 1], TWO_PI)
                # the M shapes and the M steering angles follow the last placed candidate
                tail = window[column, 2 * (picks[:, -1:] + 1) + np.arange(2 * count)]
                values[2, done] = tail[:, :count]
                values[3, done] = np.mod(TWO_PI * tail[:, count:], TWO_PI)
                # a window that ran out is walked again at 2S and a dead end
                # restarts at the lead, neither past the budget
                ran_out = resume == 0
                starts[trials] += resume
                steps[trials] = np.minimum(np.where(ran_out, 2 * walked, lead),
                                           SAMPLING_BUDGET - starts[trials])
                refused = ~placed & (steps[trials] <= np.where(ran_out, walked, 0))
                for t in trials[refused].tolist():
                    reasons[t] = exhausted
                steps[trials[placed | refused]] = 0
    return values, reasons


def _walk_slots(
    window: np.ndarray, steps: int, count: int, aperture_radius: float, min_spacing: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place ``count`` elements slot by slot from each trial's first ``steps``
    candidates, those of one attempt: the chosen candidates (T, M), the
    trials placed, and for every other one the candidate its attempt
    restarts at, or 0 where its window ran out first.

    Element 0 is candidate 0. Each further slot measures every candidate
    against the element placed last, and a candidate stays rejected once it
    is placed or a squared distance falls below ``min_spacing**2``; one
    within ``_NEAR_SPACING`` (relative) of it is decided as the scalar
    rejection loop decides it, in `math`. A slot takes the first candidate
    not rejected, the loop's choice, if it lies within
    ``_PLACEMENT_CAP`` of the last pick. Else the attempt dead-ends one past
    the cap's last candidate where the window holds it, and runs out where not.
    """
    trials = window.shape[0]
    radius = aperture_radius * np.sqrt(window[:, 0 : 2 * steps : 2])
    angle = TWO_PI * window[:, 1 : 2 * steps : 2]
    x, y = radius * np.cos(angle), radius * np.sin(angle)
    min_sq = min_spacing * min_spacing
    below = min_sq - _NEAR_SPACING * min_sq
    above = min_sq + _NEAR_SPACING * min_sq
    rows = np.arange(trials)
    chosen = np.zeros((trials, count), dtype=np.intp)
    found = np.ones((trials, count), dtype=bool)
    free = np.ones((trials, steps), dtype=bool)
    free[:, 0] = False
    last = chosen[:, 0]
    for slot in range(1, count):
        # (x_c - x_last)**2 + (y_c - y_last)**2, the rejection loop's test, in place
        dist_sq = x - x[rows, last][:, None]
        dy = y - y[rows, last][:, None]
        dist_sq *= dist_sq
        dy *= dy
        dist_sq += dy
        free &= dist_sq >= below
        near = dist_sq <= above
        near &= free
        if near.any():
            pairs, candidates = near.nonzero()
            free[pairs, candidates] = _clear_in_math(
                window, pairs, candidates, last[pairs], aperture_radius, min_sq
            )
        # a trial past its first missing slot walks on, and is not read
        last = free.argmax(axis=1)
        found[:, slot] = free[rows, last]
        free[rows, last] = False
        chosen[:, slot] = last
    found[:, 1:] &= np.diff(chosen, axis=1) <= _PLACEMENT_CAP
    placed = found.all(axis=1)
    # a dead end restarts one past the cap's last candidate after the last element placed
    cap_end = chosen[rows, found.argmin(axis=1) - 1] + _PLACEMENT_CAP
    return chosen, placed, np.where(~placed & (cap_end < steps), cap_end + 1, 0)


def _clear_in_math(window, rows, candidates, placed, aperture_radius, min_sq) -> list[bool]:
    """The scalar rejection loop's test of each row's candidate against the
    row's element ``placed``, in `math` as that loop takes it."""
    def position(u_radius: float, u_angle: float) -> tuple[float, float]:
        radius, angle = aperture_radius * math.sqrt(u_radius), TWO_PI * u_angle
        return radius * math.cos(angle), radius * math.sin(angle)

    doubles = 2 * np.stack([candidates, candidates, placed, placed], axis=1) + [0, 1, 0, 1]
    pairs = window[rows[:, None], doubles].tolist()
    return [(x - px) ** 2 + (y - py) ** 2 >= min_sq
            for (x, y), (px, py) in ((position(a, b), position(c, d)) for a, b, c, d in pairs)]


def geometry_digest(geometry: ArrayGeometry) -> str:
    """Order-sensitive hash of every geometric and directivity value."""
    parts = [repr(geometry.aperture_radius), repr(geometry.min_spacing)]
    for e in geometry.elements:
        parts.append(f"{e.r!r},{e.phi!r},{e.q!r},{e.theta_steer!r}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()
