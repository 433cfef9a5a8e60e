"""The stacked rank gate refuses exactly what the per-frequency gate did.

`SEED_REFUSALS` holds, per set, the (trial, grid index) pairs that the
per-frequency implementation (one matching matrix and one Gram
eigenvalue check per grid point) refused; it accepted every other pair.
The sets are the designs of the acceptance criteria and the grids of
``scripts/montecarlo_study.py`` (first 100 trials of each study, plus the
one refusal its N=2/M=5 study has in 500). Over all 500 trials of every
study both gates refuse the same 80 pairs, and the closest accepted or
refused Gram ratio sits 2e-4 decades from the threshold.
"""

import cmath

import numpy as np
import pytest

import diffbeam as db
from diffbeam import FrequencyGrid, RankDeficientSystemError
from diffbeam.modal import element_harmonics, model_values
from diffbeam.solver import RANK_RTOL, solve_wide
from tests.conftest import FIXED_GEOMETRY_SEED, steered_hypercardioid
from tests.test_modal import with_zero_shape

CONSTANTS = db.PhysicalConstants()
STUDY_SEED = 12345
FULL_GRID = FrequencyGrid(50.0, 4000.0, 80)
HIGH_ORDER_GRID = FrequencyGrid(300.0, 4000.0, 75)
ONE_KHZ = FrequencyGrid(1000.0, 1000.0, 1)

SEED_REFUSALS = {
    "study_n3_m7": [
        (43, 0), (55, 0), (55, 1), (68, 0), (85, 0), (85, 1), (85, 2), (85, 3),
        (87, 0), (87, 1), (87, 2), (88, 0), (88, 1), (88, 2), (88, 3), (88, 4),
        (88, 5), (88, 6), (96, 0), (96, 1), (96, 2), (96, 3), (96, 4),
    ],
    "study_n2_m5": [(264, 0)],
}


def random_geometry(elements, seed):
    return db.sample_random_geometry(elements, 0.02, 0.008, seed=seed)


def study_cases(order, elements, trials):
    grid = HIGH_ORDER_GRID if order >= 3 else FULL_GRID
    for t in trials:
        yield t, random_geometry(elements, db.trial_seed(STUDY_SEED, t)), order, grid, "first_order"


def acceptance_cases(name):
    if name == "criterion_02":
        grid = FrequencyGrid(200.0, 3800.0, 10)
        for seed in range(20):
            geometry = with_zero_shape(random_geometry(7, seed))
            for model in ("first_order", "omni"):
                yield seed, geometry, 2, grid, model
    elif name == "criterion_03":
        rng = np.random.default_rng(303)
        for t in range(50):
            order = int(rng.integers(1, 5))
            elements = int(rng.integers(2 * order + 1, 14))
            geometry = random_geometry(elements, int(rng.integers(0, 2**63)))
            yield t, geometry, order, FrequencyGrid(1000.0, 4000.0, 5), "first_order"
    elif name == "criteria_04_05":
        fixed = random_geometry(9, FIXED_GEOMETRY_SEED)
        yield 0, fixed, 1, FULL_GRID, "first_order"
        yield 1, fixed, 4, FrequencyGrid(1000.0, 4000.0, 7), "first_order"
        for order in (1, 2, 3):
            yield 1 + order, fixed, order, ONE_KHZ, "first_order"
    elif name == "criteria_06_08":
        # the gate sees the geometry and the order, not the pattern family
        for order, elements in ((1, 3), (2, 5), (3, 7), (1, 9), (2, 9), (3, 9), (2, 13)):
            for t in range(500):
                geometry = random_geometry(elements, db.trial_seed(STUDY_SEED, t))
                yield (order, elements, t), geometry, order, ONE_KHZ, "first_order"
    elif name == "criterion_10":
        for t in range(48):
            yield t, random_geometry(5, db.trial_seed(777, t)), 1, ONE_KHZ, "first_order"


def refused_pairs(cases):
    pairs = []
    for key, geometry, order, grid, model in cases:
        values = model_values(geometry.element_values, model)
        xi = element_harmonics(values, grid.omegas, order, CONSTANTS.speed_of_sound)
        _, refused, _ = solve_wide(xi.conj(), np.ones(2 * order + 1))
        pairs.extend((key, int(i)) for i in np.flatnonzero(refused))
    return pairs


@pytest.mark.parametrize(
    "name", ["criterion_02", "criterion_03", "criteria_04_05", "criteria_06_08", "criterion_10"]
)
def test_acceptance_sets(name):
    assert refused_pairs(acceptance_cases(name)) == []


@pytest.mark.parametrize(
    "order, elements", [(1, 3), (2, 5), (3, 7), (2, 9), (2, 13), (1, 9), (3, 9)]
)
def test_study_grids(order, elements):
    name = f"study_n{order}_m{elements}"
    expected = SEED_REFUSALS.get(name, [])
    trials = sorted(set(range(100)) | {t for t, _ in expected})
    assert refused_pairs(study_cases(order, elements, trials)) == expected


def test_matches_a_scalar_per_frequency_gate():
    # the trials nearest the threshold, rebuilt from the scalar closed form
    # one frequency at a time
    for t, geometry, order, grid, _ in study_cases(3, 7, (85, 87, 88, 96)):
        n_values = range(-order, order + 1)
        _, batched, _ = solve_wide(
            element_harmonics(
                geometry.element_values, grid.omegas, order, CONSTANTS.speed_of_sound
            ).conj(),
            np.ones(len(n_values)),
        )
        for f, omega in enumerate(grid.omegas):
            matrix = np.array([
                [
                    db.harmonic_coefficient(
                        n, omega * e.r / CONSTANTS.speed_of_sound, e.q, e.theta_steer, e.phi
                    ) * cmath.exp(-1j * n * e.theta_steer)
                    for e in geometry.elements
                ]
                for n in n_values
            ])
            eigs = np.linalg.eigvalsh(matrix @ matrix.conj().T)
            assert batched[f] == (eigs[0] < RANK_RTOL * eigs[-1]), (t, f)


def test_design_reports_lowest_refused_frequency():
    _, geometry, order, grid, _ = next(study_cases(3, 7, [88]))
    with pytest.raises(RankDeficientSystemError, match="at 300 Hz") as excinfo:
        db.design_filter(geometry, CONSTANTS, steered_hypercardioid(order), grid)
    assert excinfo.value.frequency_hz == 300.0
    assert excinfo.value.condition > 1.0 / RANK_RTOL
