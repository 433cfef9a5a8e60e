"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured numbers (run with ``pytest -v -s`` to see them).

The Monte Carlo criteria share 500-trial runs through a session cache;
every run uses a single-point 1 kHz design grid (the criteria only read
metrics there) and clamps per-trial magnitudes at -50 dB, the polar-plot
floor the reference standard-deviation values were read from.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

import diffbeam as db
from diffbeam import FrequencyGrid, TrialConfig
from diffbeam.fileio import pattern_from_config
from diffbeam.modal import element_harmonics
from diffbeam.solver import design_rhs
from tests.conftest import FIXED_GEOMETRY_SEED, steered_hypercardioid
from tests.test_modal import with_zero_shape

MC_TRIALS = 500
MC_MASTER_SEED = 12345
MC_GRID = FrequencyGrid(1000.0, 1000.0, 1)
OMEGA_1K = 2 * np.pi * 1000.0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion:02d} [{'PASS' if ok else 'FAIL'}]: {detail}")


def mc_config(order, element_count, family="hypercardioid", custom_a=None):
    pattern = {"family": family, "order": order, "steer_deg": 60.0}
    if custom_a is not None:
        pattern["a"] = list(custom_a)
    return TrialConfig(
        trials=MC_TRIALS,
        element_count=element_count,
        target=pattern_from_config(pattern)[0],
        aperture_radius=0.02,
        min_spacing=0.008,
        grid=MC_GRID,
        eval_frequency_hz=1000.0,
        master_seed=MC_MASTER_SEED,
        db_floor=-50.0,
    )


def second_order_max_front_back() -> tuple[float, ...]:
    """Second-order pattern maximizing the 2-D front-to-back power ratio.

    Derived from the definition (generalized Rayleigh quotient of the
    front- and back-half power forms) rather than copied from a table;
    this is the 'user-supplied' coefficient route the custom family
    exists for.
    """
    count = 1 << 15
    psi = -np.pi + 2 * np.pi * np.arange(count) / count
    front = np.abs(psi) <= np.pi / 2
    basis = np.stack([np.ones_like(psi), np.cos(psi), np.cos(2 * psi)])
    front_form = (basis[:, None, :] * basis[None, :, :] * front).mean(axis=-1)
    back_form = (basis[:, None, :] * basis[None, :, :] * ~front).mean(axis=-1)
    _, vectors = scipy.linalg.eigh(front_form, back_form)
    a = vectors[:, -1]
    return tuple(a / a.sum())


@pytest.fixture(scope="module")
def mc_cache():
    cache = {}

    def run(order, element_count, family="hypercardioid", custom_a=None):
        key = (order, element_count, family)
        if key not in cache:
            cache[key] = db.run_trials(
                mc_config(order, element_count, family, custom_a), workers=4
            )
        return cache[key]

    return run


@pytest.fixture(scope="module")
def fixed_geometry_module():
    return db.sample_random_geometry(9, 0.02, 0.008, seed=FIXED_GEOMETRY_SEED)


@pytest.fixture(scope="module")
def constants_module():
    return db.PhysicalConstants()


def test_criterion_01_closed_form_matches_quadrature_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(-6, 7))
        x = float(rng.uniform(0.0, 3.0))
        q = float(rng.uniform(0.0, 1.0))
        theta_steer = float(rng.uniform(0.0, 2 * np.pi))
        phi = float(rng.uniform(0.0, 2 * np.pi))
        closed = db.harmonic_coefficient(n, x, q, theta_steer, phi)
        integral = db.harmonic_coefficient_quadrature(n, x, q, theta_steer, phi, 4096)
        worst = max(worst, abs(closed - integral))
    ok = worst < 1e-8
    report(1, ok, f"max |closed-form - quadrature| = {worst:.3e} over 1000 draws (< 1e-8)")
    assert ok


def test_criterion_02_omnidirectional_reduction(constants_module):
    grid = FrequencyGrid(200.0, 3800.0, 10)
    target = steered_hypercardioid(2)
    worst_matrix = 0.0
    worst_weights = 0.0
    for seed in range(20):
        geom = with_zero_shape(db.sample_random_geometry(7, 0.02, 0.008, seed=seed))
        tensor = element_harmonics(
            geom.element_values, grid.omegas, 2, constants_module.speed_of_sound
        )
        for xi, omega in zip(tensor, grid.omegas):
            psi = db.build_psi_matrix(geom, constants_module, omega, 2)
            worst_matrix = max(worst_matrix, float(np.max(np.abs(xi - psi))))
        first = db.design_filter(geom, constants_module, target, grid, "first_order")
        omni = db.design_filter(geom, constants_module, target, grid, "omni")
        worst_weights = max(
            worst_weights, float(np.max(np.abs(first.weights - omni.weights)))
        )
    ok = worst_matrix < 1e-12 and worst_weights < 1e-10
    report(
        2,
        ok,
        f"q=0 reduction: max matrix diff {worst_matrix:.3e} (< 1e-12), "
        f"max weight diff {worst_weights:.3e} (< 1e-10), 20 geometries x 10 freqs",
    )
    assert ok


def test_criterion_03_modal_residual(constants_module):
    grid = FrequencyGrid(1000.0, 4000.0, 5)
    rng = np.random.default_rng(303)
    worst = 0.0
    rank_failures = 0
    designs = 0
    for _ in range(50):
        order = int(rng.integers(1, 5))
        element_count = int(rng.integers(2 * order + 1, 14))
        geom = db.sample_random_geometry(
            element_count, 0.02, 0.008, seed=int(rng.integers(0, 2**63))
        )
        target = steered_hypercardioid(order)
        try:
            filt = db.design_filter(geom, constants_module, target, grid)
        except db.RankDeficientSystemError:
            rank_failures += 1  # the gate refused; nothing to check
            continue
        designs += 1
        tensor = element_harmonics(
            geom.element_values, grid.omegas, order, constants_module.speed_of_sound
        )
        for xi, h in zip(tensor, filt.weights):
            residual = float(np.max(np.abs(xi.conj() @ h - design_rhs(target))))
            worst = max(worst, residual)
    ok = worst < 1e-9 and designs >= 40
    report(
        3,
        ok,
        f"worst modal residual {worst:.3e} (< 1e-9) over {designs} designs "
        f"({rank_failures} refused by the rank gate)",
    )
    assert ok


def test_criterion_04_distortionless_rendering(constants_module, fixed_geometry_module):
    results = []
    for order, grid in (
        (1, FrequencyGrid(50.0, 4000.0, 80)),
        (4, FrequencyGrid(1000.0, 4000.0, 7)),
    ):
        target = steered_hypercardioid(order)
        filt = db.design_filter(fixed_geometry_module, constants_module, target, grid)
        response = db.beampattern(
            filt, fixed_geometry_module, constants_module, OMEGA_1K, target.theta_s
        )
        level_db = 20.0 * math.log10(abs(response))
        results.append((order, level_db))
    ok = all(abs(level) < 0.5 for _, level in results)
    detail = ", ".join(f"N={order}: |B| = {level:+.4f} dB" for order, level in results)
    report(4, ok, f"{detail} at 1 kHz, steered 60 deg (|.| < 0.5 dB)")
    assert ok


def test_criterion_05_hypercardioid_directivity(constants_module, fixed_geometry_module):
    results = []
    for order in (1, 2, 3):
        target = steered_hypercardioid(order)
        filt = db.design_filter(
            fixed_geometry_module, constants_module, target, MC_GRID
        )
        df = db.directivity_factor(
            filt, fixed_geometry_module, constants_module, OMEGA_1K, target.theta_s
        )
        gap = 10.0 * math.log10(df) - 10.0 * math.log10(2 * order + 1)
        results.append((order, gap))
    ok = all(abs(gap) < 0.5 for _, gap in results)
    detail = ", ".join(f"N={order}: {gap:+.3f} dB off 2N+1" for order, gap in results)
    report(5, ok, f"{detail} at 1 kHz (|.| < 0.5 dB)")
    assert ok


def test_criterion_06_order_trends(mc_cache):
    minimal = [mc_cache(order, 2 * order + 1) for order in (1, 2, 3)]
    fixed = [mc_cache(order, 9) for order in (1, 2, 3)]
    lines = []
    ok = True
    for label, runs in (("M=2N+1", minimal), ("M=9", fixed)):
        wng = [float(s.wng_mean_db[0]) for s in runs]
        df = [float(s.df_mean_db[0]) for s in runs]
        wng_down = wng[0] > wng[1] > wng[2]
        df_up = df[0] < df[1] < df[2]
        ok = ok and wng_down and df_up
        lines.append(
            f"{label}: WNG {wng[0]:+.2f} > {wng[1]:+.2f} > {wng[2]:+.2f}, "
            f"DF {df[0]:+.2f} < {df[1]:+.2f} < {df[2]:+.2f}"
        )
    report(6, ok, "; ".join(lines) + f" ({MC_TRIALS} trials, 1 kHz)")
    assert ok


def test_criterion_07_element_count_trend(mc_cache):
    runs = {m: mc_cache(2, m) for m in (5, 9, 13)}
    wng = {m: float(runs[m].wng_mean_db[0]) for m in runs}
    df = {m: float(runs[m].df_mean_db[0]) for m in runs}
    wng_ordered = wng[13] > wng[9] > wng[5]
    df_spread = max(df.values()) - min(df.values())
    ok = wng_ordered and df_spread <= 1.0
    report(
        7,
        ok,
        f"WNG {wng[13]:+.2f} > {wng[9]:+.2f} > {wng[5]:+.2f} dB for M=13>9>5; "
        f"DF spread {df_spread:.3f} dB (<= 1.0)",
    )
    assert ok


def test_criterion_08_std_magnitude_consistency(mc_cache):
    supercardioid = second_order_max_front_back()
    cases = [
        ("N=1/M=3 hypercardioid", mc_cache(1, 3), 8.8),
        ("N=3/M=7 hypercardioid", mc_cache(3, 7), 7.4),
        ("N=1/M=9 hypercardioid", mc_cache(1, 9), 6.9),
        ("N=2/M=13 supercardioid", mc_cache(2, 13, "custom", supercardioid), 4.5),
    ]
    lines = []
    ok = True
    for label, stats, reference in cases:
        worst = float(stats.bp_std_db.max())
        angle = float(stats.angles_deg[int(stats.bp_std_db.argmax())])
        inside = 0.5 * reference <= worst <= 1.5 * reference
        ok = ok and inside
        lines.append(
            f"{label}: {worst:.2f} dB at {angle:.0f} deg "
            f"(reference {reference}, band [{0.5 * reference:.2f}, {1.5 * reference:.2f}])"
        )
    report(8, ok, "; ".join(lines))
    assert ok


def test_criterion_09_bessel_kernel():
    rng = np.random.default_rng(909)
    worst_recurrence = 0.0
    worst_symmetry = 0.0
    worst_derivative = 0.0
    worst_oracle = 0.0
    for _ in range(200):
        n = int(rng.integers(-20, 21))
        x = float(rng.uniform(0.1, 30.0))
        lhs = (2.0 * n / x) * db.bessel_j(n, x)
        rhs = db.bessel_j(n - 1, x) + db.bessel_j(n + 1, x)
        worst_recurrence = max(worst_recurrence, abs(lhs - rhs))
        sign = -1.0 if n % 2 else 1.0
        worst_symmetry = max(
            worst_symmetry, abs(db.bessel_j(-n, x) - sign * db.bessel_j(n, x))
        )
        step = 1e-5
        centered = (db.bessel_j(n, x + step) - db.bessel_j(n, x - step)) / (2 * step)
        worst_derivative = max(worst_derivative, abs(db.bessel_j_prime(n, x) - centered))
        worst_oracle = max(
            worst_oracle,
            abs(db.bessel_j(n, x) - db.hansen_bessel_quadrature(n, x, 4096)),
        )
    worst = max(worst_recurrence, worst_symmetry, worst_derivative, worst_oracle)
    ok = worst < 1e-9
    report(
        9,
        ok,
        f"recurrence {worst_recurrence:.2e}, symmetry {worst_symmetry:.2e}, "
        f"derivative {worst_derivative:.2e}, oracle {worst_oracle:.2e} (all < 1e-9)",
    )
    assert ok


def test_criterion_10_montecarlo_determinism(tmp_path):
    import json

    from diffbeam.cli import main

    config_path = tmp_path / "mc.json"
    config_path.write_text(
        json.dumps(
            {
                "trials": 48,
                "element_count": 5,
                "aperture_radius_mm": 20.0,
                "min_spacing_mm": 8.0,
                "pattern": {"family": "hypercardioid", "order": 1, "steer_deg": 60.0},
                "grid_hz": {"f_min": 1000.0, "f_max": 1000.0, "count": 1},
                "eval_frequency_hz": 1000.0,
                "master_seed": 777,
            }
        )
    )
    outputs = {}
    for workers in (1, 8):
        out_dir = tmp_path / f"workers{workers}"
        code = main(
            [
                "montecarlo",
                "--config", str(config_path),
                "--out", str(out_dir),
                "--threads", str(workers),
            ]
        )
        assert code == 0
        outputs[workers] = {
            name: (out_dir / name).read_bytes()
            for name in ("bp_stats.csv", "wng_stats.csv", "df_stats.csv", "failures.json")
        }
    ok = outputs[1] == outputs[8]
    report(10, ok, "1-worker and 8-worker runs produced byte-identical CSVs")
    assert ok


def test_series_oracle_self_check():
    # the frozen Bessel constants in test_bessel come from this exact
    # rational series; make sure the two test modules stay in sync
    half = Fraction(1, 2)
    term = Fraction(1)
    total = Fraction(0)
    for k in range(30):
        if k > 0:
            term *= -(half * half) / (k * k)
        total += term
    assert float(total) == 0.7651976865579666
