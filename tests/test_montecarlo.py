import numpy as np
import pytest

import diffbeam.montecarlo as mc
from diffbeam import (
    AllTrialsFailedError,
    FrequencyGrid,
    InfeasibleGeometryError,
    PhysicalConstants,
    RankDeficientSystemError,
    TrialConfig,
    beampattern,
    compare_orders,
    design_filter,
    gain_curves,
    run_trials,
    sample_random_geometry,
    trial_seed,
)
from diffbeam.metrics import harmonic_reach, magnitude_db, power_db
from diffbeam.montecarlo import TrialFailure
from tests.test_rank_gate import HIGH_ORDER_GRID, STUDY_SEED


def small_config(**overrides):
    defaults = dict(
        trials=8,
        element_count=5,
        order=1,
        steer_deg=60.0,
        aperture_radius=0.02,
        min_spacing=0.008,
        grid=FrequencyGrid(1000.0, 1000.0, 1),
        eval_frequency_hz=1000.0,
        master_seed=555,
        angle_count=90,
    )
    defaults.update(overrides)
    return TrialConfig(**defaults)


class TestConfigValidation:
    def test_requires_enough_elements(self):
        with pytest.raises(ValueError):
            small_config(order=3)

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            small_config(trials=0)

    def test_eval_frequency_must_be_on_grid(self):
        with pytest.raises(ValueError):
            small_config(eval_frequency_hz=1234.0)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert trial_seed(99, 0) == trial_seed(99, 0)
        seeds = {trial_seed(99, t) for t in range(100)}
        assert len(seeds) == 100
        assert trial_seed(99, 0) != trial_seed(100, 0)


class TestRunTrials:
    def test_single_trial_has_zero_std(self):
        stats = run_trials(small_config(trials=1))
        assert np.all(stats.bp_std_db == 0.0)
        assert np.all(stats.wng_std_db == 0.0)
        assert np.all(stats.df_std_db == 0.0)

    def test_same_seed_reproduces_bitwise(self):
        first = run_trials(small_config())
        second = run_trials(small_config())
        assert np.array_equal(first.bp_mean_db, second.bp_mean_db)
        assert np.array_equal(first.bp_std_db, second.bp_std_db)
        assert np.array_equal(first.wng_mean_db, second.wng_mean_db)
        assert np.array_equal(first.df_mean_db, second.df_mean_db)

    def test_worker_count_does_not_change_results(self):
        serial = run_trials(small_config(), workers=1)
        threaded = run_trials(small_config(), workers=4)
        for name in ("bp_mean_db", "bp_std_db", "wng_mean_db", "wng_std_db",
                     "df_mean_db", "df_std_db"):
            assert np.array_equal(getattr(serial, name), getattr(threaded, name))

    def test_shapes(self):
        config = small_config(grid=FrequencyGrid(500.0, 2000.0, 4), eval_frequency_hz=1000.0)
        stats = run_trials(config)
        assert stats.bp_mean_db.shape == (90,)
        assert stats.wng_mean_db.shape == (4,)
        assert stats.successes == config.trials


def study_n3_m7(**overrides):
    # the first 100 trials of tests/test_rank_gate.py's N=3, M=7 study set
    defaults = dict(
        trials=100,
        element_count=7,
        order=3,
        grid=HIGH_ORDER_GRID,
        master_seed=STUDY_SEED,
        angle_count=360,
    )
    defaults.update(overrides)
    return small_config(**defaults)


def oracle_statistics(config):
    """The study trial by trial through the public per-geometry functions."""
    target, _ = config.target()
    constants = PhysicalConstants(speed_of_sound=config.speed_of_sound)
    theta = 2.0 * np.pi * np.arange(config.angle_count) / config.angle_count
    omega = 2.0 * np.pi * config.eval_frequency_hz
    bp, wng, df, failures = [], [], [], []
    floor_hits = 0
    for index in range(config.trials):
        try:
            geometry = sample_random_geometry(
                config.element_count, config.aperture_radius, config.min_spacing,
                seed=trial_seed(config.master_seed, index),
            )
            filt = design_filter(geometry, constants, target, config.grid, config.element_model)
        except (RankDeficientSystemError, InfeasibleGeometryError) as err:
            failures.append((index, str(err)))
            continue
        pattern = beampattern(filt, geometry, constants, omega, theta)
        bp.append(magnitude_db(pattern, floor_db=config.db_floor))
        floor_hits += np.count_nonzero(magnitude_db(pattern) < config.db_floor)
        gains = gain_curves(filt, geometry, constants, filt.theta_s)
        wng.append(power_db(gains[0]))
        df.append(power_db(gains[1]))
    stats = {}
    for name, rows in (("bp", bp), ("wng", wng), ("df", df)):
        stats[f"{name}_mean_db"] = np.mean(rows, axis=0)
        stats[f"{name}_std_db"] = np.std(rows, axis=0)
    stats["floor_hits"] = floor_hits
    return stats, failures


STAT_NAMES = ("bp_mean_db", "bp_std_db", "wng_mean_db", "wng_std_db", "df_mean_db", "df_std_db")


class TestFailureAccounting:
    def test_failures_excluded_from_statistics(self):
        # real rank-gate refusals, each reported with the message design_filter
        # raises for that trial's geometry
        config = study_n3_m7()
        stats = run_trials(config)
        refused = [43, 55, 68, 85, 87, 88, 96]
        assert [f.index for f in stats.failures] == refused
        assert all(isinstance(f, TrialFailure) for f in stats.failures)
        assert stats.successes == 100 - len(refused)
        target, _ = config.target()
        for failure in stats.failures:
            geometry = sample_random_geometry(
                7, 0.02, 0.008, seed=trial_seed(STUDY_SEED, failure.index)
            )
            with pytest.raises(RankDeficientSystemError) as err:
                design_filter(geometry, PhysicalConstants(), target, HIGH_ORDER_GRID)
            assert failure.reason == str(err.value)

    def test_all_failed_raises(self):
        # order 4 at 50 Hz sits far below the rank gate for every geometry
        config = small_config(
            trials=3,
            element_count=9,
            order=4,
            grid=FrequencyGrid(50.0, 50.0, 1),
            eval_frequency_hz=50.0,
        )
        with pytest.raises(AllTrialsFailedError):
            run_trials(config)


class TestChunkedAgainstOracle:
    @pytest.mark.parametrize(
        "element_model, f_hz, refusals", [("first_order", 300.0, 7), ("omni", 700.0, 16)]
    )
    def test_refusals_across_uneven_chunks(self, monkeypatch, element_model, f_hz, refusals):
        # the rank gate refuses trials spread over at least three chunks, the
        # last one short; a smaller chunk budget makes the chunks that short
        monkeypatch.setattr(mc, "CHUNK_ELEMENTS", 1 << 14)
        config = study_n3_m7(
            grid=FrequencyGrid(f_hz, f_hz, 1),
            eval_frequency_hz=f_hz,
            element_model=element_model,
        )
        chunk = mc.chunk_trials(config)
        assert config.trials > 2 * chunk and config.trials % chunk != 0
        stats = run_trials(config)
        expected, failures = oracle_statistics(config)
        assert [(f.index, f.reason) for f in stats.failures] == failures
        assert len(failures) == refusals
        for name in STAT_NAMES:
            assert np.max(np.abs(getattr(stats, name) - expected[name])) <= 1e-9, name

    def test_grid_of_frequencies(self):
        config = small_config(
            trials=9,
            element_count=9,
            order=2,
            grid=FrequencyGrid(500.0, 4000.0, 36),
            angle_count=360,
        )
        chunk = mc.chunk_trials(config)
        assert config.trials > 2 * chunk and config.trials % chunk != 0
        stats = run_trials(config)
        expected, failures = oracle_statistics(config)
        assert failures == [] and stats.failures == ()
        for name in STAT_NAMES:
            assert np.max(np.abs(getattr(stats, name) - expected[name])) <= 1e-9, name

    @pytest.mark.parametrize("angle_count", [8, 15, 359])
    def test_angle_counts_that_fold_or_are_odd(self, angle_count):
        # the pattern is sampled from its harmonic coefficients; 8 and 15
        # angles are fewer than the chunk's harmonics (2L + 1 >= 19 at any
        # radius), so the coefficients fold onto the angles; 15 and 359 are odd
        config = study_n3_m7(
            grid=FrequencyGrid(300.0, 300.0, 1), eval_frequency_hz=300.0,
            angle_count=angle_count,
        )
        assert angle_count > 300 or 2 * harmonic_reach(config.order, 0.0) + 1 > angle_count
        stats = run_trials(config)
        expected, failures = oracle_statistics(config)
        assert [(f.index, f.reason) for f in stats.failures] == failures
        assert stats.bp_mean_db.shape == (angle_count,)
        for name in STAT_NAMES:
            assert np.max(np.abs(getattr(stats, name) - expected[name])) <= 1e-9, name

    def test_superdirective_nulls_at_the_floor(self):
        # N = 3 at 300 Hz on 2 cm: weights in the hundreds and nulls below -50 dB,
        # where over a hundred samples clamp to the floor
        config = study_n3_m7(
            grid=FrequencyGrid(300.0, 300.0, 1), eval_frequency_hz=300.0, db_floor=-50.0
        )
        stats = run_trials(config)
        expected, failures = oracle_statistics(config)
        assert expected["floor_hits"] > 0
        assert [(f.index, f.reason) for f in stats.failures] == failures
        for name in STAT_NAMES:
            assert np.max(np.abs(getattr(stats, name) - expected[name])) <= 1e-9, name

    def test_one_and_four_workers_byte_equal(self):
        config = study_n3_m7(grid=FrequencyGrid(300.0, 300.0, 1), eval_frequency_hz=300.0)
        serial = run_trials(config, workers=1)
        threaded = run_trials(config, workers=4)
        for name in STAT_NAMES:
            assert getattr(serial, name).tobytes() == getattr(threaded, name).tobytes()
        assert serial.failures == threaded.failures


class TestChunkBoundaries:
    """Every trial is scored over the harmonics of the whole study, so the
    statistics and failures are the same bits whatever the chunk size."""

    @pytest.mark.parametrize("study", ["n2_m9_1khz", "desk_grid", "n3_m7_band", "omni"])
    def test_statistics_bit_equal_across_chunk_sizes(self, monkeypatch, study):
        config = {
            "n2_m9_1khz": lambda: small_config(
                trials=40, element_count=9, order=2, angle_count=360
            ),
            "desk_grid": lambda: small_config(
                trials=12, element_count=9, order=2, grid=FrequencyGrid(50.0, 4000.0, 80),
                angle_count=360,
            ),
            "n3_m7_band": lambda: study_n3_m7(trials=60),
            "omni": lambda: study_n3_m7(
                grid=FrequencyGrid(700.0, 700.0, 1), eval_frequency_hz=700.0,
                element_model="omni",
            ),
        }[study]()
        runs = []
        for size in (1, 7, 1000):
            monkeypatch.setattr(mc, "chunk_trials", lambda config, size=size: size)
            runs.append(run_trials(config))
        first = runs[0]
        if study in ("n3_m7_band", "omni"):
            assert first.failures
        for other in runs[1:]:
            assert other.failures == first.failures
            for name in STAT_NAMES:
                assert getattr(other, name).tobytes() == getattr(first, name).tobytes(), name


class TestLowFrequencyBehavior:
    def test_minimal_array_amplifies_self_noise_at_low_frequency(self):
        # superdirective small arrays pay for their directivity with
        # negative white noise gain at the bottom of the band
        config = small_config(
            trials=60,
            element_count=3,
            order=1,
            grid=FrequencyGrid(200.0, 200.0, 1),
            eval_frequency_hz=200.0,
        )
        stats = run_trials(config, workers=4)
        assert stats.wng_mean_db[0] < 0.0


class TestCompareOrders:
    def test_duplicated_config_gives_identical_summaries(self):
        config = small_config(trials=4, element_count=9, order=1)
        comparison = compare_orders([config, config], reference_frequency_hz=1000.0)
        assert comparison.orders == (1, 1)
        assert comparison.wng_mean_db[0] == comparison.wng_mean_db[1]
        assert comparison.df_mean_db[0] == comparison.df_mean_db[1]

    def test_shared_head_enforced(self):
        a = small_config(trials=4, element_count=9, order=1)
        b = small_config(trials=4, element_count=9, order=2, master_seed=999)
        with pytest.raises(ValueError):
            compare_orders([a, b], reference_frequency_hz=1000.0)

    def test_verdicts_match_reported_means(self):
        configs = [
            small_config(trials=6, element_count=9, order=order) for order in (1, 2)
        ]
        comparison = compare_orders(configs, reference_frequency_hz=1000.0)
        assert comparison.wng_strictly_decreasing == (
            comparison.wng_mean_db[0] > comparison.wng_mean_db[1]
        )
        assert comparison.df_strictly_increasing == (
            comparison.df_mean_db[0] < comparison.df_mean_db[1]
        )
