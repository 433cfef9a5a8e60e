import numpy as np
import pytest

import diffbeam.montecarlo as mc
from diffbeam import (
    AllTrialsFailedError,
    FrequencyGrid,
    TrialConfig,
    compare_orders,
    run_trials,
    trial_seed,
)
from diffbeam.montecarlo import TrialFailure


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


class TestFailureAccounting:
    def test_failures_excluded_from_statistics(self, monkeypatch):
        from diffbeam.errors import RankDeficientSystemError

        real_design = mc.design_filter
        calls = {"n": 0}

        def flaky(geometry, constants, target, grid, element_model="first_order", **kw):
            calls["n"] += 1
            if calls["n"] % 2 == 1:  # fail every other trial (serial order)
                raise RankDeficientSystemError("synthetic failure", condition=1e12)
            return real_design(geometry, constants, target, grid, element_model, **kw)

        monkeypatch.setattr(mc, "design_filter", flaky)
        stats = run_trials(small_config(trials=6), workers=1)
        assert len(stats.failures) == 3
        assert stats.successes == 3
        assert all(isinstance(f, TrialFailure) for f in stats.failures)
        assert [f.index for f in stats.failures] == [0, 2, 4]

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
