import tracemalloc
import types

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
    design_filter,
    run_trials,
    sample_random_geometry,
    trial_seed,
)
from diffbeam._seeding import trial_seeds, uniform_windows
from diffbeam.fileio import pattern_from_config
from diffbeam.geometry import STACK_WINDOW
from diffbeam.metrics import (
    coefficient_gains,
    filter_coefficients,
    magnitude_db,
    parseval_reach,
    power_db,
)
from diffbeam.montecarlo import TrialFailure
from tests.test_rank_gate import HIGH_ORDER_GRID, STUDY_SEED


def small_config(order=1, **overrides):
    """An 8-trial study of the steered order-``order`` hypercardioid, its
    target read as a run config's pattern section is."""
    target, _, _ = pattern_from_config(
        {"family": "hypercardioid", "order": order, "steer_deg": 60.0}
    )
    defaults = dict(
        trials=8,
        element_count=5,
        target=target,
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

    def test_trials_below_two_to_the_32(self):
        # every trial index is one seed word; nothing is allocated for the trials up front
        assert small_config(trials=2**32 - 1).trials == 2**32 - 1
        with pytest.raises(ValueError, match=r"^trials must be below 2\*\*32, got 4294967296$"):
            small_config(trials=2**32)

    @pytest.mark.parametrize("db_floor", [7000.0, 1e308])
    def test_floor_whose_amplitude_overflows_refused(self, db_floor):
        with pytest.raises(ValueError, match="^db_floor must be finite and at most about 6165.09"):
            small_config(db_floor=db_floor)

    def test_eval_frequency_must_be_on_grid(self):
        with pytest.raises(ValueError):
            small_config(eval_frequency_hz=1234.0)

    def test_unknown_element_model_refused(self):
        with pytest.raises(ValueError, match="unknown element model 'cardioid'"):
            small_config(element_model="cardioid")


class TestKeepFreedMemory:
    @pytest.fixture(autouse=True)
    def fresh_call(self, monkeypatch):
        monkeypatch.setattr(mc.platform, "libc_ver", lambda: ("glibc", "2.36"))
        mc.keep_freed_memory.cache_clear()
        yield
        mc.keep_freed_memory.cache_clear()

    def test_missing_mallopt_is_a_silent_no_op(self, monkeypatch):
        monkeypatch.setattr(mc.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert mc.keep_freed_memory() is False

    def test_other_libc_is_left_alone(self, monkeypatch):
        def unreachable(name):
            raise AssertionError("looked up mallopt outside glibc")

        monkeypatch.setattr(mc.platform, "libc_ver", lambda: ("", ""))
        monkeypatch.setattr(mc.ctypes, "CDLL", unreachable)
        assert mc.keep_freed_memory() is False

    def test_second_call_does_nothing(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(
            mc.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt)
        )
        assert mc.keep_freed_memory() is True
        assert mc.keep_freed_memory() is True
        assert calls == [(-3, 32 << 20), (-1, 128 << 20)]


# one-word masters at both ends of the word, two-, three- and four-word masters
SEED_MASTERS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 5, 2**100]
MASTER_IDS = ["0", "1", "2^31-1", "2^32-1", "2^32", "2^40+7", "2^64+5", "2^100"]


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert trial_seed(99, 0) == trial_seed(99, 0)
        seeds = {trial_seed(99, t) for t in range(100)}
        assert len(seeds) == 100
        assert trial_seed(99, 0) != trial_seed(100, 0)

    @pytest.mark.parametrize("master", SEED_MASTERS, ids=MASTER_IDS)
    def test_stacked_seeds_match_seed_sequence(self, master):
        expected = [
            int(np.random.SeedSequence([master, i]).generate_state(1, np.uint64)[0])
            for i in range(2048)
        ]
        assert trial_seeds(master, 0, 2048).tolist() == expected

    @pytest.mark.parametrize("master", SEED_MASTERS, ids=MASTER_IDS)
    def test_stacked_streams_match_default_rng(self, master):
        width = STACK_WINDOW * 9
        windows = uniform_windows(trial_seeds(master, 0, 2048), width)
        for i, window in enumerate(windows):
            expected = np.random.default_rng(trial_seed(master, i)).random(width)
            assert np.array_equal(window, expected), i

    @pytest.mark.parametrize("index", [2**32 - 1, 2**32], ids=["2^32-1", "2^32"])
    def test_index_past_one_word(self, index):
        # every trial index is one seed word: 2**32 - 1 is the last, 2**32 is refused
        if index == 2**32:
            refused = r"^trial indices must run from 0 to 2\*\*32 - 1, got range\("
            for master in SEED_MASTERS:
                with pytest.raises(ValueError, match=refused):
                    trial_seed(master, index)
            with pytest.raises(ValueError, match=refused):
                trial_seeds(7, index - 2, index + 1)
            return
        for master in SEED_MASTERS:
            sequence = np.random.SeedSequence([master, index])
            assert trial_seed(master, index) == int(sequence.generate_state(1, np.uint64)[0])
        assert trial_seeds(7, index - 2, index + 1).tolist() == [
            trial_seed(7, i) for i in range(index - 2, index + 1)
        ]


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
    target = config.target
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
        coefficients = filter_coefficients(filt, geometry, constants)
        gains = coefficient_gains(coefficients, filt.weights, filt.theta_s)
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
        for failure in stats.failures:
            geometry = sample_random_geometry(
                7, 0.02, 0.008, seed=trial_seed(STUDY_SEED, failure.index)
            )
            with pytest.raises(RankDeficientSystemError) as err:
                design_filter(geometry, PhysicalConstants(), config.target, HIGH_ORDER_GRID)
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
        harmonics = 2 * parseval_reach(config.target.order, 0.0, 0.0, config.speed_of_sound) + 1
        assert angle_count > 300 or harmonics > angle_count
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


class TestChunkSizes:
    """A trial is budgeted the larger of its harmonic tensor and its pattern,
    since the tensor is freed before the pattern is built."""

    def test_desk_grid_is_sized_by_its_tensor(self):
        # 9 elements x 80 points x 43 harmonics = 30,960 values a trial
        config = small_config(
            element_count=9, order=2, grid=FrequencyGrid(50.0, 4000.0, 80), angle_count=360
        )
        assert _harmonic_count(config) == 43
        assert mc.chunk_trials(config) == 2

    def test_one_point_grid_is_sized_by_its_pattern(self):
        # 9 elements x 33 harmonics = 297 values, fewer than the 360 angles
        config = small_config(trials=500, element_count=9, order=2, angle_count=360)
        assert _harmonic_count(config) == 33
        assert mc.chunk_trials(config) == 182

    def test_four_hundred_trials_run_as_three_chunks(self):
        config = small_config(trials=400, element_count=7, order=3, angle_count=360)
        size = mc.chunk_trials(config)
        assert size == 182 and -(-config.trials // size) == 3 and config.trials % size != 0


def _harmonic_count(config) -> int:
    return 2 * parseval_reach(
        config.target.order, float(np.max(config.grid.omegas)), config.aperture_radius,
        config.speed_of_sound,
    ) + 1


class TestChunkBoundaries:
    """Every trial is scored over the harmonics of the whole study, so the
    statistics and failures are the same bits whatever the chunk size and
    however many workers run the chunks."""

    # trials the patched sampler fails: the first, both sides of the first
    # boundary of 7-trial chunks, and both neighbours of each of the rank
    # gate's refusals of the N3 M7 band study's first 60 trials, 43 and 55
    UNSAMPLED = (0, 6, 7, 42, 44, 54, 56)

    @staticmethod
    def fail_sampling(monkeypatch, config, indices):
        """Patch the sampler so that the trials ``indices`` come back unsampled."""
        seeds = trial_seeds(config.master_seed, 0, config.trials)
        failing = {int(seeds[i]) for i in indices}
        sample = mc.sample_element_stack

        def sampler(element_count, aperture_radius, min_spacing, batch_seeds):
            values, reasons = sample(element_count, aperture_radius, min_spacing, batch_seeds)
            for t, seed in enumerate(batch_seeds):
                if int(seed) in failing:
                    values[:, t] = np.nan
                    reasons[t] = f"seed {int(seed)} not sampled"
            return values, reasons

        monkeypatch.setattr(mc, "sample_element_stack", sampler)

    @pytest.mark.parametrize(
        "study", ["n2_m9_1khz", "desk_grid", "n3_m7_band", "omni", "unsampled_beside_refused"]
    )
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
            "unsampled_beside_refused": lambda: study_n3_m7(trials=60),
        }[study]()
        if study == "unsampled_beside_refused":
            self.fail_sampling(monkeypatch, config, self.UNSAMPLED)
        runs = []
        for size in (1, 7, 1000):
            monkeypatch.setattr(mc, "chunk_trials", lambda config, size=size: size)
            for workers in (1, 2):
                runs.append(run_trials(config, workers=workers))
        first = runs[0]
        if study in ("n3_m7_band", "omni"):
            assert first.failures
        if study == "unsampled_beside_refused":
            seeds = trial_seeds(config.master_seed, 0, config.trials)
            assert [f.index for f in first.failures] == sorted(self.UNSAMPLED + (43, 55))
            for failure in first.failures:
                if failure.index in self.UNSAMPLED:
                    assert failure.reason == f"seed {seeds[failure.index]} not sampled"
                else:
                    assert failure.reason.startswith("modal system is rank deficient")
        for other in runs[1:]:
            assert other.failures == first.failures
            for name in STAT_NAMES:
                assert getattr(other, name).tobytes() == getattr(first, name).tobytes(), name


class TestInPlaceStatistics:
    """Each statistic is reduced in place on its one table of trial rows, by
    the ufuncs ``np.mean`` and ``np.std`` run, so it is their bits."""

    @pytest.mark.parametrize("rows", [1, 2, 500])
    @pytest.mark.parametrize("columns", [1, 80])
    def test_equal_numpy_mean_and_std(self, rows, columns):
        rng = np.random.default_rng(1000 * rows + columns)
        table = rng.normal(-10.0, 8.0, (rows, columns)) * 10.0 ** rng.uniform(-3, 2, columns)
        table[rng.random(table.shape) < 0.1] = -120.0  # rows clamped at the floor
        table[:, 0] = 7.25  # a column with no spread
        want = np.mean(table, axis=0), np.std(table, axis=0)
        got = mc._mean_std(table.copy())
        for g, w in zip(got, want):
            assert g.shape == (columns,) and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(
                lambda: study_n3_m7(grid=FrequencyGrid(300.0, 300.0, 1), eval_frequency_hz=300.0),
                id="one-point",
            ),
            pytest.param(
                # trial 264 is refused at 50 Hz
                lambda: small_config(
                    trials=500, element_count=5, order=2,
                    grid=FrequencyGrid(50.0, 4000.0, 80), master_seed=12345, angle_count=360,
                ),
                id="desk-grid",
            ),
        ],
    )
    def test_run_trials_reduces_the_joined_rows(self, monkeypatch, config):
        config = config()
        tables = []
        mean_std = mc._mean_std

        def spy(table):
            tables.append(table.copy())
            return mean_std(table)

        monkeypatch.setattr(mc, "_mean_std", spy)
        stats = run_trials(config)
        assert stats.failures
        assert [table.shape for table in tables] == [
            (stats.successes, config.angle_count),
            (stats.successes, config.grid.count),
            (stats.successes, config.grid.count),
        ]
        for name, table in zip(("bp", "wng", "df"), tables):
            assert getattr(stats, f"{name}_mean_db").tobytes() == np.mean(table, axis=0).tobytes()
            assert getattr(stats, f"{name}_std_db").tobytes() == np.std(table, axis=0).tobytes()

    def test_traced_peak_of_a_one_point_study(self):
        # 500 trials at N = 3, M = 7 on one point run as three chunks of up to
        # 182; with every chunk and reduction temporary held once the traced
        # peak was 3.09 MB, against 4.54 MB with the padded fold, the
        # out-of-place dB steps and the deviation table
        config = study_n3_m7(
            trials=500, grid=FrequencyGrid(1000.0, 1000.0, 1), eval_frequency_hz=1000.0
        )
        run_trials(config)
        tracemalloc.start()
        try:
            run_trials(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.8e6


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
