import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffbeam.geometry as geometry_module
from diffbeam import (
    ArrayElement,
    ArrayGeometry,
    InfeasibleGeometryError,
    PhysicalConstants,
    geometry_digest,
    sample_random_geometry,
    validate_geometry,
)
from diffbeam._seeding import trial_seeds, uniform_windows
from diffbeam.metrics import render_pattern
from diffbeam.oracles import steering_vector


def loop_sample(element_count, aperture_radius, min_spacing, seed):
    """The sampler as one ``rng.uniform`` call per double: the oracle for the
    buffered `sample_random_geometry`, which must reproduce it bit for bit."""
    if element_count * (min_spacing / 2.0) ** 2 > aperture_radius**2:
        raise InfeasibleGeometryError(
            f"{element_count} elements with {min_spacing} m spacing cannot fit "
            f"an aperture of radius {aperture_radius} m"
        )
    rng = np.random.default_rng(seed)
    min_sq = min_spacing * min_spacing
    attempts = 0
    while True:
        polar = []
        cartesian = []
        dead_end = False
        for _ in range(element_count):
            placed = False
            for _ in range(geometry_module._PLACEMENT_CAP):
                attempts += 1
                if attempts > geometry_module.SAMPLING_BUDGET:
                    raise InfeasibleGeometryError(
                        f"rejection budget of {geometry_module.SAMPLING_BUDGET} draws "
                        f"exhausted for M={element_count}, spacing={min_spacing}, "
                        f"aperture={aperture_radius}"
                    )
                radius = aperture_radius * math.sqrt(rng.uniform())
                angle = rng.uniform(0.0, 2 * math.pi)
                x, y = radius * math.cos(angle), radius * math.sin(angle)
                if all((x - px) ** 2 + (y - py) ** 2 >= min_sq for px, py in cartesian):
                    polar.append((radius, angle))
                    cartesian.append((x, y))
                    placed = True
                    break
            if not placed:
                dead_end = True
                break
        if not dead_end:
            break
    shapes = rng.uniform(0.0, 1.0, element_count)
    steers = rng.uniform(0.0, 2 * math.pi, element_count)
    elements = tuple(
        ArrayElement(r=r, phi=phi, q=float(q), theta_steer=float(t))
        for (r, phi), q, t in zip(polar, shapes, steers)
    )
    return ArrayGeometry(
        elements=elements, aperture_radius=aperture_radius, min_spacing=min_spacing
    )


_WALK_SLOTS = geometry_module._walk_slots


def spend_lead(window, steps, count, *rest):
    """`_walk_slots` reporting every walk of an attempt's leading M^2/2 + 3
    candidates as running out of window, as if each were too short to hold
    its candidates: every attempt is then placed on windows drawn again."""
    chosen, placed, resume = _WALK_SLOTS(window, steps, count, *rest)
    if steps == count * count // 2 + 3:
        return chosen, np.zeros_like(placed), np.zeros_like(resume)
    return chosen, placed, resume


def loop_outcome(element_count, aperture_radius, min_spacing, seed):
    """`loop_sample`'s element values for ``seed`` and None, or NaN values
    and the message of the `InfeasibleGeometryError` it raises."""
    try:
        geometry = loop_sample(element_count, aperture_radius, min_spacing, seed)
    except InfeasibleGeometryError as err:
        return np.full((4, element_count), np.nan), str(err)
    return geometry.element_values, None


def two_element_geometry(separation: float, min_spacing: float = 0.008):
    half = separation / 2.0
    return ArrayGeometry(
        elements=(
            ArrayElement(r=half, phi=0.0, q=0.0, theta_steer=0.0),
            ArrayElement(r=half, phi=math.pi, q=0.0, theta_steer=0.0),
        ),
        aperture_radius=0.02,
        min_spacing=min_spacing,
    )


class TestValidation:
    def test_spacing_satisfied(self):
        assert validate_geometry(two_element_geometry(0.010)).ok

    def test_spacing_violated(self):
        report = validate_geometry(two_element_geometry(0.005))
        assert not report.ok
        (pair,) = report.spacing_violations
        assert pair[:2] == (0, 1)
        assert pair[2] == pytest.approx(0.005, abs=1e-15)

    def test_out_of_aperture(self):
        geom = ArrayGeometry(
            elements=(ArrayElement(r=0.025, phi=0.0, q=0.0, theta_steer=0.0),),
            aperture_radius=0.020,
            min_spacing=0.008,
        )
        report = validate_geometry(geom)
        assert report.out_of_aperture == (0,)


class TestElementInvariants:
    def test_angle_wrapping(self):
        e = ArrayElement(r=0.01, phi=-0.25, q=0.5, theta_steer=7.0)
        assert 0.0 <= e.phi < 2 * math.pi
        assert 0.0 <= e.theta_steer < 2 * math.pi

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r=-0.01, phi=0.0, q=0.5, theta_steer=0.0),
            dict(r=0.01, phi=0.0, q=-0.1, theta_steer=0.0),
            dict(r=0.01, phi=0.0, q=1.1, theta_steer=0.0),
            dict(r=float("nan"), phi=0.0, q=0.5, theta_steer=0.0),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ArrayElement(**kwargs)

    def test_constants_must_be_positive(self):
        with pytest.raises(ValueError):
            PhysicalConstants(speed_of_sound=0.0)


def element_response(q, theta_steer, theta):
    """The first-order element model as `render_pattern` renders it: one
    element at the origin with unit weight, so no propagation phase is left."""
    element = ArrayElement(r=0.0, phi=0.0, q=q, theta_steer=theta_steer)
    values = ArrayGeometry((element,), aperture_radius=0.02, min_spacing=0.008).element_values
    pattern = render_pattern(np.ones(1, dtype=complex), values, 2 * math.pi * 1000.0,
                             np.array([theta]), 343.0)
    return complex(pattern[0])


class TestElementResponse:
    def test_omni(self):
        assert element_response(0.0, 1.0, 2.2) == 1.0

    def test_dipole_mainlobe(self):
        assert element_response(1.0, 1.3, 1.3) == pytest.approx(1.0)

    def test_cardioid_rear_null(self):
        assert element_response(0.5, 0.4, 0.4 + math.pi) == pytest.approx(0.0, abs=1e-15)

    @given(
        q=st.floats(min_value=0.0, max_value=1.0),
        steer=st.floats(min_value=0.0, max_value=2 * math.pi),
        delta=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_periodicity(self, q, steer, delta):
        left = element_response(q, steer, steer - delta)
        right = element_response(q, steer, steer + delta)
        assert left == pytest.approx(right, abs=1e-12)
        wrapped = element_response(q, steer, steer + delta + 2 * math.pi)
        assert right == pytest.approx(wrapped, abs=1e-12)


class TestSampling:
    def test_single_element(self):
        geom = sample_random_geometry(1, 0.02, 0.008, seed=42)
        assert geom.size == 1
        assert geom.elements[0].r <= 0.02

    def test_sampled_geometry_validates(self):
        geom = sample_random_geometry(9, 0.02, 0.008, seed=7)
        assert validate_geometry(geom).ok

    def test_determinism(self):
        a = sample_random_geometry(9, 0.02, 0.008, seed=7)
        b = sample_random_geometry(9, 0.02, 0.008, seed=7)
        assert a == b

    def test_distinct_seeds_differ(self):
        a = sample_random_geometry(9, 0.02, 0.008, seed=7)
        b = sample_random_geometry(9, 0.02, 0.008, seed=8)
        assert a != b

    def test_no_seed_draws_from_fresh_entropy(self):
        # as np.random.default_rng(None) does
        a = sample_random_geometry(9, 0.02, 0.008, seed=None)
        b = sample_random_geometry(9, 0.02, 0.008, seed=None)
        assert a.size == b.size == 9
        assert validate_geometry(a).ok and validate_geometry(b).ok
        assert a != b

    def test_infeasible_request_rejected_immediately(self):
        with pytest.raises(InfeasibleGeometryError):
            sample_random_geometry(50, 0.02, 0.008, seed=1)

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sampled_always_valid(self, seed):
        geom = sample_random_geometry(13, 0.02, 0.008, seed=seed)
        assert validate_geometry(geom).ok


class TestBufferedSampler:
    def test_matches_loop_oracle_bit_for_bit(self):
        for seed in range(500):
            elements = (3, 5, 7, 9, 13)[seed % 5]
            expected = loop_sample(elements, 0.02, 0.008, seed)
            got = sample_random_geometry(elements, 0.02, 0.008, seed=seed)
            assert got == expected, seed

    def test_restarts_match_loop_oracle(self):
        # at 17 elements about a third of the seeds hit a dead end (an element
        # that 2000 candidates cannot place) and restart the whole placement
        for seed in range(20):
            expected = loop_sample(17, 0.02, 0.008, seed)
            assert sample_random_geometry(17, 0.02, 0.008, seed=seed) == expected, seed

    def test_budget_exhaustion_matches_oracle(self, monkeypatch):
        # 25 elements pass the area heuristic but random placement saturates
        # near 20, so every seed runs out of draws
        monkeypatch.setattr(geometry_module, "SAMPLING_BUDGET", 20_000)
        for seed in range(3):
            with pytest.raises(InfeasibleGeometryError) as expected:
                loop_sample(25, 0.02, 0.008, seed)
            with pytest.raises(InfeasibleGeometryError) as got:
                sample_random_geometry(25, 0.02, 0.008, seed=seed)
            assert str(got.value) == str(expected.value)
            assert "budget of 20000 draws exhausted" in str(got.value)

    @pytest.mark.parametrize("seed", [2**64 + 5, 2**100])
    def test_seeds_past_64_bits_match_loop_oracle(self, seed):
        # three and four entropy words: each seed is hashed at its own width
        for elements in (1, 9, 13):
            expected = loop_sample(elements, 0.02, 0.008, seed)
            assert sample_random_geometry(elements, 0.02, 0.008, seed=seed) == expected

    @pytest.mark.parametrize("count", [5.5, 3.7, 5.0, True, 0, -2])
    def test_count_that_is_no_integer_past_zero_refused(self, count):
        message = re.escape(f"element_count must be an integer >= 1, got {count!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_random_geometry(count, 0.02, 0.008, seed=1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            geometry_module.sample_element_stack(count, 0.02, 0.008, [1, 2])

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 1, 2**64 + 5])
    def test_window_at_an_offset_matches_default_rng(self, seed):
        skips = np.array([0, 1, 2, 3000, 2 * geometry_module.SAMPLING_BUDGET])
        windows = uniform_windows([seed] * skips.size, 6, skips)
        for window, skip in zip(windows, skips.tolist()):
            expected = np.random.default_rng(seed).random(skip + 6)[skip:]
            assert window.tobytes() == expected.tobytes(), skip

    # the patches of each mode: the stacked sampler on its own; with every
    # walk of an attempt's lead spent, so that every attempt is placed on
    # windows drawn again; and with a near-threshold band that takes in
    # every distance, so that every decision is taken in math
    MODES = {
        "window": {},
        "short-window": {"_walk_slots": spend_lead},
        "wide-band": {"_NEAR_SPACING": math.inf},
    }

    @staticmethod
    def stack_sample(mode, element_count, seeds):
        """`sample_element_stack` over ``seeds`` at the desk aperture in
        ``mode``, and the number of attempts its walks restarted; asserts
        that the wide band decides the placements in math."""
        restarts, decided = [], []

        def logged_walk(*args):
            chosen, placed, resume = walk(*args)
            restarts.append(np.count_nonzero(resume))
            return chosen, placed, resume

        def logged_decide(window, rows, *rest):
            decided.append(rows.size)
            return decide(window, rows, *rest)

        with pytest.MonkeyPatch.context() as patch:
            for name, value in TestBufferedSampler.MODES[mode].items():
                patch.setattr(geometry_module, name, value)
            walk, decide = geometry_module._walk_slots, geometry_module._clear_in_math
            patch.setattr(geometry_module, "_walk_slots", logged_walk)
            patch.setattr(geometry_module, "_clear_in_math", logged_decide)
            values, reasons = geometry_module.sample_element_stack(
                element_count, 0.02, 0.008, seeds
            )
        # every placed element past a trial's first is a candidate decided in math
        if mode == "wide-band":
            assert sum(decided) >= (element_count - 1) * len(seeds)
        return values, reasons, sum(restarts)

    def assert_matches_loop_oracle(self, mode, element_count, seeds):
        """The stack's values and reasons are `loop_sample`'s, bit for bit;
        returns the reasons and the number of attempts its walks restarted."""
        values, reasons, restarts = self.stack_sample(mode, element_count, seeds)
        for t, seed in enumerate(seeds):
            expected, reason = loop_outcome(element_count, 0.02, 0.008, seed)
            assert reasons[t] == reason, (element_count, seed)
            assert values[:, t].tobytes() == expected.tobytes(), (element_count, seed)
        return reasons, restarts

    @pytest.mark.parametrize("mode", MODES)
    def test_stack_matches_loop_oracle_bit_for_bit(self, mode):
        restarts = [self.assert_matches_loop_oracle(mode, elements, range(30))[1]
                    for elements in range(1, 18)]
        # trials restart at 15 and 17 elements, and at no count up to 13
        assert restarts[14] > 0 and restarts[16] > 0
        assert restarts[:13] == [0] * 13

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("batch", [1, 2, 8, 15])
    def test_small_batches_match_loop_oracle(self, mode, batch):
        # every batch size runs through the stack, down to a single seed
        for elements in range(1, 18):
            self.assert_matches_loop_oracle(mode, elements, range(1000, 1000 + batch))

    @pytest.mark.parametrize("mode", MODES)
    def test_stack_restarts_match_loop_oracle(self, mode):
        assert self.assert_matches_loop_oracle(mode, 17, range(20))[1] > 0

    @pytest.mark.parametrize("mode", MODES)
    def test_stack_budget_exhaustion_matches_oracle(self, monkeypatch, mode):
        # every seed restarts a few times before it runs out of draws
        monkeypatch.setattr(geometry_module, "SAMPLING_BUDGET", 20_000)
        reasons, restarts = self.assert_matches_loop_oracle(mode, 25, range(3))
        assert all("budget of 20000 draws exhausted" in reason for reason in reasons)
        assert restarts >= 3 * len(reasons)

    @pytest.mark.parametrize("budget", [1, 20, 60, 2_500, 6_000])
    def test_budget_cutting_a_window_matches_oracle(self, monkeypatch, budget):
        # a budget inside the lead, inside a doubled window and past a
        # restart each refuse some trials and place others as the oracle does
        monkeypatch.setattr(geometry_module, "SAMPLING_BUDGET", budget)
        for elements in (1, 5, 9, 13, 17):
            self.assert_matches_loop_oracle("window", elements, range(40))

    CAP = geometry_module._PLACEMENT_CAP

    @pytest.mark.parametrize(
        "clear_at, steps, placed, resume",
        [
            pytest.param(CAP, CAP + 1, True, 0, id="placed-at-the-cap"),
            pytest.param(CAP + 1, CAP + 2, False, CAP + 1, id="dead-end-past-the-cap"),
            pytest.param(None, CAP + 1, False, CAP + 1, id="dead-end-at-the-window-end"),
            pytest.param(None, CAP, False, 0, id="ran-out-before-the-cap"),
        ],
    )
    def test_dead_end_needs_the_caps_last_candidate(self, clear_at, steps, placed, resume):
        # every candidate lies on candidate 0 but the one at clear_at, across
        # the aperture: the second element is that one, if the cap allows
        window = np.full((1, 2 * (steps + 2)), 0.25)
        window[0, 1::2] = 0.0
        if clear_at is not None:
            window[0, 2 * clear_at : 2 * clear_at + 2] = (0.99, 0.5)
        chosen, got_placed, got_resume = geometry_module._walk_slots(
            window, steps, 2, 0.02, 0.008
        )
        assert got_placed.tolist() == [placed]
        assert got_resume.tolist() == [resume]
        if placed:
            assert chosen.tolist() == [[0, clear_at]]

    @staticmethod
    def drawn_windows(monkeypatch):
        """Patch `uniform_windows` to log each call's (seeds, width)."""
        windows = geometry_module.uniform_windows
        drawn = []

        def counted(batch_seeds, width, skips):
            drawn.append((batch_seeds.tolist(), width))
            return windows(batch_seeds, width, skips)

        monkeypatch.setattr(geometry_module, "uniform_windows", counted)
        return drawn

    def test_batches_of_the_budget_match_one_batch(self, monkeypatch):
        seeds = np.arange(30, dtype=np.uint64)
        drawn = self.drawn_windows(monkeypatch)
        for elements in (1, 5, 9, 13, 17):
            whole = geometry_module.sample_element_stack(elements, 0.02, 0.008, seeds)
            # the first pass draws the leading windows, for every trial
            width = 2 * (elements * elements // 2 + 3 + elements)
            assert (len(drawn[0][0]), drawn[0][1]) == (30, width)
            drawn.clear()
            # ten trials' first windows to a batch
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geometry_module, "SAMPLE_BATCH_DOUBLES", 10 * width)
                values, reasons = geometry_module.sample_element_stack(
                    elements, 0.02, 0.008, seeds
                )
            assert [(len(trials), w) for trials, w in drawn[:3]] == [(10, width)] * 3
            assert values.tobytes() == whole[0].tobytes()
            assert reasons == whole[1]
            drawn.clear()

    def test_every_pass_keeps_its_windows_to_the_budget(self, monkeypatch):
        # 15 elements send trials through redrawn windows and restarts; a
        # budget of a few windows splits every pass into batches
        seeds = trial_seeds(4242, 0, 200)
        whole = geometry_module.sample_element_stack(15, 0.02, 0.008, seeds)
        budget = 4096
        monkeypatch.setattr(geometry_module, "SAMPLE_BATCH_DOUBLES", budget)
        drawn = self.drawn_windows(monkeypatch)
        values, reasons = geometry_module.sample_element_stack(15, 0.02, 0.008, seeds)
        assert values.tobytes() == whole[0].tobytes()
        assert reasons == whole[1]
        # a pass walks each pending trial once, so a seed drawn again starts
        # the next pass; a pass draws the trials of each S as one group
        assert len(set(seeds.tolist())) == seeds.size
        passes, seen = [], set()
        for batch_seeds, width in drawn:
            if not passes or seen & set(batch_seeds):
                passes.append({})
                seen = set()
            seen |= set(batch_seeds)
            passes[-1].setdefault(width, []).append(len(batch_seeds))
        for groups in passes:
            for width, batches in groups.items():
                # every batch of a group but its last is as full as the budget allows
                full = max(1, budget // width)
                assert batches[:-1] == [full] * (len(batches) - 1), width
                assert batches[-1] <= full, width
        # a walk takes S candidates over windows of 2(S + M) doubles, S the
        # lead doubled; a walk that finds a dead end reaches past the cap
        widths = sorted({width for groups in passes for width in groups})
        steps = [width // 2 - 15 for width in widths]
        assert steps == [(15 * 15 // 2 + 3) << k for k in range(len(steps))]
        assert steps[-1] > geometry_module._PLACEMENT_CAP
        # the first pass is split, and a pass on redrawn windows as well
        assert len(passes[0][widths[0]]) > 1
        assert any(len(batches) > 1 for groups in passes[1:]
                   for width, batches in groups.items() if width > widths[0])

    @pytest.mark.parametrize("aperture, spacing", [(0.02, 0.008), (0.03, 0.008), (0.02, 0.006)])
    def test_lead_walk_matches_whole_window_walk(self, monkeypatch, aperture, spacing):
        # a walk takes the candidates its window holds, and a trial whose
        # candidates run out walks more in a later pass; windows twice as
        # wide, each walked whole, must take the same candidates
        seeds = trial_seeds(4242, 0, 700)
        walk, windows = geometry_module._walk_slots, geometry_module.uniform_windows

        def wide_windows(batch_seeds, width, skips):
            return windows(batch_seeds, 2 * width, skips)

        def whole_window(window, steps, count, *rest):
            return walk(window, window.shape[1] // 2 - count, count, *rest)

        placed_by_lead = placed_later = 0
        for elements in range(3, 18):
            walks = []

            def counted(window, steps, *rest):
                walks.append((steps, *walk(window, steps, *rest)))
                return walks[-1][1:]

            stacks = []
            for patches in ({"_walk_slots": counted},
                            {"_walk_slots": whole_window, "uniform_windows": wide_windows}):
                with pytest.MonkeyPatch.context() as patch:
                    for name, value in patches.items():
                        patch.setattr(geometry_module, name, value)
                    stacks.append(geometry_module.sample_element_stack(
                        elements, aperture, spacing, seeds
                    ))
            assert stacks[0][0].tobytes() == stacks[1][0].tobytes(), elements
            assert stacks[0][1] == stacks[1][1] == [None] * seeds.size
            lead = elements * elements // 2 + 3
            for steps, _, placed, _ in walks:
                if steps == lead:
                    placed_by_lead += np.count_nonzero(placed)
                else:
                    placed_later += np.count_nonzero(placed)
        assert placed_by_lead > 0 and placed_later > 0

    @pytest.mark.parametrize("master", [1, 4242, 2**40 + 7])
    @pytest.mark.parametrize("elements", [9, 11, 13, 15])
    def test_stack_of_500_matches_loop_oracle(self, master, elements):
        # two-word seeds, in passes that group the pending trials by S
        seeds = trial_seeds(master, 0, 500)
        values, reasons = geometry_module.sample_element_stack(elements, 0.02, 0.008, seeds)
        assert reasons == [None] * seeds.size
        for t, seed in enumerate(seeds.tolist()):
            expected, _ = loop_outcome(elements, 0.02, 0.008, seed)
            assert values[:, t].tobytes() == expected.tobytes(), (elements, seed)

    def test_element_values_rows(self):
        values, reasons = geometry_module.sample_element_stack(9, 0.02, 0.008, [4])
        geom = sample_random_geometry(9, 0.02, 0.008, seed=4)
        assert reasons == [None]
        assert np.array_equal(values[:, 0], geom.element_values)
        assert np.all((values[1] < 2 * math.pi) & (values[3] < 2 * math.pi))


class TestCachedArrays:
    @pytest.mark.parametrize("name", ["element_values", "positions"])
    def test_built_once_and_read_only(self, name):
        geom = sample_random_geometry(5, 0.02, 0.008, seed=3)
        array = getattr(geom, name)
        assert getattr(geom, name) is array
        with pytest.raises(ValueError):
            array[0] = 1.0

    def test_match_elements(self):
        geom = sample_random_geometry(5, 0.02, 0.008, seed=3)
        assert geom.element_values.tolist() == [
            [e.r for e in geom.elements],
            [e.phi for e in geom.elements],
            [e.q for e in geom.elements],
            [e.theta_steer for e in geom.elements],
        ]
        assert geom.positions.tolist() == [list(e.position) for e in geom.elements]


class TestSteeringVector:
    def test_zero_frequency_is_ones(self, constants):
        geom = sample_random_geometry(5, 0.02, 0.008, seed=3)
        vec = steering_vector(geom, constants, 0.0, 1.234)
        assert np.allclose(vec, 1.0)

    def test_frozen_phase_example(self, constants):
        # r = 2 cm on the x-axis, f = 1 kHz, wave from theta = 0
        geom = ArrayGeometry(
            elements=(ArrayElement(r=0.02, phi=0.0, q=0.0, theta_steer=0.0),),
            aperture_radius=0.02,
            min_spacing=0.008,
        )
        vec = steering_vector(geom, constants, 2 * math.pi * 1000.0, 0.0)
        phase = 2 * math.pi * 1000.0 * 0.02 / 343.0
        assert vec[0] == pytest.approx(complex(math.cos(phase), math.sin(phase)), abs=1e-15)
        assert phase == pytest.approx(0.36636649021455314, abs=1e-15)

    @given(
        omega=st.floats(min_value=0.0, max_value=2 * math.pi * 8000.0),
        theta=st.floats(min_value=-10.0, max_value=10.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus(self, constants, omega, theta, seed):
        geom = sample_random_geometry(4, 0.02, 0.008, seed=seed)
        vec = steering_vector(geom, constants, omega, theta)
        assert np.max(np.abs(np.abs(vec) - 1.0)) < 1e-14

    def test_vectorized_matches_scalar(self, constants):
        geom = sample_random_geometry(6, 0.02, 0.008, seed=11)
        thetas = np.linspace(0.0, 2 * np.pi, 17, endpoint=False)
        matrix = steering_vector(geom, constants, 5000.0, thetas)
        assert matrix.shape == (6, 17)
        for k, theta in enumerate(thetas):
            assert np.array_equal(matrix[:, k], steering_vector(geom, constants, 5000.0, theta))

    def test_negative_omega_rejected(self, constants):
        geom = sample_random_geometry(2, 0.02, 0.008, seed=5)
        with pytest.raises(ValueError):
            steering_vector(geom, constants, -1.0, 0.0)


class TestDigest:
    def test_stable_and_sensitive(self):
        geom = sample_random_geometry(5, 0.02, 0.008, seed=9)
        assert geometry_digest(geom) == geometry_digest(geom)
        other = sample_random_geometry(5, 0.02, 0.008, seed=10)
        assert geometry_digest(geom) != geometry_digest(other)

    def test_element_order_matters(self):
        geom = sample_random_geometry(3, 0.02, 0.008, seed=9)
        swapped = ArrayGeometry(
            elements=(geom.elements[1], geom.elements[0], geom.elements[2]),
            aperture_radius=geom.aperture_radius,
            min_spacing=geom.min_spacing,
        )
        assert geometry_digest(geom) != geometry_digest(swapped)
