import math

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


def settle_none(*args):
    """`_walk_slots` leaving every trial unsettled, and none spent, so that
    the stacked sampler hands every trial to the single-geometry sampler."""
    chosen, settled, spent = _WALK_SLOTS(*args)
    return chosen, np.zeros_like(settled), np.zeros_like(spent)


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

    # the stacked sampler on its own; with first windows too short to hold a
    # candidate, so that every trial is placed on redrawn windows; with
    # every trial handed over to the single-geometry sampler by a walk that
    # settles none; and with every trial of two or more elements handed
    # over by a near-threshold band that takes in every distance
    HAND_OVERS = {
        "window": {},
        "short-window": {"STACK_WINDOW": 2},
        "unwalked": {"_walk_slots": settle_none},
        "wide-band": {"_NEAR_SPACING": math.inf},
    }

    @staticmethod
    def stack_sample(hand_over, element_count, seeds):
        """`sample_element_stack` over ``seeds`` at the desk aperture; asserts
        that the hand-over mode sent every trial it must to the single sampler,
        and that from 8 seeds and up to 9 elements the stack settles some
        trials in the other modes."""
        single = geometry_module.sample_element_values
        handed_over = []

        def counted(*args):
            handed_over.append(args[3])
            return single(*args)

        with pytest.MonkeyPatch.context() as patch:
            for name, value in TestBufferedSampler.HAND_OVERS[hand_over].items():
                patch.setattr(geometry_module, name, value)
            patch.setattr(geometry_module, "sample_element_values", counted)
            values, reasons = geometry_module.sample_element_stack(
                element_count, 0.02, 0.008, np.asarray(seeds, dtype=np.uint64)
            )
        if hand_over == "unwalked" or (hand_over == "wide-band" and element_count > 1):
            assert handed_over == list(seeds)
        elif len(seeds) >= 8 and element_count <= 9:
            assert len(handed_over) < len(seeds)
        return values, reasons

    @pytest.mark.parametrize("hand_over", HAND_OVERS)
    def test_stack_matches_loop_oracle_bit_for_bit(self, hand_over):
        seeds = range(30)
        for elements in range(1, 18):
            values, reasons = self.stack_sample(hand_over, elements, seeds)
            assert reasons == [None] * len(seeds)
            for t, seed in enumerate(seeds):
                expected = loop_sample(elements, 0.02, 0.008, seed).element_values
                assert np.array_equal(values[:, t], expected), (elements, seed)

    @pytest.mark.parametrize("hand_over", HAND_OVERS)
    @pytest.mark.parametrize("batch", [1, 2, 8, 15])
    def test_small_batches_match_loop_oracle(self, hand_over, batch):
        # every batch size runs through the stack, down to a single seed
        seeds = range(1000, 1000 + batch)
        for elements in range(1, 18):
            values, reasons = self.stack_sample(hand_over, elements, seeds)
            assert reasons == [None] * batch
            for t, seed in enumerate(seeds):
                expected = loop_sample(elements, 0.02, 0.008, seed).element_values
                assert np.array_equal(values[:, t], expected), (elements, seed)

    @staticmethod
    def drawn_windows(monkeypatch):
        """Patch `uniform_windows` to log each call's (trials, width)."""
        windows = geometry_module.uniform_windows
        drawn = []

        def counted(batch_seeds, width):
            drawn.append((len(batch_seeds), width))
            return windows(batch_seeds, width)

        monkeypatch.setattr(geometry_module, "uniform_windows", counted)
        return drawn

    def test_batches_of_the_budget_match_one_batch(self, monkeypatch):
        seeds = np.arange(30, dtype=np.uint64)
        drawn = self.drawn_windows(monkeypatch)
        for elements in (1, 5, 9, 13, 17):
            width = geometry_module.STACK_WINDOW * elements
            whole = geometry_module.sample_element_stack(elements, 0.02, 0.008, seeds)
            assert [trials for trials, drawn_width in drawn if drawn_width == width] == [30]
            drawn.clear()
            # ten trials' first windows to a batch
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geometry_module, "SAMPLE_BATCH_DOUBLES", 10 * width)
                values, reasons = geometry_module.sample_element_stack(
                    elements, 0.02, 0.008, seeds
                )
            assert [trials for trials, drawn_width in drawn if drawn_width == width] == [10] * 3
            assert values.tobytes() == whole[0].tobytes()
            assert reasons == whole[1]
            drawn.clear()

    def test_every_pass_keeps_its_windows_to_the_budget(self, monkeypatch):
        # 15 elements send trials through redrawn windows up to the cap; a
        # budget of a few windows splits every pass into batches
        seeds = trial_seeds(4242, 0, 200)
        whole = geometry_module.sample_element_stack(15, 0.02, 0.008, seeds)
        budget = 4096
        monkeypatch.setattr(geometry_module, "SAMPLE_BATCH_DOUBLES", budget)
        drawn = self.drawn_windows(monkeypatch)
        values, reasons = geometry_module.sample_element_stack(15, 0.02, 0.008, seeds)
        assert values.tobytes() == whole[0].tobytes()
        assert reasons == whole[1]
        passes = {}
        for trials, width in drawn:
            passes.setdefault(width, []).append(trials)
        widths = sorted(passes)
        assert widths[0] == geometry_module.STACK_WINDOW * 15 and len(widths) >= 3
        for width, batches in passes.items():
            # every batch of a pass but its last is as full as the budget allows
            assert batches[:-1] == [budget // width] * (len(batches) - 1), width
            assert batches[-1] * width <= budget, width
        # a pass on redrawn windows is split as well
        assert any(len(passes[width]) > 1 for width in widths[1:])

    @pytest.mark.parametrize("hand_over", HAND_OVERS)
    def test_stack_restarts_match_loop_oracle(self, hand_over):
        seeds = range(20)
        values, reasons = self.stack_sample(hand_over, 17, seeds)
        assert reasons == [None] * len(seeds)
        for t, seed in enumerate(seeds):
            expected = loop_sample(17, 0.02, 0.008, seed)
            assert np.array_equal(values[:, t], expected.element_values), seed

    @pytest.mark.parametrize("hand_over", HAND_OVERS)
    def test_stack_budget_exhaustion_matches_oracle(self, monkeypatch, hand_over):
        seeds = range(3)
        monkeypatch.setattr(geometry_module, "SAMPLING_BUDGET", 20_000)
        expected = []
        for seed in seeds:
            with pytest.raises(InfeasibleGeometryError) as error:
                loop_sample(25, 0.02, 0.008, seed)
            expected.append(str(error.value))
        values, reasons = self.stack_sample(hand_over, 25, seeds)
        assert reasons == expected
        assert all("budget of 20000 draws exhausted" in reason for reason in reasons)
        assert np.isnan(values).all()

    @pytest.mark.parametrize("aperture, spacing", [(0.02, 0.008), (0.03, 0.008), (0.02, 0.006)])
    def test_lead_walk_matches_whole_window_walk(self, monkeypatch, aperture, spacing):
        # a trial walks its lead first and more candidates only when the
        # lead runs out; either way it must take the candidates, and settle,
        # as a first walk over its whole window does. A trial handed over
        # gets its seed in every value, so the stacks show which were
        monkeypatch.setattr(
            geometry_module, "sample_element_values",
            lambda count, aperture, spacing, seed: np.full((4, count), float(seed)),
        )
        seeds = trial_seeds(4242, 0, 700)
        walk = geometry_module._walk_slots
        settled_by_lead = rewalked_and_settled = 0
        for elements in range(3, 18):
            walks = []

            def counted(*args):
                walks.append(walk(*args))
                return walks[-1]

            def whole_window(window, steps, count, *rest):
                held = window.shape[1] // 2 - count
                return walk(window, max(steps, held), count, *rest)

            stacks = []
            for walker in (counted, whole_window):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(geometry_module, "_walk_slots", walker)
                    stacks.append(geometry_module.sample_element_stack(
                        elements, aperture, spacing, seeds
                    )[0])
            assert stacks[0].tobytes() == stacks[1].tobytes(), elements
            (_, lead_settled, _), *rewalks = walks
            settled_by_lead += np.count_nonzero(lead_settled)
            rewalked_and_settled += sum(np.count_nonzero(settled) for _, settled, _ in rewalks)
        assert settled_by_lead > 0 and rewalked_and_settled > 0

    @pytest.mark.parametrize("master", [1, 4242, 2**40 + 7])
    @pytest.mark.parametrize("elements", [9, 11, 13, 15])
    def test_stack_of_500_matches_single_sampler(self, master, elements):
        seeds = trial_seeds(master, 0, 500)
        values, reasons = geometry_module.sample_element_stack(elements, 0.02, 0.008, seeds)
        assert reasons == [None] * seeds.size
        for t, seed in enumerate(seeds.tolist()):
            expected = geometry_module.sample_element_values(elements, 0.02, 0.008, seed)
            assert values[:, t].tobytes() == expected.tobytes(), (elements, seed)

    def test_thirteen_elements_rarely_reach_the_single_sampler(self, monkeypatch):
        # a trial that runs out of candidates walks a longer window; only a
        # near-threshold tie or a restart is sampled again from scratch
        single = geometry_module.sample_element_values
        handed_over = []

        def counted(*args):
            handed_over.append(args[3])
            return single(*args)

        monkeypatch.setattr(geometry_module, "sample_element_values", counted)
        seeds = trial_seeds(4242, 0, 500)
        geometry_module.sample_element_stack(13, 0.02, 0.008, seeds)
        assert len(handed_over) <= 5

    def test_element_values_rows(self):
        values = geometry_module.sample_element_values(9, 0.02, 0.008, seed=4)
        geom = sample_random_geometry(9, 0.02, 0.008, seed=4)
        assert np.array_equal(values, geom.element_values)
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
