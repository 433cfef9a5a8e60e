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


class TestElementResponse:
    def test_omni(self):
        e = ArrayElement(r=0.0, phi=0.0, q=0.0, theta_steer=1.0)
        assert e.response(2.2) == 1.0

    def test_dipole_mainlobe(self):
        e = ArrayElement(r=0.0, phi=0.0, q=1.0, theta_steer=1.3)
        assert e.response(1.3) == pytest.approx(1.0)

    def test_cardioid_rear_null(self):
        e = ArrayElement(r=0.0, phi=0.0, q=0.5, theta_steer=0.4)
        assert e.response(0.4 + math.pi) == pytest.approx(0.0, abs=1e-15)

    @given(
        q=st.floats(min_value=0.0, max_value=1.0),
        steer=st.floats(min_value=0.0, max_value=2 * math.pi),
        delta=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_periodicity(self, q, steer, delta):
        e = ArrayElement(r=0.01, phi=0.0, q=q, theta_steer=steer)
        left = e.response(steer - delta)
        right = e.response(steer + delta)
        assert left == pytest.approx(right, abs=1e-12)
        wrapped = e.response(steer + delta + 2 * math.pi)
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

    # the stacked sampler on its own, with every trial handed over to the
    # single-geometry sampler by a window too short to place a candidate,
    # and with every trial of two or more elements handed over by a
    # near-threshold band that takes in every distance
    HAND_OVERS = {
        "window": {},
        "short-window": {"STACK_WINDOW": 2},
        "wide-band": {"_NEAR_SPACING": math.inf},
    }

    @staticmethod
    def stack_sample(hand_over, element_count, seeds):
        """`sample_element_stack` over ``seeds`` at the desk aperture; asserts
        that the hand-over mode sent every trial it must to the single sampler,
        and that from 8 seeds and up to 9 elements the unpatched window
        settles some trials."""
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
        if hand_over == "short-window" or (hand_over == "wide-band" and element_count > 1):
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

    def test_batches_of_the_budget_match_one_batch(self, monkeypatch):
        seeds = np.arange(30, dtype=np.uint64)
        windows = geometry_module.uniform_windows
        batches = []

        def counted(batch_seeds, width):
            batches.append(len(batch_seeds))
            return windows(batch_seeds, width)

        monkeypatch.setattr(geometry_module, "uniform_windows", counted)
        for elements in (1, 5, 9, 13, 17):
            whole = geometry_module.sample_element_stack(elements, 0.02, 0.008, seeds)
            assert batches == [30]
            # ten trials' windows to a batch
            budget = 10 * geometry_module.STACK_WINDOW * elements
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geometry_module, "SAMPLE_BATCH_DOUBLES", budget)
                values, reasons = geometry_module.sample_element_stack(
                    elements, 0.02, 0.008, seeds
                )
            assert batches == [30, 10, 10, 10]
            assert values.tobytes() == whole[0].tobytes()
            assert reasons == whole[1]
            batches.clear()

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
