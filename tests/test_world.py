"""Ground-truth stepping and the biased/noisy measurement model."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slamobs import (
    NoiseSpec,
    Pose,
    Rotation3,
    SensorBias,
    TrueState,
    Twist,
    se3_exp,
    sense,
    so3_exp,
    true_step,
)
from slamobs import world

from oracles import matexp_taylor, twist_matrix

SQUARE_LANDMARKS = np.array(
    [[7.0, 7.0, 0.0], [-7.0, 7.0, 0.0], [7.0, -7.0, 0.0], [-7.0, -7.0, 0.0]]
)


def hover_state(position=(0.0, 0.0, 6.0)) -> TrueState:
    return TrueState(Pose(Rotation3.identity(), np.array(position)), SQUARE_LANDMARKS)


class TestTrueStep:
    def test_zero_twist_leaves_state_alone(self):
        state = hover_state()
        stepped = true_step(state, Twist.zero(), 0.01)
        assert np.allclose(stepped.pose.rotation.m, np.eye(3), atol=1e-15)
        assert np.allclose(stepped.pose.position, state.pose.position, atol=1e-15)
        assert stepped.landmarks is state.landmarks

    def test_one_step_against_hand_values(self):
        # Constant yaw rate 0.3 rad/s and forward speed 2.5 m/s for 10 ms:
        # yaw 0.003 rad, position advance ~ [0.025, 3.75e-5, 0].
        state = hover_state()
        u = Twist(np.array([0.0, 0.0, 0.3]), np.array([2.5, 0.0, 0.0]))
        stepped = true_step(state, u, 0.01)
        c, s = np.cos(0.003), np.sin(0.003)
        assert np.allclose(
            stepped.pose.rotation.m,
            [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]],
            atol=1e-12,
        )
        assert np.allclose(stepped.pose.position, [0.025, 3.75e-5, 6.0], atol=1e-6)
        expected = state.pose.matrix() @ matexp_taylor(twist_matrix(u.omega, u.vel) * 0.01)
        assert np.allclose(stepped.pose.matrix(), expected, atol=1e-12)

    def test_constant_twist_steps_compose(self):
        state = hover_state()
        u = Twist(np.array([0.2, -0.1, 0.4]), np.array([1.0, 0.5, -0.2]))
        dt, k = 0.05, 40
        stepped = state
        for _ in range(k):
            stepped = true_step(stepped, u, dt)
        direct = state.pose.compose(se3_exp(u, k * dt))
        assert np.linalg.norm(stepped.pose.matrix() - direct.matrix()) <= 1e-9

    def test_landmarks_bit_identical_over_run(self):
        state = hover_state()
        u = Twist(np.array([0.0, 0.1, 0.3]), np.array([1.0, 0.0, 0.0]))
        current = state
        for _ in range(1000):
            current = true_step(current, u, 0.002)
        assert current.landmarks is state.landmarks
        assert (current.landmarks == SQUARE_LANDMARKS).all()

    def test_orthonormality_preserved_long_run(self):
        state = hover_state()
        u = Twist(np.array([0.3, -0.2, 0.5]), np.array([2.0, 0.0, 0.1]))
        for _ in range(5000):
            state = true_step(state, u, 0.001)
        r = state.pose.rotation.m
        assert np.linalg.norm(r @ r.T - np.eye(3)) <= 1e-12

    def test_rejects_nonpositive_dt(self):
        # inf is rejected here, not by warnings and an SVD failure downstream.
        u = Twist(np.array([0.0, 0.0, 0.3]), np.array([2.5, 0.0, 0.0]))
        for dt in (math.inf, math.nan, 0.0, -1.0, 10**400, 10**5000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="dt must be positive and finite"):
                    true_step(hover_state(), u, dt)

    def test_rejects_an_increment_that_overflows(self):
        u = Twist(np.array([0.0, 0.0, 0.3]), np.array([2.5, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"dt = 1e\+308 overflows the twist increment"):
                true_step(hover_state(), u, 1e308)


class TestSense:
    def test_reference_velocities_with_bias(self):
        state = hover_state()
        bias = SensorBias(np.array([0.09, -0.15, -0.1]), np.array([0.09, 0.06, -0.07]))
        u = Twist(np.array([0.0, 0.0, 0.3]), np.array([2.5, 0.0, 0.0]))
        frame = sense(state, bias, NoiseSpec(), u, NoiseSpec().make_rng())
        assert np.allclose(frame.omega_m, [0.09, -0.15, 0.2], atol=1e-15)
        assert np.allclose(frame.v_m, [2.59, 0.06, -0.07], atol=1e-15)

    def test_landmark_measurement_from_hover(self):
        frame = sense(hover_state(), SensorBias.zero(), NoiseSpec(), Twist.zero(),
                      NoiseSpec().make_rng())
        assert (frame.y[0] == np.array([7.0, 7.0, -6.0])).all()

    def test_identity_pose_measures_landmarks_directly(self):
        state = TrueState(Pose.identity(), SQUARE_LANDMARKS)
        frame = sense(state, SensorBias.zero(), NoiseSpec(), Twist.zero(),
                      NoiseSpec().make_rng())
        assert (frame.y == SQUARE_LANDMARKS).all()

    def test_frame_inversion_recovers_landmarks(self, rng):
        state = TrueState(
            Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3) * 4.0), SQUARE_LANDMARKS
        )
        frame = sense(state, SensorBias.zero(), NoiseSpec(), Twist.zero(),
                      NoiseSpec().make_rng())
        recovered = frame.y @ state.pose.rotation.m.T + state.pose.position
        assert np.abs(recovered - SQUARE_LANDMARKS).max() <= 1e-12

    def test_landmark_bias_added(self):
        offsets = np.tile([0.5, -0.25, 0.1], (4, 1))
        bias = SensorBias(np.zeros(3), np.zeros(3), landmark=offsets)
        frame = sense(hover_state(), bias, NoiseSpec(), Twist.zero(), NoiseSpec().make_rng())
        clean = sense(hover_state(), SensorBias.zero(), NoiseSpec(), Twist.zero(),
                      NoiseSpec().make_rng())
        assert np.allclose(frame.y - clean.y, offsets, atol=1e-15)

    def test_landmark_bias_count_mismatch(self):
        bias = SensorBias(np.zeros(3), np.zeros(3), landmark=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="landmark bias"):
            sense(hover_state(), bias, NoiseSpec(), Twist.zero(), NoiseSpec().make_rng())

    def test_same_seed_same_stream(self):
        spec = NoiseSpec(sigma_omega=0.01, sigma_v=0.02, sigma_y=0.05, seed=42)
        state = hover_state()
        u = Twist(np.array([0.0, 0.0, 0.3]), np.array([2.5, 0.0, 0.0]))
        frames_a = []
        frames_b = []
        for frames in (frames_a, frames_b):
            gen = spec.make_rng()
            for _ in range(20):
                frames.append(sense(state, SensorBias.zero(), spec, u, gen))
        for fa, fb in zip(frames_a, frames_b):
            assert (fa.omega_m == fb.omega_m).all()
            assert (fa.v_m == fb.v_m).all()
            assert (fa.y == fb.y).all()

    def test_different_seed_different_stream(self):
        state = hover_state()
        a = sense(state, SensorBias.zero(), NoiseSpec(sigma_y=0.1, seed=1), Twist.zero(),
                  NoiseSpec(sigma_y=0.1, seed=1).make_rng())
        b = sense(state, SensorBias.zero(), NoiseSpec(sigma_y=0.1, seed=2), Twist.zero(),
                  NoiseSpec(sigma_y=0.1, seed=2).make_rng())
        assert not (a.y == b.y).all()

    def test_zero_sigma_adds_nothing(self):
        state = hover_state()
        gen = NoiseSpec(seed=7).make_rng()
        frame = sense(state, SensorBias.zero(), NoiseSpec(seed=7), Twist.zero(), gen)
        clean = (SQUARE_LANDMARKS - state.pose.position) @ state.pose.rotation.m
        assert (frame.y == clean).all()


class TestBlockMeasurement:
    # The harness measures a block of K true poses in one product; each pose
    # must get the bits that sense gives it alone. A BLAS kernel whose
    # batched product rounds differently from its one-matrix product fails.
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 64),
        k=st.integers(1, 40),
        with_bias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_equals_sense(self, n, k, with_bias, seed):
        rng = np.random.default_rng(seed)
        landmarks = rng.normal(scale=5.0, size=(n, 3))
        landmark_bias = rng.normal(scale=0.1, size=(n, 3)) if with_bias else None
        bias = SensorBias(rng.normal(size=3), rng.normal(size=3), landmark_bias)
        rot = np.array([so3_exp(rng.normal(size=3)).m for _ in range(k)])
        pos = rng.normal(scale=10.0, size=(k, 3))
        block = world._measure(rot, pos, landmarks, bias)
        assert block.shape == (k, n, 3)
        noise = NoiseSpec()
        for y, r, p in zip(block, rot, pos):
            state = TrueState(Pose(Rotation3(r), p), landmarks)
            frame = sense(state, bias, noise, Twist.zero(), noise.make_rng())
            assert y.tobytes() == frame.y.tobytes()
            # The one-pose (n, 3) @ (3, 3) product.
            alone = (landmarks - p) @ r
            if with_bias:
                alone = alone + landmark_bias
            assert y.tobytes() == alone.tobytes()


class TestBlockNoise:
    # The harness draws a block's noise in one call; each step must get the
    # bits that a loop of sense on the same generator gives it.
    @pytest.mark.parametrize("sigmas", list(itertools.product([0.0, 1.0], repeat=3)))
    @pytest.mark.parametrize("n", [3, 24])
    @settings(max_examples=2, deadline=None, derandomize=True, database=None)
    @given(scale=st.floats(1e-6, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_block_equals_a_loop_of_sense(self, sigmas, n, scale, seed):
        rng = np.random.default_rng(seed)
        landmarks = rng.normal(scale=5.0, size=(n, 3))
        bias = SensorBias(rng.normal(size=3), rng.normal(size=3), rng.normal(size=(n, 3)))
        noise = NoiseSpec(*(scale * s for s in sigmas), seed=seed)
        for k in (1, 2, 1024):
            rot = np.array([so3_exp(rng.normal(size=3)).m for _ in range(k)])
            pos = rng.normal(scale=10.0, size=(k, 3))
            twists = [Twist(rng.normal(size=3), rng.normal(size=3)) for _ in range(k)]
            clean = (
                np.array([u.omega + bias.omega for u in twists]),
                np.array([u.vel + bias.vel for u in twists]),
                world._measure(rot, pos, landmarks, bias),
            )
            block = world._add_noise(clean, noise, noise.make_rng())
            gen = noise.make_rng()
            for i, (r, p, u) in enumerate(zip(rot, pos, twists)):
                frame = sense(TrueState(Pose(Rotation3(r), p), landmarks), bias, noise, u, gen)
                for got, want in zip(block, (frame.omega_m, frame.v_m, frame.y)):
                    assert got[i].tobytes() == want.tobytes()
            # The loop drew exactly the block's k rows of draws.
            width = 3 * (sigmas[0] > 0) + 3 * (sigmas[1] > 0) + 3 * n * (sigmas[2] > 0)
            assert gen.standard_normal() == noise.make_rng().standard_normal(k * width + 1)[-1]


class TestTypes:
    def test_two_landmarks_rejected(self):
        with pytest.raises(ValueError, match="at least 3 landmarks"):
            TrueState(Pose.identity(), np.zeros((2, 3)))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma_v"):
            NoiseSpec(sigma_v=-0.1)

    def test_noise_spec_seed_coerced_to_int(self):
        assert NoiseSpec(seed=np.int64(9)).seed == 9

    def test_negative_seed_rejected(self):
        # The message names a seed of more than 4,300 digits without them.
        for seed, shown in ((-1, "-1"), (-10**5000, "an integer too long to print")):
            message = f"^seed must be a nonnegative integer, got {shown}$"
            with pytest.raises(ValueError, match=message):
                NoiseSpec(seed=seed)
