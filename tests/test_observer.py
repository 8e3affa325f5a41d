"""Observer update law: error geometry, corrections, stepping, diagnostics.

The single-step regression values are hand computations from the reference
initialization (identity attitude estimate, all landmark estimates at the
origin, vehicle hovering at [0, 0, 6] over the four square corners): there
e_i = -y_i exactly, so the cross-product sums vanish and every expected
number reduces to plain arithmetic.
"""

import numpy as np
import pytest

from slamobs import (
    DivergenceError,
    GainConfig,
    NoiseSpec,
    ObserverState,
    Pose,
    Rotation3,
    SensorBias,
    SensorFrame,
    TrueState,
    Twist,
    adaptation_gain,
    bias_error,
    correction_terms,
    error_geometry,
    hat3,
    landmark_errors,
    lyapunov_value,
    observer_step,
    pose_error,
    sense,
    so3_exp,
)

from oracles import matexp_taylor, twist_matrix

SQUARE_LANDMARKS = np.array(
    [[7.0, 7.0, 0.0], [-7.0, 7.0, 0.0], [7.0, -7.0, 0.0], [-7.0, -7.0, 0.0]]
)
REFERENCE_Y = SQUARE_LANDMARKS - np.array([0.0, 0.0, 6.0])


def reference_gains(n=4, k_p=1.0, k_w=2.0, alpha=0.1) -> GainConfig:
    return GainConfig(k_p=k_p, k_w=k_w, gamma=30.0, alpha=np.full(n, alpha))


def frame_from(y, omega_m=(0.0, 0.0, 0.0), v_m=(0.0, 0.0, 0.0), t=0.0) -> SensorFrame:
    return SensorFrame(np.asarray(omega_m, float), np.asarray(v_m, float), np.asarray(y, float), t)


class TestLandmarkError:
    def test_cold_start_reference_value(self):
        e = landmark_errors(ObserverState.cold_start(4), frame_from(REFERENCE_Y))
        assert (e == -REFERENCE_Y).all()

    def test_consistent_estimate_gives_zero(self, rng):
        r_hat = so3_exp(rng.normal(size=3))
        p_hat = rng.normal(size=3)
        y = rng.normal(size=(4, 3))
        state = ObserverState(r_hat, p_hat, y @ r_hat.m.T + p_hat, np.zeros(3), np.zeros(3))
        e = landmark_errors(state, frame_from(y))
        assert np.abs(e).max() <= 1e-12

    def test_true_pose_and_map_give_zero(self, rng):
        pose = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3) * 3.0)
        truth = TrueState(pose, SQUARE_LANDMARKS)
        frame = sense(truth, SensorBias.zero(), NoiseSpec(), Twist.zero(), NoiseSpec().make_rng())
        state = ObserverState(
            pose.rotation, pose.position, SQUARE_LANDMARKS.copy(), np.zeros(3), np.zeros(3)
        )
        assert np.abs(landmark_errors(state, frame)).max() <= 1e-12

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="landmark measurements"):
            landmark_errors(ObserverState.cold_start(4), frame_from(np.zeros((3, 3))))


class TestErrorGeometry:
    def test_zero_error_floor(self):
        geo = error_geometry(np.zeros(3), k_p=1.0)
        assert geo.psi == 0.25
        assert geo.theta == 0.0
        assert geo.axis is None
        assert (geo.r_e.m == np.eye(3)).all()

    def test_zero_error_floor_scales_with_k_p(self):
        assert error_geometry(np.zeros(3), k_p=3.0).psi == 0.75

    def test_unit_error_literal(self):
        geo = error_geometry(np.array([1.0, 0.0, 0.0]), k_p=1.0)
        assert geo.theta == pytest.approx(np.pi / 2, abs=1e-15)
        assert np.allclose(geo.axis, [1.0, 0.0, 0.0], atol=1e-15)
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.allclose(geo.r_e.m, expected, atol=1e-15)
        assert geo.psi == pytest.approx(0.5, abs=1e-12)

    def test_norm_three_gain(self):
        geo = error_geometry(np.array([0.0, 3.0, 0.0]), k_p=1.0)
        assert geo.psi == pytest.approx(2.5, abs=1e-12)

    def test_gain_of_stacked_errors_is_per_row(self, rng):
        # One formula serves the stepping loop (all rows at once) and the
        # single-error call that criterion 4 checks: bit-identical results.
        e = rng.normal(size=(50, 3)) * rng.choice([1e-6, 1.0, 100.0], size=(50, 1))
        rows = adaptation_gain(e, 1.7)
        assert rows.shape == (50,)
        assert rows.tobytes() == np.array([adaptation_gain(ei, 1.7) for ei in e]).tobytes()

    def test_matrix_gain_matches_closed_form(self, rng):
        for _ in range(500):
            e = rng.normal(size=3) * rng.choice([1e-6, 0.1, 1.0, 10.0, 100.0])
            k_p = float(rng.uniform(0.2, 5.0))
            geo = error_geometry(e, k_p)
            closed = adaptation_gain(e, k_p)
            assert abs(geo.psi - closed) <= 1e-9 * (1.0 + float(e @ e))

    def test_gain_floor_and_growth(self, rng):
        for _ in range(200):
            e = rng.normal(size=3) * rng.uniform(0.0, 50.0)
            geo = error_geometry(e, k_p=1.0)
            assert geo.psi >= 0.25
            if np.linalg.norm(e) > 1e-6:
                assert geo.psi > 0.25

    def test_axis_is_unit(self, rng):
        for _ in range(200):
            e = rng.normal(size=3) * rng.choice([1e-10, 1e-3, 1.0, 1e3])
            geo = error_geometry(e, k_p=1.0)
            assert abs(np.linalg.norm(geo.axis) - 1.0) <= 1e-12

    def test_rotation_trace_bounds(self, rng):
        for _ in range(500):
            e = rng.normal(size=3) * rng.choice([1e-8, 1e-2, 1.0, 100.0, 1e4])
            geo = error_geometry(e, k_p=1.0)
            trace = float(np.trace(geo.r_e.m))
            assert -1.0 <= trace <= 3.0

    def test_rotation_trace_bounds_at_float_limits(self, rng):
        # Beyond ~1e8 the angle rounds to pi and the trace can undershoot -1
        # by an ulp of the axis normalization; the gain saturates to inf there.
        for _ in range(50):
            e = rng.normal(size=3) * 1e9
            geo = error_geometry(e, k_p=1.0)
            trace = float(np.trace(geo.r_e.m))
            assert -1.0 - 1e-12 <= trace <= 3.0
            assert geo.psi >= 0.25

    def test_theta_range(self, rng):
        for _ in range(200):
            e = rng.normal(size=3) * rng.choice([1e-6, 1.0, 1e6])
            geo = error_geometry(e, k_p=1.0)
            assert 0.0 <= geo.theta < np.pi

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError, match="k_p"):
            error_geometry(np.zeros(3), k_p=0.0)


class TestCorrectionTerms:
    def test_zero_errors_give_zero(self, rng):
        r_hat = so3_exp(rng.normal(size=3))
        y = rng.normal(size=(4, 3))
        state = ObserverState(r_hat, np.zeros(3), y @ r_hat.m.T, np.zeros(3), np.zeros(3))
        w_omega, w_v = correction_terms(state, frame_from(y), reference_gains())
        assert np.abs(w_omega).max() <= 1e-12
        assert np.abs(w_v).max() <= 1e-12

    def test_single_active_landmark_literal(self):
        # Two of three landmarks have consistent estimates (zero error); the
        # remaining one has y = [1,0,0], e = [0,1,0] with k_w/alpha = 20:
        # w_omega = -20 y x e = [0,0,-20], w_v = -20 e = [0,-20,0].
        y = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.5]])
        landmarks_hat = y.copy()
        landmarks_hat[0] += np.array([0.0, 1.0, 0.0])
        state = ObserverState(
            Rotation3.identity(), np.zeros(3), landmarks_hat, np.zeros(3), np.zeros(3)
        )
        w_omega, w_v = correction_terms(state, frame_from(y), reference_gains(n=3))
        assert np.allclose(w_omega, [0.0, 0.0, -20.0], atol=1e-12)
        assert np.allclose(w_v, [0.0, -20.0, 0.0], atol=1e-12)

    def test_alpha_scaling_inverse_linear(self, rng):
        y = rng.normal(size=(4, 3))
        state = ObserverState(
            so3_exp(rng.normal(size=3)), rng.normal(size=3), rng.normal(size=(4, 3)),
            np.zeros(3), np.zeros(3),
        )
        frame = frame_from(y)
        w1 = correction_terms(state, frame, reference_gains(alpha=0.1))
        w2 = correction_terms(state, frame, reference_gains(alpha=0.3))
        assert np.allclose(w1[0], 3.0 * w2[0], atol=1e-9)
        assert np.allclose(w1[1], 3.0 * w2[1], atol=1e-9)

    def test_gain_count_mismatch(self):
        state = ObserverState.cold_start(4)
        with pytest.raises(ValueError, match="alpha values"):
            correction_terms(state, frame_from(np.zeros((4, 3))), reference_gains(n=3))


class TestObserverStep:
    def test_zero_error_zero_velocity_fixed_point(self, rng):
        r_hat = so3_exp(rng.normal(size=3))
        y = rng.normal(size=(4, 3))
        state = ObserverState(r_hat, np.ones(3), y @ r_hat.m.T + np.ones(3),
                              np.zeros(3), np.zeros(3))
        stepped = observer_step(state, frame_from(y), reference_gains(), dt=0.01)
        assert np.linalg.norm(stepped.r_hat.m - state.r_hat.m) <= 1e-14
        assert np.allclose(stepped.p_hat, state.p_hat, atol=1e-14)
        assert (stepped.landmarks_hat == state.landmarks_hat).all()
        assert (stepped.b_omega_hat == state.b_omega_hat).all()
        assert (stepped.b_v_hat == state.b_v_hat).all()

    def test_zero_error_propagates_by_true_motion(self, rng):
        # With consistent estimates and exactly-compensated biases the pose
        # estimate advances by the same exponential as the truth.
        from slamobs import se3_exp

        r_hat = so3_exp(rng.normal(size=3))
        p_hat = rng.normal(size=3)
        y = rng.normal(size=(4, 3))
        b_omega = np.array([0.09, -0.15, -0.1])
        b_v = np.array([0.09, 0.06, -0.07])
        u = Twist(np.array([0.0, 0.0, 0.3]), np.array([2.5, 0.0, 0.0]))
        state = ObserverState(r_hat, p_hat, y @ r_hat.m.T + p_hat, b_omega, b_v)
        frame = frame_from(y, omega_m=u.omega + b_omega, v_m=u.vel + b_v)
        stepped = observer_step(state, frame, reference_gains(), dt=0.002)
        expected = Pose(r_hat, p_hat).compose(se3_exp(u, 0.002))
        stepped_pose = Pose(stepped.r_hat, stepped.p_hat)
        assert np.linalg.norm(stepped_pose.matrix() - expected.matrix()) <= 1e-12
        assert (stepped.b_omega_hat == b_omega).all()
        assert (stepped.b_v_hat == b_v).all()
        assert (stepped.landmarks_hat == state.landmarks_hat).all()

    def test_cold_start_reference_single_step(self):
        # At the reference initialization e_i = -y_i, so y_i x e_i = 0:
        # the gyro-bias update and w_omega vanish; sum e_i = [0, 0, 24] gives
        # b_v[1] = -dt * 300 * [0,0,24] and w_v = -20 * [0,0,24].
        dt = 0.001
        state = ObserverState.cold_start(4)
        frame = frame_from(REFERENCE_Y, omega_m=[0.09, -0.15, 0.2], v_m=[2.59, 0.06, -0.07])
        stepped = observer_step(state, frame, reference_gains(), dt)

        assert (stepped.b_omega_hat == np.zeros(3)).all()
        assert np.allclose(stepped.b_v_hat, [0.0, 0.0, -7.2], atol=1e-12)

        psi = 1.0 * (1.0 + 134.0) / 4.0  # ||e_i||^2 = 49 + 49 + 36 for all i
        expected_landmarks = -dt * psi * (-REFERENCE_Y)
        assert np.allclose(stepped.landmarks_hat, expected_landmarks, atol=1e-12)

        corrected = twist_matrix([0.09, -0.15, 0.2], [2.59, 0.06, -0.07 + 480.0])
        expected_pose = matexp_taylor(corrected * dt)
        stepped_pose = Pose(stepped.r_hat, stepped.p_hat)
        assert np.linalg.norm(stepped_pose.matrix() - expected_pose) <= 1e-10

    def test_finite_difference_matches_continuous_law(self, rng):
        # (state[k+1] - state[k]) / dt converges to the continuous update law
        # as dt -> 0 for the landmark and bias channels.
        r_hat = so3_exp(rng.normal(size=3))
        state = ObserverState(
            r_hat, rng.normal(size=3), rng.normal(size=(4, 3)) * 2.0,
            rng.normal(size=3) * 0.1, rng.normal(size=3) * 0.1,
        )
        y = rng.normal(size=(4, 3)) * 3.0
        frame = frame_from(y, omega_m=rng.normal(size=3), v_m=rng.normal(size=3))
        gains = reference_gains()
        e = landmark_errors(state, frame)
        psi = np.array([adaptation_gain(ei, gains.k_p) for ei in e])
        u = (e @ r_hat.m) / gains.alpha[:, None]
        s_omega = np.cross(y, u).sum(axis=0)
        s_v = u.sum(axis=0)
        for dt in (1e-4, 1e-6):
            stepped = observer_step(state, frame, gains, dt)
            fd_landmarks = (stepped.landmarks_hat - state.landmarks_hat) / dt
            assert np.abs(fd_landmarks + psi[:, None] * e).max() <= 1e-9
            fd_bo = (stepped.b_omega_hat - state.b_omega_hat) / dt
            fd_bv = (stepped.b_v_hat - state.b_v_hat) / dt
            assert np.abs(fd_bo + gains.gamma @ s_omega).max() <= 1e-6
            assert np.abs(fd_bv + gains.gamma @ s_v).max() <= 1e-6

    def test_implicit_step_feeds_back_solved_sums(self, rng):
        # The implicit scheme replaces the sums s by the solution of
        # (I + dt k_w M) s_bar = s, M = sum_i A_i^T A_i / alpha_i with
        # A_i = [[y_i]_x, -I], here built term by term and solved generically.
        r_hat = so3_exp(rng.normal(size=3))
        state = ObserverState(
            r_hat, rng.normal(size=3), rng.normal(size=(5, 3)) * 2.0,
            rng.normal(size=3) * 0.1, rng.normal(size=3) * 0.1,
        )
        y = rng.normal(size=(5, 3)) * 3.0
        frame = frame_from(y, omega_m=rng.normal(size=3), v_m=rng.normal(size=3))
        gains = GainConfig(k_p=1.0, k_w=2.0, gamma=30.0, alpha=rng.uniform(0.05, 1.0, 5))
        dt = 1e-3
        u = (landmark_errors(state, frame) @ r_hat.m) / gains.alpha[:, None]
        s = np.concatenate([np.cross(y, u).sum(axis=0), u.sum(axis=0)])
        m = np.zeros((6, 6))
        for y_i, alpha_i in zip(y, gains.alpha):
            a_i = np.hstack([hat3(y_i), -np.eye(3)])
            m += a_i.T @ a_i / alpha_i
        s_bar = np.linalg.solve(np.eye(6) + dt * gains.k_w * m, s)

        stepped = observer_step(state, frame, gains, dt, scheme="implicit")
        explicit = observer_step(state, frame, gains, dt)
        fd_bo = (stepped.b_omega_hat - state.b_omega_hat) / dt
        fd_bv = (stepped.b_v_hat - state.b_v_hat) / dt
        assert np.abs(fd_bo + gains.gamma @ s_bar[:3]).max() <= 1e-9
        assert np.abs(fd_bv + gains.gamma @ s_bar[3:]).max() <= 1e-9
        assert (stepped.landmarks_hat == explicit.landmarks_hat).all()

    def test_rotation_stays_orthonormal(self, rng):
        state = ObserverState.cold_start(4)
        gains = reference_gains()
        y = rng.normal(size=(4, 3))
        current = state
        for k in range(2000):
            frame = frame_from(y + rng.normal(size=(4, 3)) * 0.01,
                               omega_m=rng.normal(size=3) * 0.2,
                               v_m=rng.normal(size=3) * 0.2)
            current = observer_step(current, frame, gains, 5e-4)
        r = current.r_hat.m
        assert np.linalg.norm(r @ r.T - np.eye(3)) <= 1e-12

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="landmark measurements"):
            observer_step(
                ObserverState.cold_start(4), frame_from(np.zeros((5, 3))),
                reference_gains(), 0.001,
            )

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme 'rk4'"):
            observer_step(
                ObserverState.cold_start(4), frame_from(np.zeros((4, 3))),
                reference_gains(), 0.001, scheme="rk4",
            )

    def test_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            observer_step(
                ObserverState.cold_start(4), frame_from(np.zeros((4, 3))),
                reference_gains(), 0.0,
            )

    def test_overflow_raises_divergence_error(self):
        state = ObserverState(
            Rotation3.identity(), np.zeros(3), np.full((4, 3), 1e160),
            np.zeros(3), np.zeros(3),
        )
        frame = frame_from(np.full((4, 3), -1e160))
        with pytest.raises(DivergenceError):
            observer_step(state, frame, reference_gains(), 0.001)


class TestDiagnostics:
    def test_lyapunov_zero_at_truth(self):
        state = ObserverState.cold_start(4)
        bias = SensorBias.zero()
        assert lyapunov_value(state, np.zeros((4, 3)), bias, reference_gains()) == 0.0

    def test_lyapunov_single_error(self):
        errors = np.zeros((4, 3))
        errors[0] = [1.0, 0.0, 0.0]
        value = lyapunov_value(
            ObserverState.cold_start(4), errors, SensorBias.zero(), reference_gains()
        )
        assert value == pytest.approx(5.0, abs=1e-12)

    def test_lyapunov_reference_bias_values(self):
        bias = SensorBias(np.array([0.09, -0.15, -0.1]), np.array([0.09, 0.06, -0.07]))
        value = lyapunov_value(
            ObserverState.cold_start(4), np.zeros((4, 3)), bias, reference_gains()
        )
        expected = (0.09**2 + 0.15**2 + 0.1**2 + 0.09**2 + 0.06**2 + 0.07**2) / 60.0
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(9.533e-4, rel=1e-3)

    def test_lyapunov_count_mismatch(self):
        with pytest.raises(ValueError, match="errors"):
            lyapunov_value(
                ObserverState.cold_start(4), np.zeros((3, 3)), SensorBias.zero(),
                reference_gains(),
            )

    def test_pose_error_identity(self, rng):
        pose = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        truth = TrueState(pose, SQUARE_LANDMARKS)
        state = ObserverState(
            pose.rotation, pose.position, SQUARE_LANDMARKS, np.zeros(3), np.zeros(3)
        )
        err = pose_error(state, truth)
        assert np.linalg.norm(err.r_tilde.m - np.eye(3)) <= 1e-12
        assert np.abs(err.p_tilde).max() <= 1e-12

    def test_pose_error_reference_start(self):
        truth = TrueState(Pose(Rotation3.identity(), np.array([0.0, 0.0, 6.0])),
                          SQUARE_LANDMARKS)
        err = pose_error(ObserverState.cold_start(4), truth)
        assert (err.r_tilde.m == np.eye(3)).all()
        assert (err.p_tilde == np.array([0.0, 0.0, -6.0])).all()

    def test_pose_error_pure_rotation(self):
        r = so3_exp(np.array([0.0, 0.0, np.pi / 2]))
        truth = TrueState(Pose.identity(), SQUARE_LANDMARKS)
        state = ObserverState(r, np.zeros(3), SQUARE_LANDMARKS, np.zeros(3), np.zeros(3))
        err = pose_error(state, truth)
        assert np.allclose(err.r_tilde.m, r.m, atol=1e-15)
        assert (err.p_tilde == np.zeros(3)).all()

    def test_bias_error_is_difference(self):
        bias = SensorBias(np.array([0.1, 0.2, 0.3]), np.array([-0.1, 0.0, 0.1]))
        state = ObserverState(
            Rotation3.identity(), np.zeros(3), np.zeros((4, 3)),
            np.array([0.05, 0.1, 0.15]), np.array([0.0, 0.0, 0.05]),
        )
        err = bias_error(state, bias)
        assert (err.b_omega_tilde == np.array([0.05, 0.1, 0.15])).all()
        assert (err.b_v_tilde == np.array([-0.1, 0.0, 0.05])).all()


class TestGaugeFreedom:
    """The error sequence depends only on estimates and measurements, so a
    rigid change of the estimate frame rotates the errors without changing
    their norms, and a pure translation leaves them untouched."""

    def _run_errors(self, state, frames, gains, dt):
        out = []
        for frame in frames:
            out.append(landmark_errors(state, frame))
            state = observer_step(state, frame, gains, dt)
        return out

    def _scripted_frames(self, rng, n_frames=40):
        frames = []
        for k in range(n_frames):
            frames.append(
                frame_from(
                    rng.normal(size=(4, 3)) * 2.0,
                    omega_m=rng.normal(size=3) * 0.3,
                    v_m=rng.normal(size=3),
                    t=k * 0.01,
                )
            )
        return frames

    def _transformed(self, state, g_rot, g_pos):
        return ObserverState(
            Rotation3(g_rot @ state.r_hat.m),
            g_rot @ state.p_hat + g_pos,
            state.landmarks_hat @ g_rot.T + g_pos,
            state.b_omega_hat,
            state.b_v_hat,
        )

    def test_translation_leaves_errors_invariant(self, rng):
        frames = self._scripted_frames(rng)
        gains = reference_gains()
        state = ObserverState(
            so3_exp(rng.normal(size=3)), rng.normal(size=3),
            rng.normal(size=(4, 3)), np.zeros(3), np.zeros(3),
        )
        shifted = self._transformed(state, np.eye(3), np.array([5.0, -3.0, 2.0]))
        base = self._run_errors(state, frames, gains, 0.01)
        moved = self._run_errors(shifted, frames, gains, 0.01)
        for e_a, e_b in zip(base, moved):
            assert np.abs(e_a - e_b).max() <= 1e-8

    def test_rigid_transform_rotates_errors(self, rng):
        frames = self._scripted_frames(rng)
        gains = reference_gains()
        g_rot = so3_exp(np.array([0.4, -0.3, 1.1])).m
        g_pos = np.array([2.0, 1.0, -4.0])
        state = ObserverState(
            so3_exp(rng.normal(size=3)), rng.normal(size=3),
            rng.normal(size=(4, 3)), np.zeros(3), np.zeros(3),
        )
        moved_state = self._transformed(state, g_rot, g_pos)
        base = self._run_errors(state, frames, gains, 0.01)
        moved = self._run_errors(moved_state, frames, gains, 0.01)
        for e_a, e_b in zip(base, moved):
            assert np.abs(e_b - e_a @ g_rot.T).max() <= 1e-8
            norms_a = np.linalg.norm(e_a, axis=1)
            norms_b = np.linalg.norm(e_b, axis=1)
            assert np.abs(norms_a - norms_b).max() <= 1e-8


class TestGainConfig:
    def test_scalar_gamma_broadcast(self):
        gains = reference_gains()
        assert (gains.gamma == 30.0 * np.eye(3)).all()
        assert (gains.gamma_inv == np.linalg.inv(30.0 * np.eye(3))).all()

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="k_w"):
            GainConfig(k_p=1.0, k_w=0.0, gamma=30.0, alpha=np.full(4, 0.1))

    def test_rejects_indefinite_gamma(self):
        with pytest.raises(ValueError, match="positive definite"):
            GainConfig(k_p=1.0, k_w=1.0, gamma=np.diag([1.0, -1.0, 1.0]),
                       alpha=np.full(4, 0.1))

    def test_rejects_asymmetric_gamma(self):
        g = np.eye(3)
        g[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            GainConfig(k_p=1.0, k_w=1.0, gamma=g, alpha=np.full(4, 0.1))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            GainConfig(k_p=1.0, k_w=1.0, gamma=1.0, alpha=np.array([0.1, 0.0, 0.1]))

    def test_spd_gamma_accepted(self):
        g = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 1.0]])
        gains = GainConfig(k_p=1.0, k_w=1.0, gamma=g, alpha=np.full(3, 0.5))
        assert np.allclose(gains.gamma_inv @ g, np.eye(3), atol=1e-12)


class TestObserverState:
    def test_requires_three_landmarks(self):
        with pytest.raises(ValueError, match="at least 3"):
            ObserverState(Rotation3.identity(), np.zeros(3), np.zeros((2, 3)),
                          np.zeros(3), np.zeros(3))

    def test_cold_start_layout(self):
        state = ObserverState.cold_start(5)
        assert state.count == 5
        assert (state.landmarks_hat == 0.0).all()
        assert (state.r_hat.m == np.eye(3)).all()
