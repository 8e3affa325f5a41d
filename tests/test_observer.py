"""Observer update law: error geometry, corrections, stepping, diagnostics.

The single-step regression values are hand computations from the reference
initialization (identity attitude estimate, all landmark estimates at the
origin, vehicle hovering at [0, 0, 6] over the four square corners): there
e_i = -y_i exactly, so the cross-product sums vanish and every expected
number reduces to plain arithmetic.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from slamobs import observer

from oracles import landmark_moments, matexp_taylor, twist_matrix

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


BAD_K_P = {
    "inf": math.inf, "nan": math.nan, "0.0": 0.0, "-1.0": -1.0,
    "10**400": 10**400, "10**5000": 10**5000,
}


class TestErrorGeometry:
    def test_zero_error_floor(self):
        geo = error_geometry(np.zeros(3), k_p=1.0)
        assert geo.psi == 0.25
        assert geo.theta == 0.0
        assert geo.axis is None
        assert (geo.r_e.m == np.eye(3)).all()

    def test_zero_error_floor_scales_with_k_p(self):
        assert error_geometry(np.zeros(3), k_p=3.0).psi == 0.75

    @pytest.mark.parametrize(
        "gain, k_p",
        [
            pytest.param(gain, k_p, id=f"{prefix}{name}")
            for gain, prefix in ((error_geometry, ""), (adaptation_gain, "adaptation_gain-"))
            for name, k_p in BAD_K_P.items()
        ],
    )
    def test_rejects_bad_k_p(self, gain, k_p):
        # inf would give psi = inf.
        with pytest.raises(ValueError, match="k_p must be positive and finite"):
            gain(np.array([1.0, 0.0, 0.0]), k_p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_error(self, bad):
        # r_e is built unvalidated, so a non-finite error must not reach it
        # (it would come back as a NaN r_e and psi).
        with pytest.raises(ValueError, match=r"\|\|e\|\| must be positive and finite"):
            error_geometry(np.array([bad, 0.0, 0.0]), k_p=1.0)

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

    @pytest.mark.parametrize("norm", [1e3, 1e4, 1e5])
    def test_matrix_gain_precision_at_large_errors(self, rng, norm):
        # 1 + trace(r_e) = 4 / (1 + ||e||^2) is summed from entries of size 1,
        # so an absolute error of a few ulps in it is a relative error of psi
        # that grows as eps (1 + ||e||^2): beyond the reach of the fixed
        # 1e-9 (1 + ||e||^2) above once ||e|| passes about 1e3.
        for _ in range(200):
            e = rng.normal(size=3) * norm
            k_p = float(rng.uniform(0.2, 5.0))
            closed = adaptation_gain(e, k_p)
            bound = 4.0 * np.finfo(float).eps * (1.0 + float(e @ e)) * closed
            assert abs(error_geometry(e, k_p).psi - closed) <= bound

    @pytest.mark.parametrize("norm", [1e-9, 1.0, 100.0, 1e3, 1e4, 1e5, 1e8])
    def test_rotation_is_the_step_exponential(self, rng, norm):
        # r_e is the step's exponential: 1e-9 takes its Taylor branch, and at
        # 1e8 theta rounds toward pi.
        for _ in range(100):
            direction = rng.normal(size=3)
            geo = error_geometry(direction / np.linalg.norm(direction) * norm, k_p=1.0)
            assert np.array_equal(geo.r_e.m, so3_exp(geo.theta * geo.axis).m)

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
        # A bad dt is a bad input, never a DivergenceError.
        for dt in (math.inf, math.nan, 0.0, -1.0, 10**400, 10**5000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="dt must be positive and finite"):
                    observer_step(
                        ObserverState.cold_start(4), frame_from(np.ones((4, 3))),
                        reference_gains(), dt,
                    )

    def test_overflow_raises_divergence_error(self):
        state = ObserverState(
            Rotation3.identity(), np.zeros(3), np.full((4, 3), 1e160),
            np.zeros(3), np.zeros(3),
        )
        frame = frame_from(np.full((4, 3), -1e160))
        with pytest.raises(DivergenceError):
            observer_step(state, frame, reference_gains(), 0.001)

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_position_overflow_raises_divergence_error(self, scheme):
        # e = 0, so the twist is v_m alone and finite; P_hat + v_m dt is not.
        y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        p_hat = np.array([1.7e308, 0.0, 0.0])
        state = ObserverState(Rotation3.identity(), p_hat, y + p_hat, np.zeros(3), np.zeros(3))
        frame = frame_from(y, v_m=(1e308, 0.0, 0.0))
        with pytest.raises(DivergenceError, match="observer state overflowed"):
            observer_step(state, frame, reference_gains(), 1.0, scheme)


def _stack_members(rng):
    """Three members for one stacked step, each with its own gains.

    Member 0 has zero errors and b_omega_hat equal to its omega_m, so its
    corrected twist is exactly zero (the small-angle coefficients). Member
    1's r_hat is 1% off orthonormal, so the projection takes the SVD.
    Member 2 is ordinary.
    """
    r = [so3_exp(rng.normal(size=3)).m for _ in range(3)]
    r[1] = 1.01 * r[1]
    y = rng.normal(size=(3, 4, 3))
    omega_m, v_m = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    e = rng.normal(scale=0.3, size=(3, 4, 3))
    e[0] = 0.0
    b_omega = rng.normal(scale=0.05, size=(3, 3))
    b_omega[0] = omega_m[0]
    estimates = [
        (r[i], rng.normal(size=3), rng.normal(size=(4, 3)), b_omega[i], rng.normal(size=3))
        for i in range(3)
    ]
    gains = [
        GainConfig(k_p=1.5, k_w=2.0, gamma=5.0, alpha=np.full(4, 0.1)),
        GainConfig(k_p=0.5, k_w=7.0, gamma=np.diag([1.0, 2.0, 30.0]), alpha=[0.2, 0.1, 0.3, 1.0]),
        GainConfig(k_p=4.0, k_w=0.5, gamma=80.0, alpha=np.full(4, 0.05)),
    ]
    return estimates, [(omega_m[i], v_m[i], y[i]) for i in range(3)], e, gains


def _inputs(measurement, gains, dt, implicit):
    """One member's estimate-free step inputs (w, row), as run and sweep
    compute them: _step_inputs of a one-step block, which observer_step's
    frame without a step axis equals bit for bit (TestFrameInputs)."""
    block = tuple(a[None] for a in measurement)
    w, u = observer._step_inputs(block, gains.alpha, dt * gains.k_w)
    return w[0], u[0].tolist() if implicit else u[0, :6].tolist()


def _as_member(estimate):
    """An estimate laid out as ObserverState.arrays() as the step's member:
    its pose and biases as flat tuples of Python floats, R_hat as its 9
    row-major entries (observer._member)."""
    r, p, _, bo, bv = estimate
    return tuple(a.ravel().tolist() for a in (r, p, bo, bv))


def _as_arrays(member, landmarks):
    """The inverse of _as_member, with the landmark array put back."""
    r, p, bo, bv = member
    return np.array(r).reshape(3, 3), np.array(p), landmarks, np.array(bo), np.array(bv)


def _solo_step(estimate, inputs, e, gains, dt):
    """observer._step_raw on an estimate laid out as ObserverState.arrays();
    returns the new estimate in the same layout."""
    stack = _as_member(estimate), estimate[2]
    return _as_arrays(*observer._step_raw(stack, estimate[0], inputs, e, gains, dt))


def _run_stack(estimates, measurement, e, gains, dt, implicit):
    """observer._stacked_step on per-member estimates laid out as
    ObserverState.arrays(), with a stacked or shared measurement, the
    members' k_p column and their GainConfigs.

    The stack holds each member as _as_member lays it out and every
    member's landmarks in one array, as the sweep keeps them; W and
    the rows come from one _step_inputs call over a one-step block with a
    member axis. Returns the new estimate of each member that stayed finite,
    as arrays in the same layout, and the mask of the members that did not.
    """
    stack = [*map(_as_member, estimates)], np.stack([estimate[2] for estimate in estimates])
    r_hat = np.stack([estimate[0] for estimate in estimates])
    gains = list(gains)
    omega_m, v_m, y = measurement
    block = (
        np.broadcast_to(omega_m, (1, len(gains), 3)),
        np.broadcast_to(v_m, (1, len(gains), 3)),
        np.broadcast_to(y, (1, len(gains), *y.shape[-2:])),
    )
    alpha, c = np.stack([g.alpha for g in gains]), dt * np.array([g.k_w for g in gains])
    w, u = observer._step_inputs(block, alpha, c)
    rows = u[0].tolist() if implicit else u[0, :, :6].tolist()
    k_p = np.array([[g.k_p] for g in gains])
    (members, landmarks_hat), failed = observer._stacked_step(
        stack, r_hat, (w[0], rows), e, (e * e).sum(axis=-1), k_p, gains, dt
    )
    assert len(members) == len(landmarks_hat) == (~failed).sum()
    return [*map(_as_arrays, members, landmarks_hat)], failed


def _stacked_measurement(measurements):
    return tuple(np.stack(parts) for parts in zip(*measurements))


class TestSplitMoments:
    # W and the Gram are computed once per block of steps, G once per step;
    # both must keep the bits of the one (4, 7) product they replace, for one
    # observer and for members that share or do not share y and alpha.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 64),
        k=st.integers(1, 8),
        b=st.integers(1, 16),
        layout=st.sampled_from(["one", "shared", "broadcast", "stacked"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gram_and_moments_equal_the_old_product(self, n, k, b, layout, seed):
        rng = np.random.default_rng(seed)
        members = () if layout == "one" else (b,)
        y = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=(k, n, 3))
        alpha = rng.uniform(0.05, 1.0, n)
        if layout == "broadcast":
            y = np.broadcast_to(y[:, None], (k, b, n, 3))
        if layout in ("broadcast", "stacked"):
            alpha = rng.uniform(0.05, 1.0, (b, n))
        if layout == "stacked":
            y = rng.normal(size=(k, b, n, 3))
        w, gram = observer._weights(y, alpha)
        for j in range(k):
            r_hat = np.array([so3_exp(rng.normal(size=3)).m for _ in range(b)])
            r_hat = r_hat.reshape(*members, 3, 3) if members else r_hat[0]
            e = rng.normal(size=(*members, n, 3))
            old = landmark_moments(r_hat, y[j], alpha, e)
            assert np.array_equal(old[..., :4], np.broadcast_to(gram[j], old[..., :4].shape))
            assert np.array_equal(old[..., 4:], observer._error_moments(w[j], e, r_hat))


class TestSolveTerms:
    # _step_inputs solves a block's K steps (and B members) on columns; one
    # _solve_terms call per step on Python floats is the reference, and the
    # arithmetic is elementwise, so the bits agree.
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 24),
        k=st.integers(1, 40),
        b=st.none() | st.integers(1, 16),
        log_c=st.floats(-9.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_columns_equal_float_calls(self, n, k, b, log_c, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=(k, n, 3))
        alpha = rng.uniform(0.05, 1.0, n)
        c = 10.0**log_c
        if b is not None:
            y = rng.normal(size=(k, b, n, 3))
            alpha = rng.uniform(0.05, 1.0, (b, n))
            c = c * rng.uniform(0.5, 2.0, b)
        velocities = rng.normal(size=(2, *y.shape[:-2], 3))
        w, u = observer._step_inputs((*velocities, y), alpha, c)
        expected_w, gram = observer._weights(y, alpha)
        assert np.array_equal(w, expected_w)
        omega_m, v_m = (v.reshape(-1, 3).tolist() for v in velocities)
        c_steps = np.broadcast_to(c, y.shape[:-2]).reshape(-1).tolist()
        expected = [
            (*o, *v, *observer._solve_terms(rows, c_step))
            for o, v, rows, c_step in zip(omega_m, v_m, gram.reshape(-1, 4, 4).tolist(), c_steps)
        ]
        assert u.shape == (*y.shape[:-2], 19)
        assert np.array_equal(u.reshape(-1, 19), np.array(expected))


class TestFrameInputs:
    # observer_step passes its one frame without a step axis; its W and row
    # must keep the bits of a one-step block, which run and sweep use.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 29),
        log_scale=st.floats(-3.0, 3.0),
        log_c=st.floats(-9.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_frame_equals_a_one_step_block(self, n, log_scale, log_c, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(scale=10.0**log_scale, size=(n, 3))
        frame = (rng.normal(size=3), rng.normal(size=3), y)
        alpha, c = rng.uniform(0.05, 1.0, n), 10.0**log_c
        w, u = observer._step_inputs(frame, alpha, c)
        block_w, block_u = observer._step_inputs(tuple(a[None] for a in frame), alpha, c)
        assert w.shape == (4, n) and u.shape == (19,)
        assert np.array_equal(w, block_w[0]) and np.array_equal(u, block_u[0])

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_observer_step_passes_its_frame_without_a_step_axis(self, rng, monkeypatch, scheme):
        # A one-step block would run the solve on (1,) columns, about 40%
        # more time per frame.
        shapes, step_inputs = [], observer._step_inputs

        def spy(measurement, alpha, c):
            shapes.append([np.shape(a) for a in measurement])
            return step_inputs(measurement, alpha, c)

        monkeypatch.setattr(observer, "_step_inputs", spy)
        y = rng.normal(size=(4, 3))
        observer_step(_state(landmarks_hat=y), frame_from(y), reference_gains(), 0.01, scheme=scheme)
        assert shapes == [[(3,), (3,), (4, 3)]]


class TestStackedStep:
    def test_diverging_member_is_marked(self, rng):
        estimates, measurements, e, gains = _stack_members(rng)
        e[2] = 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            new, failed = _run_stack(
                estimates, _stacked_measurement(measurements), e, gains, 0.01, True
            )
        assert failed.tolist() == [False, False, True]
        assert len(new) == 2
        assert all(np.isfinite(a).all() for member in new for a in member)


def _member(rng, n, kind, omega_m):
    """(estimate, e, gains) of one member with n landmarks for one step.

    "small" has zero errors and b_omega_hat within 1e-9 rad/s of omega_m,
    so that at dt = 0.01 its corrected twist angle lies below SMALL_ANGLE
    (the series coefficients); "svd" has an r_hat 1% off orthonormal, so
    that the projection takes the SVD; "near" has one about 1e-6 off, so
    that the projection's series makes a correction above rounding;
    "ordinary" has none of these.
    """
    r = so3_exp(rng.normal(size=3)).m
    if kind == "svd":
        r = 1.01 * r
    elif kind == "near":
        r = r + rng.normal(scale=1e-6, size=(3, 3))
    e = rng.normal(scale=0.3, size=(n, 3))
    b_omega = rng.normal(scale=0.05, size=3)
    if kind == "small":
        e[:] = 0.0
        b_omega = omega_m + rng.normal(scale=1e-9, size=3)
    estimate = (r, rng.normal(size=3), rng.normal(size=(n, 3)), b_omega, rng.normal(size=3))
    m = rng.normal(size=(3, 3))
    gains = GainConfig(
        k_p=rng.uniform(0.5, 4.0),
        k_w=rng.uniform(0.5, 7.0),
        gamma=m @ m.T + np.eye(3),
        alpha=rng.uniform(0.05, 1.0, n),
    )
    return estimate, e, gains


class TestMemberStepProperty:
    # A stack runs its landmark-axis formulas once over every member; each
    # member must still get the bits of its one-member step.
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(3, 30),
        kinds=st.lists(
            st.sampled_from(["small", "svd", "near", "ordinary"]), min_size=3, max_size=3
        ),
        implicit=st.booleans(),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_member_has_its_member_steps_bits(self, n, kinds, implicit, shared, seed):
        rng = np.random.default_rng(seed)
        measurements = [
            (rng.normal(size=3), rng.normal(size=3), rng.normal(size=(n, 3))) for _ in range(3)
        ]
        if shared:
            measurements = [measurements[0]] * 3
        members = [_member(rng, n, kind, m[0]) for kind, m in zip(kinds, measurements)]
        estimates, errors, gains = zip(*members)
        batch, failed = _run_stack(
            estimates,
            measurements[0] if shared else _stacked_measurement(measurements),
            np.stack(errors),
            gains,
            0.01,
            implicit,
        )
        assert not failed.any()
        for i, ((estimate, e, member_gains), m) in enumerate(zip(members, measurements)):
            solo = _solo_step(
                estimate, _inputs(m, member_gains, 0.01, implicit), e, member_gains, 0.01
            )
            for got, want in zip(batch[i], solo):
                assert np.array_equal(got, want)


class TestMemberDivergence:
    @pytest.mark.parametrize("implicit", [False, True], ids=["explicit", "implicit"])
    @pytest.mark.parametrize("case", ["errors-1e160", "k_w-1e300", "twist-square-overflow"])
    def test_overflow_raises_divergence_error_only(self, rng, case, implicit):
        estimates, measurements, e, gains = _stack_members(rng)
        estimate, measurement, e, gains = estimates[2], measurements[2], e[2], gains[2]
        if case == "errors-1e160":
            e = np.full_like(e, 1e160)
        elif case == "k_w-1e300":
            gains = replace(gains, k_w=1e300)
        else:
            # Finite, but its squared angle overflows at dt = 0.01.
            measurement = (np.array([1e160, 0.0, 0.0]), *measurement[1:])
        # Each leaves the finite range in the corrected twist, which is
        # checked before the exponential.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError, match="correction terms overflowed"):
                    _solo_step(
                        estimate, _inputs(measurement, gains, 0.01, implicit), e, gains, 0.01
                    )

    def test_float_exception_surfaces_as_divergence_error(self, rng, monkeypatch):
        def overflow(*_):
            raise OverflowError("math range error")

        monkeypatch.setattr(observer, "_exp_floats", overflow)
        estimates, measurements, e, gains = _stack_members(rng)
        with pytest.raises(DivergenceError) as info:
            _solo_step(
                estimates[2], _inputs(measurements[2], gains[2], 0.01, True), e[2], gains[2], 0.01
            )
        assert isinstance(info.value.__cause__, OverflowError)


    def test_float_exception_marks_only_its_member_in_a_stack(self, rng, monkeypatch):
        estimates, measurements, e, gains = _stack_members(rng)
        dt = 0.01
        solo = [
            _solo_step(
                estimates[i], _inputs(measurements[i], gains[i], dt, True), e[i], gains[i], dt
            )
            for i in (0, 2)
        ]
        exp_floats, calls = observer._exp_floats, []

        def overflow_on_second_member(w, v):
            calls.append(1)
            if len(calls) == 2:
                raise OverflowError("math range error")
            return exp_floats(w, v)

        monkeypatch.setattr(observer, "_exp_floats", overflow_on_second_member)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new, failed = _run_stack(
                estimates, _stacked_measurement(measurements), e, gains, dt, True
            )
        assert failed.tolist() == [False, True, False]
        assert len(calls) == 3
        assert len(new) == 2
        for got_member, want_member in zip(new, solo):
            for got, want in zip(got_member, want_member):
                assert np.array_equal(got, want)


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

    @pytest.mark.parametrize(
        "shape", [(3, 4), (12,), (1, 4, 3)], ids=["transposed", "flat", "leading-axis"]
    )
    def test_lyapunov_rejects_errors_not_shaped_n_by_3(self, shape):
        # A (3, 4) array reshaped to (4, 3) pairs values with the wrong
        # alpha: 987.5 here instead of the 775.83 of its transpose.
        gains = GainConfig(k_p=1.0, k_w=2.0, gamma=30.0, alpha=[0.1, 0.2, 0.3, 0.4])
        errors = np.arange(12.0).reshape(4, 3)
        state, bias = ObserverState.cold_start(4), SensorBias.zero()
        assert lyapunov_value(state, errors, bias, gains) == pytest.approx(775.8333333333333)
        bad = errors.T if shape == (3, 4) else errors.reshape(shape)
        with pytest.raises(ValueError, match=r"errors must be a \(4, 3\) array"):
            lyapunov_value(state, bad, bias, gains)

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


class TestGaugeEquivariance:
    # A rigid motion (G, g) of the estimate, R_hat -> G R_hat,
    # P_hat -> G P_hat + g, p_hat_i -> G p_hat_i + g, with the measurements
    # unchanged, maps e_i to G e_i and leaves the body-frame errors
    # R_hat^T e_i, and so the feedback sums, unchanged: one step of either
    # scheme commutes with the motion. Body-frame landmark measurements
    # cannot observe this gauge.
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(3, 12), implicit=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_step_commutes_with_rigid_motion(self, n, implicit, seed):
        rng = np.random.default_rng(seed)
        state = ObserverState(
            so3_exp(rng.normal(size=3)),
            rng.normal(size=3),
            rng.normal(size=(n, 3)),
            rng.normal(scale=0.05, size=3),
            rng.normal(scale=0.05, size=3),
        )
        frame = frame_from(rng.normal(size=(n, 3)), rng.normal(size=3), rng.normal(size=3))
        m = rng.normal(size=(3, 3))
        gains = GainConfig(
            k_p=rng.uniform(0.5, 4.0), k_w=rng.uniform(0.5, 4.0),
            gamma=m @ m.T + np.eye(3), alpha=rng.uniform(0.2, 1.0, n),
        )
        g_rot, g_pos = so3_exp(rng.normal(size=3)).m, rng.normal(scale=3.0, size=3)
        moved = ObserverState(
            Rotation3(g_rot @ state.r_hat.m),
            g_rot @ state.p_hat + g_pos,
            state.landmarks_hat @ g_rot.T + g_pos,
            state.b_omega_hat,
            state.b_v_hat,
        )
        scheme = "implicit" if implicit else "explicit"
        step = observer_step(state, frame, gains, 1e-3, scheme).arrays()
        r_new, p_new, landmarks_new, b_omega_new, b_v_new = step
        expected = (
            g_rot @ r_new,
            g_rot @ p_new + g_pos,
            landmarks_new @ g_rot.T + g_pos,
            b_omega_new,
            b_v_new,
        )
        for got, want in zip(observer_step(moved, frame, gains, 1e-3, scheme).arrays(), expected):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestGainConfig:
    def test_scalar_gamma_broadcast(self):
        gains = reference_gains()
        assert (gains.gamma == 30.0 * np.eye(3)).all()
        assert (np.array(gains.gamma_inv_rows) == np.linalg.inv(30.0 * np.eye(3))).all()

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
        assert np.allclose(np.array(gains.gamma_inv_rows) @ g, np.eye(3), atol=1e-12)


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


def _bias(**fields) -> SensorBias:
    return SensorBias(**{"omega": np.zeros(3), "vel": np.zeros(3), **fields})


def _state(**fields) -> ObserverState:
    return ObserverState(
        **{
            "r_hat": Rotation3.identity(),
            "p_hat": np.zeros(3),
            "landmarks_hat": np.zeros((3, 3)),
            "b_omega_hat": np.zeros(3),
            "b_v_hat": np.zeros(3),
            **fields,
        }
    )


def _gains(**fields) -> GainConfig:
    return GainConfig(**{"k_p": 1.0, "k_w": 1.0, "gamma": 1.0, "alpha": np.ones(3), **fields})


def _frame(**fields) -> SensorFrame:
    return SensorFrame(
        **{"omega_m": np.zeros(3), "v_m": np.zeros(3), "y": np.ones((3, 3)), "t": 0.0, **fields}
    )


ROW = np.zeros((1, 3))
NAN3 = np.array([0.0, np.nan, 0.0])
INF_ROWS = np.array([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 0.0]])


FIELD_CASES = [
    (_bias, "omega", ROW, "a 3-vector"),
    (_bias, "vel", ROW, "a 3-vector"),
    (_state, "p_hat", ROW, "a 3-vector"),
    (_state, "b_omega_hat", ROW, "a 3-vector"),
    (_state, "b_v_hat", ROW, "a 3-vector"),
    (_frame, "omega_m", ROW, "a 3-vector"),
    (_frame, "v_m", ROW, "a 3-vector"),
    (_state, "p_hat", NAN3, "finite"),
    (_state, "landmarks_hat", INF_ROWS, "finite"),
    (_state, "b_omega_hat", -NAN3, "finite"),
    (_state, "b_v_hat", np.array([np.inf, 0.0, 0.0]), "finite"),
    (_frame, "omega_m", NAN3, "finite"),
    (_frame, "v_m", np.array([0.0, 0.0, -np.inf]), "finite"),
    (_frame, "y", INF_ROWS, "finite"),
    (_gains, "gamma", np.eye(2), "a scalar or 3x3 matrix"),
]


class TestFieldRules:
    """Every 3-vector field takes exactly shape (3,), every value is finite,
    and the matrix gain is a scalar or 3x3."""

    @pytest.mark.parametrize(
        "build, field, value, rule",
        FIELD_CASES,
        ids=[f"{b.__name__[1:]}-{f}-{r.split()[-1]}" for b, f, _, r in FIELD_CASES],
    )
    def test_rejects(self, build, field, value, rule):
        with pytest.raises(ValueError, match=f"{field} must be {rule}"):
            build(**{field: value})
