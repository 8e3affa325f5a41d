"""Rotation / pose arithmetic against literal cases and the series oracle."""

import math
import warnings

import numpy as np
import pytest

from slamobs import (
    Pose,
    Rotation3,
    Twist,
    hat3,
    project_orthonormal,
    rotation_distance,
    se3_exp,
    so3_exp,
    vee3,
)

from slamobs import geometry

from oracles import matexp_taylor, twist_matrix


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestHatVee:
    def test_hat_literal(self):
        expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
        assert (hat3([1.0, 2.0, 3.0]) == expected).all()

    def test_hat_zero(self):
        assert (hat3([0.0, 0.0, 0.0]) == np.zeros((3, 3))).all()

    def test_hat_basis(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert (hat3([0.0, 0.0, 1.0]) == expected).all()

    def test_hat_is_cross_product(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(hat3(a) @ b, np.cross(a, b), atol=1e-15)

    def test_hat_exactly_antisymmetric(self, rng):
        for _ in range(50):
            k = hat3(rng.normal(size=3) * rng.choice([1e-8, 1.0, 1e8]))
            assert (k.T == -k).all()

    def test_vee_literal(self):
        m = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
        assert (vee3(m) == np.array([1.0, 2.0, 3.0])).all()

    def test_vee_zero(self):
        assert (vee3(np.zeros((3, 3))) == np.zeros(3)).all()

    def test_vee_basis(self):
        m = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -5.0], [0.0, 5.0, 0.0]])
        assert (vee3(m) == np.array([5.0, 0.0, 0.0])).all()

    def test_vee_hat_roundtrip_exact(self, rng):
        for _ in range(100):
            v = rng.normal(size=3) * rng.choice([1e-12, 1.0, 1e9])
            assert (vee3(hat3(v)) == v).all()

    def test_hat_vee_roundtrip_exact(self, rng):
        for _ in range(50):
            k = hat3(rng.normal(size=3))
            assert (hat3(vee3(k)) == k).all()

    def test_vee_rejects_symmetric_contamination(self):
        m = hat3([1.0, 2.0, 3.0])
        m[0, 1] += 1e-9
        with pytest.raises(ValueError, match="antisymmetric"):
            vee3(m)

    def test_vee_rejects_non_3x3(self):
        with pytest.raises(ValueError, match=r"skew matrix must be 3x3, got shape \(2, 2\)"):
            vee3(np.zeros((2, 2)))

    def test_hat_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            hat3([np.nan, 0.0, 0.0])


class TestSo3Exp:
    def test_zero(self):
        assert (so3_exp(np.zeros(3)).m == np.eye(3)).all()

    def test_quarter_turn_literal(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(so3_exp([0.0, 0.0, np.pi / 2]).m, expected, atol=1e-12)

    def test_half_turn_literal(self):
        assert np.allclose(so3_exp([np.pi, 0.0, 0.0]).m, np.diag([1.0, -1.0, -1.0]), atol=1e-12)

    def test_matches_series_oracle_up_to_pi(self, rng):
        for _ in range(300):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            w = axis * rng.uniform(0.0, np.pi)
            r = so3_exp(w).m
            assert np.linalg.norm(r - matexp_taylor(hat3(w))) <= 1e-12

    def test_small_angle_branch_matches_oracle(self, rng):
        for scale in (1e-12, 1e-9, 1e-8, 9.9e-8, 1.1e-7):
            w = rng.normal(size=3)
            w = w / np.linalg.norm(w) * scale
            r = so3_exp(w).m
            assert np.linalg.norm(r - matexp_taylor(hat3(w))) <= 1e-15

    def test_result_is_valid_rotation(self, rng):
        for _ in range(50):
            r = so3_exp(rng.normal(size=3)).m
            assert np.linalg.norm(r @ r.T - np.eye(3)) <= 1e-9
            assert abs(np.linalg.det(r) - 1.0) <= 1e-9


class TestSe3Exp:
    def test_zero_twist_is_identity(self):
        pose = se3_exp(Twist.zero(), 0.75)
        assert (pose.rotation.m == np.eye(3)).all()
        assert (pose.position == np.zeros(3)).all()

    def test_pure_translation(self):
        pose = se3_exp(Twist(np.zeros(3), np.array([1.0, 2.0, 3.0])), 1.0)
        assert (pose.rotation.m == np.eye(3)).all()
        assert np.allclose(pose.position, [1.0, 2.0, 3.0], atol=1e-15)

    def test_quarter_turn_translation_literal(self):
        pose = se3_exp(Twist(np.array([0.0, 0.0, np.pi / 2]), np.array([1.0, 0.0, 0.0])), 1.0)
        assert np.allclose(pose.rotation.m, rot_z(np.pi / 2), atol=1e-12)
        assert np.allclose(pose.position, [2.0 / np.pi, 2.0 / np.pi, 0.0], atol=1e-10)

    def test_matches_series_oracle(self, rng):
        for _ in range(200):
            omega = rng.normal(size=3)
            vel = rng.normal(size=3) * 3.0
            dt = float(rng.uniform(0.01, 1.5))
            if np.linalg.norm(omega) * dt > np.pi:
                omega = omega / np.linalg.norm(omega) * (np.pi / dt) * 0.999
            pose = se3_exp(Twist(omega, vel), dt)
            expected = matexp_taylor(twist_matrix(omega, vel) * dt)
            assert np.linalg.norm(pose.matrix() - expected) <= 1e-10

    def test_exp_of_negated_twist_inverts(self, rng):
        for _ in range(100):
            u = Twist(rng.normal(size=3), rng.normal(size=3) * 2.0)
            dt = float(rng.uniform(0.01, 1.0))
            prod = se3_exp(u, dt).compose(se3_exp(Twist(-u.omega, -u.vel), dt))
            assert np.linalg.norm(prod.matrix() - np.eye(4)) <= 1e-10

    def test_rejects_nonpositive_dt(self):
        # inf and nan are rejected here, not by the NaN rotation they give.
        for dt in (math.inf, math.nan, 0.0, -1.0, 10**400, 10**5000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="dt must be positive and finite"):
                    se3_exp(Twist(np.ones(3), np.ones(3)), dt)


class TestRotationDistance:
    def test_identity(self):
        assert rotation_distance(Rotation3.identity()) == 0.0

    def test_half_turn(self):
        assert rotation_distance(Rotation3(np.diag([-1.0, -1.0, 1.0]))) == 1.0

    def test_quarter_turn(self):
        assert rotation_distance(Rotation3(rot_z(np.pi / 2))) == pytest.approx(0.5, abs=1e-15)

    def test_range_over_random_rotations(self, rng):
        for _ in range(200):
            d = rotation_distance(so3_exp(rng.normal(size=3) * 2.0))
            assert 0.0 <= d <= 1.0

    @pytest.mark.parametrize("angle", [1e-8, 1e-7, 1e-5, 1e-3, 1.0, 2.0, 3.0, math.pi])
    def test_matches_half_angle_sine(self, angle):
        # Tr(I - R) / 4 = sin^2(angle / 2). The trace form cancels to 1.1e-16
        # absolute near the identity: it read 0.0 at 1e-8 rad and 2.44e-15 at
        # 1e-7 rad. Above a quarter turn the other branch applies.
        axis = np.array([1.0, -2.0, 2.0]) / 3.0
        for direction in (np.array([1.0, 0.0, 0.0]), axis):
            d = rotation_distance(so3_exp(angle * direction))
            assert d == pytest.approx(math.sin(angle / 2.0) ** 2, rel=1e-12, abs=0.0)
            assert d <= 1.0

    def test_half_turns_neither_warn_nor_divide_by_zero(self):
        # Each branch's quotient is evaluated for every input, the unselected
        # one included, so a half-turn must not divide by zero in the other.
        signs = ([-1.0, -1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0])
        stack = np.stack([np.eye(3), *map(np.diag, signs)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floats = [rotation_distance(Rotation3(m)) for m in stack]
            columns = geometry._distance_rows(np.moveaxis(stack, 0, -1))
        assert floats == [0.0, 1.0, 1.0, 1.0]
        assert columns.tolist() == floats


class TestProjectOrthonormal:
    def test_identity_fixed_point(self):
        assert (project_orthonormal(np.eye(3)).m == np.eye(3)).all()

    def test_removes_uniform_scale(self):
        r = rot_z(np.pi / 2)
        assert np.linalg.norm(project_orthonormal(1.001 * r).m - r) <= 1e-12

    def test_repairs_small_perturbation(self, rng):
        for _ in range(50):
            r = so3_exp(rng.normal(size=3)).m
            noisy = r + rng.normal(size=(3, 3)) * 1e-6
            fixed = project_orthonormal(noisy).m
            assert np.linalg.norm(fixed @ fixed.T - np.eye(3)) <= 1e-12

    def test_idempotent(self, rng):
        for _ in range(20):
            m = so3_exp(rng.normal(size=3)).m + rng.normal(size=(3, 3)) * 0.05
            once = project_orthonormal(m).m
            twice = project_orthonormal(once).m
            assert np.linalg.norm(twice - once) <= 1e-12

    def test_projection_is_nearest_among_samples(self, rng):
        # The polar factor minimizes Frobenius distance over rotations; any
        # sampled rotation must be at least as far from the input.
        m = so3_exp(np.array([0.3, -0.2, 0.9])).m + 0.05
        best = project_orthonormal(m).m
        d_best = np.linalg.norm(m - best)
        for _ in range(200):
            other = so3_exp(rng.normal(size=3) * 2.0).m
            assert np.linalg.norm(m - other) >= d_best - 1e-12

    def test_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            project_orthonormal(np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "m, message",
        [
            (np.eye(4), r"matrix must be 3x3, got shape \(4, 4\)"),
            (np.diag([1.0, np.nan, 1.0]), "matrix must be finite"),
        ],
        ids=["4x4", "nan"],
    )
    def test_rejects_non_3x3_or_nonfinite(self, m, message):
        with pytest.raises(ValueError, match=message):
            project_orthonormal(m)

    def test_corrects_reflection(self):
        r = project_orthonormal(np.diag([1.0, 1.0, -1.0]))
        assert abs(np.linalg.det(r.m) - 1.0) <= 1e-12


class TestTypes:
    def test_rotation_rejects_nonorthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Rotation3(np.eye(3) * 1.1)

    def test_rotation_rejects_reflection(self):
        with pytest.raises(ValueError, match="proper rotation"):
            Rotation3(np.diag([1.0, 1.0, -1.0]))

    def test_rotation_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            Rotation3(np.eye(4))

    def test_pose_matrix_bottom_row_exact(self, rng):
        pose = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        assert (pose.matrix()[3] == np.array([0.0, 0.0, 0.0, 1.0])).all()

    def test_pose_compose_matches_matrix_product(self, rng):
        a = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        b = Pose(so3_exp(rng.normal(size=3)), rng.normal(size=3))
        assert np.allclose(a.compose(b).matrix(), a.matrix() @ b.matrix(), rtol=0.0, atol=1e-12)

    def test_twist_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Twist(np.array([np.inf, 0.0, 0.0]), np.zeros(3))
