"""Small-matrix geometry for rotations and rigid-body poses.

Hat/vee maps between 3-vectors and skew-symmetric matrices, closed-form
exponential maps (Rodrigues plus the left Jacobian for the translation part),
the normalized rotation distance, and a polar re-orthonormalization used to
repair drift after long chains of products.

Everything here is a pure function over immutable values; there is no shared
state and all operations are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this rotation angle the Rodrigues / left-Jacobian coefficients switch
# to second-order Taylor expansions to avoid 0/0 without losing precision.
SMALL_ANGLE = 1e-7

# Largest symmetric part vee3 tolerates before treating the input as
# numerically corrupted rather than skew.
SKEW_TOL = 1e-12

# Orthonormality / determinant tolerance for a valid rotation matrix.
ROTATION_TOL = 1e-9

_EYE3 = np.eye(3)


def _as_vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a}")
    return a


def _as_rows3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"{name} must be an (n, 3) array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls with its validation skipped.

    Only for values derived from already-validated inputs by code that keeps
    the invariants __post_init__ would check: rotations orthonormal by
    construction (closed-form exponentials, polar projections, rotation
    products) and the harness step loop.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _det3(m: np.ndarray) -> float:
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


@dataclass(frozen=True)
class Rotation3:
    """Attitude as an orthonormal 3x3 matrix with determinant +1."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got shape {m.shape}")
        object.__setattr__(self, "m", m)
        # Entries near the float limit overflow the product; the resulting
        # inf or NaN residual fails the check below.
        with np.errstate(over="ignore", invalid="ignore"):
            err = np.linalg.norm(m @ m.T - _EYE3)
        if not err <= ROTATION_TOL:
            raise ValueError(f"matrix is not orthonormal: ||R R^T - I||_F = {err:.3e}")
        det = _det3(m)
        if not abs(det - 1.0) <= ROTATION_TOL:
            raise ValueError(f"matrix is not a proper rotation: det = {det!r}")

    @staticmethod
    def identity() -> "Rotation3":
        return Rotation3(np.eye(3))


@dataclass(frozen=True)
class Twist:
    """Body-frame velocity: angular rate (rad/s) and translational velocity (m/s)."""

    omega: np.ndarray
    vel: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", _as_vec3(self.omega, "omega"))
        object.__setattr__(self, "vel", _as_vec3(self.vel, "vel"))

    @staticmethod
    def zero() -> "Twist":
        return Twist(np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class Pose:
    """Rigid-body pose: rotation (body frame) and position (meters, inertial frame)."""

    rotation: Rotation3
    position: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", _as_vec3(self.position, "position"))

    @staticmethod
    def identity() -> "Pose":
        return Pose(Rotation3.identity(), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """Homogeneous 4x4 transform; the bottom row is exactly [0, 0, 0, 1]."""
        t = np.zeros((4, 4))
        t[:3, :3] = self.rotation.m
        t[:3, 3] = self.position
        t[3, 3] = 1.0
        return t

    def compose(self, other: "Pose") -> "Pose":
        """Group product self * other."""
        r = Rotation3(self.rotation.m @ other.rotation.m)
        p = self.rotation.m @ other.position + self.position
        return Pose(r, p)


def _hat_raw(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def hat3(v) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that hat3(a) @ b == cross(a, b)."""
    return _hat_raw(_as_vec3(v, "v"))


def vee3(s) -> np.ndarray:
    """Inverse of hat3. Rejects matrices whose symmetric part exceeds SKEW_TOL."""
    m = np.asarray(s, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"skew matrix must be 3x3, got shape {m.shape}")
    sym = np.abs(m + m.T).max()
    if not sym <= SKEW_TOL:
        raise ValueError(f"matrix is not antisymmetric: max |S + S^T| = {sym:.3e}")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def _exp_coefficients(theta_sq: float) -> tuple[float, float, float]:
    """Rodrigues and left-Jacobian coefficients (sin t / t, (1 - cos t) / t^2,
    (t - sin t) / t^3) with second-order Taylor fallbacks below SMALL_ANGLE."""
    if theta_sq < SMALL_ANGLE * SMALL_ANGLE:
        return (
            1.0 - theta_sq / 6.0,
            0.5 - theta_sq / 24.0,
            1.0 / 6.0 - theta_sq / 120.0,
        )
    theta = math.sqrt(theta_sq)
    s = math.sin(theta)
    return s / theta, (1.0 - math.cos(theta)) / theta_sq, (theta - s) / (theta_sq * theta)


def _se3_exp_raw(omega_dt: np.ndarray, vel_dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, translation) of the rigid exponential, no validation."""
    a, b, c = _exp_coefficients(float(omega_dt @ omega_dt))
    k = _hat_raw(omega_dt)
    k2 = k @ k
    rot = _EYE3 + a * k + b * k2
    jac = _EYE3 + b * k + c * k2
    return rot, jac @ vel_dt


def so3_exp(omega_dt) -> Rotation3:
    """Rotation by the angle-axis vector omega_dt (Rodrigues formula)."""
    w = _as_vec3(omega_dt, "omega_dt")
    return Rotation3(_se3_exp_raw(w, np.zeros(3))[0])


def se3_exp(u: Twist, dt: float) -> Pose:
    """Pose increment from holding the twist u constant over dt seconds.

    Equals the matrix exponential of the twist's 4x4 matrix times dt: the
    rotation part is so3_exp(u.omega * dt) and the translation part is the
    left Jacobian of the rotation applied to u.vel * dt.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    rot, pos = _se3_exp_raw(u.omega * dt, u.vel * dt)
    return Pose(Rotation3(rot), pos)


def rotation_distance(r: Rotation3) -> float:
    """Normalized distance from the identity: Tr(I - R) / 4, clamped to [0, 1].

    0 at the identity, 1 at a half-turn. The clamp absorbs rounding that can
    otherwise produce values like -1e-17.
    """
    return float(_rotation_distance_raw(r.m))


def _rotation_distance_raw(m: np.ndarray) -> np.ndarray:
    """rotation_distance of the 3x3 matrices stacked on m's leading axes."""
    d = 0.25 * (3.0 - m.trace(axis1=-2, axis2=-1))
    return np.minimum(np.maximum(d, 0.0), 1.0)


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, broadcasting over the leading axes.

    A stacked matmul, so each entry has the bits of the 1-D product a @ b;
    (a * b).sum(axis=-1) rounds differently in about one row in ten.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm over the last axis, bit for bit, broadcasting over the rest."""
    return np.sqrt(_dot_rows(x, x))


def _project_raw(a: np.ndarray) -> np.ndarray:
    """Polar projection without input validation; see project_orthonormal."""
    e = a.T @ a - _EYE3
    if np.abs(e).max() < 1e-5 and _det3(a) > 0.0:
        # Polar factor a (a^T a)^(-1/2) via series; error is O(||E||^3) <= 1e-15.
        return a @ (_EYE3 - 0.5 * e + 0.375 * (e @ e))

    u, s, vt = np.linalg.svd(a)
    if not s[-1] > 1e-12:
        raise ValueError(f"matrix is singular (smallest singular value {s[-1]:.3e})")
    r = u @ np.diag([1.0, 1.0, float(_det3(u @ vt))]) @ vt
    det = _det3(r)
    if not abs(det - 1.0) <= ROTATION_TOL:
        raise ValueError(f"projection failed to produce a proper rotation: det = {det!r}")
    return r


def project_orthonormal(m) -> Rotation3:
    """Nearest rotation to a 3x3 matrix (orthonormal polar factor, det +1).

    Near-orthonormal inputs take a cheap series path so the projection can run
    every integration step; anything else goes through an SVD with determinant
    correction. Rejects degenerate input (non-positive smallest singular value).
    """
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"matrix must be 3x3, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix must be finite")
    return Rotation3(_project_raw(a))
