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


def _det3(m: np.ndarray):
    """Determinant of one 3x3 matrix, a float, or of matrices stacked on a
    leading axis, an array."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist() if m.ndim == 2 else m.transpose(1, 2, 0)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


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
    """hat3 of one 3-vector, or of 3-vectors stacked on a leading axis."""
    if v.ndim == 1:
        return np.array(
            [
                [0.0, -v[2], v[1]],
                [v[2], 0.0, -v[0]],
                [-v[1], v[0], 0.0],
            ]
        )
    k = np.zeros((*v.shape, 3))
    k[..., 0, 1] = -v[..., 2]
    k[..., 0, 2] = v[..., 1]
    k[..., 1, 0] = v[..., 2]
    k[..., 1, 2] = -v[..., 0]
    k[..., 2, 0] = -v[..., 1]
    k[..., 2, 1] = v[..., 0]
    return k


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


def _exp_coefficients(omega_dt: np.ndarray):
    """Rodrigues and left-Jacobian coefficients (sin t / t, (1 - cos t) / t^2,
    (t - sin t) / t^3) of the rotation vector omega_dt, t = ||omega_dt||, with
    second-order Taylor fallbacks below SMALL_ANGLE.

    One vector gives Python floats through math. Vectors stacked on a leading
    member axis give one (B, 1, 1) array per coefficient, which broadcasts
    against the stacked 3x3 matrices; np.sin and np.cos may round differently
    from math.sin and math.cos, so a member can differ from its one-vector
    coefficients in the last bits.
    """
    if omega_dt.ndim == 1:
        theta_sq = float(omega_dt @ omega_dt)
        if theta_sq < SMALL_ANGLE * SMALL_ANGLE:
            return (
                1.0 - theta_sq / 6.0,
                0.5 - theta_sq / 24.0,
                1.0 / 6.0 - theta_sq / 120.0,
            )
        theta = math.sqrt(theta_sq)
        s = math.sin(theta)
        return s / theta, (1.0 - math.cos(theta)) / theta_sq, (theta - s) / (theta_sq * theta)
    theta_sq = _dot_rows(omega_dt, omega_dt)
    small = theta_sq < SMALL_ANGLE * SMALL_ANGLE
    # Small angles take the series; 1.0 only keeps their unused closed form finite.
    theta_sq_safe = np.where(small, 1.0, theta_sq)
    theta = np.sqrt(theta_sq_safe)
    s = np.sin(theta)
    coefficients = (
        np.where(small, 1.0 - theta_sq / 6.0, s / theta),
        np.where(small, 0.5 - theta_sq / 24.0, (1.0 - np.cos(theta)) / theta_sq_safe),
        np.where(small, 1.0 / 6.0 - theta_sq / 120.0, (theta - s) / (theta_sq_safe * theta)),
    )
    return tuple(x[:, None, None] for x in coefficients)


def _se3_exp_raw(omega_dt: np.ndarray, vel_dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, translation) of the rigid exponential, no validation.

    omega_dt and vel_dt are one twist or twists stacked on a leading axis.
    """
    a, b, c = _exp_coefficients(omega_dt)
    k = _hat_raw(omega_dt)
    k2 = k @ k
    rot = _EYE3 + a * k + b * k2
    jac = _EYE3 + b * k + c * k2
    return rot, _matvec(jac, vel_dt)


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
    if a.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for matrices and vectors stacked on matching leading axes.

    numpy computes both a 1-D and an (..., 3, 1) right operand as a
    matrix-vector product, so each result has the bits of the unstacked m @ v.
    """
    if v.ndim == 1:
        return m @ v
    return (m @ v[..., None])[..., 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm over the last axis, bit for bit, broadcasting over the rest."""
    return np.sqrt(_dot_rows(x, x))


def _project_raw(a: np.ndarray) -> np.ndarray:
    """Polar projection without input validation; see project_orthonormal.

    a is one matrix or matrices stacked on a leading member axis. A stack
    takes the series for all members at once, then recomputes every member
    outside the series' domain alone through the SVD.
    """
    e = a.swapaxes(-1, -2) @ a - _EYE3
    # Polar factor a (a^T a)^(-1/2) via series; error is O(||E||^3) <= 1e-15.
    if a.ndim == 2:
        if np.abs(e).max() < 1e-5 and _det3(a) > 0.0:
            return a @ (_EYE3 - 0.5 * e + 0.375 * (e @ e))
        return _project_svd(a)
    out = a @ (_EYE3 - 0.5 * e + 0.375 * (e @ e))
    series = (np.abs(e).max(axis=(-2, -1)) < 1e-5) & (_det3(a) > 0.0)
    for i in np.flatnonzero(~series):
        out[i] = _project_svd(a[i])
    return out


def _project_svd(a: np.ndarray) -> np.ndarray:
    """Polar projection of one 3x3 matrix through the SVD, det +1."""
    u, s, vt = np.linalg.svd(a)
    if not s[-1] > 1e-12:
        raise ValueError(f"matrix is singular (smallest singular value {s[-1]:.3e})")
    r = u @ np.diag([1.0, 1.0, _det3(u @ vt)]) @ vt
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
