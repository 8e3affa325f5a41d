"""Small-matrix geometry for rotations and rigid-body poses.

Hat/vee maps between 3-vectors and skew-symmetric matrices, closed-form
exponential maps (Rodrigues plus the left Jacobian for the translation part),
the normalized rotation distance, and a polar re-orthonormalization used to
repair drift after long chains of products.

The step kernels (_exp_floats, _mul3, _affine3, _project_rows) run on
Python floats, rows of a matrix as tuples, because numpy's per-call overhead
costs far more than 3x3 arithmetic; the public functions here call them too.
The metric kernels (_mul3, _distance_rows, _norm3, _quadratic3) also run
unchanged on (K,) columns of entries, one per record.

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


def _as_positive(value, name: str) -> float:
    """value as a positive, finite float, or ValueError naming it."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


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
    """Determinant of one 3x3 matrix."""
    (a, b, c), (d, e, f), (g, h, i) = m.tolist()
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


def hat3(v) -> np.ndarray:
    """Skew-symmetric matrix of a 3-vector, so that hat3(a) @ b == cross(a, b)."""
    x, y, z = _as_vec3(v, "v").tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


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
    (t - sin t) / t^3) of one rotation angle t, given t^2 as a Python float,
    with second-order Taylor fallbacks below SMALL_ANGLE."""
    if theta_sq < SMALL_ANGLE * SMALL_ANGLE:
        return 1.0 - theta_sq / 6.0, 0.5 - theta_sq / 24.0, 1.0 / 6.0 - theta_sq / 120.0
    theta = math.sqrt(theta_sq)
    s = math.sin(theta)
    return s / theta, (1.0 - math.cos(theta)) / theta_sq, (theta - s) / (theta_sq * theta)


def _exp_floats(w, v) -> tuple[tuple, tuple]:
    """(rotation rows, translation) of the rigid exponential of one twist.

    w is the rotation vector and v the translation, each three Python
    floats; the result is on Python floats too. With K = hat3(w),
    K^2 = w w^T - ||w||^2 I, the rotation is I + a K + b K^2 and the
    translation (I + b K + c K^2) v, (a, b, c) from _exp_coefficients.
    """
    w0, w1, w2 = w
    v0, v1, v2 = v
    theta_sq = w0 * w0 + w1 * w1 + w2 * w2
    a, b, c = _exp_coefficients(theta_sq)
    k00, k11, k22 = w0 * w0 - theta_sq, w1 * w1 - theta_sq, w2 * w2 - theta_sq
    k01, k02, k12 = w0 * w1, w0 * w2, w1 * w2
    rot = (
        (1.0 + b * k00, -a * w2 + b * k01, a * w1 + b * k02),
        (a * w2 + b * k01, 1.0 + b * k11, -a * w0 + b * k12),
        (-a * w1 + b * k02, a * w0 + b * k12, 1.0 + b * k22),
    )
    j00, j01, j02 = 1.0 + c * k00, -b * w2 + c * k01, b * w1 + c * k02
    j10, j11, j12 = b * w2 + c * k01, 1.0 + c * k11, -b * w0 + c * k12
    j20, j21, j22 = -b * w1 + c * k02, b * w0 + c * k12, 1.0 + c * k22
    return rot, (
        j00 * v0 + j01 * v1 + j02 * v2,
        j10 * v0 + j11 * v1 + j12 * v2,
        j20 * v0 + j21 * v1 + j22 * v2,
    )


def so3_exp(omega_dt) -> Rotation3:
    """Rotation by the angle-axis vector omega_dt (Rodrigues formula)."""
    w = _as_vec3(omega_dt, "omega_dt")
    return Rotation3(np.array(_exp_floats(w.tolist(), (0.0, 0.0, 0.0))[0]))


def se3_exp(u: Twist, dt: float) -> Pose:
    """Pose increment from holding the twist u constant over dt seconds.

    Equals the matrix exponential of the twist's 4x4 matrix times dt: the
    rotation part is so3_exp(u.omega * dt) and the translation part is the
    left Jacobian of the rotation applied to u.vel * dt.
    """
    dt = _as_positive(dt, "dt")
    rot, pos = _exp_floats((u.omega * dt).tolist(), (u.vel * dt).tolist())
    return Pose(Rotation3(np.array(rot)), np.array(pos))


def rotation_distance(r: Rotation3) -> float:
    """Normalized distance from the identity: Tr(I - R) / 4 = sin^2(theta / 2),
    0 at the identity and 1 at a half-turn (see _distance_rows)."""
    return float(_distance_rows(r.m.tolist()))


def _distance_rows(r):
    """rotation_distance of the rows r of Python floats, or of (K,) columns.

    With c = cos(theta) = (tr R - 1) / 2 and s = sin(theta) = ||vee(R - R^T)|| / 2:
    s^2 / (2 (1 + c)) where c >= 0, 1 - s^2 / (2 (1 - c)) where c < 0. Unlike
    (3 - tr R) / 4, which cancels to 1.1e-16 near the identity and can round
    past 1 near a half-turn, both keep full precision; their divisor
    2 (1 + |c|) >= 2 never makes the unselected branch divide by zero.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    x, y, z = r21 - r12, r02 - r20, r10 - r01
    c = 0.5 * (r00 + r11 + r22 - 1.0)
    q = (x * x + y * y + z * z) / (8.0 * (1.0 + abs(c)))
    return np.where(c >= 0.0, q, 1.0 - q)


def _norm3(v):
    """Euclidean norm of a 3-vector of Python floats or of (K,) columns."""
    v0, v1, v2 = v
    return np.sqrt(v0 * v0 + v1 * v1 + v2 * v2)


def _quadratic3(v, a):
    """(v^T a) v for a 3x3 matrix a as rows of Python floats and a 3-vector v
    of Python floats or of (K,) columns."""
    v0, v1, v2 = v
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    return (
        (v0 * a00 + v1 * a10 + v2 * a20) * v0
        + (v0 * a01 + v1 * a11 + v2 * a21) * v1
        + (v0 * a02 + v1 * a12 + v2 * a22) * v2
    )


def _mul3(a, b) -> tuple:
    """a @ b of two 3x3 matrices given as rows of Python floats (or, for the
    metrics, of (K,) columns)."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    return (
        (a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
         a00 * b02 + a01 * b12 + a02 * b22),
        (a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
         a10 * b02 + a11 * b12 + a12 * b22),
        (a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
         a20 * b02 + a21 * b12 + a22 * b22),
    )


def _affine3(a, v, p) -> tuple:
    """a @ v + p for a 3x3 matrix a given as rows and 3-vectors v, p, on
    Python floats."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    v0, v1, v2 = v
    p0, p1, p2 = p
    return (
        a00 * v0 + a01 * v1 + a02 * v2 + p0,
        a10 * v0 + a11 * v1 + a12 * v2 + p1,
        a20 * v0 + a21 * v1 + a22 * v2 + p2,
    )


def _project_rows(a) -> tuple:
    """Polar projection of one 3x3 matrix given as rows of Python floats,
    without input validation (see project_orthonormal); returns the rows.

    Inputs within 1e-5 of orthonormal with a positive determinant take the
    series a (I - E / 2 + 3 E^2 / 8) of a (a^T a)^(-1/2), E = a^T a - I,
    whose error is O(||E||^3) <= 1e-15; any other goes through _project_svd.
    """
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    e00 = a00 * a00 + a10 * a10 + a20 * a20 - 1.0
    e11 = a01 * a01 + a11 * a11 + a21 * a21 - 1.0
    e22 = a02 * a02 + a12 * a12 + a22 * a22 - 1.0
    e01 = a00 * a01 + a10 * a11 + a20 * a21
    e02 = a00 * a02 + a10 * a12 + a20 * a22
    e12 = a01 * a02 + a11 * a12 + a21 * a22
    det = a00 * (a11 * a22 - a12 * a21) - a01 * (a10 * a22 - a12 * a20) + a02 * (
        a10 * a21 - a11 * a20
    )
    # A NaN entry fails these comparisons, as it fails np.abs(e).max() < 1e-5.
    if not (
        -1e-5 < e00 < 1e-5 and -1e-5 < e11 < 1e-5 and -1e-5 < e22 < 1e-5
        and -1e-5 < e01 < 1e-5 and -1e-5 < e02 < 1e-5 and -1e-5 < e12 < 1e-5 and det > 0.0
    ):
        return _project_svd(np.array(a)).tolist()
    s00 = 1.0 - 0.5 * e00 + 0.375 * (e00 * e00 + e01 * e01 + e02 * e02)
    s11 = 1.0 - 0.5 * e11 + 0.375 * (e01 * e01 + e11 * e11 + e12 * e12)
    s22 = 1.0 - 0.5 * e22 + 0.375 * (e02 * e02 + e12 * e12 + e22 * e22)
    s01 = -0.5 * e01 + 0.375 * (e00 * e01 + e01 * e11 + e02 * e12)
    s02 = -0.5 * e02 + 0.375 * (e00 * e02 + e01 * e12 + e02 * e22)
    s12 = -0.5 * e12 + 0.375 * (e01 * e02 + e11 * e12 + e12 * e22)
    return _mul3(a, ((s00, s01, s02), (s01, s11, s12), (s02, s12, s22)))


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
    return Rotation3(np.array(_project_rows(a.tolist())))
