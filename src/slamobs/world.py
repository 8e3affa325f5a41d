"""Ground-truth simulator: rigid-body motion among fixed landmarks.

Integrates the true kinematics with the exact exponential map (the twist is
held constant over each step, so the group structure is preserved instead of
being approximated by an Euler or Runge-Kutta update) and synthesizes biased,
optionally noisy body-frame measurements of velocity and landmark positions.
The pose and its increment are computed on Python floats. The landmark
measurement has one body (_measure), one product over a block of K poses:
sense calls it with K = 1, and the harness with blocks of its chained truth,
which get each pose's bits from it.

A run is sequential because the noise generator threads through it; distinct
runs with their own state and generator may execute concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Pose,
    Rotation3,
    Twist,
    _affine3,
    _as_positive,
    _as_rows3,
    _as_vec3,
    _exp_floats,
    _mul3,
    _project_rows,
    _trusted,
)


def _as_landmarks(v, name: str = "landmarks") -> np.ndarray:
    """v as a finite (n, 3) landmark array with n >= 3, or ValueError."""
    lm = _as_rows3(v, name)
    if lm.shape[0] < 3:
        raise ValueError(
            f"at least 3 landmarks are required for observability, got {lm.shape[0]}"
        )
    return lm


@dataclass(frozen=True)
class TrueState:
    """True pose plus the fixed landmark map (inertial frame, meters)."""

    pose: Pose
    landmarks: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "landmarks", _as_landmarks(self.landmarks))

    @property
    def count(self) -> int:
        return self.landmarks.shape[0]


@dataclass(frozen=True)
class SensorBias:
    """Constant measurement offsets: gyro (rad/s), velocity (m/s), landmark (m).

    The landmark offset is per landmark, shape (n, 3); None means zero, which
    is the default everywhere since the observer assumes unbiased landmark
    measurements.
    """

    omega: np.ndarray
    vel: np.ndarray
    landmark: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", _as_vec3(self.omega, "omega"))
        object.__setattr__(self, "vel", _as_vec3(self.vel, "vel"))
        if self.landmark is not None:
            object.__setattr__(self, "landmark", _as_rows3(self.landmark, "landmark"))

    @staticmethod
    def zero() -> "SensorBias":
        return SensorBias(np.zeros(3), np.zeros(3))


@dataclass(frozen=True)
class NoiseSpec:
    """Per-axis Gaussian noise levels and the seed of the counter-based generator.

    All-zero sigmas (the default) reproduce the noise-free setting; the seed
    still fully determines the stream, so identical specs give bit-identical
    measurement sequences.
    """

    sigma_omega: float = 0.0
    sigma_v: float = 0.0
    sigma_y: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sigma_omega", "sigma_v", "sigma_y"):
            value = float(getattr(self, name))
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
            object.__setattr__(self, name, value)
        # An integral type only: int() would silently truncate a seed of 1.7.
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        seed = int(self.seed)
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed}")
        object.__setattr__(self, "seed", seed)

    def make_rng(self) -> np.random.Generator:
        # Philox is counter-based: the stream depends only on the seed, not on
        # platform-specific generator state.
        return np.random.Generator(np.random.Philox(self.seed))


@dataclass(frozen=True)
class SensorFrame:
    """One time step of measurements, all in the body frame."""

    omega_m: np.ndarray
    v_m: np.ndarray
    y: np.ndarray
    t: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega_m", _as_vec3(self.omega_m, "omega_m"))
        object.__setattr__(self, "v_m", _as_vec3(self.v_m, "v_m"))
        object.__setattr__(self, "y", _as_rows3(self.y, "y"))
        object.__setattr__(self, "t", float(self.t))

    @property
    def count(self) -> int:
        return self.y.shape[0]


def _check_landmark_bias(bias: SensorBias, n: int) -> None:
    """ValueError unless bias carries no landmark offsets or one per landmark."""
    if bias.landmark is not None and bias.landmark.shape != (n, 3):
        raise ValueError(f"landmark bias shape {bias.landmark.shape} does not match {n} landmarks")


def _increment_raw(u: Twist, dt: float) -> tuple[tuple, tuple]:
    """(rotation rows, translation) of holding the twist u constant over dt,
    on Python floats."""
    return _exp_floats((u.omega * dt).tolist(), (u.vel * dt).tolist())


def true_step(state: TrueState, u: Twist, dt: float) -> TrueState:
    """Advance the true pose by the exact exponential of the twist over dt.

    Landmarks are fixed and carried through untouched; the rotation is
    re-projected so orthonormality cannot drift over long runs. The
    arithmetic runs on Python floats, as in the harness's chained truth.
    """
    step_rot, step_pos = _increment_raw(u, _as_positive(dt, "dt"))
    r = state.pose.rotation.m.tolist()
    rot = np.array(_project_rows(_mul3(r, step_rot)))
    pos = np.array(_affine3(r, step_pos, state.pose.position.tolist()))
    return TrueState(Pose(_trusted(Rotation3, m=rot), pos), state.landmarks)


def _measure(
    rot: np.ndarray, pos: np.ndarray, landmarks: np.ndarray, bias: SensorBias
) -> np.ndarray:
    """The noise-free landmark measurements R^T (p_i - P) + bias of K true
    poses, rot (K, 3, 3) and pos (K, 3), as one (K, n, 3) array.

    One product over the block: each pose's rows get the bits of a
    one-pose call (sense calls it with K = 1).
    """
    y = (landmarks - pos[:, None, :]) @ rot
    if bias.landmark is not None:
        y += bias.landmark
    return y


def _add_noise_raw(
    measurement: tuple, noise: NoiseSpec, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A noise-free (omega_m, v_m, y) plus this step's draws from rng.

    Draws happen in sense's order (gyro, velocity, landmarks) and only for
    nonzero sigmas.
    """
    omega_m, v_m, y = measurement
    if noise.sigma_omega > 0.0:
        omega_m = omega_m + noise.sigma_omega * rng.standard_normal(3)
    if noise.sigma_v > 0.0:
        v_m = v_m + noise.sigma_v * rng.standard_normal(3)
    if noise.sigma_y > 0.0:
        y = y + noise.sigma_y * rng.standard_normal(y.shape)
    return omega_m, v_m, y


def sense(
    state: TrueState,
    bias: SensorBias,
    noise: NoiseSpec,
    u: Twist,
    rng: np.random.Generator,
    t: float = 0.0,
) -> SensorFrame:
    """Measure the true twist and landmarks with bias and seeded Gaussian noise.

    Landmark measurements are the landmark positions expressed in the body
    frame: R^T (p_i - P), plus the per-landmark bias and noise. Draws happen
    in a fixed order (gyro, velocity, landmarks) and only for nonzero sigmas,
    so the generator advances deterministically.
    """
    _check_landmark_bias(bias, state.count)
    rot, pos = state.pose.rotation.m, state.pose.position
    y = _measure(rot[None], pos[None], state.landmarks, bias)[0]
    omega_m, v_m, y = _add_noise_raw((u.omega + bias.omega, u.vel + bias.vel, y), noise, rng)
    return SensorFrame(omega_m, v_m, y, t)
