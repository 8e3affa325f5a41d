"""Ground-truth simulator: rigid-body motion among fixed landmarks.

Integrates the true kinematics with the exact exponential map (the twist is
held constant over each step, so the group structure is preserved instead of
being approximated by an Euler or Runge-Kutta update) and synthesizes biased,
optionally noisy body-frame measurements of velocity and landmark positions.

A run is sequential because the noise generator threads through it; distinct
runs with their own state and generator may execute concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import Pose, Rotation3, Twist, _project_raw, _se3_exp_raw, _trusted


@dataclass(frozen=True)
class TrueState:
    """True pose plus the fixed landmark map (inertial frame, meters)."""

    pose: Pose
    landmarks: np.ndarray

    def __post_init__(self) -> None:
        lm = np.asarray(self.landmarks, dtype=float)
        if lm.ndim != 2 or lm.shape[1] != 3:
            raise ValueError(f"landmarks must be an (n, 3) array, got shape {lm.shape}")
        if lm.shape[0] < 3:
            raise ValueError(
                f"at least 3 landmarks are required for observability, got {lm.shape[0]}"
            )
        if not np.isfinite(lm).all():
            raise ValueError("landmarks must be finite")
        object.__setattr__(self, "landmarks", lm)

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
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float).reshape(3))
        object.__setattr__(self, "vel", np.asarray(self.vel, dtype=float).reshape(3))
        if not (np.isfinite(self.omega).all() and np.isfinite(self.vel).all()):
            raise ValueError("velocity biases must be finite")
        if self.landmark is not None:
            lm = np.asarray(self.landmark, dtype=float)
            if lm.ndim != 2 or lm.shape[1] != 3:
                raise ValueError(
                    f"landmark bias must be an (n, 3) array, got shape {lm.shape}"
                )
            if not np.isfinite(lm).all():
                raise ValueError("landmark bias must be finite")
            object.__setattr__(self, "landmark", lm)

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
        object.__setattr__(self, "omega_m", np.asarray(self.omega_m, dtype=float).reshape(3))
        object.__setattr__(self, "v_m", np.asarray(self.v_m, dtype=float).reshape(3))
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 2 or y.shape[1] != 3:
            raise ValueError(f"y must be an (n, 3) array, got shape {y.shape}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", float(self.t))

    @property
    def count(self) -> int:
        return self.y.shape[0]


def _increment_raw(u: Twist, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, translation) of holding the twist u constant over dt."""
    return _se3_exp_raw(u.omega * dt, u.vel * dt)


def _true_step_raw(
    rot: np.ndarray, pos: np.ndarray, step_rot: np.ndarray, step_pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a pose increment to the true (rotation, position), re-projecting."""
    return _project_raw(rot @ step_rot), rot @ step_pos + pos


def true_step(state: TrueState, u: Twist, dt: float) -> TrueState:
    """Advance the true pose by the exact exponential of the twist over dt.

    Landmarks are fixed and carried through untouched; the rotation is
    re-projected so orthonormality cannot drift over long runs.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    rot, pos = _true_step_raw(
        state.pose.rotation.m, state.pose.position, *_increment_raw(u, dt)
    )
    return TrueState(Pose(_trusted(Rotation3, m=rot), pos), state.landmarks)


def _sense_raw(
    rot: np.ndarray,
    pos: np.ndarray,
    landmarks: np.ndarray,
    u: Twist,
    bias: SensorBias,
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega_m, v_m, y) measured at the true pose (rot, pos); see sense."""
    omega_m = u.omega + bias.omega
    if noise.sigma_omega > 0.0:
        omega_m = omega_m + noise.sigma_omega * rng.standard_normal(3)
    v_m = u.vel + bias.vel
    if noise.sigma_v > 0.0:
        v_m = v_m + noise.sigma_v * rng.standard_normal(3)

    y = (landmarks - pos) @ rot
    if bias.landmark is not None:
        y = y + bias.landmark
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
    if bias.landmark is not None and bias.landmark.shape != state.landmarks.shape:
        raise ValueError(
            f"landmark bias shape {bias.landmark.shape} does not match "
            f"landmark count {state.count}"
        )
    omega_m, v_m, y = _sense_raw(
        state.pose.rotation.m, state.pose.position, state.landmarks, u, bias, noise, rng
    )
    return SensorFrame(omega_m, v_m, y, t)
