"""Nonlinear landmark-SLAM observer with fast-adaptation gains.

The observer estimates the vehicle pose, the landmark map, and the constant
gyro/velocity measurement biases from body-frame measurements alone. Each
discrete step:

* forms the measurable landmark errors e_i = p_hat_i - (R_hat y_i + P_hat),
* scales the landmark update by a gain that grows quadratically with the
  error magnitude (k_p / 4 at zero error, unbounded for large errors),
* builds innovation terms w_omega / w_v that are subtracted from the measured
  velocities before the pose is propagated through the exact exponential map,
* adapts the bias estimates with the matrix gain applied to the same
  per-landmark sums.

Two step schemes share this arithmetic. The explicit scheme evaluates every
quantity from the pre-update state. Its innovation feedback is a stiff mode
with rate about k_w / alpha * sum_i ||y_i||^2, so it is stable only for
dt below about 2 / rate. The linearly-implicit scheme (a Rosenbrock-Euler
step, Hairer & Wanner, Solving ODEs II, sec. IV.7) treats that feedback
implicitly: it passes the innovation sums through one symmetric 3x3 solve
before they enter the twist and the bias update, which removes that limit.
Neither scheme iterates. observer_step defaults to the explicit scheme, the
literal discretization of the continuous law; the scenario runner
(harness.trajectory) steps with the implicit one. The rotation estimate is
re-projected onto the orthonormal manifold after every update.

observer_step is a pure function from state to state; runs are sequential but
independent observers can execute concurrently.

Truth-aware diagnostics (pose error, bias error, the energy functional whose
decay certifies convergence) live here as well, but they are simulation-only:
nothing in the estimation path touches the true state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Rotation3, _project_raw, _se3_exp_raw, _trusted, hat3
from .world import SensorBias, SensorFrame, TrueState

_EYE3 = np.eye(3)


class DivergenceError(RuntimeError):
    """The observer state stopped being finite (gain / step-size blow-up)."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class ObserverState:
    """Full estimate: pose, landmark map, and velocity-measurement biases."""

    r_hat: Rotation3
    p_hat: np.ndarray
    landmarks_hat: np.ndarray
    b_omega_hat: np.ndarray
    b_v_hat: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_hat", np.asarray(self.p_hat, dtype=float).reshape(3))
        lm = np.asarray(self.landmarks_hat, dtype=float)
        if lm.ndim != 2 or lm.shape[1] != 3:
            raise ValueError(f"landmarks_hat must be (n, 3), got shape {lm.shape}")
        if lm.shape[0] < 3:
            raise ValueError(
                f"at least 3 landmark estimates are required, got {lm.shape[0]}"
            )
        object.__setattr__(self, "landmarks_hat", lm)
        object.__setattr__(
            self, "b_omega_hat", np.asarray(self.b_omega_hat, dtype=float).reshape(3)
        )
        object.__setattr__(self, "b_v_hat", np.asarray(self.b_v_hat, dtype=float).reshape(3))

    @property
    def count(self) -> int:
        return self.landmarks_hat.shape[0]

    def arrays(self) -> tuple[np.ndarray, ...]:
        """(R_hat matrix, P_hat, landmarks_hat, b_omega_hat, b_v_hat)."""
        return self.r_hat.m, self.p_hat, self.landmarks_hat, self.b_omega_hat, self.b_v_hat

    @staticmethod
    def cold_start(n: int) -> "ObserverState":
        """Identity pose, landmarks at the origin, zero biases."""
        return ObserverState(
            Rotation3.identity(), np.zeros(3), np.zeros((n, 3)), np.zeros(3), np.zeros(3)
        )


@dataclass(frozen=True)
class GainConfig:
    """Observer gains: all strictly positive, the matrix gain SPD."""

    k_p: float
    k_w: float
    gamma: np.ndarray
    alpha: np.ndarray
    gamma_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("k_p", "k_w"):
            value = float(getattr(self, name))
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
            object.__setattr__(self, name, value)
        g = np.asarray(self.gamma, dtype=float)
        if g.shape == ():
            g = float(g) * np.eye(3)
        if g.shape != (3, 3):
            raise ValueError(f"gamma must be a scalar or 3x3 matrix, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("gamma must be finite")
        if np.abs(g - g.T).max() > 1e-9:
            raise ValueError("gamma must be symmetric")
        smallest = float(np.linalg.eigvalsh(g)[0])
        if not smallest > 0.0:
            raise ValueError(f"gamma must be positive definite (smallest eigenvalue {smallest!r})")
        object.__setattr__(self, "gamma", g)
        a = np.asarray(self.alpha, dtype=float).reshape(-1)
        if not ((a > 0.0) & (a < math.inf)).all():
            raise ValueError(f"all alpha values must be positive and finite, got {a}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "gamma_inv", np.linalg.inv(g))

    @property
    def count(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class LandmarkError:
    """Error vector with its angle-axis geometry and adaptation gain.

    theta = 2 atan(||e||) lies in [0, pi); axis is e normalized, or None at
    e = 0 where the axis is undefined (r_e is the identity by continuity and
    the gain takes its floor value k_p / 4).
    """

    e: np.ndarray
    theta: float
    axis: np.ndarray | None
    r_e: Rotation3
    psi: float


@dataclass(frozen=True)
class BiasError:
    """Truth-aware bias error, true minus estimated."""

    b_omega_tilde: np.ndarray
    b_v_tilde: np.ndarray


@dataclass(frozen=True)
class PoseError:
    """Truth-aware pose error: r_tilde = R_hat R^T, p_tilde = P_hat - r_tilde P."""

    r_tilde: Rotation3
    p_tilde: np.ndarray


def adaptation_gain(e, k_p: float) -> float | np.ndarray:
    """Closed form of the fast-adaptation gain: k_p (1 + ||e||^2) / 4.

    Identical to k_p / (1 + trace(r_e)) from the angle-axis construction (see
    error_geometry) but free of trigonometry, so the stepping hot path uses
    this form. Equals k_p / 4 exactly at e = 0 and grows without bound.
    e is one error, giving one gain, or an (n, 3) array of errors, giving
    one gain per row.
    """
    a = np.asarray(e, dtype=float)
    return k_p * 0.25 * (1.0 + (a * a).sum(axis=-1))


def error_geometry(e, k_p: float) -> LandmarkError:
    """Angle-axis geometry of a landmark error and the matrix-form gain.

    Builds the rotation r_e = I + sin(theta) [axis]_x + (1 - cos(theta))
    [axis]_x^2 and evaluates the gain as k_p / (1 + trace(r_e)).
    """
    if not k_p > 0.0:
        raise ValueError(f"k_p must be positive, got {k_p!r}")
    a = np.asarray(e, dtype=float).reshape(3)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return LandmarkError(a, 0.0, None, Rotation3.identity(), k_p / 4.0)
    theta = 2.0 * math.atan(norm)
    axis = a / norm
    k = hat3(axis)
    r_e = _EYE3 + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)
    # 1 + trace is 4 / (1 + ||e||^2) analytically; it underflows to exactly
    # zero once ||e|| is so large that theta rounds to pi, where the gain is
    # unbounded anyway.
    denom = 1.0 + float(np.trace(r_e))
    psi = math.inf if denom <= 0.0 else k_p / denom
    return LandmarkError(a, theta, axis, Rotation3(r_e), psi)


def landmark_errors(state: ObserverState, frame: SensorFrame) -> np.ndarray:
    """All landmark errors as an (n, 3) array; rejects count mismatches."""
    if frame.count != state.count:
        raise ValueError(
            f"frame carries {frame.count} landmark measurements, "
            f"observer tracks {state.count}"
        )
    return _errors_raw(state.r_hat.m, state.p_hat, state.landmarks_hat, frame.y)


def _errors_raw(
    r_hat: np.ndarray, p_hat: np.ndarray, landmarks_hat: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Landmark errors p_hat_i - (R_hat y_i + P_hat) on raw arrays."""
    return landmarks_hat - (y @ r_hat.T + p_hat)


def _row_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def _innovation_sums(
    r_hat: np.ndarray, y: np.ndarray, gains: GainConfig, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-landmark sums shared by the corrections and the bias adaptation.

    Returns (sum_i [y_i]_x R_hat^T e_i / alpha_i, sum_i R_hat^T e_i / alpha_i).
    """
    u = (e @ r_hat) / gains.alpha[:, None]
    return _row_cross(y, u).sum(axis=0), u.sum(axis=0)


def correction_terms(
    state: ObserverState, frame: SensorFrame, gains: GainConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Innovation terms (w_omega, w_v) subtracted from the measured velocities."""
    e = landmark_errors(state, frame)
    if gains.count != state.count:
        raise ValueError(
            f"gains carry {gains.count} alpha values, observer tracks {state.count}"
        )
    s_omega, s_v = _innovation_sums(state.r_hat.m, frame.y, gains, e)
    return -gains.k_w * s_omega, -gains.k_w * s_v


def _implicit_sums(
    y: np.ndarray, gains: GainConfig, dt: float, s_omega: np.ndarray, s_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Innovation sums after the implicit feedback: solves (I + c M) s_bar = s.

    Here c = dt k_w and M = sum_i A_i^T A_i / alpha_i with A_i = [[y_i]_x, -I],
    the Jacobian of the sums with respect to the feedback twist. M has the
    closed form [[tr(S2) I - S2, [m]_x], [-[m]_x, (sum_i 1/alpha_i) I]] with
    S2 = sum_i y_i y_i^T / alpha_i and m = sum_i y_i / alpha_i. Eliminating
    the velocity block, whose diagonal is d I with d = 1 + c sum_i 1/alpha_i,
    leaves the SPD system K s_bar_omega = s_omega - (c/d) m x s_v with
    K = (1 + c tr(S2) - (c^2/d) ||m||^2) I - c S2 + (c^2/d) m m^T, solved by
    cofactors; then s_bar_v = (s_v + c m x s_bar_omega) / d. s_bar is the
    innovation sum of the body-frame errors R_hat^T e_i + c A_i s_bar, that
    is, of the errors after the feedback alone with the y_i held fixed.
    """
    c = dt * gains.k_w
    # One product gives S2, m and sum_i 1 / alpha_i: the alpha-weighted Gram
    # matrix of the rows (y_i, 1).
    y1 = np.empty((y.shape[0], 4))
    y1[:, :3] = y
    y1[:, 3] = 1.0
    (
        (a00, a01, a02, m0),
        (_, a11, a12, m1),
        (_, _, a22, m2),
        (_, _, _, inv_alpha_sum),
    ) = ((y1.T / gains.alpha) @ y1).tolist()
    w0, w1, w2 = s_omega.tolist()
    v0, v1, v2 = s_v.tolist()
    d = 1.0 + c * inv_alpha_sum
    q = c * c / d
    diag = 1.0 + c * (a00 + a11 + a22) - q * (m0 * m0 + m1 * m1 + m2 * m2)
    k00 = diag - c * a00 + q * m0 * m0
    k11 = diag - c * a11 + q * m1 * m1
    k22 = diag - c * a22 + q * m2 * m2
    k01 = q * m0 * m1 - c * a01
    k02 = q * m0 * m2 - c * a02
    k12 = q * m1 * m2 - c * a12
    f = c / d
    r0 = w0 - f * (m1 * v2 - m2 * v1)
    r1 = w1 - f * (m2 * v0 - m0 * v2)
    r2 = w2 - f * (m0 * v1 - m1 * v0)
    c00 = k11 * k22 - k12 * k12
    c01 = k02 * k12 - k01 * k22
    c02 = k01 * k12 - k02 * k11
    c11 = k00 * k22 - k02 * k02
    c12 = k01 * k02 - k00 * k12
    c22 = k00 * k11 - k01 * k01
    inv_det = 1.0 / (k00 * c00 + k01 * c01 + k02 * c02)
    x0 = (c00 * r0 + c01 * r1 + c02 * r2) * inv_det
    x1 = (c01 * r0 + c11 * r1 + c12 * r2) * inv_det
    x2 = (c02 * r0 + c12 * r1 + c22 * r2) * inv_det
    return np.array([x0, x1, x2]), np.array(
        [
            (v0 + c * (m1 * x2 - m2 * x1)) / d,
            (v1 + c * (m2 * x0 - m0 * x2)) / d,
            (v2 + c * (m0 * x1 - m1 * x0)) / d,
        ]
    )


def observer_step(
    state: ObserverState,
    frame: SensorFrame,
    gains: GainConfig,
    dt: float,
    scheme: str = "explicit",
) -> ObserverState:
    """One update of the full observer state.

    The pose advances through the exponential of the corrected measured twist,
    each landmark estimate moves against its error scaled by the adaptation
    gain, and the bias estimates integrate the matrix-gain-weighted sums.
    scheme "explicit" feeds back the sums of the pre-update errors;
    "implicit" feeds back their implicit-Euler filtered values (see
    _implicit_sums), the same sums in both the twist and the bias update.
    The explicit default is stable only below dt ~ 2 / (k_w / alpha *
    sum_i ||y_i||^2), about 6e-5 s on the reference scenario; the scenario
    runner uses "implicit". A DivergenceError signals that the update left
    the finite range, which means the step size is too large for the gains
    and geometry at hand.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if scheme not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'explicit' or 'implicit'")
    if gains.count != state.count:
        raise ValueError(
            f"gains carry {gains.count} alpha values, observer tracks {state.count}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        r_new, *rest = _step_raw(
            state.arrays(),
            (frame.omega_m, frame.v_m, frame.y),
            landmark_errors(state, frame),
            gains,
            dt,
            implicit=scheme == "implicit",
        )
    return ObserverState(_trusted(Rotation3, m=r_new), *rest)


def _step_raw(
    estimate: tuple, measurement: tuple, e: np.ndarray, gains: GainConfig, dt: float, implicit: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """observer_step on raw arrays, given the errors e of this state and frame.

    estimate is ObserverState.arrays(), measurement is (omega_m, v_m, y), and
    the result is the estimate after the step. Inputs are not validated, and
    the caller holds np.errstate so that an overflow surfaces as the
    DivergenceError raised here, not as a warning.
    """
    r_hat, p_hat, landmarks_hat, b_omega_hat, b_v_hat = estimate
    omega_m, v_m, y = measurement
    psi = adaptation_gain(e, gains.k_p)
    s_omega, s_v = _innovation_sums(r_hat, y, gains, e)
    if implicit:
        s_omega, s_v = _implicit_sums(y, gains, dt, s_omega, s_v)

    w_omega = -gains.k_w * s_omega
    w_v = -gains.k_w * s_v
    omega_dt = (omega_m - b_omega_hat - w_omega) * dt
    vel_dt = (v_m - b_v_hat - w_v) * dt
    # The squared-angle check also catches finite twists whose square
    # overflows inside the exponential.
    if not (math.isfinite(float(omega_dt @ omega_dt)) and np.isfinite(vel_dt).all()):
        raise DivergenceError("correction terms overflowed; reduce dt or the gains")

    step_rot, step_pos = _se3_exp_raw(omega_dt, vel_dt)
    r_new = _project_raw(r_hat @ step_rot)
    p_new = r_hat @ step_pos + p_hat
    landmarks_new = landmarks_hat - (dt * psi)[:, None] * e
    b_omega_new = b_omega_hat - dt * (gains.gamma @ s_omega)
    b_v_new = b_v_hat - dt * (gains.gamma @ s_v)
    if not (
        np.isfinite(p_new).all()
        and np.isfinite(landmarks_new).all()
        and np.isfinite(b_omega_new).all()
        and np.isfinite(b_v_new).all()
    ):
        raise DivergenceError("observer state overflowed; reduce dt or the gains")
    return r_new, p_new, landmarks_new, b_omega_new, b_v_new


def lyapunov_value(
    state: ObserverState, errors, true_bias: SensorBias, gains: GainConfig
) -> float:
    """Energy functional over landmark errors and (truth-aware) bias errors.

    sum_i ||e_i||^2 / (2 alpha_i) plus the gamma-inverse-weighted squared bias
    errors. Monotone decay of this value along a noise-free run certifies the
    observer is converging; it is a diagnostic only and never feeds back into
    the estimates.
    """
    e = np.asarray(errors, dtype=float).reshape(-1, 3)
    if e.shape[0] != gains.count:
        raise ValueError(f"got {e.shape[0]} errors for {gains.count} alpha values")
    value = float((0.5 * (e * e).sum(axis=1) / gains.alpha).sum())
    bo = true_bias.omega - state.b_omega_hat
    bv = true_bias.vel - state.b_v_hat
    value += 0.5 * float(bo @ gains.gamma_inv @ bo + bv @ gains.gamma_inv @ bv)
    return value


def bias_error(state: ObserverState, true_bias: SensorBias) -> BiasError:
    """Truth-aware bias error b - b_hat for both velocity channels."""
    return BiasError(true_bias.omega - state.b_omega_hat, true_bias.vel - state.b_v_hat)


def pose_error(state: ObserverState, truth: TrueState) -> PoseError:
    """Truth-aware pose error; constant in the limit of a converged run."""
    r_tilde = _trusted(Rotation3, m=state.r_hat.m @ truth.pose.rotation.m.T)
    p_tilde = state.p_hat - r_tilde.m @ truth.pose.position
    return PoseError(r_tilde, p_tilde)
