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

The step splits by the kind of data. Each formula over the landmark axis
(the errors, the adaptation gains and landmark update, and one alpha-weighted
moment product behind the innovation sums and the implicit solve) is one
broadcasting numpy function, shared by one observer and by observers stacked
on a leading member axis. The 3-vector and 3x3 algebra (the feedback solve,
the corrected twist, the exponential, the projection, the position and bias
updates) runs on Python floats for one observer and on arrays, operation for
operation, for a stack, so a stacked member has its solo step's bits.

observer_step is a pure function from state to state; runs are sequential but
independent observers can execute concurrently.

Truth-aware diagnostics (pose error, bias error, the energy functional whose
decay certifies convergence) live here as well, but they are simulation-only:
nothing in the estimation path touches the true state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (
    Rotation3,
    _affine3,
    _as_vec3,
    _dot_rows,
    _exp_floats,
    _matmul,
    _matvec,
    _mul3,
    _project_raw,
    _project_rows,
    _se3_exp_raw,
    _sq_norms,
    _trusted,
    hat3,
)
from .world import SensorBias, SensorFrame, TrueState, _as_landmarks

_EYE3 = np.eye(3)


class DivergenceError(RuntimeError):
    """The observer state stopped being finite (gain / step-size blow-up).

    step is the failing step index of a run. members, raised by a step of
    members stacked on a leading axis, is the boolean mask of the members
    that left the finite range; the others' update is well defined.
    """

    def __init__(self, message: str, step: int | None = None, members: np.ndarray | None = None):
        super().__init__(message)
        self.step = step
        self.members = members


@dataclass(frozen=True)
class ObserverState:
    """Full estimate: pose, landmark map, and velocity-measurement biases."""

    r_hat: Rotation3
    p_hat: np.ndarray
    landmarks_hat: np.ndarray
    b_omega_hat: np.ndarray
    b_v_hat: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_hat", _as_vec3(self.p_hat, "p_hat"))
        object.__setattr__(
            self, "landmarks_hat", _as_landmarks(self.landmarks_hat, "landmarks_hat")
        )
        object.__setattr__(self, "b_omega_hat", _as_vec3(self.b_omega_hat, "b_omega_hat"))
        object.__setattr__(self, "b_v_hat", _as_vec3(self.b_v_hat, "b_v_hat"))

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
            # Not g * I: an infinite g times the zero off-diagonals would warn.
            g = np.diag(np.full(3, float(g)))
        if g.shape != (3, 3):
            raise ValueError(f"gamma must be a scalar or 3x3 matrix, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("gamma must be finite")
        # Opposite entries near the float limit overflow the difference; the
        # inf fails the check below.
        with np.errstate(over="ignore"):
            asymmetry = np.abs(g - g.T).max()
        if asymmetry > 1e-9:
            raise ValueError("gamma must be symmetric")
        smallest = float(np.linalg.eigvalsh(g)[0])
        if not smallest > 0.0:
            raise ValueError(f"gamma must be positive definite (smallest eigenvalue {smallest!r})")
        object.__setattr__(self, "gamma", g)
        a = np.asarray(self.alpha, dtype=float).reshape(-1)
        if not ((a > 0.0) & (a < math.inf)).all():
            raise ValueError(f"all alpha values must be positive and finite, got {a}")
        object.__setattr__(self, "alpha", a)
        # A subnormal gamma is positive definite, but its inverse overflows.
        g_inv = np.linalg.inv(g)
        if not np.isfinite(g_inv).all():
            raise ValueError("gamma must have a finite inverse")
        object.__setattr__(self, "gamma_inv", g_inv)

    @property
    def count(self) -> int:
        return self.alpha.shape[0]


class StackedGains(NamedTuple):
    """The GainConfigs of B members on a leading axis, as _step_raw reads them.

    k_p and k_w are (B, 1) columns, so that they broadcast against per-member
    rows; gamma is (B, 3, 3) and alpha (B, n).
    """

    k_p: np.ndarray
    k_w: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray

    @staticmethod
    def of(gains: list[GainConfig]) -> "StackedGains":
        return StackedGains(
            np.array([[g.k_p] for g in gains]),
            np.array([[g.k_w] for g in gains]),
            np.stack([g.gamma for g in gains]),
            np.stack([g.alpha for g in gains]),
        )

    def take(self, keep: np.ndarray) -> "StackedGains":
        """The gains of the members selected by keep."""
        return StackedGains(*(a[keep] for a in self))


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
    """Landmark errors p_hat_i - (R_hat y_i + P_hat) on raw arrays.

    The estimate may carry a leading member axis; y then has it too, or is
    one measurement shared by every member.
    """
    return landmarks_hat - (y @ r_hat.swapaxes(-1, -2) + p_hat[..., None, :])


def _landmark_moments(
    r_hat: np.ndarray, y: np.ndarray, gains: GainConfig, e: np.ndarray
) -> np.ndarray:
    """The alpha-weighted moments of the landmark rows, one (4, 7) matrix.

    With the body-frame errors R_hat^T e_i and the rows
    z_i = (y_i, 1, R_hat^T e_i), this is sum_i z_i[:4] z_i^T / alpha_i:
    - columns 0-3 are the Gram matrix [[S2, m], [m^T, sum_i 1/alpha_i]] of
      the implicit solve, S2 = sum_i y_i y_i^T / alpha_i, m = sum_i y_i / alpha_i;
    - columns 4-6 hold G = sum_i y_i u_i^T in rows 0-2 and sum_i u_i in
      row 3, u_i = R_hat^T e_i / alpha_i, whence the innovation sums.
    It is the one product over the landmark axis behind both sums, for one
    member and, stacked on a leading axis (see _step_raw), for many.
    """
    z = np.empty((*e.shape[:-1], 7))
    z[..., :3] = y
    z[..., 3] = 1.0
    z[..., 4:] = e @ r_hat
    return (z[..., :4].swapaxes(-1, -2) / gains.alpha[..., None, :]) @ z


def correction_terms(
    state: ObserverState, frame: SensorFrame, gains: GainConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Innovation terms (w_omega, w_v) subtracted from the measured velocities."""
    e = landmark_errors(state, frame)
    if gains.count != state.count:
        raise ValueError(
            f"gains carry {gains.count} alpha values, observer tracks {state.count}"
        )
    moments = _landmark_moments(state.r_hat.m, frame.y, gains, e)
    s_omega, s_v = _feedback_sums(moments.tolist(), None)
    return -gains.k_w * np.array(s_omega), -gains.k_w * np.array(s_v)


def _feedback_sums(moments, c) -> tuple[tuple, tuple]:
    """The innovation sums (s_omega, s_v) fed back into the step.

    moments holds the entries of _landmark_moments. The explicit scheme
    (c None) feeds back s_omega = sum_i y_i x u_i, the antisymmetric part
    of G: (G12 - G21, G20 - G02, G01 - G10), and s_v = sum_i u_i.

    The implicit scheme (c = dt k_w) feeds back their solution of
    (I + c M) s_bar = s. M = sum_i A_i^T A_i / alpha_i with
    A_i = [[y_i]_x, -I] is the Jacobian of the sums with respect to the
    feedback twist, with the closed form
    [[tr(S2) I - S2, [m]_x], [-[m]_x, (sum_i 1/alpha_i) I]]. Eliminating
    the velocity block, whose diagonal is d I with d = 1 + c sum_i 1/alpha_i,
    leaves the SPD system K s_bar_omega = s_omega - (c/d) m x s_v with
    K = (1 + c tr(S2) - (c^2/d) ||m||^2) I - c S2 + (c^2/d) m m^T, solved by
    cofactors; then s_bar_v = (s_v + c m x s_bar_omega) / d. s_bar is the
    innovation sum of the body-frame errors R_hat^T e_i + c A_i s_bar, that
    is, of the errors after the feedback alone with the y_i held fixed.

    The body is elementwise. For one member moments is the nested list of
    Python floats and so are the results, two 3-tuples; for members stacked
    on a leading axis each entry is a (B, 1) column, which broadcasts like
    c, and so is each result, with the same bits per member.
    """
    (
        (a00, a01, a02, m0, g00, g01, g02),
        (_, a11, a12, m1, g10, g11, g12),
        (_, _, a22, m2, g20, g21, g22),
        (_, _, _, inv_alpha_sum, v0, v1, v2),
    ) = moments
    w0, w1, w2 = g12 - g21, g20 - g02, g01 - g10
    if c is None:
        return (w0, w1, w2), (v0, v1, v2)
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
    return (x0, x1, x2), (
        (v0 + c * (m1 * x2 - m2 * x1)) / d,
        (v1 + c * (m2 * x0 - m0 * x2)) / d,
        (v2 + c * (m0 * x1 - m1 * x0)) / d,
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
    _feedback_sums), the same sums in both the twist and the bias update.
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
    estimate: tuple,
    measurement: tuple,
    e: np.ndarray,
    gains: GainConfig | StackedGains,
    dt: float,
    implicit: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """observer_step on raw arrays, given the errors e of this state and frame.

    estimate is ObserverState.arrays(), measurement is (omega_m, v_m, y), and
    the result is the estimate after the step. Inputs are not validated, and
    the caller holds np.errstate so that an overflow surfaces as the
    DivergenceError raised here, not as a warning.

    The same step advances B members at once when estimate, e and gains
    (a StackedGains) carry a leading member axis. Each measurement array
    then has that axis too or is shared by every member. The formulas over
    the landmark axis (the errors' gains and update, the innovation sums and
    the implicit solve's Gram product) are one broadcasting numpy function
    each. The pose and bias update of one member runs on Python floats
    (_member_update), where numpy's call overhead would cost more than its
    3-vector and 3x3 arithmetic; a stack runs the matrix forms
    (_stacked_update), which take the float kernels' operations in their
    order, so a member gets the bits of its own one-member step. If the
    update leaves the finite range, a stacked step's DivergenceError marks
    the members at fault.
    """
    moments = _landmark_moments(estimate[0], measurement[2], gains, e)
    landmarks_new = estimate[2] - (dt * adaptation_gain(e, gains.k_p))[..., None] * e
    c = dt * gains.k_w if implicit else None
    if e.ndim == 3:
        # Contiguous (B, 1) columns, which broadcast like c and are the
        # fastest small arrays for numpy's elementwise loops.
        sums = _feedback_sums(moments.transpose(1, 2, 0)[..., None].copy(), c)
        return _stacked_update(estimate, measurement, gains, dt, sums, landmarks_new)
    try:
        sums = _feedback_sums(moments.tolist(), c)
        return _member_update(estimate, measurement, gains, dt, sums, landmarks_new)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        # Python floats raise where numpy would return inf or NaN.
        raise DivergenceError(f"observer update failed ({exc}); reduce dt or the gains") from exc


def _member_update(estimate, measurement, gains, dt, sums, landmarks_new) -> tuple:
    """The pose and bias part of one member's _step_raw, on Python floats.

    Each formula is _stacked_update's for one member, written out on
    floats; sums are _feedback_sums' and the landmark update arrives
    computed. Returns the new estimate as arrays.
    """
    r_hat, p_hat, _, b_omega_hat, b_v_hat = estimate
    omega_m, v_m, _ = measurement
    s_omega, s_v = sums
    # w = -k_w s is the innovation term subtracted from the measured velocity.
    minus_k_w = -gains.k_w
    b_omega, b_v = b_omega_hat.tolist(), b_v_hat.tolist()
    omega_dt = [
        (m - b - minus_k_w * s) * dt for m, b, s in zip(omega_m.tolist(), b_omega, s_omega)
    ]
    vel_dt = [(m - b - minus_k_w * s) * dt for m, b, s in zip(v_m.tolist(), b_v, s_v)]
    w0, w1, w2 = omega_dt
    # The squared-angle check also catches finite twists whose square
    # overflows inside the exponential.
    if not all(map(math.isfinite, (w0 * w0 + w1 * w1 + w2 * w2, *vel_dt))):
        raise DivergenceError("correction terms overflowed; reduce dt or the gains")

    step_rot, step_pos = _exp_floats(omega_dt, vel_dt)
    r = r_hat.tolist()
    r_new = _project_rows(_mul3(r, step_rot))
    p_new = _affine3(r, step_pos, p_hat.tolist())
    gamma = gains.gamma.tolist()
    b_omega_new = [b - dt * (g0 * s_omega[0] + g1 * s_omega[1] + g2 * s_omega[2])
                   for b, (g0, g1, g2) in zip(b_omega, gamma)]
    b_v_new = [b - dt * (g0 * s_v[0] + g1 * s_v[1] + g2 * s_v[2])
               for b, (g0, g1, g2) in zip(b_v, gamma)]
    if not (
        all(map(math.isfinite, (*p_new, *b_omega_new, *b_v_new)))
        and np.isfinite(landmarks_new).all()
    ):
        raise DivergenceError("observer state overflowed; reduce dt or the gains")
    return np.array(r_new), np.array(p_new), landmarks_new, np.array(b_omega_new), np.array(b_v_new)


def _stacked_update(estimate, measurement, gains, dt, sums, landmarks_new) -> tuple:
    """The pose and bias part of _step_raw for members stacked on a leading
    axis: _member_update's formulas on arrays, entry by entry in its order."""
    r_hat, p_hat, _, b_omega_hat, b_v_hat = estimate
    omega_m, v_m, _ = measurement
    s_omega, s_v = (np.concatenate(s, axis=-1) for s in sums)
    w_omega = -gains.k_w * s_omega
    w_v = -gains.k_w * s_v
    omega_dt = (omega_m - b_omega_hat - w_omega) * dt
    vel_dt = (v_m - b_v_hat - w_v) * dt
    _check_finite("correction terms overflowed", _sq_norms(omega_dt), vel_dt)

    step_rot, step_pos = _se3_exp_raw(omega_dt, vel_dt)
    r_new = _project_raw(_matmul(r_hat, step_rot))
    p_new = _matvec(r_hat, step_pos) + p_hat
    b_omega_new = b_omega_hat - dt * _matvec(gains.gamma, s_omega)
    b_v_new = b_v_hat - dt * _matvec(gains.gamma, s_v)
    _check_finite("observer state overflowed", p_new, landmarks_new, b_omega_new, b_v_new)
    return r_new, p_new, landmarks_new, b_omega_new, b_v_new


def _check_finite(what: str, *arrays: np.ndarray) -> None:
    """Raise DivergenceError unless every entry of the stacked arrays is
    finite; its members marks the members with a non-finite entry in any of
    them. Each array carries the member axis first.
    """
    for a in arrays:
        if not np.isfinite(a).all():
            finite = [np.isfinite(b).reshape(len(b), -1).all(axis=1) for b in arrays]
            members = ~np.logical_and.reduce(finite)
            raise DivergenceError(f"{what}; reduce dt or the gains", members=members)


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
    bias_tilde = _bias_error_raw(true_bias, state.b_omega_hat, state.b_v_hat)
    return float(_energy_raw(e, *bias_tilde, gains))


def _energy_raw(
    e: np.ndarray, b_omega_tilde: np.ndarray, b_v_tilde: np.ndarray, gains: GainConfig
) -> np.ndarray:
    """lyapunov_value on raw arrays, broadcasting over leading axes.

    e is (..., n, 3), the bias errors are (..., 3).
    """
    g_inv = gains.gamma_inv
    value = (0.5 * (e * e).sum(axis=-1) / gains.alpha).sum(axis=-1)
    return value + 0.5 * (
        _dot_rows(b_omega_tilde @ g_inv, b_omega_tilde) + _dot_rows(b_v_tilde @ g_inv, b_v_tilde)
    )


def bias_error(state: ObserverState, true_bias: SensorBias) -> BiasError:
    """Truth-aware bias error b - b_hat for both velocity channels."""
    return BiasError(*_bias_error_raw(true_bias, state.b_omega_hat, state.b_v_hat))


def _bias_error_raw(
    true_bias: SensorBias, b_omega_hat: np.ndarray, b_v_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """bias_error on raw estimates, broadcasting over leading axes."""
    return true_bias.omega - b_omega_hat, true_bias.vel - b_v_hat


def pose_error(state: ObserverState, truth: TrueState) -> PoseError:
    """Truth-aware pose error; constant in the limit of a converged run."""
    r_tilde, p_tilde = _pose_error_raw(
        state.r_hat.m, state.p_hat, truth.pose.rotation.m, truth.pose.position
    )
    return PoseError(_trusted(Rotation3, m=r_tilde), p_tilde)


def _pose_error_raw(
    r_hat: np.ndarray, p_hat: np.ndarray, rot: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """pose_error on raw arrays, broadcasting over leading axes."""
    r_tilde = r_hat @ rot.swapaxes(-1, -2)
    return r_tilde, p_hat - (r_tilde @ pos[..., None])[..., 0]
