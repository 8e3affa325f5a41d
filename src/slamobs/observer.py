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
replaced by its SVD polar factor, the nearest rotation, once it drifts: when
an entry of R_hat^T R_hat - I reaches geometry.DRIFT_TOL = 1e-13
(geometry._advance), in 6 of 10,001 pose advances of a 5 s paper-sec5 run.

The step splits first by what depends on the estimate. The alpha-weighted rows
W of y, their Gram (_weights) and the part of the implicit solve that these
fix (_solve_terms) depend only on y, alpha and dt k_w: _step_inputs computes
W and one float64 row per step of the velocities and the solve's terms, for
observer_step's one frame or a harness block. Of the rest, each formula over
the landmark axis (the errors, the adaptation gains and landmark update, and
the innovation moments G = W (e R_hat)) is one broadcasting numpy function,
shared by one observer (_step_raw) and by observers stacked on a leading
member axis (_stacked_step). The 3-vector and 3x3 algebra (the solve's
application to G, the corrected twist, the exponential, the projection, the
position and bias updates) runs on Python floats, a 3x3 matrix as its 9
row-major entries, one observer at a time (_member_update). Between steps
an estimate is one member, its pose and biases as those floats, plus its
landmark array (_member): _step_raw, which observer_step and the harness
loop call, advances one; _stacked_step advances members stacked on a
leading axis and loops over them, so a stacked member runs its solo step's
code, and a member whose update leaves the finite range drops out of the
stack alone.

observer_step is a pure function from state to state; runs are sequential but
independent observers can execute concurrently.

The truth-aware diagnostics (pose error, bias error, the energy functional
whose decay certifies convergence) are defined here, their 3-vector and 3x3
part entry by entry as in the step, and evaluated by the harness. They are
simulation-only: nothing in the estimation path touches the true state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from math import isfinite

import numpy as np

from .geometry import (
    Rotation3,
    _advance,
    _as_floats,
    _as_positive,
    _as_vec3,
    _exp_floats,
    _mul3,
    _quadratic3,
    _trusted,
)
from .world import SensorBias, SensorFrame, TrueState, _as_landmarks


class DivergenceError(RuntimeError):
    """The observer state stopped being finite (gain / step-size blow-up).

    step is the failing step index of a run.
    """

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
        for name in ("p_hat", "landmarks_hat", "b_omega_hat", "b_v_hat"):
            check = _as_landmarks if name == "landmarks_hat" else _as_vec3
            object.__setattr__(self, name, check(getattr(self, name), name))

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
    """Observer gains: all strictly positive, the matrix gain SPD. The rows
    of gamma (for the step) and of its inverse (for the energy) are derived
    once, as Python floats."""

    k_p: float
    k_w: float
    gamma: np.ndarray
    alpha: np.ndarray
    gamma_rows: tuple = field(init=False, repr=False, compare=False)
    gamma_inv_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("k_p", "k_w"):
            object.__setattr__(self, name, _as_positive(getattr(self, name), name))
        g = _as_floats(self.gamma, "gamma")
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
        a = _as_floats(self.alpha, "alpha").reshape(-1)
        if not ((a > 0.0) & (a < math.inf)).all():
            raise ValueError(f"all alpha values must be positive and finite, got {a}")
        object.__setattr__(self, "alpha", a)
        # A subnormal gamma is positive definite, but its inverse overflows.
        g_inv = np.linalg.inv(g)
        if not np.isfinite(g_inv).all():
            raise ValueError("gamma must have a finite inverse")
        object.__setattr__(self, "gamma_rows", tuple(map(tuple, g.tolist())))
        object.__setattr__(self, "gamma_inv_rows", tuple(map(tuple, g_inv.tolist())))

    @property
    def count(self) -> int:
        return self.alpha.shape[0]


def _check_gain_count(gains: GainConfig, count: int) -> None:
    """ValueError unless gains carry one alpha value per landmark."""
    if gains.count != count:
        raise ValueError(f"gains carry {gains.count} alpha values for {count} landmarks")


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
    k_p = _as_positive(k_p, "k_p")
    a = _as_floats(e, "e")
    return _gain_of_squares((a * a).sum(axis=-1), k_p)


def _gain_of_squares(e_squared, k_p):
    """adaptation_gain of the squared error norms ||e||^2."""
    return k_p * 0.25 * (1.0 + e_squared)


def error_geometry(e, k_p: float) -> LandmarkError:
    """Angle-axis geometry of a landmark error and the matrix-form gain.

    The rotation r_e by theta = 2 atan(||e||) about e / ||e|| is the step's
    exponential, so3_exp(theta * axis) bit for bit, and the gain is
    k_p / (1 + trace(r_e)). ValueError unless ||e|| is finite.
    """
    k_p = _as_positive(k_p, "k_p")
    a = _as_floats(e, "e").reshape(3)
    norm = math.sqrt(a.dot(a))  # np.linalg.norm's own arithmetic, without its overhead
    if norm == 0.0:
        return LandmarkError(a, 0.0, None, Rotation3.identity(), k_p / 4.0)
    theta = 2.0 * math.atan(_as_positive(norm, "||e||"))
    axis = a / norm
    r_e = _exp_floats((theta * axis).tolist(), (0.0, 0.0, 0.0))[0]
    # 1 + trace is 4 / (1 + ||e||^2) analytically; it rounds to zero or
    # below once ||e|| is so large that theta rounds to pi, where the gain is
    # unbounded anyway.
    denom = 1.0 + (r_e[0] + r_e[4] + r_e[8])
    psi = math.inf if denom <= 0.0 else k_p / denom
    return LandmarkError(a, theta, axis, _trusted(Rotation3, m=np.array(r_e).reshape(3, 3)), psi)


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


def _weights(y: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """With z_i = (y_i, 1): W = [z_1 / alpha_1, ..., z_n / alpha_n], shape
    (..., 4, n), and its Gram W z = [[S2, m], [m^T, sum_i 1/alpha_i]] of the
    implicit solve, S2 = sum_i y_i y_i^T / alpha_i, m = sum_i y_i / alpha_i.
    Neither depends on the estimate; y and alpha broadcast over leading
    step and member axes."""
    z = np.empty((*y.shape[:-1], 4))
    z[..., :3] = y
    z[..., 3] = 1.0
    w = z.swapaxes(-1, -2) / alpha[..., None, :]
    return w, w @ z


def _error_moments(w: np.ndarray, e: np.ndarray, r_hat: np.ndarray) -> np.ndarray:
    """G = W (e R_hat), with sum_i y_i u_i^T in rows 0-2 and sum_i u_i in
    row 3, u_i = R_hat^T e_i / alpha_i: the one product over the landmark
    axis of a step that depends on the estimate, for one observer or a
    stack (see _stacked_step)."""
    return w @ (e @ r_hat)


def correction_terms(
    state: ObserverState, frame: SensorFrame, gains: GainConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Innovation terms (w_omega, w_v) subtracted from the measured velocities."""
    e = landmark_errors(state, frame)
    _check_gain_count(gains, state.count)
    w, _ = _weights(frame.y, gains.alpha)
    s_omega, s_v = _feedback_apply((), _error_moments(w, e, state.r_hat.m).ravel().tolist())
    return -gains.k_w * np.array(s_omega), -gains.k_w * np.array(s_v)


def _solve_terms(gram, c) -> tuple:
    """The estimate-free part of the implicit scheme (c = dt k_w), which
    feeds back the solution s_bar of (I + c M) s_bar = s, not the sums s.

    M = sum_i A_i^T A_i / alpha_i with A_i = [[y_i]_x, -I] is the Jacobian
    of the sums with respect to the feedback twist, with the closed form
    [[tr(S2) I - S2, [m]_x], [-[m]_x, (sum_i 1/alpha_i) I]] in the entries
    of the Gram of _weights. Eliminating the velocity block, whose diagonal
    is d I with d = 1 + c sum_i 1/alpha_i, leaves the SPD system
    K s_bar_omega = s_omega - f m x s_v with f = c/d and
    K = (1 + c tr(S2) - (c^2/d) ||m||^2) I - c S2 + (c^2/d) m m^T, solved by
    cofactors; then s_bar_v = (s_v + c m x s_bar_omega) / d (see
    _feedback_apply). s_bar is the innovation sum of the body-frame errors
    R_hat^T e_i + c A_i s_bar, that is, of the errors after the feedback
    alone with the y_i held fixed.

    gram holds the Gram's rows of columns over a block's steps (and members),
    which c broadcasts against. Returns the columns (c, d, f, m0, m1, m2, the
    adjugate entries c00, c01, c02, c11, c12, c22 of K, 1 / det K).
    """
    (a00, a01, a02, m0), (_, a11, a12, m1), (_, _, a22, m2), (_, _, _, inv_alpha_sum) = gram
    d = 1.0 + c * inv_alpha_sum
    q = c * c / d
    diag = 1.0 + c * (a00 + a11 + a22) - q * (m0 * m0 + m1 * m1 + m2 * m2)
    k00 = diag - c * a00 + q * m0 * m0
    k11 = diag - c * a11 + q * m1 * m1
    k22 = diag - c * a22 + q * m2 * m2
    k01 = q * m0 * m1 - c * a01
    k02 = q * m0 * m2 - c * a02
    k12 = q * m1 * m2 - c * a12
    c00 = k11 * k22 - k12 * k12
    c01 = k02 * k12 - k01 * k22
    c02 = k01 * k12 - k02 * k11
    c11 = k00 * k22 - k02 * k02
    c12 = k01 * k02 - k00 * k12
    c22 = k00 * k11 - k01 * k01
    inv_det = 1.0 / (k00 * c00 + k01 * c01 + k02 * c02)
    return c, d, c / d, m0, m1, m2, c00, c01, c02, c11, c12, c22, inv_det


def _step_inputs(measurement: tuple, alpha: np.ndarray, c) -> tuple[np.ndarray, np.ndarray]:
    """W of _weights and the float64 rows u of a block's (omega_m, v_m, y),
    step first (a frame without it gives one), then members where they have
    their own, with the alpha and c = dt k_w that broadcast against them: a
    row is the 3 + 3 measured velocities, then the 13 _solve_terms."""
    omega_m, v_m, y = measurement
    w, gram = _weights(y, alpha)
    terms = _solve_terms(np.moveaxis(gram, (-2, -1), (0, 1)), c)
    return w, np.concatenate((omega_m, v_m, np.stack(np.broadcast_arrays(*terms), -1)), -1)


def _feedback_apply(row, g) -> tuple[tuple, tuple]:
    """The innovation sums (s_omega, s_v) fed back into the step, as two
    3-tuples of Python floats, from the step's row of _step_inputs and the
    12 row-major entries g of _error_moments.

    The explicit scheme (a row without solve terms) feeds back s_omega =
    sum_i y_i x u_i, the antisymmetric part of G: (G12 - G21, G20 - G02,
    G01 - G10), and s_v = sum_i u_i; the implicit one s_bar, solved with the
    row's 13 _solve_terms.
    """
    g00, g01, g02, g10, g11, g12, g20, g21, g22, v0, v1, v2 = g
    w0, w1, w2 = g12 - g21, g20 - g02, g01 - g10
    if len(row) <= 6:
        return (w0, w1, w2), (v0, v1, v2)
    _, _, _, _, _, _, c, d, f, m0, m1, m2, c00, c01, c02, c11, c12, c22, inv_det = row
    r0 = w0 - f * (m1 * v2 - m2 * v1)
    r1 = w1 - f * (m2 * v0 - m0 * v2)
    r2 = w2 - f * (m0 * v1 - m1 * v0)
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
    _solve_terms), the same sums in both the twist and the bias update.
    The explicit default is stable only below dt ~ 2 / (k_w / alpha *
    sum_i ||y_i||^2), about 6e-5 s on the reference scenario; the scenario
    runner uses "implicit". A DivergenceError signals that the update left
    the finite range, which means the step size is too large for the gains
    and geometry at hand.
    """
    dt = _as_positive(dt, "dt")
    if scheme not in ("explicit", "implicit"):
        raise ValueError(f"unknown scheme {scheme!r}; expected 'explicit' or 'implicit'")
    _check_gain_count(gains, state.count)
    with np.errstate(all="ignore"):
        e = landmark_errors(state, frame)
        w, u = _step_inputs((frame.omega_m, frame.v_m, frame.y), gains.alpha, dt * gains.k_w)
        row = u.tolist() if scheme == "implicit" else u[:6].tolist()
        (r, p, b_omega, b_v), landmarks = _step_raw(
            _member(state), state.r_hat.m, (w, row), e, gains, dt
        )
    return ObserverState(
        _trusted(Rotation3, m=np.array(r).reshape(3, 3)), p, landmarks, b_omega, b_v
    )


def _member(state: ObserverState) -> tuple:
    """The estimate as the step carries it between steps, (member,
    landmarks_hat): member is (r_hat, p_hat, b_omega_hat, b_v_hat) as
    _member_update takes and returns it, on Python floats with R_hat as its
    9 row-major entries, and landmarks_hat the (n, 3) array."""
    r_hat, p_hat, landmarks_hat, b_omega_hat, b_v_hat = state.arrays()
    return tuple(a.ravel().tolist() for a in (r_hat, p_hat, b_omega_hat, b_v_hat)), landmarks_hat


def _landmark_part(r_hat, landmarks_hat, w, e, e_squared, k_p, dt: float) -> tuple:
    """A step's landmark-axis part, for one observer or a stack: G and the
    new landmarks landmarks_hat - dt psi(e_i) e_i, with e_squared the
    squared norms ||e_i||^2. k_p is one observer's float, or a stack's
    (B, 1) column, which broadcasts over the landmark axis."""
    return (
        _error_moments(w, e, r_hat),
        landmarks_hat - (dt * _gain_of_squares(e_squared, k_p))[..., None] * e,
    )


def _step_raw(stack, r_hat, inputs, e, gains: GainConfig, dt: float) -> tuple:
    """observer_step on raw values, given the errors e of this state and frame.

    stack is (member, landmarks_hat) as _member lays it out, and r_hat the
    member's R_hat as the (3, 3) array that the landmark-axis formulas take;
    returns the stack after the step. inputs is (w, row): W and the step's
    row of _step_inputs as a list of Python floats, its first six entries
    alone for the explicit scheme. Inputs are not validated, and the caller
    holds np.errstate so that an overflow surfaces as a DivergenceError, not
    as a warning.
    """
    member, landmarks_hat = stack
    w, row = inputs
    e_squared = (e * e).sum(axis=-1)
    g, landmarks_new = _landmark_part(r_hat, landmarks_hat, w, e, e_squared, gains.k_p, dt)
    member = _member_update(member, row, g.ravel().tolist(), gains, dt)
    if not np.isfinite(landmarks_new).all():
        raise DivergenceError("observer state overflowed; reduce dt or the gains")
    return member, landmarks_new


def _stacked_step(stack, r_hat, inputs, e, e_squared, k_p, gains: list[GainConfig], dt):
    """_step_raw for B members stacked on a leading axis.

    stack is (members, landmarks_hat): each member as _member lays it out,
    and every member's landmarks_hat in one (B, n, 3) array.
    r_hat holds the members' rotations as one (B, 3, 3) array, e their
    landmark errors and e_squared the errors' squared norms. inputs is
    (w, rows): W, shared or on the member axis, and the members' rows as in
    _step_raw; k_p is their (B, 1) column of k_p and gains their
    GainConfigs. The landmark-axis formulas run once over the stack, then
    each member's own _member_update, so a member gets the bits of its
    one-member step.
    Returns (the new stack of the members that stayed finite, the mask of
    those that did not); a member's failure never raises.
    """
    members, landmarks_hat = stack
    w, rows = inputs
    g, landmarks_new = _landmark_part(r_hat, landmarks_hat, w, e, e_squared, k_p, dt)
    finite = np.isfinite(landmarks_new).all(axis=(1, 2))
    updates, g = [], g.reshape(-1, 12).tolist()
    for i, (member, row, g_i, gains_i) in enumerate(zip(members, rows, g, gains)):
        try:
            updates.append(_member_update(member, row, g_i, gains_i, dt))
        except DivergenceError:
            finite[i] = False
            # The member's old values hold its place; the mask drops them.
            updates.append(member)
    # Most steps have nothing to drop.
    if not finite.all():
        updates, landmarks_new = list(compress(updates, finite)), landmarks_new[finite]
    return (updates, landmarks_new), ~finite


def _member_update(member, row, g, gains: GainConfig, dt) -> tuple:
    """The pose and bias part of one member's step, on Python floats: numpy's
    call overhead would cost more than this 3-vector and 3x3 arithmetic.

    member is (r, p, b_omega, b_v) on Python floats, r as its 9 row-major
    entries, row is as in _step_raw, g the 12 entries of G, and gains the
    member's own (k_w and gamma_rows); returns the new member, same layout.
    DivergenceError when the corrected twist or the new state is not finite,
    or when the float arithmetic raises where numpy would return inf or NaN.
    """
    r, p, (bo0, bo1, bo2), (bv0, bv1, bv2) = member
    k_w = gains.k_w
    try:
        (s0, s1, s2), (u0, u1, u2) = _feedback_apply(row, g)
        # The innovation term -k_w s is subtracted from the measured velocity.
        w0 = (row[0] - bo0 + k_w * s0) * dt
        w1 = (row[1] - bo1 + k_w * s1) * dt
        w2 = (row[2] - bo2 + k_w * s2) * dt
        x0 = (row[3] - bv0 + k_w * u0) * dt
        x1 = (row[4] - bv1 + k_w * u1) * dt
        x2 = (row[5] - bv2 + k_w * u2) * dt
        # The squared-angle check also catches finite twists whose square
        # overflows inside the exponential.
        if not (isfinite(w0 * w0 + w1 * w1 + w2 * w2) and isfinite(x0) and isfinite(x1)
                and isfinite(x2)):
            raise DivergenceError("correction terms overflowed; reduce dt or the gains")
        r_new, p_new = _advance(r, p, *_exp_floats((w0, w1, w2), (x0, x1, x2)))
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise DivergenceError(f"observer update failed ({exc}); reduce dt or the gains") from exc
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = gains.gamma_rows
    p0, p1, p2 = p_new
    bo0 -= dt * (g00 * s0 + g01 * s1 + g02 * s2)
    bo1 -= dt * (g10 * s0 + g11 * s1 + g12 * s2)
    bo2 -= dt * (g20 * s0 + g21 * s1 + g22 * s2)
    bv0 -= dt * (g00 * u0 + g01 * u1 + g02 * u2)
    bv1 -= dt * (g10 * u0 + g11 * u1 + g12 * u2)
    bv2 -= dt * (g20 * u0 + g21 * u1 + g22 * u2)
    if not (isfinite(p0) and isfinite(p1) and isfinite(p2) and isfinite(bo0) and isfinite(bo1)
            and isfinite(bo2) and isfinite(bv0) and isfinite(bv1) and isfinite(bv2)):
        raise DivergenceError("observer state overflowed; reduce dt or the gains")
    return r_new, p_new, (bo0, bo1, bo2), (bv0, bv1, bv2)


def lyapunov_value(
    state: ObserverState, errors, true_bias: SensorBias, gains: GainConfig
) -> float:
    """Energy functional over landmark errors and (truth-aware) bias errors.

    sum_i ||e_i||^2 / (2 alpha_i) plus the gamma-inverse-weighted squared bias
    errors, for errors of shape (n, 3). Monotone decay of this value along a
    noise-free run certifies the observer is converging; it is a diagnostic
    only and never feeds back into the estimates.
    """
    e = _as_floats(errors, "errors")
    if e.shape != (gains.count, 3):
        raise ValueError(f"errors must be a ({gains.count}, 3) array, got shape {e.shape}")
    b_tilde = _bias_error_rows(true_bias, state.b_omega_hat.tolist(), state.b_v_hat.tolist())
    return float(_energy_raw((e * e).sum(axis=-1), *b_tilde, gains))


def _energy_raw(e_squared: np.ndarray, b_omega_tilde, b_v_tilde, gains: GainConfig):
    """lyapunov_value on raw values: e_squared holds the squared norms
    ||e_i||^2, shape (..., n), and each bias error is three Python floats or
    three columns over its leading axes."""
    g_inv = gains.gamma_inv_rows
    bias_sum = _quadratic3(b_omega_tilde, g_inv) + _quadratic3(b_v_tilde, g_inv)
    return 0.5 * ((e_squared / gains.alpha).sum(axis=-1) + bias_sum)


def bias_error(state: ObserverState, true_bias: SensorBias) -> BiasError:
    """Truth-aware bias error b - b_hat for both velocity channels."""
    rows = _bias_error_rows(true_bias, state.b_omega_hat.tolist(), state.b_v_hat.tolist())
    return BiasError(*map(np.array, rows))


def _bias_error_rows(true_bias: SensorBias, b_omega_hat, b_v_hat) -> tuple[tuple, tuple]:
    """bias_error on estimates of three Python floats or three (K,) columns."""
    (w0, w1, w2), (v0, v1, v2) = true_bias.omega.tolist(), true_bias.vel.tolist()
    (x0, x1, x2), (y0, y1, y2) = b_omega_hat, b_v_hat
    return (w0 - x0, w1 - x1, w2 - x2), (v0 - y0, v1 - y1, v2 - y2)


def pose_error(state: ObserverState, truth: TrueState) -> PoseError:
    """Truth-aware pose error; constant in the limit of a converged run."""
    arrays = (state.r_hat.m, state.p_hat, truth.pose.rotation.m, truth.pose.position)
    r_tilde, p_tilde = _pose_error_rows(*(a.ravel().tolist() for a in arrays))
    return PoseError(_trusted(Rotation3, m=np.array(r_tilde).reshape(3, 3)), np.array(p_tilde))


def _pose_error_rows(r_hat, p_hat, rot, pos) -> tuple[tuple, tuple]:
    """pose_error entry by entry, r_tilde = R_hat R^T and p_tilde =
    P_hat - r_tilde P, on Python floats or on (K,) columns, each rotation
    as its 9 row-major entries."""
    r_tilde = _mul3(r_hat, (*rot[0::3], *rot[1::3], *rot[2::3]))  # R_hat R^T
    t00, t01, t02, t10, t11, t12, t20, t21, t22 = r_tilde
    x0, x1, x2 = pos
    return r_tilde, (
        p_hat[0] - (t00 * x0 + t01 * x1 + t02 * x2),
        p_hat[1] - (t10 * x0 + t11 * x1 + t12 * x2),
        p_hat[2] - (t20 * x0 + t21 * x1 + t22 * x2),
    )
