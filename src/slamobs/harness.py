"""Scenario runner: co-simulates the world and the observer, records metrics.

At step k (time t = k * dt) the world is measured, the metrics are recorded
from that measurement and the current states, and then the observer and the
truth advance by one step. The final step is always recorded, stride or
not, so "final error" summaries are well defined.

run and trajectory share one loop (_steps). Between steps it keeps P_hat and
the biases as the Python floats of the observer's float update and R_hat as
the array that the landmark errors and the update (_step_raw, which
observer_step wraps too) both take. The truth (_truth) is chained on Python
floats as true_step computes it, with the pose increment and the velocity
measurements computed once per twist knot, and its landmarks are measured
one block of at most RECORD_CHUNK steps at a time in one product
(world._measure, which sense calls with one pose). Each block's noise is
one draw, sliced in sense's order (world._add_noise, which sense calls for
one step), and the estimate-free part of each step (the velocities as
Python floats, W and the implicit solve's terms) is computed once per block
(_block_inputs), so a loop of observer_step, sense and true_step still
reproduces trajectory bit for bit. trajectory wraps every step into a
StepSnapshot. run copies each recorded step's values into buffers of
RECORD_CHUNK records and computes every metric column of a full buffer at
once (_metric_columns); compute_metrics is the same computation over one
snapshot, with the same bits. Both evaluate here, where the truth is
available, the truth-aware diagnostics that observer defines; the
observer's step never sees the truth. Inputs are validated once, by
ScenarioConfig.

sweep advances the members that share dt (on every axis but dt, all of
them) together in one loop (_sweep_group), over one truth and its
measurement blocks and, on the k_p and gamma_scale axes, one measurement
stream and one set of block inputs. Between
steps each member's pose and biases stay the Python floats of its float
update and the landmark estimates one array stacked on a leading member
axis; each step is one _stacked_step. A diverging member drops out at that
step without stopping the others or redoing their update, and each member
reports its solo run's summary. A gain- or noise-axis member's config is
checked only in the GainConfig or NoiseSpec that it changes; a k_p or k_w
member only in that one value.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass, replace
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from .geometry import (
    Pose,
    Rotation3,
    _advance,
    _as_positive,
    _distance_rows,
    _increment_raw,
    _norm3,
    _trusted,
)
from .observer import (
    DivergenceError,
    GainConfig,
    ObserverState,
    _bias_error_rows,
    _energy_raw,
    _errors_raw,
    _pose_error_rows,
    _solve_terms,
    _stacked_step,
    _step_raw,
    _weights,
)
from .scenario import ScenarioConfig
from .world import SensorFrame, TrueState, _add_noise, _measure

SETTLE_THRESHOLD = 0.05
SETTLE_HOLD = 1.0
# run buffers this many recorded steps before computing their metrics, and
# the truth is measured this many steps at a time.
RECORD_CHUNK = 1024


def _replaced(config: ScenarioConfig, **fields) -> ScenarioConfig:
    """config with fields replaced by values that their own types validated.

    The rest of config is not checked again. Only for fields that no
    cross-field rule of ScenarioConfig ties to what changes: of those rules,
    only the alpha count touches the gains, and no gain axis changes it.
    """
    return _trusted(ScenarioConfig, **{**vars(config), **fields})


def _with_gain(config: ScenarioConfig, name: str, value: float) -> ScenarioConfig:
    """config with the scalar gain name (k_p or k_w) set to value.

    Only the new value is checked: the rest of the GainConfig, the rows of
    gamma and of its inverse included, is the base's, already validated.
    """
    gains = _trusted(GainConfig, **{**vars(config.gains), name: _as_positive(value, name)})
    return _replaced(config, gains=gains)


# Sweep axis name -> the config with that parameter set to (or, for the
# *_scale axes, scaled by) a value.
SWEEP_AXES = {
    "k_p": lambda c, v: _with_gain(c, "k_p", v),
    "k_w": lambda c, v: _with_gain(c, "k_w", v),
    "gamma_scale": lambda c, v: _replaced(c, gains=replace(c.gains, gamma=c.gains.gamma * v)),
    "alpha_scale": lambda c, v: _replaced(c, gains=replace(c.gains, alpha=c.gains.alpha * v)),
    "sigma_omega": lambda c, v: _replaced(c, noise=replace(c.noise, sigma_omega=v)),
    "sigma_v": lambda c, v: _replaced(c, noise=replace(c.noise, sigma_v=v)),
    "sigma_y": lambda c, v: _replaced(c, noise=replace(c.noise, sigma_y=v)),
    "dt": lambda c, v: replace(c, dt=v),
}


@dataclass(frozen=True)
class MetricsRecord:
    """Per-step metrics: measurable errors plus truth-aware diagnostics."""

    t: float
    e_norm: np.ndarray
    p_err: np.ndarray
    r_tilde_dist: float
    p_tilde_norm: float
    b_omega_tilde_norm: float
    b_v_tilde_norm: float
    lyapunov: float

    @property
    def max_e(self) -> float:
        return float(self.e_norm.max())

    @property
    def max_p_err(self) -> float:
        return float(self.p_err.max())


@dataclass(frozen=True)
class StepSnapshot:
    """One instant of the co-simulation, before the step-k updates apply.

    e holds the landmark errors of state against frame (landmark_errors),
    which the observer's k-th update uses.
    """

    k: int
    t: float
    truth: TrueState
    state: ObserverState
    frame: SensorFrame
    e: np.ndarray


def _truth(config: ScenarioConfig, span: int):
    """The true motion and its noise-free measurements for k = 0 .. step_count.

    Yields blocks of at most span steps (block, rots, positions, (omega_m,
    v_m, y)): the range of k, the true poses at t = k * dt as (K, 3, 3) and
    (K, 3) arrays and the (K, 3), (K, 3) and (K, n, 3) measurements there
    without noise. The pose is chained on Python floats, as true_step
    computes it, with the increment and velocities computed once per knot;
    the landmarks are measured in one product per block (_measure). No
    yielded array is modified afterwards.
    """
    steps, dt = config.step_count, config.dt
    landmarks, bias, profile = config.landmarks, config.bias, config.twist_profile
    rot, pos = config.initial_pose.rotation.m.tolist(), config.initial_pose.position.tolist()
    knot = None
    for start in range(0, steps + 1, span):
        block = range(start, min(start + span, steps + 1))
        # Flat doubles, not the rows: a block of rows would hold its floats
        # as Python objects, about six times the memory.
        rots, positions, velocities = array("d"), array("d"), array("d")
        for k in block:
            twist = profile.at(k * dt)
            if twist is not knot:
                knot, (step_rot, step_pos) = twist, _increment_raw(twist, dt)
                velocity = [*(twist.omega + bias.omega).tolist(), *(twist.vel + bias.vel).tolist()]
            rots.extend(rot[0])
            rots.extend(rot[1])
            rots.extend(rot[2])
            positions.extend(pos)
            velocities.extend(velocity)
            rot, pos = _advance(rot, pos, step_rot, step_pos)
        rots = np.frombuffer(rots).reshape(-1, 3, 3)
        positions = np.frombuffer(positions).reshape(-1, 3)
        velocities = np.frombuffer(velocities).reshape(-1, 2, 3)
        y = _measure(rots, positions, landmarks, bias)
        yield block, rots, positions, (velocities[:, 0], velocities[:, 1], y)


def _block_inputs(measurement: tuple, alpha: np.ndarray, c) -> tuple:
    """The (omega_m, v_m, w, terms) of _step_raw for a block's steps, step
    first, from its noisy measurement and the alpha and c = dt k_w that
    broadcast against it; terms are computed on columns, as _weights is."""
    omega_m, v_m, y = measurement
    w, gram = _weights(y, alpha)
    terms = _solve_terms(np.moveaxis(gram, (-2, -1), (0, 1)), c)
    rows = np.stack(np.broadcast_arrays(*terms), axis=-1).tolist()
    return omega_m.tolist(), v_m.tolist(), w, rows


def _steps(config: ScenarioConfig):
    """The co-simulation loop, for k = 0 .. step_count.

    Yields (k, t, (rot, pos), estimate, (omega_m, v_m, y), e) before the k-th
    update. estimate is (r_hat, p_hat, landmarks_hat, b_omega_hat, b_v_hat)
    with R_hat, P_hat and the landmark estimates as the arrays that the
    errors took and the biases as three Python floats each; e are the
    landmark errors of that estimate and measurement. No yielded array is
    modified afterwards, so callers may keep them.
    """
    noise, gains = config.noise, config.gains
    rng = noise.make_rng()
    steps = config.step_count
    dt = config.dt
    r_hat, p_hat, landmarks_hat, b_omega_hat, b_v_hat = config.initial_estimates.arrays()
    estimate = (r_hat, p_hat.tolist(), landmarks_hat, b_omega_hat.tolist(), b_v_hat.tolist())
    # A zero determinant gives inf, which the step reports as divergence.
    # Held by the zip alone, a block's inputs are freed before the next's.
    with np.errstate(all="ignore"):
        for block, rots, positions, measurement in _truth(config, RECORD_CHUNK):
            measurement = _add_noise(measurement, noise, rng)
            for k, rot, pos, frame, inputs in zip(
                block, rots, positions, zip(*measurement),
                zip(*_block_inputs(measurement, gains.alpha, dt * gains.k_w)),
            ):
                r_hat, p, landmarks_hat, b_omega, b_v = estimate
                p_hat = np.array(p)
                e = _errors_raw(r_hat, p_hat, landmarks_hat, frame[2])
                yield k, k * dt, (rot, pos), (r_hat, p_hat, landmarks_hat, b_omega, b_v), frame, e
                if k == steps:
                    break
                try:
                    estimate = _step_raw(estimate, inputs, e, gains, dt)
                except DivergenceError as exc:
                    raise DivergenceError(
                        f"observer diverged at step {k} (t = {k * dt:.6g} s): {exc}", step=k
                    ) from exc


def _snapshot(config: ScenarioConfig, k, t, truth, estimate, measurement, e) -> StepSnapshot:
    """Wrap one step of _steps into the public value types.

    Every value derives from the validated config through the loop, so the
    types are built without re-validation. The true pose and the
    measurement are rows of the loop's block arrays; they are copied, so
    that a kept snapshot does not keep its whole block alive.
    """
    r_hat, p_hat, landmarks_hat, b_omega_hat, b_v_hat = estimate
    rot, pos, omega_m, v_m, y = (a.copy() for a in (*truth, *measurement))
    pose = _trusted(Pose, rotation=_trusted(Rotation3, m=rot), position=pos)
    return StepSnapshot(
        k,
        t,
        _trusted(TrueState, pose=pose, landmarks=config.landmarks),
        _trusted(
            ObserverState,
            r_hat=_trusted(Rotation3, m=r_hat),
            p_hat=p_hat,
            landmarks_hat=landmarks_hat,
            b_omega_hat=np.array(b_omega_hat),
            b_v_hat=np.array(b_v_hat),
        ),
        _trusted(SensorFrame, omega_m=omega_m, v_m=v_m, y=y, t=t),
        e,
    )


def trajectory(config: ScenarioConfig) -> Iterator[StepSnapshot]:
    """Generate snapshots for k = 0 .. step_count, advancing both systems.

    The snapshot at k carries the measurement taken at t = k * dt and the
    states before the k-th update. The observer advances by the implicit
    step (observer_step with scheme="implicit"). Raises DivergenceError (with
    the failing step index) if the observer update leaves the finite range.
    """
    for step in _steps(config):
        yield _snapshot(config, *step)


def _metric_columns(rows, truth, estimate, e, config: ScenarioConfig) -> tuple:
    """Every MetricsRecord column after t, in field order.

    truth is (rot, pos, landmarks), estimate ObserverState.arrays() and e the
    landmark errors, of one record or stacked on a leading axis of K records
    (landmarks never is). The landmark-axis columns are numpy calls; the pose
    and bias ones run the float kernels of pose_error, bias_error,
    rotation_distance and lyapunov_value on rows(a) of each array a: Python
    floats for one record, (K,) columns for K, with the same bits.
    """
    rot, pos, landmarks = truth
    r_hat, p_hat, landmarks_hat, b_omega_hat, b_v_hat = estimate
    r_tilde, p_tilde = _pose_error_rows(rows(r_hat), rows(p_hat), rows(rot), rows(pos))
    b_omega_tilde, b_v_tilde = _bias_error_rows(config.bias, rows(b_omega_hat), rows(b_v_hat))
    e_squared = (e * e).sum(axis=-1)
    return (
        np.sqrt(e_squared),
        _error_norms(landmarks - landmarks_hat),
        _distance_rows(r_tilde),
        _norm3(p_tilde),
        _norm3(b_omega_tilde),
        _norm3(b_v_tilde),
        _energy_raw(e_squared, b_omega_tilde, b_v_tilde, config.gains),
    )


def _error_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: the e_norm and p_err columns."""
    return np.sqrt((x * x).sum(axis=-1))


def compute_metrics(snapshot: StepSnapshot, config: ScenarioConfig) -> MetricsRecord:
    """Pure function of a snapshot; recomputing from a saved trace is bit-exact.

    It is _metric_columns over one record, on Python floats, so it equals
    the record that run computes for the same step, bit for bit.
    """
    pose, landmarks = snapshot.truth.pose, snapshot.truth.landmarks
    truth = (pose.rotation.m, pose.position, landmarks)
    e_norm, p_err, *scalars = _metric_columns(
        np.ndarray.tolist, truth, snapshot.state.arrays(), snapshot.e, config
    )
    return MetricsRecord(snapshot.t, e_norm, p_err, *map(float, scalars))


def run(config: ScenarioConfig, stride: int = 1) -> list[MetricsRecord]:
    """Run the scenario and return the recorded metric series.

    Records every stride-th step plus the final one. Deterministic given the
    config (noise seed included); a non-finite observer state aborts the run
    with a DivergenceError carrying the failing step index.
    """
    # An integral type only, as for NoiseSpec's seed: nan or 2.5 is no stride.
    if isinstance(stride, bool) or not isinstance(stride, numbers.Integral) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")
    steps = config.step_count
    recorded = steps // stride + 1 + (steps % stride != 0)
    records = []
    buffers = None
    i = 0
    for k, t, truth, estimate, _, e in _steps(config):
        if k % stride and k != steps:
            continue
        values = (t, *truth, *estimate, e)
        if buffers is None:
            rows = min(RECORD_CHUNK, recorded)
            buffers = [np.empty((rows, *np.shape(v))) for v in values]
        for buffer, value in zip(buffers, values):
            buffer[i] = value
        i += 1
        if i == len(buffers[0]) or k == steps:
            t_col, rot, pos, *estimate_cols, e_col = (b[:i] for b in buffers)
            e_norm, p_err, *scalars = _metric_columns(
                lambda a: np.moveaxis(a, 0, -1),  # (K,) columns
                (rot, pos, config.landmarks), estimate_cols, e_col, config,
            )
            records += map(
                MetricsRecord, t_col.tolist(), e_norm, p_err, *(c.tolist() for c in scalars)
            )
            i = 0
    return records


def csv_header(n: int) -> str:
    names = ["t"]
    names += [f"e{i + 1}" for i in range(n)]
    names += [f"perr{i + 1}" for i in range(n)]
    names += ["rtilde", "ptilde", "bomega", "bv", "lyap"]
    return ",".join(names)


def csv_rows(records: list[MetricsRecord], n: int) -> Iterator[str]:
    """The header, then one line per record; checks every record first.

    Each cell is written as repr(float(cell)).
    """
    for rec in records:
        if rec.e_norm.shape[0] != n:
            raise ValueError(
                f"record carries {rec.e_norm.shape[0]} landmarks, expected {n}"
            )
    yield csv_header(n)
    for r in records:
        cells = (
            r.t, *r.e_norm.tolist(), *r.p_err.tolist(), r.r_tilde_dist,
            r.p_tilde_norm, r.b_omega_tilde_norm, r.b_v_tilde_norm, r.lyapunov,
        )
        yield ",".join(map(repr, map(float, cells)))


def write_csv(records: list[MetricsRecord], n: int, path: str | Path) -> None:
    """Write the metric series as UTF-8 CSV with LF endings.

    Floats are rendered with repr (shortest round-trip decimal text), so two
    identical runs produce byte-identical files.
    """
    out = Path(path)
    with out.open("w", encoding="utf-8", newline="\n") as fh:
        for line in csv_rows(records, n):
            fh.write(line)
            fh.write("\n")


def settling_time(
    t: np.ndarray,
    max_e: np.ndarray,
    threshold: float = SETTLE_THRESHOLD,
    hold: float = SETTLE_HOLD,
) -> float | None:
    """First time max_e stays below threshold for a full hold window.

    Returns None when no window that fits inside the run qualifies.
    """
    t = np.asarray(t, dtype=float)
    max_e = np.asarray(max_e, dtype=float)
    if t.shape != max_e.shape:
        raise ValueError(f"t and max_e differ in shape: {t.shape} and {max_e.shape}")
    below = max_e < threshold
    start = None
    for i in range(len(t)):
        if below[i]:
            if start is None:
                start = i
            if t[i] - t[start] >= hold:
                return float(t[start])
        else:
            start = None
    return None


def fit_exponential_decay(t, values) -> tuple[float, float]:
    """Least-squares exponential fit values ~ A exp(-rate t).

    Returns (rate, r_squared) from a linear regression on the log of the
    positive samples; rate > 0 means decay.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = v > 0.0
    if mask.sum() < 2:
        raise ValueError("need at least two positive samples to fit a decay rate")
    x = t[mask]
    y = np.log(v[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return -float(slope), r_squared


@dataclass(frozen=True)
class SweepResult:
    """Summary of one run inside a parameter sweep."""

    axis: str
    value: float
    settling_time: float | None
    final_max_e: float
    final_max_p_err: float
    aborted_step: int | None = None


def sweep(base: ScenarioConfig, axis: str, values) -> list[SweepResult]:
    """Run the base scenario once per value of the chosen parameter.

    Each run is summarized by its settling time (first time the largest
    landmark error stays below 0.05 m for 1 s) and final errors. A run that
    diverges is reported with its aborting step and NaN errors rather than
    failing the whole sweep.

    Every member's config is built, and so validated, before any step. The
    members that share dt advance together in one batched loop
    (_sweep_group), and each gives its solo run's summary.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}")
    values = [float(v) for v in values]
    configs = [SWEEP_AXES[axis](base, v) for v in values]
    groups: dict[float, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(config.dt, []).append(i)
    summaries = [None] * len(configs)
    for members in groups.values():
        for i, summary in zip(members, _sweep_group([configs[i] for i in members])):
            summaries[i] = summary
    return [SweepResult(axis, value, *summary) for value, summary in zip(values, summaries)]


def _sweep_group(configs: list[ScenarioConfig]) -> list[tuple]:
    """(settling_time, final_max_e, final_max_p_err, aborted_step) of each
    config's run, with all members stepped together.

    The configs differ only in their gains or noise. The truth and its
    noise-free measurements are computed once, by _truth, as for one run.
    Members with equal noise share one measurement stream; otherwise each
    draws from its own generator. Members that also share alpha and k_w (the
    k_p and gamma_scale axes) share each block's _block_inputs; otherwise
    each has its own on a member axis. Between steps each member's pose and
    biases stay the Python floats of its float update, and only the landmark
    estimates are one (B, n, 3) array. One _stacked_step call, given the
    (B, 1) k_p column and the GainConfig list of the members still in the
    batch, advances them and drops, with that step as its aborted_step, each
    member whose update leaves the finite range. Only the squared max_e
    column and the final landmark errors are recorded.
    """
    base = configs[0]
    steps, dt = base.step_count, base.dt
    landmarks = base.landmarks
    gains = [c.gains for c in configs]
    k_p = np.array([[g.k_p] for g in gains])
    shared = len({(c.noise, c.gains.k_w, c.gains.alpha.tobytes()) for c in configs}) == 1
    # A member-step of own inputs holds about four arrays the size of its
    # y (the draws, y, W and the Gram's operand): a quarter of RECORD_CHUNK
    # member-steps keeps a block's memory near that of one truth block.
    span = RECORD_CHUNK if shared else max(1, RECORD_CHUNK // (4 * len(configs)))
    noises = {c.noise for c in configs}
    streams = [(c.noise, c.noise.make_rng()) for c in (configs if len(noises) > 1 else configs[:1])]
    r_hat, p_hat, landmarks_hat, b_omega_hat, b_v_hat = base.initial_estimates.arrays()
    rows = (r_hat.tolist(), p_hat.tolist(), b_omega_hat.tolist(), b_v_hat.tolist())
    members = [rows] * len(configs)
    landmarks_hat = np.repeat(landmarks_hat[None], len(configs), axis=0)
    alive = np.arange(len(configs))
    aborted: list[int | None] = [None] * len(configs)
    # The squares of max_e: sqrt is monotone and correctly rounded, so the
    # root of the largest square is the largest norm, bit for bit.
    max_e_squared = np.empty((steps + 1, len(configs)))
    flat = chain.from_iterable
    with np.errstate(all="ignore"):
        for block, _, _, measurement in _truth(base, span):
            draws = [_add_noise(measurement, *stream) for stream in streams]
            if shared:
                (measurement,), alpha, c = draws, gains[0].alpha, dt * gains[0].k_w
            else:
                # Each member's measurement on axis 1, after the step axis.
                shape = (len(block), alive.size)
                measurement = [
                    np.broadcast_to(np.stack(parts, axis=1), shape + parts[0].shape[1:])
                    for parts in zip(*draws)
                ]
                alpha = np.stack([g.alpha for g in gains])
                c = dt * np.array([g.k_w for g in gains])
            # The block's members still alive, once one has dropped in it.
            live = None
            for k, y, omega_m, v_m, w, terms in zip(
                block, measurement[2], *_block_inputs(measurement, alpha, c)
            ):
                if shared:
                    omega_m, v_m, terms = repeat(omega_m), repeat(v_m), repeat(terms)
                elif live is not None:
                    y, w = y[live], w[live]
                    omega_m, v_m, terms = ([x[i] for i in live] for x in (omega_m, v_m, terms))
                # fromiter over the flat floats takes half the time of
                # np.array over the nested rows.
                r_rows, p_rows, *_ = zip(*members)
                r_hat = np.fromiter(flat(flat(r_rows)), float, 9 * alive.size).reshape(-1, 3, 3)
                p_hat = np.fromiter(flat(p_rows), float, 3 * alive.size).reshape(-1, 3)
                e = _errors_raw(r_hat, p_hat, landmarks_hat, y)
                e_squared = (e * e).sum(axis=-1)
                max_e_squared[k, alive] = e_squared.max(axis=-1)
                if k == steps:
                    break
                (members, landmarks_hat), failed = _stacked_step(
                    (members, landmarks_hat), r_hat, (omega_m, v_m, w, terms), e, e_squared,
                    k_p, gains, dt,
                )
                if failed.any():
                    for i in alive[failed]:
                        aborted[i] = k
                    keep = ~failed
                    alive, k_p, gains = alive[keep], k_p[keep], list(compress(gains, keep))
                    if not alive.size:
                        break
                    if not shared:
                        streams = list(compress(streams, keep)) if len(noises) > 1 else streams
                        live = np.flatnonzero(keep) if live is None else live[keep]
            if not alive.size:
                break
    t = np.arange(steps + 1) * dt
    p_err = _error_norms(landmarks - landmarks_hat).max(axis=-1)
    summaries = [(None, math.nan, math.nan, step) for step in aborted]
    for j, i in enumerate(alive):
        column = np.sqrt(max_e_squared[:, i])
        summaries[i] = (settling_time(t, column), float(column[-1]), float(p_err[j]), None)
    return summaries
