"""Scenario runner: co-simulates the world and the observer, records metrics.

The loop is strictly sequential. At step k (time t = k * dt) the world is
measured, the metrics are recorded from that measurement and the current
states, and then both the observer and the truth advance by one step. The
final step is always recorded even when a decimation stride is active, so
"final error" summaries are well defined.

run and trajectory share one loop (_steps) over raw float64 arrays. It
calls the same raw helpers that observer_step, true_step and sense wrap,
forms the landmark errors once per step for both the metrics and the
update, and computes the truth's pose increment once per twist knot. The
public value types are built only at the boundary: trajectory wraps every
step into a StepSnapshot, run only the recorded steps, which it passes to
compute_metrics. Inputs are validated once, by ScenarioConfig.

All truth-aware diagnostics (pose error, bias error, the Lyapunov-style
energy) are computed here in the harness, where the truth is available; the
observer itself never sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .geometry import Pose, Rotation3, _trusted, rotation_distance
from .observer import (
    DivergenceError,
    ObserverState,
    _errors_raw,
    _step_raw,
    bias_error,
    lyapunov_value,
    pose_error,
)
from .scenario import ScenarioConfig
from .world import SensorFrame, TrueState, _increment_raw, _sense_raw, _true_step_raw

SETTLE_THRESHOLD = 0.05
SETTLE_HOLD = 1.0

# Sweep axis name -> the config with that parameter set to (or, for the
# *_scale axes, scaled by) a value.
SWEEP_AXES = {
    "k_p": lambda c, v: replace(c, gains=replace(c.gains, k_p=v)),
    "k_w": lambda c, v: replace(c, gains=replace(c.gains, k_w=v)),
    "gamma_scale": lambda c, v: replace(c, gains=replace(c.gains, gamma=c.gains.gamma * v)),
    "alpha_scale": lambda c, v: replace(c, gains=replace(c.gains, alpha=c.gains.alpha * v)),
    "sigma_omega": lambda c, v: replace(c, noise=replace(c.noise, sigma_omega=v)),
    "sigma_v": lambda c, v: replace(c, noise=replace(c.noise, sigma_v=v)),
    "sigma_y": lambda c, v: replace(c, noise=replace(c.noise, sigma_y=v)),
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


def _steps(config: ScenarioConfig):
    """The co-simulation loop on raw arrays, for k = 0 .. step_count.

    Yields (k, t, (rot, pos), estimate, (omega_m, v_m, y), e) before the k-th
    update, where estimate is laid out as ObserverState.arrays() and e are the
    landmark errors of that estimate and measurement. No yielded array is
    modified afterwards, so callers may keep them.
    """
    landmarks = config.landmarks
    bias, noise, gains = config.bias, config.noise, config.gains
    rng = noise.make_rng()
    steps = config.step_count
    dt = config.dt
    rot, pos = config.initial_pose.rotation.m, config.initial_pose.position
    estimate = config.initial_estimates.arrays()
    # The truth's pose increment depends only on the twist: keep it per knot.
    increment_twist = increment = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            t = k * dt
            twist = config.twist_profile.at(t)
            measurement = _sense_raw(rot, pos, landmarks, twist, bias, noise, rng)
            e = _errors_raw(*estimate[:3], measurement[2])
            yield k, t, (rot, pos), estimate, measurement, e
            if k == steps:
                break
            try:
                estimate = _step_raw(estimate, measurement, e, gains, dt, implicit=True)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"observer diverged at step {k} (t = {t:.6g} s): {exc}", step=k
                ) from exc
            if twist is not increment_twist:
                increment_twist, increment = twist, _increment_raw(twist, dt)
            rot, pos = _true_step_raw(rot, pos, *increment)


def _snapshot(config: ScenarioConfig, k, t, truth, estimate, measurement, e) -> StepSnapshot:
    """Wrap one step of _steps into the public value types.

    Every value derives from the validated config through the loop, so the
    types are built without re-validation.
    """
    (rot, pos), (r_hat, p_hat, landmarks_hat, b_omega_hat, b_v_hat) = truth, estimate
    omega_m, v_m, y = measurement
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
            b_omega_hat=b_omega_hat,
            b_v_hat=b_v_hat,
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


def compute_metrics(snapshot: StepSnapshot, config: ScenarioConfig) -> MetricsRecord:
    """Pure function of a snapshot; recomputing from a saved trace is bit-exact."""
    state = snapshot.state
    truth = snapshot.truth
    e = snapshot.e
    e_norm = np.sqrt((e * e).sum(axis=1))
    diff = truth.landmarks - state.landmarks_hat
    p_err = np.sqrt((diff * diff).sum(axis=1))
    perr = pose_error(state, truth)
    berr = bias_error(state, config.bias)
    return MetricsRecord(
        t=snapshot.t,
        e_norm=e_norm,
        p_err=p_err,
        r_tilde_dist=rotation_distance(perr.r_tilde),
        p_tilde_norm=float(np.linalg.norm(perr.p_tilde)),
        b_omega_tilde_norm=float(np.linalg.norm(berr.b_omega_tilde)),
        b_v_tilde_norm=float(np.linalg.norm(berr.b_v_tilde)),
        lyapunov=lyapunov_value(state, e, config.bias, config.gains),
    )


def run(config: ScenarioConfig, stride: int = 1) -> list[MetricsRecord]:
    """Run the scenario and return the recorded metric series.

    Records every stride-th step plus the final one. Deterministic given the
    config (noise seed included); a non-finite observer state aborts the run
    with a DivergenceError carrying the failing step index.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    steps = config.step_count
    records = []
    for step in _steps(config):
        k = step[0]
        if k % stride == 0 or k == steps:
            records.append(compute_metrics(_snapshot(config, *step), config))
    return records


def csv_header(n: int) -> str:
    names = ["t"]
    names += [f"e{i + 1}" for i in range(n)]
    names += [f"perr{i + 1}" for i in range(n)]
    names += ["rtilde", "ptilde", "bomega", "bv", "lyap"]
    return ",".join(names)


def csv_rows(records: list[MetricsRecord], n: int) -> Iterator[str]:
    yield csv_header(n)
    for rec in records:
        if rec.e_norm.shape[0] != n:
            raise ValueError(
                f"record carries {rec.e_norm.shape[0]} landmarks, expected {n}"
            )
        cells = [rec.t]
        cells += rec.e_norm.tolist()
        cells += rec.p_err.tolist()
        cells += [
            rec.r_tilde_dist,
            rec.p_tilde_norm,
            rec.b_omega_tilde_norm,
            rec.b_v_tilde_norm,
            rec.lyapunov,
        ]
        yield ",".join(repr(float(c)) for c in cells)


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

    Each run is independent and summarized by its settling time (first time
    the largest landmark error stays below 0.05 m for 1 s) and final errors.
    A run that diverges is reported with its aborting step and NaN errors
    rather than failing the whole sweep.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}")
    results = []
    for value in values:
        config = SWEEP_AXES[axis](base, float(value))
        try:
            records = run(config)
        except DivergenceError as exc:
            results.append(
                SweepResult(
                    axis=axis,
                    value=float(value),
                    settling_time=None,
                    final_max_e=math.nan,
                    final_max_p_err=math.nan,
                    aborted_step=exc.step,
                )
            )
            continue
        t = np.array([r.t for r in records])
        max_e = np.array([r.max_e for r in records])
        results.append(
            SweepResult(
                axis=axis,
                value=float(value),
                settling_time=settling_time(t, max_e),
                final_max_e=records[-1].max_e,
                final_max_p_err=records[-1].max_p_err,
            )
        )
    return results
