"""Convergence behavior at step sizes where the observer update is stable.

The correction-term feedback gives the explicit observer update a stiff mode
with rate about k_w / alpha_i times the summed squared landmark ranges, so
the explicit step must satisfy dt < 2 / rate or the update amplifies instead
of contracting. For the built-in reference scenario that bound is near
6e-5 s; the implicit scheme that runs step with removes it (the acceptance
suite runs the reference scenario at the default 1e-3). These tests pin down
the behavior the theory promises at a step inside both schemes' stable
region: monotone energy descent, landmark-error convergence, bias
identification, bounded bias energy, and a pose error that freezes to a
constant (a translation gauge offset inherited from the initialization).

The reference-scenario fixture integrates 320k steps and takes tens of
seconds; it is the one heavyweight piece of the suite.
"""

import numpy as np
import pytest

from slamobs import (
    bias_error,
    harness,
    landmark_errors,
    pose_error,
    reference_scenario,
    run,
    settling_time,
)
from slamobs.observer import _pose_error_rows

from conftest import make_compact_scenario

STABLE_DT = 5e-5


class TestCompactScenario:
    """Fast regression on sub-meter geometry, stable at dt = 1e-3."""

    def test_converges_with_energy_descent(self):
        config = make_compact_scenario(duration=14.0)
        records = run(config)
        t = np.array([r.t for r in records])
        max_e = np.array([r.max_e for r in records])
        values = np.array([r.lyapunov for r in records])

        tol = 1e-8 + 10.0 * config.dt ** 2
        assert (np.diff(values) <= tol).all()
        assert values[-1] < 1e-3 * values[0]

        settle = settling_time(t, max_e)
        assert settle is not None and settle < 13.0
        assert max_e[-1] < 0.05

        gamma_max = float(np.linalg.eigvalsh(config.gains.gamma)[-1])
        squared = np.array(
            [r.b_omega_tilde_norm ** 2 + r.b_v_tilde_norm ** 2 for r in records]
        )
        assert (squared <= 2.0 * gamma_max * values[0] + 1e-6).all()

    def test_bias_estimates_identified(self):
        config = make_compact_scenario(duration=12.0)
        records = run(config, stride=100)
        assert records[-1].b_omega_tilde_norm < 1e-4
        assert records[-1].b_v_tilde_norm < 1e-4


@pytest.fixture(scope="module")
def series():
    """One 16 s reference-scenario run at dt = 5e-5, streamed into arrays.

    One pass over the run's step loop: the metric series from chunks of
    records, as run computes them; the tail's pose errors on floats, as
    pose_error computes them; and the final step as a snapshot.
    """
    config = reference_scenario().with_overrides(dt=STABLE_DT, duration=16.0)
    steps = config.step_count
    columns = {name: [] for name in ("t", "max_e", "values", "b_omega", "b_v")}
    chunk = []
    tail_start = int(0.8 * steps)
    worst_tail_step = 0.0
    prev_pose_err = None
    for step in harness._steps(config):
        k, t, truth, estimate, _, e = step
        chunk.append((t, *truth, *estimate, e))
        if len(chunk) == harness.RECORD_CHUNK or k == steps:
            t_col, rot, pos, *estimate_cols, e_col = map(np.array, zip(*chunk))
            e_norm, _, _, _, bo, bv, values = harness._metric_columns(
                lambda a: np.moveaxis(a, 0, -1),  # (K,) columns
                (rot, pos, config.landmarks), estimate_cols, e_col, config,
            )
            for name, column in zip(columns, (t_col, e_norm.max(axis=-1), values, bo, bv)):
                columns[name].append(column)
            chunk = []
        if k >= tail_start:
            r_tilde, p_tilde = map(np.array, _pose_error_rows(
                *(a.tolist() for a in (estimate[0], estimate[1], *truth))
            ))
            if prev_pose_err is not None:
                worst_tail_step = max(
                    worst_tail_step,
                    float(np.linalg.norm(r_tilde - prev_pose_err[0])),
                    float(np.linalg.norm(p_tilde - prev_pose_err[1])),
                )
            prev_pose_err = (r_tilde, p_tilde)
    return {
        "config": config,
        **{name: np.concatenate(parts) for name, parts in columns.items()},
        "worst_tail_step": worst_tail_step,
        "final": harness._snapshot(config, *step),
    }


class TestReferenceScenarioStableStep:
    """The reference scenario at dt = 5e-5: every convergence property the
    acceptance criteria probe, evaluated where the scheme is stable."""

    def test_errors_fall_and_settle(self, series):
        assert series["max_e"][0] == pytest.approx(np.sqrt(134.0), rel=1e-12)
        assert series["max_e"][-1] <= 0.05
        settle = settling_time(series["t"], series["max_e"])
        assert settle is not None and settle <= 13.0

    def test_energy_descends_every_step(self, series):
        tol = 1e-8 + 10.0 * STABLE_DT ** 2
        assert (np.diff(series["values"]) <= tol).all()

    def test_bias_energy_bounded(self, series):
        config = series["config"]
        gamma_max = float(np.linalg.eigvalsh(config.gains.gamma)[-1])
        bound = 2.0 * gamma_max * series["values"][0] + 1e-6
        assert ((series["b_omega"] ** 2 + series["b_v"] ** 2) <= bound).all()

    def test_biases_identified(self, series):
        assert series["b_omega"][-1] <= 1e-6
        assert series["b_v"][-1] <= 1e-6

    def test_pose_error_settles_to_constant(self, series):
        assert series["worst_tail_step"] <= 1e-6

    def test_landmark_misplacement_is_pose_gauge_offset(self, series):
        # e_i = p_hat_i - (r_tilde p_i + p_tilde) exactly for unbiased
        # noise-free measurements, so once e_i is small the landmark estimates
        # sit at the gauge-transformed landmarks: the residual misplacement is
        # the frozen translation offset, not a mapping failure.
        snap = series["final"]
        config = series["config"]
        err = pose_error(snap.state, snap.truth)
        e = landmark_errors(snap.state, snap.frame)
        gauge = snap.truth.landmarks @ (np.eye(3) - err.r_tilde.m).T - err.p_tilde
        misplacement = snap.truth.landmarks - snap.state.landmarks_hat
        assert np.abs(misplacement - (gauge - e)).max() <= 1e-9
        berr = bias_error(snap.state, config.bias)
        assert np.linalg.norm(berr.b_omega_tilde) <= 1e-6
        # The offset itself is sub-meter here but far above the 0.1 the
        # acceptance suite asks for; it is a property of the flow from this
        # initialization, not of the step size.
        assert 0.3 <= float(np.linalg.norm(err.p_tilde)) <= 1.2
