"""Run loop, metrics purity, CSV format, settling/fit helpers, sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest

from slamobs import (
    DivergenceError,
    NoiseSpec,
    SensorBias,
    TrueState,
    Twist,
    TwistProfile,
    compute_metrics,
    csv_header,
    fit_exponential_decay,
    landmark_errors,
    observer_step,
    reference_scenario,
    run,
    sense,
    settling_time,
    sweep,
    trajectory,
    true_step,
    write_csv,
)

from conftest import make_compact_scenario, make_gentle_scenario


def far_landmark_reference(**overrides):
    """paper-sec5 with every landmark estimate started at (100, 100, 100) m.

    Its errors of about 170 m make the landmark adaptation step
    dt * psi_i = dt * k_p / 4 * (1 + ||e_i||^2) between 7 and 9 at dt = 1e-3, above
    the stability limit of 2, so the landmark update overshoots, the gain
    grows with the error, and the state overflows within a few steps.
    """
    config = reference_scenario().with_overrides(**overrides)
    estimates = replace(config.initial_estimates, landmarks_hat=np.full((4, 3), 100.0))
    return replace(config, initial_estimates=estimates)


def noisy_knotted_scenario():
    """Compact scenario with noise on every channel, a landmark bias and a
    3-knot twist schedule; the second knot starts on the step grid, the third
    between two steps."""
    base = make_compact_scenario(
        duration=0.3, noise=NoiseSpec(sigma_omega=0.02, sigma_v=0.01, sigma_y=0.005, seed=11)
    )
    knots = (
        (0.0, Twist(np.array([0.05, -0.04, 0.3]), np.array([0.4, 0.1, 0.05]))),
        (0.1, Twist(np.array([0.2, 0.1, -0.3]), np.array([0.1, 0.4, 0.0]))),
        (0.1805, Twist(np.array([-0.1, 0.3, 0.2]), np.array([0.3, -0.2, 0.1]))),
    )
    bias = SensorBias(base.bias.omega, base.bias.vel, np.linspace(-0.01, 0.01, 12).reshape(4, 3))
    return replace(base, twist_profile=TwistProfile(knots), bias=bias)


def record_bits(rec):
    return (
        rec.t,
        rec.e_norm.tobytes(),
        rec.p_err.tobytes(),
        rec.r_tilde_dist,
        rec.p_tilde_norm,
        rec.b_omega_tilde_norm,
        rec.b_v_tilde_norm,
        rec.lyapunov,
    )


class TestSharedLoop:
    def test_run_equals_metrics_over_trajectory(self):
        config = noisy_knotted_scenario()
        stride = 7
        steps = config.step_count
        assert steps % stride != 0  # the final record is off the stride
        expected = [
            record_bits(compute_metrics(snap, config))
            for snap in trajectory(config)
            if snap.k % stride == 0 or snap.k == steps
        ]
        assert [record_bits(r) for r in run(config, stride=stride)] == expected

    def test_truth_matches_chained_true_step_across_knots(self):
        config = noisy_knotted_scenario()
        truth = TrueState(config.initial_pose, config.landmarks)
        twists = set()
        for snap in trajectory(config):
            assert snap.truth.pose.rotation.m.tobytes() == truth.pose.rotation.m.tobytes()
            assert snap.truth.pose.position.tobytes() == truth.pose.position.tobytes()
            twist = config.twist_profile.at(snap.t)
            twists.add(id(twist))
            truth = true_step(truth, twist, config.dt)
        assert len(twists) == 3

    def test_public_step_functions_reproduce_trajectory(self):
        config = noisy_knotted_scenario()
        truth = TrueState(config.initial_pose, config.landmarks)
        state = config.initial_estimates
        rng = config.noise.make_rng()
        for snap in trajectory(config):
            twist = config.twist_profile.at(snap.t)
            frame = sense(truth, config.bias, config.noise, twist, rng, snap.t)
            for a, b in (
                (snap.frame.y, frame.y),
                (snap.frame.omega_m, frame.omega_m),
                (snap.frame.v_m, frame.v_m),
                (snap.state.r_hat.m, state.r_hat.m),
                (snap.state.p_hat, state.p_hat),
                (snap.state.landmarks_hat, state.landmarks_hat),
                (snap.state.b_omega_hat, state.b_omega_hat),
                (snap.state.b_v_hat, state.b_v_hat),
                (snap.e, landmark_errors(state, frame)),
            ):
                assert a.tobytes() == b.tobytes()
            state = observer_step(state, frame, config.gains, config.dt, scheme="implicit")
            truth = true_step(truth, twist, config.dt)


class TestRunLoop:
    def test_record_count_stride_one(self):
        config = make_compact_scenario(duration=0.1, dt=0.001)
        records = run(config)
        assert len(records) == config.step_count + 1 == 101

    def test_record_count_with_stride(self):
        config = make_compact_scenario(duration=0.1, dt=0.001)
        records = run(config, stride=10)
        assert len(records) == 100 // 10 + 1

    def test_final_step_always_recorded(self):
        config = make_compact_scenario(duration=0.105, dt=0.001)
        records = run(config, stride=10)
        assert records[-1].t == pytest.approx(0.105, abs=1e-9)

    def test_time_axis(self):
        config = make_compact_scenario(duration=0.01, dt=0.001)
        records = run(config)
        assert [r.t for r in records] == pytest.approx(
            [0.001 * k for k in range(11)], abs=1e-12
        )

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            run(make_compact_scenario(duration=0.01), stride=0)

    def test_deterministic_given_seed(self):
        config = make_compact_scenario(
            duration=0.5, noise=NoiseSpec(sigma_omega=0.01, sigma_v=0.01, sigma_y=0.02, seed=5)
        )
        a = run(config)
        b = run(config)
        for ra, rb in zip(a, b):
            assert ra.t == rb.t
            assert (ra.e_norm == rb.e_norm).all()
            assert (ra.p_err == rb.p_err).all()
            assert ra.lyapunov == rb.lyapunov

    def test_metrics_recomputable_from_trace(self):
        config = make_compact_scenario(duration=0.2)
        snapshots = list(trajectory(config))
        records = run(config)
        for snap, rec in zip(snapshots, records):
            again = compute_metrics(snap, config)
            assert again.t == rec.t
            assert (again.e_norm == rec.e_norm).all()
            assert (again.p_err == rec.p_err).all()
            assert again.r_tilde_dist == rec.r_tilde_dist
            assert again.p_tilde_norm == rec.p_tilde_norm
            assert again.lyapunov == rec.lyapunov

    def test_perfect_start_zero_bias_equilibrium(self):
        # With exact initialization and no bias or noise the error stays at
        # numerical zero at every step of the run.
        config = make_compact_scenario(duration=2.0, perfect_start=True, zero_bias=True)
        records = run(config)
        worst = max(r.max_e for r in records)
        assert worst <= 1e-9
        assert records[-1].max_p_err <= 1e-9

    def test_reference_scenario_aborts_at_default_step(self):
        # A run whose landmark update is unstable at dt = 1e-3 must abort
        # with the failing step index.
        with pytest.raises(DivergenceError) as info:
            run(far_landmark_reference(), stride=100)
        assert info.value.step is not None
        assert info.value.step > 0
        assert "step" in str(info.value)


class TestCsv:
    def test_header_layout(self):
        assert csv_header(2) == "t,e1,e2,perr1,perr2,rtilde,ptilde,bomega,bv,lyap"

    def test_file_format(self, tmp_path):
        config = make_compact_scenario(duration=0.05)
        records = run(config, stride=10)
        path = tmp_path / "out.csv"
        write_csv(records, config.count, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        text = raw.decode("utf-8")
        lines = text.splitlines()
        assert lines[0] == csv_header(4)
        assert len(lines) == len(records) + 1
        width = len(lines[0].split(","))
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == width
            for cell in cells:
                float(cell)

    def test_float_cells_round_trip(self, tmp_path):
        config = make_compact_scenario(duration=0.02)
        records = run(config)
        path = tmp_path / "out.csv"
        write_csv(records, config.count, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        parsed = [float(c) for c in lines[1].split(",")]
        first = records[0]
        assert parsed[0] == first.t
        assert parsed[1:5] == first.e_norm.tolist()
        assert parsed[-1] == first.lyapunov

    def test_identical_runs_identical_bytes(self, tmp_path):
        config = make_compact_scenario(
            duration=0.3, noise=NoiseSpec(sigma_y=0.05, seed=123)
        )
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_csv(run(config), config.count, path_a)
        write_csv(run(config), config.count, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()


class TestSettlingTime:
    def test_simple_window(self):
        t = np.arange(0.0, 5.0, 0.1)
        max_e = np.where(t < 2.0, 1.0, 0.01)
        assert settling_time(t, max_e, threshold=0.05, hold=1.0) == pytest.approx(2.0)

    def test_relapse_within_hold_resets_window(self):
        t = np.arange(0.0, 5.0, 0.1)
        max_e = np.where(t < 1.0, 1.0, 0.01)
        max_e[20] = 1.0  # spike at t = 2.0, before the 1.5 s hold completes
        result = settling_time(t, max_e, threshold=0.05, hold=1.5)
        assert result == pytest.approx(2.1, abs=1e-9)

    def test_relapse_after_hold_does_not_matter(self):
        t = np.arange(0.0, 5.0, 0.1)
        max_e = np.where(t < 1.0, 1.0, 0.01)
        max_e[40] = 1.0  # spike at t = 4.0, after a full hold window passed
        result = settling_time(t, max_e, threshold=0.05, hold=1.5)
        assert result == pytest.approx(1.0, abs=1e-9)

    def test_never_settles(self):
        t = np.arange(0.0, 5.0, 0.1)
        assert settling_time(t, np.ones_like(t)) is None

    def test_window_must_fit_in_run(self):
        t = np.arange(0.0, 1.0, 0.1)
        max_e = np.full_like(t, 0.01)
        assert settling_time(t, max_e, threshold=0.05, hold=2.0) is None


class TestFit:
    def test_exact_exponential_recovered(self):
        t = np.linspace(0.0, 5.0, 200)
        values = 3.0 * np.exp(-0.8 * t)
        rate, r2 = fit_exponential_decay(t, values)
        assert rate == pytest.approx(0.8, rel=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_growth_gives_negative_rate(self):
        t = np.linspace(0.0, 5.0, 50)
        rate, _ = fit_exponential_decay(t, np.exp(0.5 * t))
        assert rate == pytest.approx(-0.5, rel=1e-9)

    def test_nonpositive_samples_skipped(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.array([1.0, 0.0, np.exp(-2.0), np.exp(-3.0)])
        rate, r2 = fit_exponential_decay(t, values)
        assert rate == pytest.approx(1.0, rel=1e-9)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two positive samples"):
            fit_exponential_decay(np.array([0.0]), np.array([1.0]))


class TestSweep:
    def test_empty_values(self):
        assert sweep(make_compact_scenario(duration=0.1), "k_p", []) == []

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweep(make_compact_scenario(duration=0.1), "k_q", [1.0])

    def test_settling_nonincreasing_in_k_p(self):
        # Larger error gains settle faster; values stay inside the region
        # where the explicit update is stable at this step size.
        base = make_compact_scenario(duration=30.0)
        results = sweep(base, "k_p", [0.5, 1.0, 4.0])
        settles = [r.settling_time for r in results]
        assert all(s is not None for s in settles)
        assert settles[0] >= settles[1] >= settles[2]

    def test_dt_robustness_within_factor_ten(self):
        base = make_gentle_scenario(duration=6.0)
        results = sweep(base, "dt", [0.01, 0.001])
        finals = [r.final_max_e for r in results]
        assert all(math.isfinite(f) for f in finals)
        hi, lo = max(finals), min(finals)
        assert hi <= 10.0 * max(lo, 1e-12)

    def test_noise_axis_changes_outcome(self):
        base = make_compact_scenario(duration=1.0)
        quiet, loud = sweep(base, "sigma_y", [0.0, 0.5])
        assert loud.final_max_e != quiet.final_max_e

    def test_gain_scale_axes_run(self):
        base = make_compact_scenario(duration=0.5)
        for axis in ("gamma_scale", "alpha_scale", "k_w", "sigma_omega", "sigma_v"):
            results = sweep(base, axis, [1.0])
            assert len(results) == 1
            assert math.isfinite(results[0].final_max_e)

    def test_divergent_run_reported_not_raised(self):
        results = sweep(far_landmark_reference(duration=10.0), "dt", [1e-3])
        assert len(results) == 1
        assert results[0].aborted_step is not None
        assert math.isnan(results[0].final_max_e)
        assert results[0].settling_time is None
