"""Run loop, metrics purity, CSV format, settling/fit helpers, sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slamobs import (
    DivergenceError,
    GainConfig,
    MetricsRecord,
    NoiseSpec,
    ObserverState,
    Pose,
    Rotation3,
    SensorBias,
    SensorFrame,
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
    so3_exp,
    sweep,
    trajectory,
    true_step,
    write_csv,
)
from slamobs import harness, observer
from slamobs.harness import SWEEP_AXES, StepSnapshot, csv_rows

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


def warm_noisy_knotted_scenario():
    """noisy_knotted_scenario run for 1.2 s from estimates 0.15 m off per
    coordinate: members settle at different times or not at all."""
    base = noisy_knotted_scenario()
    start = ObserverState(
        base.initial_pose.rotation,
        base.initial_pose.position,
        base.landmarks + 0.15,
        base.bias.omega,
        base.bias.vel,
    )
    return replace(base, duration=1.2, initial_estimates=start)


# Three or more values per sweep axis, including ones that make a member
# settle late (k_w = 1) or never (gamma_scale = 100, sigma_y = 0.05).
SWEEP_MEMBER_VALUES = {
    "k_p": [0.5, 1.0, 4.0],
    "k_w": [1.0, 2.0, 5.0],
    "gamma_scale": [0.5, 1.0, 100.0],
    "alpha_scale": [0.5, 1.0, 3.0],
    "sigma_omega": [0.0, 0.02, 0.1],
    "sigma_v": [0.0, 0.01, 0.2],
    "sigma_y": [0.0, 0.005, 0.05],
    "dt": [1e-3, 2e-3, 5e-4],
}


def assert_equals_solo_run(result, config):
    """A sweep member against run(config): settling time and aborted step
    exactly, final errors to 1e-12 relative (both NaN after an abort)."""
    try:
        records = run(config)
    except DivergenceError as exc:
        assert (result.settling_time, result.aborted_step) == (None, exc.step)
        assert math.isnan(result.final_max_e) and math.isnan(result.final_max_p_err)
        return
    t = [r.t for r in records]
    assert result.settling_time == settling_time(t, [r.max_e for r in records])
    assert result.aborted_step is None
    assert result.final_max_e == pytest.approx(records[-1].max_e, rel=1e-12, abs=0.0)
    assert result.final_max_p_err == pytest.approx(records[-1].max_p_err, rel=1e-12, abs=0.0)


def wide_noisy_scenario():
    """noisy_knotted_scenario with 24 landmarks: more terms per energy sum
    than numpy's 8-wide pairwise summation block."""
    base = noisy_knotted_scenario()
    rng = np.random.default_rng(24)
    landmarks = np.column_stack([rng.uniform(-1.0, 1.0, (24, 2)), rng.uniform(-0.3, 0.3, 24)])
    return replace(
        base,
        landmarks=landmarks,
        bias=replace(base.bias, landmark=None),
        gains=GainConfig(base.gains.k_p, base.gains.k_w, base.gains.gamma, np.full(24, 0.1)),
        initial_estimates=ObserverState.cold_start(24),
    )


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


class TestRecordChunks:
    CHUNK = 5

    @pytest.mark.parametrize(
        "make_config, stride",
        [
            (noisy_knotted_scenario, 1),
            (noisy_knotted_scenario, 7),
            (noisy_knotted_scenario, 9),
            (wide_noisy_scenario, 1),
            (wide_noisy_scenario, 7),
        ],
        ids=["knotted-1", "knotted-7", "knotted-9", "wide24-1", "wide24-7"],
    )
    def test_chunked_run_equals_metrics_over_trajectory(self, monkeypatch, make_config, stride):
        monkeypatch.setattr(harness, "RECORD_CHUNK", self.CHUNK)
        config = make_config()
        steps = config.step_count
        expected = [
            record_bits(compute_metrics(snap, config))
            for snap in trajectory(config)
            if snap.k % stride == 0 or snap.k == steps
        ]
        assert len(expected) > self.CHUNK
        if stride == 9:
            # The records fill whole chunks, and the final one is off the stride.
            assert len(expected) % self.CHUNK == 0 and steps % stride != 0
        assert [record_bits(r) for r in run(config, stride=stride)] == expected


class TestTruthBlocks:
    # The loop chains the truth on floats and measures it one block of at
    # most RECORD_CHUNK steps at a time. A small chunk puts block edges on
    # steps where no twist knot starts.
    CHUNK = 7

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(harness, "RECORD_CHUNK", self.CHUNK)

    def test_trajectory_equals_public_loop(self):
        config = noisy_knotted_scenario()
        twists = [config.twist_profile.at(k * config.dt) for k in range(config.step_count + 1)]
        knot_steps = [k for k in range(1, len(twists)) if twists[k] is not twists[k - 1]]
        assert knot_steps == [100, 181]
        assert all(k % self.CHUNK for k in knot_steps)
        truth = TrueState(config.initial_pose, config.landmarks)
        state = config.initial_estimates
        rng = config.noise.make_rng()
        for snap in trajectory(config):
            twist = config.twist_profile.at(snap.t)
            frame = sense(truth, config.bias, config.noise, twist, rng, snap.t)
            for a, b in (
                (snap.truth.pose.rotation.m, truth.pose.rotation.m),
                (snap.truth.pose.position, truth.pose.position),
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
        assert snap.k == config.step_count

    def test_snapshots_hold_no_block(self):
        config = replace(make_compact_scenario(duration=0.02), bias=noisy_knotted_scenario().bias)
        for snap in trajectory(config):
            for a in (snap.truth.pose.rotation.m, snap.truth.pose.position, snap.frame.y):
                assert a.base is None

    @pytest.mark.parametrize("stride", [1, 3, 8])
    def test_run_equals_metrics_over_trajectory(self, stride):
        config = noisy_knotted_scenario()
        steps = config.step_count
        expected = [
            record_bits(compute_metrics(snap, config))
            for snap in trajectory(config)
            if snap.k % stride == 0 or snap.k == steps
        ]
        assert [record_bits(r) for r in run(config, stride=stride)] == expected

    @pytest.mark.parametrize("axis", ["k_p", "sigma_y"])
    def test_sweep_members_equal_their_solo_runs(self, monkeypatch, axis):
        base = warm_noisy_knotted_scenario()
        values = SWEEP_MEMBER_VALUES[axis]
        results = sweep(base, axis, values)
        for r in results:
            assert_equals_solo_run(r, SWEEP_AXES[axis](base, r.value))
        monkeypatch.undo()
        assert sweep(base, axis, values) == results

    # paper-sec5 with k_p = 1e5 diverges at step 4, in the second block of 3.
    def test_run_divergence_in_second_block_reports_its_step(self, monkeypatch):
        monkeypatch.setattr(harness, "RECORD_CHUNK", 3)
        base = reference_scenario().with_overrides(dt=1e-3, duration=0.5)
        with pytest.raises(DivergenceError, match=r"at step 4 \(t = 0\.004 s\)") as info:
            run(SWEEP_AXES["k_p"](base, 1e5), stride=100)
        assert info.value.step == 4

    def test_sweep_divergence_in_second_block_reports_its_step(self, monkeypatch):
        monkeypatch.setattr(harness, "RECORD_CHUNK", 3)
        base = reference_scenario().with_overrides(dt=1e-3, duration=0.5)
        results = sweep(base, "k_p", [0.5, 2.0, 1e3, 1e5])
        assert [r.aborted_step for r in results] == [None, None, 5, 4]


def _attitude_error(rng, kind):
    """(r_hat, rot) whose pose error r_hat rot^T is of the given kind:
    "identity" (exactly), "small" (below 1e-6 rad), "obtuse" (between pi/2
    and pi, where the rotation distance takes its other branch), "half"
    (an exact half-turn) or "any"."""
    rot = so3_exp(rng.normal(size=3)).m
    if kind == "identity":
        return rot, rot
    if kind == "half":
        return np.diag(rng.permutation([-1.0, -1.0, 1.0])), np.eye(3)
    axis = rng.normal(size=3)
    angle = {
        "small": rng.uniform(0.0, 1e-6),
        "obtuse": rng.uniform(np.pi / 2, np.pi),
        "any": rng.uniform(0.0, np.pi),
    }[kind]
    return so3_exp(angle * axis / np.linalg.norm(axis)).m @ rot, rot


class TestMetricPaths:
    # compute_metrics runs the pose and bias metrics on Python floats, run
    # on the (K,) columns of a chunk; a record must get the same bits. The
    # loop's own records all have a pose error near the identity, so these
    # records are drawn at random.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kinds=st.lists(
            st.sampled_from(["identity", "small", "obtuse", "half", "any"]),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_record_and_chunk_give_the_same_bits(self, kinds, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 3))
        base = make_compact_scenario()
        config = replace(
            base,
            bias=SensorBias(rng.normal(scale=0.1, size=3), rng.normal(scale=0.1, size=3)),
            gains=GainConfig(1.0, 2.0, m @ m.T + np.eye(3), rng.uniform(0.05, 1.0, 4)),
        )
        snapshots, columns = [], []
        for k, kind in enumerate(kinds):
            r_hat, rot = _attitude_error(rng, kind)
            truth = TrueState(Pose(Rotation3(rot), rng.normal(size=3)), config.landmarks)
            state = ObserverState(
                Rotation3(r_hat),
                rng.normal(size=3),
                rng.normal(size=(4, 3)),
                rng.normal(scale=0.1, size=3),
                rng.normal(scale=0.1, size=3),
            )
            e = rng.normal(size=(4, 3))
            frame = SensorFrame(np.zeros(3), np.zeros(3), np.zeros((4, 3)), 0.01 * k)
            snapshots.append(StepSnapshot(k, 0.01 * k, truth, state, frame, e))
            columns.append((rot, truth.pose.position, *state.arrays(), e))
        rot, pos, *estimate, e = map(np.array, zip(*columns))
        # The chunk pass of run, on the (K,) columns of each entry.
        chunk = harness._metric_columns(
            lambda a: np.moveaxis(a, 0, -1), (rot, pos, config.landmarks), estimate, e, config
        )
        for i, snap in enumerate(snapshots):
            rec = compute_metrics(snap, config)
            e_norm, p_err, *scalars = (column[i] for column in chunk)
            assert record_bits(rec) == record_bits(
                MetricsRecord(snap.t, e_norm, p_err, *map(float, scalars))
            )
            assert (rec.r_tilde_dist == 1.0) == (kinds[i] == "half")


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
        # nan would skip every step but the last; 2.5 would fail inside numpy.
        for stride in (0, math.nan, 2.5, True):
            with pytest.raises(ValueError, match="stride"):
                run(make_compact_scenario(duration=0.01), stride=stride)

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


class TestCsvRows:
    AWKWARD = [1e-05, 1e16, 5e-324, 0.1 + 0.2, -0.0, 1.0 / 3.0, 1e308, 123456789.0]

    @staticmethod
    def record(values, n=2):
        return MetricsRecord(
            values[0], np.array(values[1 : n + 1]), np.array(values[n + 1 : 2 * n + 1]),
            *values[2 * n + 1 : 2 * n + 6],
        )

    @staticmethod
    def cells(rec):
        return [
            rec.t, *rec.e_norm.tolist(), *rec.p_err.tolist(), rec.r_tilde_dist,
            rec.p_tilde_norm, rec.b_omega_tilde_norm, rec.b_v_tilde_norm, rec.lyapunov,
        ]

    def test_rows_equal_repr_of_each_cell(self):
        values = self.AWKWARD * 2
        records = [self.record(values[i:] + values[:i]) for i in range(len(self.AWKWARD))]
        # numpy scalars and an integer e_norm are written as the floats they equal.
        records.append(
            MetricsRecord(
                np.float64(0.1), np.array([3, 7]), np.array([0.5, np.float32(0.1)]),
                np.float32(0.1), np.float64(1e-300), np.float32(3.4e38), 2.5, np.float64(-0.0),
            )
        )
        rows = list(csv_rows(records, 2))
        assert rows[0] == csv_header(2)
        assert rows[1:] == [",".join(repr(float(c)) for c in self.cells(r)) for r in records]

    def test_wrong_landmark_count_raises_before_any_row(self, tmp_path):
        good = self.record(self.AWKWARD * 2)
        bad = self.record(self.AWKWARD * 2, n=3)
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="record carries 3 landmarks, expected 2"):
            write_csv([good, good, bad], 2, path)
        assert path.read_bytes() == b""


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
        assert settling_time(t, np.full_like(t, np.nan)) is None

    def test_window_must_fit_in_run(self):
        t = np.arange(0.0, 1.0, 0.1)
        max_e = np.full_like(t, 0.01)
        assert settling_time(t, max_e, threshold=0.05, hold=2.0) is None

    @pytest.mark.parametrize("length", [49, 51], ids=["shorter", "longer"])
    def test_lengths_must_match(self, length):
        # A shorter max_e would be indexed past its end; a longer one would
        # lose its tail.
        t = np.arange(0.0, 5.0, 0.1)
        with pytest.raises(ValueError, match="t and max_e"):
            settling_time(t, np.full(length, 0.01))

    @pytest.mark.parametrize(
        "t, max_e, message",
        [
            (np.zeros((2, 3)), np.zeros((2, 3)), "1-D"),
            (0.0, 0.01, "1-D"),
            ([0.0, math.nan, 2.0], [0.01] * 3, "t must be finite"),
            ([0.0, 1.0, math.inf], [0.01] * 3, "t must be finite"),
        ],
        ids=["2-d", "0-d", "nan-time", "inf-time"],
    )
    def test_rejects_bad_series(self, t, max_e, message):
        with pytest.raises(ValueError, match=message):
            settling_time(t, max_e)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"hold": -1.0}, "hold must be finite and >= 0, got -1.0"),
            ({"hold": math.nan}, "hold must be finite and >= 0, got nan"),
            ({"hold": math.inf}, "hold must be finite and >= 0, got inf"),
            ({"hold": 10**400}, "hold must be finite and >= 0, got 1000"),
            ({"hold": "1"}, "hold must be finite and >= 0, got '1'"),
            ({"threshold": math.nan}, "threshold must be positive and finite, got nan"),
            ({"threshold": 0.0}, "threshold must be positive and finite, got 0.0"),
            ({"threshold": -0.05}, "threshold must be positive and finite, got -0.05"),
            ({"threshold": math.inf}, "threshold must be positive and finite, got inf"),
        ],
        ids=["negative-hold", "nan-hold", "inf-hold", "huge-integer-hold", "str-hold",
             "nan-threshold", "zero-threshold", "negative-threshold", "inf-threshold"],
    )
    def test_rejects_bad_arguments(self, kwargs, message):
        # A negative hold read 0.0 and a NaN hold or threshold None; an
        # integer past the float range overflowed in the loop, a str failed
        # the comparison with a TypeError.
        t = np.arange(0.0, 5.0, 0.1)
        with pytest.raises(ValueError, match=message):
            settling_time(t, np.full_like(t, 0.01), **kwargs)

    def test_zero_hold_is_the_first_time_below(self):
        t = np.arange(0.0, 5.0, 0.1)
        max_e = np.where(t < 2.0, 1.0, 0.01)
        assert settling_time(t, max_e, hold=0.0) == pytest.approx(2.0)


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

    @pytest.mark.parametrize(
        "t, values, message",
        [
            ([0.0, 1.0, 2.0], [1.0, 0.5], "t and values"),
            (np.zeros((3, 2)), np.ones((3, 2)), "1-D"),
            ([0.0, math.nan, 2.0], [1.0, 0.5, 0.25], "t must be finite"),
            ([0.0, 1.0, 2.0], [1.0, math.inf, 0.25], "values must be finite"),
            ([0.0, 1.0, 2.0], [1.0, math.nan, 0.25], "values must be finite"),
            ([1.0, 1.0], [1.0, 2.0], "two positive samples at distinct times"),
        ],
        ids=["lengths", "2-d", "nan-time", "inf-value", "nan-value", "one-time"],
    )
    def test_rejects_bad_series(self, t, values, message):
        with pytest.raises(ValueError, match=message):
            fit_exponential_decay(t, values)


class TestSquaredNorms:
    # The sweep squares the landmark errors once per step: the squares feed
    # the adaptation gain, and max_e is the root of their largest.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        b=st.integers(1, 5),
        n=st.integers(1, 12),
        special=st.lists(
            st.tuples(st.sampled_from([math.inf, -math.inf, math.nan, 1e200]), st.booleans()),
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_squaring_gives_norms_and_gains(self, b, n, special, seed):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(b, n, 3)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(b, n, 1))
        for value, whole_row in special:
            i, j = rng.integers(b), rng.integers(n)
            if whole_row:
                e[i, j] = value
            else:
                e[i, j, rng.integers(3)] = value
        k_p = rng.uniform(0.1, 10.0, size=(b, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            e_squared = (e * e).sum(axis=-1)
            assert np.array_equal(
                np.sqrt(e_squared.max(axis=-1)),
                harness._error_norms(e).max(axis=-1),
                equal_nan=True,
            )
            assert np.array_equal(
                np.array([observer.adaptation_gain(e[i], float(k_p[i, 0])) for i in range(b)]),
                observer._gain_of_squares(e_squared, k_p),
                equal_nan=True,
            )


class TestSweep:
    def test_empty_values(self):
        assert sweep(make_compact_scenario(duration=0.1), "k_p", []) == []

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweep(make_compact_scenario(duration=0.1), "k_q", [1.0])

    @pytest.mark.parametrize("values", ["12", b"12"], ids=["str", "bytes"])
    def test_string_values_rejected(self, values):
        with pytest.raises(ValueError, match="sequence of numbers"):
            sweep(make_compact_scenario(duration=0.1), "k_p", values)

    @pytest.mark.parametrize(
        "axis, value, message",
        [
            ("gamma_scale", math.inf, "gamma must be finite"),
            ("gamma_scale", 1e308, "gamma must be finite"),
            ("alpha_scale", 1e308, "alpha values must be positive and finite"),
        ],
        ids=["gamma-inf", "gamma-overflow", "alpha-overflow"],
    )
    def test_scale_out_of_range_is_a_value_error(self, axis, value, message):
        base = make_compact_scenario(duration=0.1)
        # alpha of 10 overflows when scaled by 1e308.
        base = replace(base, gains=replace(base.gains, alpha=np.full(base.gains.count, 10.0)))
        with pytest.raises(ValueError, match=message):
            sweep(base, axis, [1.0, value])

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

    def test_bad_member_fails_before_any_step(self, monkeypatch):
        calls = []
        stacked_step = harness._stacked_step
        monkeypatch.setattr(
            harness,
            "_stacked_step",
            lambda *args, **kw: calls.append(1) or stacked_step(*args, **kw),
        )
        with pytest.raises(ValueError, match="k_p"):
            sweep(make_compact_scenario(duration=0.1), "k_p", [1.0, 2.0, math.nan])
        assert calls == []

    @pytest.mark.parametrize("axis", ["k_p", "k_w"])
    def test_scalar_gain_member_keeps_the_base_matrices(self, axis):
        base = make_compact_scenario(duration=0.1)
        gains = SWEEP_AXES[axis](base, 3).gains
        assert getattr(gains, axis) == 3.0 and type(getattr(gains, axis)) is float
        other = "k_w" if axis == "k_p" else "k_p"
        assert getattr(gains, other) == getattr(base.gains, other)
        for name in ("gamma", "gamma_rows", "gamma_inv_rows", "alpha"):
            assert getattr(gains, name) is getattr(base.gains, name)

    @pytest.mark.parametrize("axis", ["k_p", "k_w"])
    @pytest.mark.parametrize(
        "value",
        [
            0.0, -1.0, math.inf, math.nan,
            pytest.param(10**400, id="10**400"), pytest.param(10**5000, id="10**5000"),
        ],
    )
    def test_scalar_gain_member_rejects_bad_values(self, axis, value):
        with pytest.raises(ValueError, match=f"{axis} must be positive and finite"):
            SWEEP_AXES[axis](make_compact_scenario(duration=0.1), value)

    @pytest.mark.parametrize("axis", list(SWEEP_AXES))
    def test_members_equal_their_solo_runs(self, axis):
        base = warm_noisy_knotted_scenario()
        values = SWEEP_MEMBER_VALUES[axis]
        results = sweep(base, axis, values)
        assert [r.value for r in results] == values
        for r in results:
            assert_equals_solo_run(r, SWEEP_AXES[axis](base, r.value))

    @pytest.mark.parametrize(
        "axis, values, aborted",
        [
            ("k_w", [2.0, 1e300, 4.0], [None, 0, None]),
            ("k_p", [0.5, 2.0, 1e3, 1e5], [None, None, 5, 4]),
            # Members with their own inputs, dropping at three steps of one block.
            ("sigma_v", [0.0, 1e5, 1e50, 1e8, 100.0], [None, 7, 2, 5, None]),
        ],
    )
    def test_diverging_members_abort_alone(self, monkeypatch, axis, values, aborted):
        calls = []
        moments = observer._error_moments
        monkeypatch.setattr(
            observer, "_error_moments", lambda *args: calls.append(1) or moments(*args)
        )
        base = reference_scenario().with_overrides(dt=1e-3, duration=0.5)
        results = sweep(base, axis, values)
        # One landmark-axis pass per step: no step is redone for the survivors.
        assert len(calls) == base.step_count
        assert [r.aborted_step for r in results] == aborted
        for r in results:
            assert_equals_solo_run(r, SWEEP_AXES[axis](base, r.value))

    def test_every_member_aborting(self):
        base = reference_scenario().with_overrides(dt=1e-3, duration=0.5)
        results = sweep(base, "k_p", [1e5, 2e5])
        assert [r.aborted_step for r in results] == [4, 4]
        for r in results:
            assert math.isnan(r.final_max_e) and math.isnan(r.final_max_p_err)
            assert r.settling_time is None

    def test_every_group_steps_in_sweep_group(self, monkeypatch):
        solo, groups = [], []
        solo_run, sweep_group = harness.run, harness._sweep_group
        monkeypatch.setattr(harness, "run", lambda config: solo.append(1) or solo_run(config))
        monkeypatch.setattr(
            harness, "_sweep_group", lambda configs: groups.append(1) or sweep_group(configs)
        )
        base = make_compact_scenario(duration=0.05)
        # One group of three, one of two, and a dt axis, whose members share no dt.
        assert len(sweep(base, "k_p", [1.0, 2.0, 3.0])) == 3
        assert len(sweep(base, "k_p", [2.0, 3.0])) == 2
        assert len(sweep(base, "dt", [1e-3, 2e-3, 5e-4])) == 3
        assert solo == []
        assert len(groups) == 1 + 1 + 3
