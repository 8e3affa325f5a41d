"""The benchmark's workloads: their inputs, one timed call each, and the output check.

Every workload drives slamobs through its public entry points only
(``load_scenario``, ``run``, ``write_csv``, ``sweep``) and always calls them as
``harness.<name>`` / ``scenario.<name>``, so that the tracer's patches apply.

A call is one closed-loop request from a single caller: build the config
(seeded perturbation of the initial landmark estimates), execute it, check it.
Only the execute part is timed.

Why these three workloads (see README.md for the layer table):

* ref-dense: paper-sec5, stride 1 plus write_csv. The path of ``slamobs run
  --stride 1`` and of the acceptance criteria; metrics and CSV writing take
  about 30% of the time, so a change there shows here.
* ref-sparse: the same run at stride 100 without CSV. Observer and truth
  kernels dominate; a metrics or CSV change must show no change here.
* sweep-wide: a 16-value k_p sweep over a seeded 24-landmark scenario file
  with a 4-knot twist schedule and measurement noise. It exercises scenario
  parsing, the knot lookup, noise draws and per-landmark width, and is the
  workload a batched sweep engine targets.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from slamobs import harness, observer, scenario, world

REF_DT = 5e-5
# Timed calls are short, so that each run holds hundreds of them and its
# fastest call lands in a quiet moment of the shared machine. The untimed
# reference run is long, so that peak RSS shows what a stride-1 run keeps.
REF_DURATION = 0.02
REF_REFERENCE_DURATION = 0.25
SWEEP_DT = 1e-3
SWEEP_DURATION = 0.025
SWEEP_AXIS = "k_p"
SWEEP_VALUES = tuple(float(v) for v in np.linspace(0.5, 12.0, 16))
SWEEP_LANDMARKS = 24
# Seeded offset added to the initial landmark estimates of every timed call,
# small enough to leave the noise-free energy decay intact.
OFFSET_SIGMA = 1e-3
# A sweep member must reproduce its solo run to this relative tolerance.
MEMBER_RTOL = 1e-12

# (owner, attribute, span name) of every traced call site.
TRACE_TARGETS = (
    (harness, "run", "harness.run"),
    (harness, "sweep", "harness.sweep"),
    (harness, "write_csv", "harness.write_csv"),
    (harness, "compute_metrics", "harness.compute_metrics"),
    (harness, "lyapunov_value", "observer.lyapunov_value"),
    (harness, "observer_step", "observer.observer_step"),
    (harness, "true_step", "world.true_step"),
    (harness, "sense", "world.sense"),
    (observer, "_se3_exp_raw", "geometry.se3_exp"),
    (world, "_se3_exp_raw", "geometry.se3_exp"),
    (observer, "_project_raw", "geometry.project"),
    (world, "_project_raw", "geometry.project"),
    (scenario.TwistProfile, "at", "scenario.twist_at"),
    (scenario, "load_scenario", "scenario.load"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACE_TARGETS))


def perturb(config: scenario.ScenarioConfig, rng: np.random.Generator):
    """Copy of config with seeded offsets on the initial landmark estimates."""
    est = config.initial_estimates
    offset = rng.normal(0.0, OFFSET_SIGMA, est.landmarks_hat.shape)
    return replace(config, initial_estimates=replace(est, landmarks_hat=est.landmarks_hat + offset))


def _is_noise_free(config) -> bool:
    n = config.noise
    return n.sigma_omega == 0.0 and n.sigma_v == 0.0 and n.sigma_y == 0.0


def _record_arrays(records) -> dict[str, np.ndarray]:
    return {
        "t": np.array([r.t for r in records]),
        "e_norm": np.array([r.e_norm for r in records]),
        "p_err": np.array([r.p_err for r in records]),
        "scalars": np.array(
            [
                (r.r_tilde_dist, r.p_tilde_norm, r.b_omega_tilde_norm, r.b_v_tilde_norm)
                for r in records
            ]
        ),
        "lyap": np.array([r.lyapunov for r in records]),
    }


def check_records(records, config, stride: int) -> list[str]:
    """Problems found in one run's metric series; empty when it is correct."""
    steps = config.step_count
    expected = steps // stride + 1 + (1 if steps % stride else 0)
    if len(records) != expected:
        return [f"{len(records)} records, expected {expected}"]
    problems = []
    arrays = _record_arrays(records)
    for key, values in arrays.items():
        if not np.isfinite(values).all():
            problems.append(f"non-finite {key}")
    lyap = arrays["lyap"]
    if _is_noise_free(config):
        rises = int((np.diff(lyap) > 0.0).sum())
        if rises:
            problems.append(f"lyap increased at {rises} recorded steps")
    if not lyap[-1] < lyap[0]:
        problems.append(f"final energy {lyap[-1]!r} not below initial {lyap[0]!r}")
    return problems


def initial_max_e(config) -> float:
    """Largest measurable landmark error at t = 0, from a noise-free measurement."""
    pose = config.initial_pose
    y = (config.landmarks - pose.position) @ pose.rotation.m
    est = config.initial_estimates
    e = est.landmarks_hat - (y @ est.r_hat.m.T + est.p_hat)
    return float(np.sqrt((e * e).sum(axis=1)).max())


class RefWorkload:
    """paper-sec5 at a stable step; optionally written to CSV."""

    def __init__(self, name: str, stride: int, out_dir: Path, write: bool,
                 duration: float = REF_DURATION,
                 reference_duration: float = REF_REFERENCE_DURATION):
        self.name = name
        self.stride = stride
        self.duration = duration
        self.reference_duration = reference_duration
        self.csv_path = out_dir / f"{name}.csv" if write else None
        self.reference_csv = out_dir / f"{name}-reference.csv"

    def write_inputs(self, seed: int) -> None:
        """The built-in scenario needs no input files."""

    def base_config(self, duration: float | None = None):
        return scenario.load_scenario("paper-sec5").with_overrides(
            dt=REF_DT, duration=duration or self.duration
        )

    def prepare(self, rng):
        return perturb(self.base_config(), rng)

    def units(self, config) -> int:
        return 1

    def step_count(self, config) -> int:
        return config.step_count

    def execute(self, config):
        records = harness.run(config, stride=self.stride)
        if self.csv_path is not None:
            harness.write_csv(records, config.count, self.csv_path)
        return records

    def counters(self, records) -> dict[str, int]:
        """Per-call counts the traced run sums up."""
        if self.csv_path is None:
            return {}
        return {"harness.write_csv.bytes": self.csv_path.stat().st_size}

    def check(self, config, records) -> tuple[int, list[str]]:
        """(failed units, problems) of one call's output."""
        problems = check_records(records, config, self.stride)
        if self.csv_path is not None:
            problems += self._check_csv(self.csv_path, records)
        return (1 if problems else 0), problems

    @staticmethod
    def _check_csv(path: Path, records) -> list[str]:
        lines = path.read_text(encoding="utf-8").split("\n")
        if lines[-1] != "" or len(lines) != len(records) + 2:
            return [f"CSV has {len(lines) - 1} lines for {len(records)} records"]
        if lines[-2].rsplit(",", 1)[1] != repr(records[-1].lyapunov):
            return ["CSV last row does not carry the final energy"]
        return []

    def reference(self) -> dict:
        """Untimed long run of the unperturbed input: checks and information values."""
        config = self.base_config(self.reference_duration)
        records = harness.run(config, stride=self.stride)
        harness.write_csv(records, config.count, self.reference_csv)
        problems = check_records(records, config, self.stride)
        problems += self._check_csv(self.reference_csv, records)
        return {
            "problems": problems,
            "csv_sha256": hashlib.sha256(self.reference_csv.read_bytes()).hexdigest(),
            "final_max_e": records[-1].max_e,
            "final_lyap": records[-1].lyapunov,
        }


class SweepWorkload:
    """k_p sweep over a seeded, noisy, 24-landmark scenario file."""

    name = "sweep-wide"

    def __init__(self, out_dir: Path, duration: float = SWEEP_DURATION):
        self.duration = duration
        self.path = out_dir / "sweep-wide.json"

    def write_inputs(self, seed: int) -> None:
        """Write the scenario file: landmarks and noise seed come from ``seed``."""
        rng = np.random.default_rng([seed, 1])
        landmarks = np.column_stack(
            [rng.uniform(-1.0, 1.0, (SWEEP_LANDMARKS, 2)), rng.uniform(-0.3, 0.3, SWEEP_LANDMARKS)]
        )
        data = {
            "name": self.name,
            "duration": self.duration,
            "dt": SWEEP_DT,
            "twist_schedule": [
                {"t": 0.0, "omega": [0.0, 0.0, 0.4], "vel": [0.3, 0.0, 0.0]},
                {"t": self.duration / 4, "omega": [0.1, 0.0, 0.3], "vel": [0.2, 0.1, 0.0]},
                {"t": self.duration / 2, "omega": [0.0, 0.1, -0.3], "vel": [0.1, 0.2, 0.05]},
                {"t": 3 * self.duration / 4, "omega": [-0.1, 0.0, 0.2], "vel": [0.3, -0.1, 0.0]},
            ],
            "initial_pose": {"position": [0.0, 0.0, 1.0]},
            "landmarks": landmarks.tolist(),
            "bias": {"omega": [0.05, -0.04, 0.03], "vel": [0.02, 0.03, -0.02]},
            "noise": {"sigma_omega": 0.01, "sigma_v": 0.01, "sigma_y": 0.002, "seed": seed},
            "gains": {"k_p": 1.0, "k_w": 2.0, "gamma": 10.0, "alpha": 0.2},
        }
        self.path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")

    def base_config(self):
        return scenario.load_scenario(self.path)

    def prepare(self, rng):
        return perturb(self.base_config(), rng)

    def units(self, config) -> int:
        return len(SWEEP_VALUES)

    def step_count(self, config) -> int:
        return len(SWEEP_VALUES) * config.step_count

    def execute(self, config):
        return harness.sweep(config, SWEEP_AXIS, SWEEP_VALUES)

    def counters(self, results) -> dict[str, int]:
        aborted = sum(r.aborted_step is not None for r in results)
        return {"harness.sweep.members": len(results), "harness.sweep.aborted": aborted}

    def check(self, config, results) -> tuple[int, list[str]]:
        if [r.value for r in results] != list(SWEEP_VALUES):
            return len(SWEEP_VALUES), [f"sweep returned values {[r.value for r in results]}"]
        start = initial_max_e(config)
        failed = 0
        problems = []
        for r in results:
            bad = []
            if r.aborted_step is not None:
                bad.append(f"aborted at step {r.aborted_step}")
            elif not (math.isfinite(r.final_max_e) and math.isfinite(r.final_max_p_err)):
                bad.append("non-finite final errors")
            elif not r.final_max_e < start:
                bad.append(f"final max_e {r.final_max_e!r} not below initial {start!r}")
            if r.settling_time is not None and not math.isfinite(r.settling_time):
                bad.append("non-finite settling time")
            if bad:
                failed += 1
                problems.append(f"k_p={r.value}: " + "; ".join(bad))
        return failed, problems

    def reference(self) -> dict:
        """Untimed sweep of the unperturbed file, each member re-run solo.

        The solo runs check what the sweep summary cannot show: every
        member's energy decays, and the sweep reports the solo run's errors.
        """
        config = self.base_config()
        results = harness.sweep(config, SWEEP_AXIS, SWEEP_VALUES)
        _, problems = self.check(config, results)
        final_lyap = math.nan
        for r in results:
            member = replace(config, gains=replace(config.gains, k_p=r.value))
            try:
                records = harness.run(member)
            except observer.DivergenceError as exc:
                problems.append(f"solo k_p={r.value}: {exc}")
                continue
            final_lyap = records[-1].lyapunov
            problems += [f"solo k_p={r.value}: {p}" for p in check_records(records, member, 1)]
            if not math.isclose(records[-1].max_e, r.final_max_e, rel_tol=MEMBER_RTOL):
                problems.append(
                    f"k_p={r.value}: sweep final max_e {r.final_max_e!r} != solo "
                    f"{records[-1].max_e!r}"
                )
        table = "".join(
            f"{r.value!r},{r.settling_time!r},{r.final_max_e!r},{r.final_max_p_err!r},"
            f"{r.aborted_step!r}\n"
            for r in results
        )
        return {
            "problems": problems,
            "sweep_sha256": hashlib.sha256(table.encode()).hexdigest(),
            "final_max_e": max(r.final_max_e for r in results),
            "final_lyap": final_lyap,
        }


NAMES = ("ref-dense", "ref-sparse", "sweep-wide")


def make(name: str, out_dir: Path, duration: float | None = None):
    """The workload called ``name``; ``duration`` shrinks it for smoke tests."""
    extra = {} if duration is None else {"duration": duration}
    ref_extra = {} if duration is None else {"duration": duration, "reference_duration": duration}
    if name == "ref-dense":
        return RefWorkload(name, 1, out_dir, write=True, **ref_extra)
    if name == "ref-sparse":
        return RefWorkload(name, 100, out_dir, write=False, **ref_extra)
    if name == "sweep-wide":
        return SweepWorkload(out_dir, **extra)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
