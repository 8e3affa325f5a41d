"""slamobs benchmark: one workload, timed for a fixed wall-clock budget.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ref-dense --seed 1 --seconds 20 --trace 0

One process and one thread drive slamobs in a closed loop with one caller:
each call starts when the previous one has been checked. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports per-layer span metrics
from a traced run instead, after an untraced phase that gives the tracing
overhead. The last line of standard output is one JSON object; the lines
before it, and ``perfbench/_out/result-*.json``, hold the same metrics with
sample counts, the reference outputs and the environment.

The program under test is imported from ``src/`` of the checkout; without it
the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

# Pinned before numpy is first imported, here and in the set-up probes.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set-up is a ~0.2 s process start dominated by the numpy import; the fastest
# of this many fresh interpreters, spread over the run, is steady where one
# sample is not.
SETUP_PROBES = 20
# Share of --seconds the traced mode spends untraced, to measure the overhead.
UNTRACED_SHARE = 1 / 3
MAX_PROBLEMS_SHOWN = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="ref-dense, ref-sparse or sweep-wide")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Phase:
    """Timed calls of one workload and their check results."""

    def __init__(self):
        self.step_us = []
        self.call_s = []
        self.traced_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counters = {}

    def run(self, wl, rng, seconds, tracer=None, targets=(), between=None):
        """Call the workload until ``seconds`` have passed (at least once).

        ``between`` is called after every call, outside its timed part.
        """
        deadline = time.perf_counter() + seconds
        while True:
            begin = time.perf_counter()
            units = 1
            try:
                for owner, attr, name in targets:
                    tracer.patch(owner, attr, name)
                try:
                    config = wl.prepare(rng)
                    units = wl.units(config)
                    t0 = time.perf_counter()
                    output = wl.execute(config)
                    t1 = time.perf_counter()
                finally:
                    if tracer is not None:
                        tracer.unpatch()
                failed, problems = wl.check(config, output)
            except Exception:  # a failed call is counted and the benchmark goes on
                failed, problems = units, [traceback.format_exc()]
            else:
                self.call_s.append(t1 - t0)
                self.step_us.append((t1 - t0) / wl.step_count(config) * 1e6)
                if tracer is not None:
                    self.traced_s += t1 - begin
                    for key, value in wl.counters(output).items():
                        self.counters[key] = self.counters.get(key, 0) + value
            self.attempted += units
            self.failed += failed
            self.problems += problems
            if between is not None:
                between()
            if time.perf_counter() >= deadline:
                return self


class SetupProbes:
    """Set-up time: fresh interpreters that import slamobs and build the config.

    The probes are spread evenly over the timed phase, between calls, so
    that their fastest sample sees the same machine load as the calls.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.interval = seconds / SETUP_PROBES
        self.due = time.perf_counter()
        self.samples = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True, stdin=subprocess.DEVNULL)
        self.samples.append(time.perf_counter() - t0)

    def when_due(self) -> None:
        if len(self.samples) < SETUP_PROBES and time.perf_counter() >= self.due:
            self.due += self.interval
            self.probe()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return self.samples


def environment(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "slamobs").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "argv": [sys.executable, *sys.argv],
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def end_to_end(wl_name, seed, seconds, wl, rng):
    """Gated metrics, plus information figures that the shared machine makes too noisy to gate."""
    probes = SetupProbes(wl_name, seed, seconds)
    phase = Phase().run(wl, rng, seconds, between=probes.when_due)
    setup = probes.finish()
    n = len(phase.step_us)
    if not n:
        return phase, {}, {}, {}
    metrics = {
        "step_us_min": (min(phase.step_us), "us", f"fastest of {n} calls"),
        "setup_s": (min(setup), "s", f"fastest of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss of this process"
        ),
    }
    info = {
        "step_us_p50": (statistics.median(phase.step_us), "us", f"median of {n} calls"),
        "run_wall_s": (statistics.fmean(phase.call_s), "s", f"mean wall time of one call, {n} calls"),
        "setup_s_p50": (statistics.median(setup), "s", f"median of {len(setup)}"),
    }
    samples = {"setup_s": setup, "step_us": phase.step_us, "call_s": phase.call_s}
    return phase, metrics, info, samples


def per_layer(wl, rng, seconds, targets, spans_path):
    from tracer import Tracer

    plain = Phase().run(wl, rng, seconds * UNTRACED_SHARE)
    tracer = Tracer()
    traced = Phase().run(wl, rng, seconds * (1 - UNTRACED_SHARE), tracer, targets)
    tracer.write(spans_path)
    phase = Phase()
    for part in (plain, traced):
        phase.attempted += part.attempted
        phase.failed += part.failed
        phase.problems += part.problems
    if not (plain.step_us and traced.step_us):
        return phase, {}, {}, {}
    metrics = {}
    for name, s in tracer.summary().items():
        per_call = s["total_s"] / s["calls"] * 1e6 if s["calls"] else 0.0
        metrics[f"{name}.calls"] = (s["calls"], "count", "")
        metrics[f"{name}.self_s"] = (s["self_s"], "s", "")
        metrics[f"{name}.us_per_call"] = (per_call, "us", "inclusive")
    members = traced.counters.get("harness.sweep.members", 0)
    aborted = traced.counters.get("harness.sweep.aborted", 0)
    metrics["harness.write_csv.bytes"] = (traced.counters.get("harness.write_csv.bytes", 0), "B", "")
    metrics["harness.sweep.members"] = (members, "count", "")
    metrics["harness.sweep.aborted_frac"] = (aborted / members if members else 0.0, "frac", "")
    metrics["trace.wall_s"] = (traced.traced_s, "s", f"{len(traced.step_us)} traced calls")
    metrics["trace.overhead_frac"] = (
        min(traced.step_us) / min(plain.step_us) - 1.0,
        "frac",
        f"fastest us/step traced vs {len(plain.step_us)} untraced calls",
    )
    samples = {"untraced_step_us": plain.step_us, "traced_step_us": traced.step_us}
    return phase, metrics, {}, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "slamobs" / "__init__.py").is_file():
        print(f"perfbench: no slamobs sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads

    OUT.mkdir(exist_ok=True)
    try:
        wl = workloads.make(args.workload, OUT)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl.write_inputs(args.seed)
    rng = np.random.default_rng(args.seed)
    env = environment(np.__version__)
    try:
        reference = wl.reference()
    except Exception:  # reported as a failed check, like a failed timed call
        reference = {"problems": [traceback.format_exc()]}

    if args.trace:
        spans_path = OUT / f"spans-{args.workload}.csv"
        phase, metrics, info, samples = per_layer(
            wl, rng, args.seconds, workloads.TRACE_TARGETS, spans_path
        )
    else:
        phase, metrics, info, samples = end_to_end(args.workload, args.seed, args.seconds, wl, rng)

    problems = reference.pop("problems") + phase.problems
    if not metrics:
        for problem in problems[:MAX_PROBLEMS_SHOWN]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        print("perfbench: no timed call succeeded; nothing to report", file=sys.stderr)
        return 1
    correct = phase.failed == 0 and not problems
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    info["failed_frac"] = (
        phase.failed / phase.attempted, "frac", f"{phase.failed} of {phase.attempted} calls or members"
    )
    for heading, table in (("metrics", metrics), ("information", info)):
        print(f" {heading}:")
        for name, (value, unit, note) in table.items():
            print(f"  {name:<36} {value:>14.6g} {unit:<6}" + (f" ({note})" if note else ""))
    print("  reference " + json.dumps(reference))
    print("  env " + json.dumps(env))
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }
    record = dict(result, info={name: v for name, (v, _, _) in info.items()},
                  env=env, reference=reference, samples=samples,
                  problems=problems[:MAX_PROBLEMS_SHOWN])
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
