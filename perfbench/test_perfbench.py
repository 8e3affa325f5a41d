"""Tests of the benchmark itself: tiny runs of each workload and the tracer.

Run with: python3 -m pytest perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {"ref-dense": 0.005, "ref-sparse": 0.01, "sweep-wide": 0.01}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_output_check(name, tmp_path):
    wl = workloads.make(name, tmp_path, duration=TINY[name])
    wl.write_inputs(5)
    assert wl.reference()["problems"] == []
    config = wl.prepare(np.random.default_rng(5))
    failed, problems = wl.check(config, wl.execute(config))
    assert (failed, problems) == (0, [])


@pytest.mark.parametrize("name", ["ref-dense", "sweep-wide"])
def test_every_span_is_recorded_on_a_tiny_traced_call(name, tmp_path):
    wl = workloads.make(name, tmp_path, duration=TINY[name])
    wl.write_inputs(5)
    tracer = Tracer()
    patched = {span for owner, attr, span in workloads.TRACE_TARGETS
               if tracer.patch(owner, attr, span)}
    try:
        wl.execute(wl.prepare(np.random.default_rng(5)))
    finally:
        tracer.unpatch()
    summary = tracer.summary()
    assert set(summary) == set(workloads.SPAN_NAMES)
    unused = {"ref-dense": {"harness.sweep"}, "sweep-wide": {"harness.write_csv"}}[name]
    assert {s for s, v in summary.items() if v["calls"] == 0} == unused | (set(workloads.SPAN_NAMES) - patched)
    assert not hasattr(workloads.harness.run, "__wrapped__")


def test_check_catches_rising_energy_and_non_finite_values(tmp_path):
    wl = workloads.make("ref-dense", tmp_path, duration=TINY["ref-dense"])
    config = wl.base_config()
    records = workloads.harness.run(config)
    bumped = list(records)
    bumped[5] = replace(bumped[5], lyapunov=bumped[4].lyapunov * 2)
    assert workloads.check_records(bumped, config, 1) == ["lyap increased at 1 recorded steps"]
    bumped[5] = replace(bumped[5], lyapunov=float("nan"))
    assert "non-finite lyap" in workloads.check_records(bumped, config, 1)


def test_child_span_time_is_subtracted_from_parent_self_time(tmp_path):
    ticks = iter([0, 10, 40, 100])
    tracer = Tracer(clock=lambda: next(ticks))
    ns = SimpleNamespace(child=lambda: None)
    ns.parent = lambda: ns.child()
    original = ns.child
    tracer.patch(ns, "parent", "parent")
    tracer.patch(ns, "child", "child")
    ns.parent()
    tracer.unpatch()
    assert ns.child is original
    summary = tracer.summary()
    assert summary["parent"]["calls"] == summary["child"]["calls"] == 1
    assert summary["parent"]["self_s"] == pytest.approx(70e-9)
    assert summary["parent"]["total_s"] == pytest.approx(100e-9)
    assert summary["child"]["self_s"] == pytest.approx(30e-9)
    assert list(tracer.parent) == [-1, 0]
    tracer.write(tmp_path / "spans.csv")
    assert (tmp_path / "spans.csv").read_text().splitlines()[1:] == [
        "0,-1,parent,0,100",
        "1,0,child,10,40",
    ]


def test_missing_target_reports_zero_calls():
    tracer = Tracer()
    assert not tracer.patch(SimpleNamespace(), "fused_away", "observer.fused_away")
    assert tracer.summary()["observer.fused_away"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0}
