"""tools/bench_pairs.py checks its arguments before the first perfbench run."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(monkeypatch):
    """The tool as a module, with every step that would run or export patched
    to record its call instead."""
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.calls = []
    for name in ("run_once", "export", "git"):
        monkeypatch.setattr(module, name, lambda *args, name=name: module.calls.append(name))
    return module


ARGS = ["--pr", "0", "--parent", "HEAD", "--seeds", "1-2"]


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--claim", "sweep-wide:step_us"], "is not workload:metric"),
        (["--claim", "sweep-wide"], "is not workload:metric"),
        (["--claim", "sweepwide:step_us_min"], "is not workload:metric"),
        (["--workloads", "ref-dense", "--claim", "sweep-wide:step_us_min"], "not workload"),
        (["--workloads", "ref-dens"], "unknown workload"),
        (["--notes", "no-such-notes.json"], "no-such-notes.json"),
    ],
)
def test_bad_arguments_exit_before_any_run(bench_pairs, extra, message):
    with pytest.raises(SystemExit, match=message):
        bench_pairs.main(ARGS + extra)
    assert bench_pairs.calls == []


@pytest.mark.parametrize("text", ["[1, 2]", "{not json"])
def test_notes_must_hold_a_json_object(bench_pairs, tmp_path, text):
    notes = tmp_path / "notes.json"
    notes.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit, match="notes"):
        bench_pairs.main(ARGS + ["--notes", str(notes)])
    assert bench_pairs.calls == []


def test_good_arguments_pass(bench_pairs, tmp_path):
    notes = tmp_path / "notes.json"
    notes.write_text('{"bit_checks": "equal"}', encoding="utf-8")
    args = bench_pairs.parse_args(
        ARGS + ["--claim", "sweep-wide:step_us_min", "--notes", str(notes)]
    )
    assert bench_pairs.check_args(args, {"step_us_min": {}}) == {"bit_checks": "equal"}
