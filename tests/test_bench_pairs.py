"""tools/bench_pairs.py checks its arguments before the first perfbench run,
and records each side's source size next to the runs."""

import importlib.util
import json
import shutil
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


def _tree(root: Path, sources: dict) -> Path:
    """A checkout at root holding sources under src/slamobs and this
    repository's perfbench scripts."""
    (root / "src" / "slamobs").mkdir(parents=True)
    for name, text in sources.items():
        (root / "src" / "slamobs" / name).write_text(text, encoding="utf-8")
    (root / "perfbench").mkdir()
    for path in (TOOL.parent.parent / "perfbench").glob("*.py"):
        shutil.copy(path, root / "perfbench" / path.name)
    return root


def test_parser_tokens_skip_comments_and_blank_lines(bench_pairs, tmp_path):
    path = tmp_path / "m.py"
    # NAME OP NUMBER NEWLINE, then STRING NEWLINE, then ENDMARKER.
    path.write_text('x = 1  # one\n\n"""a docstring\nover two lines"""\n', encoding="utf-8")
    assert bench_pairs.parser_tokens(path) == 7


def test_output_records_lines_and_tokens_per_module(bench_pairs, monkeypatch, tmp_path):
    after = _tree(tmp_path / "after", {"a.py": "x = 1\n", "b.py": "y = (1, 2)\n"})
    parent = {"a.py": "x = 1  # c\n\nz = x\n"}
    monkeypatch.setattr(bench_pairs, "ROOT", after)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pairs, "export", lambda revision, into: _tree(into / "tree", parent))
    metrics = {m["name"]: {"value": 1.0} for m in bench_pairs.BENCHMARK["end_to_end"]}
    run = {
        "summary": {"metrics": metrics, "failed": 0},
        "record": {"reference": {"csv_sha256": "0" * 64}, "problems": [], "env": {}},
    }
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: run)
    # main stops on SIGTERM; the test process keeps its own handler.
    monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
    assert bench_pairs.main(ARGS + ["--workloads", "ref-dense"]) == 0
    out = json.loads((after / "BENCH_0.json").read_text(encoding="utf-8"))
    assert out["source_lines"] == {
        "before": {"a.py": 3, "total": 3}, "after": {"a.py": 1, "b.py": 1, "total": 2}
    }
    assert out["source_tokens"] == {"before": {"a.py": 9}, "after": {"a.py": 5, "b.py": 9}}
