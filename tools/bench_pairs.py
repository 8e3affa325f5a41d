"""Alternating parent/change pairs of perfbench runs, written as BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --pr 14 --parent HEAD~1 --seeds 1401-1410 \\
        --claim ref-sparse:step_us_min --notes notes.json

The parent revision is exported with ``git archive`` into a temporary
directory outside the checkout, which is removed at the end. For each seed
and workload, ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
runs once on the parent and once on this working tree, back to back, the
parent first on odd seeds. perfbench itself is not changed: each side runs
its own copy, and the two must be identical.

The output holds, per workload and end-to-end metric, each side's median,
quartiles (statistics.quantiles, n=4) and per-pair values, the pairs in which
the change read better, and the median change against the bound that
BENCHMARK.json fixes; the failed-operation counts; the reference outputs that
perfbench checks (their hashes, seed by seed); each side's environment; and
each side's ``wc -l src/slamobs/*.py``, file by file and in total, and the
parser tokens of each of those files (parser_tokens).
A ``--claim`` is judged by the gain rule: better in at least nine tenths of
the pairs, ties counting for neither, and medians apart by more than the
parent's interquartile distance. ``--notes`` adds the keys of a JSON object
(bit checks, test counts and the like) to the output as they are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The gain rule: the share of pairs the change must win.
WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """"1401-1410" or "1401,1405,1409" as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", required=True, help="number in the output name BENCH_<pr>.json")
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--seeds", required=True, type=parse_seeds, help='"A-B" or "A,B,C"')
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument(
        "--workloads",
        type=lambda text: text.split(","),
        default=[w["name"] for w in BENCHMARK["workloads"]],
    )
    p.add_argument("--claim", action="append", default=[], help="workload:metric, repeatable")
    p.add_argument("--description", default="")
    p.add_argument("--notes", type=Path, help="JSON object whose keys are added to the output")
    return p.parse_args(argv)


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def export(revision: str, into: Path) -> None:
    """Write the files of revision into the directory into."""
    archive = into / "parent.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", revision], stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def perfbench_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "perfbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def source_lines(root: Path) -> dict:
    """``wc -l src/slamobs/*.py`` in the checkout root: lines per file and the total."""
    files = sorted((root / "src" / "slamobs").glob("*.py"))
    counts = {path.name: path.read_bytes().count(b"\n") for path in files}
    return {**counts, "total": sum(counts.values())}


def parser_tokens(path: Path) -> int:
    """The tokens of a Python file, counted by tokenize without COMMENT and NL
    tokens (a docstring is one). Python 3.11's compile of a module past 4,096
    of them peaks about 240 KB higher."""
    with path.open(encoding="utf-8") as fh:
        tokens = tokenize.generate_tokens(fh.readline)
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)


def source_tokens(root: Path) -> dict:
    """parser_tokens of each file of src/slamobs in the checkout root."""
    files = sorted((root / "src" / "slamobs").glob("*.py"))
    return {path.name: parser_tokens(path) for path in files}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in the checkout root: its summary and its full record."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(
            f"bench_pairs: perfbench failed in {root} ({workload}, seed {seed}), "
            f"exit {done.returncode}:\n{done.stderr}"
        )
    record_path = root / "perfbench" / "_out" / f"result-{workload}-seed{seed}-trace0.json"
    return {
        "summary": json.loads(lines[-1]),
        "record": json.loads(record_path.read_text(encoding="utf-8")),
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def compare(before: list[float], after: list[float], better: str) -> dict:
    """Both sides of one metric on one workload, pair by pair."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (a - b) < 0.0 for b, a in zip(before, after))
    b, a = spread(before), spread(after)
    return {
        "before": b,
        "after": a,
        f"after_{better}_in_pairs": f"{wins}/{len(before)}",
        "median_change": round(a["median"] / b["median"] - 1.0, 4),
        "wins": wins,
    }


def judge_claim(entry: dict, better: str) -> dict:
    b, a = entry["before"], entry["after"]
    gain = (b["median"] - a["median"]) * (1.0 if better == "lower" else -1.0)
    parent_iqr = b["q3"] - b["q1"]
    pairs = len(b["values"])
    met = entry["wins"] >= WIN_SHARE * pairs and gain > parent_iqr
    return {
        "met": met,
        "median_gain": gain,
        "parent_interquartile_distance": parent_iqr,
        "wins": f"{entry['wins']}/{pairs}",
        "median_change": entry["median_change"],
    }


def reference_summary(before: list[dict], after: list[dict]) -> dict:
    """The reference outputs that perfbench checks, hashed fields seed by seed."""
    refs = [[r["record"]["reference"] for r in side] for side in (before, after)]
    keys = [k for k in refs[0][0] if k.endswith("_sha256")]
    out = {}
    for key in keys:
        pairs = [(b[key], a[key]) for b, a in zip(*refs)]
        out[key] = {
            "before": [b[:8] for b, _ in pairs],
            "after": [a[:8] for _, a in pairs],
            "equal_seed_by_seed": all(b == a for b, a in pairs),
        }
    out["problems"] = {
        "before": sum(len(r["record"]["problems"]) for r in before),
        "after": sum(len(r["record"]["problems"]) for r in after),
    }
    return out


def check_args(args, metrics: dict) -> dict:
    """Stop on a bad --workloads, --claim or --notes before the first run,
    which a typo found after the runs would throw away; returns the notes."""
    if len(args.seeds) < 2:
        raise SystemExit("bench_pairs: quartiles need at least two seeds")
    known = [w["name"] for w in BENCHMARK["workloads"]]
    for workload in args.workloads:
        if workload not in known:
            raise SystemExit(f"bench_pairs: unknown workload {workload!r}; known: {known}")
    for claim in args.claim:
        workload, _, name = claim.partition(":")
        if workload not in args.workloads or name not in metrics:
            raise SystemExit(
                f"bench_pairs: --claim {claim!r} is not workload:metric with a workload "
                f"of {args.workloads} and a metric of {list(metrics)}"
            )
    if args.notes is None:
        return {}
    try:
        notes = json.loads(args.notes.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench_pairs: --notes {args.notes}: {exc}") from None
    if not isinstance(notes, dict):
        raise SystemExit(f"bench_pairs: --notes {args.notes} holds no JSON object")
    return notes


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    notes = check_args(args, metrics)
    parent_sha = git("rev-parse", args.parent)
    runs = {w: {"before": [], "after": []} for w in args.workloads}
    # SystemExit stops the perfbench child and removes the parent's files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("bench_pairs: terminated"))
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(parent_sha, Path(tmp))
        parent_root = Path(tmp) / "tree"
        if perfbench_digest(parent_root) != perfbench_digest(ROOT):
            raise SystemExit("bench_pairs: perfbench differs between the parent and this tree")
        lines = {"before": source_lines(parent_root), "after": source_lines(ROOT)}
        tokens = {"before": source_tokens(parent_root), "after": source_tokens(ROOT)}
        for seed in args.seeds:
            for workload in args.workloads:
                sides = [("before", parent_root), ("after", ROOT)]
                if seed % 2 == 0:
                    sides.reverse()
                for side, root in sides:
                    print(f"bench_pairs: {workload} seed {seed} {side}", file=sys.stderr)
                    runs[workload][side].append(run_once(root, workload, seed, args.seconds))

    workloads = {}
    for workload, sides in runs.items():
        entry = {}
        for name, spec in metrics.items():
            before, after = (
                [r["summary"]["metrics"][name]["value"] for r in sides[side]]
                for side in ("before", "after")
            )
            entry[name] = compare(before, after, spec["better"])
            entry[name]["within_bound"] = (
                entry[name]["median_change"] * (1.0 if spec["better"] == "lower" else -1.0)
                <= spec["bound"]
            )
        entry["failed"] = {
            side: [r["summary"]["failed"] for r in sides[side]] for side in ("before", "after")
        }
        workloads[workload] = entry

    claims = {}
    for claim in args.claim:
        workload, _, name = claim.partition(":")
        claims[claim] = judge_claim(workloads[workload][name], metrics[name]["better"])
    for entry in workloads.values():
        for name in metrics:
            del entry[name]["wins"]

    first = runs[args.workloads[0]]
    environment = {side: first[side][0]["record"]["env"] for side in ("before", "after")}
    environment["before"]["git_commit"] = f"{parent_sha} (exported with git archive)"
    out = {
        "description": args.description,
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g} "
        "--trace 0",
        "protocol": (
            f"for each seed and workload one run of the parent ({parent_sha[:7]}, exported "
            "with git archive) and one of the working tree, alternating which side runs first "
            "(parent first on odd seeds), back to back on one machine, written by "
            "tools/bench_pairs.py; median and quartiles (statistics.quantiles, n=4) over the "
            f"{len(args.seeds)} pairs"
        ),
        "claims": claims,
        "seeds": args.seeds,
        "workloads": workloads,
        "reference_outputs": {
            w: reference_summary(runs[w]["before"], runs[w]["after"]) for w in args.workloads
        },
        "environment": environment,
        "source_lines": lines,
        "source_tokens": tokens,
    }
    out.update(notes)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"bench_pairs: wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
