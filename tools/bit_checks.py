"""Hashes and tables of every output of slamobs, for a bit-for-bit comparison of two trees.

Usage, from the root of a checkout:

    python3 tools/bit_checks.py > bit_checks.json

It imports slamobs from this checkout's src/, and perfbench's scenario-file
writer to build the sweep-wide-like file, which it writes to a temporary
directory. It prints one JSON object, meant for ``tools/bench_pairs.py
--notes``:

- csv_sha256: the sha256 of the CSV that run and write_csv give for four
  configs: paper-sec5 at stride 1 (dt 5e-5 for 0.25 s, dt 1e-3 for 3 s), at
  stride 100 (dt 1e-3 for 5 s), and a noisy 24-landmark file with four twist
  knots (perfbench's sweep-wide file at seed 5, for 2 s) at stride 1;
- sweep_tables: the repr of every SweepResult of sweep on all eight axes
  over paper-sec5 (3 s) and that file, with members that abort (k_p 1e3 and
  1e5, k_w 1e300, sigma_v 1e50; see SWEEP_VALUES);
- observer_step_sha256: the sha256 of observer_step in each scheme over
  seeded random states, frames, gains and step sizes, a tenth of them with
  zero landmark errors and a twenty-fifth with measurements near 1e160,
  which overflow (half of those with zero errors); each result is its
  state's arrays or its DivergenceError;
- correction_terms_sha256: the sha256 of correction_terms over those cases.

Every RuntimeWarning raised in a call is hashed with its result. Run the
script on two checkouts (one exported with ``git archive``): equal output
means that every one of these outputs kept its bits.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# This checkout's slamobs, ahead of any installed one, and perfbench's writer.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from slamobs import (  # noqa: E402
    DivergenceError,
    GainConfig,
    ObserverState,
    SensorFrame,
    correction_terms,
    load_scenario,
    observer_step,
    reference_scenario,
    run,
    so3_exp,
    sweep,
    write_csv,
)
from workloads import SweepWorkload  # noqa: E402

# Each sweep axis and its values. k_p 1e5, k_w 1e300 and sigma_v 1e50 abort
# on both bases, k_p 1e3 on paper-sec5.
SWEEP_VALUES = {
    "k_p": (0.5, 2.0, 1e3, 1e5),
    "k_w": (2.0, 1e300, 4.0),
    "gamma_scale": (0.5, 2.0),
    "alpha_scale": (0.5, 2.0),
    "sigma_omega": (0.0, 0.01),
    "sigma_v": (0.01, 1e50),
    "sigma_y": (0.0, 0.002),
    "dt": (5e-4, 1e-3),
}
STATES = 3000
SEED = 2024


def csv_sha256(config, stride: int, out: Path) -> str:
    """sha256 of the CSV that run(config, stride) and write_csv give."""
    path = out / "run.csv"
    write_csv(run(config, stride), config.count, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_table(config) -> list[str]:
    """repr of every SweepResult of sweep over config on every axis."""
    return [repr(r) for axis, values in SWEEP_VALUES.items() for r in sweep(config, axis, values)]


def random_case(rng: np.random.Generator, zero_errors: bool, scale: float) -> tuple:
    """(state, frame, gains, dt): n landmarks measured at about scale."""
    n = int(rng.integers(3, 13))
    r_hat, p_hat = so3_exp(rng.normal(size=3)), rng.normal(size=3)
    y = rng.normal(scale=scale, size=(n, 3))
    # The landmark errors' own expression, so that they are exactly zero.
    landmarks_hat = y @ r_hat.m.T + p_hat if zero_errors else rng.normal(scale=scale, size=(n, 3))
    state = ObserverState(
        r_hat, p_hat, landmarks_hat, rng.normal(scale=0.1, size=3), rng.normal(scale=0.1, size=3)
    )
    frame = SensorFrame(omega_m=rng.normal(size=3), v_m=rng.normal(size=3), y=y, t=0.0)
    m = rng.normal(size=(3, 3))
    gains = GainConfig(
        k_p=rng.uniform(0.5, 4.0),
        k_w=rng.uniform(0.5, 7.0),
        gamma=m @ m.T + np.eye(3),
        alpha=rng.uniform(0.05, 1.0, n),
    )
    return state, frame, gains, 10.0 ** rng.uniform(-5.0, -1.0)


def _outcome(call, *args, **kwargs) -> bytes:
    """The bytes of the arrays that call returns (a state's arrays()), or of
    its DivergenceError, and of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args, **kwargs)
            arrays = result.arrays() if isinstance(result, ObserverState) else result
            out = b"".join(np.asarray(a).tobytes() for a in arrays)
        except DivergenceError as exc:
            out = f"DivergenceError: {exc}".encode()
    return out + "".join(f"|{w.category.__name__}: {w.message}" for w in caught).encode()


def step_sha256(states: int) -> dict:
    """sha256 of observer_step in each scheme and of correction_terms over
    states random cases, seeded with SEED."""
    rng = np.random.default_rng(SEED)
    digests = {key: hashlib.sha256() for key in ("explicit", "implicit", "correction_terms")}
    for i in range(states):
        scale = 1e160 if i % 50 < 2 else 10.0 ** rng.uniform(-2.0, 2.0)
        state, frame, gains, dt = random_case(rng, i % 10 == 0, scale)
        for scheme in ("explicit", "implicit"):
            digests[scheme].update(_outcome(observer_step, state, frame, gains, dt, scheme=scheme))
        digests["correction_terms"].update(_outcome(correction_terms, state, frame, gains))
    correction = digests.pop("correction_terms")
    return {
        "observer_step_sha256": {scheme: d.hexdigest() for scheme, d in digests.items()},
        "correction_terms_sha256": correction.hexdigest(),
    }


def bit_checks(csvs: dict, bases: dict, states: int, out: Path) -> dict:
    """The JSON object: csvs maps a name to (config, stride), bases a name to
    the config that is swept, states is the count of random cases, and out
    is a directory for the CSVs."""
    return {
        "csv_sha256": {name: csv_sha256(c, stride, out) for name, (c, stride) in csvs.items()},
        "sweep_tables": {name: sweep_table(config) for name, config in bases.items()},
        **step_sha256(states),
    }


def main() -> int:
    paper = reference_scenario()
    with tempfile.TemporaryDirectory(prefix="bit-checks-") as tmp:
        out = Path(tmp)
        writer = SweepWorkload(out, duration=2.0)
        writer.write_inputs(5)
        wide = load_scenario(writer.path)
        csvs = {
            "paper-sec5 stride 1 at dt 5e-5 for 0.25 s": (
                paper.with_overrides(dt=5e-5, duration=0.25), 1
            ),
            "paper-sec5 stride 1 at dt 1e-3 for 3 s": (paper.with_overrides(duration=3.0), 1),
            "paper-sec5 stride 100 at dt 1e-3 for 5 s": (paper.with_overrides(duration=5.0), 100),
            "sweep-wide-like file (seed 5, n = 24, 4 knots, noisy) stride 1 for 2 s": (wide, 1),
        }
        bases = {
            "paper-sec5 for 3 s": paper.with_overrides(duration=3.0),
            "sweep-wide-like file for 2 s": wide,
        }
        print(json.dumps(bit_checks(csvs, bases, STATES, out), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
