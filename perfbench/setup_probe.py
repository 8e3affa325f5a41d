"""Set-up probe: import slamobs and build one workload's config, then exit.

run.py times fresh interpreters running this file, so the measured set-up
covers interpreter start, ``import slamobs`` (numpy included) and the config
build. Usage: python3 perfbench/setup_probe.py <workload> <seed>, with src/ on
PYTHONPATH and the workload's input files already written.
"""

import sys
from pathlib import Path

import numpy as np

import workloads

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.make(name, Path(__file__).resolve().parent / "_out")
    wl.prepare(np.random.default_rng(seed))
