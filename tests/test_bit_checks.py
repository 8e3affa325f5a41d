"""tools/bit_checks.py gives the same hashes twice, under the keys that a
BENCH_<pr>.json quotes."""

import importlib.util
import json
from pathlib import Path

from slamobs import reference_scenario
from slamobs.harness import SWEEP_AXES

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bit_checks.py"


def test_hashes_repeat_and_carry_every_key(tmp_path):
    spec = importlib.util.spec_from_file_location("bit_checks", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    config = reference_scenario().with_overrides(duration=0.02)
    # 20 random cases hold zero-error ones and overflowing ones.
    args = ({"short": (config, 1)}, {"short": config}, 20, tmp_path)
    first = module.bit_checks(*args)
    assert module.bit_checks(*args) == first
    assert list(first) == [
        "csv_sha256", "sweep_tables", "observer_step_sha256", "correction_terms_sha256"
    ]
    assert list(first["observer_step_sha256"]) == ["explicit", "implicit"]
    table = first["sweep_tables"]["short"]
    assert list(module.SWEEP_VALUES) == list(SWEEP_AXES)
    assert len(table) == sum(map(len, module.SWEEP_VALUES.values()))
    assert any("aborted_step=None" not in row for row in table)
    assert json.loads(json.dumps(first)) == first
