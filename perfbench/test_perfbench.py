"""The benchmark's own tests: its quick mode runs every workload at a small
size with every output check, untraced and traced, and prints exactly the
metrics BENCHMARK.json declares."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_mode_checks_every_workload(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", trace],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0

    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        printed = {name.split(".", 1)[1]: m["unit"] for name, m in result["metrics"].items()
                   if name.split(".", 1)[0] == workload}
        assert printed == declared, workload
