"""The benchmark's coverage golden pass, replayed in the test suite.

bench/workloads.py builds the six seeded coverage operations (run_coverage
and compare_estimators at R = 1000 on three distributions) and
bench/golden.json holds their recorded outputs, exact to the last bit.
Both files are only read.  The pass runs in a child interpreter: Hypothesis
draws example values from the numeric constants of every module loaded in
its process, so importing the workload module here would change the
examples other tests of this session see.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

REPLAY = """
import json
import workloads
coverage = workloads.Coverage(seed=0)
print(json.dumps([coverage.golden_value(op.call()) for op in coverage.golden]))
"""


def test_coverage_golden_pass_is_bit_identical():
    golden = json.loads((BENCH / "golden.json").read_text(encoding="ascii"))["coverage"]
    path = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    # -B: write no bytecode cache under bench/
    out = subprocess.run(
        [sys.executable, "-B", "-c", REPLAY],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == golden
