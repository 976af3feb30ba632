"""The benchmark's golden passes, replayed in the test suite.

bench/workloads.py builds the seeded operations of each workload's golden
pass (coverage: run_coverage and compare_estimators at R = 1000 on three
distributions; estimate: 504 estimate_mean calls; linext: 104 certified
linear-extension counts) and bench/golden.json holds their recorded
outputs, exact to the last bit.
Both files are only read, as is bench/tracing.py, whose tracer replays one
operation with its span wrappers installed, as ``bench/run.py --trace 1``
does.  Each pass runs in a child interpreter: Hypothesis
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

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

REPLAY = """
import json
import workloads
golden = {}
for name, workload in workloads.WORKLOADS.items():
    passes = workload(seed=0)
    golden[name] = [passes.golden_value(op.call()) for op in passes.golden]
print(json.dumps(golden))
"""

# compare_estimators on lognormal:1 (all three estimator kinds) under the
# tracer.  Replicate slices may run in forked children, whose spans stay in
# the child, so each call through the wrapped name relmean.harness.SampleSource
# appends one byte to the file named by argv[1], from whichever process makes it.
TRACED = """
import json
import os
import sys
import relmean.harness as harness
import tracing
import workloads
op = workloads.Coverage(seed=0).golden[1]
tracer = tracing.Tracer()
tracer.install()
traced_source = harness.SampleSource
calls = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND)

def counted(*args, **kwargs):
    os.write(calls, b".")
    return traced_source(*args, **kwargs)

harness.SampleSource = counted
try:
    value = workloads.Coverage.golden_value(op.call())
finally:
    harness.SampleSource = traced_source
    tracer.uninstall()
print(json.dumps({"value": value, "replicates": op.replicates}))
"""


def _golden(workload: str = "coverage"):
    return json.loads((BENCH / "golden.json").read_text(encoding="ascii"))[workload]


def _run_child(script: str, *args: str):
    path = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    # -B: write no bytecode cache under bench/
    out = subprocess.run(
        [sys.executable, "-B", "-c", script, *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def replayed():
    return _run_child(REPLAY)


def test_coverage_golden_pass_is_bit_identical(replayed):
    assert replayed["coverage"] == _golden()


def test_estimate_golden_pass_is_bit_identical(replayed):
    assert replayed["estimate"] == _golden("estimate")


def test_linext_golden_pass_is_bit_identical(replayed):
    assert replayed["linext"] == _golden("linext")


def test_traced_coverage_operation_matches_golden(tmp_path):
    calls = tmp_path / "calls"
    calls.write_bytes(b"")
    traced = _run_child(TRACED, str(calls))
    assert traced["value"] == _golden()[1]
    # the operation counts 3000 replicates, one per estimator and stream, but
    # opens each of its 1000 streams once, through the name the tracer wraps
    assert traced["replicates"] == 3000
    assert calls.stat().st_size == 1000
