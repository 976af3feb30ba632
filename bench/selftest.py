"""Self-test of the benchmark, kept out of the library's test suite.

    python3 bench/selftest.py

At tiny sizes (one second per phase, three passes at least) it checks that
every workload prints every metric named in BENCHMARK.json with its unit,
untraced and traced, and that a run exits nonzero once the estimator's
output is tampered with: mu_hat is shifted by 2 * epsilon * mu_hat.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("coverage", "estimate", "linext")


def bench(*args: str, tampered: bool = False) -> tuple[int, dict | None]:
    script = [str(BENCH / "selftest.py"), "--tampered"] if tampered else [str(BENCH / "run.py")]
    out = subprocess.run([sys.executable, *script, *args], capture_output=True, text=True,
                         timeout=600, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    try:
        return out.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return out.returncode, None


def run_tampered(argv: list[str]) -> int:
    """Run the benchmark in this process with a shifted estimate_mean."""
    sys.path.insert(0, str(BENCH))
    import run

    run.import_library()
    import relmean.counting
    import relmean.estimator
    import relmean.harness

    original = relmean.estimator.estimate_mean

    def shifted(source, spec, *args, **kwargs):
        report = original(source, spec, *args, **kwargs)
        return dataclasses.replace(report, mu_hat=report.mu_hat * (1.0 + 2.0 * spec.epsilon))

    for module in (relmean.estimator, relmean.harness, relmean.counting):
        module.estimate_mean = shifted
    return run.main(argv)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace, names in expected.items():
            code, result = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{workload} trace {trace}: exit {code}, result {result}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != names:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got)} != {sorted(names)}")
        code, result = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0",
                             tampered=True)
        if code == 0 or (result and result["correct"]):
            problems.append(f"{workload}: tampered estimator passed (exit {code})")
        print(f"{workload}: tampered run exit {code}, failed {result and result['failed']}", flush=True)
    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--tampered"]:
        sys.exit(run_tampered(sys.argv[2:]))
    sys.exit(main())
