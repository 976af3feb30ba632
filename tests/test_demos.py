"""Smoke test: every demo script runs to completion and prints something."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_readme_quick_start_runs(capsys):
    # README's "Library quick start" block runs as written, so a name it uses
    # cannot outlive the library; the README gives its plan as 720 + 780 draws
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    mu_hat, total_samples = capsys.readouterr().out.split()
    assert float(mu_hat) > 0.0 and int(total_samples) == 720 + 780
