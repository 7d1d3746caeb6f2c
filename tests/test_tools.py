"""The A/B timing script still runs: ``tools/mc_ab.py`` on one tree against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_mc_ab_runs_and_reports_the_ratio():
    src = str(ROOT / "src")
    script = str(ROOT / "tools" / "mc_ab.py")
    result = subprocess.run(
        [sys.executable, script, src, src, "--pairs", "2", "--trials", "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "old/new ratio: median " in result.stdout
