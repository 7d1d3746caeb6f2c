"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the outputs pass their checks, that the reference implementation reproduces
the recorded Monte Carlo counts, that the CLI checks accept rounding but not
a changed order, and that the benchmark refuses to run without the program's
sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_reference_reproduces_golden_counts():
    scenario = json.loads(workloads.EXAMPLE_SCENARIO.read_text("utf-8"))
    counts = oracle.mc_counts(
        scenario, oracle.preset("voip"), workloads.GOLDEN_SEED, workloads.GOLDEN_TRIALS
    )
    assert counts == workloads.GOLDEN_COUNTS


def test_cli_checks_allow_rounding_but_not_reordering():
    reference = json.loads(workloads.CLI_REFERENCE.read_text("utf-8"))
    text = reference["compare:voip"]["stdout"]
    expected = workloads.parse_compare(text)
    rounded = text.replace("5.180862", "5.180863").replace("+0.8667", "+0.8666", 1)
    assert workloads.same_rankings(workloads.parse_compare(rounded), expected)
    off = text.replace("5.180862", "5.180872")
    assert not workloads.same_rankings(workloads.parse_compare(off), expected)
    reordered = text.replace("1     N(3)", "1     N(X)", 1)
    assert not workloads.same_rankings(workloads.parse_compare(reordered), expected)

    payload = json.loads(reference["pairwise"]["stdout"])
    nudged = json.loads(reference["pairwise"]["stdout"])
    scores = nudged["results"][0]["scores"]
    scores["N(0)"] = scores["N(0)"] * (1 + 1e-14)
    assert workloads.same_json_results(nudged, payload)
    nudged["results"][0]["order"].reverse()
    assert not workloads.same_json_results(nudged, payload)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
