"""Self-test of the benchmark: the smoke mode runs every workload at toy size
through the same code path and output checks, traced and untraced.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def declared():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload_and_passes_checks(trace):
    proc, lines = bench("--smoke", "--seed", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {f"{w}.{m['name']}" for w in run.SMOKE for m in declared()[section]}
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_declared_metrics_match_the_benchmark_tables():
    doc = declared()
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert run.METRICS[m["name"]] == (m["unit"], m["better"]), m["name"]
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, lines = bench("--workload", "canonical", "--seed", "0", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_self_time_counts_overlapping_children_once():
    # Two gradient calls overlapping on two threads, one outside the span.
    assert run._covered([(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert run._covered([], 0.0, 1.0) == 0.0
