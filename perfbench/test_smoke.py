"""Smoke test of the benchmark at a tiny size.

Runs every workload untraced and traced with the output checks on, checks
the result line against BENCHMARK.json, and checks that the generator is
byte-identical for a seed.  Takes well under a minute:

    python3 -m pytest perfbench
"""

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# score-online needs trips long enough to hold out 60-sample windows.
TINY_ROWS = {"score-online": 4000}
SEED = 5


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
               "--rows", str(TINY_ROWS.get(workload, 1000))]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def record_of(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


# score-online is not among the gated workloads but stays runnable.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["score-online"])
def test_workload_runs_checked_untraced_and_traced(workload):
    plain = result_of(run(workload, 0))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    plain_digest = record_of(workload, 0)["digest"]

    traced = result_of(run(workload, 1))
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert record_of(workload, 1)["digest"] == plain_digest


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import gen
    finally:
        del sys.path[:2]
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.write_log(str(tmp_path / f"{name}.csv"), seed, 1000)
    assert filecmp.cmp(tmp_path / "a.csv", tmp_path / "b.csv", shallow=False)
    assert not filecmp.cmp(tmp_path / "a.csv", tmp_path / "c.csv", shallow=False)


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run("table6-binary", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
