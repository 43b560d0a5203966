"""Short runs of every workload: each metric of BENCHMARK.json is printed
with its unit, outputs pass their checks, and the benchmark refuses to run
without the program's sources.

    python3 -m pytest perfbench/tests

takes about a minute and a half, most of it in the train_desk runs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    table = {line.split()[0]: line.split()[2] for line in lines[:-1]
             if len(line.split()) >= 3}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert table[m["name"]] == m["unit"], m["name"]
    assert table["op_fail_ratio"] == "ratio"
    env = json.loads(lines[0].split(" ", 1)[1])
    assert env["seed"] == 3 and env["blas_threads"] == "1"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "infer_desk", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
