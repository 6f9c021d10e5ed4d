"""Smoke tests of the benchmark at tiny sizes, kept out of the package suite.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRATCH = os.path.join(ROOT, ".perfbench_work", "smoke")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(root, workload, trace=0):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def copy_checkout(name, with_sources=True):
    """A partial copy of this checkout under .perfbench_work/smoke."""
    dest = os.path.join(SCRATCH, name)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    for path in SPEC["paths"] + (["src"] if with_sources else []):
        shutil.copytree(os.path.join(ROOT, path), os.path.join(dest, path), ignore=skip)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in got.items()}
    assert all(math.isfinite(v["value"]) for v in got.values())
    # a figure that reads 0 measures nothing the workload does
    assert [k for k, v in got.items() if v["value"] == 0] == []


# each edit breaks one output the benchmark checks, without crashing lnt
SABOTAGE = {
    "labels-dropped": ("scoring.py", 'f"{s:.9g}", int(y)]', 'f"{s:.9g}", 1 - int(y)]'),
    "auc-misprinted": ("metrics.py", 'f"{getattr(result, f):.6g}"', 'f"{getattr(result, f) / 2:.6g}"'),
}


@pytest.mark.parametrize("name", sorted(SABOTAGE))
def test_failed_output_check_exits_nonzero(name):
    root = copy_checkout(name)
    filename, old, new = SABOTAGE[name]
    path = os.path.join(root, "src", "lnt", filename)
    with open(path) as fh:
        source = fh.read()
    assert old in source
    with open(path, "w") as fh:
        fh.write(source.replace(old, new))
    proc = bench(root, "train-small")
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert result["correct"] is False and result["failed"] >= 1


def test_without_sources_exits_nonzero_and_prints_no_result():
    root = copy_checkout("no-sources", with_sources=False)
    proc = bench(root, "score-long")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
