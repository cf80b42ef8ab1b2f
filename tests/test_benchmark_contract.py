"""The benchmark's own checks, run briefly: ``perfbench/run.py`` must
pass every correctness check on each workload, traced and untraced.

Among those checks, the decode workloads re-run the search while
recording every ``Model.predict`` call and expect one call per rule
expansion, and the traced run expects one predicted state per rule step.
A copy of ``perfbench/`` and ``src/`` in a temporary directory runs, so
the benchmark's scratch output stays out of the checkout.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for part in ("perfbench", "src"):
        shutil.copytree(os.path.join(ROOT, part), root / part, ignore=ignore)
    return root


@pytest.mark.parametrize("workload, trace", [
    ("decode_beam5", 0), ("decode_beam5", 1),
    ("decode_greedy_short", 0), ("train_long", 0)])
def test_benchmark_checks_pass(bench_copy, workload, trace):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(bench_copy / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "11", "--seconds", "0.5",
         "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    assert report["attempted"] > 0
