"""``scripts/ab.py`` times the workloads of ``perfbench/run.py``: per
workload, both give the same config, beam, tree shape, corpus size,
query pool and queries per round, so an A/B run cannot time a workload
other than the benchmark's.

Both modules put their directories on ``sys.path`` when imported, and
``ab.py`` sets the BLAS thread variables, so a fresh interpreter imports
them and prints each side's description of every workload.
"""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DESCRIBE = """
import dataclasses, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ab, corpus, run
seed, work_dir = 11, sys.argv[3]
shapes = {v: k for k, v in corpus.SHAPES.items()}
out = {"bench": {}, "ab": {}}
for name, make in run.WORKLOADS.items():
    wl = make(seed, work_dir)
    out["bench"][name] = dict(
        config=dataclasses.asdict(wl.config), beam=getattr(wl, "beam", None),
        shape=shapes[(wl.defs, wl.stmts)], count=wl.count,
        pool=getattr(wl, "pool", 0), per_round=getattr(wl, "per_round", 0))
for name, (overrides, beam, shape, count, pool, per_round) in (
        ab.WORKLOADS.items()):
    config = dataclasses.replace(run.RunConfig(**overrides), seed=seed)
    out["ab"][name] = dict(
        config=dataclasses.asdict(config), beam=beam, shape=shape,
        count=count, pool=pool, per_round=per_round)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def described(tmp_path_factory):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", DESCRIBE, os.path.join(ROOT, "scripts"),
         os.path.join(ROOT, "perfbench"),
         str(tmp_path_factory.mktemp("workloads"))],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_ab_has_the_benchmark_workloads(described):
    assert sorted(described["ab"]) == sorted(described["bench"])


@pytest.mark.parametrize("workload", ["train_long", "decode_beam5",
                                      "decode_greedy_short"])
def test_ab_workload_mirrors_the_benchmark(described, workload):
    assert described["ab"][workload] == described["bench"][workload]
