"""Benchmark of rulegen training and beam decoding.

Usage, from the root of a checkout:

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload train_long --seed 1 \\
        --seconds 36 --trace 0

One process runs one workload as a closed loop: it generates the inputs
from ``--seed``, sets up (load the dataset, induce the grammar and, for
decoding, build the model and round-trip it through a checkpoint), warms
up, then runs as many whole rounds of identical work as fit in
``--seconds``. Each round's outputs are checked right after it, outside
its timing, and the deeper checks run after the timed region. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A failed check exits with code 1 and a missing program with code 2.
"""
import argparse
import dataclasses
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH_DIR, SRC]
OUT_DIR = os.path.join(BENCH_DIR, "out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def process_age() -> float:
    """Seconds since this process started, from the kernel's record."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


if not os.path.isdir(os.path.join(SRC, "rulegen")):
    fail(f"no program sources at {SRC}", 2)
try:
    import numpy as np

    import rulegen
    import rulegen.decode as decode
    import rulegen.training as training
    from rulegen.config import RunConfig
    from rulegen.data import load_dataset
    from rulegen.grammar import induce_grammar
    from rulegen.model import Model, vocabs_from_examples
except ImportError as e:
    fail(f"cannot import the program: {e}", 2)
if not os.path.abspath(rulegen.__file__).startswith(SRC + os.sep):
    fail(f"rulegen was imported from {rulegen.__file__}, not {SRC}", 2)

import checks
import corpus
from tracing import TIMED, Tracer

PAPER = RunConfig()
DESK = RunConfig(dim=64, layers=5, mlp_hidden=64)


class TrainLong:
    """``training.train`` for a fixed number of epochs on long derivations.

    A round is one ``train`` call: 8 examples x 3 epochs with the paper
    config, so the 16-example accumulation window gives one Adam update
    after epoch 2 and a final one at the end. The last epoch is thus
    trained on after an update and its mean loss must fall below the
    first's.
    """

    (defs, stmts), count, epochs = corpus.SHAPES["long"], 8, 3

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.data_path = os.path.join(work_dir, "train.jsonl")
        self.run_dir = os.path.join(work_dir, "run")
        self.config = dataclasses.replace(PAPER, epochs=self.epochs, seed=seed)

    def generate(self):
        self.docs = corpus.generate(self.seed, self.count, self.defs, self.stmts)
        corpus.write_jsonl(self.docs, self.data_path)
        self.steps = self.epochs * sum(corpus.count_rules(d["ast"])
                                       for d in self.docs)

    def setup(self):
        self.examples = load_dataset(self.data_path)
        self.grammar = induce_grammar([ex.ast for ex in self.examples])

    def after_setup(self):
        return []

    def warm_up(self):
        training.train(self.examples[:1], [], self.grammar,
                       dataclasses.replace(self.config, epochs=1))

    def run_round(self):
        self.result = None            # at most one trained model alive
        self.result = training.train(self.examples, [], self.grammar,
                                     self.config, out_dir=self.run_dir)
        return self.count * self.epochs, self.steps, 0

    def check_round(self):
        return checks.check_losses(self.result.log_lines, self.epochs)

    def check(self):
        failures = []
        stated = corpus.rules_per_derivation(self.defs, self.stmts)
        if any(corpus.count_rules(d["ast"]) != stated for d in self.docs):
            failures.append(f"a derivation is not {stated} rules long")
        ops = self.count * self.epochs
        window = self.config.accumulation_window
        if self.result.updates != -(-ops // window):
            failures.append(f"{self.result.updates} Adam updates for {ops} "
                            f"examples at window {window}")
        failures += checks.check_checkpoint(
            os.path.join(self.run_dir, "checkpoint.bin"), self.result.model,
            self.grammar)
        failures += checks.gradient_check(
            self.grammar, self.examples[0],
            vocabs_from_examples(self.examples), self.seed)
        return failures


class Decode:
    """``beam_search`` with a seeded, untrained model.

    The grammar is induced from ``count`` examples; a round decodes
    ``per_round`` further queries, taken in turn from a pool, so repeated
    inputs are rare. Every derivation has the same length and shape, so
    the work of a decode does not depend on the weights.
    """

    def __init__(self, seed, work_dir, config, beam, shape, count,
                 pool, per_round, deep):
        self.seed = seed
        self.config = dataclasses.replace(config, seed=seed)
        self.beam = beam
        self.defs, self.stmts = corpus.SHAPES[shape]
        self.count, self.pool, self.per_round, self.deep = (
            count, pool, per_round, deep)
        self.data_path = os.path.join(work_dir, "corpus.jsonl")
        self.query_path = os.path.join(work_dir, "queries.jsonl")
        self.checkpoint = os.path.join(work_dir, "model.bin")
        self.kept = []        # the first ``deep`` decodes, for the deep checks
        self.rounds = 0

    def generate(self):
        docs = corpus.generate(self.seed, self.count + self.pool,
                               self.defs, self.stmts)
        self.docs = docs[:self.count]
        corpus.write_jsonl(self.docs, self.data_path)
        corpus.write_jsonl(docs[self.count:], self.query_path)
        self.expansions, self.hypotheses = corpus.beam_expansions(
            [d["ast"] for d in self.docs], self.beam)

    def setup(self):
        examples = load_dataset(self.data_path)
        self.queries = load_dataset(self.query_path)
        self.grammar = induce_grammar([ex.ast for ex in examples])
        built = Model(self.grammar, self.config,
                      *vocabs_from_examples(examples), seed=self.seed)
        built.save(self.checkpoint)
        self.model = Model.load(self.checkpoint, self.grammar)
        self.built = built

    def after_setup(self):
        failures = []
        a, b = self.built.store, self.model.store
        if a.names() != b.names() or any(
                not np.array_equal(a[n].data, b[n].data) for n in a.names()):
            failures.append("checkpoint round trip changed the model")
        del self.built
        return failures

    def warm_up(self):
        q = self.queries[-1]
        decode.beam_search(self.model, q.description, q.slots,
                           beam_size=self.beam)

    def run_round(self):
        self.last = []
        for i in range(self.per_round):
            q = self.queries[(self.rounds * self.per_round + i) % self.pool]
            self.last.append((q, decode.beam_search(
                self.model, q.description, q.slots, beam_size=self.beam)))
        self.rounds += 1
        failed = sum(result.failed for _, result in self.last)
        return self.per_round, self.per_round * self.expansions, failed

    def check_round(self):
        failures = []
        for q, result in self.last:
            if not result.failed:
                failures += checks.check_result(result, q, self.grammar,
                                                self.hypotheses)
                if len(self.kept) < self.deep:
                    self.kept.append((q, result))
        return failures

    def check(self):
        failures = []
        if self.grammar.num_rules != len({k for d in self.docs
                                          for k in corpus.rule_keys(d["ast"])}):
            failures.append("induced grammar size differs from the corpus")
        for q, result in self.kept:
            failures += checks.check_search(self.model, q, result, self.beam,
                                            self.expansions)
        return failures


WORKLOADS = {
    "train_long": lambda seed, d: TrainLong(seed, d),
    "decode_beam5": lambda seed, d: Decode(
        seed, d, PAPER, beam=5, shape="long", count=8, pool=32,
        per_round=3, deep=2),
    "decode_greedy_short": lambda seed, d: Decode(
        seed, d, DESK, beam=1, shape="short", count=12, pool=240,
        per_round=12, deep=12),
}


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def layer_metrics(tracer, steps, traced_s, untraced_steps_per_s):
    out = {}
    for label in TIMED:
        if label == "params.checkpoint":
            continue
        out[f"{label}_ms"] = metric(1e3 * tracer.self_s[label] / steps, "ms")
        out[f"{label}_share"] = metric(100 * tracer.self_s[label] / traced_s, "%")
    calls = tracer.calls["params.checkpoint"]
    out["params.checkpoint_ms"] = metric(
        1e3 * tracer.self_s["params.checkpoint"] / max(calls, 1), "ms")
    out["autodiff.ops_per_step"] = metric(tracer.ops / steps, "count")
    out["autodiff.taped_ops_per_step"] = metric(tracer.taped_ops / steps, "count")
    out["autodiff.matmul_mflop_per_step"] = metric(
        tracer.matmul_flop / steps / 1e6, "MFLOP")
    out["model.predict_calls_per_step"] = metric(
        tracer.predict_calls / steps, "count")
    traced_rate = steps / traced_s
    out["trace.steps_per_s"] = metric(traced_rate, "1/s")
    out["trace.untraced_steps_per_s"] = metric(untraced_steps_per_s, "1/s")
    out["trace.overhead_pct"] = metric(
        100 * (untraced_steps_per_s / traced_rate - 1), "%")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    wrong = [v for v in BLAS_VARS if os.environ.get(v) != "1"]
    if wrong:
        fail(f"set {', '.join(wrong)} to 1: BLAS must run on one thread", 2)

    work_dir = os.path.join(OUT_DIR, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    wl = WORKLOADS[args.workload](args.seed, work_dir)
    t = time.perf_counter()
    wl.generate()
    generate_s = time.perf_counter() - t

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(labels=["params.checkpoint"], count_ops=False)
    wl.setup()
    setup_s = process_age() - generate_s
    if tracer:
        tracer.remove()
    failures = wl.after_setup()
    wl.warm_up()

    # As many whole rounds as fit: another one starts only if it should
    # end within half a round of the deadline. A traced run alternates
    # untraced and traced rounds so that both see the same machine state.
    rounds = {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    for n in itertools.count(1):
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.install()
            t = time.perf_counter()
            ops, steps, bad = wl.run_round()
            dt = time.perf_counter() - t
            if traced:
                tracer.remove()
            rounds[traced].append((ops, steps, dt))
            attempted += ops
            failed += bad
            failures += wl.check_round()
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 0.5 / n) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures += wl.check()
    untraced = rounds[False]
    if tracer:
        steps = sum(r[1] for r in rounds[True])
        if tracer.predicted_states != steps:
            failures.append(f"the program predicted {tracer.predicted_states} "
                            f"states for {steps} rule steps")
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)

    if tracer:
        traced_s = sum(r[2] for r in rounds[True])
        metrics = layer_metrics(
            tracer, steps, traced_s,
            sum(r[1] for r in untraced) / sum(r[2] for r in untraced))
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "steps_per_s": metric(
                statistics.median(s / dt for _, s, dt in untraced), "1/s"),
            "examples_per_s": metric(
                statistics.median(o / dt for o, _, dt in untraced), "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
