#!/usr/bin/env python3
"""In-process A/B timing of two rulegen source trees on a benchmark workload.

Usage, from the root of a checkout:

    python3 scripts/ab.py --base ../parent --change . \\
        --workload decode_greedy_short --seed 11 --pairs 20 --chunk 0.6

Each tree's ``src/rulegen`` is imported under its own package name, so
both run in one process and see the same phase of the machine. Both
sides get the same inputs, generated by ``perfbench/corpus.py`` with the
workload's seed and shapes (the configs and sizes mirror ``WORKLOADS`` in
``perfbench/run.py``). Before timing, the script checks that both sides
give the same decode traces and log-probabilities on every query of the
pool that the timed rounds cycle through, or the same training log, and
says so when they differ.

The timed part runs ``--pairs`` pairs of chunks. A chunk is as many whole
rounds of the workload as fit in ``--chunk`` seconds: one ``train`` call,
or one round of ``beam_search`` calls. Which side runs first alternates
from pair to pair. For each pair the ratio is change / base steps per
second; the report gives the median ratio, its quartiles, the pairs the
change won and a verdict: "changed" when the quartiles exclude 1.0,
"unresolved" otherwise. The last line of standard output is the report
as one JSON object. Peak RSS and setup time cannot be split by side in
one process; ``perfbench/run.py`` measures those.

Comparing a tree with itself (an A/A run) measures the noise floor;
``--change-first`` imports the change's tree first, to check that the
import order biases nothing.
"""
import argparse
import dataclasses
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
import time

# BLAS on one thread, as perfbench/run.py requires, unless set otherwise
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import corpus  # noqa: E402  (perfbench/corpus.py, standard library only)

MODULES = ("config", "data", "decode", "grammar", "model", "training")

# name -> (config overrides of RunConfig(), beam or None for training,
# tree shape, corpus size, query pool, queries per round)
WORKLOADS = {
    "train_long": ({"epochs": 3}, None, "long", 8, 0, 0),
    "decode_beam5": ({}, 5, "long", 8, 32, 3),
    "decode_greedy_short": ({"dim": 64, "layers": 5, "mlp_hidden": 64},
                            1, "short", 12, 240, 12),
}


def import_tree(tree, name):
    """The modules of ``tree``/src/rulegen, imported as package ``name``."""
    pkg_dir = os.path.join(os.path.abspath(tree), "src", "rulegen")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    if spec is None:
        sys.exit(f"error: no rulegen package under {tree}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


class Side:
    """One tree's copy of the workload: its inputs, its model and a round
    counter, so that both sides decode the same queries in turn."""

    def __init__(self, mods, workload, seed, data_dir, work_dir):
        overrides, self.beam, shape, count, self.pool, self.per_round = (
            WORKLOADS[workload])
        self.mods = mods
        self.rounds = 0
        self.config = dataclasses.replace(
            mods["config"].RunConfig(**overrides), seed=seed)
        load = mods["data"].load_dataset
        self.examples = load(os.path.join(data_dir, "corpus.jsonl"))
        self.grammar = mods["grammar"].induce_grammar(
            [ex.ast for ex in self.examples])
        self.out_dir = os.path.join(work_dir, "run")
        if self.beam is None:
            return
        self.queries = load(os.path.join(data_dir, "queries.jsonl"))
        model_mod = mods["model"]
        built = model_mod.Model(
            self.grammar, self.config,
            *model_mod.vocabs_from_examples(self.examples), seed=seed)
        checkpoint = os.path.join(work_dir, "model.bin")
        built.save(checkpoint)
        self.model = model_mod.Model.load(checkpoint, self.grammar)

    def decode(self, queries):
        """A comparable digest of the decodes of ``queries``."""
        digest = []
        for q in queries:
            result = self.mods["decode"].beam_search(
                self.model, q.description, q.slots, beam_size=self.beam)
            digest.append([(h.rule_trace, float(h.log_prob).hex(),
                            [float(s).hex() for s in h.step_log_probs])
                           for h in result.hypotheses])
        return digest

    def run_round(self):
        """One round; returns a comparable digest of its outputs."""
        if self.beam is None:
            result = self.mods["training"].train(
                self.examples, [], self.grammar, self.config,
                out_dir=self.out_dir)
            return result.log_lines
        first = self.rounds * self.per_round
        self.rounds += 1
        return self.decode(self.queries[(first + i) % self.pool]
                           for i in range(self.per_round))

    def all_outputs(self):
        """A digest of every output the timed rounds produce: one training
        run, or the decodes of the whole query pool."""
        if self.beam is None:
            return self.run_round()
        return self.decode(self.queries)

    def chunk(self, seconds):
        """Whole rounds until ``seconds`` have passed; rounds per second."""
        n = 0
        start = time.perf_counter()
        while True:
            self.run_round()
            n += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return n / elapsed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="root of the base tree")
    p.add_argument("--change", required=True, help="root of the changed tree")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--chunk", type=float, default=0.6,
                   help="seconds of whole rounds per side and pair")
    p.add_argument("--change-first", action="store_true",
                   help="import the changed tree before the base tree")
    args = p.parse_args(argv)
    if args.pairs < 2 or args.chunk <= 0:
        p.error("--pairs must be at least 2 and --chunk positive")

    order = [("change", args.change), ("base", args.base)]
    if not args.change_first:
        order.reverse()
    mods = {label: import_tree(tree, f"rulegen_ab_{label}")
            for label, tree in order}

    overrides, beam, shape, count, pool, per_round = WORKLOADS[args.workload]
    defs, stmts = corpus.SHAPES[shape]
    with tempfile.TemporaryDirectory(prefix="rulegen-ab-") as tmp:
        docs = corpus.generate(args.seed, count + pool, defs, stmts)
        corpus.write_jsonl(docs[:count], os.path.join(tmp, "corpus.jsonl"))
        corpus.write_jsonl(docs[count:], os.path.join(tmp, "queries.jsonl"))
        # rule steps per round, counted as perfbench/run.py counts them
        if beam is None:
            steps_per_round = overrides["epochs"] * sum(
                corpus.count_rules(d["ast"]) for d in docs[:count])
        else:
            steps_per_round = per_round * corpus.beam_expansions(
                [d["ast"] for d in docs[:count]], beam)[0]
        sides = {}
        for label, _ in order:
            work_dir = os.path.join(tmp, label)
            os.makedirs(work_dir)
            sides[label] = Side(mods[label], args.workload, args.seed, tmp,
                                work_dir)

        # the warm-up of each side checks every output that is timed
        same = sides["base"].all_outputs() == sides["change"].all_outputs()
        if not same:
            print("warning: the two trees give different outputs",
                  file=sys.stderr)

        ratios, rates = [], {"base": [], "change": []}
        for i in range(args.pairs):
            labels = ("base", "change") if i % 2 == 0 else ("change", "base")
            for label in labels:
                rates[label].append(
                    sides[label].chunk(args.chunk) * steps_per_round)
            ratios.append(rates["change"][-1] / rates["base"][-1])
            print(f"pair {i + 1:3d}: base {rates['base'][-1]:9.1f} "
                  f"change {rates['change'][-1]:9.1f} steps/s, "
                  f"ratio {ratios[-1]:.3f}", file=sys.stderr)

    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    verdict = "changed" if q1 > 1.0 or q3 < 1.0 else "unresolved"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "same_outputs": same,
        "import_order": [label for label, _ in order],
        "base_steps_per_s": statistics.median(rates["base"]),
        "change_steps_per_s": statistics.median(rates["change"]),
        "ratio_median": median,
        "ratio_quartiles": [q1, q3],
        "wins": sum(r > 1.0 for r in ratios),
        "verdict": verdict,
    }
    print(f"{args.workload}: ratio x{median:.3f} ({q1:.3f}-{q3:.3f}), "
          f"change faster in {report['wins']}/{args.pairs} pairs: {verdict}"
          + ("" if same else "; outputs differ"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
