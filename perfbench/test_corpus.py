"""Tests of the benchmark's corpus generator.

Run from the root of a checkout:  python3 -m pytest perfbench/test_corpus.py

The rule counts are recounted from the JSON documents without the
program. The program is used only to induce the grammar, whose symbol
graph must be acyclic with every derivation from the start symbol of the
stated length.
"""
import functools
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import corpus  # noqa: E402
from rulegen.data import load_dataset  # noqa: E402
from rulegen.grammar import induce_grammar  # noqa: E402

SEEDS = (0, 1, 7, 12345)
CASES = [(shape, seed) for shape in corpus.SHAPES for seed in SEEDS]


def _generate(tmp_path, shape, seed, count=12):
    defs, stmts = corpus.SHAPES[shape]
    docs = corpus.generate(seed, count, defs, stmts)
    path = tmp_path / "corpus.jsonl"
    corpus.write_jsonl(docs, path)
    return docs, load_dataset(path)


def _independent_count(doc):
    # Every node with children is one rule application; written apart
    # from corpus.count_rules so that the two counts check each other.
    stack, n = [doc], 0
    while stack:
        node = stack.pop()
        kids = node.get("children", [])
        n += bool(kids)
        stack.extend(kids)
    return n


@pytest.mark.parametrize("shape,seed", CASES)
def test_every_tree_has_the_stated_length(tmp_path, shape, seed):
    docs, _ = _generate(tmp_path, shape, seed)
    stated = corpus.rules_per_derivation(*corpus.SHAPES[shape])
    assert {_independent_count(d["ast"]) for d in docs} == {stated}
    assert {corpus.count_rules(d["ast"]) for d in docs} == {stated}
    assert {len(corpus.rule_keys(d["ast"])) for d in docs} == {stated}


@pytest.mark.parametrize("shape,seed", CASES)
def test_induced_grammar_is_acyclic_with_one_derivation_length(
        tmp_path, shape, seed):
    docs, examples = _generate(tmp_path, shape, seed)
    g = induce_grammar([ex.ast for ex in examples])
    children = {}
    for r in g.rules:
        children.setdefault(r.lhs.name, []).append(
            [s.name for s in r.rhs if s.kind == "nonterminal"])

    visiting, done = set(), set()

    def visit(sym):
        assert sym not in visiting, f"cycle through {sym}"
        if sym in done:
            return
        visiting.add(sym)
        for rhs in children.get(sym, []):
            for s in rhs:
                visit(s)
        visiting.discard(sym)
        done.add(sym)

    visit(g.start_symbol.name)

    @functools.lru_cache(maxsize=None)
    def lengths(sym):
        return frozenset(1 + sum(lens) for rhs in children[sym]
                         for lens in _sums([lengths(s) for s in rhs]))

    stated = corpus.rules_per_derivation(*corpus.SHAPES[shape])
    assert lengths(g.start_symbol.name) == {stated}
    keys = {k for d in docs for k in corpus.rule_keys(d["ast"])}
    assert g.num_rules == len(keys)


def _sums(options):
    """Every combination of one length per rhs symbol, as tuples."""
    combos = [()]
    for opts in options:
        combos = [c + (o,) for c in combos for o in opts]
    return combos


@pytest.mark.parametrize("shape", sorted(corpus.SHAPES))
def test_grammar_size_does_not_depend_on_the_seed(tmp_path, shape):
    sizes = set()
    for seed in SEEDS:
        _, examples = _generate(tmp_path, shape, seed)
        sizes.add(induce_grammar([ex.ast for ex in examples]).num_rules)
    assert len(sizes) == 1


def test_every_example_has_scope_classes_and_copies():
    defs, stmts = corpus.SHAPES["long"]
    for doc in corpus.generate(3, 8, defs, stmts):
        classes = set(corpus.class_of(doc["ast"]).values())
        assert classes == {"structural", "variable", "function_name"}
        text = repr(doc["ast"])
        assert "'scope'" in text
        assert all(s["value"] in text for s in doc["slots"])


def test_beam_width_follows_the_template():
    defs, stmts = corpus.SHAPES["short"]
    docs = [d["ast"] for d in corpus.generate(0, 8, defs, stmts)]
    stated = corpus.rules_per_derivation(defs, stmts)
    assert corpus.beam_expansions(docs, 1) == (stated, 1)
    expansions, hyps = corpus.beam_expansions(docs, 5)
    assert hyps == 5 and stated < expansions <= 5 * stated
