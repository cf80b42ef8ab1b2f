import json
import os

import numpy as np
import pytest

from rulegen.ast_tree import AstNode
from rulegen.config import RunConfig
from oracles import random_tree
from rulegen.data import load_dataset
from rulegen.grammar import NONTERMINAL, TERMINAL, Symbol, induce_grammar
from rulegen.model import Model, vocabs_from_examples

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture(scope="session")
def fixture_path():
    return FIXTURES


@pytest.fixture(scope="session")
def six_examples():
    return load_dataset(os.path.join(FIXTURES, "six_trees.jsonl"))


@pytest.fixture(scope="session")
def manifest():
    with open(os.path.join(FIXTURES, "manifest.json")) as f:
        return json.load(f)


@pytest.fixture(scope="session")
def fixture_grammar(six_examples):
    return induce_grammar([ex.ast for ex in six_examples])


@pytest.fixture(scope="session")
def chain_grammar():
    """Rule 0 is the recursive ``A -> A``, rule 1 ends a chain, ``A -> x``."""
    a = Symbol("A", NONTERMINAL)
    leaf = AstNode(a, None, (AstNode(Symbol("tok", TERMINAL), "x"),))
    return induce_grammar([AstNode(a, None, (leaf,))])


@pytest.fixture(scope="session")
def random_trees(fixture_grammar):
    rng = np.random.default_rng(12345)
    return [random_tree(fixture_grammar, rng, max_depth=8)
            for _ in range(1000)]


@pytest.fixture()
def small_config():
    return RunConfig(dim=8, layers=3, mlp_hidden=8, dropout=0.0, seed=0)


@pytest.fixture()
def small_model(six_examples, fixture_grammar, small_config):
    tv, terms, slots = vocabs_from_examples(six_examples)
    return Model(fixture_grammar, small_config, tv, terms, slots,
                 dtype=np.float64, seed=0)
