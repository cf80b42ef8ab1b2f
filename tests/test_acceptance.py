"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so the
acceptance status is readable straight off the pytest output.
"""
import json
import os
import time

import numpy as np
import pytest

from oracles import (
    BACKTRACK,
    VISIT,
    decode_from_rules,
    preorder_with_backtrack,
    reconstruct_from_traversal,
    trees_equal,
)
from rulegen import autodiff as ad
from rulegen.ast_tree import (
    AstNode,
    PHD_SYMBOL,
    PartialAst,
    encode_to_rules,
    root_path,
    token_yield,
)
from rulegen.config import ABLATION_TOGGLES, RunConfig
from rulegen.data import synth_corpus
from rulegen.decode import beam_search
from rulegen.encoder import shortcut_cnn
from rulegen.gradcheck import TOLERANCE, run_full_check, run_op_checks
from rulegen.grammar import NONTERMINAL, STRUCTURAL, Symbol, TERMINAL, induce_grammar
from rulegen.metrics import bleu, string_accuracy
from rulegen.model import (
    Model,
    advance,
    attentive_pool,
    initial_state,
    vocabs_from_examples,
)
from rulegen.params import load_params
from rulegen.training import evaluate, train


@pytest.fixture
def criterion(capsys):
    """Run a check, print one uncaptured PASS/FAIL line, re-raise failures."""

    def _run(number, label, fn):
        start = time.perf_counter()
        try:
            fn()
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:2d} {label}: FAIL")
            raise
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"criterion {number:2d} {label}: PASS ({elapsed:.1f}s)")

    return _run


# -- 1: rule-sequence codec round trip ---------------------------------------

def test_criterion_1_codec_roundtrip(criterion, six_examples, fixture_grammar,
                                     random_trees):
    def check():
        start = time.perf_counter()
        g = fixture_grammar
        trees = [ex.ast for ex in six_examples] + list(random_trees)
        assert len(trees) >= 1006
        for tree in trees:
            back = decode_from_rules(encode_to_rules(tree, g), g, tree.symbol)
            assert trees_equal(back, tree)
        assert time.perf_counter() - start < 10.0

    criterion(1, "codec round trip", check)


# -- 2: traversal invertibility ----------------------------------------------

def test_criterion_2_traversal_invertibility(criterion, random_trees):
    def check():
        start = time.perf_counter()
        for tree in random_trees:
            units = preorder_with_backtrack(PartialAst.from_root(tree), False)
            assert trees_equal(reconstruct_from_traversal(units), tree)
        # counterexample: visit-only sequences cannot distinguish these
        nt = lambda n: Symbol(n, NONTERMINAL, STRUCTURAL)
        wide = AstNode(nt("a"), None, (AstNode(nt("b")), AstNode(nt("c"))))
        deep = AstNode(nt("a"), None,
                       (AstNode(nt("b"), None, (AstNode(nt("c")),)),))
        seq = lambda t, keep: [
            (u.node.symbol.name, u.flag)
            for u in preorder_with_backtrack(PartialAst.from_root(t), False)
            if u.flag in keep]
        assert not trees_equal(wide, deep)
        assert seq(wide, (VISIT,)) == seq(deep, (VISIT,))
        assert seq(wide, (VISIT, BACKTRACK)) != seq(deep, (VISIT, BACKTRACK))
        assert time.perf_counter() - start < 10.0

    criterion(2, "traversal invertibility", check)


# -- 3: reference traversal / path sequences ---------------------------------

def test_criterion_3_reference_sequences(criterion):
    def check():
        n6 = AstNode(Symbol("n6", TERMINAL), "n6")
        n3 = AstNode(Symbol("n3", NONTERMINAL, STRUCTURAL), None, (n6,))
        n4 = AstNode(Symbol("n4", NONTERMINAL, STRUCTURAL))
        n5 = AstNode(Symbol("n5", TERMINAL), "n5")
        n2 = AstNode(Symbol("n2", NONTERMINAL, STRUCTURAL), None,
                     (n3, n4, n5))
        tree = PartialAst.from_root(
            AstNode(Symbol("n1", NONTERMINAL, STRUCTURAL), None, (n2,)))
        units = preorder_with_backtrack(tree, with_placeholder=True)
        got = [(u.node.symbol.name if u.node.symbol.name != PHD_SYMBOL.name
                else "PHD", "bt" if u.flag == BACKTRACK else "v")
               for u in units]
        assert got == [
            ("n1", "v"), ("n2", "v"), ("n3", "v"), ("n6", "v"), ("n6", "bt"),
            ("n3", "bt"), ("n4", "v"), ("n4", "bt"), ("PHD", "v"),
            ("PHD", "bt"), ("n5", "v"), ("n5", "bt"), ("n2", "bt"),
            ("n1", "bt"),
        ]
        assert [n.symbol.name for n in root_path(tree)] == ["n1", "n2", "n4"]

    criterion(3, "traversal and path fixtures", check)


# -- 4: gradient correctness -------------------------------------------------

def test_criterion_4_gradient_correctness(criterion):
    def check():
        start = time.perf_counter()
        for name, err in run_op_checks(seed=0).items():
            assert err < TOLERANCE, f"op {name}: {err:.3e}"
        variants = [("base", {})] + [(t, {t: True}) for t in ABLATION_TOGGLES]
        for label, overrides in variants:
            report = run_full_check(dims=4, layers=3, samples_per_tensor=4,
                                    seed=0, **overrides)
            for name, err in report.items():
                assert err < TOLERANCE, f"{label}/{name}: {err:.3e}"
        assert time.perf_counter() - start < 120.0

    criterion(4, "finite-difference gradients", check)


# -- 5: attention laws -------------------------------------------------------

def test_criterion_5_attention_laws(criterion):
    def check():
        rng = np.random.default_rng(0)
        d = 6
        for i in range(100):
            n = int(rng.integers(1, 9))
            y = rng.standard_normal((n, d))
            w = rng.standard_normal((d, d))
            c = rng.standard_normal((1, d))
            pooled = attentive_pool(ad.Tensor(y), ad.Tensor(c),
                                    ad.Tensor(w)).data[0]
            logits = y @ w @ c[0]
            alpha = np.exp(logits - logits.max())
            alpha /= alpha.sum()
            assert abs(alpha.sum() - 1.0) <= 1e-6
            assert np.allclose(pooled, alpha @ y, atol=1e-9)
            # zero controller: uniform weights, i.e. the plain mean
            zero = attentive_pool(ad.Tensor(y), ad.Tensor(np.zeros((1, d))),
                                  ad.Tensor(w)).data[0]
            assert np.max(np.abs(zero - y.mean(axis=0))) < 1e-9
            # a single candidate comes back exactly
            one = attentive_pool(ad.Tensor(y[:1]), ad.Tensor(c),
                                 ad.Tensor(w)).data[0]
            assert np.array_equal(one, y[0])

    criterion(5, "attention pooling laws", check)


# -- 6: shortcut identity for every CNN stack --------------------------------

def test_criterion_6_shortcut_identity(criterion, six_examples,
                                       fixture_grammar):
    def check():
        cfg = RunConfig(dim=5, layers=4, mlp_hidden=5, dropout=0.0, seed=0)
        tv, terms, slots = vocabs_from_examples(six_examples)
        model = Model(fixture_grammar, cfg, tv, terms, slots,
                      dtype=np.float64, seed=0)
        stacks = ("enc/", "structural/rule/", "structural/pre/",
                  "structural/path/")
        rng = np.random.default_rng(1)
        for prefix in stacks:
            for layer in range(1, cfg.layers + 1):
                model.store[f"{prefix}conv{layer}"].data[:] = 0.0
            y0 = ad.Tensor(np.abs(rng.standard_normal((6, cfg.dim))))
            # layer l reads conv{l}, so a stack of l layers gives layer l
            y2, y4 = (shortcut_cnn(model.store, prefix, y0, layers,
                                   cfg.window) for layers in (2, 4))
            assert np.array_equal(y2.data, y0.data), prefix
            assert np.array_equal(y4.data, y2.data), prefix

    criterion(6, "shortcut CNN identity", check)


# -- 7: decode validity guarantee --------------------------------------------

def test_criterion_7_decode_validity(criterion, six_examples,
                                     fixture_grammar):
    def check():
        start = time.perf_counter()
        g = fixture_grammar
        tv, terms, slot_names = vocabs_from_examples(six_examples)
        completed = 0
        for seed in range(200):
            cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, dropout=0.0,
                            seed=seed, max_decode_steps=40)
            model = Model(g, cfg, tv, terms, slot_names,
                          dtype=np.float64, seed=seed)
            ex = six_examples[seed % len(six_examples)]
            result = beam_search(model, ex.description, ex.slots, beam_size=5)
            if result.failed:
                continue
            for h in result.hypotheses:
                completed += 1
                assert h.complete
                # masked rules never fire: each step matches its frontier
                state = initial_state(g, ex.slots)
                for t in h.rule_trace:
                    frontier = state.partial_ast.frontier
                    if t < g.num_rules:
                        assert g.rules[t].lhs.name == frontier.symbol.name
                    else:
                        assert frontier.symbol.node_class == "variable"
                    state = advance(state, t, g)
                # the finished tree re-derives under the grammar
                if all(t < g.num_rules for t in h.rule_trace):
                    assert encode_to_rules(h.ast, g) == list(h.rule_trace)
                else:
                    encode_to_rules(state.partial_ast.root, g)
        assert completed >= 200
        assert time.perf_counter() - start < 120.0

    criterion(7, "beam decode validity", check)


# -- 8 and 11: memorization + bytewise determinism ---------------------------

MEMO_CONFIG = dict(dim=64, layers=5, mlp_hidden=64, epochs=40, dropout=0.0,
                   accumulation_window=4, eval_interval=5, seed=0,
                   stop_at_train_acc=1.0, max_updates=500,
                   max_decode_steps=200)


def memorization_corpus():
    return synth_corpus(num_ops=3, max_depth=2, count=20, seed=0)


def test_criterion_8_memorization(criterion):
    def check():
        start = time.perf_counter()
        examples = memorization_corpus()
        grammar = induce_grammar([ex.ast for ex in examples])
        result = train(examples, [], grammar, RunConfig(**MEMO_CONFIG))
        assert result.updates <= 500
        report = evaluate(result.model, examples)
        assert report["str_acc"] == 1.0
        assert time.perf_counter() - start < 900.0

    criterion(8, "20-example memorization", check)


def test_criterion_11_determinism(criterion, tmp_path):
    def check():
        examples = memorization_corpus()
        grammar = induce_grammar([ex.ast for ex in examples])
        runs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = train(examples, [], grammar, RunConfig(**MEMO_CONFIG),
                           out_dir=str(out))
            runs.append((result, out))
        (ra, da), (rb, db) = runs
        assert ra.log_lines == rb.log_lines
        assert (da / "log.txt").read_bytes() == (db / "log.txt").read_bytes()
        assert (da / "checkpoint.bin").read_bytes() == \
            (db / "checkpoint.bin").read_bytes()

    criterion(11, "seeded training determinism", check)


# -- 9: the copy mechanism is causally necessary -----------------------------

def test_criterion_9_copy_generalization(criterion):
    def check():
        start = time.perf_counter()
        train_set = synth_corpus(num_ops=3, max_depth=1, count=60, seed=0)
        test_set = synth_corpus(num_ops=3, max_depth=1, count=10, seed=7,
                                value_prefix="tval")
        train_vals = {v for ex in train_set for v in ex.slot_values()}
        test_vals = {v for ex in test_set for v in ex.slot_values()}
        assert not train_vals & test_vals  # unseen slot values at test time
        grammar = induce_grammar([ex.ast for ex in train_set])
        scores = {}
        for no_copy in (False, True):
            cfg = RunConfig(dim=64, layers=5, mlp_hidden=64, epochs=60,
                            dropout=0.0, word_dropout=0.15,
                            accumulation_window=4, eval_interval=10, seed=0,
                            stop_at_train_acc=1.0, max_decode_steps=200,
                            no_copy=no_copy)
            result = train(train_set, [], grammar, cfg)
            scores[no_copy] = evaluate(result.model, test_set)["str_acc"]
        assert scores[False] >= 0.90, scores
        assert scores[True] <= 0.10, scores
        assert time.perf_counter() - start < 1800.0

    criterion(9, "copy-mechanism generalization", check)


# -- 10: metric oracles ------------------------------------------------------

def test_criterion_10_metric_oracles(criterion, fixture_path):
    def check():
        with open(os.path.join(fixture_path, "bleu_fixture.json")) as f:
            fx = json.load(f)
        cands = [p["candidate"] for p in fx["pairs"]]
        refs = [p["reference"] for p in fx["pairs"]]
        assert abs(bleu(cands, refs) - fx["bleu"]) < 1e-4
        assert abs(string_accuracy(cands, refs)
                   - fx["string_accuracy"]) < 1e-4
        corpus = [["a", "b", "c"], ["d"], ["e", "f"]]
        assert bleu(corpus, corpus) == 1.0
        assert string_accuracy(corpus, corpus) == 1.0

    criterion(10, "metric reference oracles", check)


# -- 12: ablation toggles reshape the checkpoint as documented ---------------

HEADS = ("structural", "variable", "function_name")


def expected_names(baseline, toggle, layers):
    """Parameter-name set implied by one toggle, from the baseline set."""
    names = set(baseline)
    per_head = lambda suffixes: {f"{h}/{s}" for h in HEADS for s in suffixes}
    convs = lambda stem: [f"{stem}/conv{i}" for i in range(1, layers + 1)]
    if toggle == "no_rule_cnn":
        names -= per_head(convs("rule") + ["att_rule"])
    elif toggle == "no_preorder_cnn":
        names -= per_head(convs("pre") + ["pre_proj"])
    elif toggle == "no_tree_conv":
        names -= per_head(["ast_w"])
    elif toggle == "no_treepath_cnn":
        names -= per_head(convs("path") + ["att_path"])
    elif toggle == "attention_to_maxpool":
        names -= per_head(["att_rule", "att_path", "att_pre", "att_enc"])
    elif toggle == "no_scope":
        names -= {"emb/scope"}
    elif toggle == "extra_treeconv_pool":
        names |= per_head(["att_ast"])
    elif toggle == "no_copy":
        names -= {"emb/slot", "variable/copy_w"}
    elif toggle == "share_heads":
        shared = {"shared/" + n.split("/", 1)[1] for n in baseline
                  if n.startswith("structural/")}
        names = {n for n in baseline
                 if not any(n.startswith(h + "/") for h in HEADS)}
        names |= shared | {"shared/copy_w"}
    else:
        raise AssertionError(f"undocumented toggle {toggle}")
    return names


def test_criterion_12_ablation_harness(criterion, tmp_path):
    def check():
        examples = memorization_corpus()
        grammar = induce_grammar([ex.ast for ex in examples])
        layers = 3

        def checkpoint_names(toggle_kwargs, path):
            cfg = RunConfig(dim=8, layers=layers, mlp_hidden=8, dropout=0.0,
                            epochs=1, accumulation_window=4, seed=0,
                            **toggle_kwargs)
            train(examples, [], grammar, cfg, out_dir=str(path))
            store, _ = load_params(str(path / "checkpoint.bin"))
            return set(store.names())

        baseline = checkpoint_names({}, tmp_path / "base")
        for toggle in ABLATION_TOGGLES:
            got = checkpoint_names({toggle: True}, tmp_path / toggle)
            want = expected_names(baseline, toggle, layers)
            assert got == want, (toggle, got ^ want)

    criterion(12, "ablation parameter sets", check)
