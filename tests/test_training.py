import os

import numpy as np
import pytest

from rulegen.ast_tree import encode_to_rules, token_yield
from rulegen.config import RunConfig
from rulegen.data import synth_corpus
from rulegen.grammar import (
    NONTERMINAL,
    Grammar,
    GrammarRule,
    MissingRuleError,
    Symbol,
    induce_grammar,
)
from rulegen.model import Model, vocabs_from_examples
from rulegen.training import (
    evaluate,
    example_loss,
    train,
)


@pytest.fixture(scope="module")
def tiny():
    exs = synth_corpus(num_ops=2, max_depth=1, count=4, seed=0)
    g = induce_grammar([ex.ast for ex in exs])
    return exs, g


def test_derivation_targets_prefer_copy(tiny):
    exs, g = tiny
    ex = exs[0]
    with_copy = encode_to_rules(ex.ast, g, ex.slot_values())
    without = encode_to_rules(ex.ast, g)
    assert len(with_copy) == len(without)
    assert any(t >= g.num_rules for t in with_copy)
    assert all(t < g.num_rules for t in without)


def test_derivation_targets_missing_rule(tiny):
    exs, g = tiny
    other = synth_corpus(num_ops=2, max_depth=1, count=1, seed=99,
                         value_prefix="unseen")[0]
    stripped = type(other)(other.id, other.description, [], other.ast)
    with pytest.raises(MissingRuleError):
        encode_to_rules(stripped.ast, g, stripped.slot_values())


def test_example_loss_positive(tiny):
    exs, g = tiny
    cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, dropout=0.0, seed=0)
    tv, terms, slots = vocabs_from_examples(exs)
    model = Model(g, cfg, tv, terms, slots, dtype=np.float64, seed=0)
    targets = encode_to_rules(exs[0].ast, g, exs[0].slot_values())
    loss = example_loss(model, exs[0], targets)
    assert loss.item() > 0
    loss.backward()  # differentiable end to end


def test_example_loss_without_a_generator_applies_no_dropout(tiny):
    """A pass trains iff it gets a generator: without one, dropout and
    word dropout leave the loss as if both rates were 0."""
    exs, g = tiny
    vocabs = vocabs_from_examples(exs)
    targets = encode_to_rules(exs[0].ast, g, exs[0].slot_values())
    losses = []
    for dropout, word_dropout in ((0.5, 0.3), (0.0, 0.0)):
        cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, dropout=dropout,
                        word_dropout=word_dropout, seed=0)
        model = Model(g, cfg, *vocabs, dtype=np.float64)
        losses.append(example_loss(model, exs[0], targets).item())
    assert losses[0] == losses[1]


def test_single_example_memorization(tiny, tmp_path):
    exs, g = tiny
    cfg = RunConfig(dim=16, layers=3, mlp_hidden=16, epochs=60, dropout=0.0,
                    accumulation_window=1, seed=0, eval_interval=1000,
                    stop_at_train_acc=1.0, max_decode_steps=60)
    result = train(exs[:1], [], g, cfg, out_dir=None)
    report = evaluate(result.model, exs[:1])
    assert report["str_acc"] == 1.0
    assert report["bleu"] == 1.0


def test_train_writes_artifacts_and_logs(tiny, tmp_path):
    exs, g = tiny
    cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, epochs=1, dropout=0.0,
                    accumulation_window=2, seed=0, max_decode_steps=40)
    out = tmp_path / "run"
    result = train(exs, exs[:2], g, cfg, out_dir=str(out))
    assert (out / "config.json").exists()
    # one token per line, in index order, PAD and UNK first
    assert (out / "vocab.txt").read_text(encoding="utf-8").splitlines() == \
        result.model.token_vocab
    assert result.model.token_vocab[:3] == ["<pad>", "<unk>", "fn2"]
    assert (out / "checkpoint.bin").exists()
    assert (out / "log.txt").exists()
    epoch_lines = [l for l in result.log_lines if l.startswith("epoch ")]
    assert len(epoch_lines) == 1
    assert "loss" in epoch_lines[0]
    Model.load(str(out / "checkpoint.bin"), g)  # must load back


def test_underivable_examples_skipped_and_logged(tiny):
    exs, g = tiny
    alien = synth_corpus(num_ops=2, max_depth=1, count=1, seed=77,
                         value_prefix="zzz")[0]
    stripped = type(alien)(alien.id, alien.description, [], alien.ast)
    cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, epochs=1, dropout=0.0,
                    accumulation_window=2, seed=0)
    result = train(exs + [stripped], [], g, cfg)
    assert result.skipped == 1
    assert any("skipped 1" in l for l in result.log_lines)


def test_evaluate_bypass_gold(tiny):
    exs, g = tiny
    cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, dropout=0.0, seed=0)
    tv, terms, slots = vocabs_from_examples(exs)
    model = Model(g, cfg, tv, terms, slots, seed=0)
    report = evaluate(model, exs, bypass_gold=True)
    assert report["str_acc"] == 1.0
    assert report["bleu"] == 1.0
    assert len(report["examples"]) == len(exs)
    for rec in report["examples"]:
        assert rec["match"] is True


def test_evaluate_counts_failures_by_cause(tiny):
    """A budget of one step is spent on every example; over ``S -> X``
    with no rule for ``X``, every decode dies at a dead end."""
    exs, g = tiny
    vocabs = vocabs_from_examples(exs)
    cfg = RunConfig(dim=8, layers=2, mlp_hidden=8, seed=0, max_decode_steps=1)
    report = evaluate(Model(g, cfg, *vocabs, seed=0), exs)
    assert report["failures"] == {"step_budget": len(exs), "dead_end": 0}
    assert report["str_acc"] == 0.0
    report = evaluate(Model(g, cfg, *vocabs, seed=0), exs, bypass_gold=True)
    assert report["failures"] == {"step_budget": 0, "dead_end": 0}
    s, x = Symbol("S", NONTERMINAL), Symbol("X", NONTERMINAL)
    dead = Grammar([GrammarRule(0, s, (x,))], {"S": s, "X": x},
                   start_symbol=s)
    cfg = RunConfig(dim=8, layers=2, mlp_hidden=8, seed=0)
    report = evaluate(Model(dead, cfg, *vocabs, seed=0), exs)
    assert report["failures"] == {"step_budget": 0, "dead_end": len(exs)}


def test_metrics_recomputable_from_records(tiny):
    exs, g = tiny
    cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, dropout=0.0, seed=0,
                    max_decode_steps=40)
    tv, terms, slots = vocabs_from_examples(exs)
    model = Model(g, cfg, tv, terms, slots, seed=0)
    report = evaluate(model, exs)
    matches = sum(1 for r in report["examples"] if r["match"])
    assert report["str_acc"] == matches / len(exs)


def test_training_determinism(tiny, tmp_path):
    exs, g = tiny
    cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, epochs=2, dropout=0.3,
                    accumulation_window=2, seed=5, eval_interval=1000)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    ra = train(exs, [], g, cfg, out_dir=str(out_a))
    rb = train(exs, [], g, cfg, out_dir=str(out_b))
    assert ra.log_lines == rb.log_lines
    assert (out_a / "checkpoint.bin").read_bytes() == \
        (out_b / "checkpoint.bin").read_bytes()


def test_returned_model_is_the_saved_best_dev_model(tiny, tmp_path):
    exs, g = tiny
    cfg = RunConfig(dim=8, layers=2, mlp_hidden=8, epochs=4, dropout=0.0,
                    accumulation_window=1, seed=0, eval_interval=1,
                    patience=10, max_decode_steps=40)
    out = tmp_path / "run"
    result = train(exs, exs[:2], g, cfg, out_dir=str(out))
    saved = Model.load(str(out / "checkpoint.bin"), g)
    assert saved.store.names() == result.model.store.names()
    for name in saved.store.names():
        assert np.array_equal(result.model.store[name].data,
                              saved.store[name].data), name
