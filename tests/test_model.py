import dataclasses
import json

import numpy as np
import pytest

from oracles import trees_equal
from rulegen import autodiff as ad
from rulegen.ast_tree import AstNode, PartialAst, encode_to_rules
from rulegen.config import RunConfig
from rulegen.encoder import PAD_TOKEN, UNK_TOKEN
from rulegen.grammar import NONTERMINAL, VARIABLE, Symbol
from rulegen.model import (
    AGGREGATE_ORDER,
    DeadEndError,
    DecoderState,
    Model,
    advance,
    attentive_pool,
    grammar_hash,
    initial_state,
    vocabs_from_examples,
)


def predict_probs(model, state, description="init v a", slots=None):
    enc, ctrl = model.encode(description)
    logp = model.predict(state, enc, ctrl)
    return np.exp(logp.data)


# --- attention laws ------------------------------------------------------

def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 7))
        y = ad.Tensor(rng.standard_normal((n, d)))
        c = ad.Tensor(rng.standard_normal((1, d)))
        w = ad.Tensor(rng.standard_normal((d, d)))
        logits = ad.matmul(c, ad.matmul(y, w), transpose_b=True)
        alpha = ad.softmax(logits).data[0]
        assert abs(alpha.sum() - 1.0) < 1e-6
        pooled = attentive_pool(y, c, w).data[0]
        assert np.allclose(pooled, alpha @ y.data, atol=1e-12)


def test_zero_controller_gives_uniform_mean():
    rng = np.random.default_rng(1)
    y = ad.Tensor(rng.standard_normal((5, 4)))
    c = ad.Tensor(np.zeros((1, 4)))
    w = ad.Tensor(rng.standard_normal((4, 4)))
    pooled = attentive_pool(y, c, w).data[0]
    assert np.max(np.abs(pooled - y.data.mean(axis=0))) < 1e-9


def test_single_candidate_returns_it_exactly():
    rng = np.random.default_rng(2)
    y = ad.Tensor(rng.standard_normal((1, 4)))
    c = ad.Tensor(rng.standard_normal((1, 4)))
    w = ad.Tensor(rng.standard_normal((4, 4)))
    assert np.array_equal(attentive_pool(y, c, w).data[0], y.data[0])


def test_attention_two_candidate_worked_example():
    y = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    c = ad.Tensor(np.array([[1.0, 0.0]]))
    w = ad.Tensor(np.eye(2))
    pooled = attentive_pool(y, c, w).data[0]
    assert np.allclose(pooled, [0.7311, 0.2689], atol=1e-4)


# --- predict properties --------------------------------------------------

def test_masked_distribution_sums_to_one(small_model, fixture_grammar):
    state = initial_state(fixture_grammar, slots=[("arg", "a")])
    probs = predict_probs(small_model, state)
    valid = np.isfinite(np.log(np.where(probs > 0, probs, 1e-300)))
    assert abs(probs.sum() - 1.0) < 1e-6
    # root has a single rule: probability 1 on it
    assert probs[0] == pytest.approx(1.0)
    assert np.all(probs[1:] == 0.0)


def test_masked_entries_exactly_zero(small_model, fixture_grammar):
    g = fixture_grammar
    state = initial_state(g, slots=[("arg", "a")])
    state = advance(state, 0, g)  # S -> F B; frontier now F
    probs = predict_probs(small_model, state)
    f_ids = set(g.lhs_index["F"])
    for i, p in enumerate(probs):
        if i not in f_ids:
            assert p == 0.0
    assert abs(probs.sum() - 1.0) < 1e-6


def test_variable_head_includes_copy_targets(small_model, fixture_grammar):
    g = fixture_grammar
    state = initial_state(g, slots=[("arg", "z1"), ("other", "z2")])
    for rid in [0, 1, 2, 3]:  # S->F B, F->init, B->A, A->V
        state = advance(state, rid, g)
    assert state.partial_ast.frontier.symbol.name == "V"
    probs = predict_probs(small_model, state)
    assert probs.shape == (g.num_rules + 2,)
    nonzero = np.flatnonzero(probs)
    expected = sorted(list(g.lhs_index["V"]) + [g.num_rules, g.num_rules + 1])
    assert sorted(nonzero.tolist()) == expected
    assert abs(probs.sum() - 1.0) < 1e-6


def test_copy_advance_produces_slot_value(small_model, fixture_grammar):
    g = fixture_grammar
    state = initial_state(g, slots=[("arg", "fresh_value")])
    for rid in [0, 1, 2, 3]:
        state = advance(state, rid, g)
    state = advance(state, g.num_rules, g)  # copy slot 0
    from rulegen.ast_tree import token_yield

    assert "fresh_value" in token_yield(state.partial_ast.root)


def test_head_disjointness(six_examples, fixture_grammar, small_config):
    tv, terms, slots = vocabs_from_examples(six_examples)
    model = Model(fixture_grammar, small_config, tv, terms, slots,
                  dtype=np.float64, seed=0)
    g = fixture_grammar
    state = initial_state(g, slots=[("arg", "a")])
    state = advance(state, 0, g)  # frontier F: function_name head
    before = predict_probs(model, state)
    for name in model.store.names():
        if name.startswith("structural/") or name.startswith("variable/"):
            model.store[name].data += 10.0
    after = predict_probs(model, state)
    assert np.array_equal(before, after)


def test_argmax_stable_under_logit_shift(small_model, fixture_grammar):
    g = fixture_grammar
    state = initial_state(g, slots=[])
    state = advance(state, 0, g)
    enc, ctrl = small_model.encode("init v a")
    logp = small_model.predict(state, enc, ctrl).data
    finite = np.isfinite(logp)
    shifted = np.where(finite, logp + 5.0, logp)
    assert np.argmax(logp) == np.argmax(shifted)


def test_share_heads_single_parameter_family(six_examples, fixture_grammar):
    cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, dropout=0.0,
                    share_heads=True)
    tv, terms, slots = vocabs_from_examples(six_examples)
    model = Model(fixture_grammar, cfg, tv, terms, slots, seed=0)
    heads = {n.split("/")[0] for n in model.store.names()
             if not n.startswith("emb/") and not n.startswith("enc/")}
    assert heads == {"shared"}


def test_dead_end_without_rules_or_slots(small_model, fixture_grammar):
    # a frontier symbol with no rules and no slots to copy is a dead end;
    # so is a complete tree, which has no frontier at all
    enc, ctrl = small_model.encode("init v a")
    orphan = Symbol("NoSuch", NONTERMINAL, VARIABLE)
    state = DecoderState((), PartialAst.from_root(AstNode(orphan)), ())
    with pytest.raises(DeadEndError):
        small_model.predict(state, enc, ctrl)
    g = fixture_grammar
    state = initial_state(g, slots=[])
    for rid in [0, 1, 2, 3, 4]:
        state = advance(state, rid, g)
    assert state.partial_ast.complete
    with pytest.raises(DeadEndError):
        small_model.predict(state, enc, ctrl)


def test_aggregate_width_matches_order(small_model):
    agg = len(small_model.aggregate_slots()) * small_model.config.dim
    assert agg == 6 * small_model.config.dim
    assert AGGREGATE_ORDER[:6] == ("att_rule", "att_path", "att_pre",
                                   "att_enc", "max_enc", "max_pre")


def test_reference_pipeline_oracle(small_model, six_examples, fixture_grammar):
    """predict equals a straight-line evaluation of
    aggregate -> MLP -> masked softmax."""
    g = fixture_grammar
    m = small_model
    state = initial_state(g, slots=[("arg", "a")])
    state = advance(state, 0, g)  # frontier F
    enc, ctrl = m.encode(six_examples[0].description)
    logp = m.predict(state, enc, ctrl).data

    head = "function_name"
    agg = m.aggregate([state], enc, ctrl, head).data[0]
    w1, b1 = m.store[f"{head}/mlp_w1"].data, m.store[f"{head}/mlp_b1"].data
    w2, b2 = m.store[f"{head}/mlp_w2"].data, m.store[f"{head}/mlp_b2"].data
    h = np.maximum(w1 @ agg + b1, 0.0)
    logits = w2 @ h + b2
    mask = np.zeros(g.num_rules, dtype=bool)
    mask[list(g.lhs_index["F"])] = True
    ref = np.full(g.num_rules, -np.inf)
    vals = logits[mask]
    ref[mask] = vals - vals.max() - np.log(np.exp(vals - vals.max()).sum())
    assert np.allclose(logp, ref, atol=1e-10, equal_nan=False)


def test_loss_sanity_near_uniform_at_init(small_model, six_examples,
                                          fixture_grammar):
    """Initial per-step loss should sit near log(valid-choice count)."""
    g = fixture_grammar
    total = expect = 0.0
    steps = 0
    for ex in six_examples:
        targets = encode_to_rules(ex.ast, g, ex.slot_values())
        enc, ctrl = small_model.encode(ex.description)
        state = initial_state(g, ex.slots)
        for t in targets:
            logp = small_model.predict(state, enc, ctrl)
            total += -float(logp.data[t])
            expect += np.log(np.isfinite(logp.data).sum())
            state = advance(state, t, g)
            steps += 1
    assert abs(total - expect) / expect < 0.10


def test_teacher_forced_state_matches_replay(six_examples, fixture_grammar):
    g = fixture_grammar
    for ex in six_examples:
        targets = encode_to_rules(ex.ast, g)
        assert all(t < g.num_rules for t in targets)  # no slots, no copies
        state = initial_state(g, ex.slots)
        for t in targets:
            state = advance(state, t, g)
        assert state.partial_ast.complete
        assert trees_equal(state.partial_ast.root, ex.ast)


def test_save_load_roundtrip(small_model, fixture_grammar, tmp_path):
    path = tmp_path / "model.bin"
    small_model.save(path)
    loaded = Model.load(path, fixture_grammar)
    assert loaded.store.names() == small_model.store.names()
    for n in small_model.store.names():
        assert np.allclose(loaded.store[n].data, small_model.store[n].data,
                           atol=1e-6)
    assert loaded.token_vocab == small_model.token_vocab
    assert loaded.terminal_vocab == small_model.terminal_vocab
    assert loaded.slot_name_vocab == small_model.slot_name_vocab


def test_vocabularies_in_first_occurrence_order_with_reserved_tokens(
        six_examples, fixture_grammar, small_config):
    examples = [dataclasses.replace(ex, description=d) for ex, d in
                zip(six_examples, ["hello world", "hello again", ""])]
    tokens, terminals, slot_names = vocabs_from_examples(examples)
    assert tokens == [PAD_TOKEN, UNK_TOKEN, "hello", "world", "again"]
    assert len(set(terminals)) == len(terminals)
    assert len(set(slot_names)) == len(slot_names)
    model = Model(fixture_grammar, small_config, tokens, terminals,
                  slot_names, dtype=np.float64, seed=0)
    assert model.token_index == {t: i for i, t in enumerate(tokens)}
    # an unseen token reads the UNK row, index 1
    feats, _ = model.encode("hello nope")
    expect, _ = model._sequence_cnn("emb/token", [[2, 1]], "enc/")
    assert np.array_equal(feats.data, expect.data)


def test_load_keeps_pad_and_unk_first_and_first_index_of_a_repeat(
        small_model, fixture_grammar, tmp_path):
    path = tmp_path / "model.bin"
    small_model.save(path)
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    tokens = header["extras"]["token_vocab"]
    # a repeated entry past the reserved pair is dropped, as is a
    # rewritten reserved pair
    header["extras"]["token_vocab"] = ["x", "y"] + tokens[2:] + tokens[2:3]
    path.write_bytes(json.dumps(header).encode() + raw[nl:])
    loaded = Model.load(path, fixture_grammar)
    assert loaded.token_vocab == small_model.token_vocab


def test_load_rejects_wrong_grammar(small_model, six_examples, tmp_path):
    from rulegen.grammar import induce_grammar
    from rulegen.params import CheckpointError

    path = tmp_path / "model.bin"
    small_model.save(path)
    other = induce_grammar([six_examples[0].ast])
    with pytest.raises(CheckpointError):
        Model.load(path, other)


def drop_flag(layout):
    return [(n, s) for n, s in layout if n != "emb/flag"]


def reshape_flag(layout):
    return [(n, (4, 4) if n == "emb/flag" else s) for n, s in layout]


@pytest.mark.parametrize("change, message", [
    (drop_flag, "checkpoint lacks parameter 'emb/flag'"),
    (lambda layout: layout + [("extra/w", (2, 2))],
     "checkpoint has unexpected parameter 'extra/w'"),
    (reshape_flag, "checkpoint parameter 'emb/flag' has shape (4, 4), "
     "the config needs (2, 8)"),
], ids=["missing", "extra", "misshapen"])
def test_load_rejects_a_parameter_layout_the_config_does_not_need(
        small_model, fixture_grammar, tmp_path, change, message):
    from rulegen.params import CheckpointError, ParamStore

    store = small_model.store
    small_model.store = ParamStore(change([(n, store[n].shape)
                                           for n in store.names()]))
    path = tmp_path / "model.bin"
    small_model.save(path)
    with pytest.raises(CheckpointError) as e:
        Model.load(path, fixture_grammar)
    assert str(e.value) == message


def test_grammar_hash_stable(fixture_grammar):
    assert grammar_hash(fixture_grammar) == grammar_hash(fixture_grammar)
