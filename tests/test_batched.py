"""The packed forward pass over many decoder states against one state at
a time, in float64 on the tiny corpus of the gradient check, for the base
config and every ablation toggle."""
import numpy as np
import pytest

from rulegen import autodiff as ad
from rulegen.ast_tree import encode_to_rules
from rulegen.config import ABLATION_TOGGLES, RunConfig
from rulegen.gradcheck import tiny_corpus
from rulegen.grammar import induce_grammar
from rulegen.model import (
    HEAD_CLASSES,
    Model,
    advance,
    attentive_pool,
    initial_state,
    vocabs_from_examples,
)
from rulegen.training import example_loss

VARIANTS = [{}] + [{t: True} for t in ABLATION_TOGGLES]
IDS = ["base"] + list(ABLATION_TOGGLES)


def tiny_model(overrides):
    config = RunConfig(dim=4, layers=3, mlp_hidden=4, dropout=0.0, seed=0,
                       **overrides)
    examples = tiny_corpus(config.seed)
    grammar = induce_grammar([ex.ast for ex in examples])
    model = Model(grammar, config, *vocabs_from_examples(examples),
                  dtype=np.float64, seed=config.seed)
    return model, [(ex, encode_to_rules(
        ex.ast, grammar, () if config.no_copy else ex.slot_values()))
        for ex in examples]


def gold_states(model, example, targets):
    states = [initial_state(model.grammar, example.slots)]
    for t in targets[:-1]:
        states.append(advance(states[-1], t, model.grammar))
    return states


def per_state_loss(model, example, targets):
    """The loss as one predict call per gold step."""
    enc, ctrl = model.encode(example.description)
    total = None
    for state, t in zip(gold_states(model, example, targets), targets):
        step = ad.pick(model.predict(state, enc, ctrl), t)
        total = step if total is None else ad.add(total, step)
    return ad.scale(total, -1.0)


def gradients(model, loss):
    model.store.zero_grad()
    loss.backward()
    grads = {n: p.grad.copy() for n, p in model.store.params.items()}
    model.store.zero_grad()
    return grads


@pytest.mark.parametrize("overrides", VARIANTS, ids=IDS)
def test_batched_loss_and_gradients_match_per_state(overrides):
    model, batches = tiny_model(overrides)
    for ex, targets in batches:
        batched = example_loss(model, ex, targets)
        reference = per_state_loss(model, ex, targets)
        assert abs(batched.item() - reference.item()) \
            <= 1e-10 * abs(reference.item())
        got, want = gradients(model, batched), gradients(model, reference)
        for name in model.store.names():
            assert np.allclose(got[name], want[name], rtol=1e-9, atol=1e-12), name


@pytest.mark.parametrize("overrides", VARIANTS, ids=IDS)
def test_batched_rows_match_single_state_predictions(overrides):
    model, batches = tiny_model(overrides)
    r = model.grammar.num_rules
    classes, copy_rows = set(), 0
    for ex, targets in batches:
        enc, ctrl = model.encode(ex.description)
        states = gold_states(model, ex, targets)
        rows = model.predict(states, enc, ctrl).data
        assert rows.shape[0] == len(states)
        for state, got in zip(states, rows):
            classes.add(state.partial_ast.frontier.symbol.node_class)
            one = model.predict(state, enc, ctrl).data
            assert one.ndim == 1
            copy_rows += len(one) > r
            # a row that cannot copy has -inf in the copy columns
            assert np.all(np.isneginf(got[len(one):]))
            got = got[:len(one)]
            finite = np.isfinite(one)
            assert np.array_equal(np.isfinite(got), finite)
            assert np.allclose(got[finite], one[finite], rtol=1e-10, atol=0)
    assert classes == {"structural", "variable", "function_name"}
    assert copy_rows > 0 or overrides.get("no_copy")


@pytest.mark.parametrize("overrides", VARIANTS, ids=IDS)
def test_predictions_without_a_graph_are_the_recorded_bits(overrides):
    model, batches = tiny_model(overrides)
    for ex, targets in batches:
        states = gold_states(model, ex, targets)
        for arg in [states] + states:
            recorded = model.predict(arg, *model.encode(ex.description))
            with ad.no_graph():
                bare = model.predict(arg, *model.encode(ex.description))
            assert recorded._backward_fn is not None
            assert bare._parents == () and bare._backward_fn is None
            assert np.array_equal(bare.data, recorded.data)


def test_packed_attentive_pool_matches_one_pool_per_segment():
    rng = np.random.default_rng(3)
    lengths, d = [2, 1, 4], 3
    y = rng.standard_normal((sum(lengths), d))
    c = rng.standard_normal((len(lengths), d))
    w = rng.standard_normal((d, d))
    packed = attentive_pool(ad.Tensor(y), ad.Tensor(c), ad.Tensor(w),
                            lengths).data
    starts = np.cumsum([0] + lengths[:-1])
    for t, (s, n) in enumerate(zip(starts, lengths)):
        alone = attentive_pool(ad.Tensor(y[s:s + n]), ad.Tensor(c[t:t + 1]),
                               ad.Tensor(w)).data[0]
        assert np.allclose(packed[t], alone, rtol=1e-12, atol=1e-15)
    # without lengths every row pools over all candidates
    shared = attentive_pool(ad.Tensor(y), ad.Tensor(c), ad.Tensor(w)).data
    for t in range(len(lengths)):
        alone = attentive_pool(ad.Tensor(y), ad.Tensor(c[t:t + 1]),
                               ad.Tensor(w)).data[0]
        assert np.allclose(shared[t], alone, rtol=1e-12, atol=1e-15)


def test_predict_rejects_states_with_different_slots():
    model, batches = tiny_model({})
    ex, _ = batches[0]
    enc, ctrl = model.encode(ex.description)
    a = initial_state(model.grammar, ex.slots)
    b = initial_state(model.grammar, [("other", "value")])
    with pytest.raises(ValueError):
        model.predict([a, b], enc, ctrl)


class RecordingRng:
    """A seeded generator that records the shape of every draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.shapes = []

    def random(self, shape=None):
        self.shapes.append(shape)
        return self.rng.random(shape)


def test_dropout_masks_are_drawn_per_head_group_in_head_order():
    model, batches = tiny_model({})
    model.config = RunConfig(dim=4, layers=3, mlp_hidden=4, dropout=0.5,
                             seed=0)
    ex, targets = batches[0]
    states = gold_states(model, ex, targets)
    enc, ctrl = model.encode(ex.description)
    rng = RecordingRng(9)
    model.predict(states, enc, ctrl, rng)
    want = []
    for head in HEAD_CLASSES:
        n = sum(s.partial_ast.frontier.symbol.node_class == head
                for s in states)
        if n:
            want += [(n, len(model.aggregate_slots()) * model.config.dim),
                     (n, 4)]
    assert rng.shapes == want
