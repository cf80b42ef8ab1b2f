"""Beam search's per-decode memo (``Model.predict(..., memo=...)``)
against the memo-free serial search of ``oracles``, and the reach of the
memo: computed once per key (a call's tuple of per-state keys, so once
per distinct path or scope in beam search's one-state calls), and never
in a recording pass."""
import numpy as np
import pytest

from rulegen import autodiff as ad
from rulegen.ast_tree import encode_to_rules
from rulegen.config import ABLATION_TOGGLES, RunConfig
from rulegen.decode import beam_search
from rulegen.model import Model, advance, initial_state, vocabs_from_examples
from rulegen.training import example_loss, train
from oracles import serial_beam_search

VARIANTS = [{}] + [{t: True} for t in ABLATION_TOGGLES]
IDS = ["base"] + list(ABLATION_TOGGLES)


def fixture_model(examples, grammar, dtype=np.float64, **overrides):
    cfg = RunConfig(dim=16, layers=3, mlp_hidden=16, dropout=0.0, seed=3,
                    max_decode_steps=40, **overrides)
    return Model(grammar, cfg, *vocabs_from_examples(examples), dtype=dtype,
                 seed=3)


def as_hex(hypotheses):
    return [(h.state.rule_trace, float(h.log_prob).hex(),
             [float(lp).hex() for lp in h.step_log_probs])
            for h in hypotheses]


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("overrides", VARIANTS, ids=IDS)
def test_beam_search_is_bit_identical_to_the_serial_search(
        six_examples, fixture_grammar, overrides, dtype):
    """One model decodes all six examples, so a memo that outlived its
    decode would hand the later ones stale encoder pools."""
    model = fixture_model(six_examples, fixture_grammar, dtype, **overrides)
    found = 0
    for ex in six_examples:
        result = beam_search(model, ex.description, ex.slots, beam_size=5)
        expected = serial_beam_search(model, ex.description, ex.slots, 5)
        assert as_hex(result.hypotheses) == as_hex(expected), ex.id
        found += len(expected)
    assert found > 0


def test_path_features_runs_once_per_distinct_head_and_path(
        six_examples, fixture_grammar, monkeypatch):
    model = fixture_model(six_examples, fixture_grammar)
    computed, predicted = [], []
    path_features, predict = Model.path_features, Model.predict

    def counting_path_features(self, paths, head):
        computed.extend((head, tuple(p)) for p in paths)
        return path_features(self, paths, head)

    def recording_predict(self, state, *args, **kwargs):
        out = predict(self, state, *args, **kwargs)
        frontier = state.partial_ast.frontier
        predicted.append((self.head_for(frontier.symbol.node_class),
                          self.path_symbols(state)))
        return out

    monkeypatch.setattr(Model, "path_features", counting_path_features)
    monkeypatch.setattr(Model, "predict", recording_predict)
    reused = 0
    for ex in six_examples:
        computed.clear()
        predicted.clear()
        beam_search(model, ex.description, ex.slots, beam_size=5)
        assert len(computed) == len(set(computed)), ex.id
        assert set(computed) == set(predicted), ex.id
        reused += len(predicted) - len(computed)
    assert reused > 0


def test_no_recording_pass_reaches_the_memo(six_examples, fixture_grammar,
                                            monkeypatch):
    """Training's passes (``example_loss``, with and without dropout)
    record a graph and pass no memo; its evaluations decode with one, and
    a recording call handed a memo refuses it."""
    model = fixture_model(six_examples, fixture_grammar)
    calls = []   # (recording, memo) per predict call
    predict = Model.predict

    def spy(self, states, enc_feats, ctrl, rng=None, memo=None):
        calls.append((ad._recording, memo))
        return predict(self, states, enc_feats, ctrl, rng, memo)

    monkeypatch.setattr(Model, "predict", spy)
    ex = six_examples[0]
    targets = encode_to_rules(ex.ast, fixture_grammar, ex.slot_values())
    example_loss(model, ex, targets).backward()
    example_loss(model, ex, targets, np.random.default_rng(0)).backward()
    cfg = RunConfig(dim=8, layers=2, mlp_hidden=8, epochs=1, dropout=0.2,
                    seed=0, max_decode_steps=40)
    train(six_examples[:2], six_examples[:1], fixture_grammar, cfg)
    recorded = [memo for recording, memo in calls if recording]
    decoded = [memo for recording, memo in calls if not recording]
    assert len(recorded) >= 4 and all(memo is None for memo in recorded)
    assert decoded and all(isinstance(memo, dict) for memo in decoded)

    enc, ctrl = model.encode(ex.description)
    state = initial_state(fixture_grammar, ex.slots)
    memo = {}
    with pytest.raises(ValueError, match="no_graph"):
        predict(model, state, enc, ctrl, memo=memo)
    assert memo == {}


@pytest.mark.parametrize("overrides", VARIANTS, ids=IDS)
def test_list_call_with_a_memo_gives_the_memo_free_rows(
        six_examples, fixture_grammar, overrides, monkeypatch):
    """A list call keys the memo by its tuple of per-state keys: its rows
    are those of the memo-free call, and repeating the identical call
    computes no path again."""
    model = fixture_model(six_examples, fixture_grammar, **overrides)
    computed = []
    path_features = Model.path_features

    def counting_path_features(self, paths, head):
        computed.extend((head, tuple(p)) for p in paths)
        return path_features(self, paths, head)

    ex = six_examples[2]
    targets = encode_to_rules(
        ex.ast, fixture_grammar,
        () if model.config.no_copy else ex.slot_values())
    states = [initial_state(fixture_grammar, ex.slots)]
    for t in targets[:-1]:
        states.append(advance(states[-1], t, fixture_grammar))
    states = states[::-1] + states
    enc, ctrl = model.encode(ex.description)
    with ad.no_graph():
        expected = model.predict(states, enc, ctrl).data
        monkeypatch.setattr(Model, "path_features", counting_path_features)
        memo = {}
        first = model.predict(states[:3], enc, ctrl, memo=memo).data
        again = model.predict(states, enc, ctrl, memo=memo).data
        assert bool(computed) == (not model.config.no_treepath_cnn)
        computed.clear()
        repeated = model.predict(states, enc, ctrl, memo=memo).data
    assert computed == []
    for got, want in ((first, expected[:3]), (again, expected),
                      (repeated, expected)):
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], want[finite], rtol=0,
                                   atol=1e-12)
