import numpy as np
import pytest

from rulegen import autodiff as ad
from rulegen.ast_tree import encode_to_rules, token_yield
from rulegen.config import RunConfig
from rulegen.decode import DEAD_END, STEP_BUDGET, beam_search
from rulegen.grammar import NONTERMINAL, Grammar, GrammarRule, Symbol
from rulegen.model import (
    DeadEndError,
    Model,
    advance,
    initial_state,
    vocabs_from_examples,
)
from rulegen.training import example_loss


def random_model(six_examples, fixture_grammar, seed, max_steps=60):
    cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, dropout=0.0, seed=seed,
                    max_decode_steps=max_steps)
    tv, terms, slots = vocabs_from_examples(six_examples)
    return Model(fixture_grammar, cfg, tv, terms, slots,
                 dtype=np.float64, seed=seed)


def greedy(model, description, slots):
    """Stepwise argmax decode; None on dead end / nontermination."""
    g = model.grammar
    enc, ctrl = model.encode(description)
    state = initial_state(g, slots)
    total = 0.0
    for _ in range(model.config.max_decode_steps):
        if state.partial_ast.complete:
            return state, total
        try:
            logp = model.predict(state, enc, ctrl).data
        except DeadEndError:
            return None, None
        best = int(np.argmax(logp))
        total += float(logp[best])
        state = advance(state, best, g)
    return None, None


def test_beam1_equals_greedy(six_examples, fixture_grammar):
    for seed in range(5):
        model = random_model(six_examples, fixture_grammar, seed)
        ex = six_examples[seed % len(six_examples)]
        gstate, glp = greedy(model, ex.description, ex.slots)
        result = beam_search(model, ex.description, ex.slots, beam_size=1)
        if gstate is None:
            assert result.failed
            continue
        assert not result.failed
        top = result.hypotheses[0]
        assert top.rule_trace == gstate.rule_trace
        assert top.log_prob == pytest.approx(glp, abs=1e-9)


def test_beam5_at_least_greedy(six_examples, fixture_grammar):
    checked = 0
    for seed in range(20):
        model = random_model(six_examples, fixture_grammar, seed)
        ex = six_examples[seed % len(six_examples)]
        gstate, glp = greedy(model, ex.description, ex.slots)
        result = beam_search(model, ex.description, ex.slots, beam_size=5)
        if gstate is None or result.failed:
            continue
        assert result.hypotheses[0].log_prob >= glp - 1e-9
        checked += 1
    assert checked >= 10


def test_hypotheses_sorted_and_monotone(six_examples, fixture_grammar):
    model = random_model(six_examples, fixture_grammar, 0)
    ex = six_examples[0]
    result = beam_search(model, ex.description, ex.slots, beam_size=5)
    assert not result.failed
    lps = [h.log_prob for h in result.hypotheses]
    assert lps == sorted(lps, reverse=True)
    for h in result.hypotheses:
        assert h.log_prob <= 1e-12  # log prob of a full trace is <= 0
        assert h.complete
    # the top hypothesis's per-step log probs multiply to its score
    top = result.hypotheses[0]
    assert sum(top.step_log_probs) == pytest.approx(top.log_prob, abs=1e-9)
    assert all(lp <= 1e-12 for lp in top.step_log_probs)


def test_all_traces_valid_under_grammar(six_examples, fixture_grammar):
    g = fixture_grammar
    model = random_model(six_examples, fixture_grammar, 1)
    ex = six_examples[2]
    result = beam_search(model, ex.description, ex.slots, beam_size=5)
    for h in result.hypotheses:
        # non-copy steps must be re-derivable rules of the final tree
        if all(t < g.num_rules for t in h.rule_trace):
            assert encode_to_rules(h.ast, g) == list(h.rule_trace)
        for t in h.rule_trace:
            assert t < g.num_rules + len(ex.slots)


def test_masked_rules_never_in_trace(six_examples, fixture_grammar):
    g = fixture_grammar
    model = random_model(six_examples, fixture_grammar, 2)
    ex = six_examples[1]
    result = beam_search(model, ex.description, ex.slots, beam_size=5)
    for h in result.hypotheses:
        state = initial_state(g, ex.slots)
        for t in h.rule_trace:
            frontier = state.partial_ast.frontier
            if t < g.num_rules:
                assert g.rules[t].lhs.name == frontier.symbol.name
            else:
                assert frontier.symbol.node_class == "variable"
            state = advance(state, t, g)


def test_single_rule_grammar_decodes_regardless_of_weights():
    from rulegen.data import synth_corpus
    from rulegen.grammar import induce_grammar

    # one depth-0 example: every nonterminal is observed with exactly
    # one rule, so masking forces the derivation whatever the weights
    exs = synth_corpus(num_ops=1, max_depth=0, count=1, seed=0)
    g = induce_grammar([ex.ast for ex in exs])
    yields = set()
    for seed in range(3):
        cfg = RunConfig(dim=4, layers=3, mlp_hidden=4, dropout=0.0, seed=seed,
                        max_decode_steps=40)
        tv, terms, slots = vocabs_from_examples(exs)
        model = Model(g, cfg, tv, terms, slots, dtype=np.float64, seed=seed)
        result = beam_search(model, exs[0].description, [], beam_size=1)
        assert not result.failed
        yields.add(tuple(token_yield(result.hypotheses[0].ast)))
    # every nonterminal here has exactly one rule: output is forced
    assert len(yields) == 1


def test_failure_reported_when_nothing_completes(six_examples,
                                                 fixture_grammar):
    model = random_model(six_examples, fixture_grammar, 0, max_steps=1)
    result = beam_search(model, "init v a", [("arg", "a")])
    assert result.failed
    assert result.hypotheses == []


def test_spent_step_budget_is_the_failure_cause(six_examples,
                                               fixture_grammar):
    """No derivation of the fixture grammar fits in one step; the same
    decode with a budget of 60 completes and has no cause."""
    short = random_model(six_examples, fixture_grammar, 0, max_steps=1)
    result = beam_search(short, "init v a", [("arg", "a")])
    assert result.failed
    assert result.cause == STEP_BUDGET
    model = random_model(six_examples, fixture_grammar, 0)
    result = beam_search(model, "init v a", [("arg", "a")])
    assert not result.failed
    assert result.cause is None


def dead_end_grammar():
    """``S -> X``, and no rule for the variable-class ``X``."""
    s = Symbol("S", NONTERMINAL)
    x = Symbol("X", NONTERMINAL, "variable")
    return Grammar([GrammarRule(0, s, (x,))], {"S": s, "X": x},
                   start_symbol=s)


def test_dead_end_is_the_failure_cause():
    """Every hypothesis reaches ``X``, which has no rule and, with no
    slots, no copy target: the beam empties before the budget runs out."""
    cfg = RunConfig(dim=4, layers=2, mlp_hidden=4, max_decode_steps=50)
    model = Model(dead_end_grammar(), cfg, ["<pad>", "<unk>"], [], ["arg"],
                  seed=0)
    result = beam_search(model, "x", beam_size=3)
    assert result.failed
    assert result.cause == DEAD_END
    # a slot to copy gets X past the dead end
    assert not beam_search(model, "x", [("arg", "v")]).failed


def test_step_log_probs_sum_to_each_hypothesis_score(six_examples,
                                                     fixture_grammar):
    """Each hypothesis carries its per-step log-probs, one per rule step,
    and they sum to that hypothesis's score."""
    tv, terms, slots = vocabs_from_examples(six_examples)
    checked = 0
    for seed in range(4):
        cfg = RunConfig(dim=8, layers=3, mlp_hidden=8, dropout=0.0, seed=seed,
                        max_decode_steps=60)
        model = Model(fixture_grammar, cfg, tv, terms, slots,
                      dtype=np.float32, seed=seed)
        ex = six_examples[seed]
        result = beam_search(model, ex.description, ex.slots, beam_size=5)
        if result.failed:
            continue
        for h in result.hypotheses:
            assert len(h.step_log_probs) == len(h.rule_trace)
            assert abs(sum(h.step_log_probs) - h.log_prob) <= 1e-6
        checked += 1
    assert checked >= 2


def test_training_records_after_a_numeric_fault_in_beam_search(
        six_examples, fixture_grammar):
    """beam_search records no graph, and a fault inside it leaves recording
    on: the next loss gets the gradients of a run that never decoded."""
    model = random_model(six_examples, fixture_grammar, 0)
    ex = six_examples[0]
    targets = encode_to_rules(ex.ast, fixture_grammar, ex.slot_values())

    def gradients():
        model.store.zero_grad()
        example_loss(model, ex, targets).backward()
        return model.store.grads.copy()

    before = gradients()
    weight = model.store["emb/token"].data
    saved = weight.copy()
    weight[...] = np.inf
    with pytest.raises(ad.NumericFault):
        beam_search(model, ex.description, ex.slots)
    weight[...] = saved
    assert ad._recording
    assert np.array_equal(gradients(), before)
