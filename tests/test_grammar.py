import json

import numpy as np
import pytest

from rulegen.ast_tree import AstNode, PartialAst
from rulegen.grammar import (
    COPY_TERMINAL_NAME,
    Grammar,
    GrammarError,
    GrammarRule,
    NONTERMINAL,
    STRUCTURAL,
    StructuralInputError,
    Symbol,
    TERMINAL,
    VARIABLE,
    copy_terminal_symbol,
    grammar_from_json,
    grammar_to_json,
    induce_grammar,
)
from rulegen.model import DeadEndError, DecoderState

NT = lambda n, c=STRUCTURAL: Symbol(n, NONTERMINAL, c)
T = lambda n: Symbol(n, TERMINAL)


def leafy(sym, value, term=T("tok")):
    return AstNode(sym, None, (AstNode(term, value),))


def test_two_if_trees_yield_two_distinct_rules():
    if_sym, expr, stmt = NT("If"), NT("expr"), NT("stmt")
    t1 = AstNode(if_sym, None, (leafy(expr, "c"), leafy(stmt, "a"),
                                leafy(stmt, "b")))
    t2 = AstNode(if_sym, None, (leafy(expr, "c"), leafy(stmt, "a"),
                                leafy(stmt, "a"), leafy(stmt, "b")))
    g = induce_grammar([t1, t2])
    if_rules = [g.rules[i] for i in g.lhs_index["If"]]
    assert len(if_rules) == 2
    assert sorted(len(r.rhs) for r in if_rules) == [3, 4]


def test_minimal_corpus_single_terminal_rule():
    g = induce_grammar([leafy(NT("A"), "x")])
    assert g.num_rules == 1
    assert g.lhs_index["A"] == (0,)
    assert g.rules[0].terminal_value == "x"


def test_fixture_matches_manifest(fixture_grammar, manifest):
    g = fixture_grammar
    assert g.num_rules == manifest["rule_count"]
    for entry in manifest["rules"]:
        r = g.rules[entry["id"]]
        assert r.lhs.name == entry["lhs"]
        assert [s.name for s in r.rhs] == entry["rhs"]
        assert r.terminal_value == entry["terminal"]
    for lhs, count in manifest["lhs_counts"].items():
        assert len(g.lhs_index[lhs]) == count
    assert g.scope_vocab == manifest["scope_vocab"]
    assert g.start_symbol.name == manifest["start"]


def predict_one_node(model, sym):
    """Model.predict on a one-node tree of ``sym`` with no slots."""
    state = DecoderState((), PartialAst.from_root(AstNode(sym)), ())
    enc, ctrl = model.encode("init v a")
    return model.predict(state, enc, ctrl).data


def test_mask_soundness(small_model, fixture_grammar):
    g = fixture_grammar
    for name, sym in g.symbols.items():
        if sym.kind != NONTERMINAL:
            continue
        logp = predict_one_node(small_model, sym)
        assert logp.shape == (g.num_rules,)
        for i, r in enumerate(g.rules):
            assert np.isfinite(logp[i]) == (r.lhs.name == name)
        assert np.flatnonzero(np.isfinite(logp)).tolist() == list(
            g.lhs_index[name])


def test_mask_uncoverable_symbol(small_model):
    with pytest.raises(DeadEndError):
        predict_one_node(small_model, NT("NoSuch"))
    with pytest.raises(DeadEndError):
        predict_one_node(small_model, NT("NoSuch", VARIABLE))


def test_induction_is_deterministic(six_examples):
    trees = [ex.ast for ex in six_examples]
    a = grammar_to_json(induce_grammar(trees))
    b = grammar_to_json(induce_grammar(trees))
    assert a == b


def test_malformed_tree_names_path():
    bad = AstNode(NT("A"), None,
                  (AstNode(NT("B"), "oops", ()),))  # value on a nonterminal
    with pytest.raises(StructuralInputError) as e:
        induce_grammar([bad])
    assert "[0]" in str(e.value)


def test_terminal_leaf_must_be_only_child():
    mixed = AstNode(NT("A"), None,
                    (AstNode(T("tok"), "x"), AstNode(NT("B"))))
    with pytest.raises(StructuralInputError):
        induce_grammar([mixed])


def test_inconsistent_symbol_redeclaration():
    t1 = leafy(NT("A"), "x")
    t2 = leafy(Symbol("A", NONTERMINAL, VARIABLE), "y")
    with pytest.raises(StructuralInputError):
        induce_grammar([t1, t2])


def test_empty_corpus_rejected():
    with pytest.raises(StructuralInputError):
        induce_grammar([])


def test_rule_invariants():
    with pytest.raises(GrammarError):
        GrammarRule(0, T("tok"), (NT("A"),))  # terminal lhs
    with pytest.raises(GrammarError):
        GrammarRule(0, NT("A"), ())  # empty rhs
    with pytest.raises(GrammarError):
        GrammarRule(0, NT("A"), (T("tok"),))  # missing terminal value
    with pytest.raises(GrammarError):
        GrammarRule(0, NT("A"), (NT("B"),), "x")  # value without terminal rhs


def test_grammar_rejects_non_dense_ids():
    a, b = NT("A"), T("tok")
    rule = GrammarRule(1, a, (b,), "x")
    with pytest.raises(GrammarError):
        Grammar([rule], {"A": a, "tok": b})


def test_json_roundtrip_byte_stable(fixture_grammar):
    text = grammar_to_json(fixture_grammar)
    g2 = grammar_from_json(text)
    assert grammar_to_json(g2) == text
    assert g2.num_rules == fixture_grammar.num_rules
    assert g2.lhs_index == fixture_grammar.lhs_index
    assert g2.scope_vocab == fixture_grammar.scope_vocab
    assert g2.start_symbol == fixture_grammar.start_symbol


def test_json_bad_version():
    with pytest.raises(GrammarError):
        grammar_from_json('{"version": 99, "symbols": [], "rules": []}')


# (entries to set, keys to drop) on a valid grammar document
MALFORMED_GRAMMAR_DOCS = {
    "no_symbols": ({}, ["symbols"]),
    "no_rules": ({}, ["rules"]),
    "symbol_not_an_object": ({"symbols": ["S"]}, []),
    "symbol_without_kind": ({"symbols": [{"name": "S"}]}, []),
    "rule_without_rhs": ({"rules": [{"id": 0, "lhs": "S"}]}, []),
    "rule_with_unknown_symbol": (
        {"rules": [{"id": 0, "lhs": "S", "rhs": ["Q"]}]}, []),
    "rule_with_list_symbol": ({"rules": [{"id": 0, "lhs": ["S"], "rhs": []}]},
                              []),
    "rule_id_not_an_int": ({"rules": [{"id": "0", "lhs": "S", "rhs": []}]},
                           []),
    # dense by ==, but they would write back as true and 0.0
    "rule_id_a_bool": ({"rules": [{"id": 0, "lhs": "S", "rhs": ["F", "B"]},
                                  {"id": True, "lhs": "B", "rhs": ["A"]}]},
                       []),
    "rule_id_a_float": ({"rules": [{"id": 0.0, "lhs": "S",
                                    "rhs": ["F", "B"]}]}, []),
    "rule_terminal_a_list": ({"rules": [
        {"id": 0, "lhs": "V", "rhs": ["tok"], "terminal": [1]}]}, []),
    "rule_terminal_a_number": ({"rules": [
        {"id": 0, "lhs": "V", "rhs": ["tok"], "terminal": 5}]}, []),
    "scope_vocab_not_strings": ({"scope_vocab": [1]}, []),
    "unknown_start": ({"start": "Q"}, []),
    "no_start": ({}, ["start"]),
    "null_start": ({"start": None}, []),
    "terminal_start": ({"start": "tok"}, []),
}


@pytest.mark.parametrize("updates, dropped", MALFORMED_GRAMMAR_DOCS.values(),
                         ids=MALFORMED_GRAMMAR_DOCS.keys())
def test_json_malformed_document(fixture_grammar, updates, dropped):
    doc = json.loads(grammar_to_json(fixture_grammar))
    doc.update(updates)
    for key in dropped:
        del doc[key]
    with pytest.raises(GrammarError):
        grammar_from_json(json.dumps(doc))


def test_json_top_level_not_an_object():
    for text in ("[]", "5", '"grammar"', "null"):
        with pytest.raises(GrammarError):
            grammar_from_json(text)


def test_copy_terminal_symbol(fixture_grammar):
    g = fixture_grammar
    # V has terminal rules; reuse their terminal symbol
    assert copy_terminal_symbol(g, g.symbols["V"]).name == "tok"
    # S has no terminal rule; fall back to the reserved symbol
    assert copy_terminal_symbol(g, g.symbols["S"]).name == COPY_TERMINAL_NAME
