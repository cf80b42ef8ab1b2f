"""Fuzzed dataset records and grammar documents.

Each case starts from a valid document and either replaces the value at
one path with an arbitrary JSON value or deletes one object key. The
loader must then give well-typed data or raise its own error:
``DatasetError`` for a dataset, ``GrammarError`` for a grammar.
"""
import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from rulegen.data import DatasetError, load_dataset
from rulegen.grammar import (
    GrammarError,
    grammar_from_json,
    grammar_to_json,
    induce_grammar,
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)


def json_paths(doc, path=()):
    """The path of every value inside ``doc``, the root excepted."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """A copy of ``doc`` with one value replaced or one object key gone."""
    doc = copy.deepcopy(doc)
    *head, key = draw(st.sampled_from(list(json_paths(doc))))
    parent = doc
    for step in head:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


def leaf(symbol, value, node_class="variable"):
    return {"symbol": symbol, "node_class": node_class,
            "children": [{"symbol": "tok", "terminal": value}]}


VALID_RECORD = {
    "id": "r0",
    "description": "call f on x",
    "slots": [{"name": "arg", "value": "x"}],
    "ast": {"symbol": "S", "scope": "f", "children": [
        leaf("F", "f", "function_name"),
        {"symbol": "E", "children": [leaf("V", "x")]},
    ]},
}


def assert_typed(node):
    """Every symbol name and terminal value is text, as is every scope."""
    assert isinstance(node.symbol.name, str)
    assert node.scope_name is None or isinstance(node.scope_name, str)
    if node.terminal_value is not None or node.symbol.kind == "terminal":
        assert isinstance(node.terminal_value, str)
    for child in node.children:
        assert_typed(child)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(record=mutated(VALID_RECORD))
def test_fuzzed_record_loads_typed_or_raises_dataset_error(tmp_path_factory,
                                                           record):
    path = tmp_path_factory.getbasetemp() / "fuzzed.jsonl"
    path.write_text(json.dumps(record) + "\n")
    try:
        examples = load_dataset(path)
    except DatasetError:
        return
    for ex in examples:
        assert_typed(ex.ast)
    try:
        # the rest of extract-grammar
        grammar_from_json(grammar_to_json(
            induce_grammar([ex.ast for ex in examples])))
    except GrammarError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_grammar_loads_typed_or_raises_grammar_error(fixture_grammar,
                                                            data):
    doc = data.draw(mutated(json.loads(grammar_to_json(fixture_grammar))))
    try:
        grammar = grammar_from_json(json.dumps(doc))
    except GrammarError:
        return
    for rule in grammar.rules:
        assert rule.terminal_value is None or isinstance(rule.terminal_value,
                                                         str)
