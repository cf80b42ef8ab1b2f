import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decode_from_rules, random_tree, trees_equal
from rulegen.ast_tree import encode_to_rules
from rulegen.config import ABLATION_TOGGLES, ConfigError, RunConfig
from rulegen.data import (
    DatasetError,
    ast_from_doc,
    ast_to_doc,
    example_from_line,
    example_to_line,
    load_dataset,
    save_dataset,
    synth_corpus,
)
from rulegen.grammar import induce_grammar


def test_config_roundtrip_lossless():
    cfg = RunConfig(dim=16, layers=5, no_scope=True, dropout=0.25, seed=9)
    back = RunConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.hash() == cfg.hash()


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError) as e:
        RunConfig.from_json('{"dim": 8, "typo_key": 1}')
    assert "typo_key" in str(e.value)


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(layers=0)
    with pytest.raises(ConfigError):
        RunConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        RunConfig(lr=0.0)
    for key, value in [("seed", -1), ("max_updates", -1),
                       ("stop_at_train_acc", -0.5),
                       ("stop_at_train_acc", 1.5)]:
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_json(json.dumps({key: value}))
    with pytest.raises(ConfigError):
        RunConfig.from_json("not json")


WRONG_TYPES = {
    "int_as_string": ("dim", "x"),
    "int_as_bool": ("layers", True),
    "int_as_float": ("beam_size", 2.0),
    "float_as_string": ("dropout", "0.1"),
    "float_as_bool": ("lr", True),
    "float_as_null": ("l2", None),
    "bool_as_int": ("no_copy", 1),
    "bool_as_string": ("share_heads", "true"),
}


@pytest.mark.parametrize("key, value", WRONG_TYPES.values(),
                         ids=WRONG_TYPES.keys())
def test_config_rejects_a_value_of_the_wrong_type(key, value):
    with pytest.raises(ConfigError) as e:
        RunConfig.from_json(json.dumps({key: value}))
    assert key in str(e.value)


def test_config_float_field_takes_an_int_as_given():
    cfg = RunConfig.from_json('{"dropout": 0, "stop_at_train_acc": 1}')
    assert cfg.dropout == 0 and isinstance(cfg.dropout, int)
    assert '"stop_at_train_acc": 1,' in cfg.to_json()
    assert RunConfig.from_json(cfg.to_json()).hash() == cfg.hash()


@pytest.mark.parametrize("text", ['{"lr": NaN}', '{"lr": Infinity}',
                                  '{"l2": NaN}', '{"dropout": -Infinity}',
                                  '{"stop_at_train_acc": NaN}',
                                  '{"lr": 1' + '0' * 400 + '}'])
def test_config_rejects_a_float_that_is_not_finite(text):
    key = next(iter(json.loads(text)))
    with pytest.raises(ConfigError, match=f"^{key} must be finite"):
        RunConfig.from_json(text)


@pytest.mark.parametrize("text, message", [
    ('{"seed": 1' + '0' * 5000 + '}', "not valid JSON"),
    ('{"seed": ' + '[' * 100000 + ']' * 100000 + '}', "nested too deeply"),
], ids=["integer_too_long", "nested_too_deeply"])
def test_config_json_that_python_cannot_parse(text, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_json(text)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
# a few of the known keys; each value has its field's type or is any JSON
# value, so both valid and invalid configs come up
typed_values = {"int": st.integers(), "bool": st.booleans(),
                "float": (st.floats() | st.integers()
                          | st.sampled_from([math.nan, math.inf, -math.inf]))}
field_values = {f.name: typed_values[f.type] | json_values
                for f in dataclasses.fields(RunConfig)}
config_docs = st.lists(st.sampled_from(sorted(field_values)), max_size=4,
                       unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                           {k: field_values[k] for k in keys}))


@settings(max_examples=300, deadline=None)
@given(doc=config_docs)
def test_config_from_any_json_object_is_a_config_or_config_error(doc):
    # json.dumps writes NaN and Infinity, which json.loads reads back
    try:
        cfg = RunConfig.from_json(json.dumps(doc))
    except ConfigError:
        return
    for f in dataclasses.fields(cfg):
        if f.type == "float":
            assert math.isfinite(float(getattr(cfg, f.name))), f.name
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_config_hash_sensitive_to_toggles():
    hashes = {RunConfig(**{t: True}).hash() for t in ABLATION_TOGGLES}
    hashes.add(RunConfig().hash())
    assert len(hashes) == len(ABLATION_TOGGLES) + 1


def test_example_roundtrip(six_examples):
    for ex in six_examples:
        back = example_from_line(example_to_line(ex))
        assert back.id == ex.id
        assert back.description == ex.description
        assert back.slots == ex.slots
        assert trees_equal(back.ast, ex.ast, compare_scopes=True)


def test_ast_doc_roundtrip(random_trees):
    for tree in random_trees[:50]:
        assert trees_equal(ast_from_doc(ast_to_doc(tree)), tree,
                           compare_scopes=True)


def test_record_errors():
    with pytest.raises(DatasetError):
        example_from_line('{"description": "x", "ast": {}}')  # no id
    with pytest.raises(DatasetError):
        example_from_line(json.dumps({
            "id": "a", "description": "x",
            "slots": [{"name": "n", "value": "1"},
                      {"name": "n", "value": "2"}],
            "ast": {"symbol": "tok", "terminal": "v"},
        }))
    with pytest.raises(DatasetError):
        example_from_line(json.dumps({
            "id": "a", "description": "x",
            "ast": {"symbol": "A", "terminal": "v",
                    "children": [{"symbol": "B", "children": []}]},
        }))


def test_load_dataset_errors(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text("")
    with pytest.raises(DatasetError):
        load_dataset(p)
    p.write_text("not json\n")
    with pytest.raises(DatasetError) as e:
        load_dataset(p)
    assert ":1:" in str(e.value)
    line = example_to_line(synth_corpus(count=1)[0])
    p.write_text(line + "\n" + line + "\n")
    with pytest.raises(DatasetError) as e:
        load_dataset(p)
    assert "duplicate id" in str(e.value)


def test_load_dataset_names_a_line_that_is_not_utf8(tmp_path):
    p = tmp_path / "d.jsonl"
    line = example_to_line(synth_corpus(count=1)[0])
    p.write_bytes(line.encode() + b"\n" + b"\xff" + line.encode() + b"\n")
    with pytest.raises(DatasetError) as e:
        load_dataset(p)
    assert f"{p}:2: not UTF-8" in str(e.value)


def nested_record(depth):
    """A record whose AST is a chain of ``depth`` nonterminals."""
    ast = ('{"symbol": "S", "children": [' * depth
           + '{"symbol": "tok", "terminal": "v"}' + "]}" * depth)
    return '{"id": "deep", "description": "x", "ast": ' + ast + "}"


def test_load_dataset_names_a_record_nested_too_deeply(tmp_path):
    p = tmp_path / "d.jsonl"
    line = example_to_line(synth_corpus(count=1)[0])
    p.write_text(line + "\n" + nested_record(900) + "\n")
    with pytest.raises(DatasetError) as e:
        load_dataset(p)
    assert str(e.value) == f"{p}:2: record is nested too deeply"


def test_load_dataset_splits_at_universal_newlines(tmp_path):
    lines = [example_to_line(ex) for ex in synth_corpus(count=3)]
    p = tmp_path / "d.jsonl"
    p.write_bytes("\r\n".join(lines[:2]).encode() + b"\r" + lines[2].encode())
    assert [ex.id for ex in load_dataset(p)] == ["syn0", "syn1", "syn2"]


def test_save_load_roundtrip(tmp_path, six_examples):
    p = tmp_path / "d.jsonl"
    save_dataset(six_examples, p)
    back = load_dataset(p)
    assert [ex.id for ex in back] == [ex.id for ex in six_examples]
    save_dataset(six_examples, tmp_path / "d2.jsonl")
    assert p.read_bytes() == (tmp_path / "d2.jsonl").read_bytes()


def test_synth_corpus_deterministic_and_derivable():
    a = synth_corpus(count=10, seed=3)
    b = synth_corpus(count=10, seed=3)
    assert [example_to_line(x) for x in a] == [example_to_line(x) for x in b]
    g = induce_grammar([ex.ast for ex in a])
    for ex in a:
        rules = encode_to_rules(ex.ast, g)
        assert trees_equal(decode_from_rules(rules, g, ex.ast.symbol), ex.ast)


def test_synth_corpus_descriptions_encode_slots():
    for ex in synth_corpus(count=5, seed=1):
        assert len(ex.slots) == 1
        name, value = ex.slots[0]
        assert value in ex.description.split()


def test_random_tree_bounded_and_valid(fixture_grammar):
    rng = np.random.default_rng(0)
    for _ in range(100):
        tree = random_tree(fixture_grammar, rng, max_depth=5)
        encode_to_rules(tree, fixture_grammar)  # must not raise
