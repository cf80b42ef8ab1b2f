"""Dataset interchange records, the AST document codec, and the
synthetic corpus generator used for desk-scale experiments.

A dataset is one JSON record per line:
    {"id", "description", "slots": [{"name", "value"}...], "ast": {...}}
with AST nodes {"symbol", "node_class"?, "terminal"?, "scope"?,
"children": [...]}; a node is a terminal leaf iff "terminal" is present.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ast_tree import AstNode
from .grammar import (
    FUNCTION_NAME,
    NONTERMINAL,
    STRUCTURAL,
    Symbol,
    TERMINAL,
    VARIABLE,
    validate_tree,
)


class DatasetError(ValueError):
    pass


@dataclass
class Example:
    id: str
    description: str
    slots: list  # list[tuple[str, str]], order significant
    ast: AstNode

    def slot_values(self):
        return [v for _, v in self.slots]


def ast_to_doc(node: AstNode) -> dict:
    doc = {"symbol": node.symbol.name}
    if node.symbol.kind == TERMINAL:
        doc["terminal"] = node.terminal_value
    else:
        if node.symbol.node_class != STRUCTURAL:
            doc["node_class"] = node.symbol.node_class
        if node.scope_name is not None:
            doc["scope"] = node.scope_name
        doc["children"] = [ast_to_doc(c) for c in node.children]
    return doc


def ast_from_doc(doc: dict) -> AstNode:
    if (not isinstance(doc, dict) or not isinstance(doc.get("symbol"), str)
            or not doc["symbol"]):
        raise DatasetError(
            "AST node must be an object with a non-empty string 'symbol'")
    name = doc["symbol"]
    if "terminal" in doc:
        if not isinstance(doc["terminal"], str):
            raise DatasetError(f"terminal of {name!r} must be a string")
        if doc.get("children"):
            raise DatasetError(f"terminal node {name!r} with children")
        return AstNode(Symbol(name, TERMINAL), doc["terminal"])
    sym = Symbol(name, NONTERMINAL, doc.get("node_class", STRUCTURAL))
    scope = doc.get("scope")
    if scope is not None and not isinstance(scope, str):
        raise DatasetError(f"scope of {name!r} must be a string")
    children = doc.get("children", [])
    if not isinstance(children, list):
        raise DatasetError(f"children of {name!r} must be a list")
    children = tuple(ast_from_doc(c) for c in children)
    return AstNode(sym, None, children, scope)


def example_to_line(ex: Example) -> str:
    doc = {
        "id": ex.id,
        "description": ex.description,
        "slots": [{"name": n, "value": v} for n, v in ex.slots],
        "ast": ast_to_doc(ex.ast),
    }
    return json.dumps(doc, sort_keys=True)


def _slots_from_doc(docs) -> list:
    """(name, value) pairs from a record's list of slot objects."""
    if not isinstance(docs, list):
        raise DatasetError("'slots' must be a list of objects")
    slots = []
    for i, doc in enumerate(docs):
        if not isinstance(doc, dict):
            raise DatasetError(f"slot {i} is not an object")
        for key in ("name", "value"):
            if not isinstance(doc.get(key), str):
                raise DatasetError(f"slot {i} needs a string {key!r}")
        slots.append((doc["name"], doc["value"]))
    return slots


def example_from_line(line: str) -> Example:
    try:
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise DatasetError("record must be a JSON object")
        for key in ("id", "description", "ast"):
            if key not in doc:
                raise DatasetError(f"record missing {key!r}")
        if (isinstance(doc["id"], bool)
                or not isinstance(doc["id"], (str, int, float))):
            raise DatasetError("'id' must be a string or a number")
        if not isinstance(doc["description"], str):
            raise DatasetError("'description' must be a string")
        slots = _slots_from_doc(doc.get("slots", []))
        names = [n for n, _ in slots]
        if len(set(names)) != len(names):
            raise DatasetError(f"record {doc['id']!r} has duplicate slot names")
        ast = ast_from_doc(doc["ast"])
        validate_tree(ast)
        return Example(doc["id"], doc["description"], slots, ast)
    except RecursionError:
        # json and ast_from_doc recurse per level
        raise DatasetError("record is nested too deeply") from None


def read_lines(path):
    """The lines of a UTF-8 text file, split at universal newlines; a line
    that is not UTF-8 raises DatasetError naming the file and the line."""
    with open(path, "rb") as f:
        raw_lines = f.read().splitlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DatasetError(f"{path}:{lineno}: not UTF-8 text: {e}") from e


def load_dataset(path) -> list:
    examples = []
    ids = set()
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            ex = example_from_line(line)
        except (json.JSONDecodeError, DatasetError, ValueError) as e:
            raise DatasetError(f"{path}:{lineno}: {e}") from e
        if ex.id in ids:
            raise DatasetError(f"{path}:{lineno}: duplicate id {ex.id!r}")
        ids.add(ex.id)
        examples.append(ex)
    if not examples:
        raise DatasetError(f"{path}: empty dataset")
    return examples


def save_dataset(examples, path):
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(example_to_line(ex) + "\n")


# --- synthetic corpus ----------------------------------------------------

_T = Symbol("tok", TERMINAL)


def _term(nonterminal: Symbol, value: str) -> AstNode:
    return AstNode(nonterminal, None, (AstNode(_T, value),))


def synth_corpus(num_ops=3, max_depth=2, count=20, seed=0,
                 value_prefix="val"):
    """Deterministic toy corpus: the description spells out the
    derivation token by token, so a correct model can reach 100%.

    Trees are S(F(fn), E(...chain of decorations...), V(slot value));
    the V leaf equals the example's single slot value, exercising the
    copy mechanism.
    """
    rng = np.random.default_rng(seed)
    s_sym = Symbol("S", NONTERMINAL, STRUCTURAL)
    f_sym = Symbol("F", NONTERMINAL, FUNCTION_NAME)
    e_sym = Symbol("E", NONTERMINAL, STRUCTURAL)
    w_sym = Symbol("W", NONTERMINAL, VARIABLE)
    v_sym = Symbol("V", NONTERMINAL, VARIABLE)
    d_syms = [Symbol(f"D{i}", NONTERMINAL, VARIABLE) for i in range(num_ops)]

    fn_pool = [f"fn{j}" for j in range(3)]
    w_pool = [f"w{j}" for j in range(min(max(num_ops, 2), 6))]

    examples = []
    for n in range(count):
        fn = fn_pool[int(rng.integers(len(fn_pool)))]
        depth = int(rng.integers(0, max_depth + 1))
        ops = [int(rng.integers(num_ops)) for _ in range(depth)]
        wj = w_pool[int(rng.integers(len(w_pool)))]
        value = f"{value_prefix}{n}"

        expr = _term(w_sym, wj)
        expr = AstNode(e_sym, None, (expr,))
        for i in reversed(ops):
            deco = _term(d_syms[i], f"d{i}")
            expr = AstNode(e_sym, None, (deco, expr))
        tree = AstNode(
            s_sym, None,
            (_term(f_sym, fn), expr, _term(v_sym, value)),
            scope_name=fn,
        )
        desc_tokens = [fn] + [f"d{i}" for i in ops] + [wj, "name", value]
        examples.append(Example(
            id=f"syn{n}",
            description=" ".join(desc_tokens),
            slots=[("name", value)],
            ast=tree,
        ))
    return examples
