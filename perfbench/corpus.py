"""Seeded corpus generator for the benchmark workloads.

Every tree follows one fixed template, so every derivation from the
start symbol has the same number of rule applications and the same
shape; only the labels at choice points depend on the seed:

    Module   -> Def x defs                      (structural)
    Def      -> FuncName Body                   (structural, carries the scope)
    FuncName -> tok                             (function_name, K_FN values)
    Body     -> Stmt x stmts                    (structural)
    Stmt     -> Op<j> Target Call               (structural, one rule per op)
    Op<j>    -> tok                             (structural, one value each)
    Target   -> tok                             (variable, K_VAR values)
    Call     -> Callee Arg                      (structural)
    Callee   -> tok                             (function_name, K_CALLEE values)
    Arg      -> tok                             (variable, K_VAR values or a slot copy)

With ``defs == 0`` the start symbol is a single ``Def``. Each example has
``SLOTS`` slots with values unique to the example; the Arg of the j-th
statement copies slot j for j < SLOTS and names a variable otherwise.
Choices lean towards the first alternative (``FIRST_CHOICE``), but the
first examples walk every alternative in turn, so the grammar induced
from any corpus of at least ``min_count()`` examples holds every rule of
the template and its size does not depend on the seed.

The description spells out the derivation: the function name of every
def, then op, target, callee and argument of every statement (the slot
name stands for a copied argument), so a model can learn the corpus.

Only the standard library is used, so the generated files and the rule
counts below are independent of the program under test.
"""
from __future__ import annotations

import json
import random

K_FN = 4
K_OP = 3
K_VAR = 6
K_CALLEE = 5
SLOTS = 2
# Share of random choices that take the first alternative. A skewed
# corpus lets one Adam update lower the training loss by well more than
# the epoch-to-epoch noise of dropout 0.5.
FIRST_CHOICE = 0.75

# (defs, stmts) of the two tree shapes the workloads use: 22 and 9 rules.
SHAPES = {"long": (1, 3), "short": (0, 1)}

FN_NAMES = [f"fn{i}" for i in range(K_FN)]
OPS = ["add", "sub", "mul"][:K_OP]
VARS = [f"v{i}" for i in range(K_VAR)]
CALLEES = [f"g{i}" for i in range(K_CALLEE)]
SLOT_NAMES = [f"arg{j}" for j in range(SLOTS)]


def rules_per_derivation(defs: int, stmts: int) -> int:
    """Stated derivation length of every tree of a shape."""
    per_def = 3 + 6 * stmts          # Def, FuncName, Body, then 6 per statement
    return per_def if defs == 0 else 1 + defs * per_def


def min_count() -> int:
    """Examples needed before every alternative has been observed."""
    return max(K_FN, K_OP, K_VAR, K_CALLEE)


def _leaf(symbol, node_class, value):
    node = {"symbol": symbol, "children": [{"symbol": "tok", "terminal": value}]}
    if node_class != "structural":
        node["node_class"] = node_class
    return node


def _node(symbol, children, scope=None):
    node = {"symbol": symbol, "children": children}
    if scope is not None:
        node["scope"] = scope
    return node


def make_example(rng: random.Random, n: int, defs: int, stmts: int) -> dict:
    """One dataset record; example ``n`` fixes the first choice of each
    kind to alternative ``n`` so that a corpus covers every rule."""
    slot_values = [f"lit{n}x{j}" for j in range(SLOTS)]
    words = []
    stmt_index = 0

    def pick(pool, first):
        if first:
            return pool[n % len(pool)]
        return pool[0] if rng.random() < FIRST_CHOICE else rng.choice(pool)

    def make_def(first):
        nonlocal stmt_index
        fn = pick(FN_NAMES, first)
        words.append(fn)
        body = []
        for s in range(stmts):
            lead = first and s == 0
            j = stmt_index
            stmt_index += 1
            op = pick(OPS, lead)
            target = pick(VARS, lead)
            callee = pick(CALLEES, lead)
            if j < SLOTS:
                arg_value, arg_word = slot_values[j], SLOT_NAMES[j]
            else:
                arg_value = arg_word = pick(VARS, j == SLOTS)
            words.extend([op, target, callee, arg_word])
            body.append(_node("Stmt", [
                _leaf(f"Op{op}", "structural", op),
                _leaf("Target", "variable", target),
                _node("Call", [_leaf("Callee", "function_name", callee),
                               _leaf("Arg", "variable", arg_value)]),
            ]))
        return _node("Def", [_leaf("FuncName", "function_name", fn),
                             _node("Body", body)], scope=fn)

    if defs == 0:
        root = make_def(True)
    else:
        root = _node("Module", [make_def(d == 0) for d in range(defs)])
    return {
        "id": f"ex{n}",
        "description": " ".join(words),
        "slots": [{"name": SLOT_NAMES[j], "value": slot_values[j]}
                  for j in range(SLOTS)],
        "ast": root,
    }


def generate(seed: int, count: int, defs: int, stmts: int) -> list:
    if count < min_count():
        raise ValueError(f"count must be at least {min_count()}")
    rng = random.Random(seed)
    return [make_example(rng, n, defs, stmts) for n in range(count)]


def write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def count_rules(doc: dict) -> int:
    """Rule applications in a tree document: one per node with children."""
    children = doc.get("children", [])
    if not children:
        return 0
    return 1 + sum(count_rules(c) for c in children)


def rule_keys(doc: dict) -> list:
    """(lhs, rhs symbols, terminal value) of every expansion in pre-order."""
    out = []

    def walk(node):
        children = node.get("children", [])
        if not children:
            return
        value = children[0].get("terminal") if len(children) == 1 else None
        out.append((node["symbol"], tuple(c["symbol"] for c in children),
                    value))
        for c in children:
            walk(c)

    walk(doc)
    return out


def class_of(doc: dict) -> dict:
    """Node class of every nonterminal symbol in a tree."""
    out = {}

    def walk(node):
        if "terminal" not in node:
            out[node["symbol"]] = node.get("node_class", "structural")
        for c in node.get("children", []):
            walk(c)

    walk(doc)
    return out


def beam_expansions(docs, beam: int) -> tuple:
    """Hypothesis expansions and finished hypotheses of one beam search.

    Valid targets at a frontier are the rules observed for its symbol in
    ``docs`` plus one copy target per slot on variable nodes; every
    template position offers the same number of them, so the beam width
    of each step follows from the template alone. Returns
    ``(expansions, hypotheses)``.
    """
    per_lhs = {}
    classes = {}
    for doc in docs:
        classes.update(class_of(doc))
        for key in set(rule_keys(doc)):
            per_lhs.setdefault(key[0], set()).add(key)
    live, expansions = 1, 0
    for lhs, _, _ in rule_keys(docs[0]):
        valid = len(per_lhs[lhs]) + (SLOTS if classes[lhs] == "variable" else 0)
        expansions += live
        live = min(beam, live * min(beam, valid))
    return expansions, live
