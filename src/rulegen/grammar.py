"""Grammar induction from AST corpora and the rule inventory.

Rules are the decoder's prediction alphabet: one rule per distinct
(lhs, rhs-symbol-sequence) pair observed in the training trees, plus
one terminal-production rule per distinct (lhs, terminal value). A
list-valued construct observed with different child counts yields one
rule per length. Rule ids follow first occurrence over a pre-order
sweep of the corpus in input order, so induction is deterministic.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

NONTERMINAL = "nonterminal"
TERMINAL = "terminal"

STRUCTURAL = "structural"
VARIABLE = "variable"
FUNCTION_NAME = "function_name"

NODE_CLASSES = (STRUCTURAL, VARIABLE, FUNCTION_NAME)

# Reserved terminal symbol for copy-produced leaves whose lhs has no
# observed terminal rule.
COPY_TERMINAL_NAME = "<tok>"


class GrammarError(ValueError):
    pass


class StructuralInputError(GrammarError):
    """Malformed input tree; the message names the offending node path."""


class IllegalApplicationError(GrammarError):
    """Rule lhs does not match the frontier symbol."""


class CompleteTreeError(GrammarError):
    """Operation needs a frontier but the tree is complete."""


class MissingRuleError(GrammarError):
    """A gold expansion has no corresponding rule in the grammar."""


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: str  # NONTERMINAL | TERMINAL
    node_class: str = STRUCTURAL

    def __post_init__(self):
        if not self.name:
            raise GrammarError("empty symbol name")
        if self.kind not in (NONTERMINAL, TERMINAL):
            raise GrammarError(f"bad symbol kind {self.kind!r}")
        if self.node_class not in NODE_CLASSES:
            raise GrammarError(f"bad node class {self.node_class!r}")


@dataclass(frozen=True)
class GrammarRule:
    id: int
    lhs: Symbol
    rhs: tuple  # tuple[Symbol, ...]
    terminal_value: str | None = None

    def __post_init__(self):
        if self.lhs.kind != NONTERMINAL:
            raise GrammarError(f"terminal lhs {self.lhs.name!r}")
        if not self.rhs:
            raise GrammarError("empty rhs")
        is_term_prod = len(self.rhs) == 1 and self.rhs[0].kind == TERMINAL
        if (self.terminal_value is not None) != is_term_prod:
            raise GrammarError(
                "terminal_value must be set iff rhs is a single terminal")

    @property
    def key(self):
        return (self.lhs.name, tuple(s.name for s in self.rhs),
                self.terminal_value)


def expansion_key(node) -> tuple:
    """Key of the rule that expands ``node``: its symbol's name, its
    children's names and the value of a lone terminal child, or None."""
    kids = node.children
    value = None
    if len(kids) == 1 and kids[0].symbol.kind == TERMINAL:
        value = kids[0].terminal_value
    return (node.symbol.name, tuple(c.symbol.name for c in kids), value)


def preorder(root, spine=None, path=None):
    """Yield ``(node, path)`` for each node under ``root`` in pre-order,
    ``path`` being its child-index path.

    Given the ``spine`` of a node (the nodes from ``root`` down to it) and
    its ``path``, the walk starts at that node and goes on through the
    rest of the tree. The walk's only state is ``spine`` and ``path``, two
    lists updated in place with ``spine[-1]`` the node yielded, so any
    depth works and a walk takes linear time; a caller that keeps them
    past the next node copies them."""
    if spine is None:
        spine, path = [root], []
    yield spine[-1], path
    while True:
        children = spine[-1].children
        if children:
            spine.append(children[0])
            path.append(0)
        else:   # climb to the nearest ancestor with a next child
            while path:
                i = path[-1] + 1
                siblings = spine[-2].children
                if i < len(siblings):
                    spine[-1] = siblings[i]
                    path[-1] = i
                    break
                spine.pop()
                path.pop()
            else:
                return
        yield spine[-1], path


class Grammar:
    """Immutable after construction; safe for shared reads."""

    def __init__(self, rules, symbols, scope_vocab=(), scope_symbols=(),
                 start_symbol=None):
        self.rules: list[GrammarRule] = list(rules)
        self.symbols: dict[str, Symbol] = dict(symbols)
        self.scope_vocab: list[str] = list(scope_vocab)
        self.scope_symbols: frozenset[str] = frozenset(scope_symbols)
        self.start_symbol: Symbol | None = start_symbol
        self._by_key = {}
        lhs_index: dict[str, list[int]] = {}
        for i, r in enumerate(self.rules):
            if r.id != i:
                raise GrammarError(f"non-dense rule id {r.id} at position {i}")
            lhs_index.setdefault(r.lhs.name, []).append(r.id)
            self._by_key[r.key] = r.id
            for s in (r.lhs,) + r.rhs:
                if s.name not in self.symbols:
                    raise GrammarError(f"rule uses unknown symbol {s.name!r}")
        self.lhs_index: dict[str, tuple] = {
            k: tuple(v) for k, v in lhs_index.items()}

    @property
    def num_rules(self) -> int:
        return len(self.rules)

    def rule_id(self, key):
        """Id of the rule filed under an ``expansion_key``, or None."""
        return self._by_key.get(key)


def _validate_node(node, path):
    has_value = node.terminal_value is not None
    if has_value and node.children:
        raise StructuralInputError(
            f"node at {list(path)} has both a terminal value and children")
    if has_value and node.symbol.kind != TERMINAL:
        raise StructuralInputError(
            f"node at {list(path)} carries a value on a nonterminal symbol")
    if node.symbol.kind == TERMINAL and not has_value:
        raise StructuralInputError(
            f"terminal node at {list(path)} is missing its value")
    if len(node.children) > 1 and any(c.symbol.kind == TERMINAL
                                      for c in node.children):
        raise StructuralInputError(
            f"node at {list(path)} mixes terminal leaves with siblings")


def validate_tree(root):
    for node, path in preorder(root):
        _validate_node(node, path)


def induce_grammar(corpus) -> "Grammar":
    """Collect every observed expansion over a pre-order sweep.

    Also records scope names seen on nodes and which symbols introduce
    them, for the scope-controller vocabulary.
    """
    corpus = list(corpus)
    if not corpus:
        raise StructuralInputError("empty induction corpus")

    symbols: dict[str, Symbol] = {}
    rules: list[GrammarRule] = []
    seen_keys = set()
    scope_vocab: dict[str, None] = {}   # first-occurrence order
    scope_symbols = set()

    def intern(sym: Symbol, path, *child):
        prev = symbols.setdefault(sym.name, sym)
        if prev != sym:
            raise StructuralInputError(f"symbol {sym.name!r} redeclared "
                                       f"inconsistently at {[*path, *child]}")
        return prev

    for tree in corpus:
        for node, path in preorder(tree):
            _validate_node(node, path)
            intern(node.symbol, path)
            if node.scope_name is not None:
                scope_symbols.add(node.symbol.name)
                scope_vocab.setdefault(node.scope_name)
            if not node.children:
                continue
            rhs = tuple(intern(c.symbol, path, i)
                        for i, c in enumerate(node.children))
            key = expansion_key(node)
            if key not in seen_keys:
                seen_keys.add(key)
                rules.append(GrammarRule(len(rules), node.symbol, rhs, key[2]))

    return Grammar(rules, symbols, scope_vocab, scope_symbols,
                   start_symbol=corpus[0].symbol)


def copy_terminal_symbol(g: Grammar, lhs: Symbol) -> Symbol:
    """Terminal symbol to use for a copy-produced leaf under ``lhs``.

    Reuses the symbol of the lhs's first terminal rule when one exists,
    otherwise a reserved token symbol.
    """
    for rid in g.lhs_index.get(lhs.name, ()):
        r = g.rules[rid]
        if r.terminal_value is not None:
            return r.rhs[0]
    return Symbol(COPY_TERMINAL_NAME, TERMINAL)


GRAMMAR_VERSION = 1


def grammar_to_json(g: Grammar) -> str:
    doc = {
        "version": GRAMMAR_VERSION,
        "start": g.start_symbol.name if g.start_symbol else None,
        "symbols": [
            {"name": s.name, "kind": s.kind, "node_class": s.node_class}
            for s in g.symbols.values()
        ],
        "rules": [
            {
                "id": r.id,
                "lhs": r.lhs.name,
                "rhs": [s.name for s in r.rhs],
                **({"terminal": r.terminal_value}
                   if r.terminal_value is not None else {}),
            }
            for r in g.rules
        ],
        "scope_vocab": g.scope_vocab,
        "scope_symbols": sorted(g.scope_symbols),
    }
    return json.dumps(doc, indent=2) + "\n"


def _objects(doc, key):
    """The list of objects stored under ``key`` in a grammar document."""
    entries = doc.get(key)
    if not isinstance(entries, list) or not all(isinstance(e, dict)
                                                for e in entries):
        raise GrammarError(f"grammar {key!r} must be a list of objects")
    return entries


def _field(entry, key, where, kind=str):
    value = entry.get(key)
    if not isinstance(value, kind):
        raise GrammarError(f"{where} needs a {kind.__name__} {key!r}")
    return value


def grammar_from_json(text: str) -> Grammar:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise GrammarError("grammar is nested too deeply") from None
    except ValueError as e:  # also an integer too long to convert
        raise GrammarError(f"grammar is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise GrammarError("grammar must be a JSON object")
    if doc.get("version") != GRAMMAR_VERSION:
        raise GrammarError(f"unsupported grammar version {doc.get('version')}")
    symbols = {}
    for i, e in enumerate(_objects(doc, "symbols")):
        name = _field(e, "name", f"symbols[{i}]")
        symbols[name] = Symbol(name, _field(e, "kind", f"symbols[{i}]"),
                               e.get("node_class", STRUCTURAL))

    def symbol(name, where):
        if not isinstance(name, str) or name not in symbols:
            raise GrammarError(f"{where} names unknown symbol {name!r}")
        return symbols[name]

    rules = []
    for i, e in enumerate(_objects(doc, "rules")):
        where = f"rules[{i}]"
        rule_id = e.get("id")
        # true == 1 and 0.0 == 0 would pass Grammar's dense-id check but
        # write back differently, changing the grammar hash
        if not isinstance(rule_id, int) or isinstance(rule_id, bool):
            raise GrammarError(f"{where} needs an integer 'id'")
        rules.append(GrammarRule(
            rule_id,  # Grammar checks that the ids are 0, 1, 2, ...
            symbol(e.get("lhs"), where),
            tuple(symbol(n, where) for n in _field(e, "rhs", where, list)),
            _field(e, "terminal", where) if "terminal" in e else None,
        ))
    for key in ("scope_vocab", "scope_symbols"):
        names = doc.get(key, [])
        if not isinstance(names, list) or not all(isinstance(n, str)
                                                  for n in names):
            raise GrammarError(f"grammar {key!r} must be a list of strings")
    start = symbol(doc.get("start"), "grammar 'start'")
    if start.kind != NONTERMINAL:
        raise GrammarError(f"grammar 'start' names terminal {start.name!r}")
    return Grammar(rules, symbols, doc.get("scope_vocab", ()),
                   doc.get("scope_symbols", ()), start_symbol=start)
