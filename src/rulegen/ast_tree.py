"""Partial ASTs and the structural views the decoder consumes.

A tree is immutable; expansion returns a fresh tree sharing untouched
subtrees. The frontier is the first unexpanded nonterminal in
depth-first pre-order, addressed by its child-index path from the root.
"""
from __future__ import annotations

from dataclasses import dataclass

from .grammar import (
    CompleteTreeError,
    FUNCTION_NAME,
    Grammar,
    GrammarRule,
    IllegalApplicationError,
    MissingRuleError,
    NONTERMINAL,
    STRUCTURAL,
    Symbol,
    TERMINAL,
    VARIABLE,
    validate_tree,
)

PHD_SYMBOL = Symbol("<phd>", NONTERMINAL, STRUCTURAL)


@dataclass(frozen=True)
class AstNode:
    symbol: Symbol
    terminal_value: str | None = None
    children: tuple = ()
    scope_name: str | None = None


def _chain(root: AstNode, path) -> list:
    """Nodes from ``root`` down to the node at ``path``, inclusive."""
    nodes = [root]
    for i in path:
        nodes.append(nodes[-1].children[i])
    return nodes


def find_frontier(node: AstNode):
    """Path of the first pre-order unexpanded nonterminal, or None."""
    if node.symbol.kind == NONTERMINAL and not node.children:
        return ()
    for i, child in enumerate(node.children):
        sub = find_frontier(child)
        if sub is not None:
            return (i,) + sub
    return None


@dataclass(frozen=True)
class PartialAst:
    root: AstNode
    frontier_path: tuple | None

    @classmethod
    def from_root(cls, root: AstNode) -> "PartialAst":
        return cls(root, find_frontier(root))

    @property
    def complete(self) -> bool:
        return self.frontier_path is None

    @property
    def frontier(self) -> AstNode | None:
        if self.frontier_path is None:
            return None
        return _chain(self.root, self.frontier_path)[-1]


def token_yield(root: AstNode) -> list:
    """In-order terminal values; the textual projection of a tree."""
    out = []

    def walk(node):
        if node.terminal_value is not None:
            out.append(node.terminal_value)
        for c in node.children:
            walk(c)

    walk(root)
    return out


def _rebuild(root: AstNode, path, new_node, scope_value, scope_symbols):
    """Replace the node at ``path`` and, when ``scope_value`` is set,
    stamp it on the deepest scope-introducing ancestor lacking one."""
    chain = _chain(root, path)
    scope_at = -1
    if scope_value is not None:
        for depth in range(len(chain) - 1, -1, -1):
            cand = chain[depth]
            if cand.symbol.name in scope_symbols and cand.scope_name is None:
                scope_at = depth
                break
    current = new_node
    if scope_at == len(chain) - 1:
        current = AstNode(current.symbol, current.terminal_value,
                          current.children, scope_value)
    for depth in range(len(path) - 1, -1, -1):
        parent = chain[depth]
        idx = path[depth]
        children = parent.children[:idx] + (current,) + parent.children[idx + 1:]
        scope = scope_value if depth == scope_at else parent.scope_name
        current = AstNode(parent.symbol, parent.terminal_value, children, scope)
    return current


def _expand(t: PartialAst, children, scope_value, scope_symbols) -> PartialAst:
    fnode = t.frontier
    new_node = AstNode(fnode.symbol, None, tuple(children), fnode.scope_name)
    return PartialAst.from_root(_rebuild(t.root, t.frontier_path, new_node,
                                         scope_value, scope_symbols))


def apply_rule(t: PartialAst, rule: GrammarRule,
               scope_symbols=frozenset()) -> PartialAst:
    """Expand the frontier with ``rule``; pure (input untouched)."""
    if t.frontier_path is None:
        raise CompleteTreeError("cannot apply a rule to a complete tree")
    fnode = t.frontier
    if fnode.symbol.name != rule.lhs.name:
        raise IllegalApplicationError(
            f"rule {rule.id} expands {rule.lhs.name!r}, "
            f"frontier is {fnode.symbol.name!r}")
    if rule.terminal_value is not None:
        children = [AstNode(rule.rhs[0], rule.terminal_value)]
    else:
        children = [AstNode(s) for s in rule.rhs]
    scope_value = None
    if (fnode.symbol.node_class == FUNCTION_NAME
            and rule.terminal_value is not None):
        scope_value = rule.terminal_value
    return _expand(t, children, scope_value, scope_symbols)


def apply_copy(t: PartialAst, value: str, terminal_symbol: Symbol,
               scope_symbols=frozenset()) -> PartialAst:
    """Attach a copied terminal leaf at the frontier (slot-copy path)."""
    if t.frontier_path is None:
        raise CompleteTreeError("cannot copy into a complete tree")
    fnode = t.frontier
    scope_value = value if fnode.symbol.node_class == FUNCTION_NAME else None
    return _expand(t, [AstNode(terminal_symbol, value)],
                   scope_value, scope_symbols)


def encode_to_rules(tree: AstNode, g: Grammar, slot_values=()) -> list:
    """Leftmost-derivation targets whose replay reconstructs ``tree``.

    Each expansion becomes its rule id, except that a variable node whose
    terminal value is one of ``slot_values`` becomes the copy target of
    the first such slot (R + slot index), so ``()`` gives pure rule ids.
    Raises MissingRuleError when neither exists.
    """
    validate_tree(tree)
    r = g.num_rules
    out = []

    def walk(node):
        if not node.children:
            return
        rhs_names = tuple(c.symbol.name for c in node.children)
        value = None
        if len(node.children) == 1 and node.children[0].symbol.kind == TERMINAL:
            value = node.children[0].terminal_value
        if (value is not None and node.symbol.node_class == VARIABLE
                and value in slot_values):
            out.append(r + slot_values.index(value))
        else:
            rid = g.rule_id(node.symbol.name, rhs_names, value)
            if rid is None:
                raise MissingRuleError(
                    f"no rule {node.symbol.name} -> {list(rhs_names)}"
                    + (f" = {value!r}" if value is not None else ""))
            out.append(rid)
        for c in node.children:
            walk(c)

    walk(tree)
    return out


def root_path(t: PartialAst):
    """Nodes from the root down to the frontier, inclusive."""
    if t.frontier_path is None:
        raise CompleteTreeError("complete tree has no frontier path")
    return _chain(t.root, t.frontier_path)


def nearest_scope(t: PartialAst):
    """Scope name on the closest ancestor of the frontier (inclusive)."""
    if t.frontier_path is None:
        raise CompleteTreeError("complete tree has no frontier")
    for node in reversed(root_path(t)):
        if node.scope_name is not None:
            return node.scope_name
    return None


def augmented_view(t: PartialAst):
    """Index-based view of the placeholder-augmented tree.

    Returns (nodes, parents, grands, units): nodes in augmented
    pre-order, parent/grandparent indices (-1 when absent), and the
    traversal as (node_index, flag_index) with 0=visit, 1=backtrack.
    """
    if t.frontier_path is None:
        raise CompleteTreeError("placeholder view needs a frontier")
    nodes, parents, grands, units = [], [], [], []
    phd = AstNode(PHD_SYMBOL)
    fpath = t.frontier_path

    def add(node, parent_idx):
        idx = len(nodes)
        nodes.append(node)
        parents.append(parent_idx)
        grands.append(parents[parent_idx] if parent_idx >= 0 else -1)
        return idx

    def emit_phd(parent_idx):
        pidx = add(phd, parent_idx)
        units.append((pidx, 0))
        units.append((pidx, 1))

    def walk(node, path, parent_idx):
        idx = add(node, parent_idx)
        units.append((idx, 0))
        for i, c in enumerate(node.children):
            walk(c, path + (i,), idx)
        if path == fpath and path == ():
            emit_phd(idx)
        units.append((idx, 1))
        if path == fpath and path != ():
            emit_phd(parent_idx)

    walk(t.root, (), -1)
    return nodes, parents, grands, units

