"""Partial ASTs and the structural views the decoder consumes.

A tree is immutable; expansion returns a fresh tree sharing untouched
subtrees. The frontier is the first unexpanded nonterminal in
depth-first pre-order, addressed by its child-index path from the root.
A partial tree also carries its spine, the nodes from the root down to
the frontier, which the tree-path CNN, the scope controller and the
per-node-class heads read. Every pass over a tree is the one pre-order
walk, ``grammar.preorder``: ``PartialAst.from_root`` runs it from the
root to find the frontier, and an expansion rebuilds the spine down to
the node it expanded and resumes the walk there, since every node
before that one is already expanded.
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
    VARIABLE,
    expansion_key,
    preorder,
    validate_tree,
)

PHD_SYMBOL = Symbol("<phd>", NONTERMINAL, STRUCTURAL)


@dataclass(frozen=True)
class AstNode:
    symbol: Symbol
    terminal_value: str | None = None
    children: tuple = ()
    scope_name: str | None = None


@dataclass(frozen=True)
class PartialAst:
    root: AstNode
    frontier_path: tuple | None
    spine: tuple = ()   # the nodes from the root to the frontier, inclusive

    @classmethod
    def from_root(cls, root: AstNode) -> "PartialAst":
        return _walk_to_frontier([root], [])

    @property
    def complete(self) -> bool:
        return self.frontier_path is None

    @property
    def frontier(self) -> AstNode | None:
        return self.spine[-1] if self.spine else None


def _walk_to_frontier(spine, path) -> PartialAst:
    """The tree under ``spine[0]``, its frontier found by the pre-order
    walk resumed at ``spine[-1]``; every node before that is expanded."""
    root = spine[0]
    for node, _ in preorder(root, spine, path):
        if node.symbol.kind == NONTERMINAL and not node.children:
            return PartialAst(root, tuple(path), tuple(spine))
    return PartialAst(root, None)


def token_yield(root: AstNode) -> list:
    """In-order terminal values; the textual projection of a tree."""
    return [node.terminal_value for node, _ in preorder(root)
            if node.terminal_value is not None]


def _rebuild(t: PartialAst, children, scope_value, scope_symbols) -> list:
    """The spine of ``t`` with ``children`` given to its frontier and,
    when ``scope_value`` is set, that value stamped on the deepest
    scope-introducing node of the spine lacking one."""
    spine, path = list(t.spine), t.frontier_path
    for depth in range(len(path), -1, -1):
        node = spine[depth]
        if depth < len(path):
            idx = path[depth]
            children = (node.children[:idx] + (spine[depth + 1],)
                        + node.children[idx + 1:])
        scope = node.scope_name
        if (scope is None and scope_value is not None
                and node.symbol.name in scope_symbols):
            scope, scope_value = scope_value, None
        spine[depth] = AstNode(node.symbol, node.terminal_value, children,
                               scope)
    return spine


def apply_rule(t: PartialAst, rule: GrammarRule,
               scope_symbols=frozenset()) -> PartialAst:
    """Expand the frontier with ``rule``; pure (input untouched). A copy
    applies the terminal rule ``lhs -> sym = value`` built on the spot."""
    if t.frontier_path is None:
        raise CompleteTreeError("cannot apply a rule to a complete tree")
    fnode = t.frontier
    if fnode.symbol.name != rule.lhs.name:
        raise IllegalApplicationError(
            f"rule {rule.id} expands {rule.lhs.name!r}, "
            f"frontier is {fnode.symbol.name!r}")
    # a function name is the scope of its nearest scope-introducing node
    scope_value = (rule.terminal_value
                   if fnode.symbol.node_class == FUNCTION_NAME else None)
    children = tuple(AstNode(s, rule.terminal_value) for s in rule.rhs)
    return _walk_to_frontier(_rebuild(t, children, scope_value, scope_symbols),
                             list(t.frontier_path))


def encode_to_rules(tree: AstNode, g: Grammar, slot_values=()) -> list:
    """Leftmost-derivation targets whose replay reconstructs ``tree``.

    Each expansion becomes its rule id, except that a variable node whose
    terminal value is one of ``slot_values`` becomes the copy target of
    the first such slot (R + slot index), so ``()`` gives pure rule ids.
    Raises MissingRuleError when neither exists.
    """
    validate_tree(tree)
    out = []
    for node, _ in preorder(tree):
        if not node.children:
            continue
        key = lhs, rhs_names, value = expansion_key(node)
        if (value is not None and node.symbol.node_class == VARIABLE
                and value in slot_values):
            out.append(g.num_rules + slot_values.index(value))
        else:
            rid = g.rule_id(key)
            if rid is None:
                raise MissingRuleError(
                    f"no rule {lhs} -> {list(rhs_names)}"
                    + (f" = {value!r}" if value is not None else ""))
            out.append(rid)
    return out


def root_path(t: PartialAst):
    """Nodes from the root down to the frontier, inclusive."""
    if t.frontier_path is None:
        raise CompleteTreeError("complete tree has no frontier path")
    return t.spine


def nearest_scope(t: PartialAst):
    """Scope name on the closest ancestor of the frontier (inclusive)."""
    if t.frontier_path is None:
        raise CompleteTreeError("complete tree has no frontier")
    for node in reversed(t.spine):
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
    fpath = list(t.frontier_path)
    open_nodes = []   # indices of the nodes entered and not yet left

    def add(node, parent_idx):
        idx = len(nodes)
        nodes.append(node)
        parents.append(parent_idx)
        grands.append(parents[parent_idx] if parent_idx >= 0 else -1)
        units.append((idx, 0))
        return idx

    for node, path in preorder(t.root):
        while len(open_nodes) > len(path):
            units.append((open_nodes.pop(), 1))
        open_nodes.append(add(node, open_nodes[-1] if open_nodes else -1))
        if path == fpath:
            # an unexpanded leaf: the placeholder is its child when it is
            # the root, and its next sibling otherwise
            if path:
                units.append((open_nodes.pop(), 1))
            units.append((add(phd, open_nodes[-1]), 1))
    while open_nodes:
        units.append((open_nodes.pop(), 1))
    return nodes, parents, grands, units
