"""Independent oracles for the tree code in ``rulegen.ast_tree`` and for
the shortcut-CNN stack in ``rulegen.autodiff``.

The package walks every tree with one iterative walker,
``grammar.preorder``; the derivation encoding (``encode_to_rules``) and
the traversal view (``augmented_view``) are loops over it. The tests
check them against the recursive, object-based builders here: a
pre-order traversal with backtrack units and its stack-based inverse,
the first unexpanded nonterminal, the (node, parent, grandparent)
triple at a path, a derivation replay that inverts ``encode_to_rules``,
structural tree equality, and a bounded random tree sampler.

The package runs a whole shortcut-CNN stack as one node
(``conv_stack``). ``window_conv`` here is one layer of it as its own
node, so a chain of them on the tape is the reference for the stack's
forward values and gradients.

``beam_search`` computes the features that recur within one decode once
(the memo ``Model.predict`` takes) and advances only the candidates it
keeps. ``serial_beam_search`` here is the search without either: one
memo-free ``predict`` per expansion, and every candidate advanced before
the beam is cut.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rulegen.ast_tree import PHD_SYMBOL, AstNode, PartialAst, apply_rule
from rulegen.autodiff import (
    ShapeError,
    Tensor,
    _check_finite,
    _check_segments,
    no_graph,
    window_offsets,
)
from rulegen.grammar import (
    CompleteTreeError,
    Grammar,
    NONTERMINAL,
    Symbol,
    TERMINAL,
)
from rulegen.model import DeadEndError, advance, initial_state

VISIT = "visit"
BACKTRACK = "backtrack"


class DerivationError(ValueError):
    pass


class IncompleteDerivationError(DerivationError):
    """Rule sequence ended while a frontier remained."""


class OverlongDerivationError(DerivationError):
    """Rules left over after the tree completed."""


@dataclass(frozen=True)
class TraversalUnit:
    node: AstNode
    flag: str  # VISIT | BACKTRACK


def node_count(root: AstNode) -> int:
    return 1 + sum(node_count(c) for c in root.children)


def trees_equal(a: AstNode, b: AstNode, compare_scopes=False) -> bool:
    """Structural equality; scope names are metadata unless asked for."""
    if a.symbol != b.symbol or a.terminal_value != b.terminal_value:
        return False
    if compare_scopes and a.scope_name != b.scope_name:
        return False
    if len(a.children) != len(b.children):
        return False
    return all(trees_equal(x, y, compare_scopes)
               for x, y in zip(a.children, b.children))


def decode_from_rules(rules, g: Grammar, start: Symbol) -> AstNode:
    """Replay a leftmost derivation; exact inverse of encode_to_rules."""
    if start.kind != NONTERMINAL:
        raise DerivationError(f"start symbol {start.name!r} is not a nonterminal")
    t = PartialAst.from_root(AstNode(start))
    for rid in rules:
        if t.frontier_path is None:
            raise OverlongDerivationError(
                f"rule {rid} applied after the tree completed")
        t = apply_rule(t, g.rules[rid], g.scope_symbols)
    if t.frontier_path is not None:
        raise IncompleteDerivationError(
            f"derivation ended at frontier {t.frontier.symbol.name!r}")
    return t.root


def preorder_with_backtrack(t: PartialAst, with_placeholder: bool):
    """Pre-order traversal emitting each node on entry and after its
    subtree. With the placeholder, n_PHD is inserted right after the
    frontier among its siblings (as a child when the frontier is the
    root), marking where the next rule applies."""
    if with_placeholder and t.frontier_path is None:
        raise CompleteTreeError("placeholder insertion needs a frontier")
    units = []
    phd = AstNode(PHD_SYMBOL)
    fpath = t.frontier_path

    def walk(node, path):
        units.append(TraversalUnit(node, VISIT))
        for i, c in enumerate(node.children):
            walk(c, path + (i,))
        if with_placeholder and path == fpath and path == ():
            units.append(TraversalUnit(phd, VISIT))
            units.append(TraversalUnit(phd, BACKTRACK))
        units.append(TraversalUnit(node, BACKTRACK))
        if with_placeholder and path == fpath and path != ():
            units.append(TraversalUnit(phd, VISIT))
            units.append(TraversalUnit(phd, BACKTRACK))

    walk(t.root, ())
    return units


def first_unexpanded(node: AstNode, path=()):
    """Path of the first unexpanded nonterminal under ``node`` in
    pre-order, found by recursion; None when the tree is complete."""
    if node.symbol.kind == NONTERMINAL and not node.children:
        return path
    for i, child in enumerate(node.children):
        found = first_unexpanded(child, path + (i,))
        if found is not None:
            return found
    return None


def context_triple(root: AstNode, path):
    """(node, parent, grandparent) at ``path``; missing ancestors are None
    and stand for the PAD embedding downstream."""
    chain = [root]
    node = root
    for i in path:
        node = node.children[i]
        chain.append(node)
    parent = chain[-2] if len(chain) >= 2 else None
    grand = chain[-3] if len(chain) >= 3 else None
    return node, parent, grand


def reconstruct_from_traversal(units):
    """Invert a visit/backtrack traversal back to its tree.

    Stack-based: a visit opens a node under the current top, a backtrack
    closes the top.
    """
    root_box = []
    stack = []
    for u in units:
        if u.flag == VISIT:
            stack.append((u.node, []))
        elif u.flag == BACKTRACK:
            if not stack:
                raise DerivationError("backtrack with empty stack")
            node, kids = stack.pop()
            if node.symbol != u.node.symbol:
                raise DerivationError("mismatched backtrack unit")
            rebuilt = AstNode(node.symbol, node.terminal_value,
                              tuple(kids), node.scope_name)
            if stack:
                stack[-1][1].append(rebuilt)
            else:
                root_box.append(rebuilt)
        else:
            raise DerivationError(f"bad traversal flag {u.flag!r}")
    if stack or len(root_box) != 1:
        raise DerivationError("traversal does not close a single tree")
    return root_box[0]


def _min_heights(g: Grammar):
    """Min derivation height per rule, for bounded random sampling."""
    sym_h = {name: (0 if s.kind == TERMINAL else None)
             for name, s in g.symbols.items()}
    rule_h = {r.id: None for r in g.rules}
    changed = True
    while changed:
        changed = False
        for r in g.rules:
            hs = [sym_h[s.name] for s in r.rhs]
            if any(h is None for h in hs):
                continue
            h = 1 + max(hs)
            if rule_h[r.id] is None or h < rule_h[r.id]:
                rule_h[r.id] = h
                changed = True
            cur = sym_h[r.lhs.name]
            if cur is None or h < cur:
                sym_h[r.lhs.name] = h
                changed = True
    return rule_h


def random_tree(g: Grammar, rng, max_depth=8, start=None) -> AstNode:
    """Sample a complete tree by random rule choice; beyond max_depth the
    minimum-height rule for the frontier symbol is forced."""
    start = start or g.start_symbol
    rule_h = _min_heights(g)
    t = PartialAst.from_root(AstNode(start))
    while t.frontier_path is not None:
        depth = len(t.frontier_path)
        ids = list(g.lhs_index[t.frontier.symbol.name])
        if depth >= max_depth:
            best = min(rule_h[i] for i in ids if rule_h[i] is not None)
            ids = [i for i in ids if rule_h[i] == best]
        rid = ids[int(rng.integers(len(ids)))]
        t = apply_rule(t, g.rules[rid], g.scope_symbols)
    return t.root


def window_conv(x: Tensor, w: Tensor, k: int, lengths=None,
                residual=None) -> Tensor:
    """One shortcut-CNN layer as one node: relu(window(x) @ w + residual).

    Row i of window(x) concatenates rows i+o of x over the window offsets,
    with zeros outside the sequence. With ``lengths``, x packs consecutive
    sequences of those lengths, and a window never reads across a boundary
    between them: each sequence gets the rows it would get alone.
    ``residual``, when given, has the shape of the output and is added
    before the ReLU.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or w.shape[0] != k * x.shape[1]:
        raise ShapeError(f"window_conv {x.shape} with window {k} @ {w.shape}")
    n, d = x.shape
    if residual is not None and residual.shape != (n, w.shape[1]):
        raise ShapeError(f"window_conv residual {residual.shape}, "
                         f"output {(n, w.shape[1])}")
    offs = window_offsets(k)
    cross = None  # (n, k): window slots that would read another sequence
    if lengths is not None and len(lengths) > 1:
        _check_segments(lengths, n)
        seg = np.repeat(np.arange(len(lengths)), lengths)
        src = np.clip(np.arange(n)[:, None] + np.array(offs), 0, n - 1)
        cross = seg[src] != seg[:, None]
    # (column block, source rows, destination rows) per window offset that
    # reads inside the sequence
    blocks = [(slice(j * d, (j + 1) * d), slice(max(0, o), n + min(0, o)),
               slice(max(0, -o), n - max(0, o)))
              for j, o in enumerate(offs) if abs(o) < n]
    win = np.zeros((n, k * d), dtype=x.dtype)
    for cols, src_rows, dst_rows in blocks:
        win[dst_rows, cols] = x.data[src_rows]
    if cross is not None:
        win.reshape(n, k, d)[cross] = 0.0
    z = win @ w.data
    if residual is not None:
        z += residual.data
    _check_finite(z, "window_conv")
    out = np.maximum(z, 0, out=z)

    def bw(g):
        gz = g * (out > 0)
        gwin = gz @ w.data.T
        if cross is not None:
            gwin.reshape(n, k, d)[cross] = 0.0
        gx = np.zeros_like(x.data)
        for cols, src_rows, dst_rows in blocks:
            gx[src_rows] += gwin[dst_rows, cols]
        grads = (gx, win.T @ gz)
        return grads if residual is None else grads + (gz,)

    parents = (x, w) if residual is None else (x, w, residual)
    return Tensor(out, parents=parents, backward_fn=bw)


@dataclass(frozen=True)
class SerialHypothesis:
    state: object          # a rulegen DecoderState
    log_prob: float
    step_log_probs: tuple = ()

    @property
    def complete(self) -> bool:
        return self.state.partial_ast.complete


@no_graph()
def serial_beam_search(model, description, slots, beam_size):
    """The complete hypotheses of a beam search, best first: the search
    without a memo, with every candidate advanced before the cut."""
    grammar = model.grammar
    enc_feats, ctrl = model.encode(description)
    beam = [SerialHypothesis(initial_state(grammar, slots), 0.0)]
    key = lambda h: (-h.log_prob, h.state.rule_trace)
    for _ in range(model.config.max_decode_steps):
        if all(h.complete for h in beam):
            break
        candidates = []
        for h in beam:
            if h.complete:
                candidates.append(h)
                continue
            try:
                lp = model.predict(h.state, enc_feats, ctrl).data
            except DeadEndError:
                continue
            for idx in np.argsort(-lp, kind="stable")[:beam_size]:
                if not np.isfinite(lp[idx]):
                    break
                step = float(lp[idx])
                candidates.append(SerialHypothesis(
                    advance(h.state, int(idx), grammar), h.log_prob + step,
                    h.step_log_probs + (step,)))
        if not candidates:
            break
        candidates.sort(key=key)
        beam = candidates[:beam_size]
    return sorted((h for h in beam if h.complete), key=key)
