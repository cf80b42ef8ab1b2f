import numpy as np
import pytest

from oracles import (
    BACKTRACK,
    IncompleteDerivationError,
    OverlongDerivationError,
    VISIT,
    context_triple,
    decode_from_rules,
    first_unexpanded,
    node_count,
    preorder_with_backtrack,
    reconstruct_from_traversal,
    trees_equal,
)
from rulegen.ast_tree import (
    AstNode,
    CompleteTreeError,
    IllegalApplicationError,
    PHD_SYMBOL,
    PartialAst,
    apply_rule,
    augmented_view,
    encode_to_rules,
    nearest_scope,
    root_path,
    token_yield,
)
from rulegen.grammar import (
    GrammarRule,
    MissingRuleError,
    NONTERMINAL,
    STRUCTURAL,
    Symbol,
    TERMINAL,
    preorder,
)

NT = lambda n: Symbol(n, NONTERMINAL, STRUCTURAL)


def reference_tree():
    """Partial tree n1(n2(n3(n6), n4, n5)): n6 and n5 are terminal
    leaves, n4 is the unexpanded frontier."""
    n6 = AstNode(Symbol("n6", TERMINAL), "n6")
    n3 = AstNode(NT("n3"), None, (n6,))
    n4 = AstNode(NT("n4"))  # unexpanded: the frontier
    n5 = AstNode(Symbol("n5", TERMINAL), "n5")
    n2 = AstNode(NT("n2"), None, (n3, n4, n5))
    n1 = AstNode(NT("n1"), None, (n2,))
    return PartialAst.from_root(n1)


def names(units):
    return [(u.node.symbol.name, u.flag) for u in units]


def test_reference_traversal_sequence():
    t = reference_tree()
    units = preorder_with_backtrack(t, with_placeholder=True)
    got = [(n if n != PHD_SYMBOL.name else "PHD",
            "bt" if f == BACKTRACK else "v") for n, f in names(units)]
    assert got == [
        ("n1", "v"), ("n2", "v"), ("n3", "v"), ("n6", "v"), ("n6", "bt"),
        ("n3", "bt"), ("n4", "v"), ("n4", "bt"), ("PHD", "v"), ("PHD", "bt"),
        ("n5", "v"), ("n5", "bt"), ("n2", "bt"), ("n1", "bt"),
    ]
    assert len(got) == 14


def test_reference_path_fixture():
    t = reference_tree()
    assert [n.symbol.name for n in root_path(t)] == ["n1", "n2", "n4"]


def test_context_triples_reference():
    t = reference_tree()
    # n6 sits at path (0, 0, 0): child of n3, grandchild of n2
    node, parent, grand = context_triple(t.root, (0, 0, 0))
    assert node.symbol.name == "n6"
    assert parent.symbol.name == "n3"
    assert grand.symbol.name == "n2"
    node, parent, grand = context_triple(t.root, ())
    assert node.symbol.name == "n1" and parent is None and grand is None
    node, parent, grand = context_triple(t.root, (0,))
    assert parent.symbol.name == "n1" and grand is None


def test_single_node_traversal():
    t = PartialAst.from_root(AstNode(NT("A")))
    units = preorder_with_backtrack(t, with_placeholder=False)
    assert names(units) == [("A", VISIT), ("A", BACKTRACK)]
    units = preorder_with_backtrack(t, with_placeholder=True)
    assert len(units) == 4  # node + placeholder, two units each
    assert names(units)[1][0] == PHD_SYMBOL.name


def test_traversal_length_law(random_trees):
    for tree in random_trees[:50]:
        t = PartialAst.from_root(tree)
        units = preorder_with_backtrack(t, with_placeholder=False)
        assert len(units) == 2 * node_count(tree)


def test_placeholder_requires_frontier(random_trees):
    t = PartialAst.from_root(random_trees[0])
    with pytest.raises(CompleteTreeError):
        preorder_with_backtrack(t, with_placeholder=True)


def test_traversal_inverts_random_trees(random_trees):
    for tree in random_trees:
        units = preorder_with_backtrack(PartialAst.from_root(tree), False)
        assert trees_equal(reconstruct_from_traversal(units), tree)


def test_visit_only_sequences_are_ambiguous():
    a, b, c = NT("a"), NT("b"), NT("c")
    wide = AstNode(a, None, (AstNode(b), AstNode(c)))
    deep = AstNode(a, None, (AstNode(b, None, (AstNode(c),)),))
    visits = lambda t: [u.node.symbol.name
                        for u in preorder_with_backtrack(
                            PartialAst.from_root(t), False)
                        if u.flag == VISIT]
    assert not trees_equal(wide, deep)
    assert visits(wide) == visits(deep) == ["a", "b", "c"]
    # with backtrack units the two trees are distinguishable
    full = lambda t: names(preorder_with_backtrack(PartialAst.from_root(t),
                                                   False))
    assert full(wide) != full(deep)


def test_codec_roundtrip_fixture(six_examples, fixture_grammar):
    g = fixture_grammar
    for ex in six_examples:
        rules = encode_to_rules(ex.ast, g)
        back = decode_from_rules(rules, g, ex.ast.symbol)
        assert trees_equal(back, ex.ast)


def test_codec_roundtrip_random(random_trees, fixture_grammar):
    g = fixture_grammar
    for tree in random_trees:
        assert trees_equal(decode_from_rules(encode_to_rules(tree, g), g,
                                             tree.symbol), tree)


def test_codec_errors(six_examples, fixture_grammar):
    g = fixture_grammar
    rules = encode_to_rules(six_examples[1].ast, g)
    with pytest.raises(IncompleteDerivationError):
        decode_from_rules(rules[:-1], g, six_examples[1].ast.symbol)
    with pytest.raises(OverlongDerivationError):
        decode_from_rules(rules + [rules[0]], g, six_examples[1].ast.symbol)
    with pytest.raises(Exception) as e:
        decode_from_rules([], g, Symbol("tok", TERMINAL))
    assert "nonterminal" in str(e.value)


def test_missing_rule_names_expansion(fixture_grammar):
    stray = AstNode(NT("S"), None, (AstNode(NT("B")),))
    with pytest.raises(MissingRuleError) as e:
        encode_to_rules(stray, fixture_grammar)
    assert "S" in str(e.value) and "B" in str(e.value)


def test_apply_rule_errors(fixture_grammar):
    g = fixture_grammar
    t = PartialAst.from_root(AstNode(g.symbols["S"]))
    b_rule = g.rules[g.lhs_index["B"][0]]
    with pytest.raises(IllegalApplicationError):
        apply_rule(t, b_rule)
    # S -> F B, F -> "init", B -> A, A -> V, V -> "a" completes the tree
    done = decode_from_rules([0, 1, 2, 3, 4], g, g.symbols["S"])
    complete = PartialAst.from_root(done)
    with pytest.raises(CompleteTreeError):
        apply_rule(complete, g.rules[0])


def test_frontier_law_under_application(fixture_grammar, random_trees):
    """After each application the frontier is the recursive oracle's first
    unexpanded nonterminal, down to the complete tree, which has none."""
    g = fixture_grammar
    for tree in random_trees[:30]:
        rules = encode_to_rules(tree, g)
        t = PartialAst.from_root(AstNode(tree.symbol))
        for rid in rules:
            t = apply_rule(t, g.rules[rid], g.scope_symbols)
            assert t.frontier_path == first_unexpanded(t.root)
        assert t.complete and first_unexpanded(t.root) is None
        assert t.frontier is None


def test_preorder_resumed_at_a_spine_walks_the_tail(random_trees):
    """Started at any node's spine and path, the walk yields exactly the
    rest of the walk from the root, keeping the spine on the node."""
    for tree in random_trees[:40]:
        full = [(node, tuple(path)) for node, path in preorder(tree)]
        for k, (start, start_path) in enumerate(full):
            spine = [tree]
            for i in start_path:
                spine.append(spine[-1].children[i])
            assert spine[-1] is start
            tail = []
            for node, path in preorder(tree, spine, list(start_path)):
                assert spine[-1] is node and len(spine) == len(path) + 1
                tail.append((node, tuple(path)))
            assert len(tail) == len(full) - k
            assert all(a is b and pa == pb
                       for (a, pa), (b, pb) in zip(tail, full[k:]))


def test_expansion_resumes_into_an_expanded_right_sibling():
    """The next unexpanded node may sit inside an expanded sibling to the
    right of the frontier, which no derivation builds: the resumed walk
    still lands the frontier and the spine there."""
    n7 = AstNode(NT("n7"))  # unexpanded, under the expanded n5
    n5 = AstNode(NT("n5"), None, (n7,))
    n3 = AstNode(NT("n3"), None, (AstNode(Symbol("n6", TERMINAL), "n6"),))
    n2 = AstNode(NT("n2"), None, (n3, AstNode(NT("n4")), n5))
    t = PartialAst.from_root(AstNode(NT("n1"), None, (n2,)))
    assert t.frontier_path == (0, 1)
    leaf = Symbol("x", TERMINAL)
    t = apply_rule(t, GrammarRule(0, NT("n4"), (leaf,), "x"))
    assert t.frontier_path == (0, 2, 0) == first_unexpanded(t.root)
    assert t.frontier is n7
    assert [n.symbol.name for n in root_path(t)] == ["n1", "n2", "n5", "n7"]
    assert root_path(t)[0] is t.root
    for depth, i in enumerate(t.frontier_path):
        assert root_path(t)[depth + 1] is root_path(t)[depth].children[i]
    assert t.root.children[0].children[1].children[0].terminal_value == "x"


def test_root_path_is_parent_chain(fixture_grammar, random_trees):
    g = fixture_grammar
    for tree in random_trees[:20]:
        rules = encode_to_rules(tree, g)
        t = PartialAst.from_root(AstNode(tree.symbol))
        for rid in rules[:-1]:
            t = apply_rule(t, g.rules[rid], g.scope_symbols)
            chain = root_path(t)
            # upward-walk oracle over the frontier path
            path = t.frontier_path
            assert len(chain) == len(path) + 1
            for depth in range(len(path)):
                assert chain[depth + 1] is chain[depth].children[path[depth]]


def test_nearest_scope_matches_ancestor_scan(fixture_grammar, six_examples):
    g = fixture_grammar
    for ex in six_examples:
        rules = encode_to_rules(ex.ast, g)
        t = PartialAst.from_root(AstNode(ex.ast.symbol))
        for rid in rules[:-1]:
            t = apply_rule(t, g.rules[rid], g.scope_symbols)
            chain = root_path(t)
            oracle = None
            for node in chain:
                if node.scope_name is not None:
                    oracle = node.scope_name
            assert nearest_scope(t) == oracle


def test_scope_stamped_during_derivation(six_examples, fixture_grammar):
    """Replaying a derivation attaches the function name to its scope node."""
    g = fixture_grammar
    ex = six_examples[0]
    rules = encode_to_rules(ex.ast, g)
    rebuilt = decode_from_rules(rules, g, ex.ast.symbol)
    assert rebuilt.scope_name == ex.ast.scope_name == "init"


def test_token_yield(six_examples):
    assert token_yield(six_examples[0].ast) == ["init", "a"]
    assert token_yield(six_examples[2].ast) == ["init", "b", "a", "pass"]


def test_augmented_view_consistent_with_traversal():
    t = reference_tree()
    nodes, parents, grands, units = augmented_view(t)
    ref = preorder_with_backtrack(t, with_placeholder=True)
    assert len(units) == len(ref)
    for (idx, flag), unit in zip(units, ref):
        assert nodes[idx].symbol == unit.node.symbol
        assert flag == (0 if unit.flag == VISIT else 1)
    for i, (p, gp) in enumerate(zip(parents, grands)):
        if p >= 0:
            assert gp == parents[p]
        else:
            assert gp == -1


def oracle_visits(t):
    """(node, parent, grandparent) of each visit unit of the oracle
    traversal with placeholder, and the path of its first unexpanded
    nonterminal; ancestors come from ``context_triple``."""
    path, counts = [], [0]   # open nodes' child indices, children seen
    frontier, triples = None, []
    for unit in preorder_with_backtrack(t, with_placeholder=True):
        if unit.flag == BACKTRACK:
            path.pop()
            counts.pop()
            continue
        node = unit.node
        if node.symbol == PHD_SYMBOL:
            # the placeholder is no child of the real tree: its parent is
            # the node open around it, and it takes no child index
            parent, grand, _ = context_triple(t.root, tuple(path[1:]))
            triples.append((node, parent, grand))
            path.append(None)
        else:
            path.append(counts[-1])
            counts[-1] += 1
            node_path = tuple(path[1:])
            triples.append(context_triple(t.root, node_path))
            if (frontier is None and node.symbol.kind == NONTERMINAL
                    and not node.children):
                frontier = node_path
        counts.append(0)
    return frontier, triples


def test_views_match_oracles_at_every_prefix_state(fixture_grammar,
                                                   random_trees):
    g = fixture_grammar
    states = 0
    for tree in random_trees:
        t = PartialAst.from_root(AstNode(tree.symbol))
        for rid in encode_to_rules(tree, g):
            frontier, triples = oracle_visits(t)
            assert t.frontier_path == frontier
            nodes, parents, grands, units = augmented_view(t)
            ref = preorder_with_backtrack(t, with_placeholder=True)
            assert [f for _, f in units] == [
                0 if u.flag == VISIT else 1 for u in ref]
            assert all(nodes[i].symbol == u.node.symbol
                       for (i, _), u in zip(units, ref))
            # nodes are listed in visit order
            assert [i for i, f in units if f == 0] == list(range(len(nodes)))
            assert len(triples) == len(nodes)
            for i, (node, parent, grand) in enumerate(triples):
                assert nodes[i].symbol == node.symbol
                if node.symbol != PHD_SYMBOL:
                    assert nodes[i] is node
                for got, want in ((parents[i], parent), (grands[i], grand)):
                    assert (got == -1) == (want is None)
                    if want is not None:
                        assert nodes[got] is want
            t = apply_rule(t, g.rules[rid], g.scope_symbols)
            states += 1
        assert t.complete
    assert states > len(random_trees)
