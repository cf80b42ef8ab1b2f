"""Correctness checks run after the timed region.

Each check returns a list of failure messages; an empty list is a pass.
The references are computed here, apart from the program: rule ids are
re-derived by the benchmark's own pre-order walk, gradients by central
differences, greedy decodes by an argmax loop, and beam widths from the
corpus template. Nothing is compared with stored output.
"""
from __future__ import annotations

import math
import re

import numpy as np

import rulegen.autodiff as ad
import rulegen.decode as rdecode
import rulegen.model as rmodel
from rulegen.config import RunConfig
from tracing import Patches

LOSS_LINE = re.compile(r"^epoch (\d+) loss (\S+)")
LOGPROB_TOL = 1e-4        # float32 sums of ~100 log-probs
NORM_TOL = 1e-5           # float32 softmax normalisation


def key_to_id(grammar) -> dict:
    return {(r.lhs.name, tuple(s.name for s in r.rhs), r.terminal_value): r.id
            for r in grammar.rules}


def _node_key(node):
    value = None
    if len(node.children) == 1 and node.children[0].terminal_value is not None:
        value = node.children[0].terminal_value
    return (node.symbol.name, tuple(c.symbol.name for c in node.children),
            value)


def _expanded_preorder(node):
    if node.children:
        yield node
        for c in node.children:
            yield from _expanded_preorder(c)


def gold_targets(example, grammar) -> list:
    """Teacher-forcing targets: a variable leaf whose value is a slot value
    is a copy of the first such slot, any other expansion its rule id."""
    ids = key_to_id(grammar)
    values = [v for _, v in example.slots]
    out = []
    for node in _expanded_preorder(example.ast):
        key = _node_key(node)
        if node.symbol.node_class == "variable" and key[2] in values:
            out.append(grammar.num_rules + values.index(key[2]))
        else:
            out.append(ids[key])
    return out


# -- training ----------------------------------------------------------------


def check_losses(log_lines, epochs) -> list:
    losses = [float(m.group(2)) for m in map(LOSS_LINE.match, log_lines) if m]
    if len(losses) != epochs:
        return [f"{len(losses)} epoch losses logged, expected {epochs}"]
    if not all(math.isfinite(x) for x in losses):
        return [f"non-finite epoch loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"last epoch loss {losses[-1]} not below first {losses[0]}"]
    return []


def check_checkpoint(path, trained, grammar) -> list:
    loaded = rmodel.Model.load(path, grammar)
    a, b = trained.store, loaded.store
    if a.names() != b.names():
        return ["checkpoint parameter names differ from the returned model"]
    bad = [n for n in a.names() if not np.array_equal(a[n].data, b[n].data)]
    if bad:
        return [f"checkpoint values differ from the returned model: {bad[:3]}"]
    return []


def _loss(model, example, targets):
    feats, ctrl = model.encode(example.description)
    state = rmodel.initial_state(model.grammar, example.slots)
    total = None
    for t in targets:
        step = ad.pick(model.predict(state, feats, ctrl), t)
        total = step if total is None else ad.add(total, step)
        state = rmodel.advance(state, t, model.grammar)
    return ad.scale(total, -1.0)


def gradient_check(grammar, example, vocabs, seed) -> list:
    """Float64 central differences of one example's loss along a random
    +-1 direction over four random entries of every parameter tensor and
    its largest-gradient entry."""
    cfg = RunConfig(dim=4, layers=2, mlp_hidden=4, dropout=0.0, seed=seed)
    model = rmodel.Model(grammar, cfg, *vocabs, dtype=np.float64, seed=seed)
    targets = gold_targets(example, grammar)
    _loss(model, example, targets).backward()
    rng = np.random.default_rng(seed)
    failures = []
    for name in model.store.names():
        p = model.store[name]
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        size = p.data.size
        idx = {int(np.argmax(np.abs(grad)))}
        idx.update(int(i) for i in rng.choice(size, min(4, size),
                                              replace=False))
        idx = np.array(sorted(idx))
        direction = rng.choice([-1.0, 1.0], size=len(idx))
        analytic = float(grad.reshape(-1)[idx] @ direction)
        flat = p.data.reshape(-1)
        saved = flat[idx].copy()
        for eps in (1e-6, 1e-7):   # a ReLU kink inside the step fails one
            flat[idx] = saved + eps * direction
            up = _loss(model, example, targets).item()
            flat[idx] = saved - eps * direction
            down = _loss(model, example, targets).item()
            flat[idx] = saved
            numeric = (up - down) / (2 * eps)
            if (abs(numeric - analytic)
                    <= 1e-6 + 1e-4 * (abs(numeric) + abs(analytic))):
                break
        else:
            failures.append(f"gradient of {name}: analytic {analytic:.6e}, "
                            f"numeric {numeric:.6e}")
    return failures


# -- decoding ----------------------------------------------------------------


def rederive(hyp, grammar, slots) -> list:
    """The trace must match a pre-order walk of the finished tree, and each
    copy must land on a variable node holding the copied slot's value."""
    ids = key_to_id(grammar)
    nodes = list(_expanded_preorder(hyp.ast))
    trace = list(hyp.rule_trace)
    if len(nodes) != len(trace):
        return [f"trace has {len(trace)} steps, tree {len(nodes)} expansions"]
    for i, (node, t) in enumerate(zip(nodes, trace)):
        key = _node_key(node)
        if t >= grammar.num_rules:
            slot = t - grammar.num_rules
            if (node.symbol.node_class != "variable" or slot >= len(slots)
                    or key[2] != slots[slot][1]):
                return [f"step {i}: copy of slot {slot} lands on {key}"]
        elif ids.get(key) != t:
            return [f"step {i}: trace has rule {t}, tree has {key}"]
    return []


def check_distribution(state, logp, grammar) -> list:
    frontier = state.partial_ast.frontier.symbol
    valid = np.zeros(len(logp), dtype=bool)
    valid[[r.id for r in grammar.rules if r.lhs.name == frontier.name]] = True
    copies = len(logp) - grammar.num_rules
    if copies:
        if frontier.node_class != "variable" or copies != len(state.slots):
            return [f"{copies} copy targets at a {frontier.node_class} node"]
        valid[grammar.num_rules:] = True
    if not np.all(np.isneginf(logp[~valid])):
        return [f"a rule outside the valid set of {frontier.name} is not -inf"]
    if not np.all(np.isfinite(logp[valid])):
        return [f"a valid rule of {frontier.name} has no finite log-prob"]
    total = float(np.exp(logp[valid].astype(np.float64)).sum())
    if abs(total - 1.0) > NORM_TOL:
        return [f"valid probabilities at {frontier.name} sum to {total}"]
    return []


def check_result(result, query, grammar, hypotheses) -> list:
    """Checks that need only the search result."""
    hyps = result.hypotheses
    if len(hyps) != hypotheses:
        return [f"{query.id}: {len(hyps)} hypotheses, expected {hypotheses}"]
    failures = []
    for h in hyps:
        if not h.complete:
            failures.append(f"{query.id}: incomplete hypothesis")
        failures += [f"{query.id}: {m}" for m in rederive(h, grammar, query.slots)]
    lps = [h.log_prob for h in hyps]
    if any(a < b for a, b in zip(lps, lps[1:])):
        failures.append(f"{query.id}: hypotheses not sorted by log-prob")
    return failures


def rescore(model, query, trace) -> float:
    feats, ctrl = model.encode(query.description)
    state = rmodel.initial_state(model.grammar, query.slots)
    total = 0.0
    for t in trace:
        total += float(model.predict(state, feats, ctrl).data[t])
        state = rmodel.advance(state, t, model.grammar)
    return total


def argmax_decode(model, query):
    feats, ctrl = model.encode(query.description)
    state = rmodel.initial_state(model.grammar, query.slots)
    total = 0.0
    while not state.partial_ast.complete:
        lp = model.predict(state, feats, ctrl).data
        t = int(np.argmax(lp))
        total += float(lp[t])
        state = rmodel.advance(state, t, model.grammar)
    return state.rule_trace, total


def check_search(model, query, result, beam, expansions) -> list:
    """Re-run the search while recording every prediction, then check
    each distribution, rescore each hypothesis by teacher forcing and, at
    beam 1, compare with an argmax loop."""
    grammar = model.grammar
    seen = []

    def recording(fn):
        def wrapper(model_self, state, *args, **kwargs):
            out = fn(model_self, state, *args, **kwargs)
            seen.append((state, out.data))
            return out
        return wrapper

    patches = Patches()
    patches.replace(rmodel.Model, "predict", recording)
    try:
        again = rdecode.beam_search(model, query.description, query.slots,
                                    beam_size=beam)
    finally:
        patches.restore()
    failures = []
    if ([(h.rule_trace, h.log_prob) for h in again.hypotheses]
            != [(h.rule_trace, h.log_prob) for h in result.hypotheses]):
        failures.append(f"{query.id}: a second search gave another result")
    if len(seen) != expansions:
        failures.append(f"{query.id}: {len(seen)} predictions, "
                        f"expected {expansions} expansions")
    for state, logp in seen:
        failures += [f"{query.id}: {m}"
                     for m in check_distribution(state, logp, grammar)]
    for h in result.hypotheses:
        score = rescore(model, query, h.rule_trace)
        if abs(score - h.log_prob) > LOGPROB_TOL * max(1.0, abs(score)):
            failures.append(f"{query.id}: log-prob {h.log_prob} but "
                            f"teacher-forced rescoring gives {score}")
    if beam == 1:
        trace, total = argmax_decode(model, query)
        best = result.hypotheses[0]
        if (tuple(trace) != tuple(best.rule_trace)
                or abs(total - best.log_prob) > LOGPROB_TOL * max(1.0, abs(total))):
            failures.append(f"{query.id}: beam 1 differs from the argmax loop")
    return failures
