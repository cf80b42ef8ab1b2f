"""Beam search over grammar-rule expansions.

Hypotheses expand their leftmost frontier with the masked rule
distribution; invalid rules never enter a trace. A hypothesis is
complete once every leaf is a terminal; completed hypotheses are frozen
and compete with expanding ones by total log-probability (no length
normalization). Dead-end states are pruned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import DeadEndError, DecoderState, Model, advance, initial_state


@dataclass(frozen=True)
class Hypothesis:
    state: DecoderState
    log_prob: float
    step_log_probs: tuple = ()  # log p of each rule step; they sum to log_prob

    @property
    def complete(self) -> bool:
        return self.state.partial_ast.complete

    @property
    def rule_trace(self):
        return self.state.rule_trace

    @property
    def ast(self):
        return self.state.partial_ast.root


# Why a decode ends with no complete hypothesis.
STEP_BUDGET = "step_budget"   # max_decode_steps ran out first
DEAD_END = "dead_end"         # every hypothesis reached a dead end
FAILURE_CAUSES = (STEP_BUDGET, DEAD_END)


@dataclass
class DecodeResult:
    hypotheses: list       # complete, best first
    cause: str | None = None   # one of FAILURE_CAUSES when none completed

    @property
    def failed(self) -> bool:
        return not self.hypotheses


@ad.no_graph()
def beam_search(model: Model, description: str, slots=(),
                beam_size=None) -> DecodeResult:
    """Decode ``description`` with ``beam_size`` hypotheses (the config's
    beam size when None) within the config's step budget. Nothing is
    backpropagated, so no forward records a graph, and the tree-path and
    encoder pools that recur across the decode's predictions are computed
    once (``memo``; see ``Model.aggregate``).

    A candidate is ``(log_prob, rule_trace, parent, target, step)``: the
    parent hypothesis extended by ``target`` at log-prob ``step``, or a
    complete parent carried over (target None). Candidates rank by
    ``(-log_prob, rule_trace)``, and only the kept ones are advanced. The
    beam is always a prefix of ranked candidates, so its complete
    hypotheses come out best first with no further sort.
    """
    cfg = model.config
    if beam_size is None:
        beam_size = cfg.beam_size
    grammar = model.grammar
    enc_feats, ctrl = model.encode(description)
    memo = {}

    beam = [Hypothesis(initial_state(grammar, slots), 0.0)]
    cause = STEP_BUDGET
    for _ in range(cfg.max_decode_steps):
        if all(h.complete for h in beam):
            break
        candidates = []
        for h in beam:
            if h.complete:
                candidates.append((h.log_prob, h.rule_trace, h, None, None))
                continue
            try:
                lp = model.predict(h.state, enc_feats, ctrl, memo=memo).data
            except DeadEndError:
                continue
            order = np.argsort(-lp, kind="stable")
            for idx in order[:beam_size]:
                if not np.isfinite(lp[idx]):
                    break
                step = float(lp[idx])
                target = int(idx)
                candidates.append((h.log_prob + step,
                                   h.rule_trace + (target,), h, target, step))
        if not candidates:
            cause = DEAD_END
            break
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beam = [parent if target is None else Hypothesis(
                    advance(parent.state, target, grammar), log_prob,
                    parent.step_log_probs + (step,))
                for log_prob, _, parent, target, step
                in candidates[:beam_size]]

    complete = [h for h in beam if h.complete]
    return DecodeResult(complete, None if complete else cause)
