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


@dataclass
class DecodeResult:
    hypotheses: list       # complete, best first

    @property
    def failed(self) -> bool:
        return not self.hypotheses


def _sort_key(h: Hypothesis):
    return (-h.log_prob, h.state.rule_trace)


@ad.no_graph()
def beam_search(model: Model, description: str, slots=(),
                beam_size=None) -> DecodeResult:
    """Decode ``description`` with ``beam_size`` hypotheses (the config's
    beam size when None) within the config's step budget. Nothing is
    backpropagated, so no forward records a graph."""
    cfg = model.config
    if beam_size is None:
        beam_size = cfg.beam_size
    grammar = model.grammar
    enc_feats, ctrl = model.encode(description)

    start = Hypothesis(initial_state(grammar, slots), 0.0)
    beam = [start]
    for _ in range(cfg.max_decode_steps):
        if all(h.complete for h in beam):
            break
        candidates = []
        for h in beam:
            if h.complete:
                candidates.append(h)
                continue
            try:
                logp = model.predict(h.state, enc_feats, ctrl)
            except DeadEndError:
                continue
            lp = logp.data
            order = np.argsort(-lp, kind="stable")
            for idx in order[:beam_size]:
                if not np.isfinite(lp[idx]):
                    break
                step = float(lp[idx])
                candidates.append(Hypothesis(
                    advance(h.state, int(idx), grammar), h.log_prob + step,
                    h.step_log_probs + (step,)))
        if not candidates:
            break
        candidates.sort(key=_sort_key)
        beam = candidates[:beam_size]

    complete = sorted((h for h in beam if h.complete), key=_sort_key)
    return DecodeResult(complete)
