"""Normalized string accuracy and corpus BLEU over token yields.

A prediction matches iff its token yield equals the gold yield exactly;
decode failures (prediction None) count as mismatches. BLEU is
corpus-level BLEU-4 with counts pooled over the corpus, add-one
smoothing on numerator and denominator for n >= 2, and the usual
brevity penalty; a zero-length candidate corpus scores 0.
"""
from __future__ import annotations

import math
from collections import Counter

MAX_N = 4  # BLEU-4: n-grams of orders 1..4


def _ngram_counts(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def string_accuracy(predictions, golds) -> float:
    if len(predictions) != len(golds):
        raise ValueError(
            f"{len(predictions)} predictions vs {len(golds)} references")
    if not golds:
        raise ValueError("empty corpus")
    hits = sum(1 for p, g in zip(predictions, golds)
               if p is not None and list(p) == list(g))
    return hits / len(golds)


def bleu(predictions, golds) -> float:
    if len(predictions) != len(golds):
        raise ValueError(
            f"{len(predictions)} predictions vs {len(golds)} references")
    if not golds:
        raise ValueError("empty corpus")
    match = [0] * (MAX_N + 1)
    total = [0] * (MAX_N + 1)
    cand_len = 0
    ref_len = 0
    for pred, gold in zip(predictions, golds):
        pred = list(pred) if pred is not None else []
        gold = list(gold)
        cand_len += len(pred)
        ref_len += len(gold)
        for n in range(1, MAX_N + 1):
            pc = _ngram_counts(pred, n)
            gc = _ngram_counts(gold, n)
            total[n] += sum(pc.values())
            match[n] += sum(min(c, gc[k]) for k, c in pc.items())
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, MAX_N + 1):
        smooth = 1 if n >= 2 else 0
        num = match[n] + smooth
        den = total[n] + smooth
        if num == 0 or den == 0:
            return 0.0
        log_sum += math.log(num / den)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(log_sum / MAX_N)
