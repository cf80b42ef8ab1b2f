"""Finite-difference verification of the analytic gradients.

One routine, :func:`fd_errors`, serves both levels: per-op checks on
small random tensors, and a full-model check that differentiates the
teacher-forced loss of a tiny synthetic batch, plus the L2 penalty that
training backpropagates, with respect to every parameter group. Central
differences at 64-bit; relative error must stay under the library-wide
threshold.
"""
from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from .ast_tree import encode_to_rules
from .config import RunConfig
from .data import synth_corpus
from .grammar import induce_grammar
from .model import Model, vocabs_from_examples
from .params import ParamStore
from .training import example_loss, l2_penalty

TOLERANCE = 1e-4
EPSILON = 1e-5


# Floor on the relative-error denominator: central differences on a
# loss of magnitude ~10 carry ~1e-10 of float64 cancellation noise, so
# comparing gradients below ~1e-5 would measure noise, not correctness.
DENOM_FLOOR = 1e-5


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), DENOM_FLOOR)


def fd_errors(loss_fn, store, samples_per_tensor=0, rng=None) -> dict:
    """Worst relative error between the analytic gradient of ``loss_fn()``
    and its central difference, one reading per parameter of ``store``.

    ``loss_fn()`` must rebuild the scalar loss tensor from scratch: it runs
    backward once, then is re-evaluated, recording no graph, at perturbed
    entries. With ``samples_per_tensor``, that many entries of each larger
    tensor are drawn by ``rng``; otherwise every entry is checked. The
    store's gradients are left zeroed.
    """
    store.zero_grad()
    loss_fn().backward()
    errors = {}
    for name, t in store.params.items():
        flat, ga = t.data.reshape(-1), t.grad.reshape(-1)
        if samples_per_tensor and samples_per_tensor < flat.size:
            idx = rng.choice(flat.size, size=samples_per_tensor, replace=False)
        else:
            idx = range(flat.size)

        def error_at(i, e):
            orig = flat[i]
            flat[i] = orig + e
            lp = loss_fn().item()
            flat[i] = orig - e
            lm = loss_fn().item()
            flat[i] = orig
            return relative_error(float(ga[i]), (lp - lm) / (2 * e))

        worst = 0.0
        with ad.no_graph():  # the perturbed losses are only read
            for i in idx:
                err = error_at(i, EPSILON)
                if err >= TOLERANCE:
                    # a ReLU kink or argmax flip inside the interval inflates
                    # the estimate; a genuinely wrong gradient stays wrong at
                    # every step
                    err = min(err, error_at(i, EPSILON / 10))
                worst = max(worst, err)
        errors[name] = worst
    store.zero_grad()
    return errors


def tiny_corpus(seed):
    """Three examples that reach every head and the copy path."""
    return synth_corpus(num_ops=2, max_depth=1, count=3, seed=seed)


def build_tiny_model(config: RunConfig):
    """Tiny corpus + model that exercises every head and the copy path."""
    examples = tiny_corpus(config.seed)
    grammar = induce_grammar([ex.ast for ex in examples])
    model = Model(grammar, config, *vocabs_from_examples(examples),
                  dtype=np.float64)
    batches = [(ex, encode_to_rules(
        ex.ast, grammar, () if config.no_copy else ex.slot_values()))
        for ex in examples]

    def loss_builder():
        total = None
        for ex, targets in batches:
            loss = example_loss(model, ex, targets)
            total = loss if total is None else ad.add(total, loss)
        if config.l2 > 0:
            total = ad.add(total, l2_penalty(model))
        return total

    return model, loss_builder


def run_full_check(dims=4, layers=3, samples_per_tensor=4, seed=0,
                   **config_overrides) -> dict:
    config = RunConfig(dim=dims, layers=layers, mlp_hidden=dims,
                       dropout=0.0, seed=seed, **config_overrides)
    model, loss_builder = build_tiny_model(config)
    return fd_errors(loss_builder, model.store, samples_per_tensor,
                     np.random.default_rng(seed))


# (name, op, input shapes): each op's output is summed to a scalar loss
OP_CHECKS = [
    ("matmul", ad.matmul, [(3, 4), (4, 2)]),
    ("add", ad.add, [(3, 4), (3, 4)]),
    ("add_bias", ad.add, [(3, 4), (4,)]),
    ("relu", ad.relu, [(4, 3)]),
    ("scale", lambda a: ad.scale(a, -1.5), [(3, 4)]),
    # a fresh generator per call draws the same mask at every evaluation
    ("dropout", lambda a: ad.dropout(a, 0.5, np.random.default_rng(0)),
     [(3, 4)]),
    # sum of a softmax is constant, so weight the entries before reducing
    ("softmax", lambda a, w: ad.matmul(ad.softmax(a), w), [(1, 6), (6, 1)]),
    ("concat", lambda a, b: ad.concat([a, b], axis=1), [(3, 2), (3, 4)]),
    ("conv_stack", lambda a, w: ad.conv_stack(a, [w], 2), [(5, 3), (6, 3)]),
    ("conv_stack_k3", lambda a, w: ad.conv_stack(a, [w], 3),
     [(5, 2), (6, 2)]),
    ("conv_stack_residual", lambda a, w1, w2: ad.conv_stack(a, [w1, w2], 2),
     [(5, 3), (6, 3), (6, 3)]),
    ("sumsq", ad.sumsq, [(4, 2)]),
    ("gather_rows", lambda a: ad.gather_rows(a, [0, 2, 2, 1]), [(4, 3)]),
    ("row_scale", lambda a: ad.row_scale(a, np.array([0.5, 2.0, 0.0])),
     [(3, 4)]),
    ("masked_log_softmax", lambda a: ad.pick(ad.masked_log_softmax(
        a, np.array([True, False, True, True, False])), 2), [(5,)]),
    # packed-sequence forms: one row or segment per decoder state
    ("matmul_nt", lambda a, b: ad.matmul(a, b, transpose_b=True),
     [(3, 4), (2, 4)]),
    ("softmax_rows", lambda a, v: ad.matmul(ad.softmax(a, np.array(
        [[True, False, True, True], [False, True, True, False]])), v),
     [(2, 4), (4, 1)]),
    ("conv_stack_segments", lambda a, w: ad.conv_stack(a, [w], 3, [2, 1, 3]),
     [(6, 2), (6, 2)]),
    ("conv_stack_segments_k2_residual",
     lambda a, w1, w2: ad.conv_stack(a, [w1, w2], 2, [2, 1, 3]),
     [(6, 2), (4, 2), (4, 2)]),
    ("segment_max", lambda a: ad.segment_max(a, [2, 1, 3]), [(6, 3)]),
    ("row", lambda a: ad.row(a, 1), [(3, 4)]),
    ("pick_rows", lambda a: ad.pick(a, [2, 0, 2]), [(3, 4)]),
    ("masked_log_softmax_rows", lambda a: ad.pick(ad.masked_log_softmax(
        a, np.array([[True, False, True], [False, True, True]])), [2, 1]),
     [(2, 3)]),
]


def run_op_checks(seed=0) -> dict:
    """Finite-difference checks for each differentiable op. Each entry
    draws its inputs from its own stream, seeded from ``seed`` and its
    name, so one entry's readings do not depend on the others."""
    report = {}
    for name, op, shapes in OP_CHECKS:
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        store = ParamStore([(f"x{i}", s) for i, s in enumerate(shapes)],
                           dtype=np.float64)
        store.values[...] = rng.standard_normal(store.values.size)
        inputs = [store[n] for n in store.names()]
        report[name] = max(fd_errors(
            lambda: ad.sum_all(op(*inputs)), store).values())
    return report
