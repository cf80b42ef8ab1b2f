"""Teacher-forced training over gold rule sequences, plus evaluation.

Each example contributes the sum of per-step cross-entropies along its
gold derivation, scored by one packed forward pass over all of its gold
states; gradients accumulate over a window of examples before one Adam
update. The L2 penalty on the fully connected weights is added once per
window. All randomness (parameter init, dropout, shuffling) flows from
the run seed. With a dev set, the returned model is the best-dev one,
the same that is saved as the checkpoint.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .ast_tree import encode_to_rules, token_yield
from .config import RunConfig
from .data import Example
from .decode import FAILURE_CAUSES, beam_search
from .grammar import Grammar, MissingRuleError
from .metrics import bleu, string_accuracy
from .model import Model, advance, initial_state, vocabs_from_examples
from .params import adam_step


def example_loss(model: Model, example: Example, targets, rng=None):
    """Summed negative log-likelihood of the gold targets. Given a
    generator, this is a training pass, with word dropout and dropout
    drawn from it; without one, it scores the model as it decodes.

    ``advance`` is pure, so every gold state is built first and all of
    them are scored by one ``predict`` call.
    """
    enc_feats, ctrl = model.encode(example.description, rng)
    states = [initial_state(model.grammar, example.slots)]
    for target in targets[:-1]:
        states.append(advance(states[-1], target, model.grammar))
    logp = model.predict(states, enc_feats, ctrl, rng)
    return ad.scale(ad.sum_all(ad.pick(logp, targets)), -1.0)


def evaluate(model: Model, examples, bypass_gold=False) -> dict:
    """Decode every example and score StrAcc / corpus BLEU; decode
    failures count as mismatches, and ``failures`` counts them by cause."""
    records = []
    preds, golds = [], []
    failures = dict.fromkeys(FAILURE_CAUSES, 0)
    for ex in examples:
        gold = token_yield(ex.ast)
        pred = gold
        if not bypass_gold:
            result = beam_search(model, ex.description, ex.slots)
            if result.failed:
                pred = None
                failures[result.cause] += 1
            else:
                pred = token_yield(result.hypotheses[0].ast)
        preds.append(pred)
        golds.append(gold)
        records.append({
            "id": ex.id,
            "gold_yield": gold,
            "pred_yield": pred,
            "match": pred is not None and pred == gold,
            "bleu": bleu([pred], [gold]),
        })
    return {
        "str_acc": string_accuracy(preds, golds),
        "bleu": bleu(preds, golds),
        "failures": failures,
        "examples": records,
    }


@dataclass
class TrainResult:
    model: Model
    log_lines: list = field(default_factory=list)
    updates: int = 0
    skipped: int = 0


def train(train_examples, dev_examples, grammar: Grammar, config: RunConfig,
          out_dir=None, log_print=False) -> TrainResult:
    model = Model(grammar, config, *vocabs_from_examples(train_examples))
    rng = np.random.default_rng(config.seed + 1)

    usable = []
    skipped = 0
    for ex in train_examples:
        try:
            usable.append((ex, encode_to_rules(
                ex.ast, grammar, () if config.no_copy else ex.slot_values())))
        except MissingRuleError:
            skipped += 1
    result = TrainResult(model, skipped=skipped)

    def log(line):
        result.log_lines.append(line)
        if log_print:
            print(line)

    if skipped:
        log(f"skipped {skipped} underivable examples")
    if not usable:
        raise MissingRuleError("no derivable training examples")

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.json"), "w") as f:
            f.write(config.to_json())
        with open(os.path.join(out_dir, "vocab.txt"), "w",
                  encoding="utf-8") as f:
            f.write("".join(t + "\n" for t in model.token_vocab))

    def save_checkpoint():
        if out_dir:
            model.save(os.path.join(out_dir, "checkpoint.bin"))

    best_dev = -1.0
    best_values = None    # parameters of the best-dev model, as saved
    evals_since_best = 0
    pending = 0
    stop = False
    try:
        for epoch in range(1, config.epochs + 1):
            total_loss = 0.0
            total_steps = 0
            order = rng.permutation(len(usable))
            for pos in order:
                ex, targets = usable[pos]
                loss = example_loss(model, ex, targets, rng)
                loss.backward()
                total_loss += loss.item()
                del loss          # free this example's graph before the next
                total_steps += len(targets)
                pending += 1
                if pending >= config.accumulation_window:
                    _apply_update(model, config)
                    pending = 0
                    result.updates += 1
                    if (config.max_updates
                            and result.updates >= config.max_updates):
                        stop = True
                        break
            if pending and epoch == config.epochs:
                _apply_update(model, config)
                pending = 0
                result.updates += 1

            mean_loss = total_loss / max(total_steps, 1)
            dev_acc = dev_bleu = None
            if (epoch % config.eval_interval == 0 or stop
                    or epoch == config.epochs):
                if dev_examples:
                    report = evaluate(model, dev_examples)
                    dev_acc, dev_bleu = report["str_acc"], report["bleu"]
                    if dev_acc > best_dev:
                        best_dev = dev_acc
                        evals_since_best = 0
                        best_values = model.store.values.copy()
                        save_checkpoint()
                    else:
                        evals_since_best += 1
                if config.stop_at_train_acc > 0:
                    train_report = evaluate(model, [ex for ex, _ in usable])
                    if train_report["str_acc"] >= config.stop_at_train_acc:
                        stop = True
            fmt = lambda v: f"{v:.4f}" if v is not None else "-"
            log(f"epoch {epoch} loss {mean_loss:.6f} "
                f"dev_acc {fmt(dev_acc)} dev_bleu {fmt(dev_bleu)}")
            if dev_examples and evals_since_best > config.patience:
                log(f"early stop after {epoch} epochs")
                stop = True
            if stop:
                break
    except ad.NumericFault as e:
        raise ad.NumericFault(f"epoch {epoch}: {e}") from None

    if best_values is None:
        save_checkpoint()
    else:
        model.store.values[...] = best_values
    if out_dir:
        with open(os.path.join(out_dir, "log.txt"), "w") as f:
            f.write("\n".join(result.log_lines) + "\n")
    return result


def l2_penalty(model: Model) -> ad.Tensor:
    """l2 times the sum of squares of the fully connected weights."""
    total = None
    for name in model.mlp_weight_names():
        term = ad.scale(ad.sumsq(model.store[name]), model.config.l2)
        total = term if total is None else ad.add(total, term)
    return total


def _apply_update(model: Model, config: RunConfig):
    if config.l2 > 0:
        l2_penalty(model).backward()
    adam_step(model.store, lr=config.lr)
    model.store.zero_grad()
