"""Command-line surface.

Exit codes: 0 success, 2 validation failure, 3 I/O failure,
4 decode failure, 5 gradient-check exceedance, 6 numeric fault.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .ast_tree import token_yield
from .autodiff import NumericFault
from .config import ConfigError, RunConfig
from .data import (
    DatasetError,
    example_from_line,
    load_dataset,
    read_lines,
    save_dataset,
    synth_corpus,
)
from .decode import beam_search
from .grammar import GrammarError, grammar_from_json, grammar_to_json, induce_grammar
from .model import Model
from .params import CheckpointError
from .training import evaluate, train

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_DECODE = 4
EXIT_GRADCHECK = 5
EXIT_NUMERIC = 6


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _read_text(path):
    try:
        return "\n".join(read_lines(path))
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_IO)
    except DatasetError as e:
        raise CliError(str(e), EXIT_VALIDATION)


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}", EXIT_IO)


def _load_grammar(path):
    try:
        return grammar_from_json(_read_text(path))
    except GrammarError as e:
        raise CliError(f"invalid grammar {path}: {e}", EXIT_VALIDATION)


def _load_examples(path):
    try:
        return load_dataset(path)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}", EXIT_IO)
    except DatasetError as e:
        raise CliError(str(e), EXIT_VALIDATION)


def _load_model(args, grammar):
    try:
        return Model.load(args.checkpoint, grammar)
    except OSError as e:
        raise CliError(f"cannot read {args.checkpoint}: {e}", EXIT_IO)
    except CheckpointError as e:
        raise CliError(f"invalid checkpoint {args.checkpoint}: {e}",
                       EXIT_VALIDATION)


def cmd_extract_grammar(args):
    examples = _load_examples(args.data)
    try:
        grammar = induce_grammar([ex.ast for ex in examples])
    except GrammarError as e:
        raise CliError(str(e), EXIT_VALIDATION)
    _write_text(args.out, grammar_to_json(grammar))
    print(f"rules {grammar.num_rules}")
    print(f"symbols {len(grammar.symbols)}")
    print(f"scope_vocab {len(grammar.scope_vocab)}")
    return EXIT_OK


def cmd_train(args):
    grammar = _load_grammar(args.grammar)
    train_examples = _load_examples(args.data)
    dev_examples = _load_examples(args.dev) if args.dev else []
    try:
        config = RunConfig.from_json(_read_text(args.config))
        result = train(train_examples, dev_examples, grammar, config,
                       out_dir=args.out_dir, log_print=True)
    except ConfigError as e:
        raise CliError(f"{args.config}: {e}", EXIT_VALIDATION)
    except GrammarError as e:   # say, no example derivable by the grammar
        raise CliError(f"{args.data}: {e} under {args.grammar}",
                       EXIT_VALIDATION)
    except OSError as e:
        raise CliError(f"cannot write to {args.out_dir}: {e}", EXIT_IO)
    except NumericFault as e:   # say, a learning rate that blows up
        raise CliError(f"{args.config}: training diverged at {e}",
                       EXIT_NUMERIC)
    print(f"updates {result.updates}")
    return EXIT_OK


def _parse_slots(values):
    slots = []
    for item in values or []:
        if "=" not in item:
            raise CliError(f"slot {item!r} must look like name=value",
                           EXIT_VALIDATION)
        name, value = item.split("=", 1)
        slots.append((name, value))
    return slots


def cmd_generate(args):
    grammar = _load_grammar(args.grammar)
    model = _load_model(args, grammar)
    if os.path.exists(args.input):
        lines = _read_text(args.input).strip().splitlines()
        if not lines:
            raise CliError(f"input file {args.input} is empty",
                           EXIT_VALIDATION)
        try:
            ex = example_from_line(lines[0])
        except (DatasetError, json.JSONDecodeError, ValueError) as e:
            raise CliError(f"invalid input record: {e}", EXIT_VALIDATION)
        description, slots = ex.description, ex.slots
    else:
        description, slots = args.input, _parse_slots(args.slot)
    try:
        result = beam_search(model, description, slots, beam_size=args.beam)
    except NumericFault as e:   # say, finite weights too large to use
        raise CliError(f"{args.checkpoint}: decoding failed at {e}",
                       EXIT_NUMERIC)
    if result.failed:
        raise CliError("decode failure: no complete hypothesis", EXIT_DECODE)
    best = result.hypotheses[0]
    print(" ".join(token_yield(best.ast)))
    if args.show_ast:
        from .data import ast_to_doc

        doc = {
            "ast": ast_to_doc(best.ast),
            "rule_trace": list(best.rule_trace),
            "step_log_probs": result.step_log_probs,
            "log_prob": best.log_prob,
        }
        print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_evaluate(args):
    grammar = _load_grammar(args.grammar)
    model = _load_model(args, grammar)
    examples = _load_examples(args.data)
    try:
        report = evaluate(model, examples, bypass_gold=args.bypass_gold)
    except NumericFault as e:
        raise CliError(f"{args.checkpoint}: decoding failed at {e}",
                       EXIT_NUMERIC)
    if args.report:
        _write_text(args.report, json.dumps(report, indent=2) + "\n")
    print(f"str_acc {report['str_acc']:.4f}")
    print(f"bleu {report['bleu']:.4f}")
    return EXIT_OK


def cmd_synth_data(args):
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot create {args.out}: {e}", EXIT_IO)
    examples = synth_corpus(num_ops=args.grammar_size, max_depth=args.depth,
                            count=args.count, seed=args.seed)
    save_dataset(examples, os.path.join(args.out, "train.jsonl"))
    if args.test_count:
        test = synth_corpus(num_ops=args.grammar_size, max_depth=args.depth,
                            count=args.test_count, seed=args.seed + 1,
                            value_prefix="tval")
        save_dataset(test, os.path.join(args.out, "test.jsonl"))
    if examples:
        grammar = induce_grammar([ex.ast for ex in examples])
        _write_text(os.path.join(args.out, "grammar.json"),
                    grammar_to_json(grammar))
    print(f"wrote {args.count} examples to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args):
    from .gradcheck import TOLERANCE, run_full_check, run_op_checks

    failures = []
    op_report = run_op_checks(seed=args.seed)
    for name, err in op_report.items():
        status = "ok" if err < TOLERANCE else "FAIL"
        print(f"op {name} {err:.3e} {status}")
        if err >= TOLERANCE:
            failures.append(f"op {name}")
    variants = [("base", {})]
    if args.all_variants:
        from .config import ABLATION_TOGGLES

        variants += [(t, {t: True}) for t in ABLATION_TOGGLES]
    for label, overrides in variants:
        report = run_full_check(dims=args.dims, layers=args.layers,
                                samples_per_tensor=args.samples,
                                seed=args.seed, **overrides)
        worst = max(report.values())
        status = "ok" if worst < TOLERANCE else "FAIL"
        print(f"model[{label}] max {worst:.3e} {status}")
        for name, err in report.items():
            if err >= TOLERANCE:
                failures.append(f"model[{label}] {name}")
                print(f"  {name} {err:.3e} FAIL")
    if failures:
        print(f"gradcheck failed: {len(failures)} group(s) over {TOLERANCE}")
        return EXIT_GRADCHECK
    return EXIT_OK


def positive_int(text):
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text):
    """argparse type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(
        prog="rulegen",
        description="Grammar-rule sequence code generation with CNN modules")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("extract-grammar", help="induce a grammar from ASTs")
    g.add_argument("--data", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_extract_grammar)

    t = sub.add_parser("train", help="teacher-forced training")
    t.add_argument("--data", required=True)
    t.add_argument("--dev")
    t.add_argument("--grammar", required=True)
    t.add_argument("--config", required=True)
    t.add_argument("--out-dir", required=True)
    t.set_defaults(fn=cmd_train)

    gen = sub.add_parser("generate", help="decode one description")
    gen.add_argument("--checkpoint", required=True)
    gen.add_argument("--grammar", required=True)
    gen.add_argument("--input", required=True,
                     help="description text or path to a one-record file")
    gen.add_argument("--beam", type=positive_int, default=None,
                     help="beam size (default: the checkpoint config's)")
    gen.add_argument("--slot", action="append",
                     help="name=value, repeatable (text input only)")
    gen.add_argument("--show-ast", action="store_true")
    gen.set_defaults(fn=cmd_generate)

    ev = sub.add_parser("evaluate", help="score a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--grammar", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--report")
    ev.add_argument("--bypass-gold", action="store_true",
                    help="score gold ASTs against themselves")
    ev.set_defaults(fn=cmd_evaluate)

    s = sub.add_parser("synth-data", help="emit a toy grammar and corpus")
    s.add_argument("--grammar-size", type=positive_int, default=3)
    s.add_argument("--depth", type=non_negative_int, default=2)
    s.add_argument("--count", type=non_negative_int, default=20)
    s.add_argument("--test-count", type=non_negative_int, default=0)
    s.add_argument("--seed", type=non_negative_int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_synth_data)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient check")
    gc.add_argument("--dims", type=positive_int, default=4)
    gc.add_argument("--layers", type=positive_int, default=3)
    gc.add_argument("--samples", type=non_negative_int, default=4,
                    help="entries checked per tensor; 0 = exhaustive")
    gc.add_argument("--seed", type=non_negative_int, default=0)
    gc.add_argument("--all-variants", action="store_true",
                    help="also check every ablation toggle one at a time")
    gc.set_defaults(fn=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
