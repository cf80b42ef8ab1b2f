"""The grammar-rule predictor.

Four convolutional feature extractors (predicted-rule CNN, tree-based
convolution over (node, parent, grandparent) triples, pre-order
traversal CNN over the backtracking sequence, tree-path CNN over the
root-to-frontier chain) are aggregated by attentive and max pooling and
fed to a per-node-class two-layer perceptron whose masked softmax ranges
over the grammar rules plus, for variable nodes, one copy target per
input slot.

Controller A is the max-pool of the encoder features and steers the
rule and tree-path attention; controller B is the nearest enclosing
scope-name embedding (zero when absent) and steers the pre-order and
encoder attention.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .ast_tree import (
    PHD_SYMBOL,
    AstNode,
    PartialAst,
    apply_copy,
    apply_rule,
    augmented_view,
    nearest_scope,
    root_path,
    token_yield,
)
from .config import ConfigError, RunConfig
from .encoder import PAD_TOKEN, UNK_TOKEN, shortcut_cnn, tokenize
from .grammar import (
    Grammar,
    TERMINAL,
    VARIABLE,
    copy_terminal_symbol,
    grammar_to_json,
)
from .params import (
    CheckpointError,
    ParamStore,
    embedding_init,
    load_params,
    save_params,
    xavier_uniform,
    zeros_init,
)

FLAG_DIM = 8
HEAD_CLASSES = ("structural", "variable", "function_name")
SHARED_HEAD = "shared"

# Fixed aggregate order (checkpoint compatibility):
#   att(rule | A), att(path | A), att(preorder | B), att(encoder | B),
#   max(encoder), max(preorder), [att(tree-conv | B) when enabled]
AGGREGATE_ORDER = ("att_rule", "att_path", "att_pre", "att_enc",
                   "max_enc", "max_pre", "att_ast")


class DeadEndError(RuntimeError):
    """Frontier with no valid rule and no copy target."""


@dataclass(frozen=True)
class DecoderState:
    rule_trace: tuple      # rule ids; copy steps appear as R + slot index
    partial_ast: PartialAst
    slots: tuple           # ((name, value), ...)


def initial_state(grammar: Grammar, slots=()) -> DecoderState:
    root = AstNode(grammar.start_symbol)
    return DecoderState((), PartialAst.from_root(root), tuple(slots))


def advance(state: DecoderState, target: int, grammar: Grammar) -> DecoderState:
    """Apply a predicted target: a rule id, or R+j for copying slot j."""
    r = grammar.num_rules
    if target < r:
        ast = apply_rule(state.partial_ast, grammar.rules[target],
                         grammar.scope_symbols)
    else:
        j = target - r
        value = state.slots[j][1]
        sym = copy_terminal_symbol(grammar, state.partial_ast.frontier.symbol)
        ast = apply_copy(state.partial_ast, value, sym, grammar.scope_symbols)
    return DecoderState(state.rule_trace + (target,), ast, state.slots)


def _segment_mask(lengths):
    """(T, N) mask whose row t admits the rows of segment t of a matrix
    that packs T segments of these lengths."""
    seg = np.repeat(np.arange(len(lengths)), lengths)
    return seg[None, :] == np.arange(len(lengths))[:, None]


def attentive_pool(candidates, controller, weight, lengths=None):
    """Softmax-weighted sum of rows; weights from the bilinear logits
    y_i^T W c. A zero controller degenerates to the unweighted mean.

    A (T, d) controller pools once per row into a (T, d) matrix: row t
    over segment t of the packed candidates when ``lengths`` is given,
    over all candidates otherwise.
    """
    keys = ad.matmul(candidates, weight)
    mask = None
    if lengths is not None and len(lengths) > 1:
        mask = _segment_mask(lengths)
    logits = ad.matmul(controller, keys, transpose_b=True)
    return ad.matmul(ad.softmax(logits, mask), candidates)


def grammar_hash(grammar: Grammar) -> str:
    return hashlib.sha256(grammar_to_json(grammar).encode("utf-8")).hexdigest()


class Model:
    def __init__(self, grammar: Grammar, config: RunConfig,
                 token_vocab, terminal_vocab, slot_name_vocab,
                 dtype=np.float32, seed=None, store=None):
        self.grammar = grammar
        self.config = config
        self.token_vocab = list(token_vocab)
        self.terminal_vocab = list(terminal_vocab)
        self.slot_name_vocab = list(slot_name_vocab)
        self.dtype = np.dtype(dtype)

        self.sym_index = {name: i for i, name in enumerate(grammar.symbols)}
        self.phd_index = len(self.sym_index)
        self.pad_index = len(self.sym_index) + 1
        self.token_index = {t: i for i, t in enumerate(self.token_vocab)}
        self.term_index = {v: i for i, v in enumerate(self.terminal_vocab)}
        self.term_unk = len(self.terminal_vocab)
        self.slot_index = {n: i for i, n in enumerate(self.slot_name_vocab)}
        self.slot_unk = len(self.slot_name_vocab)
        self.scope_index = {n: i for i, n in enumerate(grammar.scope_vocab)}
        r = grammar.num_rules
        self.rule_pad = r
        self.rule_copy = r + 1

        if config.share_heads:
            self.heads = (SHARED_HEAD,)
        else:
            self.heads = HEAD_CLASSES

        if store is not None:
            self.store = store
        else:
            if seed is None:
                seed = config.seed
            self.store = self._init_params(np.random.default_rng(seed))

    # -- parameters -------------------------------------------------------

    def head_for(self, node_class: str) -> str:
        return SHARED_HEAD if self.config.share_heads else node_class

    def aggregate_slots(self):
        """The entries of AGGREGATE_ORDER this config has, in that order."""
        cfg = self.config
        absent = {"att_rule": cfg.no_rule_cnn, "att_path": cfg.no_treepath_cnn,
                  "att_ast": not cfg.extra_treeconv_pool}
        return [s for s in AGGREGATE_ORDER if not absent.get(s)]

    def param_layout(self):
        """(name, shape, initializer) of every parameter, in store order;
        the initializers draw from one generator in this order."""
        cfg = self.config
        g = self.grammar
        d, k, layers, hidden = cfg.dim, cfg.window, cfg.layers, cfg.mlp_hidden
        layout = [
            ("emb/token", (len(self.token_vocab), d), embedding_init),
            ("emb/symbol", (len(self.sym_index) + 2, d), embedding_init),
            ("emb/terminal", (self.term_unk + 1, d), embedding_init),
            ("emb/rule", (g.num_rules + 2, d), embedding_init),
            ("emb/flag", (2, FLAG_DIM), embedding_init),
        ]
        if not cfg.no_scope:
            layout.append(("emb/scope", (max(len(g.scope_vocab), 1), d),
                           embedding_init))
        if not cfg.no_copy:
            layout.append(("emb/slot", (self.slot_unk + 1, d), embedding_init))

        def convs(prefix):
            for layer in range(1, layers + 1):
                layout.append((f"{prefix}conv{layer}", (k * d, d),
                               xavier_uniform))

        convs("enc/")
        slots = self.aggregate_slots()
        for head in self.heads:
            if not cfg.no_rule_cnn:
                convs(f"{head}/rule/")
            if not cfg.no_tree_conv:
                layout.append((f"{head}/ast_w", (3 * d, d), xavier_uniform))
            if not cfg.no_preorder_cnn:
                layout.append((f"{head}/pre_proj", (d + FLAG_DIM, d),
                               xavier_uniform))
                convs(f"{head}/pre/")
            if not cfg.no_treepath_cnn:
                convs(f"{head}/path/")
            if not cfg.attention_to_maxpool:
                for slot in slots:
                    if slot.startswith("att_"):
                        layout.append((f"{head}/{slot}", (d, d),
                                       xavier_uniform))
            layout += [
                (f"{head}/mlp_w1", (hidden, len(slots) * d), xavier_uniform),
                (f"{head}/mlp_b1", (hidden,), zeros_init),
                (f"{head}/mlp_w2", (g.num_rules, hidden), xavier_uniform),
                (f"{head}/mlp_b2", (g.num_rules,), zeros_init),
            ]
            if not cfg.no_copy and head == self.head_for(VARIABLE):
                layout.append((f"{head}/copy_w", (hidden, d), xavier_uniform))
        return layout

    def _init_params(self, rng) -> ParamStore:
        layout = self.param_layout()
        try:
            store = ParamStore([(name, shape) for name, shape, _ in layout],
                               dtype=self.dtype)
        except MemoryError:
            size = sum(math.prod(shape) for _, shape, _ in layout)
            raise ConfigError(
                f"the config's {size} parameters do not fit in memory") from None
        for name, shape, init in layout:
            store[name].data[...] = init(rng, shape)
        return store

    def _check_layout(self):
        """Raise CheckpointError unless the loaded parameters are exactly
        the names and shapes this config needs."""
        layout = {name: shape for name, shape, _ in self.param_layout()}
        for name, shape in layout.items():
            if name not in self.store:
                raise CheckpointError(f"checkpoint lacks parameter {name!r}")
            if self.store[name].shape != shape:
                raise CheckpointError(
                    f"checkpoint parameter {name!r} has shape "
                    f"{self.store[name].shape}, the config needs {shape}")
        for name in self.store.names():
            if name not in layout:
                raise CheckpointError(
                    f"checkpoint has unexpected parameter {name!r}")

    # -- forward ----------------------------------------------------------

    def mlp_weight_names(self):
        return [n for n in self.store.names()
                if n.endswith("/mlp_w1") or n.endswith("/mlp_w2")]

    def _sequence_cnn(self, table, seqs, prefix):
        """The shortcut CNN ``prefix`` over the rows of embedding ``table``
        that each index sequence picks, the sequences packed one after
        another; returns the top layer and the sequence lengths."""
        lengths = [len(seq) for seq in seqs]
        y0 = ad.gather_rows(self.store[table], [i for seq in seqs for i in seq])
        return shortcut_cnn(self.store, prefix, y0, self.config.layers,
                            self.config.window, lengths=lengths), lengths

    def encode(self, description: str, rng=None):
        """Returns the per-position features and their (1, d) max-pool,
        controller A. An unknown token reads UNK (index 1); given a
        generator, word dropout turns each token into UNK at its rate."""
        idx = [self.token_index.get(t, 1) for t in tokenize(description)]
        rate = self.config.word_dropout
        if rng is not None and rate > 0.0:
            idx = [1 if rng.random() < rate else i for i in idx]
        feats, lengths = self._sequence_cnn("emb/token", [idx], "enc/")
        return feats, ad.segment_max(feats, lengths)

    def _scope_controller(self, states):
        """Controller B, one row per state: the embedding of the nearest
        enclosing scope name, or zeros where there is none."""
        n = len(states)
        rows = [None] * n
        if not self.config.no_scope:
            rows = [self.scope_index.get(nearest_scope(s.partial_ast))
                    for s in states]
        if all(r is None for r in rows):
            return ad.Tensor(np.zeros((n, self.config.dim), dtype=self.dtype))
        emb = ad.gather_rows(self.store["emb/scope"],
                             [0 if r is None else r for r in rows])
        if any(r is None for r in rows):
            emb = ad.row_scale(emb, [r is not None for r in rows])
        return emb

    def _pool(self, feats, lengths, controller, weight_name):
        if self.config.attention_to_maxpool:
            return ad.segment_max(feats, lengths)
        return attentive_pool(feats, controller, self.store[weight_name],
                              lengths)

    def _node_inputs(self, nodes):
        sym_idx, term_idx, is_term = [], [], []
        for node in nodes:
            if node.symbol.kind == TERMINAL:
                sym_idx.append(self.pad_index)
                term_idx.append(self.term_index.get(node.terminal_value,
                                                    self.term_unk))
                is_term.append(1.0)
            else:
                if node.symbol is PHD_SYMBOL:
                    sym_idx.append(self.phd_index)
                else:
                    sym_idx.append(self.sym_index[node.symbol.name])
                term_idx.append(self.term_unk)
                is_term.append(0.0)
        sym_rows = ad.gather_rows(self.store["emb/symbol"], sym_idx)
        term_rows = ad.gather_rows(self.store["emb/terminal"], term_idx)
        keep = np.asarray(is_term, dtype=self.dtype)
        return ad.add(ad.row_scale(sym_rows, 1.0 - keep),
                      ad.row_scale(term_rows, keep))

    # Every extractor below packs the rows of all its states into one
    # matrix, state after state, and returns the per-state row counts
    # with it, so that one pass covers every state.

    def ast_features(self, states, head: str):
        """Tree-conv outputs per augmented node, their per-state counts,
        and each state's traversal as (packed node index, flag) pairs."""
        cfg = self.config
        nodes, parents, grands, units, lengths = [], [], [], [], []
        for state in states:
            n_s, p_s, g_s, u_s = augmented_view(state.partial_ast)
            base = len(nodes)
            nodes += n_s
            parents += [p + base if p >= 0 else -1 for p in p_s]
            grands += [p + base if p >= 0 else -1 for p in g_s]
            units.append([(i + base, f) for i, f in u_s])
            lengths.append(len(n_s))
        x = self._node_inputs(nodes)
        if cfg.no_tree_conv:
            return x, lengths, units
        n = len(nodes)
        pad_row = ad.gather_rows(self.store["emb/symbol"], [self.pad_index])
        xp = ad.concat([x, pad_row], axis=0)
        par = [p if p >= 0 else n for p in parents]
        gpa = [p if p >= 0 else n for p in grands]
        triples = ad.concat([x,
                             ad.gather_rows(xp, par),
                             ad.gather_rows(xp, gpa)], axis=1)
        y_ast = ad.relu(ad.matmul(triples, self.store[f"{head}/ast_w"]))
        return y_ast, lengths, units

    def preorder_features(self, y_ast, node_lengths, units, head: str):
        """Pre-order CNN over each state's traversal; without it, the
        tree-conv rows stand in."""
        cfg = self.config
        if cfg.no_preorder_cnn:
            return y_ast, node_lengths
        node_idx = [i for us in units for i, _ in us]
        flags = [f for us in units for _, f in us]
        lengths = [len(us) for us in units]
        u0 = ad.matmul(
            ad.concat([ad.gather_rows(y_ast, node_idx),
                       ad.gather_rows(self.store["emb/flag"], flags)], axis=1),
            self.store[f"{head}/pre_proj"])
        return shortcut_cnn(self.store, f"{head}/pre/", u0, cfg.layers,
                            cfg.window, lengths=lengths), lengths

    def rule_features(self, states, head: str):
        """Rule CNN over each state's predicted rules (one pad row for an
        empty trace)."""
        r = self.grammar.num_rules
        traces = [[t if t < r else self.rule_copy for t in s.rule_trace]
                  or [self.rule_pad] for s in states]
        return self._sequence_cnn("emb/rule", traces, f"{head}/rule/")

    def path_features(self, states, head: str):
        """Tree-path CNN over each state's root-to-frontier chain."""
        paths = [[self.sym_index[n.symbol.name]
                  for n in root_path(s.partial_ast)] for s in states]
        return self._sequence_cnn("emb/symbol", paths, f"{head}/path/")

    def aggregate(self, states, enc_feats, enc_controller, head: str):
        """Pooled features in AGGREGATE_ORDER, one row per state."""
        cfg = self.config
        # controller A is the encoder max-pool, and so also max(encoder)
        ctrl_a = ad.gather_rows(enc_controller, [0] * len(states))
        ctrl_b = self._scope_controller(states)
        y_ast, node_lengths, units = self.ast_features(states, head)
        feats_pre, pre_lengths = self.preorder_features(y_ast, node_lengths,
                                                        units, head)
        slots = self.aggregate_slots()
        parts = {}
        if "att_rule" in slots:
            parts["att_rule"] = self._pool(*self.rule_features(states, head),
                                           ctrl_a, f"{head}/att_rule")
        if "att_path" in slots:
            parts["att_path"] = self._pool(*self.path_features(states, head),
                                           ctrl_a, f"{head}/att_path")
        parts["att_pre"] = self._pool(feats_pre, pre_lengths, ctrl_b,
                                      f"{head}/att_pre")
        if cfg.attention_to_maxpool:
            parts["att_enc"] = ctrl_a
        else:
            parts["att_enc"] = attentive_pool(enc_feats, ctrl_b,
                                              self.store[f"{head}/att_enc"])
        parts["max_enc"] = ctrl_a
        parts["max_pre"] = ad.segment_max(feats_pre, pre_lengths)
        if "att_ast" in slots:
            parts["att_ast"] = self._pool(y_ast, node_lengths, ctrl_b,
                                          f"{head}/att_ast")
        return ad.concat([parts[s] for s in slots], axis=1)

    def _head_logits(self, states, enc_feats, enc_controller, head, width,
                     rng):
        """(len(states), width) logits of one head: the rules, then one
        copy target per slot (zeros outside the copy head)."""
        cfg = self.config
        agg = self.aggregate(states, enc_feats, enc_controller, head)
        x = ad.dropout(agg, cfg.dropout, rng)
        h = ad.relu(ad.add(ad.matmul(x, self.store[f"{head}/mlp_w1"],
                                     transpose_b=True),
                           self.store[f"{head}/mlp_b1"]))
        h = ad.dropout(h, cfg.dropout, rng)
        logits = ad.add(ad.matmul(h, self.store[f"{head}/mlp_w2"],
                                  transpose_b=True),
                        self.store[f"{head}/mlp_b2"])
        copies = width - self.grammar.num_rules
        if not copies:
            return logits
        if head == self.head_for(VARIABLE):
            slot_idx = [self.slot_index.get(n, self.slot_unk)
                        for n, _ in states[0].slots]
            slot_rows = ad.gather_rows(self.store["emb/slot"], slot_idx)
            carrier = ad.matmul(h, self.store[f"{head}/copy_w"])
            copy = ad.matmul(carrier, slot_rows, transpose_b=True)
        else:
            copy = ad.Tensor(np.zeros((len(states), copies), dtype=self.dtype))
        return ad.concat([logits, copy], axis=1)

    def predict(self, states, enc_feats, enc_controller, rng=None):
        """Masked log-probabilities over rules (+ copy targets for the
        variable head); entries invalid for the frontier are -inf.

        ``states`` is one DecoderState, which gives a vector, or a
        sequence of states with the same slots, which gives one row per
        state; the copy columns are there when any state's frontier can
        copy. States are grouped by head, in the fixed head order, and
        each group runs every extractor once over its packed rows. Given
        a generator (a training pass), dropout masks are drawn from it
        group by group: the aggregate mask for all states of a group (one
        row per state, in the given order), then its hidden-layer mask.
        """
        cfg = self.config
        single = isinstance(states, DecoderState)
        batch = [states] if single else list(states)
        frontiers = [s.partial_ast.frontier for s in batch]
        if any(f is None for f in frontiers):
            raise DeadEndError("predict on a complete tree")
        slots = batch[0].slots
        if any(s.slots != slots for s in batch):
            raise ValueError("states of one predict call must share slots")
        r = self.grammar.num_rules
        copy_rows = [not cfg.no_copy and bool(slots)
                     and f.symbol.node_class == VARIABLE for f in frontiers]
        width = r + (len(slots) if any(copy_rows) else 0)
        mask = np.zeros((len(batch), width), dtype=bool)
        for t, f in enumerate(frontiers):
            mask[t, list(self.grammar.lhs_index.get(f.symbol.name, ()))] = True
            mask[t, r:] = copy_rows[t]
            if not mask[t].any():
                raise DeadEndError(
                    f"no valid rule or copy target for {f.symbol.name!r}")

        heads = [self.head_for(f.symbol.node_class) for f in frontiers]
        blocks, order = [], []
        for head in self.heads:
            rows = [t for t, h in enumerate(heads) if h == head]
            if rows:
                blocks.append(self._head_logits(
                    [batch[t] for t in rows], enc_feats, enc_controller,
                    head, width, rng))
                order += rows
        logits = blocks[0] if len(blocks) == 1 else ad.concat(blocks, axis=0)
        if order != sorted(order):
            logits = ad.gather_rows(logits, np.argsort(order))
        if single:
            return ad.masked_log_softmax(ad.row(logits, 0), mask[0])
        return ad.masked_log_softmax(logits, mask)

    # -- persistence ------------------------------------------------------

    def save(self, path):
        extras = {
            "config": json.loads(self.config.to_json()),
            "config_hash": self.config.hash(),
            "grammar_hash": grammar_hash(self.grammar),
            "token_vocab": self.token_vocab,
            "terminal_vocab": self.terminal_vocab,
            "slot_name_vocab": self.slot_name_vocab,
            "seed": self.config.seed,
        }
        save_params(self.store, path, extras=extras)

    @classmethod
    def load(cls, path, grammar: Grammar):
        store, header = load_params(path)
        extras = header.get("extras")
        fields = ("config", "token_vocab", "terminal_vocab", "slot_name_vocab")
        if not isinstance(extras, dict) or any(f not in extras for f in fields):
            raise CheckpointError(
                f"checkpoint header extras need {', '.join(fields)}")
        for f in fields[1:]:
            if (not isinstance(extras[f], list)
                    or not all(isinstance(v, str) for v in extras[f])):
                raise CheckpointError(f"checkpoint {f!r} must be a list of "
                                      "strings")
        try:
            config = RunConfig(**extras["config"])
        except (TypeError, ConfigError) as e:
            raise CheckpointError(f"checkpoint config: {e}") from e
        if extras.get("config_hash") != config.hash():
            raise CheckpointError("checkpoint config hash mismatch")
        if extras.get("grammar_hash") != grammar_hash(grammar):
            raise CheckpointError("checkpoint was trained on a different grammar")
        # PAD and UNK lead; a repeated token keeps its first index
        tokens = dict.fromkeys([PAD_TOKEN, UNK_TOKEN]
                               + extras["token_vocab"][2:])
        model = cls(grammar, config, tokens, extras["terminal_vocab"],
                    extras["slot_name_vocab"], store=store)
        model._check_layout()
        return model


def vocabs_from_examples(examples):
    """(tokens, terminal values, slot names) of the training data, each a
    list in first-occurrence order; the tokens start with PAD and UNK, at
    indices 0 and 1."""
    tokens = [PAD_TOKEN, UNK_TOKEN] + [t for ex in examples
                                       for t in tokenize(ex.description)]
    terminals = [v for ex in examples for v in token_yield(ex.ast)]
    slot_names = [n for ex in examples for n, _ in ex.slots]
    return tuple(list(dict.fromkeys(v))
                 for v in (tokens, terminals, slot_names))
