"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces the program's public functions and methods
with wrappers while it is installed and restores them on removal, so an
untraced round runs the program's own code untouched. Spans nest: the
self time of a span is its duration minus the spans it encloses, and
every span's self time is credited to one layer label. Calls into the
autodiff ops are counted, not timed.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import rulegen.ast_tree as ast_tree
import rulegen.autodiff as ad
import rulegen.decode as decode
import rulegen.model as model
import rulegen.params as params
from rulegen.model import DecoderState, Model

# layer label -> the public functions and methods whose self time it gets
TIMED = {
    "encoder.encode": [(Model, "encode")],
    "model.rule_cnn": [(Model, "rule_features")],
    "model.tree_conv": [(Model, "ast_features")],
    "model.preorder_cnn": [(Model, "preorder_features")],
    "model.path_cnn": [(Model, "path_features")],
    "model.pool_mlp": [(Model, "aggregate"), (Model, "predict")],
    "ast_tree.view": [(ast_tree, "augmented_view"), (ast_tree, "root_path")],
    "model.advance": [(model, "advance")],
    "autodiff.backward": [(ad.Tensor, "backward")],
    "params.adam": [(params, "adam_step")],
    "decode.search": [(decode, "beam_search")],
    "params.checkpoint": [(Model, "save"), (Model, "load")],
}


def autodiff_ops():
    """Public functions defined in ``rulegen.autodiff``; a call counts as an
    op when it returns a Tensor."""
    return [name for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__
            and not name.startswith("_")]


class Patches:
    """Replace a function or method wherever the program refers to it."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, make_wrapper):
        raw = inspect.getattr_static(owner, attr)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            self._set(owner, attr, new)
            return
        new = make_wrapper(raw)
        # Functions imported by name live on in the importing modules too.
        for name, mod in list(sys.modules.items()):
            if name == "rulegen" or name.startswith("rulegen."):
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, new)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def states_in(arg) -> int:
    """Decoder states handed to one ``Model.predict`` call."""
    if isinstance(arg, DecoderState):
        return 1
    return len(arg)


class Tracer:
    """Self time per layer label and op counts, summed over every span
    recorded while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.ops = 0
        self.taped_ops = 0
        self.matmul_flop = 0
        self.predict_calls = 0
        self.predicted_states = 0
        self._stack = []
        self._patches = Patches()

    # -- installation ----------------------------------------------------

    def install(self, labels=tuple(TIMED), count_ops=True):
        for label in labels:
            for owner, attr in TIMED[label]:
                self._patches.replace(owner, attr,
                                      functools.partial(self._timed, label))
        self._patches.replace(Model, "predict", self._count_predict)
        if count_ops:
            for name in autodiff_ops():
                self._patches.replace(ad, name,
                                      functools.partial(self._counted, name))

    def remove(self):
        self._patches.restore()

    # -- wrappers --------------------------------------------------------

    def _timed(self, label, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                self.self_s[label] += dur - frame[0]
                self.calls[label] += 1
                if stack:
                    stack[-1][0] += dur

        return wrapper

    def _count_predict(self, fn):
        @functools.wraps(fn)
        def wrapper(model_self, state, *args, **kwargs):
            self.predict_calls += 1
            self.predicted_states += states_in(state)
            return fn(model_self, state, *args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, ad.Tensor):
                self.ops += 1
                if (out._backward_fn is not None
                        and not any(out is a for a in args)):
                    self.taped_ops += 1
                if name == "matmul":
                    self.matmul_flop += 2 * out.data.size * args[0].shape[-1]
            return out

        return wrapper
