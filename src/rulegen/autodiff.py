"""Dense tensors with reverse-mode automatic differentiation.

Only the shapes the model needs are supported: scalars, vectors and
matrices. Every op checks its output for NaN/Inf and raises
:class:`NumericFault` on the spot, so a blown-up forward pass fails
loudly instead of poisoning the loss.

Ops record the graph by default: each output keeps its parents and a
backward closure, and :meth:`Tensor.backward` walks them. Inside a
``with no_graph():`` block they record nothing: an output is a bare
Tensor with no parents and no closure, so it holds no intermediate
arrays alive. The values and the checks are the same either way. Beam
search and the perturbed forwards of finite differences run this way;
anything whose loss is backpropagated must be built outside the block.
"""
from __future__ import annotations

import contextlib

import numpy as np

# whether ops record parents and backward closures; see no_graph()
_recording = True


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class NumericFault(ArithmeticError):
    """A forward op produced NaN or Inf."""


class LifecycleError(RuntimeError):
    """backward() called on something that is not a scalar loss."""


class Tensor:
    """A dense array plus the bookkeeping for the backward pass.

    ``grad`` is None, or an array of ``data``'s shape that the owner
    provides (a parameter's view into its store's gradient buffer).
    Calling :meth:`backward` on a downstream scalar adds into every such
    array; gradients accumulate until the owner zeroes them.
    """

    __slots__ = ("data", "grad", "_parents", "_backward_fn")

    def __init__(self, data, parents=(), backward_fn=None):
        self.data = np.asarray(data)
        self.grad = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        if self.data.shape != ():
            raise LifecycleError("backward() expects a scalar loss tensor")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads = {id(self): np.ones((), dtype=self.data.dtype)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.grad is not None:
                node.grad += g
            if node._backward_fn is None:
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


@contextlib.contextmanager
def no_graph():
    """Run ops without recording a graph; the previous setting comes back
    on exit, also on an exception, so blocks nest."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _check_finite(arr, what):
    # one ufunc reduce: ndarray.all() goes through a Python-level wrapper
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NumericFault(f"non-finite values produced by {what}")


def _make(data, parents, backward_fn, what):
    _check_finite(data, what)
    if not _recording:
        return Tensor(data)
    return Tensor(data, parents=parents, backward_fn=backward_fn)


def matmul(a: Tensor, b: Tensor, transpose_b=False) -> Tensor:
    """a @ b, or a @ b.T when ``transpose_b``; both are matrices."""
    bm = b.data.T if transpose_b else b.data
    if a.data.ndim != 2 or bm.ndim != 2 or a.shape[1] != bm.shape[0]:
        raise ShapeError(f"matmul {a.shape} @ {b.shape}"
                         + (".T" if transpose_b else ""))
    out = a.data @ bm

    def bw(g):
        if transpose_b:
            return g @ b.data, g.T @ a.data
        return g @ bm.T, a.data.T @ g

    return _make(out, (a, b), bw, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        out = a.data + b.data

        def bw(g):
            return g, g

    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        out = a.data + b.data

        def bw(g):
            return g, g.sum(axis=0)

    else:
        raise ShapeError(f"add {a.shape} + {b.shape}")
    return _make(out, (a, b), bw, "add")


def scale(x: Tensor, c: float) -> Tensor:
    out = x.data * c

    def bw(g):
        return (g * c,)

    return _make(out, (x,), bw, "scale")


def concat(tensors, axis=0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of nothing")
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def bw(g):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), bw, "concat")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def bw(g):
        return (g * (out > 0),)

    return _make(out, (x,), bw, "relu")


def _row_mask(x, mask, what):
    """``mask`` as a boolean array of x's shape whose every row admits at
    least one entry."""
    m = np.asarray(mask, dtype=bool)
    if x.data.ndim not in (1, 2) or m.shape != x.shape:
        raise ShapeError(f"{what} {x.shape} with mask {m.shape}")
    if not m.any(axis=-1).all():
        raise ShapeError(f"{what} with an all-false mask row")
    return m


def softmax(x: Tensor, mask=None) -> Tensor:
    """Softmax of a vector, or of each row of a matrix. Entries outside
    ``mask`` get probability 0 and no gradient."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"softmax expects a vector or matrix, got {x.shape}")
    xm = x.data
    if mask is not None:
        xm = np.where(_row_mask(x, mask, "softmax"), xm, -np.inf)
    e = np.exp(xm - xm.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return _make(p, (x,), bw, "softmax")


def masked_log_softmax(x: Tensor, mask) -> Tensor:
    """Log-softmax of a vector, or of each row of a matrix, restricted to
    ``mask``; masked entries come out -inf."""
    m = _row_mask(x, mask, "masked_log_softmax")
    xm = np.where(m, x.data, -np.inf)
    shifted = xm - xm.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=-1, keepdims=True)
    logp = shifted - np.log(z)
    _check_finite(logp[m], "masked_log_softmax")
    if not _recording:
        return Tensor(logp)

    def bw(g):
        gm = np.where(m, g, 0.0)
        return (gm - e / z * gm.sum(axis=-1, keepdims=True),)

    return Tensor(logp, parents=(x,), backward_fn=bw)


def pick(x: Tensor, index) -> Tensor:
    """One entry of a vector, or one entry per row of a matrix (``index``
    then lists a column per row) as a vector."""
    if x.data.ndim == 1:
        at = index
    elif x.data.ndim == 2 and len(index) == x.shape[0]:
        at = (np.arange(x.shape[0]), np.asarray(index, dtype=np.int64))
    else:
        raise ShapeError(f"pick {x.shape} at {index!r}")
    out = x.data[at]

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[at] = g
        return (gx,)

    return _make(out, (x,), bw, "pick")


def row(x: Tensor, index: int) -> Tensor:
    """One row of a matrix as a vector."""
    if x.data.ndim != 2:
        raise ShapeError(f"row expects a matrix, got {x.shape}")
    out = x.data[index]

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[index] = g
        return (gx,)

    return _make(out, (x,), bw, "row")


def sum_all(x: Tensor) -> Tensor:
    out = x.data.sum()

    def bw(g):
        return (np.full_like(x.data, g),)

    return _make(out, (x,), bw, "sum_all")


def sumsq(x: Tensor) -> Tensor:
    out = (x.data * x.data).sum()

    def bw(g):
        return (2.0 * g * x.data,)

    return _make(out, (x,), bw, "sumsq")


def gather_rows(x: Tensor, indices) -> Tensor:
    """Rows of x at a flat list of indices, repeats allowed: an embedding
    lookup, or a reordering or copy of rows."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows indices must be a flat list")
    out = x.data[idx]

    def bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _make(out, (x,), bw, "gather_rows")


def row_scale(x: Tensor, weights) -> Tensor:
    """Scale each row of a matrix by a constant per-row factor."""
    w = np.asarray(weights, dtype=x.dtype)
    if x.data.ndim != 2 or w.shape != (x.shape[0],):
        raise ShapeError(f"row_scale {x.shape} with {w.shape}")
    out = x.data * w[:, None]

    def bw(g):
        return (g * w[:, None],)

    return _make(out, (x,), bw, "row_scale")


def _check_segments(lengths, n):
    """Lengths of consecutive non-empty segments must add up to n rows."""
    if not len(lengths) or min(lengths) < 1 or sum(lengths) != n:
        raise ShapeError(f"segment lengths {list(lengths)} do not tile {n} rows")


def segment_max(x: Tensor, lengths) -> Tensor:
    """Column-wise max of each segment of a packed matrix: row t of the
    result pools rows sum(lengths[:t]) .. sum(lengths[:t+1]) - 1."""
    if x.data.ndim != 2:
        raise ShapeError(f"segment_max expects a matrix, got {x.shape}")
    _check_segments(lengths, x.shape[0])
    starts = [0]
    for length in lengths[:-1]:
        starts.append(starts[-1] + length)
    out = np.maximum.reduceat(x.data, starts, axis=0)

    def bw(g):
        gx = np.zeros_like(x.data)
        cols = np.arange(x.shape[1])
        for t, (start, length) in enumerate(zip(starts, lengths)):
            rows = start + x.data[start:start + length].argmax(axis=0)
            gx[rows, cols] = g[t]
        return (gx,)

    return _make(out, (x,), bw, "segment_max")


def dropout(x: Tensor, rate: float, rng) -> Tensor:
    """Inverted dropout: a scaled mask drawn from the generator ``rng`` in
    training, the identity at inference (``rng`` None)."""
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout rate {rate} outside [0, 1)")
    if rng is None or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    factor = 1.0 / (1.0 - rate)
    out = x.data * keep * factor

    def bw(g):
        return (g * keep * factor,)

    return _make(out, (x,), bw, "dropout")


def window_offsets(k: int):
    """Window offsets per the half-width convention: ceil(-s)..ceil(s)."""
    lo = -((k - 1) // 2)
    return list(range(lo, lo + k))


def conv_stack(x: Tensor, weights, k: int, lengths=None) -> Tensor:
    """A whole shortcut-CNN stack as one node.

    Layer l computes y(l) = relu(window(y(l-1)) @ weights[l-1] + c(l) y(l-2))
    with y(0) = x and c(l) = 1 on even layers, 0 on odd ones. Row i of
    window(y) concatenates rows i+o of y over the window offsets, with
    zeros outside the sequence. With ``lengths``, x packs consecutive
    sequences of those lengths, and a window never reads across a boundary
    between them: each sequence gets the rows it would get alone.

    Every layer keeps the width d of x, so each weight is (k*d, d). The
    window plan and one window buffer serve every layer. When it records,
    the node keeps each layer's output for backward and rebuilds each
    layer's window from it there.
    """
    weights = list(weights)
    if (x.data.ndim != 2 or not weights
            or any(w.shape != (k * x.shape[1], x.shape[1]) for w in weights)):
        raise ShapeError(f"conv_stack {x.shape} with window {k} @ "
                         f"{[w.shape for w in weights]}")
    n, d = x.shape
    offs = window_offsets(k)
    cross = None  # (n, k): window slots that would read another sequence
    if lengths is not None:
        _check_segments(lengths, n)
        if len(lengths) > 1:
            seg = np.repeat(np.arange(len(lengths)), lengths)
            src = np.clip(np.arange(n)[:, None] + np.array(offs), 0, n - 1)
            cross = seg[src] != seg[:, None]
    # (column block, source rows, destination rows) per window offset that
    # reads inside the sequence
    blocks = [(slice(j * d, (j + 1) * d), slice(max(0, o), n + min(0, o)),
               slice(max(0, -o), n - max(0, o)))
              for j, o in enumerate(offs) if abs(o) < n]
    # slots outside the sequence are never written, so they stay zero
    win = np.zeros((n, k * d), dtype=x.dtype)

    def fill(y):
        for cols, src_rows, dst_rows in blocks:
            win[dst_rows, cols] = y[src_rows]
        if cross is not None:
            win.reshape(n, k, d)[cross] = 0.0

    ys = [x.data]
    for layer, w in enumerate(weights, 1):
        fill(ys[-1])
        z = win @ w.data
        if layer % 2 == 0:
            z += ys[layer - 2]
        # a -inf here would vanish after the ReLU, so check every layer
        _check_finite(z, f"conv_stack layer {layer}")
        ys.append(np.maximum(z, 0, out=z))
    if not _recording:
        return Tensor(ys[-1])

    def bw(g):
        # gy[l] is the gradient reaching y(l), popped once layer l is done.
        # y(l-2) gets the shortcut term of layer l first, then the window
        # term of layer l-1, as on a tape
        gy = [None] * len(weights) + [g]
        gw = [None] * len(weights)
        for layer in range(len(weights), 0, -1):
            gz = gy.pop() * (ys[layer] > 0)
            w = weights[layer - 1].data
            if layer % 2 == 0:
                gy[layer - 2] = gz
            gwin = gz @ w.T
            if cross is not None:
                gwin.reshape(n, k, d)[cross] = 0.0
            gx = np.zeros_like(ys[layer - 1])
            for cols, src_rows, dst_rows in blocks:
                gx[src_rows] += gwin[dst_rows, cols]
            acc = gy[layer - 1]
            gy[layer - 1] = gx if acc is None else acc + gx
            fill(ys[layer - 1])
            gw[layer - 1] = win.T @ gz
        return (gy[0], *gw)

    return Tensor(ys[-1], parents=(x, *weights), backward_fn=bw)
