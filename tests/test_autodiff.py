import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import window_conv
from rulegen import autodiff as ad


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def leaf(data):
    """A tensor that collects its gradient, as a parameter does."""
    t = ad.Tensor(data)
    t.grad = np.zeros_like(t.data)
    return t


def check_op(op, shapes, seed, scalarize=None, atol=1e-7):
    rng = np.random.default_rng(seed)
    tensors = [leaf(rng.standard_normal(s))
               for s in shapes]
    weights = None

    def run():
        out = op(*tensors)
        if out.data.shape != ():
            nonlocal weights
            if weights is None:
                weights = rng.standard_normal(out.data.shape)
            out = ad.sum_all(ad.Tensor(out.data * weights, parents=(out,),
                                       backward_fn=lambda g: (g * weights,)))
        return out

    run().backward()
    for t in tensors:
        num = fd_grad(lambda: run().item(), t.data)
        assert np.allclose(t.grad, num, atol=atol), (t.grad, num)


dims = st.integers(min_value=1, max_value=5)


@settings(max_examples=25, deadline=None)
@given(n=dims, m=dims, k=dims, seed=st.integers(0, 10**6))
def test_matmul_grad(n, m, k, seed):
    check_op(ad.matmul, [(n, m), (m, k)], seed)


@settings(max_examples=25, deadline=None)
@given(n=dims, m=dims, seed=st.integers(0, 10**6))
def test_add_and_bias_grad(n, m, seed):
    check_op(ad.add, [(n, m), (n, m)], seed)
    check_op(ad.add, [(n, m), (m,)], seed + 1)


@settings(max_examples=25, deadline=None)
@given(n=dims, m=dims, seed=st.integers(0, 10**6))
def test_relu_grad(n, m, seed):
    check_op(ad.relu, [(n, m)], seed)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_softmax_grad(n, seed):
    rng = np.random.default_rng(seed)
    w = ad.Tensor(rng.standard_normal((n, 1)))
    check_op(lambda x: ad.sum_all(ad.matmul(ad.softmax(x), w)), [(1, n)], seed)


@settings(max_examples=25, deadline=None)
@given(n=dims, m=dims, k=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_stack_window_grad(n, m, k, seed):
    check_op(lambda x, w: ad.conv_stack(x, [w], k), [(n, m), (k * m, m)], seed)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), m=dims, seed=st.integers(0, 10**6))
def test_max_over_rows_grad(n, m, seed):
    check_op(lambda x: ad.segment_max(x, [n]), [(n, m)], seed)


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(2, 5), m=dims, seed=st.integers(0, 10**6),
       picks=st.lists(st.integers(0, 100), min_size=1, max_size=6))
def test_embedding_and_gather_grad(rows, m, seed, picks):
    # an embedding lookup is a row gather from the table
    idx = [p % rows for p in picks]
    check_op(lambda t: ad.gather_rows(t, idx), [(rows, m)], seed)
    check_op(lambda t: ad.gather_rows(t, idx), [(rows, m)], seed + 1)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 10**6),
       data=st.data())
def test_masked_log_softmax_grad(n, seed, data):
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    if not mask.any():
        mask[0] = True
    target = int(np.flatnonzero(mask)[0])
    check_op(lambda x: ad.pick(ad.masked_log_softmax(x, mask), target),
             [(n,)], seed)


def test_relu_sum_example():
    x = leaf(np.array([1.0, -1.0]))
    ad.sum_all(ad.relu(x)).backward()
    assert np.array_equal(x.grad, [1.0, 0.0])


def test_cross_entropy_softmax_closed_form():
    rng = np.random.default_rng(0)
    logits = leaf(rng.standard_normal(6))
    target = 2
    loss = ad.scale(ad.pick(ad.masked_log_softmax(logits, np.ones(6, bool)),
                            target), -1.0)
    loss.backward()
    p = np.exp(logits.data - logits.data.max())
    p /= p.sum()
    onehot = np.eye(6)[target]
    assert np.allclose(logits.grad, p - onehot, atol=1e-12)


def test_softmax_normalization_and_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(7)
        p = ad.softmax(ad.Tensor(x)).data
        assert abs(p.sum() - 1.0) < 1e-6
        q = ad.softmax(ad.Tensor(x + 3.7)).data
        assert np.max(np.abs(p - q)) < 1e-9


def test_masked_entries_are_neg_inf_and_excluded():
    x = ad.Tensor(np.array([0.0, 100.0, 0.0]))
    lp = ad.masked_log_softmax(x, np.array([True, False, True]))
    assert lp.data[1] == -np.inf
    assert abs(np.exp(lp.data[[0, 2]]).sum() - 1.0) < 1e-12


def test_dropout_expectation_and_inference_identity():
    rng = np.random.default_rng(0)
    x = ad.Tensor(np.ones((100, 1000)))
    rate = 0.3
    out = ad.dropout(x, rate, rng)
    keep_rate = np.count_nonzero(out.data) / out.data.size
    assert abs(keep_rate - (1 - rate)) < 0.02
    # kept units are scaled by 1/(1-rate)
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 1.0 / (1 - rate))
    assert ad.dropout(x, rate, None) is x


def test_forward_nan_raises_numeric_fault():
    big = ad.Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(ad.NumericFault):
        ad.add(big, big)


def test_backward_requires_scalar():
    with pytest.raises(ad.LifecycleError):
        ad.Tensor(np.zeros(3)).backward()


def test_shape_errors():
    a = ad.Tensor(np.zeros((2, 3)))
    b = ad.Tensor(np.zeros((2, 3)))
    with pytest.raises(ad.ShapeError):
        ad.matmul(a, b)
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.Tensor(np.zeros(2)), ad.Tensor(np.zeros(2)))
    with pytest.raises(ad.ShapeError):
        ad.conv_stack(a, [ad.Tensor(np.zeros((5, 2)))], 2)
    with pytest.raises(ad.ShapeError):
        ad.conv_stack(a, [], 2)
    with pytest.raises(ad.ShapeError):
        ad.gather_rows(a, [[0, 1]])
    # every layer keeps x's width, which the shortcut needs
    with pytest.raises(ad.ShapeError):
        ad.conv_stack(a, [ad.Tensor(np.zeros((6, 3))),
                          ad.Tensor(np.zeros((6, 2)))], 2)


def test_window_offsets_k2_covers_i_and_next():
    assert ad.window_offsets(2) == [0, 1]
    assert ad.window_offsets(3) == [-1, 0, 1]


def stack_window(x, k, lengths=None):
    """window(x) as one-layer stacks read it: the weights of each select
    one offset block, and the ReLU keeps the non-negative rows of x."""
    m = x.shape[1]
    eye = np.eye(k * m)
    return np.concatenate(
        [ad.conv_stack(ad.Tensor(x), [ad.Tensor(eye[:, j * m:(j + 1) * m])],
                       k, lengths).data for j in range(k)], axis=1)


def test_stack_window_zero_padding():
    out = stack_window(np.array([[1.0, 2.0], [3.0, 4.0]]), 2)
    # row i = [row i, row i+1]; last row padded with zeros
    assert np.array_equal(out[0], [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(out[1], [3.0, 4.0, 0.0, 0.0])


def test_forward_backward_determinism():
    def run():
        rng = np.random.default_rng(7)
        x = leaf(rng.standard_normal((4, 3)))
        w = leaf(rng.standard_normal((3, 2)))
        loss = ad.sum_all(ad.relu(ad.matmul(x, w)))
        loss.backward()
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_gradient_accumulation_is_additive():
    x = leaf(np.arange(3.0))
    ad.sum_all(x).backward()
    ad.sum_all(x).backward()
    assert np.array_equal(x.grad, np.full(3, 2.0))


# --- packed sequences: one row or segment per decoder state ---------------

segment_lists = st.lists(st.integers(1, 4), min_size=1, max_size=4)


def reference_window(x, k, lengths):
    """Row i: rows i+o of x for o in window_offsets(k), zero where i+o
    falls outside the sequence that row i belongs to."""
    d = x.shape[1]
    offsets = ad.window_offsets(k)
    out = np.zeros((x.shape[0], k * d))
    start = 0
    for n in lengths:
        for i in range(n):
            for j, o in enumerate(offsets):
                if 0 <= i + o < n:
                    out[start + i, j * d:(j + 1) * d] = x[start + i + o]
        start += n
    return out


@settings(max_examples=25, deadline=None)
@given(lengths=segment_lists, m=dims, k=st.integers(1, 4),
       seed=st.integers(0, 10**6))
def test_stack_window_segments_match_each_sequence_alone(lengths, m, k, seed):
    x = np.abs(np.random.default_rng(seed).standard_normal((sum(lengths), m)))
    packed = stack_window(x, k, lengths)
    starts = np.cumsum([0] + lengths[:-1])
    alone = [stack_window(x[s:s + n], k) for s, n in zip(starts, lengths)]
    assert np.array_equal(packed, np.concatenate(alone, axis=0))
    assert np.array_equal(packed, reference_window(x, k, lengths))


@settings(max_examples=25, deadline=None)
@given(lengths=segment_lists, m=dims, k=st.integers(1, 4),
       seed=st.integers(0, 10**6))
def test_stack_window_segments_grad(lengths, m, k, seed):
    n = sum(lengths)
    check_op(lambda x, w: ad.conv_stack(x, [w], k, lengths),
             [(n, m), (k * m, m)], seed)
    # two layers: the second adds the shortcut from x
    check_op(lambda x, w1, w2: ad.conv_stack(x, [w1, w2], k, lengths),
             [(n, m), (k * m, m), (k * m, m)], seed + 1)


def test_stack_window_rejects_lengths_that_do_not_tile():
    x = ad.Tensor(np.zeros((4, 2)))
    w = ad.Tensor(np.zeros((4, 2)))
    for lengths in ([1, 2], [2, 0, 2], [3, 2], [3]):
        with pytest.raises(ad.ShapeError):
            ad.conv_stack(x, [w], 2, lengths)


@settings(max_examples=25, deadline=None)
@given(lengths=segment_lists, m=dims, k=st.integers(1, 4),
       layers=st.integers(1, 3), seed=st.integers(0, 10**6))
def test_conv_stack_matches_numpy_reference(lengths, m, k, layers, seed):
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    x = rng.standard_normal((n, m))
    ws = [rng.standard_normal((k * m, m)) for _ in range(layers)]
    got = ad.conv_stack(ad.Tensor(x), [ad.Tensor(w) for w in ws], k,
                        lengths).data
    ys = [x]
    for layer, w in enumerate(ws, 1):
        z = reference_window(ys[-1], k, lengths) @ w
        if layer % 2 == 0:
            z = ys[layer - 2] + z
        ys.append(np.maximum(z, 0.0))
    assert np.allclose(got, ys[-1], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("layers", [1, 2])
def test_conv_stack_nan_raises_numeric_fault(layers):
    # -Inf raises too, even though the ReLU would map it to 0
    for bad in (np.nan, -np.inf):
        x = np.ones((3, 2))
        x[1, 0] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ad.NumericFault):
            ad.conv_stack(ad.Tensor(x), [ad.Tensor(np.ones((4, 2)))] * layers,
                          2)


def test_conv_stack_names_a_middle_layer_that_overflows():
    # layer 3's pre-ReLU sum is -inf; its ReLU output would be a clean 0
    ws = [np.full((4, 2), 0.5), np.full((4, 2), 0.5),
          np.full((4, 2), -1e308), np.full((4, 2), 0.5),
          np.full((4, 2), 0.5)]
    with np.errstate(over="ignore"), pytest.raises(
            ad.NumericFault, match="conv_stack layer 3$"):
        ad.conv_stack(ad.Tensor(np.ones((3, 2))),
                      [ad.Tensor(w) for w in ws], 2)


def oracle_stack(x, weights, k, lengths):
    """The stack as a chain of one-layer nodes on the tape."""
    outs = [x]
    for layer, w in enumerate(weights, 1):
        outs.append(window_conv(
            outs[-1], w, k, lengths,
            residual=outs[layer - 2] if layer % 2 == 0 else None))
    return outs[-1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("layers", [1, 2, 5])
@pytest.mark.parametrize("lengths", [None, [7], [1, 3, 1, 2]])
def test_conv_stack_matches_a_chain_of_layers_bit_for_bit(dtype, k, layers,
                                                          lengths):
    rng = np.random.default_rng(layers * 10 + k)
    n, d = 7, 4
    x0 = rng.standard_normal((n, d)).astype(dtype)
    w0 = [(rng.standard_normal((k * d, d)) / np.sqrt(d)).astype(dtype)
          for _ in range(layers)]
    g = rng.standard_normal((n, d)).astype(dtype)

    def run(stack):
        x = leaf(x0.copy())
        ws = [leaf(w.copy()) for w in w0]
        out = stack(x, ws, k, lengths)
        ad.sum_all(ad.Tensor(out.data * g, parents=(out,),
                             backward_fn=lambda gg: (gg * g,))).backward()
        return [out.data, x.grad] + [w.grad for w in ws]

    got, want = run(ad.conv_stack), run(oracle_stack)
    assert (got[0] > 0).any()
    for a, b in zip(got, want):
        assert a.dtype == dtype
        assert np.array_equal(a, b)


def test_relu_nan_raises_numeric_fault():
    with pytest.raises(ad.NumericFault):
        ad.relu(ad.Tensor(np.array([1.0, np.nan, -1.0])))


def test_finite_check_covers_scalars_and_empty_arrays():
    for ok in (np.float32(1.0), np.array(2.0), np.zeros((0, 3))):
        ad._check_finite(ok, "op")
    for bad in (np.float64(np.inf), np.array(np.nan),
                np.array([[1.0, -np.inf]])):
        with pytest.raises(ad.NumericFault, match="^non-finite values "
                           "produced by op$"):
            ad._check_finite(bad, "op")


def graph_ops(x, w):
    """A node from each way an op returns: through ``_make``, from
    ``conv_stack`` and from ``masked_log_softmax``."""
    y = ad.conv_stack(x, [w, w], 2)
    y = ad.concat([ad.relu(ad.matmul(y, w, transpose_b=True)), y], axis=1)
    return ad.masked_log_softmax(y, np.indices(y.shape).sum(axis=0) % 2 == 0)


def test_no_graph_records_nothing_and_keeps_the_values():
    rng = np.random.default_rng(8)
    x = ad.Tensor(rng.standard_normal((4, 3)))
    w = ad.Tensor(rng.standard_normal((6, 3)))
    recorded = graph_ops(x, w)
    assert recorded._parents and recorded._backward_fn is not None
    with ad.no_graph():
        bare = graph_ops(x, w)
    assert bare._parents == () and bare._backward_fn is None
    assert np.array_equal(bare.data, recorded.data)


def test_no_graph_nests_and_restores_after_an_exception():
    assert ad._recording
    with ad.no_graph():
        with ad.no_graph():
            assert not ad._recording
        assert not ad._recording
        with pytest.raises(ad.NumericFault), ad.no_graph():
            ad.relu(ad.Tensor(np.array([np.nan])))
        assert not ad._recording
    assert ad._recording
    x = ad.Tensor(np.ones(2))
    assert ad.relu(x)._parents == (x,)


@settings(max_examples=25, deadline=None)
@given(lengths=segment_lists, m=dims, seed=st.integers(0, 10**6))
def test_segment_max_matches_max_over_rows(lengths, m, seed):
    x = np.random.default_rng(seed).standard_normal((sum(lengths), m))
    got = ad.segment_max(ad.Tensor(x), lengths).data
    starts = np.cumsum([0] + lengths[:-1])
    want = [x[s:s + n].max(axis=0) for s, n in zip(starts, lengths)]
    assert np.array_equal(got, np.stack(want))
    check_op(lambda t: ad.segment_max(t, lengths), [(sum(lengths), m)], seed)


@settings(max_examples=25, deadline=None)
@given(t=st.integers(1, 4), n=st.integers(2, 6), seed=st.integers(0, 10**6),
       data=st.data())
def test_masked_softmax_rows_match_vector_softmax(t, n, seed, data):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((t, n))
    mask = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=n, max_size=n),
        min_size=t, max_size=t)))
    mask[:, 0] |= ~mask.any(axis=1)
    p = ad.softmax(ad.Tensor(x), mask).data
    lp = ad.masked_log_softmax(ad.Tensor(x), mask).data
    for i in range(t):
        sub = ad.softmax(ad.Tensor(x[i][mask[i]])).data
        assert np.allclose(p[i][mask[i]], sub, rtol=1e-12, atol=0)
        assert np.all(p[i][~mask[i]] == 0.0)
        one = ad.masked_log_softmax(ad.Tensor(x[i]), mask[i]).data
        assert np.allclose(lp[i][mask[i]], one[mask[i]], rtol=1e-12, atol=0)
        assert np.all(np.isneginf(lp[i][~mask[i]]))
    w = ad.Tensor(rng.standard_normal((n, 1)))
    check_op(lambda a: ad.matmul(ad.softmax(a, mask), w), [(t, n)], seed)
    targets = [int(np.flatnonzero(r)[0]) for r in mask]
    check_op(lambda a: ad.pick(ad.masked_log_softmax(a, mask), targets),
             [(t, n)], seed)


@settings(max_examples=25, deadline=None)
@given(n=dims, m=dims, k=dims, seed=st.integers(0, 10**6))
def test_matmul_transpose_b_grad(n, m, k, seed):
    check_op(lambda a, b: ad.matmul(a, b, transpose_b=True),
             [(n, m), (k, m)], seed)


def test_row_tile_and_pick_rows():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4))
    assert np.array_equal(ad.row(ad.Tensor(x), 1).data, x[1])
    assert np.array_equal(ad.pick(ad.Tensor(x), [3, 0, 2]).data,
                          [x[0, 3], x[1, 0], x[2, 2]])
    assert np.array_equal(ad.gather_rows(ad.Tensor(x[:1]), [0, 0]).data,
                          np.stack([x[0], x[0]]))
    check_op(lambda a: ad.row(a, 2), [(3, 4)], 5)
    check_op(lambda a: ad.pick(a, [3, 0, 2]), [(3, 4)], 6)
    check_op(lambda a: ad.gather_rows(a, [0, 0, 0]), [(1, 4)], 7)
    with pytest.raises(ad.ShapeError):
        ad.pick(ad.Tensor(x), [0, 1])
