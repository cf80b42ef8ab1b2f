import dataclasses

import numpy as np

from rulegen import autodiff as ad
from rulegen.config import RunConfig
from rulegen.data import synth_corpus
from rulegen.encoder import PAD_TOKEN, UNK_TOKEN, shortcut_cnn, tokenize
from rulegen.grammar import induce_grammar
from rulegen.params import ParamStore
from rulegen.training import train


def test_tokenize_examples():
    assert tokenize("Divine Shield.") == ["divine", "shield"]
    assert tokenize("") == [PAD_TOKEN]
    assert tokenize("A-B 3") == ["a", "b", "3"]
    assert tokenize("  lots \t of\nspace ") == ["lots", "of", "space"]


def test_vocab_save_writes_one_token_per_line_in_index_order(tmp_path):
    ex = synth_corpus(num_ops=2, max_depth=1, count=1, seed=0)[0]
    ex = dataclasses.replace(ex, description="alpha beta gamma")
    g = induce_grammar([ex.ast])
    cfg = RunConfig(dim=4, layers=1, mlp_hidden=4, epochs=1, dropout=0.0,
                    seed=0, max_decode_steps=40)
    train([ex], [], g, cfg, out_dir=str(tmp_path))
    assert (tmp_path / "vocab.txt").read_text(
        encoding="utf-8").splitlines() == [
        PAD_TOKEN, UNK_TOKEN, "alpha", "beta", "gamma"]


def make_stack(prefix, layers, d, k=2, zero=True, seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore([(f"{prefix}conv{layer}", (k * d, d))
                        for layer in range(1, layers + 1)], dtype=np.float64)
    if not zero:
        for name in store.names():
            store[name].data[...] = rng.standard_normal((k * d, d))
    return store


def test_shortcut_identity_even_layers():
    d = 5
    store = make_stack("m/", 6, d, zero=True)
    rng = np.random.default_rng(3)
    y0 = ad.Tensor(np.abs(rng.standard_normal((4, d))))
    # layer l reads conv{l}, so a stack of l layers gives layer l
    outs = [y0] + [shortcut_cnn(store, "m/", y0, layers, 2)
                   for layers in range(1, 7)]
    # odd layers collapse to zero; every even layer must equal the
    # layer-two-below input exactly
    assert np.array_equal(outs[2].data, y0.data)
    assert np.array_equal(outs[4].data, outs[2].data)
    assert np.array_equal(outs[6].data, outs[4].data)
    assert np.array_equal(outs[1].data, np.zeros((4, d)))


def test_shortcut_reference_recurrence():
    """Straight-line reimplementation of the layer recurrence."""
    d, k, layers, n = 4, 2, 3, 5
    store = make_stack("m/", layers, d, k=k, zero=False, seed=9)
    rng = np.random.default_rng(11)
    y0 = rng.standard_normal((n, d))
    out = shortcut_cnn(store, "m/", ad.Tensor(y0), layers, k).data

    ys = [y0]
    for layer in range(1, layers + 1):
        w = store[f"m/conv{layer}"].data
        prev = ys[layer - 1]
        windows = np.zeros((n, k * d))
        for i in range(n):
            for j, off in enumerate((0, 1)):  # k=2 covers {i, i+1}
                if 0 <= i + off < n:
                    windows[i, j * d:(j + 1) * d] = prev[i + off]
        z = windows @ w
        if layer % 2 == 0:
            z = z + ys[layer - 2]
        ys.append(np.maximum(z, 0.0))
    assert np.allclose(out, ys[-1], atol=1e-12)


def test_single_position_window_pads():
    d = 3
    store = make_stack("m/", 1, d, zero=False, seed=2)
    y0 = ad.Tensor(np.ones((1, d)))
    out = shortcut_cnn(store, "m/", y0, 1, 2)
    assert out.shape == (1, d)
    # the second window slot is zero padding: only the first d columns
    # of W contribute
    w = store["m/conv1"].data
    expect = np.maximum(np.ones(d) @ w[:d], 0.0)
    assert np.allclose(out.data[0], expect)


def test_shape_preserved_at_every_layer():
    d, layers = 4, 5
    store = make_stack("m/", layers, d, zero=False, seed=5)
    y0 = ad.Tensor(np.random.default_rng(0).standard_normal((7, d)))
    outs = [y0] + [shortcut_cnn(store, "m/", y0, top, 2)
                   for top in range(1, layers + 1)]
    assert all(o.shape == (7, d) for o in outs)
