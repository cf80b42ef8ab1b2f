import json

import numpy as np
import pytest

from rulegen import autodiff as ad
from rulegen.params import (
    CheckpointError,
    ParamStore,
    adam_step,
    embedding_init,
    load_params,
    save_params,
    xavier_uniform,
)


def make_store(seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    store = ParamStore(dtype=dtype)
    store.add("w", rng.standard_normal((3, 4)))
    store.add("b", rng.standard_normal(4))
    return store


def test_adam_matches_reference_recurrence():
    store = make_store()
    grads = {n: np.random.default_rng(1).standard_normal(store[n].shape)
             for n in store.names()}
    # independent straight-line Adam
    ref = {n: store[n].data.copy() for n in store.names()}
    m = {n: np.zeros_like(ref[n]) for n in ref}
    v = {n: np.zeros_like(ref[n]) for n in ref}
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    for t in range(1, 4):
        for n in ref:
            g = grads[n]
            m[n] = b1 * m[n] + (1 - b1) * g
            v[n] = b2 * v[n] + (1 - b2) * g * g
            mh = m[n] / (1 - b1 ** t)
            vh = v[n] / (1 - b2 ** t)
            ref[n] = ref[n] - lr * mh / (np.sqrt(vh) + eps)
        for n in store.names():
            store[n].grad = grads[n].copy()
        adam_step(store)
    for n in ref:
        assert np.allclose(store[n].data, ref[n], atol=1e-12)


def test_adam_missing_grad_is_zero_grad():
    store = make_store()
    store["w"].grad = np.ones_like(store["w"].data)
    before_b = store["b"].data.copy()
    adam_step(store)
    assert np.array_equal(store["b"].data, before_b)
    assert not np.array_equal(store["w"].data, make_store()["w"].data)


def test_adam_shape_mismatch_raises():
    store = make_store()
    store["w"].grad = np.zeros((2, 2))
    with pytest.raises(ad.ShapeError):
        adam_step(store)


def test_xavier_bounds_and_embedding_range():
    rng = np.random.default_rng(0)
    w = xavier_uniform(rng, (64, 32))
    limit = np.sqrt(6.0 / 96)
    assert w.shape == (64, 32)
    assert np.all(np.abs(w) <= limit)
    e = embedding_init(rng, (10, 8))
    assert np.all(np.abs(e) <= 0.05)


def test_checkpoint_roundtrip(tmp_path):
    store = make_store(dtype=np.float32)
    store["w"].grad = np.ones_like(store["w"].data)
    adam_step(store)
    path = tmp_path / "ck.bin"
    save_params(store, path, extras={"note": "x"})
    loaded, header = load_params(path)
    assert header["extras"]["note"] == "x"
    assert loaded.step == store.step
    for n in store.names():
        assert np.array_equal(loaded[n].data, store[n].data)
        assert np.allclose(loaded.moments_m[n], store.moments_m[n])
        assert np.allclose(loaded.moments_v[n], store.moments_v[n])


def test_checkpoint_without_optimizer(tmp_path):
    """The program always writes the Adam moments, but a checkpoint from
    elsewhere may leave them out."""
    store = make_store(dtype=np.float32)
    path = tmp_path / "ck.bin"
    save_params(store, path)
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    header["optimizer"] = False
    weights = 4 * sum(store[n].data.size for n in store.names())
    path.write_bytes(json.dumps(header).encode() + raw[nl:nl + 1 + weights])
    loaded, header = load_params(path)
    assert header["optimizer"] is False
    assert loaded.step == 0


def test_checkpoint_truncation_and_trailing(tmp_path):
    store = make_store(dtype=np.float32)
    path = tmp_path / "ck.bin"
    save_params(store, path)
    raw = path.read_bytes()
    (tmp_path / "trunc.bin").write_bytes(raw[:-5])
    with pytest.raises(CheckpointError):
        load_params(tmp_path / "trunc.bin")
    (tmp_path / "trail.bin").write_bytes(raw + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError):
        load_params(tmp_path / "trail.bin")


def test_checkpoint_bad_version_and_header(tmp_path):
    (tmp_path / "bad.bin").write_bytes(b'{"format_version": 99}\n')
    with pytest.raises(CheckpointError):
        load_params(tmp_path / "bad.bin")
    (tmp_path / "noheader.bin").write_bytes(b"\x01\x02\x03")
    with pytest.raises(CheckpointError):
        load_params(tmp_path / "noheader.bin")


def test_checkpoint_bytes_are_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_params(make_store(dtype=np.float32), a)
    save_params(make_store(dtype=np.float32), b)
    assert a.read_bytes() == b.read_bytes()


BAD_HEADERS = {
    "not_an_object": [1],
    "no_params": {"format_version": 1},
    "entry_not_an_object": {"format_version": 1, "params": ["w"]},
    "entry_without_shape": {"format_version": 1, "params": [{"name": "w"}]},
    "entry_without_name": {"format_version": 1, "params": [{"shape": [2]}]},
    "shape_not_sizes": {"format_version": 1,
                        "params": [{"name": "w", "shape": [2, "x"]}]},
    "repeated_name": {"format_version": 1,
                      "params": [{"name": "w", "shape": []},
                                 {"name": "w", "shape": []}]},
}


@pytest.mark.parametrize("header", BAD_HEADERS.values(),
                         ids=BAD_HEADERS.keys())
def test_checkpoint_malformed_header_entries(tmp_path, header):
    path = tmp_path / "bad.bin"
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8))
    with pytest.raises(CheckpointError):
        load_params(path)


def test_model_load_needs_model_extras(tmp_path):
    from rulegen.grammar import induce_grammar
    from rulegen.data import synth_corpus
    from rulegen.model import Model

    path = tmp_path / "ck.bin"
    save_params(make_store(dtype=np.float32), path)
    grammar = induce_grammar([ex.ast for ex in synth_corpus(count=2)])
    with pytest.raises(CheckpointError):
        Model.load(path, grammar)
    save_params(make_store(dtype=np.float32), path, extras={
        "config": {"mystery": 1}, "token_vocab": [], "terminal_vocab": [],
        "slot_name_vocab": []})
    with pytest.raises(CheckpointError):
        Model.load(path, grammar)
