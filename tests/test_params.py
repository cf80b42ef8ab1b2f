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
    """A misshapen gradient on a later parameter must not leave the
    earlier ones updated."""
    store = make_store()
    for n in store.names():
        store[n].grad = np.ones_like(store[n].data)
    adam_step(store)
    weights = store.clone_values()
    moments_m = {n: m.copy() for n, m in store.moments_m.items()}
    moments_v = {n: v.copy() for n, v in store.moments_v.items()}
    assert store.names() == ["w", "b"]
    store["b"].grad = np.zeros(5)
    with pytest.raises(ad.ShapeError):
        adam_step(store)
    assert store.step == 1
    for n in store.names():
        assert np.array_equal(store[n].data, weights[n])
        assert np.array_equal(store.moments_m[n], moments_m[n])
        assert np.array_equal(store.moments_v[n], moments_v[n])


def test_moments_exist_only_once_the_store_trains():
    store = make_store()
    assert store.moments_m is None and store.moments_v is None
    store["w"].grad = np.zeros((2, 2))
    with pytest.raises(ad.ShapeError):
        adam_step(store)
    assert store.moments_m is None and store.step == 0
    store["w"].grad = np.ones_like(store["w"].data)
    adam_step(store)
    assert set(store.moments_m) == set(store.moments_v) == {"w", "b"}
    store.add("c", np.zeros(2))
    assert np.array_equal(store.moments_m["c"], np.zeros(2))
    assert np.array_equal(store.moments_v["c"], np.zeros(2))


def test_adam_step_on_a_loaded_store(tmp_path):
    store = make_store(dtype=np.float32)
    for n in store.names():
        store[n].grad = np.ones_like(store[n].data)
    adam_step(store)
    save_params(store, tmp_path / "ck.bin")
    loaded, _ = load_params(tmp_path / "ck.bin")
    assert loaded.step == 1
    before = loaded.clone_values()
    for n in loaded.names():
        loaded[n].grad = np.ones_like(loaded[n].data)
    adam_step(loaded)
    assert loaded.step == 2
    for n in loaded.names():
        assert not np.array_equal(loaded[n].data, before[n])


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
    assert header["optimizer"] is True
    for n in store.names():
        assert np.array_equal(loaded[n].data, store[n].data)
        assert np.array_equal(loaded.moments_m[n], store.moments_m[n])
        assert np.array_equal(loaded.moments_v[n], store.moments_v[n])


def test_checkpoint_without_optimizer(tmp_path):
    """A never-stepped store has no moments, and its checkpoint holds the
    weights alone."""
    store = make_store(dtype=np.float32)
    path = tmp_path / "ck.bin"
    save_params(store, path)
    raw = path.read_bytes()
    weights = 4 * sum(store[n].data.size for n in store.names())
    assert len(raw) == raw.index(b"\n") + 1 + weights
    loaded, header = load_params(path)
    assert header["optimizer"] is False
    assert loaded.step == 0
    assert loaded.moments_m is None and loaded.moments_v is None
    for n in store.names():
        assert np.array_equal(loaded[n].data, store[n].data)


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


def rewrite_header(path, edit):
    raw = path.read_bytes()
    nl = raw.index(b"\n")
    header = json.loads(raw[:nl])
    edit(header)
    path.write_bytes(json.dumps(header).encode() + raw[nl:])


def test_checkpoint_header_claiming_a_huge_shape_is_truncated(tmp_path):
    path = tmp_path / "ck.bin"
    save_params(make_store(dtype=np.float32), path)
    rewrite_header(path, lambda h: h["params"][0].update(
        shape=[1 << 40, 1 << 40]))
    with pytest.raises(CheckpointError, match="truncated"):
        load_params(path)


def test_checkpoint_payload_byte_flip_fails_the_checksum(tmp_path):
    path = tmp_path / "ck.bin"
    save_params(make_store(dtype=np.float32), path)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x10
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="checksum"):
        load_params(path)


def test_checkpoint_version_1_is_refused(tmp_path):
    path = tmp_path / "ck.bin"
    save_params(make_store(dtype=np.float32), path)

    def as_v1(header):
        header["format_version"] = 1
        del header["payload_crc32"]

    rewrite_header(path, as_v1)
    with pytest.raises(CheckpointError, match="version 1"):
        load_params(path)


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
    "not_an_object": ([1], "not a JSON object"),
    "no_params": ({"format_version": 2}, "no 'params' list"),
    "entry_not_an_object": ({"format_version": 2, "params": ["w"]},
                            r"params\[0\] needs"),
    "entry_without_shape": ({"format_version": 2, "params": [{"name": "w"}]},
                            r"params\[0\] needs"),
    "entry_without_name": ({"format_version": 2, "params": [{"shape": [2]}]},
                           r"params\[0\] needs"),
    "shape_not_sizes": ({"format_version": 2,
                         "params": [{"name": "w", "shape": [2, "x"]}]},
                        r"params\[0\] needs"),
    "repeated_name": ({"format_version": 2,
                       "params": [{"name": "w", "shape": []},
                                  {"name": "w", "shape": []}]},
                      "repeats parameter 'w'"),
    "adam_step_not_an_integer": ({"format_version": 2, "params": [],
                                  "adam_step": "1"},
                                 "'adam_step' is not an integer"),
}


@pytest.mark.parametrize("header, message", BAD_HEADERS.values(),
                         ids=BAD_HEADERS.keys())
def test_checkpoint_malformed_header_entries(tmp_path, header, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8))
    with pytest.raises(CheckpointError, match=message):
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
