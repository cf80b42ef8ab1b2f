import json

import numpy as np
import pytest

from rulegen.params import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_SLICE,
    CheckpointError,
    ParamStore,
    adam_step,
    embedding_init,
    load_params,
    save_params,
    xavier_uniform,
)


LAYOUT = [("w", (3, 4)), ("b", (4,))]


def make_store(seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    store = ParamStore(LAYOUT, dtype=dtype)
    for name, shape in LAYOUT:
        store[name].data[...] = rng.standard_normal(shape)
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
            store[n].grad[...] = grads[n]
        adam_step(store)
    for n in ref:
        assert np.allclose(store[n].data, ref[n], atol=1e-12)


def test_adam_missing_grad_is_zero_grad():
    """A parameter the loss never reached keeps a zero gradient, and
    Adam leaves its weights alone."""
    store = make_store()
    store["w"].grad[...] = 1.0
    before_b = store["b"].data.copy()
    adam_step(store)
    assert np.array_equal(store["b"].data, before_b)
    assert not np.array_equal(store["w"].data, make_store()["w"].data)


def test_views_tile_the_buffers_in_manifest_order():
    store = make_store()
    adam_step(store)
    offset = 0
    for name, shape in LAYOUT:
        t = store[name]
        size = int(np.prod(shape))
        assert t.data.shape == t.grad.shape == shape
        assert np.shares_memory(t.data, store.values)
        assert np.shares_memory(t.grad, store.grads)
        span = slice(offset, offset + size)
        # writing through the views lands in the parameter's own span
        t.data[...] = offset + 1
        t.grad[...] = offset + 2
        assert np.all(store.values[span] == offset + 1)
        assert np.all(store.grads[span] == offset + 2)
        offset += size
    assert offset == store.values.size == store.grads.size
    assert store.moments.shape == (2, offset)


def test_sliced_adam_gives_the_bits_of_a_whole_buffer_update():
    """Several slices' worth of float32 weights, gradients and moments,
    updated once by ``adam_step`` and once by the same expressions over
    whole buffers."""
    rng = np.random.default_rng(5)
    layout = [("a", (ADAM_SLICE + 3,)), ("b", (7, ADAM_SLICE // 7 + 11)),
              ("c", (5,))]
    store = ParamStore(layout, dtype=np.float32)
    size = store.values.size
    store.values[...] = rng.standard_normal(size)
    store.moments = np.stack([rng.standard_normal(size) * 0.1,
                              rng.random(size) * 0.01]).astype(np.float32)
    store.step = 4
    weights, m, v = (store.values.copy(), store.moments[0].copy(),
                     store.moments[1].copy())
    for step in (5, 6):
        g = rng.standard_normal(size).astype(np.float32)
        store.grads[...] = g
        adam_step(store, lr=3e-3)
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** step)
        v_hat = v / (1 - ADAM_BETA2 ** step)
        weights -= (3e-3 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                    ).astype(np.float32)
    assert store.values.tobytes() == weights.tobytes()
    assert store.moments[0].tobytes() == m.tobytes()
    assert store.moments[1].tobytes() == v.tobytes()


def test_moments_exist_only_once_the_store_trains():
    store = make_store()
    assert store.moments is None and store.step == 0
    store["w"].grad[...] = 1.0
    adam_step(store)
    assert store.moments.shape == (2, store.values.size)
    assert store.step == 1


def test_adam_step_on_a_loaded_store(tmp_path):
    store = make_store(dtype=np.float32)
    store.grads[...] = 1.0
    adam_step(store)
    save_params(store, tmp_path / "ck.bin")
    loaded, _ = load_params(tmp_path / "ck.bin")
    assert loaded.step == 1
    before = {n: loaded[n].data.copy() for n in loaded.names()}
    loaded.grads[...] = 1.0
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
    store["w"].grad[...] = 1.0
    adam_step(store)
    path = tmp_path / "ck.bin"
    save_params(store, path, extras={"note": "x"})
    loaded, header = load_params(path)
    assert header["extras"]["note"] == "x"
    assert loaded.step == store.step
    assert header["optimizer"] is True
    assert loaded.names() == store.names()
    for n in store.names():
        assert np.array_equal(loaded[n].data, store[n].data)
    assert np.array_equal(loaded.moments, store.moments)


def test_untrained_checkpoint_payload_is_the_weight_buffer(tmp_path):
    store = make_store(dtype=np.float32)
    path = tmp_path / "ck.bin"
    save_params(store, path)
    raw = path.read_bytes()
    assert raw[raw.index(b"\n") + 1:] == store.values.tobytes()


def test_checkpoint_without_optimizer(tmp_path):
    """A never-stepped store has no moments, and its checkpoint holds the
    weights alone."""
    store = make_store(dtype=np.float32)
    path = tmp_path / "ck.bin"
    save_params(store, path)
    raw = path.read_bytes()
    weights = 4 * store.values.size
    assert len(raw) == raw.index(b"\n") + 1 + weights
    loaded, header = load_params(path)
    assert header["optimizer"] is False
    assert loaded.step == 0
    assert loaded.moments is None
    for n in store.names():
        assert np.array_equal(loaded[n].data, store[n].data)
    assert not loaded.grads.any()


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


@pytest.mark.parametrize("buffer, at, part, name", [
    ("values", 0, "weights", "a"),
    ("values", ADAM_SLICE + 3, "weights", "b"),
    ("moments", (0, ADAM_SLICE + 2), "Adam moments", "a"),
    ("moments", (1, 2 * ADAM_SLICE + 1), "Adam moments", "b"),
    ("moments", (1, -1), "Adam moments", "c"),
])
def test_checkpoint_with_a_non_finite_value_is_refused(tmp_path, buffer, at,
                                                       part, name):
    """A NaN or Inf under a matching checksum, in any slice of the scan,
    names the buffer and the parameter that holds it."""
    layout = [("a", (ADAM_SLICE + 3,)), ("b", (7, ADAM_SLICE // 7 + 11)),
              ("c", (5,))]
    store = ParamStore(layout, dtype=np.float32)
    store.moments = np.zeros((2, store.values.size), np.float32)
    for value in (np.nan, -np.inf):
        getattr(store, buffer)[at] = value
        save_params(store, tmp_path / "ckpt.bin")
        with pytest.raises(CheckpointError,
                           match=f"^checkpoint {part} of parameter '{name}' "
                                 "hold NaN or Inf$"):
            load_params(tmp_path / "ckpt.bin")


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
    from rulegen.config import RunConfig
    from rulegen.grammar import induce_grammar
    from rulegen.data import synth_corpus
    from rulegen.model import Model, grammar_hash

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
    # the payload CRC does not cover the header, so its vocabularies are
    # checked: each must be a list of strings
    good = {"config": json.loads(RunConfig().to_json()),
            "config_hash": RunConfig().hash(),
            "grammar_hash": grammar_hash(grammar),
            "token_vocab": ["<pad>", "<unk>"], "terminal_vocab": [],
            "slot_name_vocab": []}
    for key, value in [("token_vocab", 5), ("terminal_vocab", 5),
                       ("slot_name_vocab", [[1]])]:
        save_params(make_store(dtype=np.float32), path,
                    extras=dict(good, **{key: value}))
        with pytest.raises(CheckpointError, match=key):
            Model.load(path, grammar)
