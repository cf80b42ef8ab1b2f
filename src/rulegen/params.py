"""Named parameter store, Adam updates, and the checkpoint format.

Checkpoint layout: a single JSON header line (format version, parameter
manifest, precision, optimizer flag, plus caller extras such as vocab
and config hash), then raw little-endian float32 values in manifest
order, then the Adam moments in the same order (absent, and loaded as
zeros, when the header's optimizer flag is false).
"""
from __future__ import annotations

import json

import numpy as np

from .autodiff import ShapeError, Tensor

CHECKPOINT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(ValueError):
    """Unreadable, truncated, or incompatible checkpoint file."""


class ParamStore:
    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self.moments_m: dict[str, np.ndarray] = {}
        self.moments_v: dict[str, np.ndarray] = {}
        self.step = 0

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(array, dtype=self.dtype), requires_grad=True)
        self.params[name] = t
        self.moments_m[name] = np.zeros_like(t.data)
        self.moments_v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self):
        return list(self.params)

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def clone_values(self) -> dict[str, np.ndarray]:
        return {k: t.data.copy() for k, t in self.params.items()}


def xavier_uniform(rng, shape) -> np.ndarray:
    """Glorot-uniform draws; the limit is symmetric in the two fans."""
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def embedding_init(rng, shape) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, size=shape)


def zeros_init(rng, shape) -> np.ndarray:
    return np.zeros(shape)


def adam_step(store: ParamStore, lr=1e-3):
    """One bias-corrected Adam update over every parameter.

    Parameters without an accumulated gradient are treated as having a
    zero gradient (their moments decay as usual).
    """
    store.step += 1
    t = store.step
    for name, p in store.params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} for {name} {p.data.shape}")
        m = store.moments_m[name]
        v = store.moments_v[name]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.data.dtype)


def save_params(store: ParamStore, path, extras=None):
    manifest = [{"name": n, "shape": list(store.params[n].shape)}
                for n in store.params]
    header = {
        "format_version": CHECKPOINT_VERSION,
        "precision": "float32",
        "params": manifest,
        "optimizer": True,
        "adam_step": store.step,
    }
    if extras:
        header["extras"] = extras
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    chunks = [blob]
    for n in store.params:
        chunks.append(store.params[n].data.astype("<f4").tobytes())
    for moments in (store.moments_m, store.moments_v):
        for n in store.params:
            chunks.append(moments[n].astype("<f4").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(chunks))


def load_params(path):
    """Read a checkpoint into a float32 store; returns (store, header)."""
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise CheckpointError("missing checkpoint header")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"unreadable checkpoint header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('format_version')}")
    store = ParamStore()
    body = raw[nl + 1:]
    pos = 0

    def take(shape):
        nonlocal pos
        count = int(np.prod(shape)) if shape else 1
        nbytes = 4 * count
        if pos + nbytes > len(body):
            raise CheckpointError("truncated checkpoint payload")
        arr = np.frombuffer(body[pos:pos + nbytes], dtype="<f4").reshape(shape)
        pos += nbytes
        return arr

    entries = header.get("params")
    if not isinstance(entries, list):
        raise CheckpointError("checkpoint header has no 'params' list")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(isinstance(n, int) and n >= 0
                        for n in entry["shape"])):
            raise CheckpointError(f"checkpoint header params[{i}] needs a "
                                  "string 'name' and a list of sizes 'shape'")
        if entry["name"] in store:
            raise CheckpointError(
                f"checkpoint header repeats parameter {entry['name']!r}")
        store.add(entry["name"], take(tuple(entry["shape"])))
    if header.get("optimizer"):
        for entry in entries:
            store.moments_m[entry["name"]] = take(tuple(entry["shape"])).astype(store.dtype)
        for entry in entries:
            store.moments_v[entry["name"]] = take(tuple(entry["shape"])).astype(store.dtype)
        store.step = int(header.get("adam_step", 0))
    if pos != len(body):
        raise CheckpointError("trailing bytes after checkpoint payload")
    return store, header
