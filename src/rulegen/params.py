"""Named parameter store, Adam updates, and the checkpoint format.

Checkpoint layout: a single JSON header line (format version, parameter
manifest, precision, optimizer flag, CRC-32 of the payload, plus caller
extras such as vocab and config hash), then the payload: raw
little-endian float32 values in manifest order, then, when the optimizer
flag is set, the Adam moments in the same order. The payload is written
from and read into the arrays themselves, one array at a time.
"""
from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np

from .autodiff import ShapeError, Tensor

CHECKPOINT_VERSION = 2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(ValueError):
    """Unreadable, truncated, corrupted, or incompatible checkpoint file."""


class ParamStore:
    """Parameters by name. The Adam moments (``moments_m``/``moments_v``)
    are None until the first :func:`adam_step`, or until a checkpoint that
    carries them is loaded; from then on every parameter has both."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self.moments_m: dict[str, np.ndarray] | None = None
        self.moments_v: dict[str, np.ndarray] | None = None
        self.step = 0

    def add(self, name: str, array: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(array, dtype=self.dtype), requires_grad=True)
        self.params[name] = t
        if self.moments_m is not None:
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
    zero gradient (their moments decay as usual). Every gradient's shape
    is checked before anything changes; the first step allocates the
    moments.
    """
    for name, p in store.params.items():
        if p.grad is not None and p.grad.shape != p.data.shape:
            raise ShapeError(
                f"gradient shape {p.grad.shape} for {name} {p.data.shape}")
    if store.moments_m is None:
        store.moments_m = {n: np.zeros_like(p.data)
                           for n, p in store.params.items()}
        store.moments_v = {n: np.zeros_like(p.data)
                           for n, p in store.params.items()}
    store.step += 1
    t = store.step
    for name, p in store.params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        m = store.moments_m[name]
        v = store.moments_v[name]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.data.dtype)


def _payload(store: ParamStore):
    """The payload arrays in write order, flat little-endian float32; no
    copy is made for a float32 store."""
    arrays = [t.data for t in store.params.values()]
    if store.moments_m is not None:
        arrays += [store.moments_m[n] for n in store.params]
        arrays += [store.moments_v[n] for n in store.params]
    for a in arrays:
        yield np.ascontiguousarray(a, dtype="<f4").reshape(-1)


def save_params(store: ParamStore, path, extras=None):
    manifest = [{"name": n, "shape": list(store.params[n].shape)}
                for n in store.params]
    crc = 0
    for a in _payload(store):
        crc = zlib.crc32(a, crc)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "precision": "float32",
        "params": manifest,
        "optimizer": store.moments_m is not None,
        "adam_step": store.step,
        "payload_crc32": crc,
    }
    if extras:
        header["extras"] = extras
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for a in _payload(store):
            f.write(a)


def _read_header(f) -> dict:
    line = f.readline()
    if not line.endswith(b"\n"):
        raise CheckpointError("missing checkpoint header")
    try:
        header = json.loads(line.decode("utf-8"))
    except RecursionError:
        raise CheckpointError("checkpoint header is nested too deeply") from None
    except ValueError as e:  # also bad UTF-8 or an integer too long to convert
        raise CheckpointError(f"unreadable checkpoint header: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('format_version')}")
    entries = header.get("params")
    if not isinstance(entries, list):
        raise CheckpointError("checkpoint header has no 'params' list")
    names = set()
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(isinstance(n, int) and n >= 0
                        for n in entry["shape"])):
            raise CheckpointError(f"checkpoint header params[{i}] needs a "
                                  "string 'name' and a list of sizes 'shape'")
        if entry["name"] in names:
            raise CheckpointError(
                f"checkpoint header repeats parameter {entry['name']!r}")
        names.add(entry["name"])
    if not isinstance(header.get("adam_step", 0), int):
        raise CheckpointError("checkpoint header 'adam_step' is not an integer")
    return header


def load_params(path):
    """Read a checkpoint into a float32 store; returns (store, header).

    The payload size the header implies is checked against the file size
    before any array is allocated, and the payload's CRC-32 against the
    header's after it is read."""
    with open(path, "rb") as f:
        header = _read_header(f)
        names = [e["name"] for e in header["params"]]
        shapes = [tuple(e["shape"]) for e in header["params"]]
        copies = 3 if header.get("optimizer") else 1
        want = 4 * copies * sum(math.prod(s) for s in shapes)
        have = os.fstat(f.fileno()).st_size - f.tell()
        if have < want:
            raise CheckpointError(f"truncated checkpoint payload: the header "
                                  f"needs {want} bytes, the file has {have}")
        if have > want:
            raise CheckpointError("trailing bytes after checkpoint payload")
        crc = 0

        def take(shape):
            nonlocal crc
            arr = np.empty(math.prod(shape), dtype="<f4")
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointError("truncated checkpoint payload")
            crc = zlib.crc32(arr, crc)
            return arr.reshape(shape)

        store = ParamStore()
        for name, shape in zip(names, shapes):
            store.add(name, take(shape))
        if copies == 3:
            store.moments_m = {n: take(s) for n, s in zip(names, shapes)}
            store.moments_v = {n: take(s) for n, s in zip(names, shapes)}
            store.step = header.get("adam_step", 0)
    if header.get("payload_crc32") != crc:
        raise CheckpointError(
            f"payload checksum {crc} does not match the header's "
            f"{header.get('payload_crc32')!r}: the file is corrupted")
    return store, header
