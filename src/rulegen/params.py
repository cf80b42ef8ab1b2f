"""Named parameter store, Adam updates, and the checkpoint format.

Checkpoint layout: a single JSON header line (format version, parameter
manifest, precision, optimizer flag, CRC-32 of the payload, plus caller
extras such as vocab and config hash), then the payload: raw
little-endian float32 values in manifest order, then, when the optimizer
flag is set, the Adam first moments and second moments in the same
order. The payload is the store's flat buffers, written from and read
into them directly.
"""
from __future__ import annotations

import json
import math
import os
import zlib

import numpy as np

from .autodiff import Tensor

CHECKPOINT_VERSION = 2
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per slice of a pass over the flat buffers: the temporaries of an
# Adam update and of the load-time finiteness scan stay this size
ADAM_SLICE = 1 << 16


class CheckpointError(ValueError):
    """Unreadable, truncated, corrupted, or incompatible checkpoint file."""


class ParamStore:
    """Parameters by name, as views into flat buffers.

    ``values`` holds the weights and ``grads`` the gradients; each
    parameter's ``data`` and ``grad`` are reshaped views into them, laid
    out in the order of the ``(name, shape)`` layout. ``moments`` is the
    ``(2, size)`` Adam first and second moments, None until the first
    :func:`adam_step` or until a checkpoint that carries them is loaded.
    """

    def __init__(self, layout, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        sizes = [math.prod(shape) for _, shape in layout]
        # zeroed pages are mapped on first write, so a store that never
        # trains never pays for its gradients
        self.values = np.zeros(sum(sizes), self.dtype)
        self.grads = np.zeros(sum(sizes), self.dtype)
        self.moments: np.ndarray | None = None
        self.step = 0
        self.params: dict[str, Tensor] = {}
        offset = 0
        for (name, shape), size in zip(layout, sizes):
            span = slice(offset, offset + size)
            t = Tensor(self.values[span].reshape(shape))
            t.grad = self.grads[span].reshape(shape)
            self.params[name] = t
            offset += size

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self):
        return list(self.params)

    def zero_grad(self):
        self.grads.fill(0)


def xavier_uniform(rng, shape) -> np.ndarray:
    """Glorot-uniform draws; the limit is symmetric in the two fans."""
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def embedding_init(rng, shape) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, size=shape)


def zeros_init(rng, shape) -> np.ndarray:
    return np.zeros(shape)


def adam_step(store: ParamStore, lr=1e-3):
    """One bias-corrected Adam update over every parameter; the first step
    allocates the moments. It runs over fixed slices of the flat buffers,
    so its temporaries do not grow with the model."""
    if store.moments is None:
        store.moments = np.zeros((2, store.values.size), store.dtype)
    store.step += 1
    t = store.step
    for lo in range(0, store.values.size, ADAM_SLICE):
        span = slice(lo, lo + ADAM_SLICE)
        w, g = store.values[span], store.grads[span]
        m, v = store.moments[0, span], store.moments[1, span]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        w -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(w.dtype)


def _payload(store: ParamStore) -> list:
    """The payload buffers in write order as little-endian float32; no
    copy is made for a float32 store."""
    buffers = [store.values]
    if store.moments is not None:
        buffers.append(store.moments)
    return [np.ascontiguousarray(b, dtype="<f4") for b in buffers]


def save_params(store: ParamStore, path, extras=None):
    manifest = [{"name": n, "shape": list(t.shape)}
                for n, t in store.params.items()]
    payload = _payload(store)
    crc = 0
    for b in payload:
        crc = zlib.crc32(b, crc)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "precision": "float32",
        "params": manifest,
        "optimizer": store.moments is not None,
        "adam_step": store.step,
        "payload_crc32": crc,
    }
    if extras:
        header["extras"] = extras
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for b in payload:
            f.write(b)


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
    before any buffer is allocated, and the payload's CRC-32 against the
    header's after it is read; then every value must be finite."""
    with open(path, "rb") as f:
        header = _read_header(f)
        layout = [(e["name"], tuple(e["shape"])) for e in header["params"]]
        size = sum(math.prod(shape) for _, shape in layout)
        copies = 3 if header.get("optimizer") else 1
        want = 4 * copies * size
        have = os.fstat(f.fileno()).st_size - f.tell()
        if have < want:
            raise CheckpointError(f"truncated checkpoint payload: the header "
                                  f"needs {want} bytes, the file has {have}")
        if have > want:
            raise CheckpointError("trailing bytes after checkpoint payload")
        store = ParamStore(layout, dtype="<f4")
        if copies == 3:
            store.moments = np.empty((2, size), dtype=store.dtype)
            store.step = header.get("adam_step", 0)
        crc = 0
        for b in _payload(store):   # a float32 store's own buffers
            if f.readinto(b) != b.nbytes:
                raise CheckpointError("truncated checkpoint payload")
            crc = zlib.crc32(b, crc)
    if header.get("payload_crc32") != crc:
        raise CheckpointError(
            f"payload checksum {crc} does not match the header's "
            f"{header.get('payload_crc32')!r}: the file is corrupted")
    for part, buf in (("weights", store.values),
                      ("Adam moments", store.moments)):
        if buf is not None:
            _check_finite_payload(buf.reshape(-1), part, layout)
    return store, header


def _check_finite_payload(flat, part, layout):
    """Raise CheckpointError naming the parameter of the first NaN or Inf
    in ``flat``, which repeats the layout's values one or more times."""
    for lo in range(0, flat.size, ADAM_SLICE):
        finite = np.isfinite(flat[lo:lo + ADAM_SLICE])
        if np.logical_and.reduce(finite, axis=None):
            continue
        ends = np.cumsum([math.prod(shape) for _, shape in layout])
        at = (lo + int(np.argmin(finite))) % int(ends[-1])
        name = layout[int(np.searchsorted(ends, at, side="right"))][0]
        raise CheckpointError(f"checkpoint {part} of parameter {name!r} "
                              "hold NaN or Inf")
