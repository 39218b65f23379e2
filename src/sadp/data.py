"""Dataset ingestion, spike encoding, synthetic generation, and persistence."""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

Array = np.ndarray

SPKT_MAGIC = b"SPKT"
SPKT_VERSION = 1


class FormatError(ValueError):
    """Malformed file header or payload."""


class RangeError(ValueError):
    pass


@dataclass
class DatasetHandle:
    """In-memory dataset: data is (N, T, ...) with one integer label each.

    Binary spike data (an SPKT file, rate encoding, the synthetic generator)
    is held once as uint8 0/1, one byte per spike; directly encoded images
    are a read-only float64 view with stride 0 over T, each image held once.
    Each batch is cast to the engine's dtype as it runs (`snn.forward`)."""

    data: Array
    labels: Array
    time_steps: int

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def input_shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape[2:])


@dataclass
class MetricsRow:
    epoch: int
    ratio: float
    processed: int
    train_loss: float
    test_acc: float
    wall_s: float
    gamma: float
    solver_iters: int

    def format(self) -> str:
        return (f"{self.epoch},{self.ratio:.10g},{self.processed},"
                f"{self.train_loss:.10g},{self.test_acc:.10g},{self.wall_s:.6f},"
                f"{self.gamma:.10g},{self.solver_iters}")


METRICS_HEADER = ",".join(f.name for f in fields(MetricsRow))


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write via a temp file in the same directory, then rename.  The file
    gets the mode a plain write would give it, 0o666 less the umask, not the
    temp file's 0o600."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_metrics(rows: Iterable[MetricsRow], path: str) -> None:
    text = METRICS_HEADER + "\n" + "".join(r.format() + "\n" for r in rows)
    atomic_write_bytes(path, text.encode())


def load_idx(images_path: str, labels_path: str) -> tuple[Array, Array]:
    """Parse a big-endian u8 IDX image file of rank >= 2 (N, ...), such as
    0x00000803, and its rank-1 label file (0x00000801): the images as float64
    in [0, 1] and one int64 label per image.
    """
    images = _read_idx_array(images_path)
    if images.ndim < 2:
        raise FormatError(f"IDX image file needs rank >= 2 (N, ...), "
                          f"got rank {images.ndim}")
    labels = _read_idx_array(labels_path)
    if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
        raise FormatError("label file does not match image count")
    return np.divide(images, 255.0, dtype=np.float64), labels.astype(np.int64)


def _read_idx_array(path: str) -> Array:
    with open(path, "rb") as fh:
        header = fh.read(4)
        if len(header) != 4 or header[0] != 0 or header[1] != 0:
            raise FormatError("bad IDX magic")
        dtype_code, rank = header[2], header[3]
        if dtype_code != 0x08:
            raise FormatError(f"unsupported IDX dtype byte 0x{dtype_code:02x}")
        dims_raw = fh.read(4 * rank)
        if len(dims_raw) != 4 * rank:
            raise FormatError("truncated IDX dimension block")
        dims = struct.unpack(f">{rank}I", dims_raw)
        payload = fh.read()
    expected = math.prod(dims)  # exact: a product of u32 dims may pass 2**63
    if len(payload) < expected:
        raise FormatError(f"payload length {len(payload)} != declared {expected}")
    if len(payload) > expected:
        raise FormatError(f"{len(payload) - expected} trailing byte(s) after "
                          "the IDX payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def encode(values: Array, mode: str, time_steps: int,
           seed: int | np.random.SeedSequence = 0) -> Array:
    """Turn analog values in [0, 1], (N, ...), into (N, T, ...) sequences.

    direct: the same current at every step: a read-only float64 view with
            stride 0 over T, which holds each value once.
    rate:   each step is an independent Bernoulli(value) spike, seeded
            (uint8 0/1).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise RangeError("input values must lie in [0, 1]")  # so NaN fails too
    shape = (values.shape[0], time_steps) + values.shape[1:]
    if mode == "direct":
        return np.broadcast_to(values[:, None], shape)
    if mode == "rate":
        rng = np.random.default_rng(seed)
        spikes = np.empty(shape, dtype=np.uint8)
        for start in range(0, shape[0], FLIP_BLOCK):
            block = values[start:start + FLIP_BLOCK, None]
            spikes[start:start + FLIP_BLOCK] = \
                rng.random((block.shape[0],) + shape[1:]) < block
        return spikes
    raise ValueError(f"unknown encoding mode {mode!r}")


# Examples per float64 draw in encode's rate mode and gen_synthetic's bit
# flips, which bounds that transient; Generator.random fills in C order, so
# the bits match one draw.
FLIP_BLOCK = 256


def gen_synthetic(classes: int, n: int, time_steps: int, dim: int, noise: float,
                  seed: int | np.random.SeedSequence = 0) -> DatasetHandle:
    """Random binary prototype patterns with independent bit flips.

    Each class gets a (T, dim) Bernoulli(0.5) prototype, drawn first; every
    example copies its class prototype with each bit flipped with probability
    `noise`.  The data is uint8 0/1.
    """
    if classes < 2 or n < classes:
        raise ValueError("need at least 2 classes and n >= classes")
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise must lie in [0, 1], got {noise}")
    rng = np.random.default_rng(seed)
    protos = (rng.random((classes, time_steps, dim)) < 0.5).view(np.uint8)
    labels = np.arange(n, dtype=np.int64) % classes
    data = protos[labels]
    for start in range(0, n, FLIP_BLOCK):
        block = data[start:start + FLIP_BLOCK]
        block ^= rng.random(block.shape) < noise
    return DatasetHandle(data=data, labels=labels, time_steps=time_steps)


def gen_synthetic_split(classes: int, n_train: int, n_test: int, time_steps: int,
                        dim: int, noise: float, seed: int | np.random.SeedSequence = 0
                        ) -> tuple[DatasetHandle, DatasetHandle]:
    """Train/test pair drawn from one shared set of prototypes."""
    full = gen_synthetic(classes, n_train + n_test, time_steps, dim, noise, seed)
    train = DatasetHandle(full.data[:n_train], full.labels[:n_train],
                          time_steps=time_steps)
    test = DatasetHandle(full.data[n_train:], full.labels[n_train:],
                         time_steps=time_steps)
    return train, test


def write_spike_file(handle: DatasetHandle, path: str) -> None:
    """Serialize a binary spike dataset to the SPKT container.  Its labels
    are stored as u32, so each must be an integer in [0, 2**32)."""
    data = np.asarray(handle.data)
    if not np.all((data == 0.0) | (data == 1.0)):
        raise ValueError("SPKT stores binary spike data only")
    labels = np.asarray(handle.labels)
    fits_u32 = (labels >= 0) & (labels < 2**32) & (labels == np.trunc(labels))
    if not fits_u32.all():
        raise ValueError(f"SPKT label {labels[~fits_u32][0]} is not an integer "
                         "in [0, 2**32)")
    dims = data.shape
    head = SPKT_MAGIC + struct.pack("<HBB", SPKT_VERSION, 0, len(dims))
    head += struct.pack(f"<{len(dims)}Q", *dims)
    payload = data.astype(np.uint8, copy=False).tobytes(order="C")
    atomic_write_bytes(path, head + payload + labels.astype("<u4").tobytes())


def read_spike_file(path: str) -> DatasetHandle:
    """Parse an SPKT file.  Its spikes come back as a read-only uint8 view of
    the file's bytes, with no copy."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != SPKT_MAGIC:
        raise FormatError("bad SPKT magic")
    if len(raw) < 8:
        raise FormatError("truncated SPKT header")
    version, dtype_code, rank = struct.unpack_from("<HBB", raw, 4)
    if version != SPKT_VERSION:
        raise FormatError(f"unsupported SPKT version {version}")
    if dtype_code != 0:
        raise FormatError(f"unsupported SPKT dtype {dtype_code}")
    if rank < 2:
        raise FormatError(f"SPKT data needs rank >= 2 (N, T, ...), got rank {rank}")
    off = 8
    if len(raw) < off + 8 * rank:
        raise FormatError("truncated SPKT dimension block")
    dims = struct.unpack_from(f"<{rank}Q", raw, off)
    if dims[1] < 1:
        raise FormatError("SPKT data needs T >= 1 time steps, got 0")
    off += 8 * rank
    count = math.prod(dims)  # exact: a product of u64 dims may pass 2**63
    if len(raw) < off + count:
        raise FormatError("truncated SPKT payload")
    payload = np.frombuffer(raw, dtype=np.uint8, count=count, offset=off)
    if payload.size and payload.max() > 1:
        raise FormatError("SPKT payload bytes must be 0 or 1")
    off += count
    n = dims[0]
    if len(raw) < off + 4 * n:
        raise FormatError("truncated SPKT label block")
    if len(raw) > off + 4 * n:
        raise FormatError(f"{len(raw) - off - 4 * n} trailing byte(s) after the "
                          "SPKT label block")
    labels = np.frombuffer(raw, dtype="<u4", count=n, offset=off).astype(np.int64)
    return DatasetHandle(data=payload.reshape(dims), labels=labels,
                         time_steps=dims[1])
