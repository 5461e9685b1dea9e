"""Versioned binary on-disk formats for datasets and checkpoints.

Both formats are little-endian with 64-bit floats so that round trips are
bit-exact and gradient checks survive a save/load cycle. Files are written
atomically (temp file + rename) and every read error is a recoverable
:class:`FormatError` naming the byte offset, never a crash.

Dataset file (magic ``FMCD``, version 1)::

    magic[4] version:u32 m:u32 n_datasets:u32 delta_f:f64
    snr_db:f64 pilot_len:u32 noise_mode:u8 has_clean:u8
    then per dataset:
        env_id:i64 role:u8 n_pairs:u32
        then per pair: f_up:f64 user_index:u32 x[2m]:f64 y[2m]:f64
                       (y_clean[2m]:f64 when has_clean)

The header's ``has_clean`` byte (byte 37) means "clean-label block
stored". The writer sets it to 0 exactly when the noise mode is ``clean``:
such a label already is the clean downlink, so it is stored once, and the
writer refuses a clean-mode dataset whose ``y_clean`` differs from its
labels. Reading a clean file without the block, the reader sets each
dataset's ``y_clean`` to its label array itself; a clean file that stores
the block (as older writers did) reads back as stored. A file of another
noise mode without the block has no clean labels and is malformed.

A dataset's pairs are one packed record array (numpy structured dtype with
exactly these fields), written with one ``tobytes`` and read with one
``frombuffer``.

Checkpoint file (magic ``FMCK``, version 1)::

    magic[4] version:u32 provenance:u8 derivative_order:u32
    n_layers:u32 sizes[n_layers+1]:u32 activations[n_layers]:u8
    config_digest[32]
    then per layer: weights row-major f64, then bias f64

A JSON sidecar (same basename + ``.meta.json``) duplicates the header for
human inspection; the binary header is authoritative.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .channel import NOISE_CLEAN, NOISE_MODES, ROLES, NoiseSpec, TaskDataset
from .net import LayerSpec, NetParams, LINEAR, RELU
from .transfer import (
    PROVENANCE_ADAPTED,
    PROVENANCE_META,
    PROVENANCE_NO_TRANSFER,
    TrainedModel,
)

DATASET_MAGIC = b"FMCD"
CHECKPOINT_MAGIC = b"FMCK"
FORMAT_VERSION = 1

_PROVENANCES = (PROVENANCE_NO_TRANSFER, PROVENANCE_META, PROVENANCE_ADAPTED)
_ACTIVATIONS = (RELU, LINEAR)


class FormatError(Exception):
    """A file does not conform to its declared format."""


@dataclass
class DatasetFile:
    """Decoded dataset file: header fields plus the datasets themselves."""

    datasets: list[TaskDataset]
    m: int
    delta_f: float
    noise: NoiseSpec


def _atomic_write(path: str, payload: bytes):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sidecar_path(path: str) -> str:
    return path + ".meta.json"


def _write_sidecar(path: str, meta: dict):
    _atomic_write(_sidecar_path(path), json.dumps(meta, indent=2, sort_keys=True).encode())


class _Reader:
    """Cursor over a byte string that raises FormatError with offsets."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise FormatError(
                f"{self.path}: truncated at byte {self.pos}: expected {size} more "
                f"bytes, file has {len(self.data) - self.pos}")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out

    def take_records(self, dtype, count: int) -> np.ndarray:
        """``count`` items of ``dtype`` as a read-only view of the data."""
        size = np.dtype(dtype).itemsize * count
        if self.pos + size > len(self.data):
            raise FormatError(
                f"{self.path}: truncated at byte {self.pos}: expected {size} more "
                f"bytes, file has {len(self.data) - self.pos}")
        out = np.frombuffer(self.data, dtype=dtype, count=count, offset=self.pos)
        self.pos += size
        return out

    def take_floats(self, count: int) -> np.ndarray:
        return self.take_records("<f8", count).copy()

    def expect_end(self):
        if self.pos != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.pos} trailing bytes "
                              f"after offset {self.pos}")


def _check_magic_version(r: _Reader, magic: bytes, kind: str):
    got = bytes(r.take("<4s")[0])
    if got != magic:
        raise FormatError(f"{r.path}: bad magic {got!r} at byte 0, expected {magic!r} "
                          f"({kind} file)")
    (version,) = r.take("<I")
    if version != FORMAT_VERSION:
        raise FormatError(f"{r.path}: unsupported {kind} format version {version}, "
                          f"this build reads version {FORMAT_VERSION}")


# Largest antenna count a dataset file may declare: a pair record of 2**20
# antennas takes 48 MiB, and numpy's record sizes overflow a C int from
# 2**26 antennas on.
_MAX_ANTENNAS = 2 ** 20


def _pair_dtype(m: int, has_clean: bool) -> np.dtype:
    """One pair record of a dataset file, packed as the format lays it out."""
    fields = [("f_up", "<f8"), ("user_index", "<u4"), ("x", "<f8", (2 * m,)),
              ("y", "<f8", (2 * m,))]
    if has_clean:
        fields.append(("y_clean", "<f8", (2 * m,)))
    return np.dtype(fields)


def write_dataset(path: str, datasets: list[TaskDataset], noise: NoiseSpec, delta_f: float):
    """Serialise task datasets of one generation run at spacing ``delta_f``.

    Each dataset's pairs are packed into one record array and written as
    one block of bytes.
    """
    if not datasets:
        raise ValueError("need at least one dataset to write")
    m = datasets[0].xs.shape[1] // 2
    for d in datasets:
        if d.xs.shape[1] != 2 * m:
            raise ValueError("all pairs must share the antenna count")
        if len(d) and not (0 <= d.user_index.min() and d.user_index.max() < 2 ** 32):
            raise ValueError("user indices must fit an unsigned 32-bit field")
        if (noise.mode == NOISE_CLEAN and d.y_clean is not d.ys
                and not np.array_equal(d.y_clean, d.ys)):
            raise ValueError(f"environment {d.env_id} ({d.role}): clean labels differ "
                             f"from the labels, which a clean file stores once")

    has_clean = noise.mode != NOISE_CLEAN
    dtype = _pair_dtype(m, has_clean)
    chunks = [struct.pack("<4sIIIddIBB", DATASET_MAGIC, FORMAT_VERSION, m,
                          len(datasets), float(delta_f), float(noise.snr_db),
                          int(noise.pilot_len), NOISE_MODES.index(noise.mode),
                          1 if has_clean else 0)]
    for d in datasets:
        chunks.append(struct.pack("<qBI", int(d.env_id), ROLES.index(d.role), len(d)))
        records = np.empty(len(d), dtype=dtype)
        records["f_up"] = d.f_up
        records["user_index"] = d.user_index
        records["x"] = d.xs
        records["y"] = d.ys
        if has_clean:
            records["y_clean"] = d.y_clean
        chunks.append(records.tobytes())
    _atomic_write(path, b"".join(chunks))
    _write_sidecar(path, {
        "format": "dataset", "magic": DATASET_MAGIC.decode(),
        "version": FORMAT_VERSION, "m": m, "n_datasets": len(datasets),
        "delta_f": float(delta_f), "noise": {"snr_db": float(noise.snr_db),
                                             "pilot_len": int(noise.pilot_len),
                                             "mode": noise.mode},
        "datasets": [{"env_id": int(d.env_id), "role": d.role, "n_pairs": len(d)}
                     for d in datasets],
    })


def read_dataset(path: str) -> DatasetFile:
    """Decode a dataset file, validating magic, version, and counts."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    _check_magic_version(r, DATASET_MAGIC, "dataset")
    m, n_datasets, delta_f, snr_db, pilot_len, mode_code, stored_clean = \
        r.take("<IIddIBB")
    if mode_code >= len(NOISE_MODES):
        raise FormatError(f"{path}: unknown noise mode code {mode_code}")
    if not 1 <= m <= _MAX_ANTENNAS:
        raise FormatError(f"{path}: implausible antenna count {m}")
    if n_datasets == 0:
        raise FormatError(f"{path}: the file declares no datasets")
    try:
        noise = NoiseSpec(snr_db=snr_db, pilot_len=pilot_len, mode=NOISE_MODES[mode_code])
    except ValueError as e:
        raise FormatError(f"{path}: noise header at byte 24: {e}") from None
    if not stored_clean and noise.mode != NOISE_CLEAN:
        raise FormatError(f"{path}: byte 37 is 0, but {noise.mode} files store clean labels")
    dtype = _pair_dtype(m, bool(stored_clean))
    datasets = []
    for _ in range(n_datasets):
        env_id, role_code, n_pairs = r.take("<qBI")
        if role_code >= len(ROLES):
            raise FormatError(f"{path}: unknown role code {role_code} "
                              f"at byte {r.pos - 5}")
        records = r.take_records(dtype, n_pairs)
        ys = records["y"].copy()
        datasets.append(TaskDataset(
            env_id, ROLES[role_code], xs=records["x"].copy(), ys=ys,
            y_clean=records["y_clean"].copy() if stored_clean else ys,
            f_up=records["f_up"].copy(), user_index=records["user_index"].astype(np.int64)))
    r.expect_end()
    return DatasetFile(datasets=datasets, m=m, delta_f=delta_f, noise=noise)


def config_digest(config: dict | None) -> bytes:
    """Canonical digest of a config snapshot (32 bytes)."""
    if config is None:
        return b"\x00" * 32
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).digest()


def write_checkpoint(path: str, model: TrainedModel):
    """Serialise a trained model's parameters and provenance."""
    params = model.params
    spec = params.layer_spec()
    if model.provenance not in _PROVENANCES:
        raise ValueError(f"unknown provenance {model.provenance!r}")
    digest = config_digest(model.config)
    chunks = [struct.pack("<4sIBI", CHECKPOINT_MAGIC, FORMAT_VERSION,
                          _PROVENANCES.index(model.provenance),
                          int(model.derivative_order)),
              struct.pack("<I", spec.n_layers),
              struct.pack(f"<{spec.n_layers + 1}I", *spec.sizes),
              struct.pack(f"<{spec.n_layers}B",
                          *[_ACTIVATIONS.index(a) for a in spec.activations]),
              digest]
    for w, b in zip(params.weights, params.biases):
        chunks.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        chunks.append(np.asarray(b, dtype="<f8").tobytes())
    _atomic_write(path, b"".join(chunks))
    _write_sidecar(path, {
        "format": "checkpoint", "magic": CHECKPOINT_MAGIC.decode(),
        "version": FORMAT_VERSION, "provenance": model.provenance,
        "derivative_order": int(model.derivative_order),
        "sizes": list(spec.sizes), "activations": list(spec.activations),
        "config_digest": digest.hex(), "config": model.config,
    })


def read_checkpoint(path: str) -> TrainedModel:
    """Decode a checkpoint; restores the config snapshot from the sidecar
    when its digest matches the binary header. A missing or unreadable
    sidecar leaves the config ``None``."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    _check_magic_version(r, CHECKPOINT_MAGIC, "checkpoint")
    prov_code, derivative_order = r.take("<BI")
    if prov_code >= len(_PROVENANCES):
        raise FormatError(f"{path}: unknown provenance code {prov_code}")
    (n_layers,) = r.take("<I")
    if n_layers < 1 or n_layers > 10_000:
        raise FormatError(f"{path}: implausible layer count {n_layers}")
    sizes = r.take(f"<{n_layers + 1}I")
    try:
        spec = LayerSpec(sizes=tuple(sizes))
    except ValueError as e:
        raise FormatError(f"{path}: layer widths {list(sizes)}: {e}") from None
    act_codes = r.take(f"<{n_layers}B")
    want = [_ACTIVATIONS.index(a) for a in spec.activations]
    if list(act_codes) != want:
        raise FormatError(f"{path}: activation codes {list(act_codes)} at byte "
                          f"{r.pos - n_layers}, expected {want} (relu hidden, linear output)")
    digest = bytes(r.take("<32s")[0])
    weights, biases = [], []
    for l in range(n_layers):
        n_out, n_in = sizes[l + 1], sizes[l]
        weights.append(r.take_floats(n_out * n_in).reshape(n_out, n_in))
        biases.append(r.take_floats(n_out))
    r.expect_end()

    try:
        with open(_sidecar_path(path), "rb") as f:
            config = json.load(f)["config"]
    except (OSError, ValueError, TypeError, KeyError):  # not JSON, or not an object
        config = None
    if config_digest(config) != digest:
        config = None
    model = TrainedModel(params=NetParams(weights, biases),
                         provenance=_PROVENANCES[prov_code], config=config,
                         loss_history=[], derivative_order=derivative_order)
    return model
