"""Bit-exact binary checkpoints.

Layout (all little-endian): magic ``LNTC``, version u32, tensor count u32;
then per tensor: name length u16, UTF-8 name, rank u8, each dim u32, and
the values as raw 32-bit IEEE-754 floats in row-major order.  Tensors are
written in sorted name order so identical contents give identical bytes.
Every value is finite: ``save_model`` refuses to write, and ``load_arrays``
to read, a tensor that holds NaN or infinity.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, fields

import numpy as np

from .model import ModelConfig, ModelParams, Tensor, split_views, zero_params

MAGIC = b"LNTC"
VERSION = 1


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype="<f4")  # tobytes writes it in C order
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise ValueError(f"tensor rank too large: {arr.ndim}")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_arrays(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()

    def chomp(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise ValueError(f"truncated checkpoint: {path}")
        piece = blob[off : off + n]
        off += n
        return piece

    off = 0
    if chomp(4) != MAGIC:
        raise ValueError(f"not a checkpoint file (bad magic): {path}")
    version, count = struct.unpack("<II", chomp(8))
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}: {path}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", chomp(2))
        try:
            name = chomp(name_len).decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(f"checkpoint tensor name at byte {off - name_len + err.start} "
                             f"is not UTF-8: {path}") from None
        # sorted and unique as save_arrays writes them, so saving reproduces the file
        if arrays and name <= (previous := next(reversed(arrays))):
            raise ValueError(f"checkpoint tensor {name!r} follows {previous!r}: {path}")
        (rank,) = struct.unpack("<B", chomp(1))
        try:  # numpy's rank limit: 32 before numpy 2, 64 since
            np.empty((0,) * rank)
        except ValueError:
            raise ValueError(f"checkpoint tensor {name!r} has rank {rank}, more than numpy "
                             f"supports: {path}") from None
        shape = struct.unpack(f"<{rank}I", chomp(4 * rank))
        values = np.frombuffer(chomp(4 * math.prod(shape)), dtype="<f4")
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"checkpoint tensor {name!r} holds {bad[0]}: {path}")
        arrays[name] = values.reshape(shape).copy()
    if off != len(blob):
        raise ValueError(f"trailing bytes in checkpoint: {path}")
    return arrays


# ---------------------------------------------------------------------------
# model round-trip

# every ModelConfig field is a ``config.<name>`` entry, of rank 1 for a
# tuple and 0 otherwise; all but these size tensors or count them
_CONFIG_UNSIZED = ("sub_seq", "strides")


def model_to_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """Parameter and config arrays by checkpoint name; a config entry that
    float32 cannot hold exactly is an error, not a silent rounding."""
    out = split_views(params)
    for name, value in asdict(params.config).items():
        with np.errstate(over="ignore"):
            out[f"config.{name}"] = stored = np.asarray(value, dtype=np.float32)
        if stored.tolist() != (list(value) if isinstance(value, tuple) else value):
            raise ValueError(f"config entry 'config.{name}' = {value} "
                             f"cannot be stored exactly as float32")
    return out


def _config_ints(arrays: dict[str, np.ndarray], name: str, rank: int, limit: int) -> list[int]:
    """The non-negative integers stored in ``config.<name>``, of the given
    rank; in an entry that sizes tensors, neither they nor their count may
    exceed ``limit``."""
    key = f"config.{name}"
    if key not in arrays:
        raise ValueError(f"checkpoint lacks config entry {key!r}")
    if arrays[key].ndim != rank:
        raise ValueError(f"checkpoint config entry {key!r} has shape {arrays[key].shape}")
    values = arrays[key].reshape(-1).tolist()
    for v in values:
        if not (math.isfinite(v) and v >= 0 and v == int(v)):
            raise ValueError(f"checkpoint config entry {key!r} holds {v!r}, not an integer >= 0")
    size = int(max([len(values), *values]))
    if name not in _CONFIG_UNSIZED and size > limit:
        raise ValueError(f"checkpoint config entry {key!r} asks for size {size}, more than "
                         f"the file's largest tensor dimension or tensor count ({limit})")
    return [int(v) for v in values]


def model_from_arrays(arrays: dict[str, np.ndarray]) -> tuple[ModelParams, dict[str, np.ndarray]]:
    """Rebuild a model; returns (params, leftover ``norm.*`` arrays).

    Config entries must be integers (flags 0 or 1), sizes within the
    file's; a tensor the config does not call for, other than ``norm.*``,
    is an error.
    """
    # zero_params allocates at the sizes the config gives, so bound them by
    # the file first: a width is some tensor's dimension, and a count cannot
    # exceed the number of tensors
    stored = [a for n, a in arrays.items() if not n.startswith("config.")]
    limit = max([len(stored), *(d for a in stored for d in a.shape)])
    kwargs = {}
    for f in fields(ModelConfig):
        is_tuple = isinstance(f.default, tuple)
        values = _config_ints(arrays, f.name, int(is_tuple), limit)
        if isinstance(f.default, bool) and values[0] > 1:
            raise ValueError(f"checkpoint config entry 'config.{f.name}' must be 0 or 1, "
                             f"got {values[0]}")
        kwargs[f.name] = tuple(values) if is_tuple else type(f.default)(values[0])
    cfg = ModelConfig(**kwargs)

    # the config's zero stacks give every tensor's name and shape; the
    # checkpoint's values then fill them
    params = zero_params(cfg, decoder="decoder.layer0.weight" in arrays)
    used = {f"config.{name}" for name in kwargs}
    for name, target in split_views(params).items():
        if name not in arrays:
            raise ValueError(f"checkpoint lacks tensor {name!r}")
        found = arrays[name].shape
        if found != target.shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {found}, expected {target.shape}"
            )
        target[...] = Tensor(arrays[name]).data
        used.add(name)
    leftover = {k: v for k, v in arrays.items() if k not in used}
    unknown = sorted(k for k in leftover if not k.startswith("norm."))
    if unknown:
        raise ValueError(f"checkpoint holds tensors its config does not use: {unknown}")
    return params, leftover


def save_model(path, params: ModelParams, extra: dict[str, np.ndarray] | None = None) -> None:
    """Write a checkpoint; a non-finite tensor is an error and writes nothing."""
    arrays = model_to_arrays(params)
    if extra:
        unknown = sorted(k for k in extra if not k.startswith("norm."))
        if unknown:
            raise ValueError(f"extra arrays must be named norm.*, got {unknown}")
        arrays.update(extra)
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"tensor {name!r} holds non-finite values; not saving {path}")
    save_arrays(path, arrays)


def load_model(path) -> tuple[ModelParams, dict[str, np.ndarray]]:
    """``model_from_arrays`` of a file; every error names the file."""
    arrays = load_arrays(path)
    try:
        return model_from_arrays(arrays)
    except ValueError as err:
        raise ValueError(f"{err}: {path}") from None
