"""Bit-exact binary checkpoints.

Layout (all little-endian): magic ``LNTC``, version u32, tensor count u32;
then per tensor: name length u16, UTF-8 name, rank u8, each dim u32, and
the values as raw 32-bit IEEE-754 floats in row-major order.  Tensors are
written in sorted name order so identical contents give identical bytes.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .model import ModelConfig, ModelParams, Tensor, init_decoder, init_params

MAGIC = b"LNTC"
VERSION = 1


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name in sorted(arrays):
        # note: ascontiguousarray would promote 0-d scalars to shape (1,)
        arr = np.asarray(arrays[name], dtype="<f4")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
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
        raise ValueError(f"unsupported checkpoint version {version}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", chomp(2))
        name = chomp(name_len).decode("utf-8")
        (rank,) = struct.unpack("<B", chomp(1))
        shape = struct.unpack(f"<{rank}I", chomp(4 * rank))
        n = int(np.prod(shape, dtype=np.int64)) if rank else 1
        arrays[name] = np.frombuffer(chomp(4 * n), dtype="<f4").reshape(shape).copy()
    if off != len(blob):
        raise ValueError(f"trailing bytes in checkpoint: {path}")
    return arrays


# ---------------------------------------------------------------------------
# model round-trip

_CONFIG_SCALARS = (
    "in_channels", "dim_z", "dim_c", "K", "L",
    "bank_layers", "bank_width", "conv_bias", "separate_ddcl_heads", "sub_seq",
)
_CONFIG_FLAGS = ("conv_bias", "separate_ddcl_heads")


def _checkpoint_tensors(params: ModelParams) -> dict[str, np.ndarray]:
    """Parameter arrays by checkpoint name.  Bank layer j (L,out,in) is
    stored as L per-transform ``bank.T{l}.layer{j}.weight`` matrices: views
    into the stacked array, so writing them writes the model."""
    out = {n: t.data for n, t in params.named_parameters().items() if not n.startswith("bank.")}
    for j, layer in enumerate(params.bank):
        for l, w in enumerate(layer.data, start=1):
            out[f"bank.T{l}.layer{j}.weight"] = w
    return out


def model_to_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    out = _checkpoint_tensors(params)
    cfg = params.config
    for name in _CONFIG_SCALARS:
        out[f"config.{name}"] = np.asarray(float(getattr(cfg, name)))
    out["config.filters"] = np.asarray(cfg.filters, dtype=float)
    out["config.strides"] = np.asarray(cfg.strides, dtype=float)
    return out


def _config_ints(arrays: dict[str, np.ndarray], name: str, rank: int) -> list[int]:
    """The non-negative integers stored in ``config.<name>``, of the given rank."""
    key = f"config.{name}"
    if key not in arrays:
        raise ValueError(f"checkpoint lacks config entry {key!r}")
    if arrays[key].ndim != rank:
        raise ValueError(f"checkpoint config entry {key!r} has shape {arrays[key].shape}")
    values = arrays[key].reshape(-1).tolist()
    for v in values:
        if not (math.isfinite(v) and v >= 0 and v == int(v)):
            raise ValueError(f"checkpoint config entry {key!r} holds {v!r}, not an integer >= 0")
    return [int(v) for v in values]


def model_from_arrays(arrays: dict[str, np.ndarray]) -> tuple[ModelParams, dict[str, np.ndarray]]:
    """Rebuild a model; returns (params, leftover ``norm.*`` arrays).

    Config entries must be integers (flags 0 or 1); a tensor the config
    does not call for, other than ``norm.*``, is an error.
    """
    kwargs = {name: _config_ints(arrays, name, 0)[0] for name in _CONFIG_SCALARS}
    for name in _CONFIG_FLAGS:
        if kwargs[name] > 1:
            raise ValueError(f"checkpoint config entry 'config.{name}' must be 0 or 1, "
                             f"got {kwargs[name]}")
        kwargs[name] = bool(kwargs[name])
    kwargs["filters"] = tuple(_config_ints(arrays, "filters", 1))
    kwargs["strides"] = tuple(_config_ints(arrays, "strides", 1))
    cfg = ModelConfig(**kwargs)

    # a freshly initialised model gives every tensor's name and shape; the
    # checkpoint's values then replace its data
    params = init_params(cfg, seed=0)
    if "decoder.layer0.weight" in arrays:
        init_decoder(params, seed=0)
    used = {f"config.{n}" for n in _CONFIG_SCALARS} | {"config.filters", "config.strides"}
    for name, target in _checkpoint_tensors(params).items():
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
    arrays = model_to_arrays(params)
    if extra:
        unknown = sorted(k for k in extra if not k.startswith("norm."))
        if unknown:
            raise ValueError(f"extra arrays must be named norm.*, got {unknown}")
        overlap = set(arrays) & set(extra)
        if overlap:
            raise ValueError(f"extra arrays collide with model tensors: {sorted(overlap)}")
        arrays.update(extra)
    save_arrays(path, arrays)


def load_model(path) -> tuple[ModelParams, dict[str, np.ndarray]]:
    return model_from_arrays(load_arrays(path))
