"""LNT architecture: strided-conv encoder, recurrent context module, linear
prediction heads, and the bank of local neural transformations.

Layout conventions
------------------
Every forward takes a batch: raw windows are (B, C, T), latent and context
sequences time-major (B, T_z, dim_z) / (B, T_z, dim_c).  A "flattened"
latent batch is the (R, dim_z) row matrix, R = B*T_z, that the losses and
the bank take; the bank maps it to all L views at once, (R, L, dim_z).
Parameters are stored in the layout their forward reads (GRU gates and
bank transforms stacked); only ``checkpoint`` splits them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import tensor as tn
from .tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``filters``/``strides`` define the encoder conv stack (valid, no
    padding); the downsample factor r is the stride product.  ``K`` is the
    number of prediction horizons, ``L`` the transformation count, and
    ``bank_layers``/``bank_width`` the per-transformation MLP shape
    (bias-free, ReLU hidden, sigmoid output used as multiplicative mask).
    ``sub_seq`` is the recommended training window length.
    """

    in_channels: int = 3
    dim_z: int = 128
    dim_c: int = 32
    filters: tuple[int, ...] = (3, 3, 4, 2)
    strides: tuple[int, ...] = (3, 3, 4, 2)
    K: int = 4
    L: int = 12
    bank_layers: int = 2
    bank_width: int = 24
    conv_bias: bool = True
    separate_ddcl_heads: bool = False
    sub_seq: int = 720

    def __post_init__(self):
        if len(self.filters) != len(self.strides):
            raise ValueError("filters and strides must have equal length")
        if min(self.filters) < 1 or min(self.strides) < 1:
            raise ValueError("filters and strides must be positive")
        for name in ("in_channels", "dim_z", "dim_c", "K", "bank_layers", "bank_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.L < 2:
            raise ValueError("L must be >= 2 (the DDCL denominator needs m != l)")

    @property
    def downsample(self) -> int:
        """Raw frames per latent step (r)."""
        r = 1
        for s in self.strides:
            r *= s
        return r

    @property
    def receptive_field(self) -> int:
        rf, jump = 1, 1
        for f, s in zip(self.filters, self.strides):
            rf += (f - 1) * jump
            jump *= s
        return rf

    def latent_len(self, t: int) -> int:
        """Latent steps produced from a raw window of length t.

        The conv stack emits one step per downsample-factor stride of the
        receptive field, floor((t - rf) / r) + 1; latent step i covers raw
        frames [i*r, i*r + rf).  Trailing frames that start no new stride
        produce no step and inherit the final score at broadcast time.
        """
        if t < self.receptive_field:
            raise ValueError(
                f"window of {t} frames is shorter than the "
                f"receptive field {self.receptive_field}"
            )
        return (t - self.receptive_field) // self.downsample + 1


def small_config(channels: int = 3) -> ModelConfig:
    # separate DDCL heads: the CPC heads optimize raw dot products while the
    # DDCL score lives in cosine space, and sharing them measurably hurts
    # detection at desk scale
    return ModelConfig(in_channels=channels, separate_ddcl_heads=True)


def audio_config(channels: int = 1) -> ModelConfig:
    return ModelConfig(
        in_channels=channels,
        dim_z=512,
        dim_c=256,
        filters=(10, 8, 4, 4, 4),
        strides=(5, 4, 2, 2, 2),
        K=12,
        L=12,
        bank_layers=3,
        bank_width=64,
        sub_seq=20480,
        separate_ddcl_heads=True,
    )


_BUILTIN_CONFIGS = {"small": small_config, "audio": audio_config}


def builtin_config(name: str, channels: int | None = None) -> ModelConfig:
    if name not in _BUILTIN_CONFIGS:
        raise ValueError(f"unknown config '{name}' (choose from {sorted(_BUILTIN_CONFIGS)})")
    cfg = _BUILTIN_CONFIGS[name]()
    if channels is not None:
        cfg = replace(cfg, in_channels=channels)
    return cfg


class GruParams(NamedTuple):
    """The gated recurrent context unit (reset r, update u, candidate n),
    stored C-contiguous in the stacked layout ``tn.gru`` reads:

    [x_ru, x_n] = x @ w_x                       w_x = [W_r; W_u; W_n]^T
    [r, u] = sigmoid(x_ru + h @ u_ru + b_ru)    u_ru = [U_r; U_u]^T
    n = tanh(x_n + (r * h) @ u_n + b_n)         u_n = U_n^T
    h' = u * h + (1 - u) * n,   context = h' + out_bias
    """

    w_x: Tensor
    u_ru: Tensor
    u_n: Tensor
    b_ru: Tensor
    b_n: Tensor
    out_bias: Tensor


@dataclass
class ModelParams:
    """All learned parameters plus the config that shapes them."""

    config: ModelConfig
    encoder: list[tuple[Tensor, Tensor | None]] = field(default_factory=list)
    context: GruParams | None = None
    heads: list[Tensor] = field(default_factory=list)
    ddcl_heads: list[Tensor] | None = None
    bank: list[Tensor] = field(default_factory=list)
    decoder: list[tuple[Tensor, Tensor]] | None = None

    def named_parameters(self) -> dict[str, Tensor]:
        """Trainable tensors in a fixed, stable order."""
        out: dict[str, Tensor] = {}
        for i, (w, b) in enumerate(self.encoder):
            out[f"encoder.layer{i}.weight"] = w
            if b is not None:
                out[f"encoder.layer{i}.bias"] = b
        for name, t in zip(GruParams._fields, self.context):
            out[f"context.{name}"] = t
        for k, w in enumerate(self.heads, start=1):
            out[f"heads.W{k}"] = w
        if self.ddcl_heads is not None:
            for k, w in enumerate(self.ddcl_heads, start=1):
                out[f"ddcl_heads.W{k}"] = w
        for j, w in enumerate(self.bank):
            out[f"bank.layer{j}.weight"] = w
        if self.decoder is not None:
            for i, (w, b) in enumerate(self.decoder):
                out[f"decoder.layer{i}.weight"] = w
                out[f"decoder.layer{i}.bias"] = b
        return out

    def heads_for_ddcl(self) -> list[Tensor]:
        return self.ddcl_heads if self.ddcl_heads is not None else self.heads


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Fresh parameters: weights uniform in ±1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    params = ModelParams(config=config)

    c_in = config.in_channels
    for f in config.filters:
        w = _uniform(rng, (config.dim_z, c_in, f), c_in * f)
        b = _zeros((config.dim_z, 1)) if config.conv_bias else None
        params.encoder.append((w, b))
        c_in = config.dim_z

    # drawn per gate (W_r, U_r, W_u, U_u, W_n, U_n) and then stacked, so a
    # seed gives the weights it gave when each gate was a separate tensor
    z, h = config.dim_z, config.dim_c
    w_r, u_r, w_u, u_u, w_n, u_n = (_uniform(rng, s, s[1]).data for s in [(h, z), (h, h)] * 3)

    def stack_t(*gates):
        return Tensor(np.ascontiguousarray(np.concatenate(gates).T), requires_grad=True)

    params.context = GruParams(
        w_x=stack_t(w_r, w_u, w_n), u_ru=stack_t(u_r, u_u), u_n=stack_t(u_n),
        b_ru=_zeros(2 * h), b_n=_zeros(h), out_bias=_zeros(h),
    )

    params.heads = [_uniform(rng, (z, h), h) for _ in range(config.K)]
    if config.separate_ddcl_heads:
        params.ddcl_heads = [_uniform(rng, (z, h), h) for _ in range(config.K)]

    # drawn in (transform, layer) order and then stacked, so a seed gives the
    # weights it gave when each transform was a separate MLP
    widths = [z] + [config.bank_width] * (config.bank_layers - 1) + [z]
    shapes = [(widths[j + 1], widths[j]) for j in range(config.bank_layers)]
    draws = [[_uniform(rng, s, s[1]).data for s in shapes] for _ in range(config.L)]
    params.bank = [Tensor(np.stack(layer), requires_grad=True) for layer in zip(*draws)]
    return params


def init_decoder(params: ModelParams, seed: int) -> None:
    """Attach a fresh transposed-conv decoder mirroring the encoder."""
    cfg = params.config
    rng = np.random.default_rng(seed)
    chans = [cfg.dim_z] * len(cfg.filters) + [cfg.in_channels]
    layers = []
    for i, (f, s) in enumerate(zip(cfg.filters[::-1], cfg.strides[::-1])):
        c_in, c_out = chans[i], chans[i + 1]
        w = _uniform(rng, (c_in, c_out, f), c_in * f)
        layers.append((w, _zeros((c_out, 1))))
    params.decoder = layers


# ---------------------------------------------------------------------------
# forward operations


def encode(params: ModelParams, x: Tensor) -> Tensor:
    """Raw windows (B,C,T) -> latent rows (B,T_z,dim_z).

    T_z follows ModelConfig.latent_len; the window must cover at least one
    receptive field.  ReLU between conv layers, linear final layer.  The
    batch is transposed once to time-major (B,T,C), a tape record only
    when it is tracked; each layer is one ``conv1d_strided`` record with
    its bias and relu, and the last one's output is the latents.
    """
    cfg = params.config
    if x.ndim != 3:
        raise ValueError(f"expected a (B, C, T) batch of windows, got shape {x.shape}")
    if x.shape[1] != cfg.in_channels:
        raise ValueError(f"expected {cfg.in_channels} input channels, got {x.shape[1]}")
    cfg.latent_len(x.shape[-1])  # raises if too short

    h = tn.transpose(x, (0, 2, 1))
    last = len(params.encoder) - 1
    for i, (w, b) in enumerate(params.encoder):
        h = tn.conv1d_strided(h, w, cfg.strides[i], b, relu=i < last)
    return h


def contextualize_with_state(
    params: ModelParams, z: Tensor, state: Tensor | None = None
) -> tuple[Tensor, Tensor]:
    """Run the recurrent context module; returns (contexts, final state).

    ``z`` is (B,T_z,dim_z); contexts are (B,T_z,dim_c) and the state
    (B,dim_c).  ``state`` defaults to zeros and lets chunked scoring carry
    hidden state across chunk boundaries.

    All steps' input projections are one matmul of the (B*T_z,dim_z) rows
    against ``w_x``; the recurrence is one ``tn.gru`` record.  The stacks
    are C-contiguous, so a sample's bits do not depend on B or T_z, except
    that numpy sends a one-row product (B*T_z == 1) to gemv, not gemm.
    """
    cfg = params.config
    gru = params.context
    if z.ndim != 3:
        raise ValueError(f"expected a (B, T_z, dim_z) latent batch, got shape {z.shape}")
    batch, t_z, dim_z = z.shape
    hidden = cfg.dim_c
    if dim_z != cfg.dim_z:
        raise ValueError(f"expected latents of width {cfg.dim_z}, got shape {z.shape}")
    if t_z < 1:
        raise ValueError("empty latent sequence")
    if state is None:
        state = Tensor(np.zeros((batch, hidden)))
    elif state.shape != (batch, hidden):
        raise ValueError(f"expected a ({batch}, {hidden}) state, got shape {state.shape}")

    x = tn.matmul(tn.reshape(z, (batch * t_z, dim_z)), gru.w_x)
    x = tn.reshape(x, (batch, t_z, 3 * hidden))
    h = tn.gru(x, state, gru.u_ru, gru.u_n, gru.b_ru, gru.b_n)
    last = tn.reshape(tn.slice_axis(h, t_z - 1, t_z, axis=1), (batch, hidden))
    return tn.add(h, gru.out_bias), last


def contextualize(params: ModelParams, z: Tensor) -> Tensor:
    """Context rows c_t summarizing z_{<=t}, zero initial state."""
    return contextualize_with_state(params, z)[0]


def predict_rows(params: ModelParams, c_rows: Tensor, k: int, ddcl: bool = False) -> Tensor:
    """k-step predictions W_k c of context rows (1-based k): (R,dim_c) -> (R,dim_z)."""
    heads = params.heads_for_ddcl() if ddcl else params.heads
    if not 1 <= k <= len(heads):
        raise ValueError(f"k must be in 1..{len(heads)}, got {k}")
    return tn.matmul(c_rows, tn.transpose(heads[k - 1]))


def transform(params: ModelParams, z: Tensor) -> Tensor:
    """All L views of latent rows ``z`` (R,dim_z), as one (R,L,dim_z) tensor.

    view_l = sigmoid(MLP_l(z)) * z — a multiplicative mask, so every view
    is elementwise strictly smaller in magnitude wherever z is nonzero.
    Bank layer j holds all L transforms' weights, (L,out,in): the first
    layer is one matmul of z against them all, each later one a stacked
    ``matmul`` over the L transforms.
    """
    rows, dim_z = z.shape
    first = params.bank[0]
    h = tn.matmul(z, tn.transpose(tn.reshape(first, (-1, dim_z))))
    h = tn.transpose(tn.reshape(h, (rows, first.shape[0], -1)), (1, 0, 2))  # (L,R,out)
    for w in params.bank[1:]:
        h = tn.matmul(tn.relu(h), tn.transpose(w, (0, 2, 1)))
    mask = tn.sigmoid(tn.transpose(h, (1, 0, 2)))
    return tn.mul(mask, tn.reshape(z, (rows, 1, dim_z)))


def decode(params: ModelParams, z: Tensor) -> Tensor:
    """Latent rows back to raw frames: (B,T_z,dim_z) -> (B,C,T_z*r).

    Output is cropped to exactly r raw frames per latent step.
    """
    if params.decoder is None:
        raise ValueError("model has no decoder (train one with fit_decoder)")
    if z.ndim != 3:
        raise ValueError(f"expected a (B, T_z, dim_z) latent batch, got shape {z.shape}")
    cfg = params.config
    t_z = z.shape[1]
    h = tn.transpose(z, (0, 2, 1))
    strides = cfg.strides[::-1]
    last = len(params.decoder) - 1
    for i, (w, b) in enumerate(params.decoder):
        h = tn.conv1d_transpose(h, w, strides[i])
        h = tn.add(h, b)
        if i < last:
            h = tn.relu(h)
    return tn.slice_axis(h, 0, t_z * cfg.downsample, axis=-1)

