"""LNT architecture: strided-conv encoder, recurrent context module, linear
prediction heads, and the bank of local neural transformations.

Layout conventions
------------------
Every forward takes a batch: raw windows are (B, C, T), latent and context
sequences time-major (B, T_z, dim_z) / (B, T_z, dim_c).  A "flattened"
latent batch is the (R, dim_z) row matrix, R = B*T_z, that the losses and
the bank take; the bank maps it to all L views at once, (R, L, dim_z).
The K prediction horizons are one k-major stack of rows: block k holds
the rows of horizon k (see ``tensor.stack_spans``).  Parameters are stored
in the layout their forward reads (GRU gates, prediction heads and bank
transforms stacked); ``split_views`` gives the per-matrix view that a seed
and a checkpoint read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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
        if min(self.filters + self.strides, default=0) < 1:
            raise ValueError("filters and strides must be non-empty and positive")
        for f in fields(self):
            if type(f.default) is int and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
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


def builtin_config(name: str) -> ModelConfig:
    if name not in _BUILTIN_CONFIGS:
        raise ValueError(f"unknown config '{name}' (choose from {sorted(_BUILTIN_CONFIGS)})")
    return _BUILTIN_CONFIGS[name]()


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
    heads: Tensor | None = None  # (K, dim_z, dim_c): W_1 .. W_K
    ddcl_heads: Tensor | None = None
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
        out["heads"] = self.heads
        if self.ddcl_heads is not None:
            out["ddcl_heads"] = self.ddcl_heads
        for j, w in enumerate(self.bank):
            out[f"bank.layer{j}.weight"] = w
        if self.decoder is not None:
            for i, (w, b) in enumerate(self.decoder):
                out[f"decoder.layer{i}.weight"] = w
                out[f"decoder.layer{i}.bias"] = b
        return out

    def heads_for_ddcl(self) -> Tensor:
        return self.ddcl_heads if self.ddcl_heads is not None else self.heads


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=tn.dtype()), requires_grad=True)


def _zero_decoder(config: ModelConfig) -> list[tuple[Tensor, Tensor]]:
    """Transposed-conv layers mirroring the encoder: (C_in, C_out, F) weights."""
    chans = [config.dim_z] * len(config.filters) + [config.in_channels]
    return [(_zeros((chans[i], chans[i + 1], f)), _zeros((chans[i + 1], 1)))
            for i, f in enumerate(config.filters[::-1])]


def zero_params(config: ModelConfig, decoder: bool = False) -> ModelParams:
    """A config's parameter stacks, all zeros; ``decoder`` adds one."""
    z, h = config.dim_z, config.dim_c
    c_in = [config.in_channels] + [z] * (len(config.filters) - 1)
    widths = [z] + [config.bank_width] * (config.bank_layers - 1) + [z]
    return ModelParams(
        config=config,
        encoder=[(_zeros((z, c, f)), _zeros((z, 1)) if config.conv_bias else None)
                 for c, f in zip(c_in, config.filters)],
        context=GruParams(w_x=_zeros((z, 3 * h)), u_ru=_zeros((h, 2 * h)), u_n=_zeros((h, h)),
                          b_ru=_zeros(2 * h), b_n=_zeros(h), out_bias=_zeros(h)),
        heads=_zeros((config.K, z, h)),
        ddcl_heads=_zeros((config.K, z, h)) if config.separate_ddcl_heads else None,
        bank=[_zeros((config.L, o, i)) for i, o in zip(widths, widths[1:])],
        decoder=_zero_decoder(config) if decoder else None,
    )


def split_views(params: ModelParams) -> dict[str, np.ndarray]:
    """Every parameter by checkpoint name, as a view into its stack (writing
    one writes the model), in the order a seed draws the weights: encoder
    layers; per-gate GRU blocks ``context.W_r``, ``U_r``, ``b_r`` ...
    ``out_bias``; per-horizon ``heads.W{k}``, then ``ddcl_heads.W{k}``;
    per-transform ``bank.T{l}.layer{j}.weight``, transform by transform;
    then the decoder."""
    out: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(params.encoder):
        out[f"encoder.layer{i}.weight"] = w.data
        if b is not None:
            out[f"encoder.layer{i}.bias"] = b.data
    w_x, u_ru, u_n, b_ru, b_n, out_bias = (t.data for t in params.context)
    h = b_n.shape[0]
    u, b = (u_ru[:, :h], u_ru[:, h:], u_n), (b_ru[:h], b_ru[h:], b_n)
    for i, gate in enumerate("run"):
        out[f"context.W_{gate}"] = w_x[:, i * h : (i + 1) * h].T
        out[f"context.U_{gate}"] = u[i].T
        out[f"context.b_{gate}"] = b[i]
    out["context.out_bias"] = out_bias
    for name in ("heads", "ddcl_heads"):
        stack = getattr(params, name)
        for k, w in enumerate(() if stack is None else stack.data, start=1):
            out[f"{name}.W{k}"] = w
    for l in range(params.config.L):
        for j, layer in enumerate(params.bank):
            out[f"bank.T{l + 1}.layer{j}.weight"] = layer.data[l]
    for i, (w, b) in enumerate(params.decoder or ()):
        out[f"decoder.layer{i}.weight"], out[f"decoder.layer{i}.bias"] = w.data, b.data
    return out


def _draw(rng: np.random.Generator, view: np.ndarray, fan_in: int) -> None:
    bound = 1.0 / np.sqrt(fan_in)
    view[...] = rng.uniform(-bound, bound, size=view.shape)


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Fresh parameters: each weight of :func:`split_views`, in its order,
    uniform in ±1/sqrt(fan_in), the fan_in its trailing dimensions'
    product; biases zero."""
    rng = np.random.default_rng(seed)
    params = zero_params(config)
    for name, view in split_views(params).items():
        if "bias" not in name and ".b_" not in name:
            _draw(rng, view, math.prod(view.shape[1:]))
    return params


def init_decoder(params: ModelParams, seed: int) -> None:
    """Attach a fresh transposed-conv decoder mirroring the encoder: each
    (C_in, C_out, F) weight uniform in ±1/sqrt(C_in*F), biases zero."""
    rng = np.random.default_rng(seed)
    params.decoder = _zero_decoder(params.config)
    for w, _ in params.decoder:
        c_in, _, f = w.shape
        _draw(rng, w.data, c_in * f)


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


def predict(params: ModelParams, c: Tensor, spans, ddcl: bool = False) -> Tensor:
    """k-step predictions W_k c_t of the contexts ``c`` (B,T,dim_c), with t
    in ``spans[k - 1]`` for k = 1, 2, ...: the k-major (S,dim_z) stack of
    ``tensor.stack_spans``.  ``ddcl`` picks the DDCL heads."""
    heads = params.heads_for_ddcl() if ddcl else params.heads
    if not 1 <= len(spans) <= heads.shape[0]:
        raise ValueError(f"expected 1..{heads.shape[0]} horizon spans, got {len(spans)}")
    rows = tn.stack_spans(c, spans)
    return tn.block_matmul(rows, tn.transpose(heads, (0, 2, 1)), tn.span_rows(c.shape[0], spans))


def transform(params: ModelParams, z: Tensor) -> Tensor:
    """All L views of latent rows ``z`` (R,dim_z), as one (R,L,dim_z) tensor.

    view_l = sigmoid(MLP_l(z)) * z — a multiplicative mask, so every view
    is elementwise strictly smaller in magnitude wherever z is nonzero.
    """
    return tn.mul(view_masks(params, z), tn.reshape(z, (z.shape[0], 1, -1)))


def view_masks(params: ModelParams, z: Tensor) -> Tensor:
    """The (R,L,dim_z) masks of :func:`transform`.  Bank layer j holds all L
    transforms' weights, (L,out,in): the first layer is one matmul of z
    against them all, each later one a stacked ``matmul``."""
    rows, dim_z = z.shape
    first = params.bank[0]
    h = tn.matmul(z, tn.transpose(tn.reshape(first, (-1, dim_z))))
    h = tn.transpose(tn.reshape(h, (rows, first.shape[0], -1)), (1, 0, 2))  # (L,R,out)
    for w in params.bank[1:]:
        h = tn.matmul(tn.relu(h), tn.transpose(w, (0, 2, 1)))
    return tn.sigmoid(tn.transpose(h, (1, 0, 2)))


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

