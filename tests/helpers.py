"""Shared test utilities: the tiny desk model, the constant model, in-place
finite differences over model parameters, and the oracles that ``lnt``
itself does not use: the tanh op (the composed GRU step), the per-anchor
contrastive softmax, the DDCL term of a single step and view, and the
channel-major encoder."""

from typing import Sequence

import numpy as np

from lnt import model as mdl
from lnt import tensor as tn
from lnt.model import ModelParams
from lnt.tensor import Tensor


def tiny_config(**over) -> mdl.ModelConfig:
    """Desk-size model: 2 channels, dim_z=8, dim_c=4, K=2, L=3, r=rf=6."""
    base = dict(
        in_channels=2, dim_z=8, dim_c=4, K=2, L=3,
        filters=(3, 2), strides=(3, 2), bank_layers=2, bank_width=5,
        sub_seq=48,
    )
    base.update(over)
    return mdl.ModelConfig(**base)


def tiny_params(seed: int = 0, **over) -> ModelParams:
    return mdl.init_params(tiny_config(**over), seed=seed)


def fd_grad_inplace(loss_fn, arr: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of ``loss_fn()`` w.r.t. ``arr``.

    ``arr`` is mutated element-by-element and restored; ``loss_fn`` must
    read it afresh on every call (true for model parameters, whose Tensor
    objects hold the same underlying buffer).
    """
    g = np.zeros_like(arr)
    flat, gf = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = loss_fn()
        flat[i] = keep - eps
        lo = loss_fn()
        flat[i] = keep
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    return np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-6)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return tn._make(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def log_softmax_contrast(log_pos: Tensor, log_negs: Sequence[Tensor]) -> Tensor:
    """-log(pos / (pos + sum(negs))) from log-similarities, via log-sum-exp.

    Strictly positive for any nonempty negative set.
    """
    log_negs = list(log_negs)
    if not log_negs:
        raise ValueError("log_softmax_contrast needs at least one negative")
    cols = [tn.reshape(log_pos, (1,))] + [tn.reshape(t, (1,)) for t in log_negs]
    lse = tn.logsumexp_last(tn.concat(cols, axis=0), keepdims=False)
    return tn.sub(lse, tn.reshape(log_pos, ()))


def _unit_cos(a: Tensor, b: Tensor) -> Tensor:
    """Rowwise cosine of two row matrices, (R,1); equals log h."""
    return tn.sum_last(tn.mul(tn.unit_rows(a), tn.unit_rows(b)))


def ddcl_term(params: ModelParams, views: list[Tensor], c_prev: Tensor, k: int, l: int) -> Tensor:
    """One DDCL term for view l of a single latent step, given c_{t-k}."""
    if len(views) < 2:
        raise ValueError("DDCL needs at least two views (L >= 2)")
    if not 0 <= l < len(views):
        raise ValueError(f"view index {l} out of range")
    pred = mdl.predict_rows(params, tn.reshape(c_prev, (1, -1)), k, ddcl=True)
    anchor = tn.reshape(views[l], (1, -1))
    log_pos = tn.reshape(_unit_cos(anchor, pred), ())
    log_negs = [
        tn.reshape(_unit_cos(anchor, tn.reshape(v, (1, -1))), ())
        for m, v in enumerate(views)
        if m != l
    ]
    return log_softmax_contrast(log_pos, log_negs)


def conv1d_channel_major(x: Tensor, w: Tensor, stride: int) -> Tensor:
    """The strided conv as the encoder ran it channel-major: (B, C_in, T)
    in, a (B, C_out, t_out) transposed view of a time-major product out."""
    batch, c_in, t = x.shape
    c_out, _, f = w.shape
    t_out = (t - f) // stride + 1
    last = stride * (t_out - 1)
    patches = np.empty((batch, c_in, f, t_out), dtype=tn.dtype())
    for tap in range(f):
        patches[:, :, tap, :] = x.data[:, :, tap : tap + last + 1 : stride]
    pmat = patches.transpose(0, 3, 1, 2).reshape(batch * t_out, c_in * f)
    wmat = w.data.reshape(c_out, c_in * f)
    y = (pmat @ wmat.T).reshape(batch, t_out, c_out).transpose(0, 2, 1)
    need_dx = tn._recording(x)

    def vjp(g):
        gmat = g.transpose(0, 2, 1).reshape(batch * t_out, c_out)
        dw = (gmat.T @ pmat).reshape(w.shape)
        if not need_dx:
            return (None, dw)
        dpatches = (gmat @ wmat).reshape(batch, t_out, c_in, f).transpose(0, 2, 3, 1)
        dx = np.zeros((batch, c_in, t), dtype=tn.dtype())
        for tap in range(f):
            dx[:, :, tap : tap + last + 1 : stride] += dpatches[:, :, tap, :]
        return (dx, dw)

    return tn._make(y, (x, w), vjp, "conv1d")


def encode_channel_major(params: ModelParams, x: Tensor) -> Tensor:
    """``model.encode`` as separate conv, bias, relu and transpose records
    on channel-major activations."""
    h = x
    last = len(params.encoder) - 1
    for i, (w, b) in enumerate(params.encoder):
        h = conv1d_channel_major(h, w, params.config.strides[i])
        if b is not None:
            h = tn.add(h, b)
        if i < last:
            h = tn.relu(h)
    return tn.transpose(h, (0, 2, 1))


def constant_model(
    dim_z: int,
    dim_c: int,
    a,
    b,
    channels: int = 1,
    K: int = 4,
    L: int = 12,
) -> ModelParams:
    """A model whose encoder always emits ``a`` and context always ``b``.

    All multiplicative weights are zero; the final conv bias carries ``a``
    and the context output bias carries ``b`` (the recurrent state stays
    exactly zero under zero weights).  All K heads hold the same fixed
    matrix, so every DDCL term is bitwise identical across t and k.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size != dim_z or b.size != dim_c:
        raise ValueError("a must have dim_z entries and b dim_c entries")
    params = mdl.init_params(
        mdl.ModelConfig(in_channels=channels, dim_z=dim_z, dim_c=dim_c, K=K, L=L), 0)
    for t in params.named_parameters().values():
        t.data[...] = 0
    params.encoder[-1][1].data[:, 0] = a
    params.context.out_bias.data[...] = b
    for w in params.heads:
        w.data[...] = np.eye(dim_z, dim_c)
    return params
