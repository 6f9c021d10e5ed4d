"""Shared test utilities: the tiny desk model, the constant model, in-place
finite differences over model parameters, and the oracles that ``lnt``
itself does not use: the sum_all and tanh ops, the div, sqrt and clamp_min
ops of the composed ``unit_rows``, the per-anchor contrastive softmax, the
DDCL term of a single step and view, the channel-major encoder, and the
losses and scores composed horizon by horizon from per-horizon head
tensors."""

from dataclasses import replace
from typing import Sequence

import numpy as np

from lnt import losses as ls
from lnt import model as mdl
from lnt import scoring as sc
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


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return tn._make(
        a.data.sum(), (a,), lambda g: (np.broadcast_to(g, shape).copy(),), "sum_all"
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    sa, bd = a.shape, b.data
    with np.errstate(all="ignore"):
        out = a.data / bd

    def vjp(g):
        db = g * out
        db /= bd
        return (tn._unbroadcast(g / bd, sa), -tn._unbroadcast(db, bd.shape))

    return tn._make(out, (a, b), vjp, "div")


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out = np.sqrt(a.data)
    return tn._make(out, (a,), lambda g: (g / (2.0 * out),), "sqrt")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    floor = float(floor)
    out = np.maximum(a.data, floor)
    mask = a.data > floor
    return tn._make(out, (a,), lambda g: (g * mask,), "clamp_min")


def unit_rows_composed(a: Tensor) -> Tensor:
    """``tn.unit_rows`` as five records: the bitwise oracle of the fused op."""
    norms = sqrt(clamp_min(tn.sum_last(tn.mul(a, a)), tn.NORM_EPS**2))
    return div(a, norms)


def log_softmax_contrast(log_pos: Tensor, log_negs: Sequence[Tensor]) -> Tensor:
    """-log(pos / (pos + sum(negs))) from log-similarities, via log-sum-exp.

    Strictly positive for any nonempty negative set.
    """
    log_negs = list(log_negs)
    if not log_negs:
        raise ValueError("log_softmax_contrast needs at least one negative")
    cols = [tn.reshape(log_pos, (1,))] + [tn.reshape(t, (1,)) for t in log_negs]
    lse = tn.reshape(tn.logsumexp_last(tn.concat(cols, axis=0)), ())
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
    head = Tensor(params.heads_for_ddcl().data[k - 1])
    pred = tn.matmul(tn.reshape(c_prev, (1, -1)), tn.transpose(head))
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
    params.heads.data[...] = np.eye(dim_z, dim_c)
    return params


# ---------------------------------------------------------------------------
# the losses and scores composed horizon by horizon, one tape record per op
# and horizon, on per-horizon head tensors: the reference that the stacked
# forms in ``lnt`` must match bit for bit


def per_horizon_heads(params: ModelParams) -> ModelParams:
    """A copy of ``params`` that shares every tensor but holds its head
    stacks as lists of per-horizon leaves, fresh copies of the blocks."""
    def split(stack):
        if stack is None:
            return None
        return [Tensor(w.copy(), requires_grad=True) for w in stack.data]

    return replace(params, heads=split(params.heads), ddcl_heads=split(params.ddcl_heads))


def stacked_grad(heads: list[Tensor]) -> np.ndarray:
    """The per-horizon heads' gradients as one (K, dim_z, dim_c) stack."""
    return np.stack([w.grad for w in heads])


def predict_rows(params: ModelParams, c_rows: Tensor, k: int, ddcl: bool = False) -> Tensor:
    heads = params.heads_for_ddcl() if ddcl else params.heads
    return tn.matmul(c_rows, tn.transpose(heads[k - 1]))


def _shifted(seq: Tensor, start: int, stop: int) -> Tensor:
    part = tn.slice_axis(seq, start, stop, axis=1)
    return tn.reshape(part, (-1,) + part.shape[2:])


def cpc_loss_per_horizon(params, z, c, rng, *, N):
    batch, t_z, dim_z = z.shape
    n_pos = batch * t_z
    z_cols = tn.transpose(tn.reshape(z, (n_pos, dim_z)))
    acc = None
    total = 0
    for k in range(1, params.config.K + 1):
        pos_idx = (np.arange(batch)[:, None] * t_z + np.arange(k, t_z)[None, :]).ravel()
        pred = predict_rows(params, _shifted(c, 0, t_z - k), k)
        pos_logit = tn.sum_last(tn.mul(pred, _shifted(z, k, t_z)))
        neg_idx = ls.sample_negatives(rng, len(pos_idx), n_pos, pos_idx, N - 1)
        neg_logit = tn.gather_last(tn.matmul(pred, z_cols), neg_idx)
        logits = tn.concat([pos_logit, neg_logit], axis=1)
        k_sum = sum_all(tn.sub(tn.logsumexp_last(logits), pos_logit))
        acc = k_sum if acc is None else tn.add(acc, k_sum)
        total += len(pos_idx)
    return tn.scale(acc, 1.0 / total)


def ddcl_terms_per_horizon(params, units, den, c_prev, k):
    rows, n_views = den.shape
    lead, dim_z = units.shape[:-2], units.shape[-1]
    pred = tn.unit_rows(predict_rows(params, c_prev, k, ddcl=True))
    cos = tn.matmul(units, tn.reshape(pred, lead + (dim_z, 1)))
    cos = tn.reshape(cos, (rows, n_views))
    return tn.sub(tn.log(tn.add(tn.exp(cos), den)), cos)


def ddcl_loss_per_horizon(params, z, c):
    batch, t_z, dim_z = z.shape
    units, den = ls.view_gram(params, tn.reshape(z, (batch * t_z, dim_z)))
    n_views = units.shape[1]
    units = tn.reshape(units, (batch, t_z, n_views, dim_z))
    den = tn.reshape(den, (batch, t_z, n_views))
    acc = None
    count = 0
    for k in range(1, params.config.K + 1):
        if t_z - k < 1:
            continue
        terms = ddcl_terms_per_horizon(
            params, tn.slice_axis(units, k, t_z, axis=1), _shifted(den, k, t_z),
            _shifted(c, 0, t_z - k), k,
        )
        term_sum = sum_all(terms)
        acc = term_sum if acc is None else tn.add(acc, term_sum)
        count += terms.size
    return tn.scale(acc, 1.0 / count)


def unified_loss_per_horizon(params, x, rng, *, lam, cpc_weight, N):
    z = mdl.encode(params, x)
    c = mdl.contextualize(params, z)
    cpc = cpc_loss_per_horizon(params, z, c, rng, N=N)
    ddcl = ddcl_loss_per_horizon(params, z, c)
    total = tn.add(tn.scale(cpc, cpc_weight), tn.scale(ddcl, lam))
    return total, cpc, ddcl


def _finish(latent, per_k, cfg, raw_len, normalized):
    """The score normalisation, kept apart from ``scoring``'s own copy so
    that the oracles below do not share the code they check."""
    if normalized:
        latent[1:] /= per_k * np.minimum(np.arange(1, latent.size), cfg.K)
    latent[0] = latent[1]
    return sc.ScoreSeries(sc.broadcast_scores(latent, cfg.downsample, raw_len), latent)


def score_ddcl_per_horizon(params, x, normalized=True):
    cfg = params.config
    padded, m_total = sc._padded(params, sc._check_series(params, x))
    total = np.zeros(cfg.latent_len(padded.shape[1]), dtype=np.float64)
    for step, z, ctx in sc._iter_chunks(params, padded, m_total):
        m = z.shape[0]
        units, den = ls.view_gram(params, z)
        for k in range(1, min(cfg.K, step + m - 1) + 1):
            lo = max(step, k)
            terms = ddcl_terms_per_horizon(
                params, tn.slice_axis(units, lo - step, m), tn.slice_axis(den, lo - step, m),
                Tensor(ctx[lo - k : step + m - k]), k,
            )
            total[lo : step + m] += terms.data.sum(axis=1, dtype=np.float64)
    return _finish(total[:m_total], cfg.L, cfg, x.shape[1], normalized)


def score_cpc_approx_per_horizon(params, x):
    cfg = params.config
    padded, m_total = sc._padded(params, sc._check_series(params, x))
    total = np.zeros(cfg.latent_len(padded.shape[1]), dtype=np.float64)
    for step, z, ctx in sc._iter_chunks(params, padded, m_total):
        m = z.shape[0]
        for k in range(1, min(cfg.K, step + m - 1) + 1):
            lo = max(step, k)
            pred = predict_rows(params, Tensor(ctx[lo - k : step + m - k]), k)
            logit = tn.sum_last(tn.mul(tn.slice_axis(z, lo - step, m), pred))
            total[lo : step + m] -= logit.data[:, 0]
    return _finish(total[:m_total], 1, cfg, x.shape[1], True)
