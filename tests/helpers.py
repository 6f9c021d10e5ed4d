"""Shared test utilities: the tiny desk model, the constant model, in-place
finite differences over model parameters, and the oracles that ``lnt``
itself does not use: the sum_all and tanh ops, the div, sqrt and clamp_min
ops of the composed ``unit_rows``, the bank's mul and ``unit_rows``
records, ``span_matvec`` with a gradient region
per span, the conv filter gradient from the patch matrix, the per-anchor
contrastive softmax, the DDCL term of a single step and view, the channel-major encoder, the
losses and scores composed horizon by horizon from per-horizon head
tensors, the synthetic background built one temporary per operation, and
ROC-AUC and best-F1 from per-point ranks and cumulative sums."""

from dataclasses import replace
from typing import Sequence

import numpy as np

from lnt import data
from lnt import losses as ls
from lnt import metrics
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


def unit_rows_of_product(a: Tensor, scale: Tensor) -> Tensor:
    """``tn.unit_rows(a, scale=scale)`` as a mul record and a unit_rows
    record, as the bank ran it: the bitwise oracle of the fused record."""
    return tn.unit_rows(tn.mul(a, scale))


def span_matvec_regions(x: Tensor, v: Tensor, spans) -> Tensor:
    """``tn.span_matvec`` with ``x``'s gradient as one region of ``a @ b``
    outer products per span, listed last span first: the bitwise oracle
    of the op's dense gradient."""
    batch, _, m, j = x.shape
    blocks = tn._span_blocks(spans, batch, x.shape[1])
    xd, vd = x.data, v.data
    out = np.empty((v.shape[0], m), dtype=tn.dtype())
    for (start, stop), rows in zip(spans, blocks):
        cols = vd[rows].reshape(batch, stop - start, j, 1)
        out[rows] = np.matmul(xd[:, start:stop], cols).reshape(-1, m)

    def vjp(g):
        dv = np.empty(vd.shape, dtype=tn.dtype())
        regions = []
        for (start, stop), rows in zip(spans, blocks):
            n = stop - start
            gk = g[rows].reshape(batch, n, m, 1)
            regions.insert(0, tn._Region((slice(None), slice(start, stop)),
                                         gk @ vd[rows].reshape(batch, n, 1, j)))
            dv[rows] = np.matmul(xd[:, start:stop].swapaxes(-1, -2), gk).reshape(-1, j)
        return (regions, dv)

    return tn._make(out, (x, v), vjp, "span_matvec")


def conv1d_patch_dw(xd: np.ndarray, g: np.ndarray, f: int, stride: int) -> np.ndarray:
    """``tn.conv1d_strided``'s filter gradient for the (B, t_out, C_out)
    upstream gradient ``g`` (a relu layer's masked already) as one product
    with the input's patch matrix: the bitwise oracle of the dw it forms
    from the tap-major input."""
    batch, t_out, c_out = g.shape
    gmat, pmat = g.reshape(batch * t_out, c_out), tn._patch_matrix(xd, f, stride, t_out)
    return (gmat.T @ pmat).reshape(c_out, xd.shape[2], f)


def conv1d_relu_bool_mask(x: Tensor, w: Tensor, stride: int, bias: Tensor | None = None) -> Tensor:
    """``tn.conv1d_strided(x, w, stride, bias, relu=True)`` with its relu
    mask kept as a bool array and dx from the tap loop: the bitwise oracle
    of the op's packed-bit mask."""
    y = tn.conv1d_strided(Tensor(x.data), Tensor(w.data), stride,
                          None if bias is None else Tensor(bias.data), relu=True)
    xd, wd, mask = x.data, w.data, y.data > 0
    batch, t_out, c_out = y.shape
    c_in, f = wd.shape[1:]

    def vjp(g):
        g = g * mask
        gmat = g.reshape(batch * t_out, c_out)
        dw = conv1d_patch_dw(xd, g, f, stride)
        dpatches = (gmat @ wd.reshape(c_out, c_in * f)).reshape(batch, t_out, c_in, f)
        dx = np.zeros(xd.shape, dtype=tn.dtype())
        for tap in range(f):
            dx[:, tap : tap + stride * (t_out - 1) + 1 : stride] += dpatches[..., tap]
        db = np.ascontiguousarray(g.sum(0).T).sum(1).reshape(c_out, 1)
        return (dx, dw) if bias is None else (dx, dw, db)

    parents = (x, w) if bias is None else (x, w, bias)
    return tn._make(y.data, parents, vjp, "conv1d")


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
    m_total = cfg.latent_len(x.shape[1])
    total = np.zeros(m_total + sc.CHUNK_STEPS)
    for step, z, ctx in sc._iter_chunks(params, sc._check_series(params, x)):
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
    m_total = cfg.latent_len(x.shape[1])
    total = np.zeros(m_total + sc.CHUNK_STEPS)
    for step, z, ctx in sc._iter_chunks(params, sc._check_series(params, x)):
        m = z.shape[0]
        for k in range(1, min(cfg.K, step + m - 1) + 1):
            lo = max(step, k)
            pred = predict_rows(params, Tensor(ctx[lo - k : step + m - k]), k)
            logit = tn.sum_last(tn.mul(tn.slice_axis(z, lo - step, m), pred))
            total[lo : step + m] -= logit.data[:, 0]
    return _finish(total[:m_total], 1, cfg, x.shape[1], True)


def synth_normal_temporaries(channels: int, length: int, seed: int) -> data.LabeledSeries:
    """``data.synth_normal`` with 2πt recomputed per sinusoid and a fresh
    array per operation: the bitwise oracle of its one-buffer loop."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    values = np.empty((channels, length))
    for ch in range(channels):
        n = int(rng.integers(2, 5))
        periods = rng.uniform(1024.0, 8192.0, size=n)
        amps = rng.uniform(0.5, 1.0, size=n)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
        wave = np.zeros(length)
        for p, a, ph in zip(periods, amps, phases):
            wave += a * np.sin(2.0 * np.pi * t / p + ph)
        values[ch] = wave + rng.normal(0.0, 0.05, size=length)
    return data.LabeledSeries(values, np.zeros(length, dtype=np.int64))


def _auc_by_rank(scores, pos, order) -> float:
    s = scores[order]
    n = s.size
    boundaries = np.flatnonzero(np.diff(s) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    counts = np.diff(np.concatenate([starts, [n]]))
    # ranks within a tie group average to (first + last)/2
    avg = 0.5 * (starts + 1 + starts + counts)
    ranks = np.empty(n)
    ranks[order] = np.repeat(avg, counts)
    n_pos = int(pos.sum())
    u = ranks[pos].sum() - 0.5 * n_pos * (n_pos + 1)
    return float(u / (n_pos * (n - n_pos)))


def roc_auc_by_rank(scores, labels) -> float:
    """``metrics.roc_auc`` from a rank per point: the bitwise oracle of
    its sums over tie groups."""
    scores, pos = metrics._validate(scores, labels)
    return _auc_by_rank(scores, pos, np.argsort(scores, kind="stable"))


def best_f1_by_rank(scores, labels) -> metrics.EvalResult:
    """``metrics.best_f1`` from per-point cumulative counts in descending
    score order: the bitwise oracle of its sums over tie groups."""
    scores, pos = metrics._validate(scores, labels)
    n_pos = int(pos.sum())
    ascending = np.argsort(scores, kind="stable")
    order = ascending[::-1]
    cum_tp = np.cumsum(pos[order].astype(np.int64))
    # last index of each distinct value in the descending sort = counts at
    # threshold equal to that value (>= is inclusive)
    s_desc = scores[order]
    last = np.concatenate([np.flatnonzero(np.diff(s_desc) != 0), [scores.size - 1]])
    tp = cum_tp[last]
    fp = last + 1 - tp
    fn = n_pos - tp
    f1 = 2.0 * tp / (2.0 * tp + fp + fn)
    best = f1.max()
    idx = int(np.flatnonzero(f1 == best)[-1])
    tp_i, fp_i, fn_i = int(tp[idx]), int(fp[idx]), int(fn[idx])
    return metrics.EvalResult(
        auc=_auc_by_rank(scores, pos, ascending), best_f1=float(best),
        best_threshold=float(s_desc[last][idx]), precision=tp_i / (tp_i + fp_i),
        recall=tp_i / n_pos, tp=tp_i, fp=fp_i, fn=fn_i,
        tn=scores.size - tp_i - fp_i - fn_i,
    )
