"""Training objectives.

* ``cpc_loss`` — contrastive-predictive term: each context vector linearly
  predicts a future latent, contrasted (raw dot products, log-sum-exp
  softmax) against N-1 negatives drawn from the same mini-batch.
* ``ddcl_loss`` — the dynamic deterministic contrastive loss: every
  transformed view of z_t is pulled toward the prediction from c_{t-k}
  (numerator) and pushed away from the other views of the same z_t
  (denominator), with exponentiated cosine similarity h throughout.
* ``unified_loss`` — cpc_weight * CPC + lambda * DDCL.

Boundary terms are skipped (CPC needs t+k inside the sequence, DDCL needs
t-k >= first step) and each loss is the mean over its valid terms.
lambda, cpc_weight and N are keyword arguments without defaults (their
defaults live in ``training.TrainConfig``); K and L come from the model.
"""

from __future__ import annotations

import numpy as np

from . import model as mdl
from . import tensor as tn
from .model import ModelParams
from .tensor import Tensor


def _shifted(seq: Tensor, start: int, stop: int) -> Tensor:
    """Steps [start, stop) of every sequence in a (B,T,...) batch, as rows."""
    part = tn.slice_axis(seq, start, stop, axis=1)
    return tn.reshape(part, (-1,) + part.shape[2:])


def sample_negatives(
    rng: np.random.Generator, n_anchors: int, n_positions: int,
    pos_idx: np.ndarray, n_negs: int,
) -> np.ndarray:
    """(n_anchors, n_negs) indices uniform over positions minus the positive.

    Drawn with replacement; the shift trick keeps the draw exactly uniform
    over the remaining n_positions-1 indices.
    """
    if n_positions < 2:
        raise ValueError("need at least two latent positions to draw negatives")
    draw = rng.integers(0, n_positions - 1, size=(n_anchors, n_negs))
    return draw + (draw >= pos_idx[:, None])


def cpc_loss(
    params: ModelParams, z: Tensor, c: Tensor, rng: np.random.Generator, *, N: int,
) -> Tensor:
    """Mean contrastive term over the (B,T_z,·) batch, valid t, and k = 1..K;
    each positive is contrasted in a set of N (N - 1 negatives)."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    batch, t_z, dim_z = z.shape
    K = params.config.K
    if t_z <= K:
        raise ValueError(f"sequence of {t_z} latent steps has no valid positives for K={K}")
    n_pos = batch * t_z
    z_cols = tn.transpose(tn.reshape(z, (n_pos, dim_z)))

    acc = None
    total = 0
    for k in range(1, K + 1):
        pos_idx = (np.arange(batch)[:, None] * t_z + np.arange(k, t_z)[None, :]).ravel()
        pred = mdl.predict_rows(params, _shifted(c, 0, t_z - k), k)
        pos_logit = tn.sum_last(tn.mul(pred, _shifted(z, k, t_z)))
        neg_idx = sample_negatives(rng, len(pos_idx), n_pos, pos_idx, N - 1)
        neg_logit = tn.gather_last(tn.matmul(pred, z_cols), neg_idx)
        logits = tn.concat([pos_logit, neg_logit], axis=1)
        k_sum = tn.sum_all(tn.sub(tn.logsumexp_last(logits), pos_logit))
        acc = k_sum if acc is None else tn.add(acc, k_sum)
        total += len(pos_idx)
    return tn.scale(acc, 1.0 / total)


def view_gram(params: ModelParams, z_rows: Tensor) -> tuple[Tensor, Tensor]:
    """Unit views (R,L,D) of latent rows (R,D) and their DDCL denominators.

    One Gram matrix of unit views per row, (R,L,L), holds every log h
    between views; its exp row-sums with the diagonal masked out give
    S[r,l] = sum_{m != l} h(view_l, view_m), shape (R,L).
    """
    units = tn.unit_rows(mdl.transform(params, z_rows))
    n_views = units.shape[1]
    gram = tn.matmul(units, tn.transpose(units, (0, 2, 1)))
    off_diag = Tensor(1.0 - np.eye(n_views))
    return units, tn.sum_last(tn.mul(tn.exp(gram), off_diag), keepdims=False)


def ddcl_terms(
    params: ModelParams, units: Tensor, den: Tensor, c_prev: Tensor, k: int,
) -> Tensor:
    """DDCL terms (R,L) of anchor rows, given their c_{t-k} rows (R,dim_c).

    ``units`` and ``den`` are the anchor rows of :func:`view_gram`; term
    (r,l) is log(h(view_l, pred) + S[r,l]) - log h(view_l, pred).
    ``units`` may keep leading (B, T) axes, (B,T,L,D), with B*T rows.
    """
    rows, n_views = den.shape
    lead, dim_z = units.shape[:-2], units.shape[-1]
    pred = tn.unit_rows(mdl.predict_rows(params, c_prev, k, ddcl=True))
    cos = tn.matmul(units, tn.reshape(pred, lead + (dim_z, 1)))
    cos = tn.reshape(cos, (rows, n_views))
    # h values live in [1/e, e]; the direct form is safe here
    return tn.sub(tn.log(tn.add(tn.exp(cos), den)), cos)


def ddcl_loss(params: ModelParams, z: Tensor, c: Tensor) -> Tensor:
    """Mean DDCL term over the (B,T_z,·) batch, valid (t,k) pairs, and all L views."""
    batch, t_z, dim_z = z.shape
    if t_z < 2:
        raise ValueError("DDCL needs at least two latent steps (no valid (t,k) pair)")

    units, den = view_gram(params, tn.reshape(z, (batch * t_z, dim_z)))
    n_views = units.shape[1]
    units = tn.reshape(units, (batch, t_z, n_views, dim_z))
    den = tn.reshape(den, (batch, t_z, n_views))

    acc = None
    count = 0
    for k in range(1, params.config.K + 1):
        if t_z - k < 1:
            continue
        # a slice of the (B, T_z, L, D) units is a view; flattened to rows
        # it would be a copy that lives until backward
        terms = ddcl_terms(
            params, tn.slice_axis(units, k, t_z, axis=1), _shifted(den, k, t_z),
            _shifted(c, 0, t_z - k), k,
        )
        term_sum = tn.sum_all(terms)
        acc = term_sum if acc is None else tn.add(acc, term_sum)
        count += terms.size
    return tn.scale(acc, 1.0 / count)


def unified_loss(
    params: ModelParams, x: Tensor, rng: np.random.Generator, *,
    lam: float, cpc_weight: float, N: int,
) -> tuple[Tensor, Tensor, Tensor]:
    """(total, cpc_part, ddcl_part) on a raw batch; total = cpc_weight*cpc +
    lam*ddcl, and N is the CPC contrast size."""
    z = mdl.encode(params, x)
    c = mdl.contextualize(params, z)
    cpc = cpc_loss(params, z, c, rng, N=N)
    ddcl = ddcl_loss(params, z, c)
    total = tn.add(tn.scale(cpc, cpc_weight), tn.scale(ddcl, lam))
    return total, cpc, ddcl
