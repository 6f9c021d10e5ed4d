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


def horizons(steps: int, K: int, past: int = 0) -> tuple[list, list]:
    """(anchor spans, context spans) of the horizons k = 1, 2, ... <= K that
    have an anchor in a sequence of ``steps`` latent steps.

    Horizon k's anchors are steps [a, steps), a = max(k - past, 0), and
    their contexts c_{t-k} are rows [a - k + past, steps - k + past) of a
    context sequence that starts ``past`` steps before the first latent
    step: 0 in training, the carried-over rows in chunked scoring.
    """
    anchors, contexts = [], []
    for k in range(1, K + 1):
        first = max(k - past, 0)
        if first >= steps:
            break
        anchors.append((first, steps))
        contexts.append((first - k + past, steps - k + past))
    return anchors, contexts


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


def positive_logits(params: ModelParams, z: Tensor, c: Tensor, anchors,
                    contexts) -> tuple[Tensor, Tensor]:
    """Predictions W_k c_{t-k} and positive logits z_t . W_k c_{t-k} of the
    (B,T,dim_z) latents ``z``: k-major (S,dim_z) and (S,1) stacks of anchor
    rows, as in :func:`ddcl_terms`.  Training and scoring share this kernel."""
    pred = mdl.predict(params, c, contexts)
    return pred, tn.sum_last(tn.mul(pred, tn.stack_spans(z, anchors)))


def cpc_loss(
    params: ModelParams, z: Tensor, c: Tensor, rng: np.random.Generator, *, N: int,
) -> Tensor:
    """Mean contrastive term over the (B,T_z,·) batch, valid t, and k = 1..K;
    each positive is contrasted in a set of N (N - 1 negatives).  All
    horizons are one k-major stack of anchor rows, and the negatives are
    drawn horizon by horizon."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    batch, t_z, dim_z = z.shape
    K = params.config.K
    if t_z <= K:
        raise ValueError(f"sequence of {t_z} latent steps has no valid positives for K={K}")
    n_pos = batch * t_z
    z_cols = tn.transpose(tn.reshape(z, (n_pos, dim_z)))
    anchors, contexts = horizons(t_z, K)
    sizes = tn.span_rows(batch, anchors)

    pred, pos_logit = positive_logits(params, z, c, anchors, contexts)
    negatives = []
    for first, _ in anchors:  # an anchor row's positive is its own latent row
        pos_idx = (np.arange(batch)[:, None] * t_z + np.arange(first, t_z)[None, :]).ravel()
        negatives.append(sample_negatives(rng, len(pos_idx), n_pos, pos_idx, N - 1))
    neg_logit = tn.gather_last(tn.block_matmul(pred, z_cols, sizes), np.concatenate(negatives))
    logits = tn.concat([pos_logit, neg_logit], axis=1)
    total = tn.sum_blocks(tn.sub(tn.logsumexp_last(logits), pos_logit), sizes)
    return tn.scale(total, 1.0 / sum(sizes))


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
    params: ModelParams, units: Tensor, den: Tensor, c: Tensor, anchors, contexts,
) -> Tensor:
    """DDCL terms of every horizon, a k-major (S,L) stack of anchor rows.

    ``units`` (R,L,D) and ``den`` (R,L) are :func:`view_gram`'s outputs for
    the (b, t)-ordered latent rows of a batch of T-step sequences, ``c``
    (B,T_c,dim_c) their contexts, and ``anchors``/``contexts`` the spans of
    :func:`horizons`.  Term (r,l) is log(h(view_l, pred) + S[r,l]) -
    log h(view_l, pred).  Training and scoring share this kernel.
    """
    units, den = (tn.reshape(t, (c.shape[0], -1) + t.shape[1:]) for t in (units, den))
    pred = tn.unit_rows(mdl.predict(params, c, contexts, ddcl=True))
    cos = tn.span_matvec(units, pred, anchors)
    # h values live in [1/e, e]; the direct form is safe here
    return tn.sub(tn.log(tn.add(tn.exp(cos), tn.stack_spans(den, anchors))), cos)


def ddcl_loss(params: ModelParams, z: Tensor, c: Tensor) -> Tensor:
    """Mean DDCL term over the (B,T_z,·) batch, valid (t,k) pairs, and all L views."""
    batch, t_z, dim_z = z.shape
    if t_z < 2:
        raise ValueError("DDCL needs at least two latent steps (no valid (t,k) pair)")

    units, den = view_gram(params, tn.reshape(z, (batch * t_z, dim_z)))
    anchors, contexts = horizons(t_z, params.config.K)
    terms = ddcl_terms(params, units, den, c, anchors, contexts)
    total = tn.sum_blocks(terms, tn.span_rows(batch, anchors))
    return tn.scale(total, 1.0 / terms.size)


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
