"""Per-timestep anomaly scores from a trained model.

``score_ddcl`` evaluates the DDCL terms of every latent step (no negative
sampling involved, so scoring is fully deterministic) and ``score_cpc_approx``
is the negated positive-logit baseline.  Both run one walk over the
series, and each computes its terms with the kernel its training loss
uses, ``losses.ddcl_terms`` or ``losses.positive_logits``.  Latent-rate
scores are broadcast back to the raw rate: each latent step covers its r
raw frames and trailing remainder frames inherit the last score.

Long series are walked in chunks of ``CHUNK_STEPS`` latent steps, aligned
to the downsample factor, with the recurrent state carried across
boundaries and enough raw lookahead that every chunk's latent steps see
their full receptive field.  Contexts go into one buffer for the whole
series, so c_{t-k} is a row of it whichever chunk computed it.  The series
is padded with zero frames to a whole number of chunks, and the padded
steps' scores are dropped.  So every chunk's products have one shape, and
a step's bits cannot depend on where the series ends: BLAS computes a
one-row product with gemv and a product of a few rows with small-matrix
kernels, and both round differently from the full chunk's gemm.  Every
prefix of a series scores the bits of the same steps of the whole series,
and repeated calls on identical inputs are bitwise-identical.

The forward records no tape and is checked for finiteness once per stage
(``tensor.stage``): the input chunk, the latents, the bank, the contexts,
and the DDCL terms or cpc logits.  An error names the stage and its
latent steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as ls
from . import model as mdl
from . import tensor as tn
from .data import read_csv, write_csv
from .model import ModelParams
from .tensor import Tensor

# latent steps per scoring chunk.  On 200k frames of the small config,
# 100 to 400 steps scored equally fast within noise, while 50 steps and
# one whole-series chunk were slower; 100 keeps a chunk's arrays small.
CHUNK_STEPS = 100


@dataclass
class ScoreSeries:
    """Raw-rate scores aligned with the input, plus the latent-rate source."""

    scores: np.ndarray
    latent_scores: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.scores)):
            raise FloatingPointError("non-finite anomaly scores")


def broadcast_scores(latent_scores: np.ndarray, r: int, raw_len: int) -> np.ndarray:
    """Repeat each latent score r times; remainder frames get the last one."""
    latent_scores = np.asarray(latent_scores)
    if latent_scores.size == 0:
        raise ValueError("cannot broadcast an empty latent score sequence")
    if raw_len < r:
        raise ValueError(f"raw length {raw_len} shorter than one latent stride {r}")
    if raw_len < latent_scores.size * r:
        raise ValueError(
            f"raw length {raw_len} cannot hold {latent_scores.size} latent steps of {r} frames"
        )
    out = np.empty(raw_len, dtype=latent_scores.dtype)
    covered = latent_scores.size * r
    out[:covered] = np.repeat(latent_scores, r)
    out[covered:] = latent_scores[-1]
    return out


def _check_series(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"expected a (channels, time) series, got shape {x.shape}")
    cfg = params.config
    if x.shape[0] != cfg.in_channels:
        raise ValueError(f"expected {cfg.in_channels} channels, got {x.shape[0]}")
    if cfg.latent_len(x.shape[1]) < 2:
        raise ValueError(
            "series yields fewer than two latent steps; nothing to score "
            f"(length {x.shape[1]}, downsample {cfg.downsample})"
        )
    return x


def _padded(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, int]:
    """``x`` with zero frames appended until its latent steps fill whole
    chunks, and the latent step count M of ``x`` itself."""
    cfg = params.config
    m_total = cfg.latent_len(x.shape[1])
    steps = -(-m_total // CHUNK_STEPS) * CHUNK_STEPS
    if steps == m_total:
        return x, m_total
    frames = (steps - 1) * cfg.downsample + cfg.receptive_field
    out = np.zeros((x.shape[0], frames), dtype=x.dtype)
    out[:, : x.shape[1]] = x
    return out, m_total


def _stage(name: str, lo: int, hi: int):
    return tn.stage(f"{name} at latent steps {lo}..{hi - 1}")


def _iter_chunks(params: ModelParams, x: np.ndarray, real_steps: int):
    """Yield (step, z, ctx) per chunk of ``CHUNK_STEPS`` latent steps of
    ``x``, a series padded by :func:`_padded`.

    ``z`` is the chunk's (m, dim_z) latent Tensor, starting at latent step
    ``step``; ``ctx`` is the (M, dim_c) context buffer of the whole series,
    filled through the chunk's last step, so c_{t-k} is ``ctx[t - k]``.
    Errors name latent steps below ``real_steps``, the steps of ``x``
    before padding.
    """
    cfg = params.config
    r = cfg.downsample
    lookahead = cfg.receptive_field - r
    m_total = cfg.latent_len(x.shape[1])
    ctx = np.empty((m_total, cfg.dim_c), dtype=tn.dtype())
    state = None
    for step in range(0, m_total, CHUNK_STEPS):
        end = step + CHUNK_STEPS
        real_end = min(end, real_steps)
        with _stage("input", step, real_end):
            chunk = Tensor(x[None, :, step * r : end * r + lookahead])
        with _stage("latents", step, real_end):
            z = mdl.encode(params, chunk)
            tn.check_stage(z)
        with _stage("contexts", step, real_end):
            c, state = mdl.contextualize_with_state(params, z, state)
            tn.check_stage(c)
        ctx[step:end] = c.data[0]
        yield step, tn.reshape(z, z.shape[1:]), ctx


def _walk(params: ModelParams, x: np.ndarray, kernel, normalized: bool) -> ScoreSeries:
    """The walk both methods share.  Per chunk of :func:`_iter_chunks`, it
    takes the spans of ``losses.horizons`` and the (1, T_c, dim_c) context
    rows they index, from past = min(K, step) steps before the chunk, and
    ``kernel(z, c, anchors, contexts, lo, hi)`` returns the k-major (S, n)
    stack of the terms of the chunk's steps lo..hi - 1 of ``x``.  Each
    horizon's row sums are added into the score in float64.  A normalized
    score divides step t's sum by its n * min(t, K) terms; step 0 has no
    c_{t-k} and copies step 1."""
    x = _check_series(params, x)
    cfg = params.config
    padded, m_total = _padded(params, x)
    total = np.zeros(cfg.latent_len(padded.shape[1]), dtype=np.float64)
    for step, z, ctx in _iter_chunks(params, padded, m_total):
        m = z.shape[0]
        past = min(cfg.K, step)
        anchors, contexts = ls.horizons(m, cfg.K, past)
        c = Tensor(ctx[None, step - past : step + m - 1])
        terms = kernel(z, c, anchors, contexts, step, min(step + m, m_total))
        blocks = np.split(terms, np.cumsum(tn.span_rows(1, anchors))[:-1])
        for (first, stop), block in zip(anchors, blocks):
            total[step + first : step + stop] += block.sum(axis=1, dtype=np.float64)

    latent = total[:m_total]
    if normalized:
        latent[1:] /= terms.shape[1] * np.minimum(np.arange(1, m_total), cfg.K)
    latent[0] = latent[1]
    return ScoreSeries(broadcast_scores(latent, cfg.downsample, x.shape[1]), latent)


def score_ddcl(params: ModelParams, x: np.ndarray, normalized: bool = True) -> ScoreSeries:
    """DDCL anomaly score per raw timestep (higher = more anomalous).

    latent score(t) = sum over valid horizons k and all L transformations
    of the DDCL term, divided by the valid-term count unless
    ``normalized=False`` requests the raw sum.
    """
    def kernel(z, c, anchors, contexts, lo, hi):
        with _stage("bank", lo, hi):
            units, den = ls.view_gram(params, z)
        with _stage("ddcl terms", lo + anchors[0][0], hi):
            terms = ls.ddcl_terms(params, units, den, c, anchors, contexts)
            tn.check_stage(terms)
        return terms.data

    return _walk(params, x, kernel, normalized)


def score_cpc_approx(params: ModelParams, x: np.ndarray) -> ScoreSeries:
    """Negated positive logit -z_t . W_k c_{t-k}, averaged over valid k.

    A sampling-free stand-in for the contrastive objective: poorly
    predicted steps score high.
    """
    def kernel(z, c, anchors, contexts, lo, hi):
        with _stage("cpc logits", lo + anchors[0][0], hi):
            _, logits = ls.positive_logits(
                params, tn.reshape(z, (1,) + z.shape), c, anchors, contexts)
            tn.check_stage(logits)
        return -logits.data

    return _walk(params, x, kernel, True)


# ---------------------------------------------------------------------------
# score CSV round-trip


def save_scores_csv(path, series: ScoreSeries, labels: np.ndarray | None = None) -> None:
    """Write `index,score[,label]`, one row per raw timestep."""
    if labels is not None and len(labels) != len(series.scores):
        raise ValueError("labels length does not match score length")
    header = ["index", "score"]
    columns = [np.arange(len(series.scores)), series.scores]
    if labels is not None:
        header.append("label")
        columns.append(np.asarray(labels).astype(np.int64))
    write_csv(path, header, columns)


def load_scores_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a score CSV; returns (scores, labels or None)."""
    _, values, labels = read_csv(path, require=("index", "score"))
    return values[1], labels
