"""Per-timestep anomaly scores from a trained model.

``score_ddcl`` evaluates the DDCL terms of every latent step (no negative
sampling involved, so scoring is fully deterministic) and ``score_cpc_approx``
is the negated positive-logit baseline.  Latent-rate scores are broadcast
back to the raw rate: each latent step covers its r raw frames and trailing
remainder frames inherit the last score.

Long series are walked in chunks aligned to the downsample factor with the
recurrent state carried across boundaries, plus enough raw lookahead that
every chunk's latent steps see their full receptive field, so chunking
introduces no boundary artifacts.  A chunk holds ``CHUNK_STEPS`` latent
steps unless ``chunk_len`` (raw frames) says otherwise.  Repeated calls on
identical inputs are bitwise-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    r: int
    meta: dict = field(default_factory=dict)

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


def _iter_chunks(params: ModelParams, x: np.ndarray, chunk_len: int | None):
    """Yield (z_chunk, horizons) per chunk.

    ``z_chunk`` is the (m, dim_z) latent Tensor.  ``horizons`` holds one
    (k, t0, c_prev, rows) per horizon with a valid step in the chunk:
    chunk-local steps [t0, m) pair with the context rows c_{t-k} in
    ``c_prev`` (carried across chunk boundaries) and land on the global
    latent steps ``rows``.
    """
    cfg = params.config
    r, rf, K = cfg.downsample, cfg.receptive_field, cfg.K
    lookahead = rf - r
    m_total = cfg.latent_len(x.shape[1])
    if chunk_len is None:
        chunk_m = CHUNK_STEPS
    elif chunk_len < 1:
        raise ValueError(f"chunk length must be >= 1, got {chunk_len}")
    else:
        chunk_m = max(chunk_len // r, 1)

    state = None
    tail = None
    step = 0
    while step < m_total:
        this_m = min(chunk_m, m_total - step)
        pos = step * r
        piece = x[None, :, pos : pos + this_m * r + lookahead]
        z = mdl.encode(params, Tensor(piece))
        c, state = mdl.contextualize_with_state(
            params, z, None if state is None else state.detach()
        )
        ctx_all = c.data[0] if tail is None else np.concatenate([tail, c.data[0]], axis=0)
        tail_n = ctx_all.shape[0] - this_m
        horizons = []
        for k in range(1, K + 1):
            t0 = max(0, k - step)  # first chunk-local step with c_{t-k} available
            if t0 < this_m:
                c_prev = Tensor(ctx_all[tail_n + t0 - k : tail_n + this_m - k])
                horizons.append((k, t0, c_prev, slice(step + t0, step + this_m)))
        yield tn.reshape(z, z.shape[1:]), horizons
        tail = ctx_all[-min(K, ctx_all.shape[0]) :]
        step += this_m


def _finish(latent: np.ndarray, counts: np.ndarray, raw_len: int, r: int,
            normalized: bool, meta: dict) -> ScoreSeries:
    if normalized:
        scored = counts > 0
        latent = latent.copy()
        latent[scored] /= counts[scored]
    # leading steps with no valid horizon inherit the first computed score
    first = int(np.argmax(counts > 0))
    latent[:first] = latent[first]
    return ScoreSeries(
        scores=broadcast_scores(latent, r, raw_len),
        latent_scores=latent,
        r=r,
        meta=meta,
    )


def score_ddcl(
    params: ModelParams, x: np.ndarray,
    normalized: bool = True, chunk_len: int | None = None,
) -> ScoreSeries:
    """DDCL anomaly score per raw timestep (higher = more anomalous).

    latent score(t) = sum over valid horizons k and all L transformations
    of the DDCL term, divided by the valid-term count unless
    ``normalized=False`` requests the raw sum.
    """
    x = _check_series(params, x)
    cfg = params.config
    L = cfg.L
    total = np.zeros(cfg.latent_len(x.shape[1]), dtype=np.float64)
    counts = np.zeros_like(total)

    for z, horizons in _iter_chunks(params, x, chunk_len):
        this_m = z.shape[0]
        units, den = ls.view_gram(params, z)
        for k, t0, c_prev, rows in horizons:
            terms = ls.ddcl_terms(
                params, tn.slice_axis(units, t0, this_m), tn.slice_axis(den, t0, this_m),
                c_prev, k,
            )
            total[rows] += terms.data.sum(axis=1, dtype=np.float64)
            counts[rows] += L

    meta = {"method": "ddcl", "normalized": normalized, "K": cfg.K, "L": L}
    return _finish(total, counts, x.shape[1], cfg.downsample, normalized, meta)


def score_cpc_approx(
    params: ModelParams, x: np.ndarray, chunk_len: int | None = None,
) -> ScoreSeries:
    """Negated positive logit -z_t . W_k c_{t-k}, averaged over valid k.

    A sampling-free stand-in for the contrastive objective: poorly
    predicted steps score high.
    """
    x = _check_series(params, x)
    cfg = params.config
    total = np.zeros(cfg.latent_len(x.shape[1]), dtype=np.float64)
    counts = np.zeros_like(total)

    for z, horizons in _iter_chunks(params, x, chunk_len):
        for k, t0, c_prev, rows in horizons:
            pred = mdl.predict_rows(params, c_prev, k)
            anchor = tn.slice_axis(z, t0, z.shape[0])
            logit = tn.sum_last(tn.mul(anchor, pred))
            total[rows] -= logit.data[:, 0]
            counts[rows] += 1

    meta = {"method": "cpc-approx", "normalized": True, "K": cfg.K}
    return _finish(total, counts, x.shape[1], cfg.downsample, True, meta)


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
