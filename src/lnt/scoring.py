"""Per-timestep anomaly scores from a trained model.

``score_ddcl`` evaluates the DDCL terms of every latent step (no negative
sampling involved, so scoring is fully deterministic) and ``score_cpc_approx``
is the negated positive-logit baseline.  Latent-rate scores are broadcast
back to the raw rate: each latent step covers its r raw frames and trailing
remainder frames inherit the last score.

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


def _at(stage: str, lo: int, hi: int) -> str:
    return f"{stage} at latent steps {lo}..{hi - 1}"


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
        with tn.stage(_at("input", step, real_end)):
            chunk = Tensor(x[None, :, step * r : end * r + lookahead])
        with tn.stage(_at("latents", step, real_end)):
            z = mdl.encode(params, chunk)
            tn.check_stage(z)
        with tn.stage(_at("contexts", step, real_end)):
            c, state = mdl.contextualize_with_state(params, z, state)
            tn.check_stage(c)
        ctx[step:end] = c.data[0]
        yield step, tn.reshape(z, z.shape[1:]), ctx


def _horizons(cfg: mdl.ModelConfig, step: int, m: int, ctx: np.ndarray):
    """(anchors, contexts, c) of the chunk of ``m`` steps from ``step``:
    the spans of ``losses.horizons`` and the (1, T_c, dim_c) ``ctx`` rows
    they index, which start past = min(K, step) steps before the chunk.
    Horizon k's anchors are chunk steps [first, m)."""
    past = min(cfg.K, step)
    anchors, contexts = ls.horizons(m, cfg.K, past)
    return anchors, contexts, Tensor(ctx[None, step - past : step + m - 1])


def _by_horizon(step: int, anchors) -> list[tuple[slice, slice]]:
    """Per horizon, its anchors' steps in the series and their rows in the
    chunk's k-major stack (as ``tensor.stack_spans`` lays them out)."""
    ends = np.cumsum(tn.span_rows(1, anchors)).tolist()
    return [(slice(step + first, step + stop), slice(end - (stop - first), end))
            for (first, stop), end in zip(anchors, ends)]


def _finish(latent: np.ndarray, per_k: int, cfg: mdl.ModelConfig, raw_len: int,
            normalized: bool) -> ScoreSeries:
    if normalized:
        # step t >= 1 has per_k terms for each of its min(t, K) horizons
        latent[1:] /= per_k * np.minimum(np.arange(1, latent.size), cfg.K)
    latent[0] = latent[1]  # step 0 has no c_{t-k}; it copies step 1
    return ScoreSeries(broadcast_scores(latent, cfg.downsample, raw_len), latent)


def score_ddcl(params: ModelParams, x: np.ndarray, normalized: bool = True) -> ScoreSeries:
    """DDCL anomaly score per raw timestep (higher = more anomalous).

    latent score(t) = sum over valid horizons k and all L transformations
    of the DDCL term, divided by the valid-term count unless
    ``normalized=False`` requests the raw sum.  Each horizon's terms are
    summed per step in float64 and added into the score horizon after
    horizon.
    """
    x = _check_series(params, x)
    cfg = params.config
    padded, m_total = _padded(params, x)
    total = np.zeros(cfg.latent_len(padded.shape[1]), dtype=np.float64)

    for step, z, ctx in _iter_chunks(params, padded, m_total):
        m = z.shape[0]
        real_end = min(step + m, m_total)
        anchors, contexts, c = _horizons(cfg, step, m, ctx)
        with tn.stage(_at("bank", step, real_end)):
            units, den = ls.view_gram(params, z)
        with tn.stage(_at("ddcl terms", step + anchors[0][0], real_end)):
            terms = ls.ddcl_terms(
                params, tn.reshape(units, (1, m, cfg.L, cfg.dim_z)),
                tn.reshape(den, (1, m, cfg.L)), c, anchors, contexts,
            )
            tn.check_stage(terms)
        for steps, rows in _by_horizon(step, anchors):
            total[steps] += terms.data[rows].sum(axis=1, dtype=np.float64)

    return _finish(total[:m_total], cfg.L, cfg, x.shape[1], normalized)


def score_cpc_approx(params: ModelParams, x: np.ndarray) -> ScoreSeries:
    """Negated positive logit -z_t . W_k c_{t-k}, averaged over valid k.

    A sampling-free stand-in for the contrastive objective: poorly
    predicted steps score high.
    """
    x = _check_series(params, x)
    cfg = params.config
    padded, m_total = _padded(params, x)
    total = np.zeros(cfg.latent_len(padded.shape[1]), dtype=np.float64)

    for step, z, ctx in _iter_chunks(params, padded, m_total):
        m = z.shape[0]
        anchors, contexts, c = _horizons(cfg, step, m, ctx)
        with tn.stage(_at("cpc logits", step + anchors[0][0], min(step + m, m_total))):
            pred = mdl.predict(params, c, contexts)
            z_rows = tn.stack_spans(tn.reshape(z, (1, m, cfg.dim_z)), anchors)
            logit = tn.sum_last(tn.mul(z_rows, pred))
            tn.check_stage(logit)
        for steps, rows in _by_horizon(step, anchors):
            total[steps] -= logit.data[rows, 0]

    return _finish(total[:m_total], 1, cfg, x.shape[1], True)


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
