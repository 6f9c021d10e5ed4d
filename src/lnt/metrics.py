"""Detection metrics: ROC-AUC and best-F1 over per-timestep scores.

Everything here is plain float64 numpy, deterministic, and exact where the
inputs allow: constant scores give an AUC of exactly 0.5, and the F1 sweep
works from integer confusion counts so equal F1 values compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EvalResult:
    auc: float
    best_f1: float
    best_threshold: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    tn: int


def _validate(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError(f"{scores.size} scores vs {labels.size} labels")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    pos = labels == 1
    if not pos.any() or pos.all():
        raise ValueError(f"all {pos.size} points are labeled "
                         f"{'anomalous' if pos.any() else 'normal'}; metrics need both classes")
    return scores, pos


def _auc(scores, pos, order) -> float:
    """Mann-Whitney AUC from tie-averaged 1-based ranks, given the stable
    ascending ``order`` of ``scores``."""
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


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC from tie-averaged ranks."""
    scores, pos = _validate(scores, labels)
    return _auc(scores, pos, np.argsort(scores, kind="stable"))


def best_f1(scores, labels) -> EvalResult:
    """Exhaustive sweep over every distinct score as threshold.

    F1 is 2tp/(2tp+fp+fn) on integer counts; ties in F1 resolve to the
    lowest threshold, i.e. the highest-recall operating point.
    """
    scores, pos = _validate(scores, labels)
    n_pos = int(pos.sum())

    ascending = np.argsort(scores, kind="stable")
    order = ascending[::-1]
    sorted_pos = pos[order].astype(np.int64)
    cum_tp = np.cumsum(sorted_pos)
    # last index of each distinct value in the descending sort = counts at
    # threshold equal to that value (>= is inclusive)
    s_desc = scores[order]
    last = np.flatnonzero(np.diff(s_desc) != 0)
    last = np.concatenate([last, [scores.size - 1]])
    thresholds = s_desc[last]
    tp = cum_tp[last]
    pp = last + 1
    fp = pp - tp
    fn = n_pos - tp
    f1 = 2.0 * tp / (2.0 * tp + fp + fn)

    best = f1.max()
    # thresholds come out descending, so the last hit is the lowest one
    idx = int(np.flatnonzero(f1 == best)[-1])
    tp_i, fp_i, fn_i = int(tp[idx]), int(fp[idx]), int(fn[idx])
    tn_i = scores.size - tp_i - fp_i - fn_i
    return EvalResult(
        auc=_auc(scores, pos, ascending),
        best_f1=float(best),
        best_threshold=float(thresholds[idx]),
        precision=tp_i / (tp_i + fp_i),
        recall=tp_i / n_pos,
        tp=tp_i,
        fp=fp_i,
        fn=fn_i,
        tn=tn_i,
    )


# ---------------------------------------------------------------------------
# report formatting

_FLOAT_FIELDS = ("auc", "best_f1", "best_threshold", "precision", "recall")
_INT_FIELDS = ("tp", "fp", "fn", "tn")


def result_csv(result: EvalResult) -> str:
    """Header plus one data line; floats at %.9g."""
    header = ",".join(_FLOAT_FIELDS + _INT_FIELDS)
    values = [f"{getattr(result, f):.9g}" for f in _FLOAT_FIELDS]
    values += [str(getattr(result, f)) for f in _INT_FIELDS]
    return header + "\n" + ",".join(values) + "\n"


def result_text(result: EvalResult) -> str:
    """Aligned key/value block for terminals."""
    rows = [(f, f"{getattr(result, f):.6g}") for f in _FLOAT_FIELDS]
    rows += [(f, str(getattr(result, f))) for f in _INT_FIELDS]
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in rows)
