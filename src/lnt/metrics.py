"""Detection metrics: ROC-AUC and best-F1 over per-timestep scores.

Everything here is plain float64 numpy, deterministic, and exact where the
inputs allow: constant scores give an AUC of exactly 0.5, and the F1 sweep
works from integer confusion counts so equal F1 values compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    pos = labels == 1
    if not pos.any() or pos.all():
        raise ValueError(f"all {pos.size} points are labeled "
                         f"{'anomalous' if pos.any() else 'normal'}; metrics need both classes")
    return scores, pos


def _tie_groups(scores, pos):
    """The distinct scores ascending, with each one's point and positive
    counts.  The sort is stable, so a group of 0.0 and -0.0 takes the sign
    of its first point."""
    s = np.sort(scores, kind="stable")
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    values = s[starts]
    del s  # freed before the positives' two copies, full length when most points are
    positive = np.sort(scores[pos])
    positives = np.searchsorted(positive, values, "right") - np.searchsorted(positive, values)
    return values, np.diff(np.append(starts, scores.size)), positives


def _auc(counts, positives) -> float:
    """Mann-Whitney AUC from tie-averaged 1-based ranks, given the tie
    groups' point and positive counts in ascending score order.  A group's
    ranks average to its first rank plus (count - 1) / 2, so twice the
    positives' rank sum is a whole number, exact in integers."""
    firsts = np.cumsum(counts) - counts + 1
    n, n_pos = int(counts.sum()), int(positives.sum())
    u = int(positives @ (2 * firsts + counts - 1)) / 2 - 0.5 * n_pos * (n_pos + 1)
    return float(u / (n_pos * (n - n_pos)))


def roc_auc(scores, labels) -> float:
    """Mann-Whitney AUC from tie-averaged ranks."""
    _, counts, positives = _tie_groups(*_validate(scores, labels))
    return _auc(counts, positives)


def best_f1(scores, labels) -> EvalResult:
    """Exhaustive sweep over every distinct score as threshold.

    F1 is 2tp/(2tp+fp+fn) on integer counts; ties in F1 resolve to the
    lowest threshold, i.e. the highest-recall operating point.
    """
    scores, pos = _validate(scores, labels)
    values, counts, positives = _tie_groups(scores, pos)
    n_pos = int(positives.sum())
    # thresholds descending; each counts the points at or above it (>= is
    # inclusive)
    thresholds = values[::-1]
    tp = np.cumsum(positives[::-1])
    fp = np.cumsum(counts[::-1]) - tp
    fn = n_pos - tp
    f1 = 2.0 * tp / (2.0 * tp + fp + fn)

    best = f1.max()
    # the last hit is the lowest threshold
    idx = int(np.flatnonzero(f1 == best)[-1])
    tp_i, fp_i, fn_i = int(tp[idx]), int(fp[idx]), int(fn[idx])
    tn_i = scores.size - tp_i - fp_i - fn_i
    return EvalResult(
        auc=_auc(counts, positives),
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

def _cells(result: EvalResult, float_format: str) -> list[tuple[str, str]]:
    """(name, text) per ``EvalResult`` field: counts whole, floats in
    ``float_format``."""
    return [(f.name, str(v) if f.type == "int" else format(v, float_format))
            for f in fields(result) for v in [getattr(result, f.name)]]


def result_csv(result: EvalResult) -> str:
    """Header plus one data line; floats at %.9g."""
    names, values = zip(*_cells(result, ".9g"))
    return ",".join(names) + "\n" + ",".join(values) + "\n"


def result_text(result: EvalResult) -> str:
    """Aligned key/value block for terminals."""
    rows = _cells(result, ".6g")
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in rows)
