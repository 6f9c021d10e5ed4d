import dataclasses

import numpy as np
import pytest
from helpers import best_f1_by_rank, roc_auc_by_rank

from lnt.metrics import (
    EvalResult,
    best_f1,
    result_csv,
    result_text,
    roc_auc,
)
from lnt.scoring import broadcast_scores


def pairwise_auc(scores, labels):
    """O(n^2) Mann-Whitney oracle: wins + half-ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += float((p > neg).sum()) + 0.5 * float((p == neg).sum())
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# roc_auc


def test_auc_perfect_and_inverted():
    scores = np.array([0.9, 0.8, 0.1, 0.2])
    labels = np.array([1, 1, 0, 0])
    assert roc_auc(scores, labels) == 1.0
    assert roc_auc(-scores, labels) == 0.0


def test_auc_constant_scores_exact_half():
    labels = np.array([0, 1, 0, 1, 1, 0, 0, 1, 0, 0])
    assert roc_auc(np.full(10, 3.7), labels) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(10, 200))
        scores = rng.normal(size=n)
        if trial % 2:
            scores = np.round(scores, 1)  # force ties
        labels = (rng.uniform(size=n) < 0.3).astype(int)
        if labels.sum() in (0, n):
            continue
        assert abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-9


def test_auc_affine_invariance():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=120)
    labels = (rng.uniform(size=120) < 0.4).astype(int)
    assert roc_auc(scores * 7.5 + 3.0, labels) == roc_auc(scores, labels)


def test_auc_label_swap_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        scores = np.round(rng.normal(size=80), 1)
        labels = (rng.uniform(size=80) < 0.5).astype(int)
        if labels.sum() in (0, 80):
            continue
        # exact up to the rounding of the two final divisions
        assert roc_auc(scores, 1 - labels) == pytest.approx(
            1.0 - roc_auc(scores, labels), abs=1e-12
        )


def test_auc_point_order_invariance():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=50)
    labels = (rng.uniform(size=50) < 0.5).astype(int)
    perm = rng.permutation(50)
    assert roc_auc(scores[perm], labels[perm]) == roc_auc(scores, labels)


def test_auc_rejects_single_class():
    with pytest.raises(ValueError, match="both classes"):
        roc_auc(np.arange(5.0), np.ones(5, dtype=int))
    with pytest.raises(ValueError, match="both classes"):
        roc_auc(np.arange(5.0), np.zeros(5, dtype=int))


def test_validation_errors():
    with pytest.raises(ValueError, match="scores"):
        roc_auc(np.arange(4.0), np.array([0, 1, 0]))
    with pytest.raises(ValueError, match="finite"):
        roc_auc(np.array([0.0, np.nan]), np.array([0, 1]))
    with pytest.raises(ValueError, match="0 or 1"):
        roc_auc(np.arange(3.0), np.array([0, 1, 2]))


# ---------------------------------------------------------------------------
# best_f1


def test_best_f1_textbook_case():
    result = best_f1([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert result.best_f1 == 1.0
    assert result.best_threshold == 0.8
    assert result.precision == 1.0 and result.recall == 1.0
    assert (result.tp, result.fp, result.fn, result.tn) == (2, 0, 0, 2)


def test_best_f1_tie_takes_lower_threshold():
    # f1 = 2/3 at threshold 4 (tp1 fp0 fn1) and at threshold 1 (tp2 fp2 fn0)
    result = best_f1([4.0, 3.0, 2.0, 1.0], [1, 0, 0, 1])
    assert result.best_f1 == 2.0 / 3.0
    assert result.best_threshold == 1.0
    assert result.recall == 1.0


def test_best_f1_threshold_is_inclusive():
    result = best_f1([1.0, 1.0, 0.0], [1, 1, 0])
    assert result.best_threshold == 1.0
    assert result.tp == 2


def test_best_f1_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 60))
        scores = np.round(rng.normal(size=n), 1)
        labels = (rng.uniform(size=n) < rng.uniform(0.1, 0.9)).astype(int)
        if labels.sum() in (0, n):
            continue
        checked += 1
        result = best_f1(scores, labels)
        best = (-1.0, np.inf)
        for threshold in np.unique(scores):
            pred = scores >= threshold
            tp = int((pred & (labels == 1)).sum())
            fp = int((pred & (labels == 0)).sum())
            fn = int((~pred & (labels == 1)).sum())
            f1 = 2.0 * tp / (2.0 * tp + fp + fn)
            if f1 > best[0] or (f1 == best[0] and threshold < best[1]):
                best = (f1, threshold, tp, fp, fn)
        assert result.best_f1 == best[0]
        assert result.best_threshold == best[1]
        assert (result.tp, result.fp, result.fn) == best[2:]


def _heavy_ties(rng):
    """200 draws of a few distinct values, a quarter of them 0.0, -0.0 and 1.5."""
    for trial in range(200):
        n = int(rng.integers(2, 400))
        values = [-0.0, 0.0, 1.5] if trial % 4 == 0 else rng.normal(size=int(rng.integers(1, 12)))
        labels = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(np.int64)
        if 0 < labels.sum() < n:
            yield rng.choice(values, size=n), labels


def _oracle_cases(name):
    rng = np.random.default_rng(11)
    if name == "heavy-ties":
        return list(_heavy_ties(rng))
    if name == "all-equal":
        return [(np.full(50, 2.5), np.arange(50) % 3 == 0)]
    if name == "single-positive":
        return [(rng.normal(size=300), np.arange(300) == 17)]
    if name == "negative":
        return [(-np.abs(rng.normal(size=500)) - 3.0, rng.integers(0, 2, size=500))]
    labels = np.zeros(50_000, dtype=np.int64)  # a 50k-row score CSV's runs
    labels[10_000:14_000] = labels[30_000:31_000] = 1
    return [(broadcast_scores(rng.normal(size=50_000 // 72), 72, 50_000), labels)]


@pytest.mark.parametrize("name", ["heavy-ties", "all-equal", "single-positive", "negative",
                                  "runs-50k"])
def test_metrics_over_tie_groups_keep_every_bit(name):
    """``best_f1`` and ``roc_auc`` sum over tie groups; every field has the
    value, bits and type of the per-point rank and cumulative-count form."""
    for scores, labels in _oracle_cases(name):
        got, want = best_f1(scores, labels), best_f1_by_rank(scores, labels)
        for field in dataclasses.fields(EvalResult):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b), (name, field.name)
            assert np.array(a).tobytes() == np.array(b).tobytes(), (name, field.name, a, b)
        auc = roc_auc(scores, labels)
        assert type(auc) is float and auc == roc_auc_by_rank(scores, labels) == got.auc


def test_evaluate_combines_auc_and_f1():
    result = best_f1([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert isinstance(result, EvalResult)
    assert result.auc == 1.0 and result.best_f1 == 1.0


# ---------------------------------------------------------------------------
# formatting


def test_result_csv_shape():
    result = best_f1([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    text = result_csv(result)
    lines = text.strip().split("\n")
    assert lines[0].split(",")[:2] == ["auc", "best_f1"]
    values = lines[1].split(",")
    assert len(values) == len(lines[0].split(","))
    assert float(values[0]) == 1.0
    assert values[-4:] == ["2", "0", "0", "2"]


def test_result_text_is_aligned():
    result = best_f1([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
    block = result_text(result)
    lines = block.strip().split("\n")
    assert len(lines) == 9
    offsets = {len(line) - len(line.split()[-1]) for line in lines}
    assert len(offsets) == 1  # values start in one column


def test_formatting_is_deterministic():
    result = best_f1([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert result_csv(result) == result_csv(result)
    assert result_text(result) == result_text(result)
