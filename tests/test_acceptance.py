"""Acceptance gate: nine end-to-end guarantees the package commits to.

Each test is one criterion, named so that ``pytest -v`` reads as a
pass/fail checklist.  Slow detection runs (criteria 5 and 6) train real
models on synthetic data and dominate the runtime of this file.
"""

import math
import time

import numpy as np
from helpers import constant_model, ddcl_term, fd_grad_inplace, rel_err, tiny_config

from lnt import checkpoint as ckpt
from lnt import cli
from lnt import data as dt
from lnt import losses as ls
from lnt import metrics as mt
from lnt import model as mdl
from lnt import scoring as sc
from lnt import tensor as tn
from lnt import training as tr
from lnt.tensor import Tape, Tensor, backward

DETECTION_SEEDS = (0, 1, 2)


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_autodiff_matches_finite_differences():
    started = time.perf_counter()
    with tn.precision_mode(64):
        params = mdl.init_params(tiny_config(separate_ddcl_heads=True), seed=0)
        # batch 2, T=48 -> T_z=8
        x = np.random.default_rng(1).normal(size=(2, 2, 48))

        def loss_value():
            total, _, _ = ls.unified_loss(
                params, Tensor(x), np.random.default_rng(5), lam=0.5, cpc_weight=1.0, N=8)
            return total.item()

        with Tape():
            total, _, _ = ls.unified_loss(
                params, Tensor(x), np.random.default_rng(5), lam=0.5, cpc_weight=1.0, N=8)
            backward(total)
        named = params.named_parameters()
        analytic = {name: t.grad.copy() for name, t in named.items()}

        worst_name, worst = "", 0.0
        n_scalars = 0
        for name, tensor in named.items():
            numeric = fd_grad_inplace(loss_value, tensor.data, eps=1e-4)
            n_scalars += tensor.data.size
            err = rel_err(analytic[name], numeric)
            if err > worst:
                worst_name, worst = name, err
            assert err <= 1e-3, f"{name}: rel err {err:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    print(f"\n[criterion 1] PASS — max rel err {worst:.2e} ({worst_name}) "
          f"over {n_scalars} parameters in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. contrastive closed forms


def test_criterion_2_contrastive_closed_forms():
    with tn.precision_mode(64):
        # (a) identical latents everywhere: every logit ties -> loss = log N
        params = mdl.init_params(tiny_config(), seed=0)
        row = np.random.default_rng(0).normal(size=8)
        z = Tensor(np.tile(row, (2, 6, 1)))
        c = Tensor(np.random.default_rng(1).normal(size=(2, 6, 4)))
        cpc = ls.cpc_loss(params, z, c, np.random.default_rng(2), N=16).item()
        cpc_gap = abs(cpc - math.log(16))
        assert cpc_gap <= 1e-6

        # (b) uniform view similarities: every DDCL softmax ties -> log L.
        # With zero bank weights each view equals z itself, and choosing
        # a = pad(b) makes the identity heads predict a exactly, so every
        # similarity in the term is h(a, a) = e.
        b = np.random.default_rng(3).normal(size=4)
        a = np.zeros(8)
        a[:4] = b
        const = constant_model(8, 4, a, b, channels=1, K=2, L=3)
        x1 = Tensor(np.random.default_rng(4).normal(size=(1, 1, 600)))
        zt = mdl.encode(const, x1)
        ct = mdl.contextualize(const, zt)
        mean_term = ls.ddcl_loss(const, zt, ct).item()
        views = mdl.transform(const, tn.reshape(zt, zt.shape[1:]))
        one_term = ddcl_term(
            const, [Tensor(v.copy()) for v in views.data[2]],
            Tensor(ct.data[0, 1].copy()), k=1, l=1).item()
        ddcl_gap = max(abs(mean_term - math.log(3)), abs(one_term - math.log(3)))
        assert ddcl_gap <= 1e-6

        # (c) self-similarity peaks at h(z, z) = e
        v = Tensor(np.random.default_rng(5).normal(size=(1, 7)))
        h = tn.exp(tn.sum_last(tn.mul(tn.unit_rows(v), tn.unit_rows(v))))
        h_gap = abs(float(h.data[0, 0]) - math.e)
        assert h_gap <= 1e-6
    print(f"\n[criterion 2] PASS — |cpc-logN|={cpc_gap:.1e}, "
          f"|ddcl-logL|={ddcl_gap:.1e}, |h(z,z)-e|={h_gap:.1e}")


# ---------------------------------------------------------------------------
# 3. constant-model corollary


def test_criterion_3_constant_model_terms_and_scores():
    rng = np.random.default_rng(0)
    a = rng.normal(size=6)
    b = rng.normal(size=5)
    const = constant_model(6, 5, a, b, channels=2, K=3, L=4)
    cfg = const.config

    values = []
    for _ in range(2):  # two unrelated random inputs
        x = np.asarray(rng.normal(size=(1, 2, 1100)), dtype=tn.dtype())
        z = mdl.encode(const, Tensor(x))
        c = mdl.contextualize(const, z)
        views = mdl.transform(const, tn.reshape(z, z.shape[1:]))
        t_z = z.data.shape[1]
        for t in range(1, t_z):
            row_views = [Tensor(v.copy()) for v in views.data[t]]
            for k in range(1, min(cfg.K, t) + 1):
                for l in range(cfg.L):
                    term = ddcl_term(
                        const, row_views, Tensor(c.data[0, t - k].copy()), k, l)
                    values.append(term.item())
    assert len(values) > 100
    assert len(set(values)) == 1, "DDCL terms must be bitwise identical"

    series = sc.score_ddcl(const, rng.normal(size=(2, 2000)))
    assert np.unique(series.scores).size == 1, "score series must be constant"
    labels = (np.arange(series.scores.size) % 7 == 0).astype(np.int64)
    auc = mt.roc_auc(series.scores, labels)
    assert auc == 0.5
    print(f"\n[criterion 3] PASS — {len(values)} identical terms "
          f"(value {values[0]:.6f}), constant scores, AUC == 0.5 exactly")


# ---------------------------------------------------------------------------
# 4. deterministic and causal scoring


def test_criterion_4_scoring_deterministic_and_causal():
    cfg = mdl.small_config(channels=3)
    params = mdl.init_params(cfg, seed=7)
    r = cfg.downsample
    rng = np.random.default_rng(8)
    x = np.asarray(rng.normal(size=(3, 2880)), dtype=tn.dtype())

    first = sc.score_ddcl(params, x)
    again = sc.score_ddcl(params, x)
    assert np.array_equal(first.scores, again.scores)

    # rewrite every raw frame after latent step t; the score prefix
    # through raw index t*r must not move by a single bit
    t = 13
    x2 = x.copy()
    tail = x.shape[1] - (t + 1) * r
    x2[:, (t + 1) * r:] = rng.normal(size=(3, tail)).astype(x2.dtype)
    other = sc.score_ddcl(params, x2)
    assert np.array_equal(first.scores[: t * r + 1], other.scores[: t * r + 1])
    assert not np.array_equal(first.scores, other.scores), \
        "the mutated tail must actually change later scores"
    print(f"\n[criterion 4] PASS — rescore bitwise-identical; prefix "
          f"scores[0..{t * r}] untouched by future-frame edits")


# ---------------------------------------------------------------------------
# 5. detection quality on synthetic data


def _detection_series(seed):
    """Standardized train/test split, derived from one master seed."""
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=3)
    train = dt.synth_normal(3, 50_000, seed=int(seeds[0]))
    test = dt.synth_normal(3, 20_000, seed=int(seeds[1]))
    test = dt.inject_sine_anomalies(test, dt.InjectionSpec(seed=int(seeds[2])))
    stats = dt.compute_stats(train)
    return dt.standardize(train, stats), dt.standardize(test, stats)


def test_criterion_5_detection_beats_baselines():
    started = time.perf_counter()
    aucs = {"untrained": [], "ddcl": [], "cpc": []}
    for seed in DETECTION_SEEDS:
        train_std, test_std = _detection_series(seed)
        cfg = mdl.small_config(channels=3)
        params = mdl.init_params(cfg, seed=seed)
        x_test = np.asarray(test_std.values, dtype=tn.dtype())
        labels = test_std.labels

        aucs["untrained"].append(
            mt.roc_auc(sc.score_ddcl(params, x_test).scores, labels))

        wins = dt.window(
            np.asarray(train_std.values, dtype=tn.dtype()), cfg.sub_seq, 72)
        tr.fit(params, wins, tr.TrainConfig(lr=1e-3, lam=0.1, epochs=20,
                                            seed=seed))
        aucs["ddcl"].append(
            mt.roc_auc(sc.score_ddcl(params, x_test).scores, labels))
        aucs["cpc"].append(
            mt.roc_auc(sc.score_cpc_approx(params, x_test).scores, labels))

    mean = {k: float(np.mean(v)) for k, v in aucs.items()}
    elapsed = time.perf_counter() - started
    assert elapsed <= 1800.0
    assert mean["ddcl"] >= 0.75, f"mean DDCL AUC {mean['ddcl']:.3f}"
    assert mean["ddcl"] >= mean["untrained"] + 0.10, \
        f"ddcl {mean['ddcl']:.3f} vs untrained {mean['untrained']:.3f}"
    assert mean["ddcl"] >= mean["cpc"] + 0.02, \
        f"ddcl {mean['ddcl']:.3f} vs cpc-approx {mean['cpc']:.3f}"
    print(f"\n[criterion 5] PASS — mean AUC ddcl {mean['ddcl']:.3f}, "
          f"cpc-approx {mean['cpc']:.3f}, untrained {mean['untrained']:.3f} "
          f"(seeds {DETECTION_SEEDS}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 6. DDCL-only training collapses the latent space


def _directional_spread(params, wins):
    """Mean across-window std of unit-normalized latent rows.

    The DDCL is cosine-based and hence scale-free in z, so a collapsing
    encoder concentrates latent *directions* while norms drift freely;
    the meaningful spread is measured on the unit sphere.
    """
    zs = []
    for w in wins:
        z = mdl.encode(params, Tensor(w[None])).data[0].astype(np.float64)
        norms = np.maximum(np.linalg.norm(z, axis=-1, keepdims=True), 1e-12)
        zs.append(z / norms)
    return float(np.stack(zs).std(axis=0).mean())


def test_criterion_6_ddcl_only_training_collapses_latents():
    started = time.perf_counter()
    ratios = []
    for seed in DETECTION_SEEDS:
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=3)
        train = dt.synth_normal(3, 50_000, seed=int(seeds[0]))
        train_std = dt.standardize(train, dt.compute_stats(train))
        cfg = mdl.small_config(channels=3)
        params = mdl.init_params(cfg, seed=seed)
        wins = dt.window(
            np.asarray(train_std.values, dtype=tn.dtype()), cfg.sub_seq, 360)
        probe = wins[:64]
        before = _directional_spread(params, probe)
        tr.fit(params, wins, tr.TrainConfig(lr=3e-3, lam=1.0, cpc_weight=0.0,
                                            epochs=50, seed=seed))
        after = _directional_spread(params, probe)
        ratios.append(before / after)
    mean_ratio = float(np.mean(ratios))
    elapsed = time.perf_counter() - started
    assert mean_ratio >= 10.0, f"mean collapse ratio {mean_ratio:.1f}"
    print(f"\n[criterion 6] PASS — latent spread shrank {mean_ratio:.0f}x "
          f"(per-seed {', '.join(f'{q:.0f}x' for q in ratios)}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 7. metric oracles


def test_criterion_7_metrics_match_naive_oracles():
    rng = np.random.default_rng(0)

    # AUC vs the O(n^2) pairwise count on 200 points with plenty of ties
    scores = np.round(rng.normal(size=200), 1)
    labels = (rng.uniform(size=200) < 0.4).astype(np.int64)
    pos, neg = scores[labels == 1], scores[labels == 0]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    oracle = (greater + 0.5 * ties) / (pos.size * neg.size)
    auc_gap = abs(mt.roc_auc(scores, labels) - oracle)
    assert auc_gap <= 1e-9

    # best F1 vs an exhaustive threshold sweep, exact on 100 instances
    for _ in range(100):
        n = int(rng.integers(5, 60))
        s = np.round(rng.normal(size=n), 1)
        y = (rng.uniform(size=n) < 0.5).astype(np.int64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        best = -1.0
        for thr in np.unique(s):
            pred = s >= thr
            tp = int((pred & (y == 1)).sum())
            fp = int((pred & (y == 0)).sum())
            fn = int((~pred & (y == 1)).sum())
            best = max(best, 2 * tp / (2 * tp + fp + fn))
        assert mt.best_f1(s, y).best_f1 == best
    print(f"\n[criterion 7] PASS — AUC gap {auc_gap:.1e} on 200 points; "
          f"best F1 exact on 100 random instances")


# ---------------------------------------------------------------------------
# 8. checkpoint round-trip


def test_criterion_8_checkpoint_roundtrip_preserves_scores(tmp_path):
    cfg = mdl.small_config(channels=3)
    params = mdl.init_params(cfg, seed=11)
    x = np.asarray(np.random.default_rng(12).normal(size=(3, 1440)),
                   dtype=tn.dtype())
    before = sc.score_ddcl(params, x)

    path = tmp_path / "model.lntc"
    ckpt.save_model(path, params)
    loaded, extra = ckpt.load_model(path)
    assert loaded.config == cfg
    assert extra == {}
    after = sc.score_ddcl(loaded, x)
    assert np.array_equal(before.scores, after.scores)
    print("\n[criterion 8] PASS — save/load/score bitwise-identical "
          f"({path.stat().st_size} byte checkpoint)")


# ---------------------------------------------------------------------------
# 9. synthesis and injection audit


def _tone_frequency(y, rate=16000.0):
    """Frequency of a single sampled sinusoid via the three-term recurrence.

    y[t+1] + y[t-1] = 2 cos(w) y[t] holds exactly for any amplitude and
    phase, so a least-squares fit for cos(w) recovers the frequency even
    from a fraction of one cycle.
    """
    num = float((y[1:-1] * (y[2:] + y[:-2])).sum())
    den = 2.0 * float((y[1:-1] ** 2).sum())
    c = num / den
    return float(np.arccos(np.clip(c, -1.0, 1.0))) * rate / (2.0 * math.pi)


def _label_runs(labels):
    lab = np.concatenate(([0], (np.asarray(labels) != 0).astype(np.int8), [0]))
    edges = np.diff(lab)
    starts = np.flatnonzero(edges == 1)
    return list(zip(starts, np.flatnonzero(edges == -1) - starts))


def test_criterion_9_synthesis_injection_audit(tmp_path):
    t = np.arange(700)
    known = 0.37 * np.sin(2 * math.pi * 57.25 * t / 16000.0 + 0.9)
    assert abs(_tone_frequency(known) - 57.25) < 1e-6  # estimator self-check

    fractions, n_tones = [], 0
    for seed in range(20):
        out = tmp_path / f"s{seed}"
        rc = cli.main([
            "synth", "--out-dir", str(out), "--seed", str(seed),
            "--channels", "3", "--train-length", "2000",
            "--test-length", "20000",
        ])
        assert rc == 0
        test = dt.load_csv(out / "test.csv")
        assert test.labels is not None
        frac = float(np.mean(test.labels))
        fractions.append(frac)
        assert abs(frac - 0.10) <= 0.02

        # the file must match its documented construction: master seed ->
        # three derived seeds (train, test background, injection)
        seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=3)
        clean = dt.synth_normal(3, 20_000, seed=int(seeds[1]))
        rebuilt = dt.inject_sine_anomalies(
            clean, dt.InjectionSpec(seed=int(seeds[2])))
        np.testing.assert_allclose(test.values, rebuilt.values,
                                   rtol=0.0, atol=1e-6)

        # at 10% of 20000 frames the whole budget fits in one tone; audit
        # a denser injection as well so multi-tone draws are covered
        dense = dt.inject_sine_anomalies(
            clean, dt.InjectionSpec(fraction=0.3, seed=int(seeds[2])))
        for injected in (rebuilt, dense):
            tone = injected.values - clean.values
            runs = _label_runs(injected.labels)
            assert runs
            for start, length in runs:
                n_tones += 1
                assert 512 <= length <= 4096, f"tone length {length}"
                freq = _tone_frequency(tone[0, start: start + length])
                assert 20.0 - 0.01 <= freq <= 120.0 + 0.01, f"tone freq {freq}"
    lo, hi = min(fractions), max(fractions)
    print(f"\n[criterion 9] PASS — 20 seeds, {n_tones} tones in band, "
          f"fractions {lo:.3f}..{hi:.3f}")
