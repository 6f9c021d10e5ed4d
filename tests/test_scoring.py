"""Scoring contracts: broadcast rules, determinism, causality, chunking,
constant-model degeneracy, and naive oracles for both score methods."""

import csv
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    constant_model,
    ddcl_term,
    per_horizon_heads,
    score_cpc_approx_per_horizon,
    score_ddcl_per_horizon,
    tiny_params,
)
from lnt import checkpoint as ckpt
from lnt import data as dt
from lnt import model as mdl
from lnt import scoring as sc
from lnt import tensor as tn
from lnt.data import synth_normal
from lnt.tensor import Tape, Tensor


def lookahead_params(seed=0):
    """Receptive field (6) wider than the stride product (4)."""
    cfg = mdl.ModelConfig(
        in_channels=1, dim_z=6, dim_c=3, K=2, L=3,
        filters=(4, 2), strides=(2, 2), bank_layers=2, bank_width=4,
        sub_seq=16,
    )
    return mdl.init_params(cfg, seed=seed)


# ---------------------------------------------------------------------------
# broadcast


def test_broadcast_exact():
    np.testing.assert_array_equal(
        sc.broadcast_scores(np.array([1.0, 2.0]), 3, 6), [1, 1, 1, 2, 2, 2]
    )


def test_broadcast_remainder_inherits_last():
    np.testing.assert_array_equal(
        sc.broadcast_scores(np.array([1.0, 2.0]), 3, 7), [1, 1, 1, 2, 2, 2, 2]
    )


def test_broadcast_errors():
    with pytest.raises(ValueError):
        sc.broadcast_scores(np.array([]), 3, 6)
    with pytest.raises(ValueError):
        sc.broadcast_scores(np.array([1.0]), 3, 2)
    with pytest.raises(ValueError):
        sc.broadcast_scores(np.array([1.0, 2.0, 3.0]), 3, 8)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), max_size=12),
    st.integers(1, 9),
    st.integers(0, 150),
)
def test_broadcast_property(latent, r, raw_len):
    """Each latent score fills exactly r frames and the tail repeats the
    last one; every input that cannot be laid out so is rejected by name."""
    latent = np.asarray(latent, dtype=np.float64)
    if latent.size == 0:
        with pytest.raises(ValueError, match="empty"):
            sc.broadcast_scores(latent, r, raw_len)
    elif raw_len < r:
        with pytest.raises(ValueError, match="shorter than one latent stride"):
            sc.broadcast_scores(latent, r, raw_len)
    elif raw_len < latent.size * r:
        with pytest.raises(ValueError, match="cannot hold"):
            sc.broadcast_scores(latent, r, raw_len)
    else:
        out = sc.broadcast_scores(latent, r, raw_len)
        assert out.shape == (raw_len,)
        covered = latent.size * r
        np.testing.assert_array_equal(out[:covered].reshape(latent.size, r),
                                      np.repeat(latent[:, None], r, axis=1))
        np.testing.assert_array_equal(out[covered:], latent[-1])


# ---------------------------------------------------------------------------
# determinism / purity


def test_score_ddcl_deterministic():
    params = tiny_params(seed=1)
    x = np.random.default_rng(2).normal(size=(2, 300)).astype(np.float32)
    a = sc.score_ddcl(params, x)
    b = sc.score_ddcl(params, x)
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.latent_scores, b.latent_scores)
    assert len(a.scores) == 300
    assert len(a.latent_scores) == 50


def test_score_cpc_approx_deterministic():
    params = tiny_params(seed=3)
    x = np.random.default_rng(4).normal(size=(2, 300)).astype(np.float32)
    a = sc.score_cpc_approx(params, x)
    b = sc.score_cpc_approx(params, x)
    np.testing.assert_array_equal(a.scores, b.scores)
    assert len(a.scores) == 300


@pytest.mark.parametrize("maker", [tiny_params, lookahead_params])
def test_score_chunk_invariance(maker, monkeypatch):
    """Chunked scoring equals a single-chunk pass (state + context carry)."""
    params = maker(seed=5)
    channels = params.config.in_channels
    x = np.random.default_rng(6).normal(size=(channels, 240)).astype(np.float32)

    def chunked(score, frames):
        monkeypatch.setattr(sc, "CHUNK_STEPS", max(frames // params.config.downsample, 1))
        return score(params, x)

    whole = chunked(sc.score_ddcl, 10_000)
    small = chunked(sc.score_ddcl, params.config.sub_seq)
    odd = chunked(sc.score_ddcl, 36)
    np.testing.assert_allclose(small.scores, whole.scores, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(odd.scores, whole.scores, rtol=1e-5, atol=1e-6)
    whole_c = chunked(sc.score_cpc_approx, 10_000)
    odd_c = chunked(sc.score_cpc_approx, 36)
    np.testing.assert_allclose(odd_c.scores, whole_c.scores, rtol=1e-5, atol=1e-6)


def test_default_chunk_is_chunk_steps_latent_steps():
    params = tiny_params(seed=5)
    r = params.config.downsample
    x = np.zeros((2, (2 * sc.CHUNK_STEPS + 7) * r))
    chunks = [(step, z.shape[0]) for step, z, _ in sc._iter_chunks(params, x)]
    assert chunks == [(i * sc.CHUNK_STEPS, sc.CHUNK_STEPS) for i in range(3)]


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("m", [37, 100, 101, 201, 250])
def test_chunks_match_whole_series_encode_and_contextualize_bitwise(bits, m):
    """The chunks scoring walks, the last one padded with zero frames,
    give the latents, and fill the context buffer with, the bits of one
    whole-series encode and contextualize, for every real step."""
    cfg = mdl.small_config()
    with tn.precision_mode(bits):
        params = mdl.init_params(cfg, seed=3)
        raw = synth_normal(3, (m - 1) * cfg.downsample + cfg.receptive_field, seed=4).values
        x = raw.astype(tn.dtype())
        z_whole = mdl.encode(params, Tensor(x[None]))
        c_whole = mdl.contextualize(params, z_whole).data[0]
        chunks = [(z.data.copy(), ctx) for _, z, ctx in sc._iter_chunks(params, x)]
    assert z_whole.shape[1] == m
    assert len(chunks) == -(-m // sc.CHUNK_STEPS)
    assert all(z.shape[0] == sc.CHUNK_STEPS for z, _ in chunks)
    np.testing.assert_array_equal(np.concatenate([z for z, _ in chunks])[:m], z_whole.data[0])
    np.testing.assert_array_equal(chunks[-1][1][:m], c_whole)


def test_every_prefix_scores_the_bits_of_the_whole_series():
    """Each prefix of M >= 2 latent steps scores the bits of the first M
    steps of the whole series, for both methods: with chunk tails of one
    step (M = 101, 201) and of a few, which BLAS computes with gemv and
    small-matrix kernels unless the chunk is padded."""
    cfg = mdl.small_config()
    params = mdl.init_params(cfg, seed=3)
    full_m = 2 * sc.CHUNK_STEPS + 15
    x = synth_normal(3, (full_m - 1) * cfg.downsample + cfg.receptive_field, seed=4).values
    x = x.astype(np.float32)
    for score in (sc.score_ddcl, sc.score_cpc_approx):
        whole = score(params, x).latent_scores
        for m in range(2, full_m):
            frames = (m - 1) * cfg.downsample + cfg.receptive_field
            got = score(params, x[:, :frames]).latent_scores
            assert np.array_equal(got, whole[:m]), (score.__name__, m)


def test_score_causality_small_config():
    """Scores up to latent step t ignore raw mutations beyond (t+1)*r."""
    params = mdl.init_params(mdl.small_config(), seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 1440)).astype(np.float32)
    base = sc.score_ddcl(params, x)
    cut = 13
    mutated = x.copy()
    mutated[:, cut * 72 :] += rng.normal(size=(3, 1440 - cut * 72)).astype(np.float32)
    after = sc.score_ddcl(params, mutated)
    np.testing.assert_array_equal(after.scores[: cut * 72], base.scores[: cut * 72])
    assert not np.array_equal(after.scores[cut * 72 :], base.scores[cut * 72 :])


def _overflow(part):
    """A tiny model with one part's weights set so large that float32
    overflows there and nowhere before."""
    params = tiny_params(seed=30, separate_ddcl_heads=True)
    weight = {
        "encoder": params.encoder[-1][0].data, "bank": params.bank[-1].data,
        "context": params.context.w_x.data, "ddcl head": params.ddcl_heads.data[0],
        "cpc head": params.heads.data[0],
    }[part]
    weight[...] = 3e38
    if part.endswith("head"):
        # contexts whose entries sum to at least 4, so that W_k c overflows
        params.context.out_bias.data[...] = 2.0
    return params


@pytest.mark.parametrize("part, method, stage", [
    ("encoder", sc.score_ddcl, "latents"),
    ("encoder", sc.score_cpc_approx, "latents"),
    ("context", sc.score_ddcl, "contexts"),
    ("context", sc.score_cpc_approx, "contexts"),
    ("bank", sc.score_ddcl, "bank"),
    ("ddcl head", sc.score_ddcl, "ddcl terms"),
    ("cpc head", sc.score_cpc_approx, "cpc logits"),
])
def test_stage_overflow_raises_naming_the_stage(part, method, stage):
    """Scoring checks finiteness per stage, not per op.  An overflow in
    each part is caught in its stage, even where a saturating op (the
    bank's sigmoid, the GRU's gates) would leave the stage's output
    finite, and the error names the stage and its latent steps."""
    params = _overflow(part)
    x = np.random.default_rng(31).normal(size=(2, 300)).astype(np.float32)
    with pytest.raises(FloatingPointError, match=rf"{stage} at latent steps \d+\.\.\d+"), \
            np.errstate(over="ignore", invalid="ignore"):
        method(params, x)


@pytest.mark.parametrize("value", [np.nan, -3e38])
def test_first_encoder_layer_nan_or_hidden_neg_inf_raises_at_latents(value):
    """A NaN weight carries NaN through every relu to the latents check.
    Weights of -3e38 against a positive input make every pre-activation of
    the first layer -inf; relu would map them to 0 and the latents would be
    finite, so the layer's own -inf check raises, naming the stage."""
    params = tiny_params(seed=32)
    params.encoder[0][0].data[...] = value
    x = np.abs(np.random.default_rng(33).normal(size=(2, 300))).astype(np.float32) + 1
    with pytest.raises(FloatingPointError, match=r"latents at latent steps \d+\.\.\d+"), \
            np.errstate(over="ignore", invalid="ignore"):
        sc.score_ddcl(params, x)


def test_stage_checks_end_with_the_stage():
    """Outside scoring's stages, every op checks its own output again."""
    with pytest.raises(FloatingPointError, match="non-finite values in exp$"):
        with tn.stage("bank at latent steps 0..9"):
            pass
        tn.exp(Tensor([1000.0]))
    with Tape(), pytest.raises(RuntimeError, match="tape-free"):
        with tn.stage("bank"):
            pass


# ---------------------------------------------------------------------------
# constant model


def test_constant_model_scores_constant():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=8), rng.normal(size=4)
    params = constant_model(8, 4, a, b, channels=1, K=2, L=3)
    x = rng.normal(size=(1, 600))
    for series in (sc.score_ddcl(params, x), sc.score_cpc_approx(params, x)):
        assert len(np.unique(series.latent_scores)) == 1
        assert len(np.unique(series.scores)) == 1
        assert len(series.scores) == 600


# ---------------------------------------------------------------------------
# oracles


def test_score_cpc_approx_matches_naive():
    params = tiny_params(seed=10)
    cfg = params.config
    x = np.random.default_rng(11).normal(size=(2, 120)).astype(np.float32)
    series = sc.score_cpc_approx(params, x)

    z = mdl.encode(params, Tensor(x[None])).data[0]
    c = mdl.contextualize(params, Tensor(z[None])).data[0]
    m = len(z)
    expected = np.zeros(m)
    for t in range(m):
        logits = [
            -(z[t] @ (params.heads.data[k - 1] @ c[t - k]))
            for k in range(1, cfg.K + 1)
            if t - k >= 0
        ]
        expected[t] = np.mean(logits) if logits else np.nan
    expected[0] = expected[1]
    np.testing.assert_allclose(series.latent_scores, expected, rtol=1e-5, atol=1e-6)


def test_score_ddcl_matches_term_loop():
    """Normalized latent score equals the mean of per-(k,l) DDCL terms."""
    params = tiny_params(seed=12)
    cfg = params.config
    x = np.random.default_rng(13).normal(size=(2, 120)).astype(np.float32)
    series = sc.score_ddcl(params, x)

    z = mdl.encode(params, Tensor(x[None])).data[0]
    c = mdl.contextualize(params, Tensor(z[None])).data[0]
    m = len(z)
    expected = np.zeros(m)
    for t in range(m):
        views = [Tensor(v) for v in mdl.transform(params, Tensor(z[t : t + 1])).data[0]]
        terms = [
            ddcl_term(params, views, Tensor(c[t - k]), k, l).item()
            for k in range(1, cfg.K + 1)
            if t - k >= 0
            for l in range(cfg.L)
        ]
        expected[t] = np.mean(terms) if terms else np.nan
    expected[0] = expected[1]
    np.testing.assert_allclose(series.latent_scores, expected, rtol=1e-5, atol=2e-6)


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("separate", [True, False])
@pytest.mark.parametrize("K", [1, 4])
def test_stacked_scores_match_per_horizon_reference_bitwise(bits, separate, K):
    """Both scores over all horizons at once give the bytes of scoring
    horizon by horizon, on whole chunks and with a one-step last chunk."""
    cfg = replace(mdl.small_config(), K=K, separate_ddcl_heads=separate)
    with tn.precision_mode(bits):
        params = mdl.init_params(cfg, seed=K)
        reference = per_horizon_heads(params)
        for m in (2 * sc.CHUNK_STEPS, 2 * sc.CHUNK_STEPS + 1):
            frames = (m - 1) * cfg.downsample + cfg.receptive_field
            x = synth_normal(3, frames, seed=m).values.astype(tn.dtype())
            for got, want in [
                (sc.score_ddcl(params, x), score_ddcl_per_horizon(reference, x)),
                (sc.score_ddcl(params, x, normalized=False),
                 score_ddcl_per_horizon(reference, x, normalized=False)),
                (sc.score_cpc_approx(params, x), score_cpc_approx_per_horizon(reference, x)),
            ]:
                assert got.latent_scores.tobytes() == want.latent_scores.tobytes()
                assert got.scores.tobytes() == want.scores.tobytes()


def test_score_ddcl_unnormalized_sum():
    params = tiny_params(seed=14)
    cfg = params.config
    x = np.random.default_rng(15).normal(size=(2, 120)).astype(np.float32)
    norm = sc.score_ddcl(params, x).latent_scores
    raw = sc.score_ddcl(params, x, normalized=False).latent_scores
    # steady state has K valid horizons: sum = mean * K * L
    steady = slice(cfg.K, len(norm))
    np.testing.assert_allclose(raw[steady], norm[steady] * cfg.K * cfg.L, rtol=1e-6)


# ---------------------------------------------------------------------------
# errors and CSV


def test_score_errors():
    params = tiny_params(seed=16)
    with pytest.raises(ValueError):
        sc.score_ddcl(params, np.zeros((5, 300)))  # wrong channels
    with pytest.raises(ValueError):
        sc.score_ddcl(params, np.zeros((2, 11)))  # only one latent step
    with pytest.raises(ValueError):
        sc.score_ddcl(params, np.zeros(300))  # not (C,T)


def test_scores_csv_roundtrip(tmp_path):
    params = tiny_params(seed=17)
    x = np.random.default_rng(18).normal(size=(2, 120)).astype(np.float32)
    series = sc.score_ddcl(params, x)
    labels = (np.random.default_rng(19).uniform(size=120) < 0.2).astype(int)

    plain = tmp_path / "scores.csv"
    sc.save_scores_csv(plain, series)
    scores, got_labels = sc.load_scores_csv(plain)
    assert got_labels is None
    np.testing.assert_allclose(scores, series.scores, rtol=1e-8)
    assert plain.read_text().splitlines()[0] == "index,score"

    labeled = tmp_path / "labeled.csv"
    sc.save_scores_csv(labeled, series, labels)
    scores2, labels2 = sc.load_scores_csv(labeled)
    np.testing.assert_array_equal(labels2, labels)
    np.testing.assert_allclose(scores2, series.scores, rtol=1e-8)

    again = tmp_path / "again.csv"
    sc.save_scores_csv(again, series, labels)
    assert again.read_bytes() == labeled.read_bytes()


def _per_row_scores_writer(path, scores, labels=None):
    """The per-row writer the shared CSV writer replaced, as a byte oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if labels is None:
            writer.writerow(["index", "score"])
            for i, s in enumerate(scores):
                writer.writerow([i, f"{s:.9g}"])
        else:
            writer.writerow(["index", "score", "label"])
            for i, (s, y) in enumerate(zip(scores, labels)):
                writer.writerow([i, f"{s:.9g}", int(y)])


def test_scores_csv_bytes_match_per_row_writer(tmp_path):
    rng = np.random.default_rng(22)
    scores = np.concatenate([
        rng.normal(scale=1e3, size=20_000), rng.lognormal(sigma=30.0, size=200),
        [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 123456789.5],
    ])
    series = sc.ScoreSeries(scores, scores)
    labels = (rng.uniform(size=scores.size) < 0.3).astype(np.int64)
    for name, lab in (("plain", None), ("labeled", labels)):
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_want.csv"
        sc.save_scores_csv(got, series, lab)
        _per_row_scores_writer(want, scores, lab)
        assert got.read_bytes() == want.read_bytes(), name


# finite scores that print unlike their neighbours: signed zeros, subnormals
_EDGE_SCORES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320,
                                2.2250738585072014e-308, 1e-45])


@st.composite
def label_runs(draw, n, max_run):
    """n 0/1 labels in runs of 1..max_run, so that runs start and end
    anywhere: inside a latent step, on its edge, or across a block."""
    labels = np.empty(n, dtype=np.int64)
    pos, value = 0, draw(st.integers(0, 1))
    while pos < n:
        length = draw(st.integers(1, max_run))
        labels[pos : pos + length] = value
        pos, value = pos + length, 1 - value
    return labels


@settings(max_examples=200, deadline=None)
@given(case=st.data())
def test_scores_csv_bytes_match_per_row_writer_property(tmp_path_factory, case):
    """The run-formatted writer writes the per-row writer's bytes for any
    r, remainder frames, block size, label runs or no label column, and
    for scores of -0.0 and subnormals."""
    r = case.draw(st.integers(1, 9), label="r")
    latent = np.array(case.draw(st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), _EDGE_SCORES),
        min_size=1, max_size=30,
    ), label="latent"))
    raw_len = latent.size * r + case.draw(st.integers(0, r - 1), label="remainder")
    scores = sc.broadcast_scores(latent, r, raw_len)
    labels = case.draw(st.none() | label_runs(raw_len, 3 * r + 2), label="labels")
    block = case.draw(st.integers(1, 64), label="block rows")
    path = tmp_path_factory.mktemp("scores")
    with mock.patch.object(dt, "_BLOCK_ROWS", block):
        sc.save_scores_csv(path / "got.csv", sc.ScoreSeries(scores, latent), labels)
    _per_row_scores_writer(path / "want.csv", scores, labels)
    assert (path / "got.csv").read_bytes() == (path / "want.csv").read_bytes()


def test_scores_csv_bad_inputs(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n0,1\n")
    with pytest.raises(ValueError):
        sc.load_scores_csv(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("index,score\n0,1.0\n1\n")
    with pytest.raises(ValueError):
        sc.load_scores_csv(ragged)
    for body, cell in (("0,nan,0\n", "'nan'"), ("0,1.5,7\n", "'7'")):
        bad.write_text("index,score,label\n0,1.0,1\n" + body)
        with pytest.raises(ValueError, match=f"{re.escape(str(bad))}: row 3 .*{cell}"):
            sc.load_scores_csv(bad)
    params = tiny_params(seed=20)
    x = np.random.default_rng(21).normal(size=(2, 60)).astype(np.float32)
    series = sc.score_ddcl(params, x)
    with pytest.raises(ValueError):
        sc.save_scores_csv(tmp_path / "x.csv", series, np.zeros(5))


# ---------------------------------------------------------------------------
# precision


def test_float32_scores_track_float64_on_long_series():
    """One untrained `small` model (seed 0) scores 2,000 latent steps, 20
    chunks of recurrence carried across boundaries, in float32 and in
    float64 with the same weights.  Measured: DDCL max relative difference
    4.3e-8 (abs 1.4e-7 on scores near 3.4); cpc-approx max absolute
    difference 7.3e-9 on scores within 0.005 of zero, where a relative
    bound means nothing.  Bounds, about 10x the measurements: DDCL
    rtol 5e-7 + atol 1e-8, cpc-approx atol 1e-7 + rtol 1e-5."""
    cfg = mdl.small_config()
    p32 = mdl.init_params(cfg, seed=0)
    with tn.precision_mode(64):
        p64, _ = ckpt.model_from_arrays(ckpt.model_to_arrays(p32))
    x = synth_normal(3, 2000 * cfg.downsample + cfg.downsample // 2, seed=10).values
    ddcl32 = sc.score_ddcl(p32, x).latent_scores
    cpc32 = sc.score_cpc_approx(p32, x).latent_scores
    with tn.precision_mode(64):
        ddcl64 = sc.score_ddcl(p64, x).latent_scores
        cpc64 = sc.score_cpc_approx(p64, x).latent_scores
    assert ddcl32.size == 2000 and ddcl32.size >= 20 * sc.CHUNK_STEPS
    np.testing.assert_allclose(ddcl32, ddcl64, rtol=5e-7, atol=1e-8)
    np.testing.assert_allclose(cpc32, cpc64, rtol=1e-5, atol=1e-7)
