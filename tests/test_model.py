"""Architecture contracts: shapes, causality, mask bound, constant model,
and bit-exact checkpoint round-trips."""

import hashlib
import math
import struct
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    constant_model,
    encode_channel_major,
    fd_grad_inplace,
    rel_err,
    sum_all,
    tiny_config,
)
from lnt import checkpoint as ckpt
from lnt import model as mdl
from lnt import tensor as tn
from lnt.tensor import Tensor


# a tiny model (L=3, separate DDCL heads, decoder) saved by the code before
# the bank was stacked (commit 92d6b55): fresh init_params(seed=5) and
# init_decoder(seed=6), plus one extra "norm.mean" array
FIXTURE = Path(__file__).parent / "fixtures" / "tiny_per_transform_bank.lntc"


def small(channels=3, **over):
    cfg = mdl.small_config(channels)
    return mdl.ModelConfig(**{**cfg.__dict__, **over}) if over else cfg


def test_config_downsample_and_receptive_field():
    cfg = mdl.small_config()
    assert cfg.downsample == 72
    assert cfg.receptive_field == 72
    audio = mdl.audio_config()
    assert audio.downsample == 160
    assert audio.receptive_field == 465


def test_config_validation():
    with pytest.raises(ValueError):
        mdl.ModelConfig(K=0)
    with pytest.raises(ValueError):
        mdl.ModelConfig(L=1)
    with pytest.raises(ValueError, match="sub_seq must be >= 1, got 0"):
        mdl.ModelConfig(sub_seq=0)
    with pytest.raises(ValueError):
        mdl.ModelConfig(filters=(3, 3), strides=(3,))
    with pytest.raises(ValueError, match="filters and strides must be non-empty"):
        mdl.ModelConfig(filters=(), strides=())  # failed as a bare min() of an empty sequence
    with pytest.raises(ValueError):
        mdl.builtin_config("huge")


def test_latent_len():
    cfg = mdl.small_config()
    assert cfg.latent_len(720) == 10
    assert cfg.latent_len(750) == 10  # trailing remainder starts no new step
    assert cfg.latent_len(72) == 1
    with pytest.raises(ValueError):
        cfg.latent_len(71)
    # with a receptive field wider than the stride, steps need lookahead
    assert mdl.audio_config().latent_len(20480) == 126


def test_latent_len_matches_conv_stack():
    """floor((T - rf)/r) + 1 equals the stacked valid-conv output length."""
    for cfg in (mdl.small_config(1), mdl.audio_config()):
        params = mdl.init_params(cfg, seed=0)
        rng = np.random.default_rng(1)
        for t in (cfg.receptive_field, cfg.receptive_field + 1, 700, 731, 1111):
            if t < cfg.receptive_field:
                continue
            z = mdl.encode(params, Tensor(rng.normal(size=(1, cfg.in_channels, t))))
            assert z.shape[1] == cfg.latent_len(t), (cfg.filters, t)


def test_encode_shapes_small():
    params = mdl.init_params(small(), seed=0)
    z = mdl.encode(params, Tensor(np.random.default_rng(0).normal(size=(1, 3, 720))))
    assert z.shape == (1, 10, 128)


def test_encode_ignores_trailing_remainder():
    params = mdl.init_params(small(), seed=0)
    x = np.random.default_rng(1).normal(size=(1, 3, 750)).astype(np.float32)
    full = mdl.encode(params, Tensor(x))
    trimmed = mdl.encode(params, Tensor(x[:, :, :720]))
    np.testing.assert_array_equal(full.data, trimmed.data)


def test_encode_zero_weights_zero_input():
    cfg = small(conv_bias=False)
    params = mdl.init_params(cfg, seed=0)
    for w, b in params.encoder:
        w.data[:] = 0.0
        assert b is None
    z = mdl.encode(params, Tensor(np.zeros((1, 3, 720))))
    np.testing.assert_array_equal(z.data, np.zeros((1, 10, 128)))


def test_encode_channel_mismatch():
    params = mdl.init_params(small(), seed=0)
    with pytest.raises(ValueError):
        mdl.encode(params, Tensor(np.zeros((1, 6, 720))))


def test_encode_too_short():
    params = mdl.init_params(small(), seed=0)
    with pytest.raises(ValueError):
        mdl.encode(params, Tensor(np.zeros((1, 3, 71))))


def test_forward_rejects_unbatched_input():
    """encode, contextualize and decode take only (B, ...) batches."""
    params = mdl.init_params(small(), seed=0)
    mdl.init_decoder(params, seed=1)
    with pytest.raises(ValueError, match="batch"):
        mdl.encode(params, Tensor(np.zeros((3, 720))))
    with pytest.raises(ValueError, match="batch"):
        mdl.contextualize(params, Tensor(np.zeros((10, 128))))
    with pytest.raises(ValueError, match="batch"):
        mdl.decode(params, Tensor(np.zeros((10, 128))))


def test_encode_causality():
    """Latent step t never sees raw frames at index >= (t+1)*r."""
    params = mdl.init_params(small(), seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 3, 720)).astype(np.float32)
    base = mdl.encode(params, Tensor(x)).data[0].copy()
    cut = 5
    mutated = x.copy()
    mutated[:, :, cut * 72 :] += rng.normal(size=(3, 720 - cut * 72)).astype(np.float32)
    z2 = mdl.encode(params, Tensor(mutated)).data[0]
    np.testing.assert_array_equal(z2[:cut], base[:cut])
    assert not np.array_equal(z2[cut:], base[cut:])


def test_encode_batched_matches_single():
    params = mdl.init_params(small(), seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 3, 720)).astype(np.float32)
    zb = mdl.encode(params, Tensor(x))
    assert zb.shape == (3, 10, 128)
    for i in range(3):
        np.testing.assert_array_equal(zb.data[i], mdl.encode(params, Tensor(x[i : i + 1])).data[0])


def test_contextualize_causality_and_determinism():
    params = mdl.init_params(small(), seed=7)
    rng = np.random.default_rng(8)
    z = rng.normal(size=(1, 10, 128)).astype(np.float32)
    c1 = mdl.contextualize(params, Tensor(z)).data[0]
    c2 = mdl.contextualize(params, Tensor(z)).data[0]
    np.testing.assert_array_equal(c1, c2)
    mutated = z.copy()
    mutated[:, 6:] += 1.0
    c3 = mdl.contextualize(params, Tensor(mutated)).data[0]
    np.testing.assert_array_equal(c3[:6], c1[:6])
    assert not np.array_equal(c3[6:], c1[6:])


def test_contextualize_zero_weights_zero_state():
    params = constant_model(8, 4, np.zeros(8), np.zeros(4))
    z = Tensor(np.random.default_rng(9).normal(size=(1, 5, 8)))
    c = mdl.contextualize(params, z)
    np.testing.assert_array_equal(c.data, np.zeros((1, 5, 4)))


def test_contextualize_batched_matches_single():
    """Every sample's contexts carry the same bits in a batch as alone."""
    for seed in (10, 20, 30, 40, 50):
        params = mdl.init_params(small(), seed=seed)
        rng = np.random.default_rng(seed + 1)
        z = rng.normal(size=(4, 6, 128)).astype(np.float32)
        state = rng.normal(size=(4, 32)).astype(np.float32)
        cb, sb = mdl.contextualize_with_state(params, Tensor(z), Tensor(state))
        assert cb.shape == (4, 6, 32)
        for i in range(4):
            one, s1 = mdl.contextualize_with_state(
                params, Tensor(z[i : i + 1]), Tensor(state[i : i + 1]))
            np.testing.assert_array_equal(cb.data[i], one.data[0])
            np.testing.assert_array_equal(sb.data[i], s1.data[0])


def test_contextualize_grad_fd_with_carried_state():
    """FD gradients of every GRU entry (the six stacks) through two chunks,
    the second starting from the state the first one carried out."""
    with tn.precision_mode(64):
        cfg = mdl.ModelConfig(in_channels=1, dim_z=3, dim_c=4, K=1, L=2, bank_width=2)
        params = mdl.init_params(cfg, seed=14)
        rng = np.random.default_rng(15)
        # zero at init; b_ru's 8 draws are the 4 of b_r then the 4 of b_u
        params.context.b_ru.data[:] = rng.normal(scale=0.5, size=8)
        params.context.b_n.data[:] = rng.normal(scale=0.5, size=4)
        z = rng.normal(size=(2, 5, 3))
        start = rng.normal(scale=0.5, size=(2, 4))

        def run():
            c1, carried = mdl.contextualize_with_state(params, Tensor(z[:, :2]), Tensor(start))
            c2, _ = mdl.contextualize_with_state(params, Tensor(z[:, 2:]), carried)
            c = tn.concat([c1, c2], axis=1)
            return sum_all(tn.mul(c, c))

        with tn.Tape():
            tn.backward(run())
        for name, weight in zip(mdl.GruParams._fields, params.context):
            num = fd_grad_inplace(lambda: run().item(), weight.data)
            assert rel_err(weight.grad, num) <= 1e-6, name


def test_contextualize_shape_mismatch():
    params = mdl.init_params(small(), seed=16)
    with pytest.raises(ValueError, match="width 128"):
        mdl.contextualize(params, Tensor(np.zeros((1, 4, 5))))
    with pytest.raises(ValueError, match=r"\(2, 32\) state"):
        mdl.contextualize_with_state(params, Tensor(np.zeros((2, 4, 128))),
                                     Tensor(np.zeros((1, 32))))


def test_contextualize_state_carry():
    """Chunked runs with carried state equal one unchunked run."""
    params = mdl.init_params(small(), seed=12)
    rng = np.random.default_rng(13)
    z = rng.normal(size=(1, 9, 128)).astype(np.float32)
    full = mdl.contextualize(params, Tensor(z)).data
    c1, state = mdl.contextualize_with_state(params, Tensor(z[:, :4]))
    c2, _ = mdl.contextualize_with_state(params, Tensor(z[:, 4:]), state)
    np.testing.assert_array_equal(np.concatenate([c1.data, c2.data], axis=1), full)


def test_predict_identity_zero_and_oracle():
    cfg = mdl.ModelConfig(in_channels=1, dim_z=6, dim_c=6, K=2, bank_width=4)
    params = mdl.init_params(cfg, seed=14)
    c = np.random.default_rng(15).normal(size=(1, 1, 6)).astype(np.float32)
    params.heads.data[0] = np.eye(6, dtype=np.float32)
    params.heads.data[1] = 0.0
    pred = mdl.predict(params, Tensor(c), [(0, 1), (0, 1)]).data
    np.testing.assert_array_equal(pred, np.concatenate([c[0], np.zeros((1, 6))]))
    w = np.random.default_rng(16).normal(size=(6, 6)).astype(np.float32)
    params.heads.data[0] = w
    np.testing.assert_allclose(
        mdl.predict(params, Tensor(c), [(0, 1)]).data[0], w @ c[0, 0], rtol=1e-6
    )


def test_predict_k_out_of_range():
    params = mdl.init_params(small(), seed=17)
    c = Tensor(np.zeros((1, 1, 32)))
    with pytest.raises(ValueError, match="expected 1..4 horizon spans, got 0"):
        mdl.predict(params, c, [])
    with pytest.raises(ValueError, match="expected 1..4 horizon spans, got 5"):
        mdl.predict(params, c, [(0, 1)] * 5)


def test_predict_rows_matches_vector():
    """Horizon k's block of a k-major stack holds W_k c_t for each t of its
    span, the values of predicting each context row alone."""
    params = mdl.init_params(small(), seed=18)
    rows = np.random.default_rng(19).normal(size=(2, 7, 32)).astype(np.float32)
    spans = [(0, 7), (1, 6), (3, 7)]
    batch = mdl.predict(params, Tensor(rows), spans).data
    assert batch.shape == (2 * (7 + 5 + 4), 128)
    i = 0
    for k, (start, stop) in enumerate(spans, start=1):
        for b in range(2):
            for t in range(start, stop):
                one = mdl.predict(params, Tensor(rows[b : b + 1, t : t + 1]), [(0, 1)] * k)
                np.testing.assert_allclose(batch[i], one.data[-1], rtol=1e-5, atol=1e-6)
                i += 1


def test_transform_zero_gives_zero():
    params = mdl.init_params(small(), seed=20)
    views = mdl.transform(params, Tensor(np.zeros((1, 128))))
    np.testing.assert_array_equal(views.data, np.zeros((1, 12, 128)))


def test_transform_identical_params_identical_views():
    params = mdl.init_params(small(), seed=21)
    for w in params.bank:
        w.data[1] = w.data[0]
    z = Tensor(np.random.default_rng(22).normal(size=(1, 128)))
    views = mdl.transform(params, z).data[0]
    np.testing.assert_array_equal(views[0], views[1])


def test_transform_mask_bound():
    params = mdl.init_params(small(), seed=23)
    z = np.random.default_rng(24).normal(size=(1, 128)).astype(np.float32)
    z[z == 0.0] = 1.0  # ensure all coordinates nonzero
    for v in mdl.transform(params, Tensor(z)).data[0]:
        assert np.all(np.abs(v) < np.abs(z[0]))


def test_transform_rows_match_single():
    params = mdl.init_params(small(), seed=25)
    rows = np.random.default_rng(26).normal(size=(5, 128)).astype(np.float32)
    batched = mdl.transform(params, Tensor(rows))
    assert batched.shape == (5, 12, 128)
    for i in range(5):
        single = mdl.transform(params, Tensor(rows[i : i + 1]))
        np.testing.assert_allclose(batched.data[i], single.data[0], rtol=1e-5, atol=1e-6)


def test_transform_matches_per_transform_mlp():
    """View l of the stacked bank is transform l's own MLP mask times z."""
    with tn.precision_mode(64):
        params = mdl.init_params(small(bank_layers=3, L=4), seed=52)
        rows = np.random.default_rng(53).normal(size=(6, 128))
        views = mdl.transform(params, Tensor(rows)).data
        for l in range(4):
            h = rows
            for w in params.bank[:-1]:
                h = np.maximum(h @ w.data[l].T, 0.0)
            mask = 1.0 / (1.0 + np.exp(-(h @ params.bank[-1].data[l].T)))
            np.testing.assert_allclose(views[:, l], mask * rows, rtol=1e-12, atol=1e-15)


def test_transform_record_count_independent_of_l():
    """The bank is stacked: its tape cost does not grow with L."""
    counts = []
    for n_views in (3, 12):
        params = mdl.init_params(small(L=n_views), seed=54)
        z = Tensor(np.ones((4, 128)), requires_grad=True)
        with tn.Tape() as tape:
            mdl.transform(params, z)
        counts.append(len(tape))
    assert counts[0] == counts[1], counts


def test_encode_is_one_record_per_layer():
    """Bias and relu fold into each conv record, and an untracked batch is
    transposed to time-major without one; a tracked one adds the transpose."""
    params = mdl.init_params(small(), seed=56)
    x = np.random.default_rng(57).normal(size=(2, 3, 720))
    for tracked, expected in ((False, 4), (True, 5)):
        with tn.Tape() as tape:
            z = mdl.encode(params, Tensor(x, requires_grad=tracked))
            assert len(tape) == expected
        assert z.data.flags.c_contiguous


@pytest.mark.parametrize("batch", [2, 5])
def test_encode_keeps_the_bits_of_the_channel_major_encoder(batch):
    """The time-major encoder gives the latents and the encoder gradients
    of the channel-major one, bit for bit, at B > 1.  At B = 1 the
    channel-major patch and gradient matrices were transposed views, not
    copies, and BLAS sums dw in another order for them, so the bits
    differ there."""
    params = mdl.init_params(small(), seed=58)
    x = np.random.default_rng(59).normal(size=(batch, 3, 1440)).astype(np.float32)
    weights = np.random.default_rng(60).normal(size=(batch, 20, 128)).astype(np.float32)
    runs = []
    for encode in (mdl.encode, encode_channel_major):
        with tn.Tape():
            z = encode(params, Tensor(x))
            tn.backward(sum_all(tn.mul(z, Tensor(weights))))
        runs.append([z.data] + [t.grad for w, b in params.encoder for t in (w, b)])
        for w, b in params.encoder:
            w.grad = b.grad = None
    for new, old in zip(*runs):
        np.testing.assert_array_equal(new, old)


def test_contextualize_record_count_independent_of_t():
    """The recurrence is one record: the context's tape cost does not grow
    with the sequence length."""
    params = mdl.init_params(small(), seed=55)
    counts = []
    for t_z in (1, 10, 100):
        z = Tensor(np.ones((2, t_z, 128)), requires_grad=True)
        with tn.Tape() as tape:
            mdl.contextualize_with_state(params, z)
        counts.append(len(tape))
    assert counts[0] == counts[1] == counts[2], counts


def test_constant_model_input_invariance():
    rng = np.random.default_rng(27)
    a, b = rng.normal(size=8), rng.normal(size=4)
    params = constant_model(8, 4, a, b, channels=2, K=3, L=4)
    x1 = Tensor(rng.normal(size=(1, 2, 720)))
    x2 = Tensor(rng.normal(size=(1, 2, 720)))
    z1, z2 = mdl.encode(params, x1), mdl.encode(params, x2)
    np.testing.assert_array_equal(z1.data, z2.data)
    np.testing.assert_allclose(z1.data[0], np.tile(a.astype(np.float32), (10, 1)), rtol=1e-6)
    c1 = mdl.contextualize(params, z1)
    np.testing.assert_allclose(c1.data[0], np.tile(b.astype(np.float32), (10, 1)), rtol=1e-6)
    # every latent step identical bitwise
    for t in range(1, 10):
        np.testing.assert_array_equal(z1.data[0, t], z1.data[0, 0])
        np.testing.assert_array_equal(c1.data[0, t], c1.data[0, 0])


def test_decode_shape_contract():
    cfg = small(45)
    params = mdl.init_params(cfg, seed=28)
    mdl.init_decoder(params, seed=29)
    z = Tensor(np.random.default_rng(30).normal(size=(2, 10, 128)))
    out = mdl.decode(params, z)
    assert out.shape == (2, 45, 720)


def test_decode_zero():
    params = mdl.init_params(small(), seed=31)
    mdl.init_decoder(params, seed=32)
    for w, b in params.decoder:
        w.data[:] = 0.0
        b.data[:] = 0.0
    out = mdl.decode(params, Tensor(np.zeros((1, 4, 128))))
    np.testing.assert_array_equal(out.data, np.zeros((1, 3, 288)))


def test_decode_missing_decoder():
    params = mdl.init_params(small(), seed=33)
    with pytest.raises(ValueError):
        mdl.decode(params, Tensor(np.zeros((1, 4, 128))))


def test_decode_audio_crops_to_r_per_step():
    cfg = mdl.audio_config()
    params = mdl.init_params(cfg, seed=34)
    mdl.init_decoder(params, seed=35)
    out = mdl.decode(params, Tensor(np.zeros((1, 3, 512))))
    assert out.shape == (1, 1, 3 * 160)


def test_init_deterministic_and_scaled():
    a = mdl.init_params(small(), seed=42)
    b = mdl.init_params(small(), seed=42)
    c = mdl.init_params(small(), seed=43)
    na, nb, nc = a.named_parameters(), b.named_parameters(), c.named_parameters()
    assert list(na) == list(nb) == list(nc)
    assert all(np.array_equal(na[k].data, nb[k].data) for k in na)
    assert any(not np.array_equal(na[k].data, nc[k].data) for k in na)
    w0 = na["encoder.layer0.weight"].data
    assert np.abs(w0).max() <= 1.0 / np.sqrt(3 * 3)
    np.testing.assert_array_equal(na["context.b_ru"].data, np.zeros(64))


# sha256 over sorted names of "<name> <shape>" and the float32 bytes of
# model_to_arrays(init_params(config, seed)), recorded before init_params drew
# into the split views: a seed's weights, names and shapes stay what they were
_SEED_DIGESTS = {
    ("small", 0): "c3e16685a243047ed930037d5b22b57fb71ca320d5f40e5f3c3d4c10200bbb0c",
    ("small", 7): "0dfa5ca5922a1c403d080b5a878dfdb50c4806d5343cd7bf7b5650f243bccfb6",
    ("audio", 0): "ce6a8e36fab6a89472f3af3c7103eb3fa3943b7642e8fa247929ecfea5a41a99",
    ("audio", 7): "ae9fd3ef4d6695de81096cb2c79bcdd8619a16269bcb5d4873e0740b651a2eec",
    ("tiny", 0): "93598ad33c6e889b88d4fd8c4feb9d22196b6da0365f3a4d6b6cc77c3978eb11",
    ("tiny", 7): "594c342a706f33510d9a0f6866df89322b7424be017509ef8f86a08779b6476a",
}


@pytest.mark.parametrize("name, seed", list(_SEED_DIGESTS),
                         ids=[f"{n}-{s}" for n, s in _SEED_DIGESTS])
def test_seed_draws_the_recorded_weights(name, seed):
    config = {
        "small": mdl.small_config(),
        "audio": mdl.audio_config(),
        "tiny": tiny_config(separate_ddcl_heads=False, conv_bias=False, bank_layers=3),
    }[name]
    arrays = ckpt.model_to_arrays(mdl.init_params(config, seed))
    digest = hashlib.sha256()
    for key in sorted(arrays):
        digest.update(f"{key} {arrays[key].shape}".encode())
        digest.update(np.ascontiguousarray(arrays[key], dtype="<f4").tobytes())
    assert digest.hexdigest() == _SEED_DIGESTS[name, seed]


def test_bank_is_bias_free():
    params = mdl.init_params(small(), seed=44)
    names = params.named_parameters()
    assert not any("bank" in n and "bias" in n for n in names)
    assert [w.shape for w in params.bank] == [(12, 24, 128), (12, 128, 24)]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_arrays_roundtrip(tmp_path):
    rng = np.random.default_rng(45)
    arrays = {
        "alpha": rng.normal(size=(3, 4)).astype(np.float32),
        "beta.gamma": rng.normal(size=7).astype(np.float32),
        "scalar": np.asarray(2.5, dtype=np.float32),
    }
    path = tmp_path / "t.lnt"
    ckpt.save_arrays(path, arrays)
    loaded = ckpt.load_arrays(path)
    assert path.read_bytes()[:4] == b"LNTC" and set(loaded) == set(arrays)
    for k in arrays:
        assert loaded[k].dtype == np.float32
        assert loaded[k].shape == arrays[k].shape
        np.testing.assert_array_equal(loaded[k], arrays[k])


def test_checkpoint_bytes_deterministic(tmp_path):
    params = mdl.init_params(small(), seed=46)
    p1, p2 = tmp_path / "a.lnt", tmp_path / "b.lnt"
    ckpt.save_model(p1, params)
    ckpt.save_model(p2, params)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_model_roundtrip_bitwise(tmp_path):
    cfg = small(separate_ddcl_heads=True)
    params = mdl.init_params(cfg, seed=47)
    mdl.init_decoder(params, seed=48)
    extra = {"norm.mean": np.array([1.0, 2.0, 3.0], dtype=np.float32)}
    path = tmp_path / "model.lnt"
    ckpt.save_model(path, params, extra)
    loaded, leftover = ckpt.load_model(path)
    assert loaded.config == cfg
    np.testing.assert_array_equal(leftover["norm.mean"], extra["norm.mean"])
    orig, rest = params.named_parameters(), loaded.named_parameters()
    assert list(orig) == list(rest)
    for name in orig:
        np.testing.assert_array_equal(orig[name].data, rest[name].data)


@pytest.mark.parametrize("entry,value", [("dim_z", 65536), ("L", 2**20)])
def test_checkpoint_config_sizes_checked_before_allocating(tmp_path, entry, value):
    """A config entry that sizes tensors is checked against the file before
    a model is built at its size: dim_z = 65,536 asked for 96 GiB at once
    (MemoryError), and L = 2**20 allocated for seconds before failing."""
    arrays = ckpt.model_to_arrays(mdl.init_params(small(), seed=56))
    arrays[f"config.{entry}"] = np.asarray(float(value))
    path = tmp_path / "huge.lntc"
    ckpt.save_arrays(path, arrays)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"'config.{entry}' asks for size {value}"):
        ckpt.load_model(path)
    assert time.perf_counter() - started < 1.0


def test_checkpoint_config_entries_must_fit_float32(tmp_path):
    """2**24 + 1 used to save as float32 and load back as 2**24."""
    path = tmp_path / "model.lntc"
    with pytest.raises(ValueError, match="'config.sub_seq' = 16777217"):
        ckpt.save_model(path, mdl.init_params(small(sub_seq=2**24 + 1), seed=57))
    assert not path.exists()
    ckpt.save_model(path, mdl.init_params(small(sub_seq=2**24), seed=57))
    assert ckpt.load_model(path)[0].config.sub_seq == 2**24


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A saved `small` checkpoint with the CLI's norm.* arrays, and the byte
    offsets of its structure: the file header, every tensor's header and
    every config value."""
    path = tmp_path_factory.mktemp("small") / "model.lntc"
    extra = {"norm.mean": np.array([0.5, -1.0, 2.0]), "norm.std": np.array([1.0, 2.0, 0.5]),
             "norm.keep": np.array([1.0, 1.0, 0.0])}
    ckpt.save_model(path, mdl.init_params(small(), seed=58), extra)
    blob = path.read_bytes()
    structure, off = list(range(12)), 12
    while off < len(blob):
        (name_len,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2 : off + 2 + name_len].decode()
        rank = blob[off + 2 + name_len]
        shape = struct.unpack_from(f"<{rank}I", blob, off + 3 + name_len)
        head, size = 3 + name_len + 4 * rank, 4 * math.prod(shape)
        structure += range(off, off + head + (size if name.startswith("config.") else 0))
        off += head + size
    return blob, structure


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_checkpoint_mutation_fails_or_round_trips(small_checkpoint, tmp_path_factory, data):
    """A `small` checkpoint truncated at any byte or with any one bit
    flipped either fails to load with ValueError/FloatingPointError or loads
    a model that saves back to exactly the mutated bytes."""
    blob, structure = small_checkpoint
    if data.draw(st.booleans(), label="truncate"):
        mutated = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        byte = data.draw(st.sampled_from(structure) | st.integers(0, len(blob) - 1),
                         label="byte")
        flipped = bytearray(blob)
        flipped[byte] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        mutated = bytes(flipped)
    path = tmp_path_factory.getbasetemp() / "mutated.lntc"
    path.write_bytes(mutated)
    try:
        params, extra = ckpt.load_model(path)
    except (ValueError, FloatingPointError):
        return
    ckpt.save_model(path, params, extra)
    assert path.read_bytes() == mutated


def _keep_byte(offset, value):
    """An edit that sets the byte ``offset`` past the name norm.keep."""
    def edit(blob):
        at = blob.index(b"norm.keep") + offset
        return blob[:at] + bytes([value]) + blob[at + 1 :]
    return edit


_ENTRY = "checkpoint config entry 'config.{}' holds {}, not an integer >= 0: {{path}}"

# id: (edit, the error).  An edit maps the saved `small` checkpoint's bytes to the
# bad file's, or is a dict of arrays to set in it (None drops one); {path} stands for
# the file and {keep} for the offset of the name norm.keep.
_BAD_CHECKPOINTS = {
    "bad-magic": (lambda blob: b"NOPE" + blob[4:], "not a checkpoint file (bad magic): {path}"),
    "version-2": (lambda blob: blob[:4] + struct.pack("<I", 2) + blob[8:],
                  "unsupported checkpoint version 2: {path}"),
    "truncated": (lambda blob: blob[:-4], "truncated checkpoint: {path}"),
    "trailing-bytes": (lambda blob: blob + b"\0\0", "trailing bytes in checkpoint: {path}"),
    # one bit turns norm.keep into norm.oeep, after norm.mean: that file used to
    # load, and save_model wrote its names in another order
    "names-out-of-order": (_keep_byte(5, ord("o")),
                           "checkpoint tensor 'norm.mean' follows 'norm.oeep': {path}"),
    # these two used to fail with the codec's or numpy's message
    "name-not-utf8": (_keep_byte(0, 0x80), "checkpoint tensor name at byte {keep} is not UTF-8: "
                                           "{path}"),
    "rank-255": (_keep_byte(9, 0xFF), "checkpoint tensor 'norm.keep' has rank 255, more than "
                                      "numpy supports: {path}"),
    "missing-tensor": ({"heads.W2": None}, "checkpoint lacks tensor 'heads.W2': {path}"),
    "wrong-shape": ({"context.out_bias": np.zeros((1, 32))},
                    "checkpoint tensor 'context.out_bias' has shape (1, 32), expected (32,): "
                    "{path}"),
    "wrong-bank-shape": ({"bank.T3.layer1.weight": np.zeros((128, 23))},
                         "checkpoint tensor 'bank.T3.layer1.weight' has shape (128, 23), "
                         "expected (128, 24): {path}"),
    # a config entry that is not a non-negative integer (a flag: 0 or 1) used to be
    # truncated (720.9 -> 720, 0.5 -> False)
    **{f"config-{name}-{label}": ({f"config.{name}": np.asarray(value)}, error)
       for name, label, value, error in [
           ("sub_seq", "720.9", 720.9, _ENTRY.format("sub_seq", 720.9000244140625)),
           ("conv_bias", "0.5", 0.5, _ENTRY.format("conv_bias", 0.5)),
           ("conv_bias", "negative", -1.0, _ENTRY.format("conv_bias", -1.0)),
           ("dim_c", "negative", -4.0, _ENTRY.format("dim_c", -4.0)),
           ("filters", "4.5", [3.0, 3.0, 4.5, 2.0], _ENTRY.format("filters", 4.5)),
           ("K", "nan", np.nan, "checkpoint tensor 'config.K' holds nan: {path}"),
           ("L", "inf", np.inf, "checkpoint tensor 'config.L' holds inf: {path}"),
           ("strides", "nan", [3.0, np.nan, 4.0, 2.0],
            "checkpoint tensor 'config.strides' holds nan: {path}"),
           ("separate_ddcl_heads", "2", 2.0, "checkpoint config entry "
            "'config.separate_ddcl_heads' must be 0 or 1, got 2: {path}"),
           ("dim_z", "rank-1", [128.0], "checkpoint config entry 'config.dim_z' has shape (1,): "
            "{path}"),
       ]},
}


@pytest.mark.parametrize("edit, error", list(_BAD_CHECKPOINTS.values()),
                         ids=list(_BAD_CHECKPOINTS))
def test_bad_checkpoint_fails_naming_file_and_tensor(small_checkpoint, tmp_path, edit, error):
    blob, _ = small_checkpoint
    path = tmp_path / "bad.lntc"
    path.write_bytes(edit(blob) if callable(edit) else blob)
    if not callable(edit):
        arrays = {**ckpt.load_arrays(path), **edit}
        ckpt.save_arrays(path, {name: arr for name, arr in arrays.items() if arr is not None})
    with pytest.raises(ValueError) as err:
        ckpt.load_model(path)
    assert str(err.value) == error.format(path=path, keep=blob.index(b"norm.keep"))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_non_finite_tensor_is_named_on_save_and_load(tmp_path, value):
    params = mdl.init_params(small(), seed=59)
    params.heads.data[1, 2, 3] = value
    path = tmp_path / "bad.lntc"
    with pytest.raises(ValueError, match=f"tensor 'heads.W2' holds non-finite values; "
                                         f"not saving {path}"):
        ckpt.save_model(path, params)
    assert not path.exists()
    arrays = ckpt.model_to_arrays(params)
    ckpt.save_arrays(path, arrays)
    with pytest.raises(ValueError, match=f"checkpoint tensor 'heads.W2' holds {value}: {path}"):
        ckpt.load_model(path)


def test_checkpoint_rejects_tensors_the_config_does_not_use(tmp_path):
    """Encoder biases in a conv_bias=0 checkpoint used to load as leftovers
    and be written out again by viz-decode --save-model."""
    arrays = ckpt.model_to_arrays(mdl.init_params(small(), seed=53))
    arrays["config.conv_bias"] = np.asarray(0.0)
    arrays["norm.mean"] = np.zeros(3)
    path = tmp_path / "stray.lntc"
    ckpt.save_arrays(path, arrays)
    with pytest.raises(ValueError) as err:
        ckpt.load_model(path)
    message = str(err.value)
    assert all(f"encoder.layer{i}.bias" in message for i in range(4))
    assert "norm.mean" not in message
    with pytest.raises(ValueError, match="stray"):
        ckpt.save_model(path, mdl.init_params(small(), seed=53), {"stray": np.zeros(1)})


def test_checkpoint_per_transform_fixture_loads_and_resaves_bitwise(tmp_path):
    arrays = ckpt.load_arrays(FIXTURE)
    params, extra = ckpt.load_model(FIXTURE)
    cfg = params.config
    assert cfg.L == 3 and len(params.bank) == cfg.bank_layers == 2
    for j, layer in enumerate(params.bank):
        for l in range(cfg.L):
            np.testing.assert_array_equal(layer.data[l], arrays[f"bank.T{l + 1}.layer{j}.weight"])
    # the stacked init draws the same weights from the same seed
    fresh = mdl.init_params(cfg, seed=5)
    mdl.init_decoder(fresh, seed=6)
    loaded = params.named_parameters()
    for name, tensor in fresh.named_parameters().items():
        np.testing.assert_array_equal(loaded[name].data, tensor.data)
    resaved = tmp_path / "resaved.lntc"
    ckpt.save_model(resaved, params, extra)
    assert resaved.read_bytes() == FIXTURE.read_bytes()


def test_checkpoint_expected_names(tmp_path):
    params = mdl.init_params(small(), seed=50)
    names = set(ckpt.model_to_arrays(params))
    for expected in (
        "encoder.layer0.weight", "encoder.layer0.bias", "encoder.layer3.weight",
        "context.W_r", "context.U_u", "context.b_n", "context.out_bias",
        "heads.W1", "heads.W4", "bank.T1.layer0.weight", "bank.T12.layer1.weight",
        "config.dim_z", "config.filters",
    ):
        assert expected in names, expected
