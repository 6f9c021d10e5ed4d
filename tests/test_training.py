import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from helpers import tiny_config
from numpy.testing import assert_allclose, assert_array_equal

from lnt import model as mdl
from lnt import tensor as tn
from lnt.data import synth_normal, window
from lnt.losses import unified_loss
from lnt.model import init_decoder, init_params, small_config
from lnt.tensor import Tape, Tensor, backward
from lnt.training import (
    Adam,
    EpochStats,
    TrainConfig,
    clip_grads_,
    fit,
    fit_decoder,
    global_norm,
    save_report_csv,
    train_step,
    trainable_parameters,
)


def make_windows(n, cfg, seed=0):
    series = synth_normal(cfg.in_channels, n * cfg.sub_seq + 7, seed=seed)
    return window(series.values, cfg.sub_seq, cfg.sub_seq)[:n]


# ---------------------------------------------------------------------------
# optimizer pieces


def test_adam_first_step_is_lr_sized():
    p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    cfg = TrainConfig(lr=1e-2)
    adam = Adam({"p": p}, cfg)
    adam.step({"p": np.array([1.0, 1.0, -1.0], dtype=np.float32)})
    assert_allclose(p.data, [-1e-2, -1e-2, 1e-2], rtol=1e-5)


def test_adam_constant_grad_walks_at_lr():
    p = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
    adam = Adam({"p": p}, TrainConfig(lr=1e-3))
    for _ in range(100):
        adam.step({"p": np.ones(1, dtype=np.float32)})
    assert_allclose(p.data, [-0.1], rtol=1e-4)


def test_adam_matches_reference_updates():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
    ref = p.data.astype(np.float64).copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    cfg = TrainConfig(lr=2e-4)
    adam = Adam({"p": p}, cfg)
    for t in range(1, 6):
        g = rng.normal(size=(4, 3)).astype(np.float32)
        adam.step({"p": g})
        g64 = g.astype(np.float64)
        m = cfg.beta1 * m + (1 - cfg.beta1) * g64
        v = cfg.beta2 * v + (1 - cfg.beta2) * g64 * g64
        ref -= cfg.lr * (m / (1 - cfg.beta1**t)) / (
            np.sqrt(v / (1 - cfg.beta2**t)) + cfg.eps
        )
    assert_allclose(p.data, ref, rtol=1e-5, atol=1e-7)


def test_clip_rescales_large_gradients():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}  # norm 13
    norm = clip_grads_(grads, 5.0)
    assert norm == pytest.approx(13.0)
    assert global_norm(grads) == pytest.approx(5.0, rel=1e-12)
    assert_allclose(grads["a"], np.array([3.0, 4.0]) * 5.0 / 13.0)


def test_clip_leaves_small_gradients_untouched():
    g = np.array([3.0, 4.0])
    grads = {"a": g.copy()}
    norm = clip_grads_(grads, 5.0)
    assert norm == pytest.approx(5.0)
    assert_array_equal(grads["a"], g)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs must be >= 0, got -3"):
        TrainConfig(epochs=-3)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)
    # nan passed every `<= 0` check: lr = nan trained a model of NaNs
    for field in ("lr", "clip_norm", "eps"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
                TrainConfig(**{field: value})
    for field in ("lam", "cpc_weight"):
        for value in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match=f"{field} must be finite and >= 0"):
                TrainConfig(**{field: value})
        assert getattr(TrainConfig(**{field: 0.0}), field) == 0.0
    with pytest.raises(ValueError, match="negatives must be >= 2, got 1"):
        TrainConfig(negatives=1)


# ---------------------------------------------------------------------------
# gradient routing


def test_lam_zero_keeps_bank_gradients_exactly_zero():
    cfg = tiny_config()
    params = init_params(cfg, seed=1)
    x = Tensor(np.asarray(make_windows(2, cfg), dtype=tn.dtype()))
    with Tape():
        total, _, _ = unified_loss(
            params, x, np.random.default_rng(0), lam=0.0, cpc_weight=1.0, N=4)
        backward(total)
    for name, tensor in params.named_parameters().items():
        assert tensor.grad is not None, name
        if name.startswith("bank."):
            assert not tensor.grad.any(), name
        if name.startswith("heads."):
            assert tensor.grad.any(), name


def test_cpc_weight_zero_with_separate_heads_zeroes_cpc_heads():
    cfg = tiny_config(separate_ddcl_heads=True)
    params = init_params(cfg, seed=2)
    x = Tensor(np.asarray(make_windows(2, cfg), dtype=tn.dtype()))
    with Tape():
        total, _, _ = unified_loss(
            params, x, np.random.default_rng(0), lam=1.0, cpc_weight=0.0, N=4)
        backward(total)
    named = params.named_parameters()
    for name, tensor in named.items():
        if name.startswith("heads."):
            assert not tensor.grad.any(), name
        if name.startswith("ddcl_heads.") or name.startswith("bank."):
            assert tensor.grad.any(), name


def test_trainable_parameters_excludes_decoder():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    init_decoder(params, seed=0)
    names = trainable_parameters(params)
    assert names
    assert not any(n.startswith("decoder.") for n in names)
    assert any(n.startswith("decoder.") for n in params.named_parameters())


# ---------------------------------------------------------------------------
# train_step / fit


def test_train_step_reduces_loss_on_fixed_batch():
    cfg = tiny_config()
    params = init_params(cfg, seed=3)
    batch = np.asarray(make_windows(4, cfg), dtype=tn.dtype())
    adam = Adam(trainable_parameters(params), TrainConfig(lr=3e-3))
    rng = np.random.default_rng(0)
    first = None
    last = None
    for _ in range(30):
        total, cpc, ddcl, norm = train_step(
            adam, lambda: unified_loss(params, Tensor(batch), rng, lam=1e-3, cpc_weight=1.0, N=8),
            5.0)
        assert np.isfinite([cpc, ddcl, total, norm]).all()
        if first is None:
            first = total
        last = total
    assert last < first


def test_train_step_small_record_budget():
    """A `small` train step makes at most 185 tape records: the GRU context
    is 7 records at any sequence length (the recurrence was about 20 per
    latent step, and stacking its weights took 11 more), the stacked bank
    costs 12 records (one MLP per transform cost 84), and the encoder one
    per layer (12 with separate bias, relu and transpose records)."""
    params = init_params(small_config(), seed=0)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 720)))
    with Tape() as tape:
        unified_loss(params, x, np.random.default_rng(2), lam=1e-3, cpc_weight=1.0, N=16)
        records = len(tape)
    assert records <= 185, records


def test_tape_records_hold_no_tensors():
    """Every VJP closure of a training step keeps arrays and shapes, never a
    Tensor, so a record cannot keep an intermediate alive."""
    params = init_params(tiny_config(), seed=0)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 2, 48)))
    with Tape() as tape:
        unified_loss(params, x, np.random.default_rng(2), lam=1e-3, cpc_weight=1.0, N=4)
        held = [
            cell.cell_contents
            for rec in tape._records
            for cell in rec.vjp.__closure__ or ()
        ]
    assert held
    assert not any(isinstance(v, Tensor) for v in held)
    assert not any(isinstance(v, (list, tuple)) and any(isinstance(e, Tensor) for e in v)
                   for v in held)


def test_train_step_small_memory_budget():
    """One `small` B=32 forward plus backward peaks under 32 MB of traced
    allocations (22.6 MB now; 55.4 MB when records held their tensors and
    every VJP result was added into a fresh array)."""
    cfg = small_config()
    params = init_params(cfg, seed=0)
    x = np.random.default_rng(1).normal(size=(32, cfg.in_channels, cfg.sub_seq))
    batch = Tensor(x)
    tracemalloc.start()
    try:
        with Tape():
            total = unified_loss(params, batch, np.random.default_rng(2),
                                 lam=1e-3, cpc_weight=1.0, N=16)[0]
            backward(total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak / 2**20


_FAULTS_SCRIPT = textwrap.dedent("""
    import json, resource
    import lnt.cli  # applies the heap policy
    import numpy as np
    from lnt import tensor as tn
    from lnt.losses import unified_loss
    from lnt.model import init_params, small_config
    from lnt.training import Adam, TrainConfig, train_step, trainable_parameters

    cfg = small_config()
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(32, cfg.in_channels, cfg.sub_seq)).astype(tn.dtype())
    adam = Adam(trainable_parameters(params), TrainConfig())
    faults = []
    for _ in range(7):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train_step(adam, lambda: unified_loss(params, tn.Tensor(batch), rng,
                                              lam=1e-3, cpc_weight=1.0, N=16), 5.0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(json.dumps({"malloc": lnt.cli.environment()["malloc"], "faults": faults}))
""")


def test_train_step_keeps_its_heap_mapped():
    """Once `lnt.cli` has set glibc's heap policy, `small` B=32 steps after
    two warm-up steps take a median of at most 500 minor page faults
    (about 6,800 when glibc trimmed the freed working set after every
    backward and the next step faulted it back in)."""
    src = os.path.dirname(os.path.dirname(tn.__file__))
    env = dict(os.environ, LNT_THREADS="1", PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    if result["malloc"] is None:
        pytest.skip("libc has no mallopt")
    assert float(np.median(result["faults"][2:])) <= 500, result["faults"]


def test_fit_is_bitwise_reproducible():
    cfg = tiny_config()
    windows = make_windows(6, cfg)

    def run(seed):
        params = init_params(cfg, seed=7)
        fit(params, windows, TrainConfig(epochs=2, batch_size=4, seed=seed))
        return {n: t.data.copy() for n, t in params.named_parameters().items()}

    a = run(11)
    b = run(11)
    c = run(12)
    for name in a:
        assert_array_equal(a[name], b[name]), name
    assert any((a[n] != c[n]).any() for n in a)


def test_fit_returns_epoch_stats_and_writes_report(tmp_path):
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    seen = []
    stats = fit(
        params, make_windows(4, cfg), TrainConfig(epochs=3, batch_size=2),
        on_epoch=seen.append,
    )
    assert [s.epoch for s in stats] == [0, 1, 2]
    assert seen == stats
    assert all(isinstance(s, EpochStats) and s.seconds >= 0 for s in stats)

    path = tmp_path / "report.csv"
    save_report_csv(path, stats)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,cpc,ddcl,total,grad_norm,seconds"
    assert len(lines) == 4
    row = lines[1].split(",")
    assert int(row[0]) == 0
    assert float(row[3]) == pytest.approx(stats[0].total, rel=1e-6)


def test_fit_smoke_overfits_small_set():
    cfg = tiny_config()
    params = init_params(cfg, seed=5)
    stats = fit(
        params, make_windows(8, cfg),
        TrainConfig(epochs=6, batch_size=8, lr=3e-3, seed=1),
    )
    assert stats[-1].total < stats[0].total


@pytest.mark.filterwarnings("ignore:overflow")
def test_fit_aborts_on_non_finite_with_context():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    params.encoder[0][0].data[:] = 1e30
    with pytest.raises(FloatingPointError, match="epoch 0"):
        fit(params, make_windows(2, cfg), TrainConfig(epochs=1))


def test_fit_rejects_bad_window_stack():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    for shape in ((4, 10), (0, 2, 48)):
        with pytest.raises(ValueError, match="windows"):
            fit(params, np.zeros(shape), TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# decoder fitting


def test_fit_decoder_reduces_mse_and_freezes_encoder():
    cfg = tiny_config()
    params = init_params(cfg, seed=9)
    init_decoder(params, seed=9)
    frozen = {
        n: t.data.copy() for n, t in params.named_parameters().items()
        if not n.startswith("decoder.")
    }
    windows = make_windows(4, cfg)
    history = fit_decoder(params, windows, epochs=12, lr=3e-3, seed=0)
    assert history[-1] < history[0]
    for name, before in frozen.items():
        assert_array_equal(params.named_parameters()[name].data, before), name


def test_fit_decoder_requires_decoder():
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    with pytest.raises(ValueError, match="decoder"):
        fit_decoder(params, make_windows(2, cfg))


@pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value")
def test_fit_decoder_aborts_on_non_finite_gradient_with_context(monkeypatch):
    cfg = tiny_config()
    params = init_params(cfg, seed=0)
    init_decoder(params, seed=0)
    decode = mdl.decode

    def decode_with_nan_gradient(p, z):
        # adds sqrt(0) = 0; its infinite derivative times 0 is NaN
        recon = decode(p, z)
        return tn.add(recon, tn.sqrt(tn.scale(recon, 0.0)))

    monkeypatch.setattr(mdl, "decode", decode_with_nan_gradient)
    with pytest.raises(FloatingPointError, match=r"^aborting at epoch 0 step 0: "
                                                 r"non-finite gradient in decoder\."):
        fit_decoder(params, make_windows(2, cfg), epochs=1)


def test_fit_decoder_is_deterministic():
    cfg = tiny_config()
    windows = make_windows(3, cfg)

    def run():
        params = init_params(cfg, seed=4)
        init_decoder(params, seed=4)
        fit_decoder(params, windows, epochs=2, seed=3)
        return {
            n: t.data.copy() for n, t in params.named_parameters().items()
            if n.startswith("decoder.")
        }

    a, b = run(), run()
    for name in a:
        assert_array_equal(a[name], b[name])
