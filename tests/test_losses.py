"""Loss contracts: closed forms, naive-formula oracles, monotonicity,
constant-model invariance, and a finite-difference wiring check."""

import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    constant_model,
    cpc_loss_per_horizon,
    ddcl_loss_per_horizon,
    ddcl_term,
    fd_grad_inplace,
    per_horizon_heads,
    rel_err,
    stacked_grad,
    tiny_params,
    unified_loss_per_horizon,
)

from lnt import losses as ls
from lnt import model as mdl
from lnt import tensor as tn
from lnt.tensor import Tensor
from lnt.training import TrainConfig


def test_sample_negatives_excludes_positive():
    rng = np.random.default_rng(0)
    pos = np.array([0, 3, 7])
    draws = ls.sample_negatives(rng, 3, 8, pos, n_negs=500)
    assert draws.shape == (3, 500)
    assert draws.min() >= 0 and draws.max() < 8
    for row, p in zip(draws, pos):
        assert not np.any(row == p)
        # with 500 draws over 7 allowed values, all of them should appear
        assert len(np.unique(row)) == 7


def test_sample_negatives_deterministic():
    pos = np.arange(5)
    a = ls.sample_negatives(np.random.default_rng(7), 5, 20, pos, 6)
    b = ls.sample_negatives(np.random.default_rng(7), 5, 20, pos, 6)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# CPC


def test_cpc_all_z_identical_gives_log_n():
    params = tiny_params()
    z = Tensor(np.tile(np.linspace(-1, 1, 8, dtype=np.float32), (2, 6, 1)))
    c = Tensor(np.random.default_rng(1).normal(size=(2, 6, 4)).astype(np.float32))
    loss = ls.cpc_loss(params, z, c, np.random.default_rng(2), N=16)
    assert loss.item() == pytest.approx(math.log(16), rel=1e-6)


def test_cpc_matches_naive_oracle():
    with tn.precision_mode(64):
        params = tiny_params(seed=3)
        rng = np.random.default_rng(11)
        z = rng.normal(size=(2, 5, 8))
        c = rng.normal(size=(2, 5, 4))
        loss = ls.cpc_loss(params, Tensor(z), Tensor(c), np.random.default_rng(42), N=4).item()

        heads = params.heads.data
        z_flat = z.reshape(10, 8)
        rng2 = np.random.default_rng(42)
        terms = []
        for k in (1, 2):
            tv = 5 - k
            c_idx = (np.arange(2)[:, None] * 5 + np.arange(tv)[None, :]).ravel()
            pos_idx = c_idx + k
            negs = ls.sample_negatives(rng2, len(pos_idx), 10, pos_idx, 3)
            for row, (ci, pi) in enumerate(zip(c_idx, pos_idx)):
                pred = heads[k - 1] @ c.reshape(10, 4)[ci]
                p = np.exp(pred @ z_flat[pi])
                n = np.exp(z_flat[negs[row]] @ pred).sum()
                terms.append(-np.log(p / (p + n)))
        assert loss == pytest.approx(np.mean(terms), abs=1e-9)


def test_cpc_monotone_in_positive_logit():
    """Raising the positive logit (negatives fixed) strictly lowers the loss."""
    params = tiny_params(K=1, seed=5)
    rng = np.random.default_rng(6)
    z0 = rng.normal(size=8).astype(np.float32)
    c_arr = rng.normal(size=(1, 2, 4)).astype(np.float32)
    pred = params.heads.data[0] @ c_arr[0, 0]
    losses = []
    for alpha in (0.0, 0.5, 2.0):
        z = np.stack([z0, z0 + alpha * pred.astype(np.float32)])[None]
        # single anchor: positive is step 1, the only negative is step 0
        val = ls.cpc_loss(params, Tensor(z), Tensor(c_arr), np.random.default_rng(8), N=2).item()
        losses.append(val)
    assert losses[0] > losses[1] > losses[2]


def test_cpc_rejects_short_sequences():
    params = tiny_params(K=2)
    z = Tensor(np.zeros((1, 2, 8)))
    c = Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(ValueError):
        ls.cpc_loss(params, z, c, np.random.default_rng(0), N=16)


def test_cpc_rejects_contrast_size_below_two():
    params = tiny_params()
    z = Tensor(np.zeros((1, 4, 8)))
    c = Tensor(np.zeros((1, 4, 4)))
    with pytest.raises(ValueError, match="N must be >= 2, got 1"):
        ls.cpc_loss(params, z, c, np.random.default_rng(0), N=1)


def test_cpc_deterministic_given_seed():
    params = tiny_params(seed=9)
    rng = np.random.default_rng(10)
    z = Tensor(rng.normal(size=(2, 6, 8)).astype(np.float32))
    c = Tensor(rng.normal(size=(2, 6, 4)).astype(np.float32))
    a = ls.cpc_loss(params, z, c, np.random.default_rng(3), N=8).item()
    b = ls.cpc_loss(params, z, c, np.random.default_rng(3), N=8).item()
    assert a == b


# ---------------------------------------------------------------------------
# DDCL per-term


def eye_params(dim=6, K=2, L=4):
    """Square dims with identity heads, so every head predicts c itself."""
    params = tiny_params(dim_z=dim, dim_c=dim, K=K, L=L)
    params.heads.data[:] = np.eye(dim, dtype=params.heads.data.dtype)
    return params


def test_ddcl_term_uniform_gives_log_l():
    for L in (2, 5, 12):
        params = eye_params(L=L)
        v = np.random.default_rng(L).normal(size=6).astype(np.float32)
        views = [Tensor(v) for _ in range(L)]
        term = ddcl_term(params, views, Tensor(v), k=1, l=0)
        assert term.item() == pytest.approx(math.log(L), rel=1e-6)


def test_ddcl_term_orthogonal_closed_form():
    L = 4
    params = eye_params(L=L)
    views = [Tensor(2.0 * np.eye(6)[0])] + [
        Tensor(np.eye(6)[m] * s) for m, s in zip((1, 2, 3), (1.3, 0.7, 1.1))
    ]
    c_prev = Tensor(0.5 * np.eye(6)[0])  # prediction parallel to view 0
    term = ddcl_term(params, views, c_prev, k=1, l=0)
    expected = math.log(1.0 + (L - 1) / math.e)
    assert term.item() == pytest.approx(expected, rel=1e-6)


def test_ddcl_term_matches_naive_oracle():
    def naive_h(a, b):
        na = max(np.linalg.norm(a), 1e-12)
        nb = max(np.linalg.norm(b), 1e-12)
        return np.exp(a @ b / (na * nb))

    with tn.precision_mode(64):
        params = eye_params()
        rng = np.random.default_rng(13)
        for l in range(4):
            vs = [rng.normal(size=6) for _ in range(4)]
            c_prev = rng.normal(size=6)
            term = ddcl_term(params, [Tensor(v) for v in vs], Tensor(c_prev), 2, l).item()
            num = naive_h(vs[l], c_prev)  # identity head: prediction == c_prev
            den = num + sum(naive_h(vs[l], vs[m]) for m in range(4) if m != l)
            assert term == pytest.approx(-np.log(num / den), abs=1e-9)


def test_ddcl_term_scale_invariance():
    with tn.precision_mode(64):
        params = eye_params()
        rng = np.random.default_rng(17)
        vs = [rng.normal(size=6) for _ in range(4)]
        c_prev = rng.normal(size=6)
        base = ddcl_term(params, [Tensor(v) for v in vs], Tensor(c_prev), 1, 0).item()
        scaled_view = [Tensor(v * 3.7 if i == 0 else v) for i, v in enumerate(vs)]
        assert ddcl_term(params, scaled_view, Tensor(c_prev), 1, 0).item() == pytest.approx(base, abs=1e-9)
        scaled_other = [Tensor(v * 3.7 if i == 2 else v) for i, v in enumerate(vs)]
        assert ddcl_term(params, scaled_other, Tensor(c_prev), 1, 0).item() == pytest.approx(base, abs=1e-9)
        assert ddcl_term(params, [Tensor(v) for v in vs], Tensor(c_prev * 3.7), 1, 0).item() == pytest.approx(base, abs=1e-9)


def test_ddcl_term_errors():
    params = eye_params()
    v = Tensor(np.ones(6))
    with pytest.raises(ValueError):
        ddcl_term(params, [v], Tensor(np.ones(6)), 1, 0)
    with pytest.raises(ValueError):
        ddcl_term(params, [v, v], Tensor(np.ones(6)), 1, 5)


# ---------------------------------------------------------------------------
# DDCL batched


def test_ddcl_loss_matches_term_loop():
    """The vectorized loss equals a per-(b,t,k,l) loop over ddcl_term."""
    with tn.precision_mode(64):
        params = tiny_params(K=3, L=3, seed=19)
        rng = np.random.default_rng(23)
        z = rng.normal(size=(2, 4, 8))
        c = rng.normal(size=(2, 4, 4))
        batched = ls.ddcl_loss(params, Tensor(z), Tensor(c)).item()

        terms = []
        for b in range(2):
            for k in (1, 2, 3):
                for t in range(k, 4):
                    stacked = mdl.transform(params, Tensor(z[b, t : t + 1]))
                    views = [Tensor(v) for v in stacked.data[0]]
                    for l in range(3):
                        terms.append(
                            ddcl_term(params, views, Tensor(c[b, t - k]), k, l).item()
                        )
        assert batched == pytest.approx(np.mean(terms), abs=1e-9)


def test_ddcl_loss_uniform_l2_gives_log_2():
    b = np.random.default_rng(29).normal(size=4)
    a = np.zeros(8)
    a[:4] = b  # aligned with the identity-like shared head
    params = constant_model(8, 4, a, b, K=2, L=2)
    z = Tensor(np.tile(a, (1, 5, 1)))
    c = Tensor(np.tile(b, (1, 5, 1)))
    loss = ls.ddcl_loss(params, z, c)
    assert loss.item() == pytest.approx(math.log(2.0), rel=1e-6)


def test_ddcl_loss_strictly_positive():
    params = tiny_params(seed=31)
    rng = np.random.default_rng(37)
    z = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
    c = Tensor(rng.normal(size=(2, 5, 4)).astype(np.float32))
    assert ls.ddcl_loss(params, z, c).item() > 0.0


def test_ddcl_loss_skips_invalid_k_and_rejects_empty():
    params = tiny_params(K=5, L=3, seed=41)
    rng = np.random.default_rng(43)
    # T_z=3 < K+1: horizons k=3,4,5 contribute nothing but k=1,2 do
    z = Tensor(rng.normal(size=(1, 3, 8)).astype(np.float32))
    c = Tensor(rng.normal(size=(1, 3, 4)).astype(np.float32))
    assert np.isfinite(ls.ddcl_loss(params, z, c).item())
    with pytest.raises(ValueError):
        ls.ddcl_loss(params, Tensor(np.zeros((1, 1, 8))), Tensor(np.zeros((1, 1, 4))))


def test_ddcl_loss_constant_model_input_invariant():
    rng = np.random.default_rng(47)
    a, b = rng.normal(size=8), rng.normal(size=4)
    params = constant_model(8, 4, a, b, channels=1, K=2, L=3)
    vals = []
    for seed in (1, 2):
        x = Tensor(np.random.default_rng(seed).normal(size=(2, 1, 144)))
        z = mdl.encode(params, x)
        c = mdl.contextualize(params, z)
        vals.append(ls.ddcl_loss(params, z, c).item())
    assert vals[0] == vals[1]  # bitwise


def test_ddcl_loss_small_record_budget():
    """The DDCL is one Gram-matrix kernel, not a record per view pair."""
    params = mdl.init_params(mdl.small_config(), seed=0)
    x = Tensor(np.random.default_rng(97).normal(size=(2, 3, 720)))
    with tn.Tape() as tape:
        z = mdl.encode(params, x)
        c = mdl.contextualize(params, z)
        before = len(tape)
        ls.ddcl_loss(params, z, c)
        records = len(tape) - before
    assert records < 250, records


# ---------------------------------------------------------------------------
# unified


def test_unified_lambda_zero_equals_cpc():
    params = tiny_params(seed=53)
    x = Tensor(np.random.default_rng(59).normal(size=(2, 2, 96)).astype(np.float32))
    total, cpc, ddcl = ls.unified_loss(
        params, x, np.random.default_rng(1), lam=0.0, cpc_weight=1.0, N=16)
    assert total.item() == cpc.item()
    assert ddcl.item() > 0.0


def test_unified_default_lambda_sum():
    params = tiny_params(seed=61)
    d = TrainConfig()  # lam = 1e-3
    x = Tensor(np.random.default_rng(67).normal(size=(2, 2, 96)).astype(np.float32))
    total, cpc, ddcl = ls.unified_loss(
        params, x, np.random.default_rng(2), lam=d.lam, cpc_weight=d.cpc_weight, N=d.negatives)
    assert total.item() == pytest.approx(cpc.item() + 1e-3 * ddcl.item(), rel=1e-6)


def test_unified_cpc_weight_zero():
    params = tiny_params(seed=71)
    x = Tensor(np.random.default_rng(73).normal(size=(2, 2, 96)).astype(np.float32))
    total, cpc, ddcl = ls.unified_loss(
        params, x, np.random.default_rng(3), lam=1.0, cpc_weight=0.0, N=16)
    assert total.item() == ddcl.item()
    assert cpc.item() > 0.0


def test_unified_uniform_case_log_n_plus_log_l():
    rng = np.random.default_rng(79)
    b = rng.normal(size=4)
    a = np.zeros(8)
    a[:4] = b
    params = constant_model(8, 4, a, b, channels=1, K=2, L=3)
    x = Tensor(rng.normal(size=(2, 1, 432)))  # T_z = 6
    total, cpc, ddcl = ls.unified_loss(
        params, x, np.random.default_rng(4), lam=1.0, cpc_weight=1.0, N=16)
    assert cpc.item() == pytest.approx(math.log(16), rel=1e-6)
    assert ddcl.item() == pytest.approx(math.log(3), rel=1e-6)
    assert total.item() == pytest.approx(math.log(16) + math.log(3), rel=1e-6)


def test_unified_loss_gradient_wiring():
    """FD spot-check on one parameter from each group through the full loss."""
    with tn.precision_mode(64):
        params = tiny_params(seed=83)
        x = np.random.default_rng(89).normal(size=(2, 2, 48))

        def run():
            return ls.unified_loss(params, Tensor(x), np.random.default_rng(5),
                                   lam=0.5, cpc_weight=1.0, N=4)[0]

        with tn.Tape():
            tn.backward(run())
        named = params.named_parameters()
        for name in ("encoder.layer1.weight", "context.w_x", "heads",
                     "bank.layer0.weight", "context.out_bias"):
            p = named[name]
            ana = p.grad
            assert ana is not None, name
            num = fd_grad_inplace(lambda: run().item(), p.data)
            assert rel_err(ana, num) <= 1e-4, name


# ---------------------------------------------------------------------------
# the k-major stacks against the horizon-by-horizon composition


def _grads(params) -> dict[str, np.ndarray]:
    """Every parameter's gradient, head lists stacked as one tensor."""
    return {
        name: stacked_grad(t) if isinstance(t, list) else t.grad
        for name, t in params.named_parameters().items()
    }


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("separate", [True, False])
@pytest.mark.parametrize("K", [1, 4])
def test_stacked_losses_match_per_horizon_reference_bitwise(bits, separate, K):
    """The losses over all horizons at once give the bytes of one record
    per op and horizon on per-horizon heads: the loss, every parameter
    gradient, and z.grad and c.grad when z and c are leaves."""
    rng = np.random.default_rng(K)
    with tn.precision_mode(bits):
        params = mdl.init_params(replace(mdl.small_config(), K=K, separate_ddcl_heads=separate),
                                 seed=K)
        reference = per_horizon_heads(params)
        x = Tensor(rng.normal(size=(3, 3, 720)))
        z = Tensor(mdl.encode(params, x).data, requires_grad=True)
        c = Tensor(mdl.contextualize(params, z).data, requires_grad=True)
        runs = {}
        for name, model, unified, cpc, ddcl in [
            ("stacked", params, ls.unified_loss, ls.cpc_loss, ls.ddcl_loss),
            ("per horizon", reference, unified_loss_per_horizon, cpc_loss_per_horizon,
             ddcl_loss_per_horizon),
        ]:
            out = []
            with tn.Tape():
                losses = unified(model, x, np.random.default_rng(5), lam=0.3, cpc_weight=0.7, N=8)
                tn.backward(losses[0])
            out += [t.data for t in losses] + list(_grads(model).values())
            for loss_fn in (lambda: cpc(model, z, c, np.random.default_rng(6), N=8),
                            lambda: ddcl(model, z, c)):
                with tn.Tape():
                    loss = loss_fn()
                    tn.backward(loss)
                out += [loss.data, z.grad, c.grad] + list(_grads(model).values())
            runs[name] = out
    assert len(runs["stacked"]) == len(runs["per horizon"])
    for i, (got, want) in enumerate(zip(runs["stacked"], runs["per horizon"])):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), i
