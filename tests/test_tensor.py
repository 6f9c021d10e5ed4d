"""Autodiff engine tests: closed-form cases plus finite-difference oracles.

Every gradient rule is checked against central finite differences computed
from the forward pass alone, in 64-bit mode with step 1e-4.
"""

import gc
import math
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (conv1d_patch_dw, conv1d_relu_bool_mask, log_softmax_contrast,
                     span_matvec_regions, sum_all, tanh, unit_rows_composed,
                     unit_rows_of_product)
from lnt import model as mdl
from lnt import tensor as tn
from lnt.tensor import Tape, Tensor, active_tape, backward

EPS = 1e-4


def numeric_grads(make_loss, arrays, eps=EPS):
    """Central-difference gradients of a scalar-valued forward pass.

    ``make_loss`` maps a dict of Tensors to a scalar Tensor; it is run
    without any tape, so only forward values are used.
    """
    grads = {}
    for name, val in arrays.items():
        g = np.zeros_like(val)
        flat, gf = val.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = make_loss({k: Tensor(v) for k, v in arrays.items()}).item()
            flat[i] = keep - eps
            lo = make_loss({k: Tensor(v) for k, v in arrays.items()}).item()
            flat[i] = keep
            gf[i] = (hi - lo) / (2 * eps)
        grads[name] = g
    return grads


def analytic_grads(make_loss, arrays):
    with Tape():
        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        backward(make_loss(params))
    return {k: p.grad for k, p in params.items()}


def rel_err(a, n):
    return np.abs(a - n).max() / max(np.abs(n).max(), 1e-6)


def check_grads(make_loss, arrays, tol=1e-4):
    """FD-vs-analytic comparison in 64-bit mode; arrays must be float64."""
    with tn.precision_mode(64):
        ana = analytic_grads(make_loss, arrays)
        num = numeric_grads(make_loss, arrays)
    for name in arrays:
        err = rel_err(ana[name], num[name])
        assert err <= tol, f"{name}: rel err {err:.2e} > {tol}"


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    out = tn.matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_selector_row():
    out = tn.matmul(Tensor([[1.0, 0.0]]), Tensor([[5.0], [7.0]]))
    np.testing.assert_array_equal(out.data, [[5.0]])


def test_matmul_grad_closed_form_and_fd():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))

    def loss(p):
        return sum_all(tn.matmul(p["a"], p["b"]))

    with tn.precision_mode(64):
        ana = analytic_grads(loss, {"a": a, "b": b})
        num = numeric_grads(loss, {"a": a, "b": b})
    # d sum(ab) / da = ones @ b^T
    np.testing.assert_allclose(ana["a"], np.ones((3, 2)) @ b.T, rtol=1e-12)
    assert rel_err(ana["a"], num["a"]) <= 1e-5
    assert rel_err(ana["b"], num["b"]) <= 1e-5


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match="inner"):
        tn.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ValueError):
        tn.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_bmm_shape_mismatch():
    """Batched products go through tn.matmul: stack, inner and rank checks."""
    with pytest.raises(ValueError, match="stack"):
        tn.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))
    with pytest.raises(ValueError, match="inner"):
        tn.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3, 5))))
    with pytest.raises(ValueError, match="rank"):
        tn.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4, 5))))
    with pytest.raises(ValueError, match="rank"):
        tn.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((1, 2, 4, 5))))


def test_matmul_stack_matches_per_matrix_matmul_and_fd():
    rng = np.random.default_rng(5)
    arrays = {"a": rng.normal(size=(3, 2, 4)), "b": rng.normal(size=(3, 4, 5))}
    out = tn.matmul(Tensor(arrays["a"]), Tensor(arrays["b"]))
    for i in range(3):
        np.testing.assert_allclose(out.data[i], arrays["a"][i] @ arrays["b"][i], rtol=1e-5)
    weights = rng.normal(size=(3, 2, 5))
    check_grads(lambda p: sum_all(tn.mul(tn.matmul(p["a"], p["b"]), Tensor(weights))), arrays)


def test_matmul_four_dim_stack_matches_three_dim_bitwise_and_fd():
    """The DDCL multiplies a (B, T, L, D) view of the unit views: same bits
    as the flattened (B*T, L, D) copy, and FD gradients."""
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2, 5, 3, 4)).astype(np.float32)[:, 1:]
    b = rng.normal(size=(2, 4, 4, 1)).astype(np.float32)
    four = tn.matmul(Tensor(a), Tensor(b)).data
    three = tn.matmul(Tensor(a.reshape(8, 3, 4)), Tensor(b.reshape(8, 4, 1))).data
    assert np.array_equal(four.reshape(8, 3, 1), three)
    arrays = {"a": rng.normal(size=(2, 3, 2, 4)), "b": rng.normal(size=(2, 3, 4, 5))}
    weights = rng.normal(size=(2, 3, 2, 5))
    check_grads(lambda p: sum_all(tn.mul(tn.matmul(p["a"], p["b"]), Tensor(weights))), arrays)


# ---------------------------------------------------------------------------
# elementwise suite


def test_sigmoid_zero():
    out = tn.sigmoid(Tensor(0.0))
    assert out.item() == pytest.approx(0.5)


def test_sigmoid_derivative_at_zero():
    with tn.precision_mode(64), Tape():
        x = Tensor(0.0, requires_grad=True)
        backward(tn.sigmoid(x))
    assert x.grad == pytest.approx(0.25)


def test_relu_values():
    out = tn.relu(Tensor([-1.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_two_branch_formula_bitwise(dtype):
    x = np.random.default_rng(3).normal(scale=30.0, size=500)
    x = np.concatenate([x, [0.0, -0.0, 88.0, -88.0, 200.0, -200.0]]).astype(dtype)
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    with tn.precision_mode(32 if dtype is np.float32 else 64):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = tn.sigmoid(Tensor(x))
    assert out.data.dtype == dtype
    assert np.array_equal(out.data, expected)


def test_sigmoid_extremes_stay_finite():
    out = tn.sigmoid(Tensor([-200.0, 200.0]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(0.0, abs=1e-30)
    assert out.data[1] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "name,build,low,high",
    [
        ("add", lambda p: tn.add(p["a"], p["b"]), -1.0, 1.0),
        ("sub", lambda p: tn.sub(p["a"], p["b"]), -1.0, 1.0),
        ("mul", lambda p: tn.mul(p["a"], p["b"]), -1.0, 1.0),
    ],
)
def test_binary_elementwise_grads(name, build, low, high):
    rng = np.random.default_rng(sum(map(ord, name)))
    arrays = {
        "a": rng.uniform(low, high, size=(3, 4)),
        "b": rng.uniform(low, high, size=(3, 4)),
    }
    check_grads(lambda p: sum_all(tn.mul(build(p), p["a"])), arrays)


@pytest.mark.parametrize(
    "name,op,low,high",
    [
        ("sigmoid", tn.sigmoid, -2.0, 2.0),
        ("tanh", tanh, -2.0, 2.0),
        ("relu", tn.relu, 0.1, 2.0),  # kept off the kink
        ("exp", tn.exp, -1.0, 1.0),
        ("log", tn.log, 0.5, 2.0),
    ],
)
def test_unary_grads(name, op, low, high):
    rng = np.random.default_rng(sum(map(ord, name)))
    arrays = {"x": rng.uniform(low, high, size=(2, 5))}
    check_grads(lambda p: sum_all(tn.mul(op(p["x"]), p["x"])), arrays)


def test_broadcast_bias_grad():
    rng = np.random.default_rng(11)
    arrays = {
        "x": rng.normal(size=(4, 3)),
        "b": rng.normal(size=(3,)),
        "c": rng.normal(size=(4, 1)),
    }

    def loss(p):
        return sum_all(tn.mul(tn.add(p["x"], p["b"]), tn.add(p["x"], p["c"])))

    check_grads(loss, arrays)


def test_binary_shape_mismatch():
    with pytest.raises(ValueError):
        tn.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


# ---------------------------------------------------------------------------
# reductions, reshaping, indexing


def test_logsumexp_matches_naive():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 7))
    out = tn.logsumexp_last(Tensor(x.astype(np.float32)))
    naive = np.log(np.exp(x).sum(axis=-1, keepdims=True))
    np.testing.assert_allclose(out.data, naive, rtol=1e-5)


def test_logsumexp_large_inputs_stable():
    out = tn.logsumexp_last(Tensor([1000.0, 1000.0]))
    assert out.data[0] == pytest.approx(1000.0 + math.log(2.0), rel=1e-6)


def test_reduction_and_shape_grads():
    rng = np.random.default_rng(5)
    arrays = {"x": rng.normal(size=(3, 4))}

    def loss(p):
        y = tn.reshape(tn.transpose(p["x"]), (2, 6))
        z = tn.logsumexp_last(y)
        return tn.add(tn.mean_all(z), sum_all(tn.sum_last(p["x"])))

    check_grads(loss, arrays)


def test_gather_last_repeated_indices():
    with tn.precision_mode(64), Tape():
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = tn.gather_last(x, np.array([[0, 0, 2], [1, 1, 1]]))
        backward(sum_all(out))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0], [4.0, 4.0, 4.0]])
    np.testing.assert_array_equal(x.grad, [[2.0, 0.0, 1.0], [0.0, 3.0, 0.0]])


def test_gather_last_grad_fd():
    rng = np.random.default_rng(8)
    arrays = {"x": rng.normal(size=(3, 5))}
    idx = np.array([[4, 0, 4, 4], [1, 2, 3, 1], [0, 0, 0, 2]])
    weights = rng.normal(size=(3, 4))
    check_grads(lambda p: sum_all(tn.mul(tn.gather_last(p["x"], idx), Tensor(weights))), arrays)


def test_concat_crop_grads():
    rng = np.random.default_rng(9)
    arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 2))}

    def loss(p):
        y = tn.concat([p["a"], p["b"]], axis=1)
        crop = tn.slice_axis(y, 0, 4, axis=-1)
        return sum_all(tn.mul(crop, crop))

    check_grads(loss, arrays)


def test_slice_axis_middle_grad_fd():
    rng = np.random.default_rng(10)
    arrays = {"x": rng.normal(size=(2, 5, 3))}
    weights = rng.normal(size=(2, 2, 3))
    out = tn.slice_axis(Tensor(arrays["x"]), 1, 3, axis=1)
    np.testing.assert_array_equal(out.data, arrays["x"][:, 1:3].astype(np.float32))

    def loss(p):
        return sum_all(tn.mul(tn.slice_axis(p["x"], 1, 3, axis=1), Tensor(weights)))

    check_grads(loss, arrays)


def test_slice_axis_bounds_rejected():
    x = Tensor(np.ones((2, 4)))
    assert tn.slice_axis(x, 2, 2, axis=1).shape == (2, 0)
    with pytest.raises(ValueError):
        tn.slice_axis(x, 0, 5, axis=1)
    with pytest.raises(ValueError):
        tn.slice_axis(x, 3, 2, axis=1)


# ---------------------------------------------------------------------------
# convolution


def test_conv_trivial_adjacent_pairs():
    x = Tensor(np.arange(1.0, 11.0).reshape(1, 10, 1))
    w = Tensor(np.ones((1, 1, 2)))
    out = tn.conv1d_strided(x, w, stride=2)
    np.testing.assert_array_equal(out.data, [[[3.0], [7.0], [11.0], [15.0], [19.0]]])


def test_conv_stack_downsamples_72_to_1():
    x = Tensor(np.zeros((1, 72, 1)))
    for f in (3, 3, 4, 2):
        x = tn.conv1d_strided(x, Tensor(np.zeros((1, 1, f))), stride=f)
    assert x.shape == (1, 1, 1)


def test_conv_batched_matches_single():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 15, 2)).astype(np.float32)
    w = Tensor(rng.normal(size=(3, 2, 4)).astype(np.float32))
    batched = tn.conv1d_strided(Tensor(x), w, stride=3)
    assert batched.data.flags.c_contiguous
    for i in range(4):
        one = tn.conv1d_strided(Tensor(x[i : i + 1]), w, stride=3)
        np.testing.assert_array_equal(batched.data[i], one.data[0])


def _conv_reference(x, w, b, stride, relu):
    """The cross-correlation as a direct sum over taps, (B, T, C_in) in."""
    f = w.shape[2]
    t_out = (x.shape[1] - f) // stride + 1
    y = np.stack([
        np.einsum("btc,oc->bto", x[:, tap : tap + stride * (t_out - 1) + 1 : stride], w[:, :, tap])
        for tap in range(f)
    ]).sum(0)
    if b is not None:
        y = y + b[:, 0]
    return np.maximum(y, 0.0) if relu else y


@pytest.mark.parametrize("stride, f", [(3, 3), (2, 4), (3, 4)])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("relu", [False, True])
def test_conv_matches_direct_sum_any_input_strides(stride, f, bias, relu):
    """Time-major output, C-contiguous, from a channel-major input's
    transposed view as from a contiguous one."""
    rng = np.random.default_rng(14)
    x = rng.normal(size=(2, 3, 17))  # (B, C, T), viewed time-major below
    w = rng.normal(size=(4, 3, f))
    b = rng.normal(size=(4, 1)) if bias else None
    expected = _conv_reference(x.transpose(0, 2, 1), w, b, stride, relu)
    with tn.precision_mode(64):
        for view in (x.transpose(0, 2, 1), np.ascontiguousarray(x.transpose(0, 2, 1))):
            xt = Tensor(view)
            assert xt.data.strides == view.strides
            out = tn.conv1d_strided(xt, Tensor(w), stride, Tensor(b) if bias else None, relu=relu)
            assert out.data.flags.c_contiguous
            np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)


def test_conv_grad_fd():
    rng = np.random.default_rng(17)
    arrays = {
        "x": rng.normal(size=(1, 11, 2)),
        "w": rng.normal(size=(3, 2, 4)),
    }

    def loss(p):
        y = tn.conv1d_strided(p["x"], p["w"], stride=3)
        return sum_all(tn.mul(y, y))

    check_grads(loss, arrays)


def test_conv_batched_grad_fd():
    rng = np.random.default_rng(19)
    arrays = {
        "x": rng.normal(size=(2, 9, 2)),
        "w": rng.normal(size=(2, 2, 3)),
    }

    def loss(p):
        return sum_all(tn.conv1d_strided(p["x"], p["w"], stride=2))

    check_grads(loss, arrays)


@pytest.mark.parametrize("stride, f", [(3, 3), (2, 4)])  # F == stride, F > stride
@pytest.mark.parametrize("relu", [False, True])
def test_conv_bias_relu_grad_fd(stride, f, relu):
    """x, w and the bias against finite differences, with the bias and
    relu folded into the conv record; weights keep the relu off its kink."""
    rng = np.random.default_rng(20)
    arrays = {
        "x": rng.normal(size=(2, 13, 2)),
        "w": rng.normal(size=(3, 2, f)),
        "b": rng.normal(size=(3, 1)),
    }
    weights = rng.normal(size=(2, (13 - f) // stride + 1, 3))
    with tn.precision_mode(64):
        pre = _conv_reference(arrays["x"], arrays["w"], arrays["b"], stride, False)
    assert np.abs(pre).min() > 1e-3

    def loss(p):
        y = tn.conv1d_strided(p["x"], p["w"], stride, p["b"], relu=relu)
        return sum_all(tn.mul(y, Tensor(weights)))

    check_grads(loss, arrays)


def test_conv_transpose_length_and_grad():
    rng = np.random.default_rng(23)
    arrays = {
        "x": rng.normal(size=(1, 3, 5)),
        "w": rng.normal(size=(3, 2, 4)),
    }
    out = tn.conv1d_transpose(Tensor(arrays["x"]), Tensor(arrays["w"]), stride=2)
    assert out.shape == (1, 2, (5 - 1) * 2 + 4)

    def loss(p):
        y = tn.conv1d_transpose(p["x"], p["w"], stride=2)
        return sum_all(tn.mul(y, y))

    check_grads(loss, arrays)


def test_conv_errors():
    with pytest.raises(ValueError, match="shorter"):
        tn.conv1d_strided(Tensor(np.ones((1, 3, 1))), Tensor(np.ones((1, 1, 4))), stride=1)
    with pytest.raises(ValueError, match="stride"):
        tn.conv1d_strided(Tensor(np.ones((1, 8, 1))), Tensor(np.ones((1, 1, 2))), stride=0)
    with pytest.raises(ValueError, match="channels"):
        tn.conv1d_strided(Tensor(np.ones((1, 8, 2))), Tensor(np.ones((1, 3, 2))), stride=1)
    with pytest.raises(ValueError, match="bias"):
        tn.conv1d_strided(Tensor(np.ones((1, 8, 1))), Tensor(np.ones((2, 1, 2))), stride=1,
                          bias=Tensor(np.ones(2)))
    with pytest.raises(ValueError, match="B,T,C"):  # one unbatched sample
        tn.conv1d_strided(Tensor(np.ones((8, 1))), Tensor(np.ones((1, 1, 2))), stride=1)
    with pytest.raises(ValueError, match="3-D"):
        tn.conv1d_transpose(Tensor(np.ones((1, 8))), Tensor(np.ones((1, 1, 2))), stride=1)


@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(min_value=1, max_value=40),
    f=st.integers(min_value=1, max_value=40),
    stride=st.integers(min_value=1, max_value=5),
)
def test_conv_output_length_property(t, f, stride):
    if f > t:
        with pytest.raises(ValueError):
            tn.conv1d_strided(Tensor(np.ones((1, t, 1))), Tensor(np.ones((1, 1, f))), stride)
        return
    out = tn.conv1d_strided(Tensor(np.ones((1, t, 1))), Tensor(np.ones((1, 1, f))), stride)
    assert out.shape == (1, (t - f) // stride + 1, 1)


# ---------------------------------------------------------------------------
# the GRU recurrence: one tn.gru record, driven through
# model.contextualize_with_state


def _gru_model(h, z, weights=None):
    """Model whose context GRU has hidden width ``h`` and input width ``z``;
    ``weights`` (nine per-gate arrays: W_r, U_r, b_r, W_u, U_u, b_u, W_n,
    U_n, b_n) are written into the stacks, which default to zeros."""
    cfg = mdl.ModelConfig(in_channels=1, dim_z=z, dim_c=h, K=1, L=2, bank_width=2)
    params = mdl.init_params(cfg, seed=0)
    gru = params.context
    for t in gru:
        t.data[...] = 0
    if weights is not None:
        w_r, u_r, b_r, w_u, u_u, b_u, w_n, u_n, b_n = weights
        gru.w_x.data[...] = np.concatenate([w_r.T, w_u.T, w_n.T], axis=1)
        gru.u_ru.data[...] = np.concatenate([u_r.T, u_u.T], axis=1)
        gru.u_n.data[...] = u_n.T
        gru.b_ru.data[...] = np.concatenate([b_r, b_u])
        gru.b_n.data[...] = b_n
    return params


def _gru_step(params, state, inp):
    """New (B,H) state from a (B,H) state and (B,Z) inputs."""
    _, new_state = mdl.contextualize_with_state(
        params, Tensor(inp[:, None, :]), Tensor(state))
    return new_state.data


def test_gru_all_zero_stays_zero():
    params = _gru_model(3, 2)
    out = _gru_step(params, np.zeros((1, 3)), np.zeros((1, 2)))
    np.testing.assert_array_equal(out, np.zeros((1, 3)))


def test_gru_deterministic():
    rng = np.random.default_rng(29)
    params = _gru_model(3, 2, [rng.normal(size=s) for s in [(3, 2), (3, 3), (3,)] * 3])
    state = rng.normal(size=(1, 3))
    inp = rng.normal(size=(1, 2))
    a = _gru_step(params, state, inp)
    b = _gru_step(params, state, inp)
    assert np.array_equal(a, b)


def test_gru_batched_matches_single():
    rng = np.random.default_rng(37)
    params = _gru_model(3, 2, [rng.normal(size=s).astype(np.float32)
                               for s in [(3, 2), (3, 3), (3,)] * 3])
    states = rng.normal(size=(4, 3)).astype(np.float32)
    inputs = rng.normal(size=(4, 2)).astype(np.float32)
    batched = _gru_step(params, states, inputs)
    for i in range(4):
        one = _gru_step(params, states[i : i + 1], inputs[i : i + 1])
        np.testing.assert_allclose(batched[i], one[0], rtol=1e-6)


def _composed_contextualize(params, z, state=None):
    """The recurrence as one tape primitive per operation and step, as
    contextualize_with_state built it before tn.gru: the bitwise oracle."""
    gru = params.context
    batch, t_z, dim_z = z.shape
    hidden = params.config.dim_c
    if state is None:
        state = Tensor(np.zeros((batch, hidden)))
    x = tn.matmul(tn.reshape(z, (batch * t_z, dim_z)), gru.w_x)
    x = tn.reshape(x, (batch, t_z, 3 * hidden))
    ones = Tensor(np.ones((batch, hidden)))

    h = state
    outs = []
    for t in range(t_z):
        x_t = tn.reshape(tn.slice_axis(x, t, t + 1, axis=1), (batch, 3 * hidden))
        x_ru = tn.slice_axis(x_t, 0, 2 * hidden, axis=1)
        ru = tn.sigmoid(tn.add(tn.add(x_ru, tn.matmul(h, gru.u_ru)), gru.b_ru))
        r = tn.slice_axis(ru, 0, hidden, axis=1)
        u = tn.slice_axis(ru, hidden, 2 * hidden, axis=1)
        x_n = tn.slice_axis(x_t, 2 * hidden, 3 * hidden, axis=1)
        n = tanh(tn.add(tn.add(x_n, tn.matmul(tn.mul(r, h), gru.u_n)), gru.b_n))
        h = tn.add(tn.mul(u, h), tn.mul(tn.sub(ones, u), n))
        outs.append(tn.reshape(h, (batch, 1, hidden)))
    return tn.add(tn.concat(outs, axis=1), gru.out_bias), h


def _context_run(run, params, z, state, rng):
    """Contexts, final state and every gradient of a loss on both."""
    for p in params.named_parameters().values():
        p.grad = None
    z.grad = state.grad = None
    with Tape():
        c, h = run(params, z, state)
        loss = tn.add(
            sum_all(tn.mul(c, Tensor(rng.normal(size=c.shape)))),
            sum_all(tn.mul(tn.mul(h, h), Tensor(rng.normal(size=h.shape)))),
        )
        backward(loss)
    grads = {name: p.grad for name, p in params.named_parameters().items()
             if name.startswith("context.")}
    return c.data, h.data, z.grad, state.grad, grads


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("t_z", [1, 2, 7])
def test_gru_matches_composed_steps_bitwise(bits, batch, t_z):
    """One tn.gru record gives the contexts, final state and gradients
    (latents, carried state, the six GRU stacks) of the
    step-by-step primitives, bit for bit."""
    with tn.precision_mode(bits):
        params = mdl.init_params(mdl.small_config(), seed=batch * 10 + t_z)
        rng = np.random.default_rng(t_z)
        # zero at init; b_ru's 64 draws are the 32 of b_r then the 32 of b_u
        params.context.b_ru.data[:] = rng.normal(scale=0.5, size=64)
        params.context.b_n.data[:] = rng.normal(scale=0.5, size=32)
        params.context.out_bias.data[:] = rng.normal(size=32)
        z = Tensor(rng.normal(size=(batch, t_z, 128)), requires_grad=True)
        state = Tensor(rng.normal(scale=0.5, size=(batch, 32)), requires_grad=True)
        seed = int(rng.integers(1 << 30))
        want = _context_run(_composed_contextualize, params, z, state,
                            np.random.default_rng(seed))
        got = _context_run(mdl.contextualize_with_state, params, z, state,
                           np.random.default_rng(seed))
    pairs = dict(zip(("contexts", "state", "dz", "dstate"), zip(got[:4], want[:4])))
    assert len(want[4]) == 6
    pairs.update((name, (got[4][name], want[4][name])) for name in want[4])
    for name, (g, w) in pairs.items():
        np.testing.assert_array_equal(g, w, err_msg=name)
        # equal bytes also tell -0.0 from 0.0
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def test_gru_grad_fd():
    rng = np.random.default_rng(41)
    batch, steps, hidden = 2, 4, 3
    arrays = {
        "x": rng.normal(size=(batch, steps, 3 * hidden)),
        "h0": rng.normal(scale=0.5, size=(batch, hidden)),
        "u_ru": rng.normal(scale=0.7, size=(hidden, 2 * hidden)),
        "u_n": rng.normal(scale=0.7, size=(hidden, hidden)),
        "b_ru": rng.normal(scale=0.5, size=2 * hidden),
        "b_n": rng.normal(scale=0.5, size=hidden),
    }
    weights = rng.normal(size=(batch, steps, hidden))

    def loss(p):
        out = tn.gru(p["x"], p["h0"], p["u_ru"], p["u_n"], p["b_ru"], p["b_n"])
        return sum_all(tn.mul(out, Tensor(weights)))

    check_grads(loss, arrays, tol=1e-6)


def test_gru_recurrent_overflow_raises():
    """h @ U_ru overflows float32 while every state stays finite (the gates
    saturate at 1 and pass h through), so a check of the states alone would
    pass: the pre-activations are checked."""
    hidden = 4
    args = [
        Tensor(np.zeros((1, 2, 3 * hidden))),
        Tensor(np.full((1, hidden), 0.5)),
        Tensor(np.full((hidden, 2 * hidden), 3e38)),
        Tensor(np.zeros((hidden, hidden))),
        Tensor(np.zeros(2 * hidden)),
        Tensor(np.zeros(hidden)),
    ]
    with pytest.raises(FloatingPointError, match="gru"):
        tn.gru(*args)


def test_gru_shape_errors():
    hidden = 3
    good = [np.zeros((2, 4, 9)), np.zeros((2, 3)), np.zeros((3, 6)),
            np.zeros((3, 3)), np.zeros(6), np.zeros(3)]
    assert tn.gru(*map(Tensor, good)).shape == (2, 4, hidden)
    cases = [
        (0, np.zeros((2, 9)), r"\(B, T, 3H\)"),
        (0, np.zeros((2, 4, 8)), "inputs"),
        (1, np.zeros((3, 3)), "state"),
        (2, np.zeros((3, 9)), "u_ru"),
        (3, np.zeros((6, 3)), "u_n"),
        (4, np.zeros(3), "b_ru"),
        (5, np.zeros(6), "b_n"),
    ]
    for i, bad, match in cases:
        args = list(good)
        args[i] = bad
        with pytest.raises(ValueError, match=match):
            tn.gru(*map(Tensor, args))


def test_gru_keeps_no_step_arrays_off_tape():
    """Off the tape (scoring) a long recurrence allocates its output and
    pre-activation buffers, the finiteness mask and a few per-step
    temporaries (1.19x the buffers now), not per-step arrays kept for a VJP
    (3.86x while recording)."""
    steps, hidden = 2000, 32
    rng = np.random.default_rng(42)
    args = [rng.normal(size=(1, steps, 3 * hidden)), np.zeros((1, hidden)),
            rng.normal(scale=0.2, size=(hidden, 2 * hidden)),
            rng.normal(scale=0.2, size=(hidden, hidden)), np.zeros(2 * hidden), np.zeros(hidden)]
    buffers = 4 * steps * 4 * hidden  # float32 output and pre-activations

    def peak(requires_grad):
        tensors = [Tensor(a, requires_grad=requires_grad) for a in args]
        tracemalloc.start()
        try:
            with Tape():
                tn.gru(*tensors)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(False) < 1.5 * buffers
    assert peak(True) > 2 * buffers


# ---------------------------------------------------------------------------
# cosine similarity and contrastive term


def _cosine_exp_sim(a: Tensor, b: Tensor) -> Tensor:
    """h(a, b) = exp(cos(a, b)) of two (1, D) rows, built as the DDCL builds it."""
    return tn.reshape(tn.exp(tn.sum_last(tn.mul(tn.unit_rows(a), tn.unit_rows(b)))), ())


def test_cosine_exp_sim_trivial():
    z = Tensor([[0.3, -1.2, 0.5]])
    assert _cosine_exp_sim(z, z).item() == pytest.approx(math.e, rel=1e-6)
    neg = tn.scale(z, -1.0)
    assert _cosine_exp_sim(z, neg).item() == pytest.approx(1.0 / math.e, rel=1e-6)
    a, b = Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])
    assert _cosine_exp_sim(a, b).item() == pytest.approx(1.0)


def test_unit_rows_zero_row_guarded():
    units = tn.unit_rows(Tensor([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(units.data[0], [0.0, 0.0])  # no NaN
    np.testing.assert_allclose(units.data[1], [0.6, 0.8], rtol=1e-6)
    out = _cosine_exp_sim(Tensor([[0.0, 0.0]]), Tensor([[1.0, 2.0]]))
    assert out.item() == pytest.approx(1.0)  # cosine treated as 0


def _unit_rows_input(rng, shape, dtype):
    """Rows of normal values, with a zero row, a -0.0 row and a row whose
    norm is below NORM_EPS, and about a third of the other values +-0."""
    values = _signed_zeros(rng, shape, dtype).reshape(-1, shape[-1])
    values[0] = 0.0
    values[1] = -0.0
    values[2] = rng.normal(size=shape[-1]) * 1e-14
    return values.reshape(shape)


@pytest.mark.parametrize("shape, later", [
    pytest.param(shape, later, id=f"shape{i}" + ("" if later else "-before"))
    for later in (True, False) for i, shape in enumerate([(5, 4, 8), (7, 6)])])
@pytest.mark.parametrize("bits", [32, 64])
def test_unit_rows_matches_composed_bitwise(bits, shape, later):
    """The fused op's values and gradient, -0.0 included, are the bytes of
    the mul, sum_last, clamp_min, sqrt and div records it replaces, also
    when its input has a second consumer, recorded before it (its terms
    reach an empty buffer) or, with ``later``, after it."""
    dtype = tn._DTYPES[bits]
    rng = np.random.default_rng(74)
    x = _unit_rows_input(rng, shape, dtype)
    w = _signed_zeros(rng, shape, dtype)
    v = _signed_zeros(rng, shape, dtype)

    def run(unit_rows):
        with Tape():
            leaf = Tensor(x, requires_grad=True)
            a = tn.scale(leaf, 1.0)
            other = None if later else sum_all(tn.mul(a, Tensor(v)))
            out = unit_rows(a)
            if later:
                other = sum_all(tn.mul(a, Tensor(v)))
            backward(tn.add(sum_all(tn.mul(out, Tensor(w))), other))
        return out.data, leaf.grad

    with tn.precision_mode(bits):
        (fused, fused_grad), (composed, composed_grad) = run(tn.unit_rows), run(unit_rows_composed)
    assert fused.tobytes() == composed.tobytes()
    assert fused_grad.tobytes() == composed_grad.tobytes()
    assert np.signbit(fused.reshape(-1, shape[-1])[1]).all()


@pytest.mark.parametrize("later", [False, True])
@pytest.mark.parametrize("bits", [32, 64])
def test_unit_rows_of_product_matches_mul_record_bitwise(bits, later):
    """The bank's one record, unit_rows(mask, scale=z), gives the values
    and both gradients, -0.0 included, of the mul and unit_rows records it
    replaces: with zero and sub-NORM_EPS rows of z (the norm floor), -0.0
    mask entries, and, with ``later``, mask and z gradient buffers that
    already hold a term when its VJP runs."""
    dtype = tn._DTYPES[bits]
    rng = np.random.default_rng(75)
    rows, views, width = 6, 4, 8
    mask, w, u = (_signed_zeros(rng, (rows, views, width), dtype) for _ in range(3))
    z = _unit_rows_input(rng, (rows, width), dtype)
    v = _signed_zeros(rng, (rows, 1, width), dtype)

    def run(unit_rows):
        with Tape():
            mask_leaf, z_leaf = Tensor(mask, requires_grad=True), Tensor(z, requires_grad=True)
            m = tn.scale(mask_leaf, 1.0)
            z3 = tn.reshape(z_leaf, (rows, 1, width))
            out = unit_rows(m, z3)
            loss = sum_all(tn.mul(out, Tensor(w)))
            if later:
                loss = tn.add(loss, tn.add(sum_all(tn.mul(m, Tensor(u))),
                                           sum_all(tn.mul(z3, Tensor(v)))))
            backward(loss)
        return out.data, mask_leaf.grad, z_leaf.grad

    with tn.precision_mode(bits):
        fused = run(lambda a, s: tn.unit_rows(a, scale=s))
        composed = run(unit_rows_of_product)
    for f, c in zip(fused, composed):
        assert f.tobytes() == c.tobytes()
    assert not fused[0][:2].any()  # zero rows of z give zero views


def test_unit_rows_grad_fd():
    rng = np.random.default_rng(7)
    arrays = {"x": rng.uniform(-1.0, 1.0, size=(3, 4, 5))}
    weights = rng.normal(size=(3, 4, 5))

    def loss(p):
        y = tn.add(tn.scale(p["x"], 3.0), Tensor(0.5))
        return sum_all(tn.mul(tn.unit_rows(y), Tensor(weights)))

    check_grads(loss, arrays, tol=1e-3)


def test_unit_rows_overflow_raises_naming_it():
    """A squared norm that overflows would divide to 0, so it raises under
    a tape, under a stage naming it, and with neither, with no numpy
    warning ahead of the error."""
    big = np.array([[1.0, 2.0], [3e38, 3e38]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape(), pytest.raises(FloatingPointError, match="unit_rows$"):
            tn.unit_rows(Tensor(big, requires_grad=True))
        with pytest.raises(FloatingPointError, match=r"unit_rows \(bank\)$"):
            with tn.stage("bank"):
                tn.unit_rows(Tensor(big))
        with pytest.raises(FloatingPointError, match="unit_rows$"):
            tn.unit_rows(Tensor(big))


def test_cosine_exp_sim_range():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = Tensor(rng.normal(size=(1, 6)).astype(np.float32))
        b = Tensor(rng.normal(size=(1, 6)).astype(np.float32))
        v = _cosine_exp_sim(a, b).item()
        assert 1.0 / math.e - 1e-5 <= v <= math.e + 1e-5


def test_cosine_exp_sim_grad_fd():
    rng = np.random.default_rng(43)
    arrays = {"a": rng.normal(size=(1, 5)), "b": rng.normal(size=(1, 5))}
    check_grads(lambda p: _cosine_exp_sim(p["a"], p["b"]), arrays)


def test_log_softmax_contrast_uniform_gives_log_n():
    for n in (2, 5, 16):
        pos = Tensor(0.7)
        negs = [Tensor(0.7) for _ in range(n - 1)]
        out = log_softmax_contrast(pos, negs)
        assert out.item() == pytest.approx(math.log(n), rel=1e-6)


def test_log_softmax_contrast_empty_negs_rejected():
    with pytest.raises(ValueError):
        log_softmax_contrast(Tensor(0.0), [])


def test_log_softmax_contrast_matches_naive():
    rng = np.random.default_rng(47)
    for _ in range(20):
        logs = rng.uniform(-3.0, 3.0, size=6)
        out = log_softmax_contrast(
            Tensor(logs[0]), [Tensor(v) for v in logs[1:]]
        )
        p, n = np.exp(logs[0]), np.exp(logs[1:]).sum()
        naive = -np.log(p / (p + n))
        assert out.item() == pytest.approx(naive, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-8, max_value=8), min_size=2, max_size=10))
def test_log_softmax_contrast_positive(logs):
    # 64-bit so the gap between pos and the log-sum-exp never rounds to zero
    with tn.precision_mode(64):
        out = log_softmax_contrast(Tensor(logs[0]), [Tensor(v) for v in logs[1:]])
    assert out.item() > 0.0


def test_log_softmax_contrast_grad_fd():
    rng = np.random.default_rng(53)
    arrays = {"x": rng.normal(size=(5,))}

    def loss(p):
        cols = [tn.reshape(tn.slice_axis(p["x"], i, i + 1), ()) for i in range(5)]
        return log_softmax_contrast(cols[0], cols[1:])

    check_grads(loss, arrays)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    with Tape():
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_square_gives_2x():
    with tn.precision_mode(64), Tape():
        x = Tensor(np.arange(4.0), requires_grad=True)
        backward(sum_all(tn.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * np.arange(4.0))


def test_backward_fanout_accumulates():
    with tn.precision_mode(64), Tape():
        x = Tensor(2.0, requires_grad=True)
        y = tn.add(tn.mul(x, x), tn.scale(x, 3.0))  # x^2 + 3x
        backward(tn.reshape(y, ()))
    assert x.grad == pytest.approx(7.0)


def test_backward_fanout_accumulates_into_0d_buffer():
    """Three contributions to a 0-d leaf: numpy returns scalars for 0-d
    products, so the sweep must add into an array it owns, not rebind."""
    with tn.precision_mode(64), Tape():
        x = Tensor(2.0, requires_grad=True)
        y = tn.add(tn.add(tn.mul(x, x), tn.scale(x, 3.0)), tn.scale(x, 5.0))
        backward(tn.reshape(y, ()))
    assert x.grad == 12.0  # 2x + 3 + 5


def test_backward_shared_gradient_is_not_accumulated_in_place():
    """add hands its g to both parents; adding a later contribution for one
    of them must not change the other's gradient."""
    w = np.array([1.0, 2.0, 4.0])
    c = np.array([8.0, 16.0, 32.0])
    with Tape():
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        later = tn.mul(a, Tensor(c))  # recorded first, so reached last
        both = tn.add(a, b)
        backward(tn.add(sum_all(tn.mul(both, Tensor(w))), sum_all(later)))
    np.testing.assert_array_equal(b.grad, w)
    np.testing.assert_array_equal(a.grad, w + c)


def test_backward_hands_gradient_buffers_on_without_aliasing():
    """A one-parent VJP that passes on the sweep's own g, or a view of it
    (transpose, reshape), hands that buffer to its parent, and the next
    contribution is added into it in place; the gradients keep the bits
    of fresh sums.  Only a buffer handed on that way is written: what a
    VJP captured, and the g that ``add`` hands to two parents, stay as
    they were."""
    rng = np.random.default_rng(13)
    c2, c3, c4, c7, c8 = (rng.normal(size=s).astype(np.float32)
                          for s in [(2, 6), (12,), (3, 4), (3, 4), (3, 4)])
    consts = [c2, c3, c4, c7, c8]
    kept = [c.copy() for c in consts]
    seen = []

    def spy(record):
        def vjp(g):
            out = record.vjp(g)
            seen.append((record.name, len(record.parents), g, g.copy(), out))
            return out
        return record._replace(vjp=vjp)

    with Tape() as tape:
        x, y, z = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(3))
        # x: reached first through transpose and reshape, then through a reshape
        f = tn.mul(tn.reshape(x, (12,)), Tensor(c3))
        d = tn.mul(tn.reshape(tn.transpose(x), (2, 6)), Tensor(c2))
        # y and z: add hands one g to both, then each gets another term
        u, w = tn.mul(y, Tensor(c7)), tn.mul(z, Tensor(c8))
        q = tn.mul(tn.add(y, z), Tensor(c4))
        loss = sum_all(d)
        for t in (f, u, w, q):
            loss = tn.add(loss, sum_all(t))
        tape._records[:] = [spy(r) for r in tape._records]
        backward(loss)

    assert x.grad.tobytes() == (c2.reshape(4, 3).T + c3.reshape(3, 4)).tobytes()
    assert y.grad.tobytes() == (c4 + c7).tobytes()
    assert z.grad.tobytes() == (c4 + c8).tobytes()
    handed = [out[0] for name, _, g, _, out in seen if name == "mul" and g.shape == (2, 6)]
    assert x.grad.base is handed[0]  # d's gradient buffer, transposed and added into
    for name, parents, g, before, _ in seen:
        if parents > 1:
            assert g.tobytes() == before.tobytes(), name
    for c, k in zip(consts, kept):
        assert c.tobytes() == k.tobytes()


@pytest.mark.parametrize("dense_first", [True, False])
def test_backward_overlapping_regions_and_dense_contribution(dense_first):
    """Two overlapping slice_axis regions plus a dense term, all to one parent."""
    rng = np.random.default_rng(12)
    w1, w2, w3 = (rng.integers(-8, 8, size=s).astype(float) for s in [(2, 3), (2, 4), (2, 5)])
    with tn.precision_mode(64), Tape():
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        terms = [
            sum_all(tn.mul(tn.slice_axis(x, 0, 3, axis=1), Tensor(w1))),
            sum_all(tn.mul(tn.slice_axis(x, 1, 5, axis=1), Tensor(w2))),
        ]
        dense = sum_all(tn.mul(x, Tensor(w3)))
        terms = [dense] + terms if dense_first else terms + [dense]
        backward(tn.add(tn.add(terms[0], terms[1]), terms[2]))
    expected = w3.copy()
    expected[:, 0:3] += w1
    expected[:, 1:5] += w2
    np.testing.assert_array_equal(x.grad, expected)


def test_unread_intermediates_are_freed_before_backward():
    """Records keep what their VJPs read, not the tensors: add and sum_all
    keep shapes and relu a mask, so their inputs die with the forward."""
    with Tape():
        x = Tensor(np.arange(-2.0, 2.0), requires_grad=True)
        y = tn.add(x, x)
        r = tn.relu(y)
        loss = sum_all(r)
        refs = [weakref.ref(y.data), weakref.ref(r.data)]
        del y, r
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 2.0])


def test_backward_drops_each_contribution_once_added():
    """The sweep keeps no term it has added into a buffer: an added term
    is dead when the next record's VJP starts, and a VJP that yields its
    terms has the first added and dropped before it computes the second.
    A loop variable held the last term, and zip's reused result tuple the
    previous one, alive through the next VJP."""
    refs, seen = {}, {}

    def term(name):
        arr = np.ones(3, dtype=tn.dtype())
        refs[name] = weakref.ref(arr)
        return arr

    def note(when):
        seen[when] = {name for name, ref in refs.items() if ref() is not None}

    def op(parents, names, shape=(3,)):
        def vjp(g):
            note(names[0])
            return tuple(term(name) for name in names)
        return tn._make(np.zeros(shape), parents, vjp, "op")

    def yielding(u, v):
        def vjp(g):
            note("y->u")
            yield term("y->u")  # u already has a buffer: added
            note("y->v")
            yield term("y->v")  # v's first term: kept as its buffer
        return tn._make(np.zeros(3), (u, v), vjp, "yielding")

    with Tape():
        w = Tensor(np.zeros(3), requires_grad=True)
        u = op((w,), ["u->w"])
        v = op((u,), ["v->u"])
        y = yielding(u, v)
        k = op((u,), ["k->u"])
        backward(op((y, k), ["loss->y", "loss->k"], shape=()))
    assert seen["y->u"] == {"k->u", "loss->y"}
    assert seen["y->v"] == {"k->u", "loss->y"}  # y->u was added into k->u
    assert seen["v->u"] == {"k->u", "y->v"}
    assert seen["u->w"] == {"k->u"}  # v->u was added into k->u too
    np.testing.assert_array_equal(w.grad, np.ones(3))
    assert refs["k->u"]() is None  # u's buffer died with u's record


def test_second_backward_on_spent_tape_rejected():
    with Tape():
        x = Tensor(np.ones(3), requires_grad=True)
        loss = sum_all(tn.mul(x, x))
        backward(loss)
        assert len(active_tape()) == 0
        with pytest.raises(RuntimeError, match="already consumed"):
            backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_requires_scalar():
    with Tape():
        x = Tensor(np.ones(3), requires_grad=True)
        y = tn.mul(x, x)
        with pytest.raises(ValueError):
            backward(y)


def test_backward_requires_tape():
    x = Tensor(1.0, requires_grad=True)
    with pytest.raises(RuntimeError):
        backward(x)


def test_backward_detached_loss_rejected():
    with Tape():
        x = Tensor(np.ones(3))  # no requires_grad anywhere
        y = sum_all(x)
        with pytest.raises(RuntimeError):
            backward(y)


def test_detach_cuts_graph():
    with Tape():
        x = Tensor(np.ones(3), requires_grad=True)
        y = tn.mul(x, x)
        z = sum_all(tn.mul(Tensor(y.data), y))
        backward(z)
    np.testing.assert_allclose(x.grad, 2.0 * np.ones(3))  # only the tracked branch


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(RuntimeError):
            Tape().__enter__()


def test_ops_off_tape_record_nothing():
    with Tape() as tape:
        pass  # closed immediately
    x = Tensor(np.ones(3), requires_grad=True)
    tn.mul(x, x)
    assert len(tape) == 0


def test_other_thread_does_not_record():
    done = []

    def worker():
        x = Tensor(np.ones(2), requires_grad=True)
        tn.mul(x, x)
        done.append(True)

    with Tape() as tape:
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert done and len(tape) == 0


# ---------------------------------------------------------------------------
# purity, precision, finiteness


def test_ops_are_pure():
    rng = np.random.default_rng(59)
    x = rng.normal(size=(1, 4, 3)).astype(np.float32)
    w = rng.normal(size=(2, 3, 2)).astype(np.float32)
    xc, wc = x.copy(), w.copy()
    a = tn.conv1d_strided(Tensor(x), Tensor(w), stride=2)
    b = tn.conv1d_strided(Tensor(x), Tensor(w), stride=2)
    assert np.array_equal(a.data, b.data)
    np.testing.assert_array_equal(x, xc)
    np.testing.assert_array_equal(w, wc)


def test_precision_mode_switches_and_restores():
    assert tn.precision() == 32
    assert Tensor(1.0).data.dtype == np.float32
    with tn.precision_mode(64):
        assert tn.precision() == 64
        assert Tensor(1.0).data.dtype == np.float64
    assert tn.precision() == 32


def test_bad_precision_rejected():
    with pytest.raises(ValueError):
        tn.set_precision(16)


def test_precision_is_per_thread():
    """Two threads at precisions 32 and 64, both set before either builds
    a tensor and neither reset before both are done: each records and
    backpropagates at its own precision, and the main thread's stays at
    the default."""
    barrier = threading.Barrier(2)
    seen = {}

    def worker(bits):
        with tn.precision_mode(bits):
            barrier.wait()
            x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
            with Tape():
                loss = tn.mean_all(tn.sigmoid(tn.mul(x, x)))
                backward(loss)
            seen[bits] = (tn.dtype(), loss.data.dtype, x.data.dtype, x.grad.dtype)
            barrier.wait()

    threads = [threading.Thread(target=worker, args=(bits,)) for bits in (32, 64)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == {32: (np.float32,) * 4, 64: (np.float64,) * 4}
    assert tn.precision() == 32


def test_nonfinite_input_rejected():
    with pytest.raises(FloatingPointError):
        Tensor([1.0, np.inf])
    with pytest.raises(FloatingPointError):
        Tensor([np.nan])


def test_relu_checks_its_input_for_neg_inf_only():
    """relu hides -inf alone: a -inf pre-activation raises in a conv with
    relu folded in (under a tape, under a stage naming it, and with
    neither) and in relu under a stage; NaN and +inf pass relu and are
    left to the stage's check."""
    x = Tensor(np.full((1, 2, 1), 3e38))  # (B, T, C)
    w = Tensor(np.full((1, 1, 1), -3e38))
    with np.errstate(over="ignore"):
        with Tape(), pytest.raises(FloatingPointError, match="conv1d pre-activation$"):
            tn.conv1d_strided(x, w, 1, relu=True)
        with pytest.raises(FloatingPointError, match=r"conv1d pre-activation \(latents\)$"):
            with tn.stage("latents"):
                tn.conv1d_strided(x, w, 1, relu=True)
        with pytest.raises(FloatingPointError, match="conv1d pre-activation$"):
            tn.conv1d_strided(x, w, 1, relu=True)
        with pytest.raises(FloatingPointError, match=r"relu input \(bank\)$"):
            with tn.stage("bank"):
                tn.relu(tn.scale(Tensor([1.0, -3e38]), 10.0))
        with tn.stage("bank"):
            for value in (3e38, np.nan):
                out = tn.relu(tn.scale(Tensor([10.0]), value))
                with pytest.raises(FloatingPointError, match="bank"):
                    tn.check_stage(out)


def test_nonfinite_op_output_rejected():
    with pytest.raises(FloatingPointError):
        tn.log(Tensor([-1.0]))
    with pytest.raises(FloatingPointError):
        tn.exp(Tensor([1000.0]))  # overflows float32


# ---------------------------------------------------------------------------
# k-major stacks, and the VJPs that skip padded BLAS work: each must give
# the bits of the separate records or the BLAS products it replaces


def _signed_zeros(rng, shape, dtype=np.float32):
    """Normal values with about a third of them +0.0 or -0.0."""
    values = rng.normal(size=shape).astype(dtype)
    pick = rng.integers(0, 6, size=shape)
    values[pick == 0] = 0.0
    values[pick == 1] = -0.0
    return values


def test_backward_region_list_matches_separate_slice_records():
    """A VJP that returns a list of overlapping regions for one parent
    (``stack_spans``) leaves the bytes, -0.0 included, that one slice and
    reshape record per span leave."""
    rng = np.random.default_rng(70)
    x = rng.normal(size=(3, 7, 2)).astype(np.float32)
    spans = [(1, 7), (2, 7), (0, 5), (6, 7)]
    weights = [_signed_zeros(rng, (3 * (hi - lo), 2)) for lo, hi in spans]
    weights[0][:] = -0.0  # the first region is assigned, not added

    with Tape():
        stacked = Tensor(x, requires_grad=True)
        rows = tn.stack_spans(stacked, spans)
        backward(sum_all(tn.mul(rows, Tensor(np.concatenate(weights)))))
    with Tape():
        separate = Tensor(x, requires_grad=True)
        total = None
        for (lo, hi), w in zip(spans, weights):
            part = tn.reshape(tn.slice_axis(separate, lo, hi, axis=1), (-1, 2))
            term = sum_all(tn.mul(part, Tensor(w)))
            total = term if total is None else tn.add(total, term)
        backward(total)
    np.testing.assert_array_equal(rows.data, np.concatenate(
        [x[:, lo:hi].reshape(-1, 2) for lo, hi in spans]))
    assert stacked.grad.tobytes() == separate.grad.tobytes()
    assert np.signbit(stacked.grad[:, 1:2]).any()


def test_stack_ops_reject_bad_spans_and_blocks():
    x = Tensor(np.zeros((2, 5, 3)))
    with pytest.raises(ValueError, match=r"time span \[3, 6\) outside a sequence of 5 steps"):
        tn.stack_spans(x, [(0, 5), (3, 6)])
    with pytest.raises(ValueError, match="no time spans"):
        tn.stack_spans(x, [])
    with pytest.raises(ValueError, match=r"blocks of \[4, 4\] rows do not tile 10 rows"):
        tn.sum_blocks(Tensor(np.zeros((10, 2))), [4, 4])
    with pytest.raises(ValueError, match="3 blocks but a stack of 2 matrices"):
        tn.block_matmul(Tensor(np.zeros((6, 3))), Tensor(np.zeros((2, 3, 4))), [2, 2, 2])


@pytest.mark.parametrize("bits", [32, 64])
def test_block_ops_match_per_block_records_bitwise(bits):
    """``block_matmul`` (shared and stacked right operand), ``span_matvec``
    and ``sum_blocks`` give the values and gradients of one matmul, slice
    and sum record per block, bit for bit."""
    rng = np.random.default_rng(71)
    batch, steps, m, j = 2, 6, 4, 5
    spans = [(1, 6), (2, 6), (3, 6)]
    sizes = [batch * (hi - lo) for lo, hi in spans]
    with tn.precision_mode(bits):
        arrays = [rng.normal(size=s) for s in
                  [(sum(sizes), j), (j, 7), (3, 7, j), (batch, steps, m, j)]]

        def leaves():
            return [Tensor(a, requires_grad=True) for a in arrays]

        with Tape():
            a, shared, stack, x = leaves()
            out = tn.add(tn.sum_blocks(tn.block_matmul(a, shared, sizes), sizes),
                         tn.sum_blocks(tn.block_matmul(a, tn.transpose(stack, (0, 2, 1)), sizes),
                                       sizes))
            out = tn.add(out, tn.sum_blocks(tn.span_matvec(x, a, spans), sizes))
            backward(out)
        with Tape():
            a2, shared2, stack2, x2 = leaves()
            total, start = None, 0
            for i, ((lo, hi), n) in enumerate(zip(spans, sizes)):
                rows = tn.slice_axis(a2, start, start + n)
                start += n
                head = tn.reshape(tn.slice_axis(stack2, i, i + 1), (7, j))
                terms = [
                    sum_all(tn.matmul(rows, shared2)),
                    sum_all(tn.matmul(rows, tn.transpose(head))),
                ]
                cols = tn.reshape(rows, (batch, hi - lo, j, 1))
                terms.append(sum_all(tn.matmul(tn.slice_axis(x2, lo, hi, axis=1), cols)))
                total = terms if total is None else [tn.add(t, u) for t, u in zip(total, terms)]
            want = tn.add(tn.add(total[0], total[1]), total[2])
            backward(want)
    assert out.data.tobytes() == want.data.tobytes()
    for got, want in zip((a, shared, stack, x), (a2, shared2, stack2, x2)):
        assert got.grad.tobytes() == np.ascontiguousarray(want.grad).tobytes()


@pytest.mark.parametrize("K", [1, 4, 12])
@pytest.mark.parametrize("bits", [32, 64])
def test_span_matvec_dense_dx_matches_region_list_bitwise(K, bits):
    """``span_matvec``'s dense gradient, each span's outer products added
    into zeros, has the bytes of one ``a @ b`` region per span added
    last span first, -0.0 products included, at 1, 4 and 12 horizons
    (the spans of ``losses.horizons``); the matrices' input gets one more,
    later contribution, as the units do in the DDCL."""
    dtype = tn._DTYPES[bits]
    rng = np.random.default_rng(74 + K)
    batch, steps, m, j = 3, K + 4, 4, 6
    spans = [(k, steps) for k in range(1, K + 1)]
    x = _signed_zeros(rng, (batch, steps, m, j), dtype)
    v = _signed_zeros(rng, (sum(tn.span_rows(batch, spans)), j), dtype)
    up = _signed_zeros(rng, (v.shape[0], m), dtype)
    other = _signed_zeros(rng, x.shape, dtype)
    grads = []
    with tn.precision_mode(bits):
        for op in (tn.span_matvec, span_matvec_regions):
            with Tape():
                xt, vt = Tensor(x, requires_grad=True), Tensor(v, requires_grad=True)
                later = sum_all(tn.mul(xt, Tensor(other)))  # recorded first, reached last
                out = op(xt, vt, spans)
                backward(tn.add(later, sum_all(tn.mul(out, Tensor(up)))))
            grads.append((out.data.tobytes(), xt.grad.tobytes(), vt.grad.tobytes()))
    assert grads[0] == grads[1]
    products = up[: batch * (steps - K), :, None] * v[: batch * (steps - K), None, :]
    assert (np.signbit(products) & (products == 0)).any()


@pytest.mark.parametrize("batch, t, c_in, c_out, f, relu", [
    (3, 12, 4, 6, 3, False),    # T a multiple of F
    (2, 14, 4, 6, 3, True),     # two tail frames with no gradient
    (1, 13, 5, 7, 4, True),     # B = 1
    (1, 240, 128, 128, 3, True),  # a `small` layer at B = 1
    (4, 80, 128, 128, 4, True),
    (2, 21, 128, 128, 2, False),
])
def test_conv_tiled_dx_matches_tap_loop_bitwise(batch, t, c_in, c_out, f, relu):
    """With stride == F the taps tile the input, and dx is one product
    against the tap-major filter matrix; its bytes, -0.0 included, are
    those of the tap loop that adds each tap's product into zeros."""
    rng = np.random.default_rng(72)
    x = rng.normal(size=(batch, t, c_in)).astype(np.float32)
    w = rng.normal(size=(c_out, c_in, f)).astype(np.float32)
    t_out = (t - f) // f + 1
    upstream = _signed_zeros(rng, (batch, t_out, c_out))
    upstream[0, 0] = -0.0  # a gradient row of -0.0 only
    with Tape():
        xt = Tensor(x, requires_grad=True)
        y = tn.conv1d_strided(xt, Tensor(w, requires_grad=True), f, relu=relu)
        backward(sum_all(tn.mul(y, Tensor(upstream))))

    g = upstream * (y.data > 0) if relu else upstream
    gmat = g.reshape(batch * t_out, c_out)
    dpatches = (gmat @ w.reshape(c_out, c_in * f)).reshape(batch, t_out, c_in, f)
    dx = np.zeros((batch, t, c_in), dtype=np.float32)
    for tap in range(f):
        dx[:, tap : tap + f * (t_out - 1) + 1 : f] += dpatches[..., tap]
    assert xt.grad.tobytes() == dx.tobytes()
    assert not xt.grad[:, t_out * f :].any()


@pytest.mark.parametrize("f", [2, 3, 4])
@pytest.mark.parametrize("batch", [1, 2, 32])
@pytest.mark.parametrize("view", [False, True])
@pytest.mark.parametrize("relu", [False, True])
def test_conv_dw_from_tap_major_input_matches_patch_matrix_bitwise(f, batch, view, relu):
    """With stride == F, dw is one product with the input's tap-major view,
    whose columns are the patch matrix's in tap*C_in + c order, permuted
    back to c*F + tap; its bytes are those of the patch-matrix product
    (``helpers.conv1d_patch_dw``), at B = 1 and above, for a contiguous
    input and a transposed batch view, with a frame past the last step."""
    rng = np.random.default_rng(80)
    c_in, c_out, t = 24, 16, 9 * f + 1
    x = rng.normal(size=(batch, c_in, t) if view else (batch, t, c_in)).astype(np.float32)
    if view:
        x = x.transpose(0, 2, 1)
    w = rng.normal(size=(c_out, c_in, f)).astype(np.float32)
    up = _signed_zeros(rng, (batch, 9, c_out))
    with Tape():
        wt = Tensor(w, requires_grad=True)
        y = tn.conv1d_strided(Tensor(x), wt, f, relu=relu)
        backward(sum_all(tn.mul(y, Tensor(up))))
    g = up * (y.data > 0) if relu else up
    assert wt.grad.flags.c_contiguous
    assert wt.grad.tobytes() == conv1d_patch_dw(x, g, f, f).tobytes()


@pytest.mark.parametrize("batch, t, c_in, c_out, f, stride, bias", [
    (1, 13, 3, 5, 3, 3, True),      # B = 1; 20 mask bits, not whole bytes
    (3, 17, 2, 7, 4, 2, False),     # F > stride: dx from the tap loop
    (4, 80, 16, 16, 4, 4, True),    # stride == F: the tiled dx
    (32, 720, 3, 128, 3, 3, True),  # the first `small` layer at B = 32
])
def test_conv_packed_relu_mask_matches_bool_mask_bitwise(batch, t, c_in, c_out, f, stride, bias):
    """A conv's relu mask kept as packed bits gives the output and the x,
    w and bias gradients, -0.0 included, of the bool mask it replaces
    (``helpers.conv1d_relu_bool_mask``): with pre-activations exactly 0
    (zero input windows into zero-bias channels) and negative upstream
    gradients at masked entries, which the mask turns into -0.0."""
    rng = np.random.default_rng(76)
    x = rng.normal(size=(batch, t, c_in)).astype(np.float32)
    x[:, : 2 * f] = 0.0
    w = rng.normal(size=(c_out, c_in, f)).astype(np.float32)
    b = rng.normal(size=(c_out, 1)).astype(np.float32)
    b[::2] = 0.0
    t_out = (t - f) // stride + 1
    up = _signed_zeros(rng, (batch, t_out, c_out))
    up[:, 0, ::2] = -1.5
    runs = []
    for op in (lambda *a: tn.conv1d_strided(*a, relu=True), conv1d_relu_bool_mask):
        with Tape():
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            bt = Tensor(b, requires_grad=True) if bias else None
            y = op(xt, wt, stride, bt)
            backward(sum_all(tn.mul(y, Tensor(up))))
        runs.append([y.data.tobytes(), xt.grad.tobytes(), wt.grad.tobytes()]
                    + ([bt.grad.tobytes()] if bias else []))
    assert runs[0] == runs[1]
    assert not y.data[:, 0, ::2].any()  # zero windows into zero-bias channels


def test_strided_conv_keeps_its_input_not_a_patch_matrix():
    """A conv with stride < F on a tracked input keeps that input for its
    VJP, not its patch matrix (F / stride times the input's size): what
    the forward leaves allocated beyond its output is under the patch
    matrix's bytes."""
    rng = np.random.default_rng(81)
    batch, t, c_in, c_out, f, stride = 4, 402, 32, 32, 4, 2
    x = Tensor(rng.normal(size=(batch, t, c_in)), requires_grad=True)
    w = Tensor(rng.normal(size=(c_out, c_in, f)), requires_grad=True)
    t_out = (t - f) // stride + 1
    patches = 4 * batch * t_out * c_in * f
    with Tape():
        tracemalloc.start()
        try:
            y = tn.conv1d_strided(x, w, stride, relu=True)
            kept = tracemalloc.get_traced_memory()[0] - y.data.nbytes
        finally:
            tracemalloc.stop()
    assert kept < patches, (kept, patches)


def test_relu_packed_mask_matches_bool_mask_bitwise():
    """relu's packed mask, of a transposed input as the bank's hidden layer
    has, gives the gradient of a C-ordered bool mask, -0.0 included."""
    rng = np.random.default_rng(77)
    x = _signed_zeros(rng, (5, 7, 3)).transpose(1, 0, 2)
    up = _signed_zeros(rng, x.shape)
    with Tape():
        xt = Tensor(x, requires_grad=True)
        backward(sum_all(tn.mul(tn.relu(xt), Tensor(up))))
    assert xt.grad.tobytes() == (up * np.greater(x, 0, order="C")).tobytes()
    assert (np.signbit(xt.grad) & (xt.grad == 0) & (x <= 0)).any()


def test_span_matvec_vjp_allocates_under_two_blocks_beyond_its_outputs():
    """At the `small` DDCL shapes (B = 32, 10 steps, L = 12, D = 128, K = 4)
    span_matvec's VJP allocates its two gradients and, beyond them, one
    reused block of outer products and numpy's working buffer for one multiply:
    under two blocks (1.8 MB when a span's products were one temporary)."""
    rng = np.random.default_rng(78)
    batch, steps, m, j = 32, 10, 12, 128
    spans = [(0, steps - k) for k in range(1, 5)]
    x = Tensor(rng.normal(size=(batch, steps, m, j)), requires_grad=True)
    v = Tensor(rng.normal(size=(sum(tn.span_rows(batch, spans)), j)), requires_grad=True)
    with Tape() as tape:
        out = tn.span_matvec(x, v, spans)
        vjp = tape._records[-1].vjp
    g = rng.normal(size=out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        dx, dv = vjp(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 4 * max(tn._BLOCK, (steps - 1) * m * j)
    assert peak - dx.nbytes - dv.nbytes < 2 * block, peak / 2**20


def test_blocked_vjps_match_oracles_bitwise(monkeypatch):
    """With blocks of a few rows, span_matvec's outer products keep the
    bytes of their oracle."""
    monkeypatch.setattr(tn, "_BLOCK", 16)
    test_span_matvec_dense_dx_matches_region_list_bitwise(4, 32)


@pytest.mark.parametrize("rows", [12, 64, 128])
@pytest.mark.parametrize("bits", [32, 64])
def test_matmul_outer_product_vjp_matches_blas_bitwise(rows, bits):
    """A matmul VJP whose contracted length is 1 has the bytes of BLAS's
    outer product, which gives +0.0 for a product of -0.0: da of a
    (..., L, D) @ (..., D, 1) product and db of a (1, J) @ (J, K) one,
    with factors that include +-0."""
    dtype = tn._DTYPES[bits]
    rng = np.random.default_rng(73)
    cols = 128
    a = _signed_zeros(rng, (3, rows, cols), dtype)
    v = _signed_zeros(rng, (3, cols, 1), dtype)
    g = _signed_zeros(rng, (3, rows, 1), dtype)
    u = _signed_zeros(rng, (1, rows), dtype)
    h = _signed_zeros(rng, (1, cols), dtype)
    with tn.precision_mode(bits):
        with Tape():
            at = Tensor(a, requires_grad=True)
            backward(sum_all(tn.mul(tn.matmul(at, Tensor(v)), Tensor(g))))
        with Tape():
            bt = Tensor(u.T @ h, requires_grad=True)
            backward(sum_all(tn.mul(tn.matmul(Tensor(u), bt), Tensor(h))))
    assert at.grad.tobytes() == (g @ v.swapaxes(-1, -2)).tobytes()
    assert bt.grad.tobytes() == (u.T @ h).tobytes()
    assert (np.signbit(g) & (g == 0)).any() and not np.signbit(at.grad[at.grad == 0]).any()
