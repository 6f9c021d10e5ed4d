"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Only the primitives needed by the encoder / context / transformation stack
are provided.  Every primitive computes its result eagerly with numpy and,
while a :class:`Tape` is active, appends a record holding the exact
vector-Jacobian rule.  The tape is in execution order, so it is already
topologically sorted and :func:`backward` is a single reverse sweep.

Conventions
-----------
* Storage and compute are 32-bit by default; :func:`set_precision` switches
  to 64-bit for gradient verification runs.
* Any op producing NaN/Inf raises ``FloatingPointError``.
* A tape and the tensors built on it belong to one thread.  Detached
  tensors (and anything computed with no tape active) are plain data and
  may be shared freely.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

_DTYPES = {32: np.float32, 64: np.float64}
_dtype = np.float32

# norm of a vector is clamped below at this value before any division
NORM_EPS = 1e-12


def set_precision(bits: int) -> None:
    """Switch global precision: 32 (default) or 64 (verification runs)."""
    global _dtype
    if bits not in _DTYPES:
        raise ValueError(f"precision must be 32 or 64, got {bits}")
    _dtype = _DTYPES[bits]


def precision() -> int:
    return 32 if _dtype is np.float32 else 64


def dtype():
    """The numpy float type for the current precision."""
    return _dtype


@contextlib.contextmanager
def precision_mode(bits: int):
    """Temporarily switch precision.  Do not switch in the middle of a graph."""
    previous = precision()
    set_precision(bits)
    try:
        yield
    finally:
        set_precision(previous)


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in {what}")


class Tensor:
    """Dense real array, optionally participating in gradient recording.

    ``grad`` is populated (same shape as ``data``) by :func:`backward` for
    every ``requires_grad`` tensor reachable from the loss.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=_dtype)
        _check_finite(arr, "tensor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        return out

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Record(NamedTuple):
    out: Tensor
    parents: tuple[Tensor, ...]
    vjp: Callable[[np.ndarray], tuple]


class Tape:
    """Execution-ordered record of primitive ops.

    By construction every record's inputs were produced by earlier records
    (or are leaves), so the list is topologically ordered.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._tracked: set[int] = set()

    def __len__(self) -> int:
        return len(self._records)

    def __enter__(self) -> "Tape":
        if _state.active is not None:
            raise RuntimeError("a tape is already active on this thread")
        _state.active = self
        return self

    def __exit__(self, *exc) -> None:
        _state.active = None

    def _tracks(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._tracked

    def _add(self, out: Tensor, parents: tuple[Tensor, ...], vjp) -> None:
        self._records.append(_Record(out, parents, vjp))
        self._tracked.add(id(out))


class _State(threading.local):
    def __init__(self):
        self.active: Tape | None = None


_state = _State()


def active_tape() -> Tape | None:
    return _state.active


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp, name: str) -> Tensor:
    data = np.asarray(data, dtype=_dtype)
    _check_finite(data, name)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    tape = _state.active
    if tape is not None and any(tape._tracks(p) for p in parents):
        tape._add(out, parents, vjp)
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    The loss must be a scalar produced on the currently active tape.
    """
    tape = _state.active
    if tape is None:
        raise RuntimeError("backward requires an active tape")
    if loss.ndim != 0:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if id(loss) not in tape._tracked:
        raise RuntimeError("loss is not connected to the active tape")

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=_dtype)}
    for rec in reversed(tape._records):
        g = grads.pop(id(rec.out), None)
        if g is None:
            continue
        for parent, pg in zip(rec.parents, rec.vjp(g)):
            if pg is None or not tape._tracks(parent):
                continue
            pid = id(parent)
            got = grads.get(pid)
            grads[pid] = pg.astype(_dtype, copy=False) if got is None else got + pg
    for rec in tape._records:
        for parent in rec.parents:
            if parent.requires_grad and id(parent) in grads:
                parent.grad = grads[id(parent)]


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
        "add",
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
        "sub",
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
        "mul",
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out = a.data / b.data
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g / b.data, a.shape), _unbroadcast(-g * out / b.data, b.shape)),
        "div",
    )


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _make(a.data * factor, (a,), lambda g: (g * factor,), "scale")


def sigmoid(a: Tensor) -> Tensor:
    # exp of -|x| only, so large |x| cannot overflow; each branch is the
    # stable form for its sign
    x = a.data
    ex = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    return _make(out, (a,), lambda g: (g * (a.data > 0),), "relu")


def exp(a: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,), "exp")


def log(a: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out = np.log(a.data)
    return _make(out, (a,), lambda g: (g / a.data,), "log")


def sqrt(a: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g / (2.0 * out),), "sqrt")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    floor = float(floor)
    out = np.maximum(a.data, floor)
    return _make(out, (a,), lambda g: (g * (a.data > floor),), "clamp_min")


# ---------------------------------------------------------------------------
# linear algebra and reductions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data
    return _make(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g), "matmul")


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul of (N, I, J) and (N, J, K) operands into (N, I, K)."""
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError(f"bmm expects 3-D operands, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"bmm batch dimensions disagree: {a.shape} x {b.shape}")
    if a.shape[2] != b.shape[1]:
        raise ValueError(f"bmm inner dimensions disagree: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)
    return _make(
        out,
        (a, b),
        lambda g: (g @ b.data.transpose(0, 2, 1), a.data.transpose(0, 2, 1) @ g),
        "bmm",
    )


def sum_all(a: Tensor) -> Tensor:
    return _make(
        a.data.sum(), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),), "sum_all"
    )


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    return _make(
        a.data.mean(),
        (a,),
        lambda g: (np.broadcast_to(g / n, a.shape).copy(),),
        "mean_all",
    )


def sum_last(a: Tensor, keepdims: bool = True) -> Tensor:
    out = a.data.sum(axis=-1, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, -1)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), vjp, "sum_last")


def logsumexp_last(a: Tensor, keepdims: bool = True) -> Tensor:
    m = a.data.max(axis=-1, keepdims=True)
    out_k = m + np.log(np.sum(np.exp(a.data - m), axis=-1, keepdims=True))
    out = out_k if keepdims else np.squeeze(out_k, axis=-1)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, -1)
        return (g * np.exp(a.data - out_k),)

    return _make(out, (a,), vjp, "logsumexp_last")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    return _make(
        a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),), "reshape"
    )


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(range(a.ndim))[::-1]
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(
        a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),), "transpose"
    )


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join along ``axis`` into a C-contiguous result, whatever the inputs'
    layout.  A matmul against a C-contiguous right operand gives a row the
    same bits whatever the row count (from two rows up); one against a
    transposed, Fortran-order operand does not."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of empty sequence")
    out = np.ascontiguousarray(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, sizes, axis=axis))

    return _make(out, tuple(tensors), vjp, "concat")


def slice_axis(a: Tensor, start: int, stop: int, axis: int = 0) -> Tensor:
    """Entries ``[start, stop)`` along ``axis``; the gradient is zero-padded."""
    axis = axis % a.ndim
    if not 0 <= start <= stop <= a.shape[axis]:
        raise ValueError(f"slice [{start}, {stop}) outside axis {axis} of size {a.shape[axis]}")
    index = (slice(None),) * axis + (slice(start, stop),)
    out = a.data[index]

    def vjp(g):
        da = np.zeros(a.shape, dtype=_dtype)
        da[index] = g
        return (da,)

    return _make(out, (a,), vjp, "slice_axis")


def gather_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """Per-row gather ``out[i, j] = a[i, idx[i, j]]`` from a 2-D tensor.

    Repeated indices in a row scatter-add in reverse, through one flat
    ``bincount`` over ``a.size`` slots.
    """
    idx = np.asarray(idx, dtype=np.intp)
    if a.ndim != 2 or idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ValueError(
            f"gather_last expects (R, N) data and (R, M) indices, got {a.shape}, {idx.shape}"
        )
    out = np.take_along_axis(a.data, idx, axis=1)
    flat = (idx + np.arange(a.shape[0])[:, None] * a.shape[1]).ravel()

    def vjp(g):
        da = np.bincount(flat, weights=g.ravel(), minlength=a.size)
        return (da.reshape(a.shape).astype(_dtype, copy=False),)

    return _make(out, (a,), vjp, "gather_last")


# ---------------------------------------------------------------------------
# strided 1-d convolution (valid, no padding) and its transpose


def _conv_out_len(t: int, f: int, stride: int) -> int:
    return (t - f) // stride + 1


def conv1d_strided(x: Tensor, w: Tensor, stride: int) -> Tensor:
    """Valid cross-correlation along the last axis.

    ``x`` is (B, C_in, T); ``w`` is (C_out, C_in, F).
    Output length is floor((T - F) / stride) + 1.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if x.ndim != 3 or w.ndim != 3:
        raise ValueError(f"conv1d expects (B,C,T) and (C_out,C_in,F), got {x.shape}, {w.shape}")
    batch, c_in, t = x.shape
    c_out, c_in_w, f = w.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but filter expects {c_in_w}")
    if t < f:
        raise ValueError(f"input length {t} shorter than filter length {f}")
    t_out = _conv_out_len(t, f, stride)

    patches = np.empty((batch, c_in, f, t_out), dtype=_dtype)
    last = stride * (t_out - 1)
    for tap in range(f):
        patches[:, :, tap, :] = x.data[:, :, tap : tap + last + 1 : stride]
    pmat = patches.transpose(0, 3, 1, 2).reshape(batch * t_out, c_in * f)
    wmat = w.data.reshape(c_out, c_in * f)
    ymat = pmat @ wmat.T
    y = ymat.reshape(batch, t_out, c_out).transpose(0, 2, 1)

    def vjp(g):
        gmat = g.transpose(0, 2, 1).reshape(batch * t_out, c_out)
        dw = (gmat.T @ pmat).reshape(w.shape)
        dpatches = (gmat @ wmat).reshape(batch, t_out, c_in, f).transpose(0, 2, 3, 1)
        dx = np.zeros((batch, c_in, t), dtype=_dtype)
        # taps within one offset never overlap (stride apart)
        for tap in range(f):
            dx[:, :, tap : tap + last + 1 : stride] += dpatches[:, :, tap, :]
        return (dx, dw)

    return _make(y, (x, w), vjp, "conv1d")


def conv1d_transpose(x: Tensor, w: Tensor, stride: int) -> Tensor:
    """Adjoint of :func:`conv1d_strided`.

    ``x`` is (B, C_in, T); ``w`` is (C_in, C_out, F).
    Output length is (T - 1) * stride + F.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if x.ndim != 3 or w.ndim != 3:
        raise ValueError(f"conv1d_transpose expects 3-D operands, got {x.shape}, {w.shape}")
    batch, c_in, t = x.shape
    c_in_w, c_out, f = w.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but filter expects {c_in_w}")
    t_out = (t - 1) * stride + f

    xmat = x.data.transpose(0, 2, 1).reshape(batch * t, c_in)
    wmat = w.data.reshape(c_in, c_out * f)
    contrib = (xmat @ wmat).reshape(batch, t, c_out, f).transpose(0, 2, 3, 1)
    y = np.zeros((batch, c_out, t_out), dtype=_dtype)
    last = stride * (t - 1)
    for tap in range(f):
        y[:, :, tap : tap + last + 1 : stride] += contrib[:, :, tap, :]

    def vjp(g):
        dcontrib = np.empty((batch, c_out, f, t), dtype=_dtype)
        for tap in range(f):
            dcontrib[:, :, tap, :] = g[:, :, tap : tap + last + 1 : stride]
        dmat = dcontrib.transpose(0, 3, 1, 2).reshape(batch * t, c_out * f)
        dx = (dmat @ wmat.T).reshape(batch, t, c_in).transpose(0, 2, 1)
        dw = (xmat.T @ dmat).reshape(w.shape)
        return (dx, dw)

    return _make(y, (x, w), vjp, "conv1d_transpose")


# ---------------------------------------------------------------------------
# composites used across the model


def norms_last(a: Tensor) -> Tensor:
    """Row euclidean norms (keepdims), clamped below at NORM_EPS."""
    return sqrt(clamp_min(sum_last(mul(a, a)), NORM_EPS**2))


def unit_rows(a: Tensor) -> Tensor:
    """Rows scaled to unit norm (zero rows map near zero, never NaN)."""
    return div(a, norms_last(a))


def log_softmax_contrast(log_pos: Tensor, log_negs: Sequence[Tensor]) -> Tensor:
    """-log(pos / (pos + sum(negs))) from log-similarities, via log-sum-exp.

    Strictly positive for any nonempty negative set.
    """
    log_negs = list(log_negs)
    if not log_negs:
        raise ValueError("log_softmax_contrast needs at least one negative")
    cols = [reshape(log_pos, (1,))] + [reshape(t, (1,)) for t in log_negs]
    lse = logsumexp_last(concat(cols, axis=0), keepdims=False)
    return sub(lse, reshape(log_pos, ()))
