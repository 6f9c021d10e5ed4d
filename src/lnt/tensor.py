"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Only the primitives needed by the encoder / context / transformation stack
are provided.  Every primitive computes its result eagerly with numpy and,
while a :class:`Tape` is active, appends a record holding the exact
vector-Jacobian rule.  The tape is in execution order, so it is already
topologically sorted and :func:`backward` is a single reverse sweep.

Conventions
-----------
* Storage and compute are 32-bit by default; :func:`set_precision` switches
  the calling thread to 64-bit for gradient verification runs.
* Any op producing NaN/Inf raises ``FloatingPointError``: each op checks
  its output, except in a tape-free forward run under :func:`stage`,
  which checks each stage's output once instead.
* Precision, a tape and the tensors built on it belong to one thread.
  Tensors computed with no tape active are plain data and may be shared
  freely.
* A tape serves one :func:`backward`, which consumes its records.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

_DTYPES = {32: np.float32, 64: np.float64}

# norm of a vector is clamped below at this value before any division
NORM_EPS = 1e-12


def set_precision(bits: int) -> None:
    """Switch this thread's precision: 32 (default) or 64 (verification runs)."""
    if bits not in _DTYPES:
        raise ValueError(f"precision must be 32 or 64, got {bits}")
    _state.dtype = _DTYPES[bits]


def precision() -> int:
    return 32 if _state.dtype is np.float32 else 64


def dtype():
    """The numpy float type for this thread's precision."""
    return _state.dtype


@contextlib.contextmanager
def precision_mode(bits: int):
    """Temporarily switch this thread's precision; never mid-graph."""
    previous = precision()
    set_precision(bits)
    try:
        yield
    finally:
        set_precision(previous)


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        where = f" ({_state.stage})" if _state.stage is not None else ""
        raise FloatingPointError(f"non-finite values in {what}{where}")


class Tensor:
    """Dense real array, optionally participating in gradient recording.

    ``grad`` is populated (same shape as ``data``) by :func:`backward` for
    every ``requires_grad`` tensor reachable from the loss.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape", "_node")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=_state.dtype)
        _check_finite(arr, "tensor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._tape = None

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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Record(NamedTuple):
    node: int
    parents: tuple[int | None, ...]  # node per parent, None if untracked
    shapes: tuple[tuple[int, ...], ...]
    vjp: Callable[[np.ndarray], tuple]
    name: str  # the op's name, as its finiteness errors give it


class _Region(NamedTuple):
    """A VJP result that is nonzero only in ``parent[index]``."""

    index: tuple
    grad: np.ndarray


_serials = itertools.count()


class Tape:
    """Execution-ordered record of primitive ops.

    By construction every record's inputs were produced by earlier records
    (or are leaves), so the list is topologically ordered.  A record holds
    node ids and shapes, not tensors: an output is stamped with its tape's
    serial and its node id, and only the arrays a VJP reads stay alive.
    ``requires_grad`` leaves are the only tensors the tape keeps, so that
    :func:`backward` can set their ``grad``.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._serial = next(_serials)
        self._nodes = 0
        self._leaves: dict[int, tuple[int, Tensor]] = {}  # id(leaf) -> (node, leaf)
        self._spent = False

    def __len__(self) -> int:
        return len(self._records)

    def __enter__(self) -> "Tape":
        if _state.active is not None:
            raise RuntimeError("a tape is already active on this thread")
        _state.active = self
        return self

    def __exit__(self, *exc) -> None:
        _state.active = None

    def _node_of(self, t: Tensor) -> int | None:
        """``t``'s node on this tape, or None if no gradient flows to it."""
        if t._tape == self._serial:
            return t._node
        if not t.requires_grad:
            return None
        if id(t) not in self._leaves:
            self._leaves[id(t)] = (self._nodes, t)
            self._nodes += 1
        return self._leaves[id(t)][0]

    def _add(self, out: Tensor, parents: tuple[Tensor, ...], vjp, name: str) -> None:
        nodes = tuple(self._node_of(p) for p in parents)
        if nodes.count(None) == len(nodes):
            return
        out._tape = self._serial
        out._node = self._nodes
        self._nodes += 1
        self._records.append(
            _Record(out._node, nodes, tuple(p.shape for p in parents), vjp, name))


class _State(threading.local):
    def __init__(self):
        self.dtype = np.float32  # set by `set_precision`
        self.active: Tape | None = None
        self.stage: str | None = None  # set by `stage`


_state = _State()


def active_tape() -> Tape | None:
    return _state.active


@contextlib.contextmanager
def stage(name: str):
    """Check a tape-free forward once per stage instead of once per op.

    Ops run in this block with no tape active skip their output check;
    the caller checks the stage's outputs with :func:`check_stage`.  Ops
    that can map a non-finite input to a finite output (sigmoid, exp and
    logsumexp) still check it, relu checks its input for -inf, the one
    value it hides, and unit_rows checks its squared norms in every mode,
    so no overflow is lost before the stage's outputs are checked.  A conv
    with relu folded in checks its pre-activation for -inf in every mode,
    and ``gru`` checks its pre-activations as it always does.
    Every finiteness error raised in the block names ``name``, and numpy's
    floating-point warnings are off there, since these checks report
    every non-finite value.
    """
    if _state.active is not None:
        raise RuntimeError("per-stage checks are for tape-free forwards")
    previous, _state.stage = _state.stage, name
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _state.stage = previous


def check_stage(*tensors: Tensor) -> None:
    """Raise ``FloatingPointError`` naming the current stage unless every
    value of ``tensors`` is finite."""
    for t in tensors:
        if not np.isfinite(t.data).all():
            raise FloatingPointError(f"non-finite values in {_state.stage}")


def _check_input(arr: np.ndarray, what: str) -> None:
    """The input check of an op that can hide an overflow (see `stage`)."""
    if _state.stage is not None and _state.active is None:
        _check_finite(arr, what)


def _check_relu_input(arr: np.ndarray, what: str) -> None:
    """relu maps -inf to 0, so its input is checked for -inf; NaN and +inf
    pass through to the output's check (or the stage's)."""
    if arr.size and arr.min() == -np.inf:
        _check_finite(arr, what)


def _recording(*tensors: Tensor) -> bool:
    """Whether an op on ``tensors`` will be recorded, so that what its VJP
    reads is worth computing in the forward pass."""
    tape = _state.active
    return tape is not None and any(
        t._tape == tape._serial or t.requires_grad for t in tensors
    )


def _make(data: np.ndarray, parents: tuple[Tensor, ...], vjp, name: str) -> Tensor:
    data = np.asarray(data, dtype=_state.dtype)
    tape = _state.active
    if tape is not None or _state.stage is None:
        _check_finite(data, name)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._tape = None
    if tape is not None:
        tape._add(out, parents, vjp, name)
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    The loss must be a scalar produced on the currently active tape.  The
    sweep consumes the tape: each record is dropped once its VJP has run,
    so a second ``backward`` on the same tape is an error.

    Each node keeps one gradient buffer.  A VJP returns, per parent, None,
    an array of the parent's shape, a :class:`_Region`, or a list of
    these, which are added in list order as separate records' would be;
    it never writes into ``g``.  A first contribution is kept as given and
    is owned by the sweep when it is a fresh array (not ``g``, not a
    view).  A later one is added into an owned buffer in place, or else
    into a new buffer that the sweep then owns.  A region is added into
    its slice of the buffer.
    """
    tape = _state.active
    if tape is None:
        raise RuntimeError("backward requires an active tape")
    if tape._spent:
        raise RuntimeError("this tape was already consumed by backward; record a new one")
    if loss.ndim != 0:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if loss._tape != tape._serial:
        raise RuntimeError("loss is not connected to the active tape")
    tape._spent = True

    records = tape._records
    grads: dict[int, np.ndarray] = {loss._node: np.ones((), dtype=_state.dtype)}
    owned: set[int] = set()
    while records:
        node, parents, shapes, vjp, _ = records.pop()
        g = grads.pop(node, None)
        if g is None:
            continue
        for pnode, shape, contribution in zip(parents, shapes, vjp(g)):
            if pnode is None or contribution is None:
                continue
            for pg in contribution if type(contribution) is list else (contribution,):
                buf = grads.get(pnode)
                if type(pg) is _Region:
                    if buf is None:
                        buf = grads[pnode] = np.zeros(shape, dtype=_state.dtype)
                        buf[pg.index] = pg.grad
                    else:
                        if pnode not in owned:
                            buf = grads[pnode] = np.array(buf)
                        buf[pg.index] += pg.grad
                    owned.add(pnode)
                elif buf is None:
                    grads[pnode] = pg
                    if type(pg) is np.ndarray and pg.base is None and pg is not g:
                        owned.add(pnode)
                elif pnode in owned:
                    np.add(buf, pg, out=buf)
                else:
                    # asarray: numpy returns a scalar, not an array, for a 0-d sum
                    grads[pnode] = np.asarray(buf + pg)
                    owned.add(pnode)
    for node, leaf in tape._leaves.values():
        if node in grads:
            leaf.grad = grads[node]


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
    sa, sb = a.shape, b.shape
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)),
        "add",
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    sa, sb = a.shape, b.shape
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)),
        "sub",
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad * bd
    return _make(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)),
        "mul",
    )


def scale(a: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _make(a.data * factor, (a,), lambda g: (g * factor,), "scale")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) / (1 + exp(-|x|)): exp of non-positive values only, so
    # large |x| cannot overflow.  The numerator is exactly 1 for x >= 0 and
    # exp(x) otherwise, so these are the bits of the two stable branches
    # 1 / (1 + exp(-x)) and exp(x) / (1 + exp(x)), without a select.
    # The out= buffers keep a 0-d result an array, not a numpy scalar.
    real = x.dtype.type
    den = np.abs(x, out=np.empty_like(x))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += real(1)
    num = np.minimum(x, real(0), out=np.empty_like(x))
    np.exp(num, out=num)
    num /= den
    return num


def sigmoid(a: Tensor) -> Tensor:
    _check_input(a.data, "sigmoid input")
    out = _sigmoid(a.data)
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def relu(a: Tensor) -> Tensor:
    if _state.stage is not None and _state.active is None:
        _check_relu_input(a.data, "relu input")
    out = np.maximum(a.data, 0.0)
    # C order: the input may be a transposed view (the bank's hidden
    # layer) while its gradient arrives C-ordered, and g * mask across
    # two layouts ran 9x slower than within one
    mask = np.greater(out, 0, order="C") if _recording(a) else None
    return _make(out, (a,), lambda g: (g * mask,), "relu")


def exp(a: Tensor) -> Tensor:
    _check_input(a.data, "exp input")
    with np.errstate(all="ignore"):
        out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,), "exp")


def log(a: Tensor) -> Tensor:
    ad = a.data
    with np.errstate(all="ignore"):
        out = np.log(ad)
    return _make(out, (a,), lambda g: (g / ad,), "log")


# ---------------------------------------------------------------------------
# linear algebra and reductions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of (..., I, J) and (..., J, K) into (..., I, K): two matrices,
    or two stacks of them with the same leading (stack) dimensions."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"matmul expects operands of equal rank >= 2 and equal stack "
                         f"dimensions, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return _make(
        ad @ bd, (a, b),
        lambda g: (_product(g, bd.swapaxes(-1, -2)), _product(ad.swapaxes(-1, -2), g)),
        "matmul",
    )


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, with a contracted length of 1 taken as the outer product
    ``a * b``: BLAS spends a call per matrix on it.  BLAS adds the product
    to 0, so 0 is added to it too, and a -0.0 product gives +0.0 as there."""
    if a.shape[-1] != 1:
        return a @ b
    out = a * b
    out += 0
    return out


def _blocks(sizes: Sequence[int], rows: int) -> list[slice]:
    """The row ranges of consecutive blocks of ``sizes`` rows, which must
    cover ``rows`` exactly."""
    if any(n < 1 for n in sizes) or sum(sizes) != rows:
        raise ValueError(f"blocks of {list(sizes)} rows do not tile {rows} rows")
    ends = np.cumsum(sizes).tolist()
    return [slice(end - n, end) for n, end in zip(sizes, ends)]


def block_matmul(a: Tensor, b: Tensor, sizes: Sequence[int]) -> Tensor:
    """Row block i of ``a`` (S, I), ``sizes[i]`` rows, times ``b[i]`` of an
    (n, I, J) stack, or times ``b`` itself when it is one (I, J) matrix:
    an (S, J) stack of blocks.

    It is one record for what ``len(sizes)`` matmul records of the blocks
    compute, and it keeps their bits: each block is its own product, since
    BLAS rounds a product of a few rows differently from the same rows in
    a taller one.  A shared ``b``'s gradient is the blocks' products added
    last block first, as the reverse sweep would have added them; a
    stacked ``b``'s blocks beyond ``len(sizes)`` get a zero gradient.
    """
    if a.ndim != 2 or b.ndim not in (2, 3) or a.shape[1] != b.shape[-2]:
        raise ValueError(f"block_matmul expects (S, I) rows and an (I, J) matrix or (n, I, J) "
                         f"stack, got {a.shape} and {b.shape}")
    stacked = b.ndim == 3
    if stacked and len(sizes) > b.shape[0]:
        raise ValueError(f"{len(sizes)} blocks but a stack of {b.shape[0]} matrices")
    blocks = _blocks(sizes, a.shape[0])
    ad, bd = a.data, b.data
    mats = list(bd) if stacked else [bd] * len(blocks)
    out = np.empty((a.shape[0], b.shape[-1]), dtype=_state.dtype)
    for rows, mat in zip(blocks, mats):
        np.matmul(ad[rows], mat, out=out[rows])

    def vjp(g):
        da = np.empty(ad.shape, dtype=_state.dtype)
        if stacked:
            fill = np.empty if len(blocks) == bd.shape[0] else np.zeros
            db = fill(bd.shape, dtype=_state.dtype)
        else:
            db = []
        for i, (rows, mat) in enumerate(zip(blocks, mats)):
            da[rows] = _product(g[rows], mat.T)
            if stacked:
                db[i] = _product(ad[rows].T, g[rows])
            else:
                db.insert(0, _product(ad[rows].T, g[rows]))
        return (da, db)

    return _make(out, (a, b), vjp, "block_matmul")


def mean_all(a: Tensor) -> Tensor:
    shape, n = a.shape, a.size
    return _make(
        a.data.mean(),
        (a,),
        lambda g: (np.broadcast_to(g / n, shape).copy(),),
        "mean_all",
    )


def sum_last(a: Tensor, keepdims: bool = True) -> Tensor:
    out = a.data.sum(axis=-1, keepdims=keepdims)
    shape = a.shape

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, -1)
        return (np.broadcast_to(g, shape).copy(),)

    return _make(out, (a,), vjp, "sum_last")


def logsumexp_last(a: Tensor) -> Tensor:
    ad = a.data
    _check_input(ad, "logsumexp input")
    m = ad.max(axis=-1, keepdims=True)
    out = m + np.log(np.sum(np.exp(ad - m), axis=-1, keepdims=True))
    return _make(out, (a,), lambda g: (g * np.exp(ad - out),), "logsumexp_last")


def unit_rows(a: Tensor) -> Tensor:
    """Rows scaled to unit norm, the norm clamped below at NORM_EPS (zero
    rows map to zero, never NaN).

    One record with the bits of the composed mul, sum_last, clamp_min,
    sqrt and div records: the forward runs their numpy calls in order, and
    the VJP returns ``a``'s terms in the order their reverse sweep added
    them, div's first.  An overflowed norm would divide to 0, so the
    squared norms are checked in every mode.
    """
    ad = a.data
    with np.errstate(over="ignore"):
        sq = (ad * ad).sum(axis=-1, keepdims=True)
    _check_finite(sq, "unit_rows")
    floor = float(NORM_EPS**2)
    n = np.sqrt(np.maximum(sq, floor))
    out = ad / n
    mask = sq > floor if _recording(a) else None

    def vjp(g):
        dn = g * out
        dn /= n
        dn = -dn.sum(axis=-1, keepdims=True)
        t = dn / (2.0 * n) * mask * ad
        return ([g / n, t, t],)

    return _make(out, (a,), vjp, "unit_rows")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape, before = tuple(shape), a.shape
    return _make(
        a.data.reshape(shape), (a,), lambda g: (g.reshape(before),), "reshape"
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
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of empty sequence")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, sizes, axis=axis))

    return _make(out, tuple(tensors), vjp, "concat")


def slice_axis(a: Tensor, start: int, stop: int, axis: int = 0) -> Tensor:
    """Entries ``[start, stop)`` along ``axis``; the gradient is a region of
    the input's, which :func:`backward` adds in place."""
    axis = axis % a.ndim
    if not 0 <= start <= stop <= a.shape[axis]:
        raise ValueError(f"slice [{start}, {stop}) outside axis {axis} of size {a.shape[axis]}")
    index = (slice(None),) * axis + (slice(start, stop),)
    return _make(a.data[index], (a,), lambda g: (_Region(index, g),), "slice_axis")


def span_rows(batch: int, spans: Sequence[tuple[int, int]]) -> list[int]:
    """Rows per block of the stack of time ``spans`` of a batch of ``batch``
    sequences (see :func:`stack_spans`)."""
    return [batch * (stop - start) for start, stop in spans]


def _span_blocks(spans: Sequence[tuple[int, int]], batch: int, steps: int) -> list[slice]:
    """The stack's row range per span; each span must lie in [0, steps)."""
    if not spans:
        raise ValueError("no time spans given")
    for start, stop in spans:
        if not 0 <= start < stop <= steps:
            raise ValueError(f"time span [{start}, {stop}) outside a sequence of {steps} steps")
    sizes = span_rows(batch, spans)
    return _blocks(sizes, sum(sizes))


def stack_spans(x: Tensor, spans: Sequence[tuple[int, int]]) -> Tensor:
    """The rows of the time spans ``x[:, start:stop]`` of a (B, T, ...)
    tensor, span after span: an (S, ...) stack whose block i holds
    B * (stop - start) rows in (b, t) order.  The gradient is one region
    per span, added last span first, as per-span slice records would have
    added them."""
    batch, rest = x.shape[0], x.shape[2:]
    blocks = _span_blocks(spans, batch, x.shape[1])
    out = np.empty((blocks[-1].stop,) + rest, dtype=_state.dtype)
    for (start, stop), rows in zip(spans, blocks):
        out[rows].reshape((batch, stop - start) + rest)[...] = x.data[:, start:stop]

    def vjp(g):
        return ([
            _Region((slice(None), slice(start, stop)),
                    g[rows].reshape((batch, stop - start) + rest))
            for (start, stop), rows in zip(spans[::-1], blocks[::-1])
        ],)

    return _make(out, (x,), vjp, "stack_spans")


def span_matvec(x: Tensor, v: Tensor, spans: Sequence[tuple[int, int]]) -> Tensor:
    """For each time span, the matrices ``x[b, t]`` of a (B, T, M, J) tensor,
    t in the span, times the matching rows of ``v``, an (S, J) stack laid
    out as ``stack_spans`` lays out the spans: an (S, M) stack.

    Each row is one matrix-vector product, as a matmul of the span's slice
    of ``x`` with its rows of ``v`` as (..., J, 1) columns computes it, so
    the bits are those of such per-span records.  The slices are views, so
    ``x`` is not copied per span; its gradient is one region per span,
    added last span first.
    """
    if x.ndim != 4 or v.ndim != 2 or v.shape[1] != x.shape[3]:
        raise ValueError(f"span_matvec expects (B, T, M, J) matrices and (S, J) rows, "
                         f"got {x.shape} and {v.shape}")
    batch, _, m, j = x.shape
    blocks = _span_blocks(spans, batch, x.shape[1])
    if blocks[-1].stop != v.shape[0]:
        raise ValueError(f"spans of {blocks[-1].stop} rows but {v.shape[0]} rows to multiply")
    xd, vd = x.data, v.data
    out = np.empty((v.shape[0], m), dtype=_state.dtype)
    for (start, stop), rows in zip(spans, blocks):
        cols = vd[rows].reshape(batch, stop - start, j, 1)
        out[rows] = np.matmul(xd[:, start:stop], cols).reshape(-1, m)

    def vjp(g):
        dv = np.empty(vd.shape, dtype=_state.dtype)
        regions = []
        for (start, stop), rows in zip(spans, blocks):
            n = stop - start
            gk = g[rows].reshape(batch, n, m, 1)
            regions.insert(0, _Region((slice(None), slice(start, stop)),
                                      _product(gk, vd[rows].reshape(batch, n, 1, j))))
            dv[rows] = np.matmul(xd[:, start:stop].swapaxes(-1, -2), gk).reshape(-1, j)
        return (regions, dv)

    return _make(out, (x, v), vjp, "span_matvec")


def sum_blocks(a: Tensor, sizes: Sequence[int]) -> Tensor:
    """Sum of each block of ``sizes[i]`` leading-axis entries of ``a``, the
    block sums added in block order: the bits of one ``sum_all`` record
    per block and ``add`` records joining them."""
    total = None
    for rows in _blocks(sizes, a.shape[0]):
        part = a.data[rows].sum()
        total = part if total is None else total + part
    shape = a.shape
    return _make(total, (a,), lambda g: (np.full(shape, g, dtype=_state.dtype),), "sum_blocks")


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
    shape, size = a.shape, a.size

    def vjp(g):
        da = np.bincount(flat, weights=g.ravel(), minlength=size)
        return (da.reshape(shape).astype(_state.dtype, copy=False),)

    return _make(out, (a,), vjp, "gather_last")


# ---------------------------------------------------------------------------
# gated recurrence


def gru(x: Tensor, h0: Tensor, u_ru: Tensor, u_n: Tensor, b_ru: Tensor, b_n: Tensor) -> Tensor:
    """A whole GRU recurrence as one record: the (B, T, H) hidden states.

    ``x`` is (B, T, 3H), each step's input projections [x_r, x_u, x_n];
    ``h0`` the (B, H) initial state; ``u_ru`` the (H, 2H) stacked
    [U_r; U_u]^T and ``u_n`` the (H, H) U_n^T; ``b_ru`` (2H,) and ``b_n``
    (H,) the biases.  Each step computes

        ru = sigmoid((x_ru + h @ u_ru) + b_ru),  r, u = ru[:, :H], ru[:, H:]
        n  = tanh((x_n + (r * h) @ u_n) + b_n)
        h  = u * h + (1 - u) * n

    with the operands and evaluation order the step had as separate tape
    primitives, and the VJP runs back-propagation through time in the
    order the reverse sweep over those primitives took, so values and
    gradients keep the bits of the composed step.  All pre-activations
    are checked once per call: sigmoid and tanh saturate, so a check of
    the states alone would let an overflow of ``h @ u_ru`` through.
    """
    if x.ndim != 3 or h0.ndim != 2:
        raise ValueError(
            f"gru expects (B, T, 3H) inputs and a (B, H) state, got {x.shape}, {h0.shape}"
        )
    batch, steps, _ = x.shape
    hidden = h0.shape[1]
    for name, t, shape in (
        ("inputs", x, (batch, steps, 3 * hidden)), ("state", h0, (batch, hidden)),
        ("u_ru", u_ru, (hidden, 2 * hidden)), ("u_n", u_n, (hidden, hidden)),
        ("b_ru", b_ru, (2 * hidden,)), ("b_n", b_n, (hidden,)),
    ):
        if t.shape != shape:
            raise ValueError(f"gru {name} must have shape {shape}, got {t.shape}")

    two = 2 * hidden
    xd, urd, und, brd, bnd = x.data, u_ru.data, u_n.data, b_ru.data, b_n.data
    # one buffer of every step's pre-activations, each step's (B, 2H) and
    # (B, H) blocks contiguous, as the composed step's fresh arrays were
    pre = np.empty(steps * batch * 3 * hidden, dtype=_state.dtype)
    a_ru_all = pre[: steps * batch * two].reshape(steps, batch, two)
    a_n_all = pre[steps * batch * two :].reshape(steps, batch, hidden)
    out = np.empty((batch, steps, hidden), dtype=_state.dtype)
    h = h0.data
    one = _state.dtype(1)
    saved = [] if _recording(x, h0, u_ru, u_n, b_ru, b_n) else None
    with np.errstate(all="ignore"):
        for t in range(steps):
            a_ru = np.add(xd[:, t, :two], h @ urd, out=a_ru_all[t])
            a_ru += brd
            ru = _sigmoid(a_ru)
            r, u = ru[:, :hidden], ru[:, hidden:]
            rh = r * h
            a_n = np.add(xd[:, t, two:], rh @ und, out=a_n_all[t])
            a_n += bnd
            n = np.tanh(a_n)
            omu = one - u
            h_next = np.add(u * h, omu * n, out=out[:, t])
            if saved is not None:
                saved.append((h, ru, rh, n, omu))
            h = h_next
    _check_finite(pre, "gru")
    need_dh0 = _recording(h0)

    def vjp(g):
        # the sweep built the x_t and ru gradients in zeroed buffers, one
        # region assigned and the other added (0 + v), and summed each
        # weight's terms from the last step back; doing the same keeps
        # every bit, down to the sign of a zero
        dx = np.zeros((batch, steps, 3 * hidden), dtype=_state.dtype)
        du_ru = du_n = db_ru = db_n = None
        dh = None  # gradient of step t's state from step t + 1
        for t in range(steps - 1, -1, -1):
            h_prev, ru, rh, n, omu = saved[t]
            r, u = ru[:, :hidden], ru[:, hidden:]
            if dh is None:
                gh = g[:, t]
            else:
                dh += g[:, t]
                gh = dh
            du = -(gh * n)
            du += gh * h_prev
            d_n = gh * omu
            da_n = d_n * (1.0 - n * n)
            d_rh = da_n @ und.T
            d_r = d_rh * h_prev
            dru = np.zeros((batch, two), dtype=_state.dtype)
            dru[:, hidden:] = du
            dru[:, :hidden] += d_r
            da_ru = dru * ru * (1.0 - ru)
            if t == steps - 1:
                dx[:, t, two:] = da_n
                du_ru, du_n = h_prev.T @ da_ru, rh.T @ da_n
                db_ru, db_n = _unbroadcast(da_ru, brd.shape), _unbroadcast(da_n, bnd.shape)
            else:
                dx[:, t, two:] += da_n
                du_ru += h_prev.T @ da_ru
                du_n += rh.T @ da_n
                db_ru += _unbroadcast(da_ru, brd.shape)
                db_n += _unbroadcast(da_n, bnd.shape)
            dx[:, t, :two] += da_ru
            dh = None
            if t or need_dh0:
                dh = gh * u
                dh += d_rh * r
                dh += da_ru @ urd.T
        return (dx, dh, du_ru, du_n, db_ru, db_n)

    return _make(out, (x, h0, u_ru, u_n, b_ru, b_n), vjp, "gru")


# ---------------------------------------------------------------------------
# strided 1-d convolution (valid, no padding) and its transpose


def _conv_out_len(t: int, f: int, stride: int) -> int:
    return (t - f) // stride + 1


def conv1d_strided(x: Tensor, w: Tensor, stride: int, bias: Tensor | None = None,
                   relu: bool = False) -> Tensor:
    """Valid cross-correlation along time, time-major: (B, T, C_in) in,
    C-contiguous (B, t_out, C_out) out, t_out = floor((T - F) / stride) + 1.

    ``w`` is (C_out, C_in, F) and ``bias``, when given, (C_out, 1); with
    ``relu`` the bias-added output goes through max(., 0) in the same
    record.  ``x`` may have any strides.  The output is one product of
    the (B*t_out, C_in*F) patch matrix, whose row for step t holds
    x[b, t*stride + tap, c] at column c*F + tap, with the (C_out, C_in*F)
    filter matrix.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if x.ndim != 3 or w.ndim != 3:
        raise ValueError(f"conv1d expects (B,T,C) and (C_out,C_in,F), got {x.shape}, {w.shape}")
    batch, t, c_in = x.shape
    c_out, c_in_w, f = w.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but filter expects {c_in_w}")
    if t < f:
        raise ValueError(f"input length {t} shorter than filter length {f}")
    if bias is not None and bias.shape != (c_out, 1):
        raise ValueError(f"conv1d bias must have shape {(c_out, 1)}, got {bias.shape}")
    t_out = _conv_out_len(t, f, stride)

    parents = (x, w) if bias is None else (x, w, bias)
    # one strided time slice per tap fills the patch matrix's last axis:
    # numpy copies each with inner loops over channels, where a copy of
    # one (B, t_out, C_in, F) window view runs inner loops over the F taps
    # and took 1.5-5x as long
    patches = np.empty((batch, t_out, c_in, f), dtype=_state.dtype)
    last = stride * (t_out - 1)
    for tap in range(f):
        patches[..., tap] = x.data[:, tap : tap + last + 1 : stride]
    pmat = patches.reshape(batch * t_out, c_in * f)
    wd, wmat = w.data, w.data.reshape(c_out, c_in * f)
    # an overflow raises in the finite checks, not as a numpy warning
    with np.errstate(all="ignore"):
        y = (pmat @ wmat.T).reshape(batch, t_out, c_out)
        if bias is not None:
            y += bias.data.reshape(c_out)
    mask = None
    if relu:
        _check_relu_input(y, "conv1d pre-activation")
        np.maximum(y, 0.0, out=y)
        mask = y > 0 if _recording(*parents) else None

    # an untracked input (the data batch) gets no gradient, so skip its GEMM
    need_dx = _recording(x)
    has_bias = bias is not None  # a flag: a record holds no tensors

    def vjp(g):
        if mask is not None:
            g = g * mask
        gmat, pmat_dw = g.reshape(batch * t_out, c_out), pmat
        if batch == 1:
            # at B=1 the channel-major encoder's patch matrix, and a relu
            # layer's gradient matrix, were transposed views rather than
            # copies, and BLAS sums dw in another order for that layout
            pmat_dw = np.asfortranarray(pmat)
            if relu:
                gmat = np.asfortranarray(gmat)
        dw = (gmat.T @ pmat_dw).reshape(wd.shape)
        dx = None
        if need_dx and stride == f:
            # the taps tile the input, so one product against the tap-major
            # filter matrix lays dx out in time order.  The tap loop added
            # each value to 0, which turns a -0.0 into +0.0; sgemm returns
            # no -0.0 (an all -0.0 operand gives +0.0), so no pass is needed
            tiled = t_out * f
            dtiles = gmat @ wd.transpose(0, 2, 1).reshape(c_out, f * c_in)
            dtiles = dtiles.reshape(batch, tiled, c_in)
            if tiled == t:
                dx = dtiles
            else:  # the frames past the last step get no gradient
                dx = np.zeros((batch, t, c_in), dtype=_state.dtype)
                dx[:, :tiled] = dtiles
        elif need_dx:
            dpatches = (gmat @ wmat).reshape(batch, t_out, c_in, f)
            dx = np.zeros((batch, t, c_in), dtype=_state.dtype)
            # taps within one offset never overlap (stride apart)
            for tap in range(f):
                dx[:, tap : tap + last + 1 : stride] += dpatches[..., tap]
        if not has_bias:
            return (dx, dw)
        # summed over the batch, then over time in the order the bias
        # gradient of a separate add took: a conv followed by relu had its
        # gradient arrive channel-major (pairwise over time), the last one
        # time-major (row by row)
        s = g.sum(0)
        db = np.ascontiguousarray(s.T).sum(1) if relu else s.sum(0)
        return (dx, dw, db.reshape(c_out, 1))

    return _make(y, parents, vjp, "conv1d")


def conv1d_transpose(x: Tensor, w: Tensor, stride: int) -> Tensor:
    """Adjoint of a strided conv, channel-major as the decoder runs it.

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
    wshape, wmat = w.shape, w.data.reshape(c_in, c_out * f)
    contrib = (xmat @ wmat).reshape(batch, t, c_out, f).transpose(0, 2, 3, 1)
    y = np.zeros((batch, c_out, t_out), dtype=_state.dtype)
    last = stride * (t - 1)
    for tap in range(f):
        y[:, :, tap : tap + last + 1 : stride] += contrib[:, :, tap, :]

    def vjp(g):
        dcontrib = np.empty((batch, c_out, f, t), dtype=_state.dtype)
        for tap in range(f):
            dcontrib[:, :, tap, :] = g[:, :, tap : tap + last + 1 : stride]
        dmat = dcontrib.transpose(0, 3, 1, 2).reshape(batch * t, c_out * f)
        dx = (dmat @ wmat.T).reshape(batch, t, c_in).transpose(0, 2, 1)
        dw = (xmat.T @ dmat).reshape(wshape)
        return (dx, dw)

    return _make(y, (x, w), vjp, "conv1d_transpose")
