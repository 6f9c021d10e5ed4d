"""Joint CPC+DDCL training and the decoder fit: one checked Adam step with
global-norm clipping, one loop of seeded epoch shuffling.  Same seed and
data give bitwise-identical parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import model as mdl
from . import tensor as tn
from .losses import unified_loss
from .model import ModelParams
from .tensor import Tape, Tensor, backward


@dataclass(frozen=True)
class TrainConfig:
    """Optimiser and loss settings.  ``lam`` weighs the DDCL and
    ``cpc_weight`` the CPC term of the unified loss (zero gives the
    DDCL-only regime of manifold collapse); ``negatives`` is the CPC
    contrast size N, one positive and N - 1 negatives."""

    lr: float = 2e-4
    batch_size: int = 32
    epochs: int = 20
    lam: float = 1e-3
    cpc_weight: float = 1.0
    negatives: int = 16
    clip_norm: float = 5.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "clip_norm", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("lam", "cpc_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.negatives < 2:
            raise ValueError(f"negatives must be >= 2, got {self.negatives}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must be in [0,1)")


@dataclass
class EpochStats:
    epoch: int
    cpc: float
    ddcl: float
    total: float
    grad_norm: float
    seconds: float


class Adam:
    """Standard Adam (no weight decay) over a fixed named parameter set."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.cfg = cfg
        self.params = params
        self.m = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        cfg = self.cfg
        self.t += 1
        c1 = 1.0 - cfg.beta1 ** self.t
        c2 = 1.0 - cfg.beta2 ** self.t
        for name, tensor in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            tensor.data -= (cfg.lr / c1) * m / (np.sqrt(v / c2) + cfg.eps)


def global_norm(grads: dict[str, np.ndarray]) -> float:
    """Euclidean norm of all gradients.  A head stack's squares are summed
    head by head, so the norm keeps the bits it had when each head was a
    parameter of its own."""
    total = 0.0
    for name, g in grads.items():
        for block in g if name in ("heads", "ddcl_heads") else (g,):
            total += float(np.sum(np.asarray(block, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


def clip_grads_(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all grads in place so the global norm is at most max_norm.
    Returns the pre-clip norm."""
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def trainable_parameters(params: ModelParams) -> dict[str, Tensor]:
    """Everything the joint loss reaches; the decoder trains separately."""
    return {
        n: t for n, t in params.named_parameters().items()
        if not n.startswith("decoder.")
    }


def train_step(adam: Adam, loss_fn, clip_norm: float) -> tuple[float, ...]:
    """One Adam step on the parameters ``adam`` holds.

    ``loss_fn()`` runs on a fresh tape and returns scalar tensors, the
    first of which is backpropagated.  Every parameter must get a finite
    gradient; the gradients are clipped to global norm ``clip_norm``
    (``math.inf`` for none).  Returns the outputs' values and the pre-clip
    norm.
    """
    with Tape():
        outputs = loss_fn()
        backward(outputs[0])
    grads = {}
    for name, tensor in adam.params.items():
        g = tensor.grad
        if g is None:
            raise FloatingPointError(f"no gradient reached parameter {name}")
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
        grads[name] = g
        tensor.grad = None
    norm = clip_grads_(grads, clip_norm)
    adam.step(grads)
    return tuple(t.item() for t in outputs) + (norm,)


def _epochs(windows, make_loss, adam: Adam, rng: np.random.Generator,
            epochs: int, batch_size: int, clip_norm: float):
    """Train over a seeded permutation of the (n, C, T) windows per epoch;
    yields each epoch's index, mean step values and wall seconds.

    ``make_loss(data)`` gets the windows as one array and returns the loss
    function of a mini-batch, given its rows' indices.  The last mini-batch's
    loss is checked again with the final weights after the last epoch.
    """
    data = np.asarray(windows, dtype=tn.dtype())
    if data.ndim != 3 or not len(data):
        raise ValueError(f"windows must stack to (n >= 1, channels, time), got {data.shape}")
    batch_loss = make_loss(data)
    for epoch in range(epochs):
        started = time.perf_counter()
        order = rng.permutation(len(data))
        sums = 0.0
        steps = 0
        for lo in range(0, len(data), batch_size):
            idx = order[lo : lo + batch_size]
            try:
                values = train_step(adam, lambda: batch_loss(idx), clip_norm)
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"aborting at epoch {epoch} step {steps}: {err}"
                ) from err
            sums += np.array(values)
            steps += 1
        yield epoch, sums / steps, time.perf_counter() - started
    if epochs:
        with tn.stage("the last mini-batch's loss with the final weights"):
            tn.check_stage(*batch_loss(idx))


def fit(
    params: ModelParams,
    windows,
    cfg: TrainConfig,
    on_epoch=None,
) -> list[EpochStats]:
    """Train in place over shuffled mini-batches of fixed-length windows."""
    adam = Adam(trainable_parameters(params), cfg)
    rng = np.random.default_rng(cfg.seed)

    def make_loss(data):
        return lambda idx: unified_loss(
            params, Tensor(data[idx]), rng,
            lam=cfg.lam, cpc_weight=cfg.cpc_weight, N=cfg.negatives,
        )

    stats: list[EpochStats] = []
    for epoch, (total, cpc, ddcl, norm), seconds in _epochs(
        windows, make_loss, adam, rng, cfg.epochs, cfg.batch_size, cfg.clip_norm
    ):
        entry = EpochStats(epoch, float(cpc), float(ddcl), float(total), float(norm), seconds)
        stats.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
    return stats


REPORT_HEADER = "epoch,cpc,ddcl,total,grad_norm,seconds"


def save_report_csv(path, stats: list[EpochStats]) -> None:
    with open(path, "w") as fh:
        fh.write(REPORT_HEADER + "\n")
        for s in stats:
            fh.write(
                f"{s.epoch},{s.cpc:.9g},{s.ddcl:.9g},{s.total:.9g},"
                f"{s.grad_norm:.9g},{s.seconds:.9g}\n"
            )


def fit_decoder(
    params: ModelParams,
    windows,
    epochs: int = 20,
    lr: float = 1e-3,
    seed: int = 0,
) -> list[float]:
    """Train only the decoder to invert frozen latents; returns per-epoch MSE.

    Encoder/context/heads/bank are untouched: each window's latents are
    computed once, off-tape at B=1, and treated as constants.  Steps take
    one window at a time, unclipped.
    """
    if params.decoder is None:
        raise ValueError("model has no decoder; call init_decoder first")
    decoder = {
        n: t for n, t in params.named_parameters().items()
        if n.startswith("decoder.")
    }
    adam = Adam(decoder, TrainConfig(lr=lr, epochs=epochs, seed=seed))

    def make_loss(data):
        latents = np.concatenate(
            [mdl.encode(params, Tensor(data[i : i + 1])).data for i in range(len(data))]
        )
        frames = latents.shape[1] * params.config.downsample

        def loss(idx):
            err = tn.sub(mdl.decode(params, Tensor(latents[idx])), Tensor(data[idx, :, :frames]))
            return (tn.mean_all(tn.mul(err, err)),)

        return loss

    rng = np.random.default_rng(seed)
    return [float(mean[0]) for _, mean, _ in _epochs(windows, make_loss, adam, rng, epochs, 1, math.inf)]
