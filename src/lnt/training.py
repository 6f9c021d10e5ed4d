"""Joint CPC+DDCL training loop: Adam, global-norm clipping, seeded epoch
shuffling.  Same seed and data give bitwise-identical parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from . import tensor as tn
from .losses import LossConfig, unified_loss
from .model import ModelParams
from .tensor import Tape, Tensor, backward


@dataclass(frozen=True)
class TrainConfig:
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
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
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


def train_step(
    params: ModelParams,
    batch: np.ndarray,
    loss_cfg: LossConfig,
    adam: Adam,
    rng: np.random.Generator,
    clip_norm: float,
) -> tuple[float, float, float, float]:
    """One optimizer step on a (B,C,T) batch; returns cpc, ddcl, total,
    pre-clip grad norm."""
    with Tape():
        total, cpc, ddcl = unified_loss(params, Tensor(batch), loss_cfg, rng)
        backward(total)
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
    return cpc.item(), ddcl.item(), total.item(), norm


def _stack_windows(windows) -> np.ndarray:
    batch = np.asarray(windows, dtype=tn.dtype())
    if batch.ndim != 3:
        raise ValueError(f"windows must stack to (n, channels, time), got {batch.shape}")
    return batch


def fit(
    params: ModelParams,
    windows,
    cfg: TrainConfig,
    on_epoch=None,
) -> list[EpochStats]:
    """Train in place over shuffled mini-batches of fixed-length windows."""
    data = _stack_windows(windows)
    n = data.shape[0]
    loss_cfg = LossConfig(lam=cfg.lam, N=cfg.negatives, cpc_weight=cfg.cpc_weight)
    adam = Adam(trainable_parameters(params), cfg)
    rng = np.random.default_rng(cfg.seed)
    stats: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        sums = np.zeros(4)
        steps = 0
        for lo in range(0, n, cfg.batch_size):
            batch = data[order[lo : lo + cfg.batch_size]]
            try:
                metrics = train_step(
                    params, batch, loss_cfg, adam, rng, cfg.clip_norm
                )
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"aborting at epoch {epoch} step {steps}: {err}"
                ) from err
            sums += metrics
            steps += 1
        mean = sums / max(steps, 1)
        entry = EpochStats(
            epoch=epoch,
            cpc=float(mean[0]),
            ddcl=float(mean[1]),
            total=float(mean[2]),
            grad_norm=float(mean[3]),
            seconds=time.perf_counter() - started,
        )
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

    Encoder/context/heads/bank are untouched: latents are computed off-tape
    and treated as constants.
    """
    if params.decoder is None:
        raise ValueError("model has no decoder; call init_decoder first")
    data = _stack_windows(windows)
    r = params.config.downsample
    named = {
        n: t for n, t in params.named_parameters().items()
        if n.startswith("decoder.")
    }
    adam = Adam(named, TrainConfig(lr=lr, epochs=epochs, seed=seed))
    latents = [mdl.encode(params, Tensor(data[i : i + 1])).data.copy() for i in range(len(data))]
    rng = np.random.default_rng(seed)
    history: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(latents))
        total = 0.0
        for i in order:
            z = latents[i]
            target = Tensor(np.ascontiguousarray(data[i : i + 1, :, : z.shape[1] * r]))
            with Tape():
                recon = mdl.decode(params, Tensor(z))
                err = tn.sub(recon, target)
                loss = tn.mean_all(tn.mul(err, err))
                backward(loss)
            grads = {}
            for name, tensor in named.items():
                grads[name] = tensor.grad
                tensor.grad = None
            adam.step(grads)
            total += loss.item()
        history.append(total / len(latents))
    return history
