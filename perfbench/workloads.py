"""The benchmark's workloads: what each one runs and at which size.

Every workload drives the ``lnt`` command line in-process, closed-loop
(one caller, each command starts after the previous one finished):
``synth`` makes the inputs from the workload seed in set-up, then the
timed loops run ``train`` and ``score`` + ``eval`` on them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


# the desk recipe's learning rate and DDCL weight, used by every workload
LR, LAM = 1e-3, 0.1


@dataclass(frozen=True)
class Workload:
    config: str
    channels: int
    train_length: int
    test_length: int
    epochs: int
    batch_size: int
    window_stride: int


WORKLOADS = {
    # desk recipe: ~1,360 tiny tape records per step, so per-op Python
    # overhead dominates.  It scores 50k test frames rather than the
    # recipe's 20k, so that each score repetition runs long enough for
    # the CPU clock to sample it.
    "train-small": Workload(
        "small", channels=3, train_length=50_000, test_length=50_000,
        epochs=5, batch_size=32, window_stride=72,
    ),
    # inference on a long series: no tape, no backward, the GRU re-entered
    # once per default-sized chunk.  Scoring cost does not depend on the
    # weights, so a short training (one epoch on 10k frames) makes the
    # checkpoint.
    "score-long": Workload(
        "small", channels=3, train_length=10_000, test_length=200_000,
        epochs=1, batch_size=32, window_stride=72,
    ),
}

# smallest sizes that still exercise every command; for the smoke tests
TINY = {
    "train-small": dict(train_length=6_000, test_length=10_000, epochs=1, window_stride=720),
    "score-long": dict(train_length=3_000, test_length=10_000, window_stride=720),
}


def get(name: str, tiny: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if tiny else workload
