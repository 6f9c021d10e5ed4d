"""Where a `small` train step's time goes, op by op.

    python3 tools/step_ops.py [--steps N] [--src SRC]

Trains the `small` model on B=32 mini-batches of a synthetic 3-channel
series, windowed as train-small windows it (stride 72), with
train-small's lr and lambda, through ``training.train_step`` at one BLAS
thread (``LNT_THREADS=1``).  ``tensor._make`` is wrapped from here, so
the measured package is unchanged: a record's forward time is the wall
time from the previous record's creation (or the start of the loss
function) to its own, which covers the op's arithmetic and the Python
that leads up to it, and each record's VJP is wrapped to time its call.
A ``_make`` call that leaves no record (no parent needs a gradient) adds
its time to its op's forward but counts no record.

After a warm-up, prints one JSON line: the median step time; per op
name, the records per step and the medians over the steps of its
forward and VJP ms per step; and the median time outside the ops (the
step minus every forward and VJP), which holds the loss checks,
``backward``'s own accumulation, the gradient checks, clipping and Adam.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

STRIDE, BATCH, FRAMES = 72, 32, 50_000
LR, LAM = 1e-3, 0.1
WARMUP = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=40, help="timed steps (default 40)")
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="directory holding the lnt package (default: this checkout's src)")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error(f"--steps must be >= 1, got {args.steps}")

    os.environ["LNT_THREADS"] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    from lnt import cli  # noqa: F401  applies the thread cap before numpy loads
    import numpy as np
    from lnt import data, losses, model, tensor as tn, training

    cfg = model.small_config()
    series = data.synth_normal(cfg.in_channels, FRAMES, seed=0)
    windows = np.asarray(data.window(series.values, cfg.sub_seq, STRIDE), dtype=np.float32)
    params = model.init_params(cfg, seed=0)
    adam = training.Adam(training.trainable_parameters(params), LR)
    defaults = training.TrainConfig()
    rng = np.random.default_rng(0)
    order = np.random.default_rng(1).permutation(len(windows))
    batches = [order[lo : lo + BATCH] for lo in range(0, len(windows) - BATCH + 1, BATCH)]

    clock = time.perf_counter
    forward: dict[str, float] = defaultdict(float)  # this step's seconds per op
    vjps: dict[str, float] = defaultdict(float)
    records: Counter[str] = Counter()
    last = 0.0  # when the previous record was made
    make = tn._make

    def timed_make(arr, parents, vjp, name):
        nonlocal last

        def timed_vjp(g):
            started = clock()
            out = vjp(g)
            vjps[name] += clock() - started
            return out

        out = make(arr, parents, timed_vjp, name)
        now = clock()
        forward[name] += now - last
        last = now
        records[name] += out._tape is not None
        return out

    steps, outside = [], []
    per_op: dict[str, list[tuple[float, float]]] = defaultdict(list)
    per_step_records: Counter[str] = Counter()
    tn._make = timed_make
    try:
        for i in range(WARMUP + args.steps):
            idx = batches[i % len(batches)]
            for per_name in (forward, vjps, records):
                per_name.clear()

            def loss():
                nonlocal last
                last = clock()
                return losses.unified_loss(params, tn.Tensor(windows[idx]), rng, lam=LAM,
                                           cpc_weight=defaults.cpc_weight, N=defaults.negatives)

            started = clock()
            training.train_step(adam, loss, defaults.clip_norm)
            seconds = clock() - started
            if i < WARMUP:
                continue
            steps.append(seconds)
            outside.append(seconds - sum(forward.values()) - sum(vjps.values()))
            for name in forward.keys() | vjps.keys():
                per_op[name].append((forward[name], vjps[name]))
            per_step_records = Counter(records)
    finally:
        tn._make = make

    def ms(values):
        return round(1e3 * statistics.median(values), 3)

    ops = {name: {"records": per_step_records[name],
                  "forward_ms": ms([f for f, _ in pairs]),
                  "vjp_ms": ms([v for _, v in pairs])}
           for name, pairs in per_op.items()}
    ops = dict(sorted(ops.items(), key=lambda kv: -(kv[1]["forward_ms"] + kv[1]["vjp_ms"])))
    print(json.dumps({
        "steps": args.steps,
        "step_ms_median": ms(steps),
        "outside_ops_ms_median": ms(outside),
        "records_per_step": sum(per_step_records.values()),
        "ops": ops,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
