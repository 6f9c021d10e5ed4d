"""Time and memory of a `small` train step, or two lnt versions' step ratio.

    python3 tools/step_probe.py [--src SRC] [--against OLD_SRC] [--steps N]

SRC (default: this checkout's ``src``) and OLD_SRC each hold an ``lnt``
package, copied to a temporary directory as ``lnt_new`` / ``lnt_old`` (it
imports its own modules only relatively; OLD_SRC once more as ``lnt_old2``)
and imported into this process
at one BLAS thread, under ``lnt.cli``'s heap policy.  Each trains `small`
as train-small does: ``training.train_step`` on B=32 mini-batches of the
read-only ``data.window`` view (stride 72) of a float32 synthetic series,
lr 1e-3, lambda 0.1; every pass walks the same batches after 5 warm-ups.

One package: N plain steps (median ms and minor page faults); N steps
with ``tensor._make`` wrapped from here (per op: records, median forward
ms, from the previous record or the step's start to its own, and VJP ms;
the ms outside the ops: checks, ``backward``'s sums, clipping and Adam);
one forward and backward under ``tracemalloc`` (live MB after the
forward, peak MB and the op forward or VJP that holds it, the three
highest op spans and their MB, records, ``_check_finite`` calls).
``--against``: N step pairs, nothing wrapped; in one process the median
ratio new / old resolves a change of a few percent that benchmark runs
do not.  The second copy of the old package runs in the same rotation
(each of the three first, second and third equally often), and its
median ratio to the old, ``aa_ratio_median``, is the spread that two
identical sources show, which a ratio must beat.  ``same_loss_values``
and ``same_grad_norm`` say whether the three packages' steps returned
equal loss values, and equal pre-clip gradient norms, at every pair.  It
ends with each package's records, peak MB and highest spans of one
traced step.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict

STRIDE, BATCH, FRAMES, WARMUP = 72, 32, 50_000, 5
LR, LAM = 1e-3, 0.1
clock = time.perf_counter


def _train_step(name: str):
    """Package ``name``'s ``step(idx)`` -> (seconds, loss values and the
    pre-clip gradient norm), the loss function ``loss(batch)`` of a
    gathered batch, the windows, and ``tn``."""
    import numpy as np

    data, losses, model, tn, training = (
        importlib.import_module(f"{name}.{module}")
        for module in ("data", "losses", "model", "tensor", "training"))
    cfg = model.small_config()
    series = data.synth_normal(cfg.in_channels, FRAMES, seed=0)
    windows = data.window(np.asarray(series.values, dtype=np.float32), cfg.sub_seq, STRIDE)
    params = model.init_params(cfg, seed=0)
    adam = training.Adam(training.trainable_parameters(params), LR)
    defaults = training.TrainConfig()
    rng = np.random.default_rng(0)

    def loss(batch):
        return lambda: losses.unified_loss(params, tn.Tensor(batch), rng, lam=LAM,
                                           cpc_weight=defaults.cpc_weight, N=defaults.negatives)

    def step(idx):
        started = clock()
        values = training.train_step(adam, loss(windows[idx]), defaults.clip_norm)
        return clock() - started, values

    return step, loss, windows, tn


def _ms(values) -> float:
    return round(1e3 * statistics.median(values), 3)


def _probe(step, loss, windows, tn, batches, steps: int) -> dict:
    for _ in range(WARMUP):
        step(next(batches))
    plain = []  # (seconds, minor page faults) per step
    for _ in range(steps):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        seconds, _ = step(next(batches))
        plain.append((seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))

    spent = defaultdict(lambda: [0.0, 0.0, 0])  # this step's forward s, VJP s, records per op
    last = 0.0  # when the previous record was made
    make = tn._make

    def timed_make(arr, parents, vjp, name):
        nonlocal last

        def timed_vjp(g):
            started = clock()
            out = tuple(vjp(g))  # a VJP that yields computes as it is consumed
            spent[name][1] += clock() - started
            return out

        out = make(arr, parents, timed_vjp, name)
        now = clock()
        spent[name][0] += now - last
        spent[name][2] += out._tape is not None
        last = now
        return out

    outside, per_op = [], defaultdict(list)
    tn._make = timed_make
    try:
        for _ in range(steps):
            spent.clear()
            last = clock()
            seconds, _ = step(next(batches))
            outside.append(seconds - sum(f + v for f, v, _ in spent.values()))
            for name, (f, v, _) in spent.items():
                per_op[name].append((f, v))
    finally:
        tn._make = make

    ops = {name: {"records": spent[name][2], "forward_ms": _ms([f for f, _ in pairs]),
                  "vjp_ms": _ms([v for _, v in pairs])}
           for name, pairs in per_op.items()}
    ops = sorted(ops.items(), key=lambda kv: -kv[1]["forward_ms"] - kv[1]["vjp_ms"])
    return {"steps": steps, "step_ms_median": _ms([s for s, _ in plain]),
            "minor_faults_per_step": statistics.median(f for _, f in plain),
            "outside_ops_ms_median": _ms(outside),
            **_memory(loss, windows[next(batches)], tn), "ops": dict(ops)}


def _memory(loss, batch, tn) -> dict:
    """One forward and backward of ``batch`` under ``tracemalloc``, its
    peak read per span: an op's forward runs from the previous record to
    its own, its VJP from its start to the next VJP's, the sweep's adds
    included.  ``peak_record`` names the span that holds the peak, and
    ``peak_records`` gives the three highest spans with their MB."""
    check, checks, make = tn._check_finite, [], tn._make
    peaks, span = {}, ["backward"]  # highest traced bytes per span; the VJP span open now

    def close(label):
        peaks[label] = max(peaks.get(label, 0), tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def traced_make(arr, parents, vjp, name):
        close(f"{name} forward")

        def traced_vjp(g):
            close(span[0])
            span[0] = f"{name} VJP"
            return vjp(g)

        return make(arr, parents, traced_vjp, name)

    tn._check_finite = lambda *a: (checks.append(a[1]), check(*a))
    tn._make = traced_make
    tracemalloc.start()
    try:
        with tn.Tape() as tape:
            total = loss(batch)()[0]
            live, _ = tracemalloc.get_traced_memory()
            recorded = len(tape)
            tn.backward(total)
        close(span[0])
    finally:
        tracemalloc.stop()
        tn._check_finite, tn._make = check, make
    highest = sorted(peaks, key=peaks.get, reverse=True)[:3]
    return {"records_per_step": recorded, "finite_checks_per_step": len(checks),
            "live_after_forward_mb": live / 2**20,
            "peak_forward_backward_mb": peaks[highest[0]] / 2**20, "peak_record": highest[0],
            "peak_records": {label: peaks[label] / 2**20 for label in highest}}


def _pair(old, old2, new, batches, pairs: int) -> dict:
    sides = {"old": old, "old2": old2, "new": new}
    orders = list(itertools.permutations(sides))
    times, same_losses, same_norms = {label: [] for label in sides}, True, True
    for i in range(WARMUP + pairs):
        idx, values = next(batches), {}
        for label in orders[i % len(orders)]:
            seconds, values[label] = sides[label][0](idx)
            if i >= WARMUP:
                times[label].append(seconds)
        # a step returns its loss values, then its pre-clip gradient norm
        a, b, c = (values[label] for label in sides)
        same_losses = same_losses and a[:-1] == b[:-1] == c[:-1]
        same_norms = same_norms and a[-1] == b[-1] == c[-1]
    ratios = [n / o for n, o in zip(times["new"], times["old"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    aa = statistics.median(a / o for a, o in zip(times["old2"], times["old"]))
    batch = next(batches)
    memory = {label: _memory(loss, windows[batch], tn)
              for label, (_, loss, windows, tn) in (("old", old), ("new", new))}
    return {"pairs": pairs, "old_step_ms_median": _ms(times["old"]),
            "new_step_ms_median": _ms(times["new"]), "ratio_median": statistics.median(ratios),
            "ratio_q1": q1, "ratio_q3": q3, "aa_ratio_median": aa,
            "same_loss_values": same_losses, "same_grad_norm": same_norms,
            **{f"{label}_{key}": memory[label][key] for label in memory
               for key in ("records_per_step", "peak_forward_backward_mb", "peak_record",
                           "peak_records")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="directory holding the lnt package (default: this checkout's src)")
    parser.add_argument("--against", metavar="OLD_SRC",
                        help="directory holding an older lnt package to pair steps with")
    parser.add_argument("--steps", type=int, default=40,
                        help="timed steps per pass, or step pairs (default 40)")
    args = parser.parse_args(argv)
    sources = {name: src for name, src in (("lnt_new", args.src), ("lnt_old", args.against),
                                           ("lnt_old2", args.against)) if src is not None}
    least = 1 if args.against is None else 2  # quartiles need two ratios
    if args.steps < least:
        parser.error(f"--steps must be >= {least}, got {args.steps}")
    for src in sources.values():
        if not os.path.isfile(os.path.join(src, "lnt", "__init__.py")):
            parser.error(f"{src} holds no lnt package")

    os.environ["LNT_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        for name, src in sources.items():
            shutil.copytree(os.path.join(src, "lnt"), os.path.join(tmp, name))
        sys.path.insert(0, tmp)
        for name in sources:
            importlib.import_module(f"{name}.cli")  # applies the thread cap before numpy loads
        import numpy as np

        sides = {name: _train_step(name) for name in sources}
        n = len(sides["lnt_new"][2])
        order = np.random.default_rng(1).permutation(n)
        batches = itertools.cycle([order[lo : lo + BATCH]
                                   for lo in range(0, n - BATCH + 1, BATCH)])
        if args.against is None:
            report = _probe(*sides["lnt_new"], batches, args.steps)
        else:
            report = _pair(sides["lnt_old"], sides["lnt_old2"], sides["lnt_new"], batches,
                           args.steps)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
