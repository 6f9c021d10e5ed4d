"""Page faults and memory of `small` training steps.

Run from the root of a checkout (or pass ``--src`` to measure another):

    python3 tools/step_memory.py

Writes a synthetic series and trains the `small` model on it through
``lnt.cli.main`` at train-small's size (50k frames, window stride 72,
B=32, one BLAS thread), timing every call of ``training.train_step``.
Prints one JSON line with the median wall time and the median minor page
faults (``getrusage``) of the last epoch's steps, and the ``tracemalloc``
live size after one B=32 forward pass and its peak through the backward,
with that step's tape records and finiteness checks (``_check_finite``
calls, from building the batch tensor to the end of the backward).

The measured process imports ``lnt.cli``, so it runs under the heap
policy that import sets (glibc ``mallopt``: no trimming below 256 MiB
free, no mmap below 32 MiB).  With it a step takes no page faults once
the heap has grown to the step's working set; without it (libc has no
``mallopt``, or a checkout from before the policy) glibc trims the freed
working set after every backward and the next step faults it back in,
about 7,000 minor faults per step.  The allocation peak does not depend
on the policy: ``tracemalloc`` counts live Python allocations, not pages.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc

# the second epoch is measured; the first lets the heap settle
EPOCHS = 2


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
                        help="directory holding the lnt package (default: this checkout's src)")
    args = parser.parse_args(argv)

    os.environ["LNT_THREADS"] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    from lnt import cli  # applies the thread cap before numpy loads
    import numpy as np
    from lnt import data, tensor as tn, training
    from lnt.losses import unified_loss
    from lnt.model import init_params, small_config

    steps: list[tuple[float, int]] = []
    step = training.train_step

    def measured_step(*a, **kw):
        faults, started = _minor_faults(), time.perf_counter()
        out = step(*a, **kw)
        steps.append((time.perf_counter() - started, _minor_faults() - faults))
        return out

    with tempfile.TemporaryDirectory() as tmp:
        if cli.main(["synth", "--out-dir", tmp, "--seed", "0", "--train-length", "50000",
                     "--test-length", "10000"]):
            return 1
        training.train_step = measured_step
        try:
            code = cli.main(["train", "--data", os.path.join(tmp, "train.csv"),
                             "--out", os.path.join(tmp, "model.lntc"), "--seed", "0",
                             "--epochs", str(EPOCHS), "--batch-size", "32",
                             "--lr", "1e-3", "--lam", "0.1", "--window-stride", "72"])
        finally:
            training.train_step = step
        if code:
            return code
    per_epoch = len(steps) // EPOCHS
    last = steps[-per_epoch:]

    cfg = small_config()
    series = data.synth_normal(cfg.in_channels, 32 * cfg.sub_seq, seed=0)
    batch = np.asarray(data.window(series.values, cfg.sub_seq, cfg.sub_seq), dtype=tn.dtype())
    params = init_params(cfg, seed=0)
    check, checks = tn._check_finite, []
    tn._check_finite = lambda *a: (checks.append(a[1]), check(*a))
    tracemalloc.start()
    try:
        with tn.Tape() as tape:
            defaults = training.TrainConfig()
            total = unified_loss(params, tn.Tensor(batch), np.random.default_rng(0),
                                 lam=defaults.lam, cpc_weight=defaults.cpc_weight,
                                 N=defaults.negatives)[0]
            live, _ = tracemalloc.get_traced_memory()
            records = len(tape)
            tn.backward(total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        tn._check_finite = check

    print(json.dumps({
        "steps_measured": len(last),
        "step_ms_median": 1e3 * statistics.median(s for s, _ in last),
        "minor_faults_per_step": statistics.median(f for _, f in last),
        "live_after_forward_mb": live / 2**20,
        "peak_forward_backward_mb": peak / 2**20,
        "records_per_step": records,
        "finite_checks_per_step": len(checks),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
