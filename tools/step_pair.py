"""Paired timing of `small` train steps between two versions of lnt.

    python3 tools/step_pair.py OLD_SRC NEW_SRC [--pairs N]

OLD_SRC and NEW_SRC each hold an ``lnt`` package (a checkout's ``src``).
Each package is copied into a temporary directory under its own name,
``lnt_old`` and ``lnt_new`` (``lnt`` imports its own modules only
relatively), and both are imported into this one process at one BLAS
thread (``LNT_THREADS=1``).  Each side trains its own `small` model from
the same seed on the same B=32 mini-batches of a synthetic 3-channel
series, windowed as train-small windows it (stride 72), with
train-small's lr and lambda.  The sides take turns: each pair times one
step of each, the old one first in even pairs and the new one first in
odd pairs.  Prints one JSON line: each side's median step time, the
median and quartiles of the paired ratios new / old, and whether every
step gave both sides the same loss values.

Both sides share one process, its heap and the machine's clock speed at
that moment, so the paired ratio resolves a step-time change of a few
percent that separate benchmark runs, minutes apart, do not.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

STRIDE, BATCH, FRAMES = 72, 32, 50_000
LR, LAM = 1e-3, 0.1
WARMUP = 5


def _side(name: str):
    """A train step of package ``name``: called with mini-batch indices,
    it returns the step's wall seconds and its loss values."""
    import numpy as np

    data, losses, model, tensor, training = (
        importlib.import_module(f"{name}.{module}")
        for module in ("data", "losses", "model", "tensor", "training"))
    cfg = model.small_config()
    series = data.synth_normal(cfg.in_channels, FRAMES, seed=0)
    windows = np.asarray(data.window(series.values, cfg.sub_seq, STRIDE), dtype=np.float32)
    params = model.init_params(cfg, seed=0)
    adam = training.Adam(training.trainable_parameters(params), LR)
    defaults = training.TrainConfig()
    rng = np.random.default_rng(0)

    def step(idx):
        def loss():
            return losses.unified_loss(params, tensor.Tensor(windows[idx]), rng, lam=LAM,
                                       cpc_weight=defaults.cpc_weight, N=defaults.negatives)
        started = time.perf_counter()
        values = training.train_step(adam, loss, defaults.clip_norm)
        return time.perf_counter() - started, values

    return step, len(windows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="directory holding the old lnt package")
    parser.add_argument("new_src", help="directory holding the new lnt package")
    parser.add_argument("--pairs", type=int, default=100, help="timed step pairs (default 100)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs must be >= 2, got {args.pairs}")
    for src in (args.old_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "lnt", "__init__.py")):
            parser.error(f"{src} holds no lnt package")

    os.environ["LNT_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        for name, src in (("lnt_old", args.old_src), ("lnt_new", args.new_src)):
            shutil.copytree(os.path.join(src, "lnt"), os.path.join(tmp, name))
        sys.path.insert(0, tmp)
        importlib.import_module("lnt_old.cli")  # applies the thread cap before numpy loads
        importlib.import_module("lnt_new.cli")
        import numpy as np

        (old, n_windows), (new, _) = _side("lnt_old"), _side("lnt_new")
        order = np.random.default_rng(1).permutation(n_windows)
        batches = [order[lo : lo + BATCH] for lo in range(0, n_windows - BATCH + 1, BATCH)]
        times: dict[str, list[float]] = {"old": [], "new": []}
        same = True
        for i in range(WARMUP + args.pairs):
            idx = batches[i % len(batches)]
            sides = (("old", old), ("new", new)) if i % 2 == 0 else (("new", new), ("old", old))
            values = {}
            for label, step in sides:
                seconds, values[label] = step(idx)
                if i >= WARMUP:
                    times[label].append(seconds)
            same = same and values["old"] == values["new"]

    ratios = [n / o for n, o in zip(times["new"], times["old"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    print(json.dumps({
        "pairs": args.pairs,
        "old_step_ms_median": 1e3 * statistics.median(times["old"]),
        "new_step_ms_median": 1e3 * statistics.median(times["new"]),
        "ratio_median": statistics.median(ratios),
        "ratio_q1": q1,
        "ratio_q3": q3,
        "same_loss_values": same,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
