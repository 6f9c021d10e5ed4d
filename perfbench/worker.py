"""One run of one workload, in a process of its own.

``run.py`` starts this file with ``LNT_THREADS`` set:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --result FILE [--spans FILE] [--tiny]

It runs three loops, each repeated back to back for ``--seconds`` and at
least ``MIN_REPEATS`` times (once when traced): the set-up (``synth``),
``train``, and ``score`` + ``eval``.  Then it checks the outputs and writes a JSON
record to ``--result``.  The exit code is 0 only when every command and
every check succeeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# lnt.cli applies LNT_THREADS to the BLAS pools, so it must load numpy first
import lnt.cli as cli  # noqa: E402
import numpy as np  # noqa: E402
from lnt import checkpoint, metrics, tensor  # noqa: E402

import workloads  # noqa: E402
from tracing import SCORE, SETUP, TRAIN, Tracer, layer_metrics  # noqa: E402

# every loop runs at least twice, so that the check that repeated commands
# write identical files always compares two real runs
MIN_REPEATS = 2
# the last epoch's total loss must be at most this share of the first's.
# Five epochs of the desk recipe took it to 0.29-0.49 of the first over 5
# seeds; training whose gradients stop flowing stays near 1.
LOSS_DROP = 0.75


class CheckFailed(Exception):
    pass


sha256 = cli.sha256_file


class CpuClock:
    """Wall time rescaled by the speed the CPU ran at meanwhile.

    On a 2-vCPU Xeon virtual machine, each CPU switches, for seconds to
    minutes at a time, between a fast state and one 1.5x to 1.8x slower,
    with no other load; process CPU time slows down with it.  So while
    a command runs, a timer signal every ``INTERVAL_S`` times a fixed
    reference loop (a pure-Python loop and a small matrix product, the
    two kinds of work an ``lnt`` command does) in the same thread.  A
    command's corrected time is its wall time times ``REFERENCE_S``
    divided by the median reference time during it: the time it would
    take on a CPU running the loop in ``REFERENCE_S``, about that
    machine's fast state.  The loop costs about 1 % of the wall time.
    """

    INTERVAL_S = 0.05
    REFERENCE_S = 4e-4
    MIN_SAMPLES = 3

    def __init__(self):
        self.samples: list[float] = []
        self._a = np.random.default_rng(0).random((48, 48))
        self._previous = None

    def probe(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i
        for _ in range(40):
            self._a @ self._a
        return time.perf_counter() - started

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(self.probe())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def time(self, fn):
        """(wall seconds, corrected seconds, fn's result)."""
        first = len(self.samples)
        started = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - started
        probes = self.samples[first:]
        while len(probes) < self.MIN_SAMPLES:  # too short for the timer
            probes.append(self.probe())
        return wall, wall * self.REFERENCE_S / statistics.median(probes), result


def src_lines() -> int:
    src = os.path.join(ROOT, "src", "lnt")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["LNT_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "precision": tensor.precision(),
        "git_commit": git_commit(),
        "workload_seed": seed,
        "src_lnt_lines": src_lines(),
    }


class Run:
    """Commands, timings and checks of one workload run."""

    def __init__(self, workload, seed: int, workdir: str, clock: CpuClock,
                 tracer: Tracer | None):
        self.w = workload
        self.seed = seed
        self.dir = workdir
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.auc: float | None = None
        self.train_csv = os.path.join(workdir, "train.csv")
        self.test_csv = os.path.join(workdir, "test.csv")
        self.model = os.path.join(workdir, "model.lntc")
        self.scores = os.path.join(workdir, "scores.csv")
        self.eval_csv = os.path.join(workdir, "eval.csv")

    def phase(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def lnt(self, *argv) -> tuple[float, float, str]:
        """Run one `lnt` command in-process; (wall s, corrected s, stdout)."""
        self.attempted += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            wall, corrected, rc = self.clock.time(lambda: cli.main([str(a) for a in argv]))
        if rc != 0:
            raise CheckFailed(f"lnt {argv[0]} exited with {rc}")
        return wall, corrected, out.getvalue()

    def setup(self) -> dict:
        w = self.w
        with self.phase(SETUP):
            wall, corrected, _ = self.lnt(
                "synth", "--out-dir", self.dir, "--seed", self.seed,
                "--channels", w.channels, "--train-length", w.train_length,
                "--test-length", w.test_length,
            )
        return {
            "wall": wall,
            "seconds": corrected,
            "outputs": [sha256(self.train_csv), sha256(self.test_csv)],
        }

    def train(self) -> dict:
        """Train once; the rate is windows x epochs per corrected second."""
        w = self.w
        with self.phase(TRAIN):
            wall, corrected, _ = self.lnt(
                "train", "--data", self.train_csv, "--out", self.model, "--seed", self.seed,
                "--config", w.config, "--epochs", w.epochs, "--batch-size", w.batch_size,
                "--window-stride", w.window_stride, "--lr", workloads.LR,
                "--lam", workloads.LAM,
            )
        with open(f"{self.model}.manifest.json") as fh:
            windows = json.load(fh)["config"]["windows"]
        return {
            "wall": wall,
            "seconds": corrected,
            "rate": windows * w.epochs / corrected,
            "outputs": sha256(self.model),
        }

    def score(self) -> dict:
        with self.phase(SCORE):
            score_wall, score_s, _ = self.lnt(
                "score", "--model", self.model, "--data", self.test_csv, "--out", self.scores,
            )
            eval_wall, eval_s, printed = self.lnt(
                "eval", "--scores", self.scores, "--out", self.eval_csv,
            )
        return {
            "wall": score_wall + eval_wall,
            "seconds": score_s + eval_s,
            "rate": self.w.test_length / (score_s + eval_s),
            "printed": printed,
            "outputs": sha256(self.scores),
        }

    # -- output checks -----------------------------------------------------

    def check(self, name: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except CheckFailed as err:
            self.failures.append(f"{name}: {err}")

    def check_losses(self) -> None:
        with open(f"{self.model}.report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.w.epochs:
            raise CheckFailed(f"{len(rows)} epoch rows, expected {self.w.epochs}")
        for row in rows:
            for key in ("cpc", "ddcl", "total"):
                value = float(row[key])
                if not (math.isfinite(value) and value > 0):
                    raise CheckFailed(f"epoch {row['epoch']} {key} loss is {value}")
        first, last = float(rows[0]["total"]), float(rows[-1]["total"])
        if len(rows) > 1 and last > LOSS_DROP * first:
            raise CheckFailed(f"total loss went from {first} to {last}: training did not learn")

    def check_reload(self) -> None:
        """Save the loaded checkpoint again; bytes and rescoring must match."""
        params, extra = checkpoint.load_model(self.model)
        copy = os.path.join(self.dir, "reloaded.lntc")
        checkpoint.save_model(copy, params, extra=extra)
        if sha256(copy) != sha256(self.model):
            raise CheckFailed("checkpoint changed on load and save")
        rescored = os.path.join(self.dir, "rescored.csv")
        self.lnt("score", "--model", copy, "--data", self.test_csv, "--out", rescored)
        if sha256(rescored) != sha256(self.scores):
            raise CheckFailed("scores from the reloaded checkpoint differ")

    def read_scores(self) -> tuple[np.ndarray, np.ndarray]:
        with open(self.test_csv, newline="") as fh:
            rows = csv.reader(fh)
            label_col = next(rows).index("label")
            truth = [int(r[label_col]) for r in rows]
        with open(self.scores, newline="") as fh:
            rows = csv.reader(fh)
            if next(rows) != ["index", "score", "label"]:
                raise CheckFailed("score CSV header is not index,score,label")
            table = list(rows)
        if len(table) != self.w.test_length:
            raise CheckFailed(f"{len(table)} score rows for {self.w.test_length} frames")
        if [r[0] for r in table] != [str(i) for i in range(len(table))]:
            raise CheckFailed("score rows are not indexed 0..n-1")
        scores = np.array([float(r[1]) for r in table])
        labels = np.array([int(r[2]) for r in table])
        if not np.isfinite(scores).all():
            raise CheckFailed("non-finite score")
        if labels.tolist() != truth:
            raise CheckFailed("labels not carried over from the input series")
        return scores, labels

    def check_scores_and_auc(self, printed: str) -> None:
        scores, labels = self.read_scores()
        auc = metrics.roc_auc(scores, labels)
        shown = dict(line.split(None, 1) for line in printed.strip().splitlines())
        if shown.get("auc", "").strip() != f"{auc:.6g}":
            raise CheckFailed(f"eval printed auc {shown.get('auc')!r}, recomputed {auc:.6g}")
        with open(self.eval_csv, newline="") as fh:
            saved = next(csv.DictReader(fh))["auc"]
        if saved != f"{auc:.9g}":
            raise CheckFailed(f"eval wrote auc {saved}, recomputed {auc:.9g}")

    def check_repeatable(self, *loops: list[dict]) -> None:
        for runs in loops:
            if any(r["outputs"] != runs[0]["outputs"] for r in runs):
                raise CheckFailed("repeated commands wrote different files")

    # -- the run -------------------------------------------------------------

    def execute(self, seconds: float) -> dict:
        # the traced copy runs each loop once, to stay within the time a
        # call may take; the untraced run has checked repeatability
        times = 1 if self.tracer else MIN_REPEATS
        setups = repeat(self.setup, seconds, times)
        trains = repeat(self.train, seconds, times)
        scores = repeat(self.score, seconds, times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.check("losses", self.check_losses)
        self.check("reload", self.check_reload)
        self.check("scores", self.check_scores_and_auc, scores[-1]["printed"])
        with open(self.eval_csv, newline="") as fh:
            self.auc = float(next(csv.DictReader(fh))["auc"])
        self.check("repeatable", self.check_repeatable, setups, trains, scores)

        median = statistics.median
        loops = {"setup": setups, "train": trains, "score": scores}
        return {
            "wall": {k: [r["wall"] for r in v] for k, v in loops.items()},
            "seconds": {k: [r["seconds"] for r in v] for k, v in loops.items()},
            "timed_s": median(r["seconds"] for r in trains) + median(r["seconds"] for r in scores),
            "checkpoint_sha256": trains[-1]["outputs"],
            "scores_sha256": scores[-1]["outputs"],
            "detect_auc": self.auc,
            "e2e": {
                "train_windows_per_s": median(r["rate"] for r in trains),
                "score_frames_per_s": median(r["rate"] for r in scores),
                "peak_rss_mb": peak_rss_mb,
                "setup_s": median(r["seconds"] for r in setups),
            },
        }


def repeat(fn, seconds: float, times: int) -> list[dict]:
    """Call fn back to back until `seconds` have passed, at least `times` times."""
    runs = []
    started = time.perf_counter()
    while len(runs) < times or time.perf_counter() - started < seconds:
        runs.append(fn())
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.get(args.workload, tiny=args.tiny)
    record = {"env": environment(args.seed)}
    os.makedirs(args.workdir, exist_ok=True)
    clock = CpuClock()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    run = Run(workload, args.seed, args.workdir, clock, tracer)
    clock.start()
    try:
        record.update(run.execute(args.seconds))
    except Exception:  # the run is over; report what failed and how
        run.failures.append(traceback.format_exc())
    finally:
        clock.stop()
        if tracer:
            tracer.uninstall()
    if tracer:
        record["layers"] = layer_metrics(tracer.spans, workload.test_length)
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "records_in",
                                  "records_out"], "spans": tracer.spans}, fh)
    record["attempted"] = max(run.attempted, 1)
    record["failures"] = run.failures
    with open(args.result, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return 1 if run.failures or "e2e" not in record else 0


if __name__ == "__main__":
    sys.exit(main())
