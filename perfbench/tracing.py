"""Span tracing around the public functions of the ``lnt`` modules.

The tracer lives in the benchmark, not in the package: it replaces module
attributes with timing wrappers and puts the originals back on
``uninstall``.  Several ``lnt`` modules import functions by name
(``training.backward``, ``cli.score_ddcl`` ...), so every module global
bound to a wrapped function is replaced, not only the defining one.

A span is ``[name, start, end, parent, records_in, records_out]``: times
from ``perf_counter``, ``parent`` the index of the enclosing span (-1 for
none) and the record counts ``len(active_tape())`` on entry and exit (0
with no tape).  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

NAME, START, END, PARENT, REC_IN, REC_OUT = range(6)

# (module, attribute, span name); "Class.method" patches a method.
TARGETS = [
    ("tensor", "backward", "tensor.backward"),
    ("model", "encode", "model.encode"),
    # contextualize() calls contextualize_with_state() through the module
    # global, so one wrapper covers training and chunked scoring
    ("model", "contextualize_with_state", "model.contextualize"),
    ("model", "transform", "model.transform"),
    ("losses", "cpc_loss", "losses.cpc_loss"),
    ("losses", "ddcl_loss", "losses.ddcl_loss"),
    ("losses", "unified_loss", "losses.unified_loss"),
    ("training", "train_step", "training.train_step"),
    ("training", "Adam.step", "training.adam"),
    ("scoring", "score_ddcl", "scoring.score_ddcl"),
    ("scoring", "save_scores_csv", "scoring.save_scores_csv"),
    ("scoring", "load_scores_csv", "scoring.load_scores_csv"),
    ("data", "synth_normal", "data.synth"),
    ("data", "inject_sine_anomalies", "data.synth"),
    ("data", "load_csv", "data.load_csv"),
    ("data", "save_csv", "data.save_csv"),
    ("metrics", "roc_auc", "metrics.roc_auc"),
    ("metrics", "best_f1", "metrics.best_f1"),
    ("checkpoint", "load_model", "checkpoint.load_model"),
    ("cli", "write_manifest", "cli.write_manifest"),
    ("cli", "cmd_synth", "cli.command"),
    ("cli", "cmd_train", "cli.command"),
    ("cli", "cmd_score", "cli.command"),
    ("cli", "cmd_eval", "cli.command"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        from lnt.tensor import active_tape

        self._active_tape = active_tape

    def _records(self) -> int:
        tape = self._active_tape()
        return 0 if tape is None else len(tape)

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._records(), None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[REC_OUT] = self._records()
        span[END] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def install(self) -> None:
        """Wrap every target and every module global that aliases one."""
        modules = [m for n, m in sys.modules.items() if n.startswith("lnt.") and m]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[f"lnt.{mod_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            traced = self._wrap(original, name)
            self._patch(owner, attr, traced)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patch(mod, key, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# per-layer metrics from the span list


def _children(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def _ancestor_names(spans, i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p][NAME]
        p = spans[p][PARENT]


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


# metric -> (span name, statistic, scope).  Statistics: "ms" total time,
# "self_ms" time minus direct children, "records" tape records created
# inside the span, "records_in" tape length on entry.  Scopes: "step" per
# step of the timed training (every workload trains; only training has a
# tape), "score" per repetition of the timed score + eval, "setup" per
# set-up.  The model's timings are taken from scoring, the inference path
# every workload runs; its record counts, from training.
LAYER_METRICS = {
    "tensor.backward_ms": ("tensor.backward", "ms", "step"),
    "tensor.tape_records": ("tensor.backward", "records_in", "step"),
    "model.encode_ms": ("model.encode", "ms", "score"),
    "model.encode_records": ("model.encode", "records", "step"),
    "model.contextualize_ms": ("model.contextualize", "ms", "score"),
    "model.contextualize_records": ("model.contextualize", "records", "step"),
    "model.transform_ms": ("model.transform", "ms", "score"),
    "losses.cpc_loss_ms": ("losses.cpc_loss", "ms", "step"),
    "losses.cpc_loss_records": ("losses.cpc_loss", "records", "step"),
    "losses.ddcl_loss_self_ms": ("losses.ddcl_loss", "self_ms", "step"),
    "losses.ddcl_loss_records": ("losses.ddcl_loss", "records", "step"),
    "training.train_step_self_ms": ("training.train_step", "self_ms", "step"),
    "training.adam_ms": ("training.adam", "ms", "step"),
    "scoring.score_ddcl_ms": ("scoring.score_ddcl", "ms", "score"),
    "scoring.score_ddcl_self_ms": ("scoring.score_ddcl", "self_ms", "score"),
    "scoring.save_scores_csv_ms": ("scoring.save_scores_csv", "ms", "score"),
    "scoring.load_scores_csv_ms": ("scoring.load_scores_csv", "ms", "score"),
    "data.load_csv_ms": ("data.load_csv", "ms", "score"),
    "metrics.roc_auc_ms": ("metrics.roc_auc", "ms", "score"),
    "metrics.best_f1_ms": ("metrics.best_f1", "ms", "score"),
    "checkpoint.load_model_ms": ("checkpoint.load_model", "ms", "score"),
    "cli.write_manifest_ms": ("cli.write_manifest", "ms", "score"),
    "cli.command_self_ms": ("cli.command", "self_ms", "score"),
    "data.synth_ms": ("data.synth", "ms", "setup"),
    "data.save_csv_ms": ("data.save_csv", "ms", "setup"),
}

SETUP, TRAIN, SCORE = "bench.setup", "bench.train", "bench.score"
PHASES = (SETUP, TRAIN, SCORE)


def layer_metrics(spans, frames_per_score: int) -> dict[str, float]:
    """Per-layer figures from the spans of one traced benchmark run."""
    kids = _children(spans)
    dur = [s[END] - s[START] for s in spans]
    phase_of = []
    in_step = []
    for i in range(len(spans)):
        names = [spans[i][NAME]] + list(_ancestor_names(spans, i))
        phase_of.append(next((n for n in names if n in PHASES), None))
        in_step.append("training.train_step" in names)
    repeats = {p: sum(1 for s in spans if s[NAME] == p) for p in PHASES}
    timed_steps = sum(1 for i, s in enumerate(spans)
                      if s[NAME] == "training.train_step" and phase_of[i] == TRAIN)

    scopes = {
        "step": (TRAIN, True, max(timed_steps, 1)),
        "score": (SCORE, False, max(repeats[SCORE], 1)),
        "setup": (SETUP, False, max(repeats[SETUP], 1)),
    }

    def selected(name: str, phase: str, steps_only: bool) -> list[int]:
        return [
            i for i, s in enumerate(spans)
            if s[NAME] == name and phase_of[i] == phase and (in_step[i] or not steps_only)
        ]

    out: dict[str, float] = {}
    for metric, (name, stat, scope) in LAYER_METRICS.items():
        phase, steps_only, divisor = scopes[scope]
        idx = selected(name, phase, steps_only)
        if stat == "ms":
            total = 1e3 * sum(dur[i] for i in idx)
        elif stat == "self_ms":
            total = 1e3 * sum(dur[i] - sum(dur[k] for k in kids[i]) for i in idx)
        elif stat == "records":
            total = sum(spans[i][REC_OUT] - spans[i][REC_IN] for i in idx)
        else:
            total = sum(spans[i][REC_IN] for i in idx)
        out[metric] = total / divisor

    steps_ms = sorted(1e3 * dur[i] for i, s in enumerate(spans)
                      if s[NAME] == "training.train_step" and phase_of[i] == TRAIN)
    out["training.train_step_ms_p50"] = _percentile(steps_ms, 0.5)
    out["training.train_step_ms_p90"] = _percentile(steps_ms, 0.9)
    out["training.train_step_samples"] = len(steps_ms)

    score_idx = selected("scoring.score_ddcl", SCORE, False)
    chunks = sum(1 for i in score_idx for k in kids[i] if spans[k][NAME] == "model.encode")
    out["scoring.chunks"] = chunks / max(len(score_idx), 1)
    score_s = sum(dur[i] for i in score_idx)
    out["scoring.kernel_frames_per_s"] = (
        frames_per_score * len(score_idx) / score_s if score_s > 0 else 0.0
    )
    return out
