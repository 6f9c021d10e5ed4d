"""Command-line interface: synth, train, score, eval, viz-decode.

LNT_THREADS caps BLAS threading; it must take effect before numpy loads,
which is why the environment block sits above every other import.  The
heap policy beside it keeps glibc from trimming a train step's freed
working set and faulting it back in on the next step.
"""

import ctypes
import os

_threads = os.environ.get("LNT_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[_var] = _threads

# glibc mallopt(3): serve blocks below 32 MiB (its ceiling) from the heap
# and trim the heap only past 256 MiB free.  Both are set: setting either
# one alone freezes glibc's dynamic mmap threshold at its 128 KiB start.
# _malloc is the policy applied, None where libc has no mallopt or
# refuses a value.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_POLICY = {"mmap_threshold": 32 << 20, "trim_threshold": 256 << 20}
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    _malloc = None
else:
    _applied = [_mallopt(_M_MMAP_THRESHOLD, _HEAP_POLICY["mmap_threshold"]),
                _mallopt(_M_TRIM_THRESHOLD, _HEAP_POLICY["trim_threshold"])]
    _malloc = _HEAP_POLICY if _applied == [1, 1] else None

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
import time

import numpy as np

from . import model as mdl
from . import tensor as tn
from .checkpoint import load_model, save_model
from .data import (
    InjectionSpec,
    LabeledSeries,
    NormStats,
    compute_stats,
    inject_sine_anomalies,
    load_csv,
    save_csv,
    standardize,
    synth_normal,
    window,
    write_csv,
)
from .metrics import best_f1, result_csv, result_text
from .model import ModelConfig, builtin_config, init_decoder, init_params
from .scoring import load_scores_csv, save_scores_csv, score_cpc_approx, score_ddcl
from .training import TrainConfig, fit, fit_decoder, save_report_csv

_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL[raw.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(","))


_MODEL_KEYS = {
    "dim_z": int,
    "dim_c": int,
    "K": int,
    "L": int,
    "bank_layers": int,
    "bank_width": int,
    "conv_bias": _parse_bool,
    "separate_ddcl_heads": _parse_bool,
    "sub_seq": int,
    "filters": _parse_ints,
    "strides": _parse_ints,
}

_TRAIN_KEYS = {
    "lr": float,
    "batch_size": int,
    "epochs": int,
    "lam": float,
    "cpc_weight": float,
    "negatives": int,
    "clip_norm": float,
    "window_stride": int,
}

_TRAIN_HELP = {
    "lam": f"DDCL weight lambda in the unified loss (default {TrainConfig.lam:g})",
    "cpc_weight": "CPC weight in the unified loss; 0 trains the DDCL alone "
                  f"(default {TrainConfig.cpc_weight:g})",
    "negatives": "CPC contrast size N: each positive against N-1 negatives "
                 f"(default {TrainConfig.negatives})",
}


def parse_config_file(path) -> dict[str, str]:
    """key = value lines; # starts a comment."""
    entries: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            entries[key.strip()] = value.strip()
    return entries


def resolve_config(spec: str | None) -> tuple[ModelConfig, dict]:
    """--config is a builtin name or a key=value file; returns the base
    model config plus training overrides found in the file."""
    if spec is None:
        return builtin_config("small"), {}
    if not os.path.exists(spec):
        return builtin_config(spec), {}
    entries = parse_config_file(spec)
    base = builtin_config(entries.pop("base", "small"))
    model_over: dict = {}
    train_over: dict = {}
    for key, raw in entries.items():
        if key in _MODEL_KEYS:
            model_over[key] = _MODEL_KEYS[key](raw)
        elif key in _TRAIN_KEYS:
            train_over[key] = _TRAIN_KEYS[key](raw)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return dataclasses.replace(base, **model_over), train_over


def _train_config(args, file_over: dict) -> tuple[TrainConfig, int | None]:
    """defaults < config file < explicit flags."""
    merged = dict(file_over)
    for key in _TRAIN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    stride = merged.pop("window_stride", None)
    return TrainConfig(seed=args.seed, **merged), stride


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def environment() -> dict:
    """What produced the numbers: python, numpy, BLAS, the LNT_THREADS
    cap this process applied at import (None when unset), and the heap
    policy it applied (None where libc has no mallopt)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "lnt_threads": _threads or None,
        "malloc": dict(_malloc) if _malloc else None,
    }


def write_manifest(output, args, started, *, config=None, inputs=None,
                   outputs=None, checkpoint=None) -> None:
    manifest = {
        "command": args.command,
        "environment": environment(),
        "seed": args.seed,
        "precision": args.precision,
        "config": config or {},
        "inputs": inputs or {},
        "outputs": outputs or {},
        "seconds": round(time.perf_counter() - started, 3),
    }
    if checkpoint is not None:
        manifest["checkpoint_sha256"] = sha256_file(checkpoint)
    with open(f"{output}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _norm_extra(stats: NormStats) -> dict:
    return {
        "norm.mean": stats.mean,
        "norm.std": stats.std,
        "norm.keep": stats.keep.astype(np.float32),
    }


def _norm_from_extra(extra: dict) -> NormStats:
    try:
        return NormStats(
            mean=extra["norm.mean"],
            std=extra["norm.std"],
            keep=extra["norm.keep"] > 0.5,
        )
    except KeyError as missing:
        raise ValueError(f"checkpoint lacks normalization stats ({missing})") from None


def _check_outputs(args, *flags: str) -> None:
    """Fail before any work when an output flag's path is a directory or
    its directory is missing, so a run never stops at its first write."""
    for flag in flags:
        path = getattr(args, flag.replace("-", "_"))
        folder = path and os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise ValueError(f"--{flag}: directory {folder!r} does not exist")
        if path and os.path.isdir(path):
            raise ValueError(f"--{flag}: {path!r} is a directory")


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    started = time.perf_counter()
    seeds = np.random.default_rng(args.seed).integers(0, 2**31 - 1, size=3)
    train = synth_normal(args.channels, args.train_length, seed=int(seeds[0]))
    test = synth_normal(args.channels, args.test_length, seed=int(seeds[1]))
    if args.anomaly_fraction > 0:
        spec = InjectionSpec(
            fraction=args.anomaly_fraction,
            amplitude=args.amplitude,
            seed=int(seeds[2]),
        )
        test = inject_sine_anomalies(test, spec)
    os.makedirs(args.out_dir, exist_ok=True)
    train_path = os.path.join(args.out_dir, "train.csv")
    test_path = os.path.join(args.out_dir, "test.csv")
    save_csv(train_path, train)
    save_csv(test_path, test)
    info = {
        "channels": args.channels,
        "anomaly_fraction": args.anomaly_fraction,
        "amplitude": args.amplitude,
    }
    outputs = {"train": train_path, "test": test_path}
    write_manifest(train_path, args, started, config=info, outputs=outputs)
    write_manifest(test_path, args, started, config=info, outputs=outputs)
    print(f"wrote {train_path} ({train.length} frames) and "
          f"{test_path} ({test.length} frames, "
          f"{float(test.labels.mean()):.3f} anomalous)", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    started = time.perf_counter()
    _check_outputs(args, "out", "report")
    base, file_over = resolve_config(args.config)
    train_cfg, stride = _train_config(args, file_over)
    series = load_csv(args.data)
    stats = compute_stats(series)
    std = standardize(series, stats)
    config = dataclasses.replace(base, in_channels=std.channels)
    stride = stride if stride is not None else max(config.sub_seq // 2, 1)
    windows = window(np.asarray(std.values, dtype=tn.dtype()), config.sub_seq, stride)
    params = init_params(config, seed=args.seed)

    def echo(entry):
        print(
            f"epoch {entry.epoch}: total {entry.total:.5f} cpc {entry.cpc:.5f} "
            f"ddcl {entry.ddcl:.5f} grad {entry.grad_norm:.3f} "
            f"({entry.seconds:.1f}s)",
            file=sys.stderr,
        )

    history = fit(params, windows, train_cfg, on_epoch=echo)
    save_model(args.out, params, extra=_norm_extra(stats))
    report_path = args.report or f"{args.out}.report.csv"
    save_report_csv(report_path, history)
    write_manifest(
        args.out, args, started,
        config={"model": dataclasses.asdict(config), "train": dataclasses.asdict(train_cfg),
                "window_stride": stride, "windows": len(windows)},
        inputs={"data": args.data},
        outputs={"model": args.out, "report": report_path},
        checkpoint=args.out,
    )
    return 0


def _load_scoring_inputs(args):
    params, extra = load_model(args.model)
    stats = _norm_from_extra(extra)
    series = load_csv(args.data)
    std = standardize(series, stats)
    if std.channels != params.config.in_channels:
        raise ValueError(
            f"model expects {params.config.in_channels} channels, "
            f"data has {std.channels} after normalization"
        )
    return params, extra, std


def cmd_score(args) -> int:
    started = time.perf_counter()
    if args.unnormalized and args.method != "ddcl":
        raise ValueError(f"--unnormalized applies to --method ddcl, not {args.method}")
    _check_outputs(args, "out")
    params, _, std = _load_scoring_inputs(args)
    x = np.asarray(std.values, dtype=tn.dtype())
    if args.method == "ddcl":
        series = score_ddcl(params, x, normalized=not args.unnormalized)
    else:
        series = score_cpc_approx(params, x)
    save_scores_csv(args.out, series, labels=std.labels)
    write_manifest(
        args.out, args, started,
        config={"method": args.method, "normalized": not args.unnormalized,
                "model": dataclasses.asdict(params.config)},
        inputs={"model": args.model, "data": args.data},
        outputs={"scores": args.out},
        checkpoint=args.model,
    )
    print(f"wrote {series.scores.size} scores to {args.out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    started = time.perf_counter()
    _check_outputs(args, "out")
    scores, labels = load_scores_csv(args.scores)
    if labels is None:
        raise ValueError(f"{args.scores} has no label column; cannot evaluate")
    n_pos = int(labels.sum())
    if n_pos in (0, labels.size):
        print(
            f"diagnostic: all {labels.size} points are labeled "
            f"{'anomalous' if n_pos else 'normal'}; metrics need both classes",
            file=sys.stderr,
        )
        return 1
    result = best_f1(scores, labels)
    with open(args.out, "w") as fh:
        fh.write(result_csv(result))
    sys.stdout.write(result_text(result))
    write_manifest(
        args.out, args, started,
        config={"points": int(labels.size), "positives": n_pos},
        inputs={"scores": args.scores},
        outputs={"eval": args.out},
    )
    return 0


def cmd_viz_decode(args) -> int:
    started = time.perf_counter()
    _check_outputs(args, "out", "save-model")
    params, extra, std = _load_scoring_inputs(args)
    config = params.config
    windows = window(std.values, config.sub_seq, config.sub_seq)
    if args.window < 0 or args.window >= len(windows):
        raise ValueError(f"window index {args.window} out of range 0..{len(windows)-1}")
    if args.decoder_epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {args.decoder_epochs}")
    if params.decoder is None:
        init_decoder(params, seed=args.seed)
        fit_decoder(
            params, windows, epochs=args.decoder_epochs,
            lr=args.decoder_lr, seed=args.seed,
        )
    x = np.asarray(windows[args.window], dtype=tn.dtype())
    z = mdl.encode(params, tn.Tensor(x[None]))
    recon = mdl.decode(params, z).data[0]
    views = mdl.transform(params, tn.reshape(z, z.shape[1:]))
    decoded = mdl.decode(params, tn.transpose(views, (1, 0, 2))).data
    names = np.array(["input", "recon"] + [f"view{l}" for l in range(1, len(decoded) + 1)])
    stacked = np.concatenate([x[None, :, : recon.shape[-1]], recon[None], decoded])
    view, channel, t = np.indices(stacked.shape).reshape(3, -1)
    write_csv(args.out, ["view", "channel", "t", "value"],
              [names[view], channel, t, stacked.ravel()])
    if args.save_model:
        save_model(args.save_model, params, extra=extra)
    write_manifest(
        args.out, args, started,
        config={"window": args.window, "groups": len(names),
                "decoder_epochs": args.decoder_epochs},
        inputs={"model": args.model, "data": args.data},
        outputs={"decode": args.out},
        checkpoint=args.model,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--config", default=None,
                        help="builtin config name (small, audio) or key=value file")
    common.add_argument("--precision", type=int, choices=(32, 64), default=32)

    parser = argparse.ArgumentParser(
        prog="lnt",
        description="Local neural transformations: contrastive anomaly "
                    "detection for multivariate time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic train/test pair")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--train-length", type=int, default=50_000)
    p.add_argument("--test-length", type=int, default=20_000)
    p.add_argument("--anomaly-fraction", type=float, default=0.10)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[common], help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--report", default=None, help="epoch report CSV path")
    for key, caster in _TRAIN_KEYS.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=caster, default=None,
                       help=_TRAIN_HELP.get(key))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", parents=[common], help="score a series")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=("ddcl", "cpc-approx"), default="ddcl")
    p.add_argument("--unnormalized", action="store_true")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", parents=[common], help="metrics from scored CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("viz-decode", parents=[common],
                       help="decode latents and transformed views to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=0)
    p.add_argument("--decoder-epochs", type=int, default=20)
    p.add_argument("--decoder-lr", type=float, default=1e-3)
    p.add_argument("--save-model", default=None)
    p.set_defaults(func=cmd_viz_decode)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tn.set_precision(args.precision)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
