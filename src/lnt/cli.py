"""Command-line interface: synth, train, score, eval, viz-decode.

LNT_THREADS caps BLAS threading; it must take effect before numpy loads,
which is why the environment block sits above every other import.  A
value that is not a whole number >= 1 is not applied, and every command
then fails naming it.  The heap policy beside it keeps glibc from
trimming a train step's freed working set and faulting it back in on the
next step.
"""

import ctypes
import os

_requested = os.environ.get("LNT_THREADS")
_valid = _requested and _requested.isascii() and _requested.isdigit() and int(_requested) > 0
_threads = _requested if _valid else None  # the cap applied
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
    CONSTANT_STD,
    TONE_FRAMES,
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


# Config-file keys and train flags come from the config dataclasses, each
# parsed by the type of its field's default.  in_channels comes from the
# data and seed from --seed; window_stride sets the training windows.
_PARSERS = {int: int, float: float, bool: _parse_bool, tuple: _parse_ints}
_MODEL_KEYS = {f.name: _PARSERS[type(f.default)]
               for f in dataclasses.fields(ModelConfig) if f.name != "in_channels"}
_TRAIN_KEYS = {**{f.name: _PARSERS[type(f.default)]
                  for f in dataclasses.fields(TrainConfig) if f.name != "seed"},
               "window_stride": int}

_TRAIN_HELP = {f.name: f"{f.metadata['help']} (default {f.default:g})"
               for f in dataclasses.fields(TrainConfig) if "help" in f.metadata}


def parse_config_file(path) -> dict[str, str]:
    """key = value lines; # starts a comment; a key may appear once."""
    entries: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            if key in entries:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            entries[key] = value
    return entries


def resolve_config(spec: str | None) -> tuple[ModelConfig, dict]:
    """--config is a builtin name (None for small), which a file of that
    name does not shadow, or else a key=value file; returns the base model
    config plus training overrides found in the file."""
    try:
        return builtin_config("small" if spec is None else spec), {}
    except ValueError:
        if os.path.isdir(spec):
            raise ValueError(f"--config: {spec!r} is a directory") from None
        if not os.path.exists(spec):
            raise
    entries = parse_config_file(spec)
    model_over: dict = {}
    train_over: dict = {}
    try:
        base = builtin_config(entries.pop("base", "small"))
        for key, raw in entries.items():
            over = model_over if key in _MODEL_KEYS else train_over
            parse = _MODEL_KEYS.get(key) or _TRAIN_KEYS.get(key)
            if parse is None:
                raise ValueError(f"unknown config key {key!r}")
            try:
                over[key] = parse(raw)
            except ValueError as err:
                raise ValueError(f"{key} = {raw}: {err}") from None
        _train_settings(train_over)  # the file's own values, named with the file
        return dataclasses.replace(base, **model_over), train_over
    except ValueError as err:
        raise ValueError(f"{spec}: {err}") from None


def _train_settings(values: dict) -> tuple[TrainConfig, int | None]:
    """The TrainConfig and window stride of ``_TRAIN_KEYS`` values (and a
    seed); a rejected value raises naming its key."""
    values = dict(values)
    stride = values.pop("window_stride", None)
    if stride is not None and stride < 1:
        raise ValueError(f"window_stride must be >= 1, got {stride}")
    return TrainConfig(**values), stride


def _train_config(args, file_over: dict) -> tuple[TrainConfig, int | None]:
    """defaults < config file < explicit flags."""
    merged = dict(file_over, seed=args.seed)
    for key in _TRAIN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return _train_settings(merged)


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


_MANIFEST = ".manifest.json"  # the suffix that names an output's manifest


def write_manifest(output, args, started, *, config=None, inputs=None,
                   outputs=None, checkpoint=None) -> None:
    """``<output>.manifest.json``; it records ``seed`` and ``precision``
    for the commands that take them."""
    manifest = {
        "command": args.command,
        "environment": environment(),
        **{key: value for key, value in vars(args).items() if key in ("seed", "precision")},
        "config": config or {},
        "inputs": inputs or {},
        "outputs": outputs or {},
        "seconds": round(time.perf_counter() - started, 3),
    }
    if checkpoint is not None:
        manifest["checkpoint_sha256"] = sha256_file(checkpoint)
    with open(f"{output}{_MANIFEST}", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _norm_extra(stats: NormStats) -> dict:
    return {f"norm.{f.name}": getattr(stats, f.name).astype(np.float32)
            for f in dataclasses.fields(NormStats)}


def _norm_from_extra(extra: dict, channels: int) -> NormStats:
    """A checkpoint's stats: three (C,) arrays, keep 0 or 1, and
    ``channels`` kept channels, each with a std above CONSTANT_STD."""
    try:
        mean, std, keep = (extra[f"norm.{f.name}"] for f in dataclasses.fields(NormStats))
    except KeyError as missing:
        raise ValueError(f"checkpoint lacks normalization stats ({missing})") from None
    if not mean.ndim == 1 or not mean.shape == std.shape == keep.shape:
        raise ValueError(f"norm.mean, norm.std and norm.keep have shapes {mean.shape}, "
                         f"{std.shape}, {keep.shape}; expected one (channels,) shape")
    if not ((keep == 0) | (keep == 1)).all():
        raise ValueError(f"norm.keep holds {keep.tolist()}, not only 0 and 1")
    if not (std[keep == 1] > CONSTANT_STD).all():
        raise ValueError(f"norm.std holds {std.tolist()}, a kept channel's <= {CONSTANT_STD}")
    if keep.sum() != channels:
        raise ValueError(f"norm.keep keeps {int(keep.sum())} channels, the model takes {channels}")
    return NormStats(mean, std, keep == 1)


def _check_frames(data, series: LabeledSeries, need: int, model: str, why: str) -> None:
    if series.length < need:
        raise ValueError(f"{data} has {series.length} frames; {model} needs at least {need} "
                         f"({why})")


def _check_outputs(args, *written: tuple[str, str | None]) -> None:
    """Fail before any work when a path the command writes is a directory,
    its directory is missing, or it names an input flag's existing file (a
    ``--config`` file included) or an earlier written path's, so a run
    never stops at its first write and never writes over a file it reads
    or writes.  ``written`` holds every (flag, path) the command writes: a
    flag's own path, or one named after it (a manifest, the default
    report, synth's splits), None when not written; errors name the flag."""
    named = {os.path.realpath(path): f"--{flag}"
             for flag in ("data", "model", "scores", "config")
             if (path := getattr(args, flag, None)) and os.path.isfile(path)}
    for flag, path in written:
        if not path:
            continue
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise ValueError(f"--{flag}: directory {folder!r} does not exist")
        if os.path.isdir(path):
            raise ValueError(f"--{flag}: {path!r} is a directory")
        other = named.setdefault(os.path.realpath(path), f"--{flag}")
        if other != f"--{flag}":
            raise ValueError(f"--{flag} and {other} both name {path!r}")


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    started = time.perf_counter()
    for flag in ("channels", "train-length", "test-length"):
        if (value := getattr(args, flag.replace("-", "_"))) < 1:
            raise ValueError(f"--{flag} must be >= 1, got {value}")
    if not 0.0 <= args.anomaly_fraction < 1.0:
        raise ValueError(f"--anomaly-fraction must be in [0, 1), got {args.anomaly_fraction}")
    if not 0.0 <= args.amplitude < np.inf:
        raise ValueError(f"--amplitude must be finite and >= 0, got {args.amplitude}")
    if args.anomaly_fraction > 0 and args.test_length <= TONE_FRAMES[1]:
        raise ValueError(f"--test-length must exceed the longest tone, {TONE_FRAMES[1]} frames, "
                         f"while --anomaly-fraction > 0; got {args.test_length}")
    train_path = os.path.join(args.out_dir, "train.csv")
    test_path = os.path.join(args.out_dir, "test.csv")
    if os.path.isdir(args.out_dir):  # a missing one is made once the splits exist
        _check_outputs(args, *(("out-dir", path + end) for path in (train_path, test_path)
                               for end in ("", _MANIFEST)))
    elif os.path.lexists(args.out_dir):
        raise ValueError(f"--out-dir: {args.out_dir!r} is not a directory")
    seeds = np.random.default_rng(args.seed).integers(0, 2**31 - 1, size=3)
    train = synth_normal(args.channels, args.train_length, seed=int(seeds[0]))
    test = synth_normal(args.channels, args.test_length, seed=int(seeds[1]))
    if args.anomaly_fraction > 0:
        spec = InjectionSpec(
            fraction=args.anomaly_fraction,
            amplitude=args.amplitude,
            seed=int(seeds[2]),
        )
        try:
            test = inject_sine_anomalies(test, spec)
        except ValueError as err:
            raise ValueError(f"--anomaly-fraction {args.anomaly_fraction} cannot be met on "
                             f"--test-length {args.test_length}: {err}") from None
    os.makedirs(args.out_dir, exist_ok=True)
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
    report_path = args.report or f"{args.out}.report.csv"
    _check_outputs(args, ("out", args.out), ("report" if args.report else "out", report_path),
                   ("out", args.out + _MANIFEST))
    base, file_over = resolve_config(args.config)
    train_cfg, stride = _train_config(args, file_over)
    series = load_csv(args.data)
    stats = compute_stats(series)
    std = standardize(series, stats)
    if std.channels == 0:
        raise ValueError(f"{args.data}: every channel is constant; nothing to train on")
    _check_frames(args.data, std, base.sub_seq, f"the config {args.config or 'small'}",
                  "one sub_seq window")
    config = dataclasses.replace(base, in_channels=std.channels)
    stride = stride if stride is not None else max(config.sub_seq // 2, 1)
    windows = window(np.asarray(std.values, dtype=tn.dtype()), config.sub_seq, stride)
    del series, std  # only the array the windows view stays alive
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
    """The model, its extra arrays, and ``--data`` standardized by its
    stats, which must cover the series' channels."""
    # the series first: its parse is freed before the model's arrays are made
    series = load_csv(args.data)
    params, extra = load_model(args.model)
    try:
        stats = _norm_from_extra(extra, params.config.in_channels)
    except ValueError as err:
        raise ValueError(f"{args.model}: {err}") from None
    if series.channels != stats.keep.size:
        raise ValueError(f"{args.data} has {series.channels} channels; the model {args.model} "
                         f"needs {stats.keep.size}")
    return params, extra, standardize(series, stats)


def cmd_score(args) -> int:
    started = time.perf_counter()
    if args.unnormalized and args.method != "ddcl":
        raise ValueError(f"--unnormalized applies to --method ddcl, not {args.method}")
    _check_outputs(args, ("out", args.out), ("out", args.out + _MANIFEST))
    params, _, std = _load_scoring_inputs(args)
    cfg = params.config
    _check_frames(args.data, std, cfg.receptive_field + cfg.downsample,
                  f"the model {args.model}", "two latent steps")
    x, labels = np.asarray(std.values, dtype=tn.dtype()), std.labels
    del std  # scoring holds the float32 copy alone
    if args.method == "ddcl":
        series = score_ddcl(params, x, normalized=not args.unnormalized)
    else:
        series = score_cpc_approx(params, x)
    save_scores_csv(args.out, series, labels=labels)
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
    _check_outputs(args, ("out", args.out), ("out", args.out + _MANIFEST))
    scores, labels = load_scores_csv(args.scores)
    if labels is None:
        raise ValueError(f"{args.scores} has no label column; cannot evaluate")
    try:
        result = best_f1(scores, labels)
    except ValueError as err:
        raise ValueError(f"{args.scores}: {err}") from None
    with open(args.out, "w") as fh:
        fh.write(result_csv(result))
    sys.stdout.write(result_text(result))
    write_manifest(
        args.out, args, started,
        config={"points": int(labels.size), "positives": int(labels.sum())},
        inputs={"scores": args.scores},
        outputs={"eval": args.out},
    )
    return 0


def cmd_viz_decode(args) -> int:
    started = time.perf_counter()
    if args.decoder_epochs < 0:
        raise ValueError(f"--decoder-epochs must be >= 0, got {args.decoder_epochs}")
    if not 0.0 < args.decoder_lr < np.inf:
        raise ValueError(f"--decoder-lr must be finite and positive, got {args.decoder_lr}")
    if args.window < 0:
        raise ValueError(f"--window must be >= 0, got {args.window}")
    _check_outputs(args, ("out", args.out), ("save-model", args.save_model),
                   ("out", args.out + _MANIFEST))
    params, extra, std = _load_scoring_inputs(args)
    config = params.config
    _check_frames(args.data, std, config.sub_seq, f"the model {args.model}",
                  "one sub_seq window")
    windows = window(std.values, config.sub_seq, config.sub_seq)
    if args.window >= len(windows):
        raise ValueError(f"--window must be in 0..{len(windows) - 1} for {args.data}, "
                         f"got {args.window}")
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
    outputs = {"decode": args.out}
    if args.save_model:
        save_model(args.save_model, params, extra=extra)
        outputs["model"] = args.save_model
    write_manifest(
        args.out, args, started,
        config={"window": args.window, "groups": len(names),
                "decoder_epochs": args.decoder_epochs},
        inputs={"model": args.model, "data": args.data},
        outputs=outputs,
        checkpoint=args.model,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it as it reports every rejected call
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    # each command takes the flags it reads
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="master RNG seed")
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument("--precision", type=int, choices=(32, 64), default=32)

    parser = _Parser(
        prog="lnt",
        description="Local neural transformations: contrastive anomaly "
                    "detection for multivariate time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[seed], help="generate a synthetic train/test pair")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--train-length", type=int, default=50_000)
    p.add_argument("--test-length", type=int, default=20_000,
                   help=f"must exceed {TONE_FRAMES[1]} frames, the longest tone, "
                        f"while --anomaly-fraction > 0")
    p.add_argument("--anomaly-fraction", type=float, default=InjectionSpec.fraction)
    p.add_argument("--amplitude", type=float, default=InjectionSpec.amplitude)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[seed, precision], help="train a model")
    p.add_argument("--config", default=None,
                   help="builtin config name (small, audio) or key=value file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--report", default=None, help="epoch report CSV path")
    for key, caster in _TRAIN_KEYS.items():
        p.add_argument(f"--{key.replace('_', '-')}", type=caster, default=None,
                       help=_TRAIN_HELP.get(key))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", parents=[precision], help="score a series")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", choices=("ddcl", "cpc-approx"), default="ddcl")
    p.add_argument("--unnormalized", action="store_true")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="metrics from scored CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("viz-decode", parents=[seed, precision],
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
    try:
        args = build_parser().parse_args(argv)
        if _requested and not _threads:
            raise ValueError(f"LNT_THREADS must be a whole number >= 1, got {_requested!r}")
        if "seed" in args and args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        if "precision" in args:
            tn.set_precision(args.precision)
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
