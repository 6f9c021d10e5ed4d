import csv
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import lnt
import lnt.cli
from lnt import model as mdl
from lnt import tensor as tn
from lnt.checkpoint import (
    load_arrays,
    load_model,
    model_from_arrays,
    model_to_arrays,
    save_arrays,
    save_model,
)
from lnt.cli import build_parser, main, parse_config_file, resolve_config
from lnt.data import load_csv
from lnt.scoring import load_scores_csv
from lnt.training import TrainConfig

TINY_CONFIG = """\
# desk-scale test model
filters = 3,2
strides = 3,2
dim_z = 8
dim_c = 4
K = 2
L = 3
bank_layers = 2
bank_width = 5
sub_seq = 48
epochs = 2
lr = 1e-3
batch_size = 16
negatives = 8
"""


@pytest.fixture(autouse=True)
def _restore_precision():
    before = tn.precision()
    yield
    tn.set_precision(before)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth+train+score run shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    data = root / "data"
    assert main([
        "synth", "--out-dir", str(data), "--channels", "2",
        "--train-length", "4000", "--test-length", "9000", "--seed", "3",
    ]) == 0
    model = root / "model.lntc"
    assert main([
        "train", "--data", str(data / "train.csv"), "--out", str(model),
        "--config", str(cfg), "--seed", "3",
    ]) == 0
    scores = root / "scores.csv"
    assert main([
        "score", "--model", str(model), "--data", str(data / "test.csv"),
        "--out", str(scores),
    ]) == 0
    return {"root": root, "cfg": cfg, "data": data, "model": model, "scores": scores}


# ---------------------------------------------------------------------------
# synth


def test_synth_outputs_and_manifests(workspace):
    data = workspace["data"]
    train = load_csv(data / "train.csv")
    test = load_csv(data / "test.csv")
    assert train.channels == 2 and train.length == 4000
    assert not train.labels.any()
    assert abs(test.labels.mean() - 0.10) <= 0.02
    manifest = json.loads((data / "test.csv.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 3
    assert "train" in manifest["outputs"] and "test" in manifest["outputs"]


def test_synth_rerun_is_byte_identical(workspace, tmp_path):
    assert main([
        "synth", "--out-dir", str(tmp_path), "--channels", "2",
        "--train-length", "4000", "--test-length", "9000", "--seed", "3",
    ]) == 0
    for name in ("train.csv", "test.csv"):
        assert (tmp_path / name).read_bytes() == (workspace["data"] / name).read_bytes()


def test_synth_zero_fraction_has_clean_labels(tmp_path):
    """A clean test split may be no longer than the longest tone, 4,096
    frames; with tones, 4,097 frames suffice."""
    argv = ["synth", "--out-dir", str(tmp_path), "--channels", "1", "--train-length", "600"]
    assert main([*argv, "--test-length", "4097", "--anomaly-fraction", "0.2"]) == 0
    assert main([*argv, "--test-length", "4000", "--anomaly-fraction", "0"]) == 0
    test = load_csv(tmp_path / "test.csv")
    assert test.labels is not None and not test.labels.any()


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_report_manifest(workspace):
    model = workspace["model"]
    params, extra = load_model(model)
    assert params.config.dim_z == 8 and params.config.K == 2
    assert params.config.in_channels == 2
    assert {"norm.mean", "norm.std", "norm.keep"} <= set(extra)

    report = (str(model) + ".report.csv")
    lines = open(report).read().strip().split("\n")
    assert lines[0] == "epoch,cpc,ddcl,total,grad_norm,seconds"
    assert len(lines) == 3  # config file sets 2 epochs

    manifest = json.loads(open(str(model) + ".manifest.json").read())
    digest = hashlib.sha256(open(model, "rb").read()).hexdigest()
    assert manifest["checkpoint_sha256"] == digest
    assert manifest["config"]["model"]["dim_z"] == 8
    assert manifest["config"]["train"]["epochs"] == 2


def test_manifests_record_environment(workspace):
    """train and score manifests say which python, numpy, BLAS, thread cap
    and heap policy produced them."""
    try:
        has_mallopt = hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        has_mallopt = False
    heap = {"mmap_threshold": 32 << 20, "trim_threshold": 256 << 20} if has_mallopt else None
    for output in (workspace["model"], workspace["scores"]):
        manifest = json.loads(open(f"{output}.manifest.json").read())
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "blas", "blas_version", "lnt_threads", "malloc"}
        assert env["malloc"] == heap
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["blas"] is None or isinstance(env["blas"], str)
        assert env["blas_version"] is None or isinstance(env["blas_version"], str)
        assert env["lnt_threads"] == (lnt.cli._threads or None)


def test_manifests_record_only_the_flags_their_command_takes(workspace, tmp_path):
    """seed and precision are recorded where the command reads them: eval
    used to record both, and score a seed it never read."""
    evaluated = tmp_path / "e.csv"
    assert main(["eval", "--scores", str(workspace["scores"]), "--out", str(evaluated)]) == 0
    recorded = {}
    for output in (workspace["data"] / "test.csv", workspace["model"], workspace["scores"],
                   evaluated):
        manifest = json.loads(open(f"{output}.manifest.json").read())
        recorded[manifest["command"]] = {key: manifest[key] for key in ("seed", "precision")
                                         if key in manifest}
    assert recorded == {"synth": {"seed": 3}, "train": {"seed": 3, "precision": 32},
                        "score": {"precision": 32}, "eval": {}}


@pytest.mark.parametrize("threads", ["1", None])
def test_manifest_environment_reports_thread_cap(threads):
    env = {k: v for k, v in os.environ.items() if k != "LNT_THREADS"}
    if threads is not None:
        env["LNT_THREADS"] = threads
    out = subprocess.run(
        [sys.executable, "-c", "import json, lnt.cli; print(json.dumps(lnt.cli.environment()))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout)["lnt_threads"] == threads


@pytest.mark.parametrize("threads", ["abc", "0", "-1"])
def test_invalid_thread_cap_is_not_applied_and_fails(tmp_path, threads):
    """An LNT_THREADS that is not a whole number >= 1 used to be exported
    to the BLAS variables and recorded as the cap; now it is not applied,
    and a command exits 1 naming it before it writes anything."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["LNT_THREADS"] = threads
    out = subprocess.run(
        [sys.executable, "-c", "import json, os, lnt.cli; print(json.dumps("
         "[os.environ.get('OPENBLAS_NUM_THREADS'), lnt.cli.environment()['lnt_threads']]))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(out.stdout) == [None, None]
    data = tmp_path / "data"
    run = subprocess.run(
        [sys.executable, "-m", "lnt.cli", "synth", "--out-dir", str(data),
         "--train-length", "500", "--test-length", "500"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 1
    assert run.stderr == f"error: LNT_THREADS must be a whole number >= 1, got {threads!r}\n"
    assert not data.exists()


def test_train_flag_overrides_config_file(workspace, tmp_path):
    out = tmp_path / "m.lntc"
    assert main([
        "train", "--data", str(workspace["data"] / "train.csv"),
        "--out", str(out), "--config", str(workspace["cfg"]),
        "--epochs", "1", "--seed", "0",
    ]) == 0
    lines = open(str(out) + ".report.csv").read().strip().split("\n")
    assert len(lines) == 2  # flag wins over the file's epochs = 2


def test_train_fails_when_final_weights_cannot_score(workspace, tmp_path, capsys):
    """One step at lr 1e30 leaves finite weights near 1e30 that overflow
    in any forward pass.  Training used to exit 0 and write a checkpoint
    that score then rejected; the final weights' check fails it instead,
    with nothing written."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([
            "train", "--data", str(workspace["data"] / "train.csv"),
            "--out", str(tmp_path / "m.lntc"), "--config", str(workspace["cfg"]),
            "--epochs", "1", "--window-stride", "720", "--lr", "1e30",
        ]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("epoch 0: ") and len(err) == 2, err
    assert err[1].startswith("error: non-finite values in ")
    assert err[1].endswith("(the last mini-batch's loss with the final weights)")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--cpc-weight", "-1")])
def test_train_rejects_bad_float_flag_and_writes_nothing(workspace, tmp_path, capsys, flag, value):
    """With a readable data file too, a bad float flag leaves no checkpoint."""
    out = tmp_path / "m.lntc"
    assert main(["train", "--data", str(workspace["data"] / "train.csv"), "--out", str(out),
                 "--config", str(workspace["cfg"]), "--epochs", "1", flag, value]) == 1
    assert f"error: {flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("dim_z = 16  # latent\n\nlr = 5e-4\nbase = small\n")
    entries = parse_config_file(path)
    assert entries == {"dim_z": "16", "lr": "5e-4", "base": "small"}
    config, train_over = resolve_config(str(path))
    assert config.dim_z == 16
    assert train_over == {"lr": 5e-4}


# Every config-file key, with a value that differs from the `small` base
# and from TrainConfig's defaults, as written and as parsed.
SCHEMA_VALUES = {
    "dim_z": ("6", 6), "dim_c": ("5", 5), "filters": ("3, 2", (3, 2)),
    "strides": ("2,2", (2, 2)), "K": ("3", 3), "L": ("4", 4), "bank_layers": ("3", 3),
    "bank_width": ("7", 7), "conv_bias": ("false", False),
    "separate_ddcl_heads": ("0", False), "sub_seq": ("40", 40),
    "lr": ("3e-3", 3e-3), "batch_size": ("8", 8), "epochs": ("3", 3), "lam": ("0.5", 0.5),
    "cpc_weight": ("0.25", 0.25), "negatives": ("4", 4), "clip_norm": ("2.5", 2.5),
    "window_stride": ("24", 24),
}


def test_config_keys_are_the_config_dataclass_fields(tmp_path):
    """The config-file keys and train flags are the ModelConfig fields but
    in_channels and the TrainConfig fields but seed, plus window_stride;
    each value reaches its config, and a model key survives a checkpoint."""
    model_keys = {f.name for f in dataclasses.fields(mdl.ModelConfig)} - {"in_channels"}
    train_keys = {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"} | {"window_stride"}
    assert set(lnt.cli._MODEL_KEYS) == model_keys and set(lnt.cli._TRAIN_KEYS) == train_keys
    assert model_keys | train_keys == set(SCHEMA_VALUES) and len(SCHEMA_VALUES) == 19

    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = {raw}\n" for key, (raw, _) in SCHEMA_VALUES.items()))
    config, file_over = resolve_config(str(path))
    base = mdl.small_config()
    for key in model_keys:
        assert getattr(config, key) == SCHEMA_VALUES[key][1] != getattr(base, key), key
    params = mdl.init_params(dataclasses.replace(config, in_channels=2), seed=0)
    loaded, _ = model_from_arrays(model_to_arrays(params))
    assert loaded.config == params.config

    train_args = ["train", "--data", "d.csv", "--out", "m.lntc"]
    flags = [arg for key in train_keys
             for arg in (f"--{key.replace('_', '-')}", SCHEMA_VALUES[key][0])]
    for args, over in [(train_args + ["--config", str(path)], file_over),
                       (train_args + flags, {})]:
        train_cfg, stride = lnt.cli._train_config(build_parser().parse_args(args), over)
        assert stride == SCHEMA_VALUES["window_stride"][1]
        for key in train_keys - {"window_stride"}:
            assert getattr(train_cfg, key) == SCHEMA_VALUES[key][1] != getattr(TrainConfig, key)


def test_config_builtin_names():
    config, over = resolve_config("audio")
    assert config.dim_z == 512 and over == {}
    assert resolve_config(None)[0] == resolve_config("small")[0]


# ---------------------------------------------------------------------------
# score / eval


def test_score_csv_carries_labels(workspace):
    scores, labels = load_scores_csv(workspace["scores"])
    test = load_csv(workspace["data"] / "test.csv")
    assert scores.size == test.length
    assert_array_equal(labels, test.labels)
    assert np.isfinite(scores).all()


def test_score_rerun_is_byte_identical(workspace, tmp_path):
    out = tmp_path / "again.csv"
    assert main([
        "score", "--model", str(workspace["model"]),
        "--data", str(workspace["data"] / "test.csv"),
        "--out", str(out),
    ]) == 0
    assert out.read_bytes() == workspace["scores"].read_bytes()


def test_score_cpc_approx_method(workspace, tmp_path):
    out = tmp_path / "cpc.csv"
    assert main([
        "score", "--model", str(workspace["model"]),
        "--data", str(workspace["data"] / "test.csv"),
        "--out", str(out), "--method", "cpc-approx",
    ]) == 0
    scores, _ = load_scores_csv(out)
    assert np.isfinite(scores).all()
    manifest = json.loads((str(out) + ".manifest.json") and open(str(out) + ".manifest.json").read())
    assert manifest["config"]["method"] == "cpc-approx"


def test_eval_writes_csv_and_text(workspace, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    assert main(["eval", "--scores", str(workspace["scores"]), "--out", str(out)]) == 0
    body = out.read_text().strip().split("\n")
    assert body[0].startswith("auc,best_f1")
    auc = float(body[1].split(",")[0])
    assert 0.0 <= auc <= 1.0
    captured = capsys.readouterr()
    assert "auc" in captured.out and "best_f1" in captured.out


# ---------------------------------------------------------------------------
# viz-decode


def test_viz_decode_long_csv(workspace, tmp_path):
    out = tmp_path / "recon.csv"
    assert main([
        "viz-decode", "--model", str(workspace["model"]),
        "--data", str(workspace["data"] / "test.csv"),
        "--out", str(out), "--decoder-epochs", "2", "--seed", "1",
    ]) == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "view,channel,t,value"
    views = {line.split(",")[0] for line in rows[1:]}
    assert views == {"input", "recon"} | {f"view{l}" for l in range(1, 4)}  # L + 2


def test_viz_decode_recon_matches_direct_computation(workspace, tmp_path):
    out = tmp_path / "recon.csv"
    assert main([
        "viz-decode", "--model", str(workspace["model"]),
        "--data", str(workspace["data"] / "test.csv"),
        "--out", str(out), "--decoder-epochs", "2", "--seed", "1",
        "--save-model", str(tmp_path / "with_decoder.lntc"),
    ]) == 0
    params, extra = load_model(tmp_path / "with_decoder.lntc")
    assert params.decoder is not None
    _, source_extra = load_model(workspace["model"])
    assert sorted(extra) == sorted(source_extra) == ["norm.keep", "norm.mean", "norm.std"]
    for key, arr in source_extra.items():
        assert extra[key].dtype == arr.dtype and extra[key].tobytes() == arr.tobytes()

    from lnt.cli import _norm_from_extra
    from lnt.data import standardize, window

    stats = _norm_from_extra(extra, params.config.in_channels)
    std = standardize(load_csv(workspace["data"] / "test.csv"), stats)
    x = np.asarray(window(std.values, params.config.sub_seq, params.config.sub_seq)[0],
                   dtype=tn.dtype())
    z = mdl.encode(params, tn.Tensor(x[None]))
    expected = {"recon": mdl.decode(params, z).data[0]}
    # each view decoded on its own equals the CSV's batch-decoded view
    views = mdl.transform(params, tn.Tensor(z.data[0])).data
    for l in range(params.config.L):
        expected[f"view{l + 1}"] = mdl.decode(params, tn.Tensor(views[None, :, l])).data[0]

    got = {}
    for line in out.read_text().strip().split("\n")[1:]:
        view, ch, t, value = line.split(",")
        got[(view, int(ch), int(t))] = value
    for view, arr in expected.items():
        for ch in range(arr.shape[0]):
            for t in range(arr.shape[1]):
                assert got[(view, ch, t)] == f"{arr[ch, t]:.9g}", (view, ch, t)

    # byte for byte what the per-row csv.writer loop the shared writer
    # replaced wrote
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["view", "channel", "t", "value"])
    groups = {"input": x[:, : expected["recon"].shape[-1]], **expected}
    for name, arr in groups.items():
        for ch in range(arr.shape[0]):
            for t in range(arr.shape[1]):
                writer.writerow([name, ch, t, f"{arr[ch, t]:.9g}"])
    assert out.read_bytes() == buf.getvalue().encode()


def test_viz_decode_rejects_negative_decoder_epochs(workspace, tmp_path, capsys):
    """A checkpoint that already has a decoder trains none, and must still
    reject the flag (without one, it is a case of the rejected-call table)."""
    out, saved = tmp_path / "recon.csv", tmp_path / "with_decoder.lntc"
    assert main([
        "viz-decode", "--model", str(workspace["model"]),
        "--data", str(workspace["data"] / "test.csv"),
        "--out", str(out), "--decoder-epochs", "1", "--save-model", str(saved),
    ]) == 0
    out.unlink()
    capsys.readouterr()
    again = tmp_path / "again.csv"
    assert main([
        "viz-decode", "--model", str(saved),
        "--data", str(workspace["data"] / "test.csv"),
        "--out", str(again), "--decoder-epochs", "-3",
    ]) == 1
    assert "error: --decoder-epochs must be >= 0, got -3" in capsys.readouterr().err
    assert not again.exists() and not (tmp_path / "again.csv.manifest.json").exists()


# ---------------------------------------------------------------------------
# plumbing


def test_threads_env_caps_blas():
    out = subprocess.run(
        [sys.executable, "-c", "import lnt.cli, os; print(os.environ['OMP_NUM_THREADS'])"],
        env={**os.environ, "LNT_THREADS": "1"},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "1"


def test_package_init_stays_numpy_free():
    out = subprocess.run(
        [sys.executable, "-c", "import lnt, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


# The body pip (distlib) writes for a [project.scripts] entry.
LAUNCHER = """\
import re
import sys
from {module} import {attr}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""


def test_console_script_help(tmp_path):
    """`lnt --help` through a launcher built from pyproject.toml, run against
    the checkout under test rather than whatever `lnt` is on PATH."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["lnt"]
    module, attr = spec.split(":")
    launcher = tmp_path / "lnt"
    launcher.write_text(LAUNCHER.format(module=module, attr=attr))
    src = str(Path(lnt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, str(launcher), "--help"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert "synth" in out.stdout and "viz-decode" in out.stdout


_OUTPUT_FLAGS = [
    ("train", "--out"), ("train", "--report"), ("score", "--out"), ("eval", "--out"),
    ("viz-decode", "--out"), ("viz-decode", "--save-model"),
]


@pytest.mark.parametrize("command, flag, is_dir", [
    pytest.param(command, flag, is_dir, id=f"{command}-{flag}" + ("-is-dir" if is_dir else ""))
    for is_dir in (False, True) for command, flag in _OUTPUT_FLAGS
])
def test_output_in_missing_directory_fails_before_any_work(workspace, tmp_path, capsys,
                                                           command, flag, is_dir):
    """Every output path is checked before the command reads its inputs,
    for a missing directory and for a path that is itself a directory:
    the error names the flag and no file is written (training used to
    run, and to leave a checkpoint when only the report failed)."""
    data = workspace["data"]
    target = tmp_path / "dir" if is_dir else tmp_path / "nodir" / "file"
    if is_dir:
        target.mkdir()
    outputs = {"--out": str(tmp_path / "out"), flag: str(target)}
    inputs = {
        "train": ["--data", str(data / "train.csv"), "--config", str(workspace["cfg"]),
                  "--epochs", "1"],
        "score": ["--model", str(workspace["model"]), "--data", str(data / "test.csv")],
        "eval": ["--scores", str(workspace["scores"])],
        "viz-decode": ["--model", str(workspace["model"]), "--data", str(data / "test.csv"),
                       "--decoder-epochs", "1"],
    }[command]
    argv = [command, *inputs, *(arg for pair in outputs.items() for arg in pair)]
    assert main(argv) == 1
    expected = (f"{flag}: {str(target)!r} is a directory" if is_dir
                else f"{flag}: directory {str(target.parent)!r} does not exist")
    assert f"error: {expected}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == (["dir"] if is_dir else [])


# valid calls that write into {out}; the other fields are the workspace's
_WRITING_CALLS = {
    "synth": ["synth", "--out-dir", "{out}", "--channels", "1", "--train-length", "600",
              "--test-length", "6000"],
    "train": ["train", "--data", "{data}/train.csv", "--config", "{cfg}", "--epochs", "1",
              "--out", "{out}/m.lntc"],
    "train-report": ["train", "--data", "{data}/train.csv", "--config", "{cfg}", "--epochs", "1",
                     "--out", "{out}/m.lntc", "--report", "{out}/r.csv"],
    "score": ["score", "--model", "{model}", "--data", "{data}/test.csv", "--out", "{out}/s.csv"],
    "eval": ["eval", "--scores", "{scores}", "--out", "{out}/e.csv"],
    "viz-decode-save-model": ["viz-decode", "--model", "{model}", "--data", "{data}/test.csv",
                              "--decoder-epochs", "1", "--out", "{out}/v.csv",
                              "--save-model", "{out}/d.lntc"],
}


@pytest.mark.parametrize("call", list(_WRITING_CALLS.values()), ids=list(_WRITING_CALLS))
def test_every_written_path_is_checked_before_any_read(workspace, tmp_path, capsys, call):
    """Every file a valid call writes is a manifest or listed in its
    manifests' outputs.  Each of them, made a directory before the same
    call, fails it before any read: one `error:` line that names a flag,
    and that directory is all there is.  The default report, the manifests
    and synth's splits used to be checked only when written, after the
    work, and viz-decode's manifest did not list --save-model."""
    def run(folder):
        return main([arg.format(out=folder, **workspace) for arg in call])

    first = tmp_path / "first"
    first.mkdir()
    assert run(first) == 0
    written = sorted(path.relative_to(first) for path in first.rglob("*"))
    manifests = {path for path in written if path.name.endswith(".manifest.json")}
    listed = {Path(output) for manifest in manifests
              for output in json.loads((first / manifest).read_text())["outputs"].values()}
    assert listed == {first / path for path in written if path not in manifests}
    for i, path in enumerate(written):
        again = tmp_path / f"again{i}"
        (again / path).mkdir(parents=True)
        capsys.readouterr()
        assert run(again) == 1, path
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: --[a-z-]+: {re.escape(repr(str(again / path)))} "
                            r"is a directory\n", err), err
        assert list(again.rglob("*")) == [again / path]


@pytest.mark.parametrize("command", ["synth", "train", "viz-decode"])
def test_negative_seed_fails_naming_the_flag_and_writes_nothing(workspace, tmp_path, capsys,
                                                                command):
    """`--seed -1` used to exit 1 with numpy's bare `expected non-negative
    integer`.  score and eval take no --seed."""
    data, out = workspace["data"], str(tmp_path / "out")
    args = {
        "synth": ["--out-dir", out],
        "train": ["--data", str(data / "train.csv"), "--out", out],
        "viz-decode": ["--model", str(workspace["model"]), "--data", str(data / "test.csv"),
                       "--out", out],
    }[command]
    assert main([command, *args, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


# a small synth call, so a flag that is not rejected costs little
_SMALL_SYNTH = {"--channels": "1", "--train-length": "600", "--test-length": "6000"}


def _model_with(**norm):
    """A writer of the workspace model with its ``norm.<key>`` arrays
    replaced (None drops one)."""
    def write(workspace, path):
        arrays = {**load_arrays(workspace["model"]), **{f"norm.{k}": v for k, v in norm.items()}}
        save_arrays(path, {name: arr for name, arr in arrays.items() if arr is not None})
    return write


def _series(frames, channels=2):
    """A CSV of ``frames`` rows of ``channels`` varying channels."""
    names = ",".join(f"c{ch}" for ch in range(channels))
    return names + "\n" + "".join(",".join(str((t * (ch + 2)) % 7) for ch in range(channels)) + "\n"
                                   for t in range(frames))


def _copy(name):
    """A writer of a copy of the workspace file ``name``."""
    return lambda workspace, path: Path(path).write_bytes((workspace["root"] / name).read_bytes())


def _directory(workspace, path):
    """A writer of an empty directory."""
    os.mkdir(path)


_NORM_SHAPES = "norm.mean, norm.std and norm.keep have shapes {}; expected one (channels,) shape"

# id: (subcommand, flags set on a valid call, the `error:` line).  A flag's value
# None drops it, True passes it bare, and a (name, text or writer) pair is an input
# file the row writes first (a writer takes the workspace and the path); {in} and
# {out} stand for the inputs' and the outputs' folders.  A key that is not a flag
# is a file the row writes into {in}, the working directory, from its text or
# writer.  An input that does not exist checks that the flag is rejected before
# any file is read.
_REJECTED_CALLS = {
    "unknown-flag": ("score", {"--bogus": "1"}, "unrecognized arguments: --bogus 1"),
    "config-on-synth": ("synth", {"--config": "small"}, "unrecognized arguments: --config small"),
    "config-on-score": ("score", {"--config": "small"}, "unrecognized arguments: --config small"),
    "config-on-eval": ("eval", {"--config": "small"}, "unrecognized arguments: --config small"),
    "config-on-viz-decode": ("viz-decode", {"--config": "small"},
                             "unrecognized arguments: --config small"),
    "seed-on-score": ("score", {"--seed": "-1"}, "unrecognized arguments: --seed -1"),
    "seed-on-eval": ("eval", {"--seed": "3"}, "unrecognized arguments: --seed 3"),
    "precision-on-synth": ("synth", {"--precision": "64"},
                           "unrecognized arguments: --precision 64"),
    "missing-out": ("score", {"--out": None}, "the following arguments are required: --out"),
    "missing-scores": ("eval", {"--scores": None},
                       "the following arguments are required: --scores"),
    "bad-precision": ("train", {"--precision": "16"},
                      "argument --precision: invalid choice: 16 (choose from 32, 64)"),
    "bad-window": ("viz-decode", {"--window": "first"},
                   "argument --window: invalid int value: 'first'"),
    "unknown-command": ("frobnicate", {}, "argument command: invalid choice: 'frobnicate' "
                        "(choose from 'synth', 'train', 'score', 'eval', 'viz-decode')"),
    "missing-input-file": ("score", {"--model": "{in}/none.lntc", "--data": "{in}/none.csv"},
                           "[Errno 2] No such file or directory: '{in}/none.csv'"),
    # synth
    "channels-zero": ("synth", {"--channels": "0"}, "--channels must be >= 1, got 0"),
    "channels-zero-existing-out-dir": ("synth", {"--out-dir": "{out}", "--channels": "0"},
                                       "--channels must be >= 1, got 0"),
    "channels-negative": ("synth", {"--channels": "-2"}, "--channels must be >= 1, got -2"),
    **{f"test-length-{n}-tone": ("synth", {**_SMALL_SYNTH, "--test-length": n},
                                 "--test-length must exceed the longest tone, 4096 frames, "
                                 f"while --anomaly-fraction > 0; got {n}")
       for n in ("4000", "4096")},
    "fraction-negative": ("synth", {**_SMALL_SYNTH, "--anomaly-fraction": "-0.1"},
                          "--anomaly-fraction must be in [0, 1), got -0.1"),
    "fraction-nan": ("synth", {**_SMALL_SYNTH, "--anomaly-fraction": "nan"},
                     "--anomaly-fraction must be in [0, 1), got nan"),
    "fraction-one": ("synth", {**_SMALL_SYNTH, "--anomaly-fraction": "1"},
                     "--anomaly-fraction must be in [0, 1), got 1.0"),
    "amplitude-nan": ("synth", {**_SMALL_SYNTH, "--amplitude": "nan"},
                      "--amplitude must be finite and >= 0, got nan"),
    "amplitude-inf": ("synth", {**_SMALL_SYNTH, "--amplitude": "inf"},
                      "--amplitude must be finite and >= 0, got inf"),
    "amplitude-negative-clean": ("synth", {**_SMALL_SYNTH, "--amplitude": "-3",
                                           "--anomaly-fraction": "0"},
                                 "--amplitude must be finite and >= 0, got -3.0"),
    "train-length-zero": ("synth", {**_SMALL_SYNTH, "--train-length": "0"},
                          "--train-length must be >= 1, got 0"),
    "test-length-negative": ("synth", {**_SMALL_SYNTH, "--test-length": "-5"},
                             "--test-length must be >= 1, got -5"),
    "fraction-unmet": ("synth", {**_SMALL_SYNTH, "--test-length": "4097",
                                 "--anomaly-fraction": "0.05"},
                       "--anomaly-fraction 0.05 cannot be met on --test-length 4097: achieved "
                       "anomalous fraction 0.0000 misses target 0.0500 by more than 2 points"),
    "fraction-overshot": ("synth", {**_SMALL_SYNTH, "--test-length": "4200"},
                          "--anomaly-fraction 0.1 cannot be met on --test-length 4200: achieved "
                          "anomalous fraction 0.1219 misses target 0.1000 by more than 2 points"),
    # train
    "negative-seed": ("train", {"--seed": "-1"}, "--seed must be >= 0, got -1"),
    "unknown-config": ("train", {"--config": "enormous"},
                       "unknown config 'enormous' (choose from ['audio', 'small'])"),
    # a builtin name selects the builtin, whatever the working directory holds
    "config-audio-beside-a-file-audio": ("train", {"--config": "audio", "audio": "lr = 1e-3\n",
                                                   "--data": ("t.csv", _copy("data/train.csv"))},
                                         "{in}/t.csv has 4000 frames; the config audio needs at "
                                         "least 20480 (one sub_seq window)"),
    "config-small-beside-a-directory-small": ("train", {"--config": "small", "small": _directory,
                                                        "--data": ("short.csv", _series(49))},
                                              "{in}/short.csv has 49 frames; the config small "
                                              "needs at least 720 (one sub_seq window)"),
    "config-is-a-directory": ("train", {"--config": ("cfg", _directory)},
                              "--config: '{in}/cfg' is a directory"),
    "lr-nan": ("train", {"--data": "no_such.csv", "--lr": "nan"},
               "lr must be finite and positive, got nan"),
    "lr-inf": ("train", {"--data": "no_such.csv", "--lr": "inf"},
               "lr must be finite and positive, got inf"),
    "clip-norm-nan": ("train", {"--data": "no_such.csv", "--clip-norm": "nan"},
                      "clip_norm must be finite and positive, got nan"),
    "bad-cpc-weight": ("train", {"--data": "no_such.csv", "--cpc-weight": "-1"},
                       "cpc_weight must be finite and >= 0, got -1.0"),
    "bad-lam": ("train", {"--data": "no_such.csv", "--lam": "nan"},
                "lam must be finite and >= 0, got nan"),
    "bad-negatives": ("train", {"--data": "no_such.csv", "--negatives": "1"},
                      "negatives must be >= 2, got 1"),
    "bad-window-stride": ("train", {"--data": "no_such.csv", "--window-stride": "0"},
                          "window_stride must be >= 1, got 0"),
    **{f"config-file-{key}": ("train", {"--config": ("bad.cfg", text)}, f"{{in}}/bad.cfg{error}")
       for key, text, error in [
           ("int", "dim_z = abc\n",
            ": dim_z = abc: invalid literal for int() with base 10: 'abc'"),
           ("bool", "conv_bias = maybe\n",
            ": conv_bias = maybe: expected a boolean, got 'maybe'"),
           ("repeated", "K = 4\nK = 2\n", ":2: repeated key 'K'"),
           ("sub_seq", "sub_seq = -720\n", ": sub_seq must be >= 1, got -720"),
           ("lr", "lr = -1\n", ": lr must be finite and positive, got -1.0"),
           ("window_stride", "window_stride = 0\n", ": window_stride must be >= 1, got 0"),
           ("unknown-key", "not_a_field = 3\n", ": unknown config key 'not_a_field'"),
       ]},
    "all-channels-constant": ("train", {"--data": ("flat.csv", "a,b\n" + "1.5,-2\n" * 4)},
                              "{in}/flat.csv: every channel is constant; nothing to train on"),
    "train-data-short": ("train", {"--config": "small", "--data": ("short.csv", _series(49))},
                         "{in}/short.csv has 49 frames; the config small needs at least 720 "
                         "(one sub_seq window)"),
    # score, eval, viz-decode
    "unnormalized-cpc-approx": ("score", {"--method": "cpc-approx", "--unnormalized": True},
                                "--unnormalized applies to --method ddcl, not cpc-approx"),
    **{f"norm-{case}": ("score", {"--model": ("m.lntc", _model_with(**norm))},
                        f"{{in}}/m.lntc: {error}")
       for case, norm, error in [
           ("keep-5-entries", {"keep": np.ones(5)}, _NORM_SHAPES.format("(2,), (2,), (5,)")),
           ("std-1-entry", {"std": np.ones(1)}, _NORM_SHAPES.format("(2,), (1,), (2,)")),
           ("mean-column", {"mean": np.zeros((2, 1))}, _NORM_SHAPES.format("(2, 1), (2,), (2,)")),
           ("keep-half", {"keep": np.array([1.0, 0.5])},
            "norm.keep holds [1.0, 0.5], not only 0 and 1"),
           ("std-zero", {"std": np.array([1.0, 0.0])},
            "norm.std holds [1.0, 0.0], a kept channel's <= 1e-12"),
           ("keeps-one", {"keep": np.array([0.0, 1.0])},
            "norm.keep keeps 1 channels, the model takes 2"),
           ("missing", {"mean": None}, "checkpoint lacks normalization stats ('norm.mean')"),
       ]},
    **{f"score-data-{case}": ("score", {"--model": ("m.lntc", _model_with()),
                                         "--data": ("d.csv", _series(frames, channels))},
                              f"{{in}}/d.csv has {error}")
       for case, frames, channels, error in [
           ("3-channels", 100, 3, "3 channels; the model {in}/m.lntc needs 2"),
           ("under-receptive-field", 5, 2,
            "5 frames; the model {in}/m.lntc needs at least 12 (two latent steps)"),
           ("one-latent-step", 11, 2,
            "11 frames; the model {in}/m.lntc needs at least 12 (two latent steps)"),
       ]},
    "viz-decode-data-short": ("viz-decode", {"--model": ("m.lntc", _model_with()),
                                             "--data": ("d.csv", _series(47))},
                              "{in}/d.csv has 47 frames; the model {in}/m.lntc needs at least 48 "
                              "(one sub_seq window)"),
    "viz-decode-data-3-channels": ("viz-decode", {"--model": ("m.lntc", _model_with()),
                                                  "--data": ("d.csv", _series(100, 3))},
                                   "{in}/d.csv has 3 channels; the model {in}/m.lntc needs 2"),
    "window-negative": ("viz-decode", {"--model": "no_such.lntc", "--data": "no_such.csv",
                                       "--window": "-1"}, "--window must be >= 0, got -1"),
    "window-past-end": ("viz-decode", {"--model": ("m.lntc", _model_with()),
                                       "--data": ("d.csv", _series(100)), "--window": "2"},
                        "--window must be in 0..1 for {in}/d.csv, got 2"),
    "viz-decode-norm-std-zero": (
        "viz-decode", {"--model": ("m.lntc", _model_with(std=np.zeros(2)))},
        "{in}/m.lntc: norm.std holds [0.0, 0.0], a kept channel's <= 1e-12"),
    "eval-single-class": ("eval", {"--scores": ("flat.csv", "index,score,label\n" + "".join(
                              f"{i},{i * 0.1:.9g},0\n" for i in range(10)))},
                          "{in}/flat.csv: all 10 points are labeled normal; "
                          "metrics need both classes"),
    **{f"eval-bad-{case}": ("eval", {"--scores": ("s.csv", f"index,score,label\n0,1.0,1\n{row}\n"
                                                           "2,0.5,0\n")},
                            f"{{in}}/s.csv: row 3 has {error}")
       for case, row, error in [("score-nan", "1,nan,0", "non-finite value 'nan' in column "
                                 "'score'"), ("label", "1,2.5,7", "bad label '7'")]},
    "eval-no-label": ("eval", {"--scores": ("plain.csv", "index,score\n0,1.0\n1,2.0\n")},
                      "{in}/plain.csv has no label column; cannot evaluate"),
    "decoder-epochs-negative": ("viz-decode", {"--decoder-epochs": "-3",
                                               "--save-model": "{out}/saved.lntc"},
                                "--decoder-epochs must be >= 0, got -3"),
    **{f"decoder-lr-{lr}": ("viz-decode", {"--model": "no_such.lntc", "--data": "no_such.csv",
                                           "--decoder-lr": lr},
                            f"--decoder-lr must be finite and positive, got {float(lr)}")
       for lr in ("nan", "0", "inf")},
    # an output flag that names an input's file or another output's
    "score-out-is-data": ("score", {"--data": ("d.csv", _copy("data/test.csv")),
                                    "--out": "{in}/d.csv"},
                          "--out and --data both name '{in}/d.csv'"),
    "score-out-is-model": ("score", {"--model": ("m.lntc", _model_with()), "--out": "{in}/m.lntc"},
                           "--out and --model both name '{in}/m.lntc'"),
    "eval-out-is-scores": ("eval", {"--scores": ("s.csv", _copy("scores.csv")),
                                    "--out": "{in}/s.csv"},
                           "--out and --scores both name '{in}/s.csv'"),
    "train-report-is-data": ("train", {"--data": ("d.csv", _copy("data/train.csv")),
                                       "--report": "{in}/d.csv"},
                             "--report and --data both name '{in}/d.csv'"),
    "train-out-is-config": ("train", {"--config": ("c.cfg", TINY_CONFIG), "--out": "{in}/c.cfg"},
                            "--out and --config both name '{in}/c.cfg'"),
    "train-report-is-out": ("train", {"--report": "{out}/o"},
                            "--report and --out both name '{out}/o'"),
    "train-default-report-is-data": ("train", {"--data": ("o.report.csv", _copy("data/train.csv")),
                                               "--out": "{in}/o"},
                                     "--out and --data both name '{in}/o.report.csv'"),
    "score-manifest-is-data": ("score", {"--data": ("o.manifest.json", _copy("data/test.csv")),
                                         "--out": "{in}/o"},
                               "--out and --data both name '{in}/o.manifest.json'"),
    "synth-out-dir-is-a-file": ("synth", {**_SMALL_SYNTH, "--out-dir": ("f", "")},
                                "--out-dir: '{in}/f' is not a directory"),
    "viz-decode-out-is-data": ("viz-decode", {"--data": ("d.csv", _copy("data/test.csv")),
                                              "--out": "{out}/../in/d.csv"},
                               "--out and --data both name '{out}/../in/d.csv'"),
    "viz-decode-save-model-is-model": ("viz-decode", {"--model": ("m.lntc", _model_with()),
                                                      "--save-model": "{in}/m.lntc"},
                                       "--save-model and --model both name '{in}/m.lntc'"),
}


@pytest.mark.parametrize("command, change, message", list(_REJECTED_CALLS.values()),
                         ids=list(_REJECTED_CALLS))
def test_rejected_call_exits_1_with_one_error_line(workspace, tmp_path, capsys, monkeypatch,
                                                   command, change, message):
    """Every rejected call exits 1 with one `error:` line naming its bad
    input, and writes nothing.  A usage error used to print the usage text
    and exit 2; a synth test split too short for its anomalous fraction,
    `--decoder-lr nan` and a config file's bad value to fail naming no flag
    or file; `--seed -1` with numpy's bare `expected non-negative integer`;
    `--window-stride 0` at windowing; `--lr nan` to exit 0 with a NaN
    checkpoint; a checkpoint's bad norm.* stats with an IndexError
    traceback, numpy's divide warning, or not at all; a CSV whose every
    channel is constant as `in_channels must be >= 1, got 0`; data too
    short or with other channels than the model's as a window or stats
    error naming neither file; `eval` on single-class labels naming no
    file; `--window -1` only after both files were read; and an output
    flag that named an input's file or another output's to write over it
    and exit 0 (the default report and a manifest, whose paths derive from
    --out, too); a builtin --config name to read a file of that name in the
    working directory; and a --config directory or a --out-dir file to
    fail naming no flag.  The input files keep their bytes."""
    where = {"in": tmp_path / "in", "out": tmp_path / "out"}
    for folder in where.values():
        folder.mkdir()
    monkeypatch.chdir(where["in"])
    data, model = workspace["data"], str(workspace["model"])
    valid = {
        "synth": {"--out-dir": "{out}/o"},
        "train": {"--data": str(data / "train.csv"), "--out": "{out}/o",
                  "--config": str(workspace["cfg"]), "--epochs": "1"},
        "score": {"--model": model, "--data": str(data / "test.csv"), "--out": "{out}/o"},
        "eval": {"--scores": str(workspace["scores"]), "--out": "{out}/o"},
        "viz-decode": {"--model": model, "--data": str(data / "test.csv"), "--out": "{out}/o",
                       "--decoder-epochs": "1"},
    }.get(command, {})
    argv = [command]
    for flag, value in {**valid, **change}.items():
        is_flag = flag.startswith("--")
        if isinstance(value, tuple) or not is_flag:
            name, content = value if is_flag else (flag, value)
            value = str(where["in"] / name)
            if callable(content):
                content(workspace, value)
            else:
                Path(value).write_text(content)
        if is_flag and value is not None:
            argv += [flag] if value is True else [flag, value.format_map(where)]

    def contents():
        return {path: path.is_file() and path.read_bytes() for path in where["in"].iterdir()}

    inputs = contents()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message.format_map(where)}\n"
    assert list(where["out"].iterdir()) == []
    assert contents() == inputs


def test_subcommand_help_exits_0(capsys):
    """Usage errors raise, but --help still prints and exits 0."""
    with pytest.raises(SystemExit) as exited:
        main(["score", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lnt score")


def test_score_overflow_reports_only_lnt_error(workspace, tmp_path, capsys):
    """Finite weights whose first conv product overflows: numpy used to warn
    `overflow encountered in matmul` ahead of lnt's error."""
    params, extra = load_model(workspace["model"])
    params.encoder[0][0].data[...] = 3e38
    model = tmp_path / "overflow.lntc"
    save_model(model, params, extra=extra)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["score", "--model", str(model), "--data",
                     str(workspace["data"] / "test.csv"), "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite values in ") and err.count("\n") == 1, err


def test_precision_flag_switches_mode(workspace, tmp_path):
    out = tmp_path / "p64.csv"
    assert main([
        "score", "--model", str(workspace["model"]),
        "--data", str(workspace["data"] / "test.csv"),
        "--out", str(out), "--precision", "64",
    ]) == 0
    scores64, _ = load_scores_csv(out)
    scores32, _ = load_scores_csv(workspace["scores"])
    assert scores64.size == scores32.size
    assert not np.array_equal(scores64, scores32)  # precision actually changed
