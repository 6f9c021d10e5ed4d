import csv
import ctypes
import hashlib
import io
import json
import os
import platform
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
from lnt.checkpoint import load_model, save_model
from lnt.cli import main, parse_config_file, resolve_config
from lnt.data import load_csv
from lnt.scoring import load_scores_csv

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
        "--out", str(scores), "--seed", "3",
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
    assert main([
        "synth", "--out-dir", str(tmp_path), "--channels", "1",
        "--train-length", "600", "--test-length", "600",
        "--anomaly-fraction", "0",
    ]) == 0
    test = load_csv(tmp_path / "test.csv")
    assert test.labels is not None and not test.labels.any()


def test_synth_rejects_zero_channels(tmp_path, capsys):
    assert main(["synth", "--out-dir", str(tmp_path), "--channels", "0"]) == 1
    assert "error: channels must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "train.csv").exists()
    # a rejected call leaves no output directory behind
    fresh = tmp_path / "not_yet"
    assert main(["synth", "--out-dir", str(fresh), "--channels", "0"]) == 1
    assert "error: channels must be >= 1, got 0" in capsys.readouterr().err
    assert not fresh.exists()


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


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--clip-norm", "nan"), ("--cpc-weight", "-1"),
])
def test_train_rejects_bad_float_flag_and_writes_nothing(workspace, tmp_path, capsys,
                                                          flag, value):
    """`--lr nan --epochs 1` used to exit 0 with a checkpoint of NaNs;
    `--clip-norm nan` silently turned clipping off."""
    out = tmp_path / "m.lntc"
    assert main([
        "train", "--data", str(workspace["data"] / "train.csv"),
        "--out", str(out), "--config", str(workspace["cfg"]), "--epochs", "1", flag, value,
    ]) == 1
    assert f"error: {flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--cpc-weight", "-1", "cpc_weight"), ("--lam", "nan", "lam"), ("--negatives", "1", "negatives"),
])
def test_train_rejects_bad_loss_flag_before_reading_data(tmp_path, capsys, flag, value, field):
    """The loss flags are checked with the other training flags, before
    any CSV is opened: the error names the flag, not the missing file."""
    missing = tmp_path / "no_such.csv"
    out = tmp_path / "m.lntc"
    assert main(["train", "--data", str(missing), "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert f"error: {field} must be" in err
    assert "no_such.csv" not in err
    assert not out.exists()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("dim_z = 16  # latent\n\nlr = 5e-4\nbase = small\n")
    entries = parse_config_file(path)
    assert entries == {"dim_z": "16", "lr": "5e-4", "base": "small"}
    config, train_over = resolve_config(str(path))
    assert config.dim_z == 16
    assert train_over == {"lr": 5e-4}


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("not_a_field = 3\n")
    with pytest.raises(ValueError, match="not_a_field"):
        resolve_config(str(path))


def test_config_builtin_names():
    config, over = resolve_config("audio")
    assert config.dim_z == 512 and over == {}
    assert resolve_config(None)[0] == resolve_config("small")[0]


def test_bad_builtin_name_exits_nonzero(tmp_path, capsys):
    code = main([
        "train", "--data", "missing.csv", "--out", str(tmp_path / "m"),
        "--config", "enormous",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
        "--out", str(out), "--seed", "3",
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


def test_score_rejects_unnormalized_cpc_approx(workspace, tmp_path, capsys):
    """cpc-approx has no unnormalized form: the flag used to be ignored
    while the manifest recorded it."""
    assert main([
        "score", "--model", str(workspace["model"]),
        "--data", str(workspace["data"] / "test.csv"),
        "--out", str(tmp_path / "cpc.csv"), "--method", "cpc-approx", "--unnormalized",
    ]) == 1
    err = capsys.readouterr().err
    assert err == "error: --unnormalized applies to --method ddcl, not cpc-approx\n"
    assert list(tmp_path.iterdir()) == []


def test_eval_writes_csv_and_text(workspace, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    assert main(["eval", "--scores", str(workspace["scores"]), "--out", str(out)]) == 0
    body = out.read_text().strip().split("\n")
    assert body[0].startswith("auc,best_f1")
    auc = float(body[1].split(",")[0])
    assert 0.0 <= auc <= 1.0
    captured = capsys.readouterr()
    assert "auc" in captured.out and "best_f1" in captured.out


def test_eval_single_class_diagnostic(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text(
        "index,score,label\n" +
        "".join(f"{i},{i * 0.1:.9g},0\n" for i in range(10))
    )
    code = main(["eval", "--scores", str(path), "--out", str(tmp_path / "e.csv")])
    assert code == 1
    assert "both classes" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("row, cell", [("1,nan,0", "'nan'"), ("1,2.5,7", "'7'")])
def test_eval_rejects_bad_score_row_naming_file_row_cell(tmp_path, capsys, row, cell):
    path = tmp_path / "scores.csv"
    path.write_text(f"index,score,label\n0,1.0,1\n{row}\n2,0.5,0\n")
    assert main(["eval", "--scores", str(path), "--out", str(tmp_path / "e.csv")]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: row 3 has " in err and cell in err
    assert not (tmp_path / "e.csv").exists()


def test_eval_requires_labels(tmp_path, capsys):
    path = tmp_path / "plain.csv"
    path.write_text("index,score\n0,1.0\n1,2.0\n")
    assert main(["eval", "--scores", str(path), "--out", str(tmp_path / "e.csv")]) == 1
    assert "label" in capsys.readouterr().err


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

    std = standardize(load_csv(workspace["data"] / "test.csv"), _norm_from_extra(extra))
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
    out, saved = tmp_path / "recon.csv", tmp_path / "with_decoder.lntc"
    assert main([
        "viz-decode", "--model", str(workspace["model"]),
        "--data", str(workspace["data"] / "test.csv"),
        "--out", str(out), "--decoder-epochs", "-3", "--save-model", str(saved),
    ]) == 1
    assert "error: epochs must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists() and not saved.exists()

    # a checkpoint that already has a decoder trains none, and must still
    # reject the flag
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
    assert "error: epochs must be >= 0, got -3" in capsys.readouterr().err
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


def test_missing_input_file_is_reported(tmp_path, capsys):
    code = main([
        "score", "--model", str(tmp_path / "none.lntc"),
        "--data", str(tmp_path / "none.csv"), "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
