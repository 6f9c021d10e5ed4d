"""The tools against this checkout's src.  tools/step_probe.py reaches
into ``tensor._make``, ``tensor._check_finite`` and
``training.train_step``, so a rename there fails here; each run is a
subprocess, so the tool's ``LNT_THREADS=1`` stays out of this process.
tools/recipe_bytes.py's file helpers run on hand-written CSVs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lnt.model import small_config
from lnt.scoring import CHUNK_STEPS

ROOT = Path(__file__).resolve().parents[1]


def _probe(*args: str) -> dict:
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "step_probe.py"), *args],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_step_probe_reports_one_package():
    report = _probe("--steps", "1")
    assert set(report) == {
        "steps", "step_ms_median", "minor_faults_per_step", "outside_ops_ms_median",
        "records_per_step", "finite_checks_per_step", "live_after_forward_mb",
        "peak_forward_backward_mb", "peak_record", "peak_records", "ops"}
    assert report["records_per_step"] == 61
    assert report["finite_checks_per_step"] == 10
    assert sum(op["records"] for op in report["ops"].values()) == 61
    assert report["peak_forward_backward_mb"] <= 12.5
    op, _, span = report["peak_record"].rpartition(" ")
    assert op in report["ops"] and span in ("forward", "VJP")
    highest = list(report["peak_records"].items())
    assert len(highest) == 3 and highest[0] == (report["peak_record"],
                                                 report["peak_forward_backward_mb"])
    assert [mb for _, mb in highest] == sorted((mb for _, mb in highest), reverse=True)
    assert all(set(op) == {"records", "forward_ms", "vjp_ms"} for op in report["ops"].values())
    assert 0 < report["live_after_forward_mb"] < report["peak_forward_backward_mb"]


def test_step_probe_pairs_a_package_with_itself():
    report = _probe("--against", str(ROOT / "src"), "--steps", "2")
    assert set(report) == {"pairs", "old_step_ms_median", "new_step_ms_median", "ratio_median",
                           "ratio_q1", "ratio_q3", "aa_ratio_median", "same_loss_values",
                           "same_grad_norm", "old_records_per_step", "old_peak_forward_backward_mb",
                           "old_peak_record", "old_peak_records", "new_records_per_step",
                           "new_peak_forward_backward_mb", "new_peak_record",
                           "new_peak_records"}
    assert report["pairs"] == 2
    assert report["same_loss_values"] is True and report["same_grad_norm"] is True
    assert report["old_records_per_step"] == report["new_records_per_step"] == 61
    assert report["old_peak_forward_backward_mb"] == pytest.approx(
        report["new_peak_forward_backward_mb"], rel=1e-3)
    assert report["old_peak_record"] == report["new_peak_record"]
    assert list(report["old_peak_records"]) == list(report["new_peak_records"])
    assert report["aa_ratio_median"] > 0


@pytest.fixture(scope="module")
def recipe_bytes():
    spec = importlib.util.spec_from_file_location("recipe_bytes",
                                                  ROOT / "tools" / "recipe_bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recipe_report_without_seconds(recipe_bytes, tmp_path):
    report = tmp_path / "r.csv"
    report.write_text("epoch,cpc,seconds\n0,2.5,0.61\n1,2.25,0.58\n")
    assert recipe_bytes.without_seconds(report) == b"epoch,cpc\n0,2.5\n1,2.25\n"
    report.write_text("epoch,seconds,cpc\n0,0.61,2.5\n")
    with pytest.raises(ValueError, match="last column is 'cpc', not 'seconds'"):
        recipe_bytes.without_seconds(report)


def test_recipe_csv_without_labels(recipe_bytes, tmp_path):
    labeled, plain = tmp_path / "in.csv", tmp_path / "out.csv"
    labeled.write_bytes(b"a,b,label\r\n1.5,-2,0\r\n3,4.25,1\r\n")
    recipe_bytes.without_labels(labeled, plain)
    assert plain.read_bytes() == b"a,b\r\n1.5,-2\r\n3,4.25\r\n"
    with pytest.raises(ValueError, match="last column is not 'label'"):
        recipe_bytes.without_labels(plain, tmp_path / "again.csv")


@pytest.mark.parametrize("frames", [230 * 72 + 50, 201 * 72, 101 * 72 + 71, 300 * 72 + 71])
def test_recipe_tail_prefix_leaves_one_step_in_the_last_chunk(recipe_bytes, tmp_path, frames):
    cfg, source, tail = small_config(), tmp_path / "test.csv", tmp_path / "tail.csv"
    lines = ["a\n"] + [f"{t}\n" for t in range(frames)]
    source.write_text("".join(lines))
    path = list(sys.path)
    recipe_bytes.one_step_tail_prefix(source, tail)
    assert sys.path == path  # the helper imports lnt from src and leaves the path as it was
    kept = tail.read_text().splitlines(keepends=True)
    assert kept == lines[: len(kept)]
    steps = cfg.latent_len(len(kept) - 1)
    assert steps % CHUNK_STEPS == 1
    assert cfg.latent_len(frames) - steps < CHUNK_STEPS  # no later one-step cut exists
    assert cfg.latent_len(len(kept) - 2) == steps - 1  # no frame past the last step
