"""tools/step_probe.py against this checkout's src: it reaches into
``tensor._make``, ``tensor._check_finite`` and ``training.train_step``,
so a rename there fails here.  Each run is a subprocess, so the tool's
``LNT_THREADS=1`` stays out of this process."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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
