"""Benchmark of the lnt command line: one workload per call.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-small --seed 0 --seconds 5 --trace 0

The workload runs in a child process (``worker.py``) with the BLAS pools
pinned through ``LNT_THREADS``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the workload runs twice, untraced and traced, the two runs
must write byte-identical checkpoints and score CSVs, and the metrics are
the per-layer figures of the traced run plus the tracing overhead.  The
traced run runs each loop once.  The line before the result records the
environment.  Metric names and units come from ``BENCHMARK.json``.  Each
call also leaves its record in ``.perfbench_work/results/``.  The exit
code is 0 only when every command and every output check succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

import workloads  # noqa: E402  (found beside this file)

# one BLAS thread: on a 2-CPU machine the small model trained 15 % slower
# with two, whose synchronisation costs more than the split saves
THREADS = 1
TIME_LIMIT_S = 170


def metric_units(kind: str) -> dict[str, str]:
    """{name: unit} of the "end_to_end" or "per_layer" metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_worker(args, trace: bool, deadline: float) -> tuple[int, dict | None]:
    tag = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    workdir = os.path.join(WORK, "runs", f"{tag}-{os.getpid()}")
    result = os.path.join(WORK, "results", f"{tag}.worker.json")
    os.makedirs(os.path.dirname(result), exist_ok=True)
    env = dict(os.environ, LNT_THREADS=str(min(THREADS, len(os.sched_getaffinity(0)))))
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(0 if trace else args.seconds), "--trace", str(int(trace)),
        "--workdir", workdir, "--result", result,
    ]
    if trace:
        cmd += ["--spans", os.path.join(WORK, "results", f"{tag}.spans.json")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=max(deadline - time.monotonic(), 1))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print(f"error: {tag} did not finish within {TIME_LIMIT_S} s", file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not os.path.exists(result):
        return code or 1, None
    with open(result) as fh:
        record = json.load(fh)
    os.remove(result)
    return code, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lnt benchmark, one workload per call")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs that exercise every command (smoke tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lnt", "cli.py")):
        print(f"error: no lnt sources at {os.path.join(ROOT, 'src', 'lnt')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    code, plain = run_worker(args, trace=False, deadline=deadline)
    if plain is None:
        print(f"error: {args.workload} run failed (exit {code})", file=sys.stderr)
        return 1
    runs = [plain]
    failures = list(plain["failures"])
    if args.trace:
        code_t, traced = run_worker(args, trace=True, deadline=deadline)
        if traced is None:
            print(f"error: traced {args.workload} run failed (exit {code_t})", file=sys.stderr)
            return 1
        runs.append(traced)
        failures += traced["failures"]
        code = code or code_t
        for key in ("checkpoint_sha256", "scores_sha256"):
            if traced.get(key) != plain.get(key):
                failures.append(f"tracing changed {key}")
        if "timed_s" in traced and "timed_s" in plain:
            traced["layers"]["trace.overhead_pct"] = 100.0 * (
                traced["timed_s"] / plain["timed_s"] - 1.0)
        figures = traced.get("layers", {})
    else:
        figures = plain.get("e2e", {})
    units = metric_units("per_layer" if args.trace else "end_to_end")

    correct = not failures and code == 0 and set(units) <= set(figures)
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs) + (1 if args.trace else 0),
        "failed": len(failures),
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in units.items() if name in figures},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": plain["env"],
        "detect_auc": plain.get("detect_auc"),
        "seconds": plain.get("seconds"),
        "wall": plain.get("wall"),
        "timed_s": [r.get("timed_s") for r in runs],
        "failures": failures,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as fh:
        json.dump({"info": info, "result": line}, fh, indent=2, sort_keys=True)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
