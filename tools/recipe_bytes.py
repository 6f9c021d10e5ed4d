"""Digests of every output of the CLI recipe, for bit checks between checkouts.

    python3 tools/recipe_bytes.py OUT_DIR

Runs ``lnt`` from the checkout this file lives in (its ``src``), one
process per command: synth 20k/20k frames; train 2 epochs at float32,
1 epoch at ``--precision 64``, with reports, and 1 epoch at
``--batch-size 1``, so a one-window tape step is hashed too; score ddcl,
``--unnormalized``, cpc-approx and ``--precision 64`` on the test split and
on a prefix of it whose last scoring chunk holds one latent step; score
ddcl on a copy of the test split without its label column, so the score
CSV's two-column form is hashed too; eval each test-split score;
viz-decode with ``--save-model``.  Prints one
``sha256  name`` line per output, names relative to OUT_DIR.  Report
``seconds`` (wall time) are stripped before hashing; manifests, which hold
times and paths, are not hashed.

The environment passes through, so ``LNT_THREADS=1`` caps BLAS threads.
Run it from two checkouts into two directories and diff the output.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
TRAIN = ["--seed", "0", "--lr", "1e-3", "--lam", "0.1", "--window-stride", "72"]


def lnt(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-m", "lnt.cli", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def without_seconds(path: str) -> bytes:
    """A report CSV with its trailing ``seconds`` column dropped."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    if rows[0][-1] != "seconds":
        raise ValueError(f"{path}: last column is {rows[0][-1]!r}, not 'seconds'")
    return "".join(",".join(row[:-1]) + "\n" for row in rows).encode()


def one_step_tail_prefix(test_csv: str, out_csv: str) -> None:
    """The longest prefix of ``test_csv`` whose `small`-config latent steps
    leave one step in the last scoring chunk."""
    path = list(sys.path)
    sys.path.insert(0, SRC)
    try:
        from lnt.model import small_config
        from lnt.scoring import CHUNK_STEPS
    finally:
        sys.path[:] = path

    cfg = small_config()
    with open(test_csv) as fh:
        lines = fh.readlines()
    steps = cfg.latent_len(len(lines) - 1)
    steps -= (steps - 1) % CHUNK_STEPS
    frames = (steps - 1) * cfg.downsample + cfg.receptive_field
    with open(out_csv, "w") as fh:
        fh.writelines(lines[: 1 + frames])


def without_labels(in_csv: str, out_csv: str) -> None:
    """``in_csv`` with its trailing ``label`` column dropped."""
    with open(in_csv, newline="") as fh:
        lines = fh.read().split("\r\n")
    if not lines[0].endswith(",label"):
        raise ValueError(f"{in_csv}: last column is not 'label'")
    with open(out_csv, "w", newline="") as fh:
        fh.write("\r\n".join(line.rpartition(",")[0] for line in lines[:-1]) + "\r\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir")
    out = parser.parse_args(argv).out_dir
    os.makedirs(out, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(out, name)

    lnt("synth", "--out-dir", path("data"), "--seed", "0",
        "--train-length", "20000", "--test-length", "20000")
    one_step_tail_prefix(path("data/test.csv"), path("data/tail.csv"))
    without_labels(path("data/test.csv"), path("data/unlabeled.csv"))
    lnt("train", "--data", path("data/train.csv"), "--out", path("model.lntc"),
        "--epochs", "2", *TRAIN)
    lnt("train", "--data", path("data/train.csv"), "--out", path("model64.lntc"),
        "--epochs", "1", "--precision", "64", *TRAIN)
    lnt("train", "--data", path("data/train.csv"), "--out", path("model-b1.lntc"),
        "--epochs", "1", "--batch-size", "1", *TRAIN)

    hashed = ["data/train.csv", "data/test.csv", "model.lntc", "model64.lntc", "model-b1.lntc"]
    variants = {
        "ddcl": ["--model", path("model.lntc")],
        "unnormalized": ["--model", path("model.lntc"), "--unnormalized"],
        "cpc": ["--model", path("model.lntc"), "--method", "cpc-approx"],
        "fp64": ["--model", path("model64.lntc"), "--precision", "64"],
    }
    for split in ("test", "tail"):
        for variant, flags in variants.items():
            name = f"scores-{split}-{variant}.csv"
            lnt("score", "--data", path(f"data/{split}.csv"), "--out", path(name), *flags)
            hashed.append(name)
            if split == "test":
                lnt("eval", "--scores", path(name), "--out", path(f"eval-{variant}.csv"))
                hashed.append(f"eval-{variant}.csv")
    lnt("score", "--data", path("data/unlabeled.csv"), "--out", path("scores-unlabeled-ddcl.csv"),
        "--model", path("model.lntc"))
    hashed.append("scores-unlabeled-ddcl.csv")
    lnt("viz-decode", "--model", path("model.lntc"), "--data", path("data/train.csv"),
        "--out", path("views.csv"), "--save-model", path("decoder.lntc"))
    hashed += ["views.csv", "decoder.lntc"]

    digests = {name: hashlib.sha256(open(path(name), "rb").read()).hexdigest()
               for name in hashed}
    for report in ("model.lntc.report.csv", "model64.lntc.report.csv"):
        digests[report] = hashlib.sha256(without_seconds(path(report))).hexdigest()
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
