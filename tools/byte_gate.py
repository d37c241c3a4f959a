"""Byte-identity gate: hash every CLI artifact and stdout of a fixed run matrix.

Runs `python -m codat.cli` (the `codat` found on PYTHONPATH) in a fresh
scratch directory with single-threaded BLAS, on small toy3 runs:

- `train` for every method, codat at eta 0, 0.3 and 1.5, and codat with
  `--select-best`;
- one epoch of codat at eta 1.5 on 2-row batches, so the codat step's
  single-class batches and its radius clamp on two-class batches are hashed
  (every batch of the runs above holds all three classes);
- `train` on CSV splits (toy3 data written by `codat.data.save_csv`) and on
  a small IDX image/label pair packed with `struct`;
- `train` with one 7-unit hidden layer (`--hidden-dims 7`) and with no
  hidden layer (`--hidden-dims ""`), so walks at depths other than the
  toy3 2-256-256-3 model are hashed;
- `train` with `--test-per-class 200`, so the final PGD evaluation runs a
  512-row batch, at hidden widths 64 and 128 (`--hidden-dims 64,128`),
  whose hidden layers are split across two threads by rows, and at one
  12-unit hidden layer (`--hidden-dims 12`), whose width keeps the pass on
  one thread;
- `train` on one 300-row batch per epoch at hidden widths 64 and 128, so
  the training update's weighted pass reaches the row-split threshold;
- `evaluate` with `--attack pgd` and `--attack none`, and `attack`, on one
  checkpoint, and `evaluate --test-csv` on the CSV run's checkpoint;
- `evaluate --attack pgd` and `attack` on a 1200-row test split, so the
  per-batch attack seeds `(seed, idx)` of three 512-row batches, and the
  stacking of those batches into `adversarial.csv`, are hashed;
- `attack` with radius 0.45, whose adversarial rows sit on the [0, 1]
  faces where the ball and the feature box meet;
- `attack` on a CSV test split that lacks class 2, which `attack` takes
  and `evaluate` rejects;
- `sweep --etas 0,0.3,1.5`;
- `fec --csv` on that sweep's `sweep.csv`, and `fec --reports` on the
  natural and the PGD report of the `evaluate` runs;
- three `oracle` runs: a default, a tiny radius, and `oracle_readme`, the
  README's own command (`--trials 200 --classes 10 --eta 2.0 --seed 7`),
  whose radii reach past the closed form's failure point, so that its
  failing trials are solved and checked against `exact_worst_case`;
- `--print-config` for train, evaluate, attack and sweep.

Fields outside the determinism contract are blanked before hashing:
history `wall_time`, the `seconds` column of `sweep.csv` and the elapsed
figure in sweep stdout.  Output is one `sha256  item` line per artifact
and per stdout, so two trees compare with a plain diff:

    PYTHONPATH=src python tools/byte_gate.py > new.txt
    PYTHONPATH=<other tree>/src python tools/byte_gate.py > old.txt
    diff old.txt new.txt

`tools/byte_gate.sha256` holds the expected lines, and
`tests/test_byte_gate.py` compares a fresh run with it.  A change that
alters an artifact's bytes on purpose updates that file and says why.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from codat.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    Dataset,
    gen_gaussian_mixture,
    save_csv,
    toy3_spec,
)

SIZE = ["--preset", "toy3", "--epochs", "2", "--train-per-class", "60", "--test-per-class", "40"]
CHECKPOINT = "runs/codat_toy3_eta0.3_seed0/checkpoint.json"
CSV_DATA = ["--train-csv", "data/train.csv", "--test-csv", "data/test.csv"]
IDX_DATA = [
    "--train-images", "data/train_images.idx", "--train-labels", "data/train_labels.idx",
    "--test-images", "data/test_images.idx", "--test-labels", "data/test_labels.idx",
]

# (item name, argv); every path is relative to the scratch directory so the
# resolved configuration, and with it every artifact, is path independent
MATRIX = [
    ("train_codat_eta0.3", ["train", *SIZE, "--method", "codat", "--eta", "0.3"]),
    ("train_codat_eta1.5", ["train", *SIZE, "--method", "codat", "--eta", "1.5"]),
    ("train_codat_eta0", ["train", *SIZE, "--method", "codat", "--eta", "0"]),
    (
        "train_codat_eta1.5_batch2",
        [
            "train", "--preset", "toy3", "--epochs", "1", "--train-per-class", "60",
            "--test-per-class", "40", "--batch-size", "2", "--method", "codat", "--eta", "1.5",
            "--out-root", "batch2_runs",
        ],
    ),
    ("train_standard_at", ["train", *SIZE, "--method", "standard_at"]),
    (
        "train_weighted",
        ["train", *SIZE, "--method", "weighted", "--fixed-weights", "0.2,0.5,0.3"],
    ),
    ("train_worst_class", ["train", *SIZE, "--method", "worst_class"]),
    (
        "train_select_best",
        ["train", *SIZE, "--method", "codat", "--eta", "0.5", "--select-best"],
    ),
    ("train_csv", ["train", *SIZE, *CSV_DATA, "--out-root", "csv_runs"]),
    ("train_idx", ["train", *SIZE, *IDX_DATA, "--out-root", "idx_runs"]),
    ("train_hidden7", ["train", *SIZE, "--hidden-dims", "7", "--out-root", "hidden7_runs"]),
    ("train_linear", ["train", *SIZE, "--hidden-dims", "", "--out-root", "linear_runs"]),
    (
        "train_test600_hidden64_128",
        [
            "train", *SIZE, "--test-per-class", "200", "--hidden-dims", "64,128",
            "--out-root", "hidden64_128_runs",
        ],
    ),
    (
        "train_batch300_hidden64_128",
        [
            "train", *SIZE, "--train-per-class", "100", "--batch-size", "300",
            "--hidden-dims", "64,128", "--out-root", "batch300_hidden64_128_runs",
        ],
    ),
    (
        "train_test600_hidden12",
        [
            "train", *SIZE, "--test-per-class", "200", "--hidden-dims", "12",
            "--out-root", "hidden12_runs",
        ],
    ),
    (
        "evaluate_csv",
        [
            "evaluate", *SIZE, "--test-csv", "data/test.csv", "--out", "eval_csv",
            "--checkpoint", "csv_runs/codat_toy3_eta0.3_seed0/checkpoint.json",
        ],
    ),
    ("evaluate_pgd", ["evaluate", *SIZE, "--checkpoint", CHECKPOINT, "--out", "eval_pgd"]),
    (
        "evaluate_pgd_1200_rows",
        [
            "evaluate", *SIZE, "--test-per-class", "400", "--checkpoint", CHECKPOINT,
            "--out", "eval_pgd_1200_rows",
        ],
    ),
    (
        "evaluate_none",
        ["evaluate", *SIZE, "--checkpoint", CHECKPOINT, "--attack", "none", "--out", "eval_none"],
    ),
    ("attack", ["attack", *SIZE, "--checkpoint", CHECKPOINT, "--out", "attack"]),
    (
        "attack_1200_rows",
        [
            "attack", *SIZE, "--test-per-class", "400", "--checkpoint", CHECKPOINT,
            "--out", "attack_1200_rows",
        ],
    ),
    (
        "attack_wide_ball",
        [
            "attack", *SIZE, "--checkpoint", CHECKPOINT, "--epsilon", "0.45",
            "--eval-attack-step-size", "0.1", "--out", "attack_wide_ball",
        ],
    ),
    (
        "attack_csv_no_class2",
        [
            "attack", *SIZE, "--test-csv", "data/test_no_class2.csv", "--checkpoint", CHECKPOINT,
            "--out", "attack_csv_no_class2",
        ],
    ),
    ("sweep", ["sweep", *SIZE, "--etas", "0,0.3,1.5", "--out-root", "sweep"]),
    (
        "fec_csv",
        ["fec", "--csv", "sweep/sweep_toy3_seed0/sweep.csv", "--baseline", "eta0", "--out", "fec_csv"],
    ),
    (
        "fec_reports",
        [
            "fec", "--reports", "eval_none/eval_natural.json", "eval_pgd/eval_adversarial.json",
            "--baseline", "eval_natural", "--out", "fec_reports",
        ],
    ),
    ("oracle_default", ["oracle", "--trials", "50", "--seed", "3", "--out", "oracle/default.json"]),
    (
        "oracle_small_eta",
        ["oracle", "--trials", "20", "--eta", "0.0001", "--seed", "5", "--out", "oracle/small.json"],
    ),
    (
        "oracle_readme",
        [
            "oracle", "--trials", "200", "--classes", "10", "--eta", "2.0", "--seed", "7",
            "--out", "oracle/readme.json",
        ],
    ),
    ("print_config_train", ["train", *SIZE, "--method", "weighted", "--print-config"]),
    ("print_config_evaluate", ["evaluate", "--checkpoint", CHECKPOINT, "--print-config"]),
    ("print_config_attack", ["attack", "--preset", "toy3", "--checkpoint", "x", "--print-config"]),
    ("print_config_sweep", ["sweep", *SIZE, "--etas", "0", "--no-random-start", "--print-config"]),
]


def _blank_volatile(name: str, data: bytes) -> bytes:
    if name.endswith("history.jsonl"):
        return re.sub(rb'"wall_time": [^,}]+', b'"wall_time": 0', data)
    if name.endswith("sweep.csv"):
        return re.sub(rb",[^,\r\n]*(\r?\n)", rb"\1", data)
    if name == "sweep/stdout":
        return re.sub(rb"\([0-9.]+s elapsed\)", b"(elapsed)", data)
    return data


def write_data(data_dir: Path) -> None:
    """toy3 CSV splits (and the test one without class 2), a 2x2-pixel IDX pair (90 train, 45 test)."""
    data_dir.mkdir()
    save_csv(gen_gaussian_mixture(toy3_spec(60, seed=0), split="train"), data_dir / "train.csv")
    test = gen_gaussian_mixture(toy3_spec(40, seed=10000), split="test")
    save_csv(test, data_dir / "test.csv")
    keep = test.labels != 2
    save_csv(Dataset(test.features[keep], test.labels[keep], "test"), data_dir / "test_no_class2.csv")
    rng = np.random.default_rng(7)
    means = np.array([[40, 200, 40, 200], [200, 40, 200, 40], [120, 120, 120, 120]])
    for split, count in (("train", 90), ("test", 45)):
        labels = np.arange(count) % 3
        pixels = np.clip(means[labels] + rng.normal(0.0, 30.0, size=(count, 4)), 0, 255)
        (data_dir / f"{split}_images.idx").write_bytes(
            struct.pack(">IIII", IDX_IMAGES_MAGIC, count, 2, 2) + pixels.astype(np.uint8).tobytes()
        )
        (data_dir / f"{split}_labels.idx").write_bytes(
            struct.pack(">II", IDX_LABELS_MAGIC, count) + labels.astype(np.uint8).tobytes()
        )


def run_matrix(workdir: Path) -> list[tuple[str, bytes]]:
    write_data(workdir / "data")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env.pop("CODAT_OUT_ROOT", None)
    # the commands run inside the scratch directory, so anchor PYTHONPATH here
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths if p)
    items = []
    for name, argv in MATRIX:
        proc = subprocess.run(
            [sys.executable, "-m", "codat.cli", *argv],
            cwd=workdir,
            env=env,
            capture_output=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            raise SystemExit(f"{name}: exit status {proc.returncode}")
        items.append((f"{name}/stdout", proc.stdout))
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        items.append((path.relative_to(workdir).as_posix(), path.read_bytes()))
    return items


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="codat_gate_") as tmp:
        items = run_matrix(Path(tmp))
    for name, data in items:
        digest = hashlib.sha256(_blank_volatile(name, data)).hexdigest()
        print(f"{digest}  {name}")
    print(f"{len(items)} items", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
