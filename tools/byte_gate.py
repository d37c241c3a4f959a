"""Byte-identity gate: hash every CLI artifact and stdout of a fixed run matrix.

Runs `python -m codat.cli` (the `codat` found on PYTHONPATH) in a fresh
scratch directory with single-threaded BLAS, on small toy3 runs:

- `train` for every method, codat at eta 0, 0.3 and 1.5, and codat with
  `--select-best`;
- `evaluate` with `--attack pgd` and `--attack none`, and `attack`, on one
  checkpoint;
- `sweep --etas 0,0.3,1.5`;
- two `oracle` runs;
- `--print-config` for train, evaluate, attack and sweep.

Fields outside the determinism contract are blanked before hashing:
history `wall_time`, the `seconds` column of `sweep.csv` and the elapsed
figure in sweep stdout.  Output is one `sha256  item` line per artifact
and per stdout, so two trees compare with a plain diff:

    PYTHONPATH=src python tools/byte_gate.py > new.txt
    PYTHONPATH=<other tree>/src python tools/byte_gate.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SIZE = ["--preset", "toy3", "--epochs", "2", "--train-per-class", "60", "--test-per-class", "40"]
CHECKPOINT = "runs/codat_toy3_eta0.3_seed0/checkpoint.json"

# (item name, argv); every path is relative to the scratch directory so the
# resolved configuration, and with it every artifact, is path independent
MATRIX = [
    ("train_codat_eta0.3", ["train", *SIZE, "--method", "codat", "--eta", "0.3"]),
    ("train_codat_eta1.5", ["train", *SIZE, "--method", "codat", "--eta", "1.5"]),
    ("train_codat_eta0", ["train", *SIZE, "--method", "codat", "--eta", "0"]),
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
    ("evaluate_pgd", ["evaluate", *SIZE, "--checkpoint", CHECKPOINT, "--out", "eval_pgd"]),
    (
        "evaluate_none",
        ["evaluate", *SIZE, "--checkpoint", CHECKPOINT, "--attack", "none", "--out", "eval_none"],
    ),
    ("attack", ["attack", *SIZE, "--checkpoint", CHECKPOINT, "--out", "attack"]),
    ("sweep", ["sweep", *SIZE, "--etas", "0,0.3,1.5", "--out-root", "sweep"]),
    ("oracle_default", ["oracle", "--trials", "50", "--seed", "3", "--out", "oracle/default.json"]),
    (
        "oracle_small_eta",
        ["oracle", "--trials", "20", "--eta", "0.0001", "--seed", "5", "--out", "oracle/small.json"],
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


def run_matrix(workdir: Path) -> list[tuple[str, bytes]]:
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
