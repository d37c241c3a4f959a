"""Regenerate the fixed toy3 checkpoint that the `eval_pgd20` workload loads.

The model is trained by the program's own `training.train` on the full toy3
recipe from `cli.PRESETS` (method codat, the preset's eta 0.3, seed 0) and
written with `nn_engine.save_checkpoint`.  The file is checked in so that
every commit the benchmark compares evaluates the same bytes; `bench.py`
pins its SHA-256.  Run from the repository root:

    python3 benchmarks/make_checkpoint.py
"""

from __future__ import annotations

import hashlib
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from codat import cli, data, nn_engine, training  # noqa: E402

CHECKPOINT_SEED = 0
CHECKPOINT_PATH = os.path.join(HERE, "data", "toy3_codat_eta0.3_seed0.json")


def main() -> None:
    resolved = {**cli.DEFAULTS, **cli.PRESETS["toy3"], "method": "codat", "seed": CHECKPOINT_SEED}
    config = cli.build_train_config(resolved)
    train_data = data.gen_gaussian_mixture(
        data.toy3_spec(resolved["train_per_class"], seed=CHECKPOINT_SEED, spread=resolved["spread"]),
        split="train",
    )
    model, history = training.train(config, train_data)
    os.makedirs(os.path.dirname(CHECKPOINT_PATH), exist_ok=True)
    nn_engine.save_checkpoint(
        model, CHECKPOINT_PATH, CHECKPOINT_SEED, training.config_fingerprint(config)
    )
    with open(CHECKPOINT_PATH, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"{CHECKPOINT_PATH}: {config.epochs} epochs, final loss {history.records[-1].loss:.6f}")
    print(f"sha256 {digest}")


if __name__ == "__main__":
    main()
