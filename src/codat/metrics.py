"""Accuracy evaluation and the fairness elasticity coefficient.

Evaluation produces per-class and aggregate accuracies (natural or under
attack), the population variance of per-class accuracies, and a confusion
matrix.  The fairness elasticity coefficient compares a method against a
baseline: exp of the worst-class improvement rate minus the average
accuracy decline rate.  Values above 1 mean fairness gains outpaced the
average-accuracy cost.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attacks import AttackConfig, pgd_attack
from .data import Dataset, batch_iter
from .nn_engine import LabeledBatch, ModelParams, check_artifact, forward

REPORT_FORMAT = "codat-eval-report"
REPORT_VERSION = 1

_EVAL_BATCH = 512


@dataclass(frozen=True)
class EvalReport:
    """Evaluation summary; accuracies are fractions in [0, 1]."""

    per_class_accuracy: np.ndarray
    average_accuracy: float
    worst_class_accuracy: float
    class_variance: float
    confusion: np.ndarray
    attack: str
    seed: int
    attack_config: dict | None = field(default=None)

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
            "per_class_accuracy": self.per_class_accuracy.tolist(),
            "average_accuracy": self.average_accuracy,
            "worst_class_accuracy": self.worst_class_accuracy,
            "class_variance": self.class_variance,
            "confusion": self.confusion.tolist(),
            "attack": self.attack,
            "seed": self.seed,
            "attack_config": self.attack_config,
        }

    @staticmethod
    def from_dict(payload: dict) -> "EvalReport":
        keys = (
            "per_class_accuracy", "average_accuracy", "worst_class_accuracy",
            "class_variance", "confusion", "attack", "seed",
        )
        check_artifact(payload, "evaluation report", REPORT_FORMAT, REPORT_VERSION, keys)

        def read(key, convert, holds=lambda value: True):
            # a field must convert, and the converted value must hold its check
            try:
                value = convert(payload[key])
                if holds(value):
                    return value
            except (TypeError, ValueError):
                pass
            raise ValueError(
                f"evaluation report field {key} is malformed: {json.dumps(payload[key])}"
            )

        def fraction(value):
            # written so that NaN, which fails every comparison, fails the check
            return bool(np.all((value >= 0.0) & (value <= 1.0)))

        # the confusion matrix fixes the class count K >= 2
        confusion = read(
            "confusion",
            lambda v: np.asarray(v, dtype=np.int64),
            lambda c: c.ndim == 2 and c.shape[0] == c.shape[1] >= 2 and np.min(c) >= 0,
        )
        return EvalReport(
            per_class_accuracy=read(
                "per_class_accuracy",
                lambda v: np.asarray(v, dtype=np.float64),
                lambda a: a.shape == confusion.shape[:1] and fraction(a),
            ),
            average_accuracy=read("average_accuracy", float, fraction),
            worst_class_accuracy=read("worst_class_accuracy", float, fraction),
            class_variance=read("class_variance", float, lambda v: 0.0 <= v < math.inf),
            confusion=confusion,
            attack=str(payload["attack"]),
            seed=read("seed", int),
            attack_config=payload.get("attack_config"),
        )

    @staticmethod
    def load(path) -> "EvalReport":
        with open(path, "r", encoding="utf-8") as fh:
            return EvalReport.from_dict(json.load(fh))


def artifact_json(payload) -> str:
    """The text of a JSON artifact: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def attack_tag(cfg: AttackConfig | None) -> str:
    if cfg is None:
        return "none"
    return (
        f"pgd-{cfg.steps} eps={cfg.epsilon:g} step={cfg.step_size:g} "
        f"random_start={str(cfg.random_start).lower()}"
    )


def class_variance(per_class_accuracy) -> float:
    """Population variance of the per-class accuracies."""
    values = np.asarray(per_class_accuracy, dtype=np.float64)
    if values.size < 2:
        raise ValueError(f"need at least 2 classes, got {values.size}")
    if np.min(values) == np.max(values):
        return 0.0
    return float(np.mean((values - np.mean(values)) ** 2))


def attacked_batches(
    model: ModelParams, data: Dataset, attack: AttackConfig | None, seed: int
) -> Iterator[tuple[LabeledBatch, np.ndarray]]:
    """(batch, features) for each unshuffled 512-row batch of `data`.

    With an attack the features are PGD's output under seed (seed, batch index).
    """
    for idx, batch in enumerate(batch_iter(data, _EVAL_BATCH, seed=0, shuffle=False)):
        if attack is None:
            yield batch, batch.features
        else:
            yield batch, pgd_attack(model, batch, attack, seed=(seed, idx))


def evaluate(
    model: ModelParams, data: Dataset, attack: AttackConfig | None = None, seed: int = 0
) -> EvalReport:
    """Accuracy report on `data`, optionally under the PGD attack.

    Deterministic for a fixed seed; the batches and their attack seeds come
    from `attacked_batches`.  Every class must appear in the data.
    """
    num_classes = data.num_classes
    counts = data.class_counts
    missing = np.nonzero(counts == 0)[0]
    if missing.size:
        raise ValueError(f"class {missing[0] + 1} has no examples in the evaluation data")
    cells = []
    for batch, feats in attacked_batches(model, data, attack, seed):
        predictions = np.argmax(forward(model, LabeledBatch(feats, batch.labels)), axis=1)
        if np.max(predictions) >= num_classes:
            raise ValueError(
                f"model predicts class {np.max(predictions) + 1}; data has {num_classes} classes"
            )
        # row-major cell index of (true class, predicted class), both 0-based
        cells.append((batch.labels - 1) * num_classes + predictions)
    confusion = np.bincount(np.concatenate(cells), minlength=num_classes * num_classes).reshape(
        num_classes, num_classes
    )
    per_class = confusion.diagonal() / counts
    average = float(confusion.trace() / data.size)
    return EvalReport(
        per_class_accuracy=per_class,
        average_accuracy=average,
        worst_class_accuracy=float(np.min(per_class)),
        class_variance=class_variance(per_class),
        confusion=confusion,
        attack=attack_tag(attack),
        seed=seed,
        attack_config=None if attack is None else attack.as_dict(),
    )


@dataclass(frozen=True)
class FecInputs:
    """Worst-class and average accuracies for a method and its baseline.

    All four values must share one scale (all percent or all fractions);
    the coefficient is built from relative rates, so the scale cancels.
    """

    a_wc: float
    a_wc_baseline: float
    a_avg: float
    a_avg_baseline: float

    def __post_init__(self):
        if self.a_wc_baseline <= 0.0 or self.a_avg_baseline <= 0.0:
            raise ValueError(
                f"baseline accuracies must be positive, got worst={self.a_wc_baseline} "
                f"average={self.a_avg_baseline}"
            )
        if self.a_wc < 0.0 or self.a_avg < 0.0:
            raise ValueError("accuracies cannot be negative")


def fec(inputs: FecInputs) -> float:
    """exp(worst-class improvement rate - average-accuracy decline rate)."""
    worst_rate = (inputs.a_wc - inputs.a_wc_baseline) / inputs.a_wc_baseline
    decline_rate = (inputs.a_avg_baseline - inputs.a_avg) / inputs.a_avg_baseline
    return math.exp(worst_rate - decline_rate)


@dataclass(frozen=True)
class FecRow:
    method: str
    avg: float
    wst: float
    fec: float


def fec_rows(named_accuracies: list[tuple[str, float, float]], baseline: str) -> list[FecRow]:
    """Build table rows from (method, average, worst) triples.

    The baseline row gets coefficient 1.0 exactly; row order is preserved.
    """
    by_name = {name: (avg, wst) for name, avg, wst in named_accuracies}
    if baseline not in by_name:
        raise ValueError(f"baseline {baseline!r} missing from methods {sorted(by_name)}")
    base_avg, base_wst = by_name[baseline]
    rows = []
    for name, avg, wst in named_accuracies:
        if name == baseline:
            value = 1.0
        else:
            value = fec(FecInputs(wst, base_wst, avg, base_avg))
        rows.append(FecRow(name, avg, wst, value))
    return rows


def fec_table_to_csv(rows: list[FecRow], path) -> None:
    """Two-decimal CSV with header method,avg,wst,fec (JSON keeps full precision)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "avg", "wst", "fec"])
        for row in rows:
            writer.writerow([row.method, f"{row.avg:.2f}", f"{row.wst:.2f}", f"{row.fec:.2f}"])


def fec_table_to_json(rows: list[FecRow], path) -> None:
    payload = [
        {"method": row.method, "avg": row.avg, "wst": row.wst, "fec": row.fec} for row in rows
    ]
    Path(path).write_text(artifact_json(payload), encoding="utf-8")


def confusion_to_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in report.confusion:
            writer.writerow([int(v) for v in row])
