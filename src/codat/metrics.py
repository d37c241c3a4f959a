"""Accuracy evaluation and the fairness elasticity coefficient.

Evaluation counts a confusion matrix, natural or under attack, from the
logits of `evaluated_batches`, which `codat attack` shares; the per-class
and average accuracies and the per-class variance derive from it.  The
fairness elasticity coefficient compares a method against a baseline: exp of
the worst-class improvement rate minus the average accuracy decline rate.
Values above 1 mean fairness gains outpaced the average-accuracy cost.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .attacks import AttackConfig, pgd_attack
from .data import Dataset, LabeledBatch
from .nn_engine import ModelParams, check_artifact, check_labels, forward, read_json

REPORT_FORMAT = "codat-eval-report"
REPORT_VERSION = 1

_EVAL_BATCH = 512
# the four accuracies lead: they are derived from the confusion matrix
_REPORT_KEYS = ("per_class_accuracy", "average_accuracy", "worst_class_accuracy",
                "class_variance", "confusion", "attack", "seed")


@dataclass(frozen=True)
class EvalReport:
    """A confusion matrix and the attack it was measured under (None: natural).

    Row i counts the class-(i+1) examples by predicted class.  The accuracies,
    fractions in [0, 1], derive from it: per class the diagonal over the row
    sums, on average the trace over the total, at worst their minimum, and
    `class_variance` of the per-class row.  `attack` is the attack's tag.
    """

    confusion: np.ndarray
    attack_config: AttackConfig | None
    seed: int

    @property
    def attack(self) -> str:
        cfg = self.attack_config
        if cfg is None:
            return "none"
        return (
            f"pgd-{cfg.steps} eps={cfg.epsilon:g} step={cfg.step_size:g} "
            f"random_start={str(cfg.random_start).lower()}"
        )

    @property
    def per_class_accuracy(self) -> np.ndarray:
        return self.confusion.diagonal() / self.confusion.sum(axis=1)

    @property
    def average_accuracy(self) -> float:
        return float(self.confusion.trace() / self.confusion.sum())

    @property
    def worst_class_accuracy(self) -> float:
        return float(np.min(self.per_class_accuracy))

    @property
    def class_variance(self) -> float:
        return class_variance(self.per_class_accuracy)

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
            "attack_config": None if self.attack_config is None else self.attack_config.as_dict(),
        }

    @staticmethod
    def from_dict(payload: dict) -> "EvalReport":
        check_artifact(payload, "evaluation report", REPORT_FORMAT, REPORT_VERSION, _REPORT_KEYS)

        def read(key, convert, holds=lambda value: True):
            # a field must convert, and the converted value must hold its check;
            # only attack_config may be absent, and then reads None
            try:
                value = convert(payload.get(key))
                if holds(value):
                    return value
            except (TypeError, ValueError, OverflowError):
                pass
            raise ValueError(
                f"evaluation report field {key} is malformed: {json.dumps(payload.get(key))}"
            )

        # integer counts for K >= 2 classes, each with at least one example
        confusion = read(
            "confusion",
            lambda v: np.asarray(v, dtype=np.int64),
            lambda c: c.ndim == 2 and c.shape[0] == c.shape[1] >= 2 and np.min(c) >= 0
            and np.min(c.sum(axis=1)) > 0 and c.tolist() == payload["confusion"],
        )
        # each stored accuracy must be the one its matrix gives
        derived = EvalReport(confusion, None, 0).to_dict()
        for key in _REPORT_KEYS[:4]:
            read(key, lambda v: v, lambda v: v == derived[key])
        seed = read("seed", lambda v: v, lambda v: type(v) is int)
        attack_config = read("attack_config", lambda v: None if v is None else AttackConfig(**v))
        report = EvalReport(confusion, attack_config, seed)
        # the stored tag must be the one its attack config gives
        read("attack", lambda v: v, lambda v: v == report.attack)
        return report

    @staticmethod
    def load(path) -> "EvalReport":
        return EvalReport.from_dict(read_json(path))


def artifact_json(payload) -> str:
    """The text of a JSON artifact: sorted keys, two-space indent, final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def class_variance(per_class_accuracy) -> float:
    """Population variance of the per-class accuracies."""
    values = np.asarray(per_class_accuracy, dtype=np.float64)
    if values.size < 2:
        raise ValueError(f"need at least 2 classes, got {values.size}")
    if np.min(values) == np.max(values):
        return 0.0
    return float(np.mean((values - np.mean(values)) ** 2))


def evaluated_batches(
    model: ModelParams, data: Dataset, attack: AttackConfig | None, seed: int
) -> Iterator[tuple[LabeledBatch, np.ndarray, np.ndarray]]:
    """(batch, features, logits) for each 512-row batch of `data`, in row order.

    With an attack the features are PGD's output under seed (seed, batch
    index).  Raises RuntimeError on a non-finite logit: the model has diverged.
    """
    for idx, start in enumerate(range(0, data.size, _EVAL_BATCH)):
        rows = slice(start, start + _EVAL_BATCH)
        batch = LabeledBatch(data.features[rows], data.labels[rows])
        feats = batch.features if attack is None else pgd_attack(model, batch, attack, (seed, idx))
        logits = forward(model, feats)
        if not np.all(np.isfinite(logits)):
            raise RuntimeError("non-finite logits in evaluation: the model has diverged")
        yield batch, feats, logits


def evaluate(
    model: ModelParams, data: Dataset, attack: AttackConfig | None = None, seed: int = 0
) -> EvalReport:
    """Accuracy report on `data`, optionally under the PGD attack.

    Deterministic for a fixed seed; the batches, their attack seeds and the
    divergence check come from `evaluated_batches`.  Every model class must appear.
    """
    num_classes = model.num_classes
    labels = check_labels(data.labels, data.size, num_classes)
    missing = np.flatnonzero(np.bincount(labels, minlength=num_classes + 1)[1:] == 0)
    if missing.size:
        raise ValueError(f"class {missing[0] + 1} has no examples in the evaluation data")
    cells = []
    for batch, _, logits in evaluated_batches(model, data, attack, seed):
        predictions = np.argmax(logits, axis=1)
        # row-major cell index of (true class, predicted class), both 0-based
        cells.append((batch.labels - 1) * num_classes + predictions)
    confusion = np.bincount(np.concatenate(cells), minlength=num_classes * num_classes).reshape(
        num_classes, num_classes
    )
    return EvalReport(confusion, attack, seed)


def fec(a_wc: float, a_wc_baseline: float, a_avg: float, a_avg_baseline: float) -> float:
    """exp(worst-class improvement rate - average-accuracy decline rate).

    `a_wc` and `a_avg` are a method's worst-class and average accuracies, the
    `_baseline` pair its baseline's.  All four must share one scale (all
    percent or all fractions); the rates are relative, so the scale cancels.
    """
    if not (0.0 < a_wc_baseline < math.inf and 0.0 < a_avg_baseline < math.inf):
        raise ValueError(
            f"baseline accuracies must be positive and finite, got worst={a_wc_baseline} "
            f"average={a_avg_baseline}"
        )
    if not (0.0 <= a_wc < math.inf and 0.0 <= a_avg < math.inf):
        raise ValueError(
            f"accuracies must be nonnegative and finite, got worst={a_wc} average={a_avg}"
        )
    worst_rate = (a_wc - a_wc_baseline) / a_wc_baseline
    decline_rate = (a_avg_baseline - a_avg) / a_avg_baseline
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
    for name, avg, wst in named_accuracies:
        if not (0.0 <= avg < math.inf and 0.0 <= wst < math.inf):
            raise ValueError(
                f"method {name!r} needs finite accuracies >= 0, got avg={avg} wst={wst}"
            )
    names = [name for name, _, _ in named_accuracies]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"duplicate method names {repeated}: each row needs its own name")
    by_name = {name: (avg, wst) for name, avg, wst in named_accuracies}
    if baseline not in by_name:
        raise ValueError(f"baseline {baseline!r} missing from methods {sorted(by_name)}")
    base_avg, base_wst = by_name[baseline]
    rows = []
    for name, avg, wst in named_accuracies:
        if name == baseline:
            value = 1.0
        else:
            value = fec(wst, base_wst, avg, base_avg)
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
    Path(path).write_text(artifact_json([asdict(row) for row in rows]), encoding="utf-8")


def confusion_to_csv(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row in report.confusion:
            writer.writerow([int(v) for v in row])
