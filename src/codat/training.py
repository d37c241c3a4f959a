"""Training: one loop for the class-reweighted DRO trainer and three baselines.

All four methods share the loop in `train`: attack the minibatch, compute
per-example adversarial cross-entropy, reduce it to a scalar batch loss
through a method-specific class weighting (its `STEP_FNS` entry), and
backpropagate by distributing each class weight over that class's examples.
The DRO trainer weights classes by the worst-case distribution of the
chi-square ball (closed form from dro_core); standard adversarial training
uses the plain example mean; fixed-class-weighted training uses a static
simplex weight vector; and worst-class training follows the subgradient of
the max class risk.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackConfig, pgd_attack
from .data import Dataset, batch_iter
from .dro_core import (
    AmbiguityConfig,
    ClassRiskVector,
    ProbabilityDistribution,
    equivalent_objective,
    equivalent_objective_gradient,
    uniform_distribution,
    worst_case_distribution,
)
from .metrics import evaluate
from .nn_engine import (
    LabeledBatch,
    ModelParams,
    backward,
    cross_entropy_per_example,
    forward,
    init_model,
    init_optimizer,
    lr_at_epoch,
    params_digest,
    sgd_step,
)

VALID_METHODS = ("codat", "standard_at", "weighted", "worst_class")

HISTORY_FORMAT = "codat-history"
HISTORY_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every trainer.

    `eta` is read only by the DRO method; `fixed_weights` must be present
    exactly for the weighted method.  `hidden_dims` may be empty for a
    linear model.  `select_best`, when an evaluation set is supplied,
    returns the epoch snapshot with the highest worst-class accuracy under
    the training attack instead of the final model.
    """

    method: str
    epochs: int
    batch_size: int
    base_lr: float
    attack: AttackConfig
    seed: int
    momentum: float = 0.9
    weight_decay: float = 2e-4
    lr_milestones: tuple[int, ...] = ()
    lr_factor: float = 0.1
    eta: float = 0.3
    fixed_weights: ProbabilityDistribution | None = None
    hidden_dims: tuple[int, ...] = (256, 256)
    select_best: bool = False

    def __post_init__(self):
        if self.method not in VALID_METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {VALID_METHODS}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if self.base_lr <= 0.0:
            raise ValueError(f"base learning rate must be positive, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight decay must be nonnegative, got {self.weight_decay}")
        if list(self.lr_milestones) != sorted(self.lr_milestones):
            raise ValueError(f"lr milestones must be sorted, got {self.lr_milestones}")
        if self.lr_factor <= 0.0:
            raise ValueError(f"lr factor must be positive, got {self.lr_factor}")
        if self.method == "codat" and self.eta < 0.0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if (self.fixed_weights is not None) != (self.method == "weighted"):
            raise ValueError("fixed_weights must be given exactly for the weighted method")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden dims must be positive, got {self.hidden_dims}")
        object.__setattr__(self, "lr_milestones", tuple(int(m) for m in self.lr_milestones))
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))


@dataclass(frozen=True)
class EpochRecord:
    """One completed epoch: losses, per-class risks, class weights, bookkeeping."""

    epoch: int
    loss: float
    natural_loss: float
    class_risks: list[float]
    class_weights: list[float]
    learning_rate: float
    wall_time: float
    params_digest: str
    weight_risk_agreement: float
    weight_objective_gap: float | None
    closed_form_fraction: float | None


@dataclass
class TrainHistory:
    header: dict
    records: list[EpochRecord] = field(default_factory=list)

    def save_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "header", **self.header}, sort_keys=True) + "\n")
            for record in self.records:
                fh.write(json.dumps({"type": "epoch", **record.__dict__}, sort_keys=True) + "\n")

    @staticmethod
    def load_jsonl(path) -> "TrainHistory":
        header = None
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                payload = json.loads(line)
                kind = payload.pop("type")
                if kind == "header":
                    header = payload
                elif kind == "epoch":
                    records.append(EpochRecord(**payload))
                else:
                    raise ValueError(f"unknown history line type {kind!r}")
        if header is None or header.get("format") != HISTORY_FORMAT:
            raise ValueError("missing or foreign history header")
        return TrainHistory(header, records)


def class_avg_loss(
    per_example_losses: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[ClassRiskVector, np.ndarray]:
    """Average loss per class over the batch.

    Absent classes get risk 0 and present-mask False; downstream code must
    exclude them rather than read the placeholder zeros.
    """
    losses = np.asarray(per_example_losses, dtype=np.float64)
    labels = np.asarray(labels)
    if losses.ndim != 1 or losses.size < 1:
        raise ValueError("need a nonempty loss vector")
    if labels.shape != losses.shape:
        raise ValueError(f"labels shape {labels.shape} does not match losses {losses.shape}")
    if np.min(labels) < 1 or np.max(labels) > num_classes:
        raise ValueError(
            f"labels must lie in [1, {num_classes}], got range "
            f"[{np.min(labels)}, {np.max(labels)}]"
        )
    sums = np.bincount(labels - 1, weights=losses, minlength=num_classes)
    counts = np.bincount(labels - 1, minlength=num_classes)
    present = counts > 0
    risks = np.zeros(num_classes)
    risks[present] = sums[present] / counts[present]
    return ClassRiskVector(risks), present


def _present_ball(present: np.ndarray, eta: float) -> tuple[np.ndarray, AmbiguityConfig | None]:
    """Present-class indices and the chi-square ball around uniform over them.

    The radius is clamped below the present-class Dirac bound; a
    single-class batch has no ball (None) and degenerates to that class.
    """
    indices = np.nonzero(present)[0]
    if indices.size == 0:
        raise ValueError("batch contains no classes")
    if indices.size == 1:
        return indices, None
    # a batch missing classes shrinks the Dirac bound; clamp just below it
    eta = min(eta, (indices.size - 1) * (1.0 - 1e-9))
    return indices, AmbiguityConfig(uniform_distribution(indices.size), eta)


def codat_batch_loss(risks: ClassRiskVector, present: np.ndarray, eta: float) -> float:
    """Scalar batch objective: mean + sqrt(eta * variance) over present classes.

    The base distribution is uniform over the classes present in the batch;
    a single-class batch degenerates to that class's risk.
    """
    indices, cfg = _present_ball(present, eta)
    if cfg is None:
        return float(risks.risks[indices[0]])
    return equivalent_objective(ClassRiskVector(risks.risks[indices]), cfg)


def _spread_over_examples(
    class_row: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    # gradient routing: class weight w_k becomes w_k / n_k on each class-k example
    return class_row[labels - 1] / counts[labels - 1]


# Step functions share one signature:
#   step(config, adv_losses, labels, risks, present, counts)
#     -> (batch loss, per-example loss weights, class weight row, closed_form_valid)
# `risks` and `present` come from class_avg_loss and `counts` are the class
# counts of the batch; `closed_form_valid` is None for every method but codat.


def _codat_step(config, adv_losses, labels, risks, present, counts):
    indices, cfg = _present_ball(present, config.eta)
    class_row = np.zeros(counts.size)
    if cfg is None:
        class_row[indices[0]] = 1.0
        loss = float(risks.risks[indices[0]])
        return loss, _spread_over_examples(class_row, labels, counts), class_row, None
    sub = ClassRiskVector(risks.risks[indices])
    solution = worst_case_distribution(sub, cfg)
    # history row: the feasible worst-case distribution; routing row: the
    # exact objective gradient (they coincide when the closed form is valid,
    # and only the gradient drives the update)
    class_row[indices] = solution.distribution.weights
    routing = np.zeros(counts.size)
    routing[indices] = equivalent_objective_gradient(sub, cfg)
    example_weights = _spread_over_examples(routing, labels, counts)
    return equivalent_objective(sub, cfg), example_weights, class_row, solution.closed_form_valid


def _standard_step(config, adv_losses, labels, risks, present, counts):
    size = adv_losses.size
    return float(np.mean(adv_losses)), np.full(size, 1.0 / size), counts / size, None


def _weighted_step(config, adv_losses, labels, risks, present, counts):
    masked = np.where(present, config.fixed_weights.weights, 0.0)
    mass = float(np.sum(masked))
    if mass <= 0.0:
        raise ValueError("fixed weights place no mass on the classes in this batch")
    class_row = masked / mass
    loss = float(np.dot(class_row, risks.risks))
    return loss, _spread_over_examples(class_row, labels, counts), class_row, None


def _riskiest_class(risks: ClassRiskVector, present: np.ndarray) -> int:
    # argmax takes the lowest index on ties
    return int(np.argmax(np.where(present, risks.risks, -np.inf)))


def _worst_class_step(config, adv_losses, labels, risks, present, counts):
    worst = _riskiest_class(risks, present)
    class_row = np.zeros(counts.size)
    class_row[worst] = 1.0
    loss = float(risks.risks[worst])
    return loss, _spread_over_examples(class_row, labels, counts), class_row, None


STEP_FNS = {
    "codat": _codat_step,
    "standard_at": _standard_step,
    "weighted": _weighted_step,
    "worst_class": _worst_class_step,
}


def _canonical_method(config: TrainConfig) -> str:
    # the DRO method at radius zero is standard adversarial training
    if config.method == "codat" and config.eta == 0.0:
        return "standard_at"
    return config.method


def _config_payload(config: TrainConfig) -> dict:
    return {
        "method": config.method,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "base_lr": config.base_lr,
        "momentum": config.momentum,
        "weight_decay": config.weight_decay,
        "lr_milestones": list(config.lr_milestones),
        "lr_factor": config.lr_factor,
        "eta": config.eta if config.method == "codat" else None,
        "fixed_weights": None
        if config.fixed_weights is None
        else config.fixed_weights.weights.tolist(),
        "hidden_dims": list(config.hidden_dims),
        "seed": config.seed,
        "attack": config.attack.as_dict(),
    }


def config_fingerprint(config: TrainConfig) -> str:
    """Stable hash of the resolved configuration.

    The DRO method at radius zero is canonicalized to standard adversarial
    training before hashing, so the two spellings of the same run produce
    byte-identical checkpoints.  Unset (None) fields are left out.
    """
    payload = _config_payload(config)
    if _canonical_method(config) != config.method:
        payload.update(method="standard_at", eta=None)
    canonical = json.dumps(
        {k: v for k, v in payload.items() if v is not None}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _history_header(config: TrainConfig, train_data: Dataset) -> dict:
    return {
        "format": HISTORY_FORMAT,
        "version": HISTORY_VERSION,
        **_config_payload(config),
        "train_size": train_data.size,
        "num_classes": train_data.num_classes,
        "config_fingerprint": config_fingerprint(config),
    }


def train(config: TrainConfig, train_data: Dataset, eval_data: Dataset | None = None):
    """Train with the class weighting of `config.method`; returns (model, history).

    Every method runs the same loop and differs only in its STEP_FNS entry.
    The DRO method at radius zero runs the standard trainer's exact path.
    """
    num_classes = train_data.num_classes
    if num_classes < 2:
        raise ValueError("training needs at least 2 classes")
    if config.method == "codat" and config.eta >= num_classes - 1:
        raise ValueError(
            f"eta {config.eta} must be < K - 1 = {num_classes - 1} for {num_classes} classes"
        )
    if config.fixed_weights is not None and config.fixed_weights.size != num_classes:
        raise ValueError(
            f"fixed weights cover {config.fixed_weights.size} classes, data has {num_classes}"
        )
    step_fn = STEP_FNS[_canonical_method(config)]
    model = init_model(
        [train_data.features.shape[1], *config.hidden_dims, num_classes], config.seed
    )
    state = init_optimizer(model, config.base_lr, config.momentum, config.weight_decay)
    history = TrainHistory(_history_header(config, train_data))
    best_snapshot = None
    best_worst = -1.0
    for epoch in range(config.epochs):
        started = time.perf_counter()
        state.learning_rate = lr_at_epoch(
            config.base_lr, epoch, list(config.lr_milestones), config.lr_factor
        )
        loss_sum = 0.0
        natural_sum = 0.0
        risk_sums = np.zeros(num_classes)
        risk_counts = np.zeros(num_classes, dtype=np.int64)
        weight_rows = np.zeros(num_classes)
        agreement_hits = 0
        objective_gap = 0.0
        gap_batches = 0
        valid_batches = 0
        codat_batches = 0
        batches = 0
        for idx, batch in enumerate(
            batch_iter(train_data, config.batch_size, config.seed, epoch=epoch)
        ):
            adv_features = pgd_attack(model, batch, config.attack, seed=(config.seed, epoch, idx))
            adv_batch = LabeledBatch(adv_features, batch.labels)
            adv_losses = cross_entropy_per_example(forward(model, adv_batch), batch.labels)
            natural_losses = cross_entropy_per_example(forward(model, batch), batch.labels)
            risks, present = class_avg_loss(adv_losses, batch.labels, num_classes)
            counts = np.bincount(batch.labels - 1, minlength=num_classes)
            loss, example_weights, class_row, valid = step_fn(
                config, adv_losses, batch.labels, risks, present, counts
            )
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss {loss} at epoch {epoch} batch {idx}"
                )
            grads, _ = backward(model, adv_batch, example_weights)
            sgd_step(model, grads, state)

            batches += 1
            loss_sum += loss
            natural_sum += float(np.mean(natural_losses))
            risk_sums += np.bincount(
                batch.labels - 1, weights=adv_losses, minlength=num_classes
            )
            risk_counts += counts
            weight_rows += class_row
            if _riskiest_class(risks, present) == int(np.argmax(class_row)):
                agreement_hits += 1
            if valid is not None:
                codat_batches += 1
                valid_batches += int(valid)
            if valid is not False:
                objective_gap = max(
                    objective_gap, abs(float(np.dot(class_row, risks.risks)) - loss)
                )
                gap_batches += 1
        per_class_risk = np.where(risk_counts > 0, risk_sums / np.maximum(risk_counts, 1), 0.0)
        history.records.append(
            EpochRecord(
                epoch=epoch,
                loss=loss_sum / batches,
                natural_loss=natural_sum / batches,
                class_risks=per_class_risk.tolist(),
                class_weights=(weight_rows / batches).tolist(),
                learning_rate=state.learning_rate,
                wall_time=time.perf_counter() - started,
                params_digest=params_digest(model),
                weight_risk_agreement=agreement_hits / batches,
                weight_objective_gap=objective_gap if gap_batches else None,
                closed_form_fraction=(valid_batches / codat_batches) if codat_batches else None,
            )
        )
        if config.select_best and eval_data is not None:
            snapshot = ModelParams([(w.copy(), b.copy()) for w, b in model.layers])
            report = evaluate(snapshot, eval_data, attack=config.attack, seed=config.seed)
            if report.worst_class_accuracy > best_worst:
                best_worst = report.worst_class_accuracy
                best_snapshot = snapshot
    if config.select_best and best_snapshot is not None:
        return best_snapshot, history
    return model, history
