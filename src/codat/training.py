"""Training: one loop for the class-reweighted DRO trainer and three baselines.

All four methods share the loop in `train`: attack the minibatch, reduce
the per-example adversarial cross-entropy with `class_avg_loss` to class
risks and counts, and turn those through a method-specific class weighting
(its `STEP_FNS` entry) into a scalar batch loss, a routing row that `train`
alone spreads over each class's examples to drive the update, and a history
row.  The DRO trainer reads all three from one `worst_case_distribution` call
per batch; standard adversarial training routes the plain example mean;
fixed-class-weighted training uses a static simplex weight vector; and
worst-class training follows the subgradient of the max class risk.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .attacks import AttackConfig, pgd_attack
from .data import Dataset, batch_iter
from .dro_core import (
    AmbiguityConfig,
    ClassRiskVector,
    ProbabilityDistribution,
    worst_case_distribution,
)
from .metrics import evaluate
from .nn_engine import (
    ModelParams,
    backward,
    check_artifact,
    check_int,
    check_labels,
    check_real,
    cross_entropy_per_example,
    forward,
    init_model,
    lr_at_epoch,
    params_digest,
    sgd_step,
)

HISTORY_FORMAT = "codat-history"
HISTORY_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by every trainer.

    `eta` is read only by the DRO method; `fixed_weights` must be present
    exactly for the weighted method.  `hidden_dims` may be empty for a
    linear model.
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

    def __post_init__(self):
        if self.method not in VALID_METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {VALID_METHODS}")
        for name in ("epochs", "batch_size", "seed"):
            object.__setattr__(self, name, check_int(name, getattr(self, name)))
        for name in ("lr_milestones", "hidden_dims"):
            object.__setattr__(self, name, tuple(check_int(name, v) for v in getattr(self, name)))
        for name in ("base_lr", "momentum", "weight_decay", "lr_factor", "eta"):
            check_real(name, getattr(self, name))
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < self.base_lr < np.inf:
            raise ValueError(f"base learning rate must be positive and finite, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight decay must be nonnegative and finite, got {self.weight_decay}")
        if list(self.lr_milestones) != sorted(self.lr_milestones):
            raise ValueError(f"lr milestones must be sorted, got {self.lr_milestones}")
        if not 0.0 < self.lr_factor < np.inf:
            raise ValueError(f"lr factor must be positive and finite, got {self.lr_factor}")
        if self.method == "codat" and not 0.0 <= self.eta < np.inf:
            raise ValueError(f"eta must be nonnegative and finite, got {self.eta}")
        if (self.fixed_weights is not None) != (self.method == "weighted"):
            raise ValueError("fixed_weights must be given exactly for the weighted method")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden dims must be positive, got {self.hidden_dims}")


@dataclass(frozen=True)
class EpochRecord:
    """One completed epoch: losses, per-class risks, class weights, bookkeeping.

    `weight_objective_gap` is the largest |class_row . risks - loss| over the
    batches where the closed form held or was not used (every batch of the
    other methods, and codat's single-class batches), and None if there
    were none.  It skips the codat batches where the closed form failed,
    which route a negative class weight (or have constant risks): their
    `class_row` is the exact worst case, not the routing row.
    """

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
            try:
                lines = fh.readlines()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: {exc}") from None
        for lineno, line in enumerate(lines, start=1):
            try:
                payload = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            kind = payload.pop("type", None) if isinstance(payload, dict) else None
            if kind == "header":
                header = payload
            elif kind == "epoch":
                try:
                    records.append(EpochRecord(**payload))
                except TypeError as exc:  # an unknown or a missing key
                    raise ValueError(f"{path}:{lineno}: bad epoch record: {exc}") from None
            else:
                raise ValueError(f"{path}:{lineno}: unknown history line type {kind!r}")
        if header is None:
            raise ValueError(f"{path}: missing history header")
        check_artifact(header, "training history", HISTORY_FORMAT, HISTORY_VERSION, ())
        return TrainHistory(header, records)


def class_avg_loss(
    per_example_losses: np.ndarray, labels: np.ndarray, num_classes: int
) -> tuple[ClassRiskVector, np.ndarray, np.ndarray]:
    """Average loss per class over the batch, with the class counts and loss sums.

    Absent classes get risk, count and sum 0; downstream code must exclude
    them rather than read the placeholder zeros.
    """
    losses = np.asarray(per_example_losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size < 1:
        raise ValueError("need a nonempty loss vector")
    labels = check_labels(labels, losses.size, num_classes)
    sums = np.bincount(labels - 1, weights=losses, minlength=num_classes)
    counts = np.bincount(labels - 1, minlength=num_classes)
    risks = np.divide(sums, counts, out=np.zeros(num_classes), where=counts > 0)
    return ClassRiskVector(risks), counts, sums


def _in_order_sum(values):
    # adds in batch order from zero, as a running total does: numpy pair-sums,
    # and Python 3.12's `sum` compensates float rounding, both moving last bits
    return functools.reduce(operator.add, values, 0)


# Step functions share one signature:
#   step(config, adv_losses, risks, counts)
#     -> (batch loss, routing row, history row, closed_form_valid)
# `risks` and the class counts `counts` (a class is present when its count is
# positive) come from class_avg_loss.  The routing row holds the class weights
# that drive the update (None: the example mean); the history row is the one
# the history records.  `closed_form_valid` is None but for codat on two or more classes.


def _codat_step(config, adv_losses, risks, counts):
    # centred on uniform over the present classes, the ball gives absent ones weight 0
    present = int(np.count_nonzero(counts))
    # a batch missing classes shrinks the Dirac bound; clamp just below it (to
    # 0 for a single class, whose one-point ball gives that class's risk and row)
    eta = min(config.eta, (present - 1) * (1.0 - 1e-9))
    center = ProbabilityDistribution(np.where(counts > 0, 1.0 / present, 0.0))
    solution = worst_case_distribution(risks, AmbiguityConfig(center, eta))
    # history row: the feasible worst-case distribution; routing row: the
    # gradient of the deterministic equivalent, the batch loss (they coincide
    # when the closed form is valid, and only the gradient drives the update)
    form = solution.closed_form
    valid = form.valid if present > 1 else None  # a one-point ball has no closed form to test
    return form.objective, form.gradient, solution.distribution.weights, valid


def _standard_step(config, adv_losses, risks, counts):
    return float(np.mean(adv_losses)), None, counts / adv_losses.size, None


def _fixed_row_step(class_row, risks):
    # the row routes and is recorded; a one-hot row's loss is exactly its class risk
    return float(np.dot(class_row, risks.risks)), class_row, class_row, None


def _weighted_step(config, adv_losses, risks, counts):
    masked = np.where(counts > 0, config.fixed_weights.weights, 0.0)
    mass = float(np.sum(masked))
    if mass <= 0.0:
        raise ValueError("fixed weights place no mass on the classes in this batch")
    return _fixed_row_step(masked / mass, risks)


def _riskiest_class(risks: ClassRiskVector, counts: np.ndarray) -> int:
    # the highest risk among present classes; argmax takes the lowest index on ties
    return int(np.argmax(np.where(counts > 0, risks.risks, -np.inf)))


def _worst_class_step(config, adv_losses, risks, counts):
    return _fixed_row_step(np.eye(counts.size)[_riskiest_class(risks, counts)], risks)


STEP_FNS = {
    "codat": _codat_step,
    "standard_at": _standard_step,
    "weighted": _weighted_step,
    "worst_class": _worst_class_step,
}
VALID_METHODS = tuple(STEP_FNS)


def _canonical_method(config: TrainConfig) -> str:
    # the DRO method at radius zero is standard adversarial training
    if config.method == "codat" and config.eta == 0.0:
        return "standard_at"
    return config.method


def _config_payload(config: TrainConfig) -> dict:
    # every field by name (the attack as its `as_dict` record), in JSON types
    weights = config.fixed_weights
    return {
        **asdict(config),
        "eta": config.eta if config.method == "codat" else None,
        "fixed_weights": None if weights is None else weights.weights.tolist(),
        "lr_milestones": list(config.lr_milestones),
        "hidden_dims": list(config.hidden_dims),
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


def check_fit(config: TrainConfig, train_data: Dataset) -> None:
    """Raise ValueError unless `config` can train on `train_data`'s classes."""
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


def train(config: TrainConfig, train_data: Dataset, eval_data: Dataset | None = None):
    """Train with the class weighting of `config.method`; returns (model, history).

    Every method runs the same loop and differs only in its STEP_FNS entry.
    The DRO method at radius zero runs the standard trainer's exact path.
    Given `eval_data`, returns the epoch snapshot with the highest
    worst-class accuracy on it under the training attack, not the final model.
    """
    check_fit(config, train_data)
    num_classes = train_data.num_classes
    step_fn = STEP_FNS[_canonical_method(config)]
    model = init_model(
        [train_data.features.shape[1], *config.hidden_dims, num_classes], config.seed
    )
    buffers = [(np.zeros_like(weight), np.zeros_like(bias)) for weight, bias in model.layers]
    history = TrainHistory(_history_header(config, train_data))
    best_snapshot = None
    best_worst = -1.0
    for epoch in range(config.epochs):
        started = time.perf_counter()
        learning_rate = lr_at_epoch(config.base_lr, epoch, config.lr_milestones, config.lr_factor)
        rows = []
        for idx, batch in enumerate(
            batch_iter(train_data, config.batch_size, config.seed, epoch=epoch)
        ):
            adv_features = pgd_attack(model, batch, config.attack, seed=(config.seed, epoch, idx))
            adv_losses = cross_entropy_per_example(forward(model, adv_features), batch.labels)
            nat_losses = cross_entropy_per_example(forward(model, batch.features), batch.labels)
            # finite squares keep every class risk, moment and step loss finite
            if not np.isfinite(np.dot(adv_losses, adv_losses)):
                raise RuntimeError(
                    f"training diverged: non-finite losses or squares at epoch {epoch} batch {idx}"
                )
            risks, counts, sums = class_avg_loss(adv_losses, batch.labels, num_classes)
            loss, routing, class_row, valid = step_fn(config, adv_losses, risks, counts)
            # the one spread: class weight w_k becomes w_k / n_k on each class-k example
            k = batch.labels - 1
            example_weights = (
                np.full(k.size, 1.0 / k.size) if routing is None else routing[k] / counts[k]
            )
            grads, _ = backward(model, adv_features, batch.labels, example_weights)
            sgd_step(model, grads, buffers, learning_rate, config.momentum, config.weight_decay)
            hit = _riskiest_class(risks, counts) == int(np.argmax(class_row))
            gap = None if valid is False else abs(float(np.dot(class_row, risks.risks)) - loss)
            rows.append((loss, float(nat_losses.mean()), sums, counts, class_row, hit, valid, gap))
        losses, naturals, sums, counts, class_rows, hits, valids, gaps = zip(*rows)
        risk_sums, risk_counts = _in_order_sum(sums), _in_order_sum(counts)
        valids = [valid for valid in valids if valid is not None]
        record = EpochRecord(
            epoch=epoch,
            loss=_in_order_sum(losses) / len(rows),
            natural_loss=_in_order_sum(naturals) / len(rows),
            # an absent class sums to 0.0 and so reads risk 0.0
            class_risks=(risk_sums / np.maximum(risk_counts, 1)).tolist(),
            class_weights=(_in_order_sum(class_rows) / len(rows)).tolist(),
            learning_rate=learning_rate,
            wall_time=time.perf_counter() - started,
            params_digest=params_digest(model),
            weight_risk_agreement=sum(hits) / len(rows),
            weight_objective_gap=max((gap for gap in gaps if gap is not None), default=None),
            closed_form_fraction=sum(valids) / len(valids) if valids else None,
        )
        history.records.append(record)
        if eval_data is not None:
            report = evaluate(model, eval_data, attack=config.attack, seed=config.seed)
            if report.worst_class_accuracy > best_worst:
                best_worst = report.worst_class_accuracy
                best_snapshot = ModelParams([(w.copy(), b.copy()) for w, b in model.layers])
    return (model if best_snapshot is None else best_snapshot), history
