"""Minimal dense feed-forward classifier with reverse-mode gradients.

Dense layers with a rectifier between them and identity at the output,
softmax cross-entropy, gradients with respect to both parameters and
inputs (the latter feed the attack loop), SGD with momentum and weight
decay, and a piecewise-constant learning-rate schedule.  Everything is
plain numpy in float64.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

CHECKPOINT_FORMAT = "codat-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    """Ordered dense layers as (weight out x in, bias out) pairs."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        checked = []
        previous_out = None
        for idx, (weight, bias) in enumerate(self.layers):
            weight = np.asarray(weight)
            bias = np.asarray(bias)
            if weight.ndim != 2 or bias.ndim != 1 or weight.shape[0] != bias.shape[0]:
                raise ValueError(f"layer {idx}: weight {weight.shape} and bias {bias.shape} do not pair")
            if previous_out is not None and weight.shape[1] != previous_out:
                raise ValueError(
                    f"layer {idx}: input dim {weight.shape[1]} does not chain from {previous_out}"
                )
            if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
                raise ValueError(f"layer {idx}: non-finite parameter entries")
            previous_out = weight.shape[0]
            checked.append((weight, bias))
        self.layers = checked

    @property
    def layer_dims(self) -> list[int]:
        dims = [self.layers[0][0].shape[1]]
        dims.extend(weight.shape[0] for weight, _ in self.layers)
        return dims

    @property
    def num_classes(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]


@dataclass(frozen=True)
class LabeledBatch:
    """Feature rows in [0, 1] with 1-based integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError(f"features must be a nonempty 2-d array, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValueError(f"labels shape {labels.shape} does not match {feats.shape[0]} rows")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        if np.min(labels) < 1:
            raise ValueError("labels are 1-based; smallest allowed value is 1")
        if feats.size and (np.min(feats) < 0.0 or np.max(feats) > 1.0):
            raise ValueError("feature entries must lie in [0, 1]")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def size(self) -> int:
        return int(self.features.shape[0])


@dataclass
class OptimizerState:
    """SGD state: one momentum buffer per parameter tensor."""

    buffers: list[tuple[np.ndarray, np.ndarray]]
    learning_rate: float
    momentum: float
    weight_decay: float

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight decay must be nonnegative, got {self.weight_decay}")


def init_model(layer_dims: list[int], seed: int) -> ModelParams:
    """Scaled-uniform fan-in initialization: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dimensions")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weight = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        bias = rng.uniform(-bound, bound, size=fan_out)
        layers.append((weight, bias))
    return ModelParams(layers)


def init_optimizer(
    model: ModelParams, learning_rate: float, momentum: float = 0.9, weight_decay: float = 2e-4
) -> OptimizerState:
    buffers = [
        (np.zeros_like(weight), np.zeros_like(bias)) for weight, bias in model.layers
    ]
    return OptimizerState(buffers, learning_rate, momentum, weight_decay)


def forward(model: ModelParams, batch: LabeledBatch) -> np.ndarray:
    """Logits for every batch row; rectifier between layers, identity at output."""
    if batch.features.shape[1] != model.input_dim:
        raise ValueError(
            f"feature dim {batch.features.shape[1]} does not match model input {model.input_dim}"
        )
    activation = batch.features
    last = len(model.layers) - 1
    for idx, (weight, bias) in enumerate(model.layers):
        pre = activation @ weight.T + bias
        activation = pre if idx == last else np.maximum(pre, 0.0)
    return activation


def cross_entropy_per_example(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row softmax cross-entropy via max-shifted log-sum-exp (nats)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(f"logits {logits.shape} and labels {labels.shape} do not pair")
    if np.min(labels) < 1 or np.max(labels) > logits.shape[1]:
        raise ValueError(
            f"labels must lie in [1, {logits.shape[1]}], got range "
            f"[{np.min(labels)}, {np.max(labels)}]"
        )
    shift = np.max(logits, axis=1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(logits - shift), axis=1)) + shift[:, 0]
    true_logit = logits[np.arange(logits.shape[0]), labels - 1]
    return logsumexp - true_logit


def backward(
    model: ModelParams, batch: LabeledBatch, loss_weights: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Gradients of sum_i loss_weights[i] * cross_entropy_i.

    Returns per-layer (weight gradient, bias gradient) pairs and the
    gradient with respect to the input features.
    """
    loss_weights = np.asarray(loss_weights, dtype=np.float64)
    if loss_weights.shape != (batch.size,):
        raise ValueError(f"loss weights shape {loss_weights.shape} does not match batch {batch.size}")
    if batch.features.shape[1] != model.input_dim:
        raise ValueError(
            f"feature dim {batch.features.shape[1]} does not match model input {model.input_dim}"
        )
    # forward pass keeping every layer input and pre-activation
    activation = batch.features
    inputs = []
    pre_activations = []
    last = len(model.layers) - 1
    for idx, (weight, bias) in enumerate(model.layers):
        inputs.append(activation)
        pre = activation @ weight.T + bias
        pre_activations.append(pre)
        activation = pre if idx == last else np.maximum(pre, 0.0)
    logits = activation

    # softmax cross-entropy head
    shift = np.max(logits, axis=1, keepdims=True)
    exp = np.exp(logits - shift)
    softmax = exp / np.sum(exp, axis=1, keepdims=True)
    delta = softmax.copy()
    delta[np.arange(batch.size), batch.labels - 1] -= 1.0
    delta *= loss_weights[:, None]

    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(model.layers)
    for idx in range(last, -1, -1):
        weight, _ = model.layers[idx]
        grads[idx] = (delta.T @ inputs[idx], np.sum(delta, axis=0))
        upstream = delta @ weight
        if idx > 0:
            upstream = upstream * (pre_activations[idx - 1] > 0.0)
        delta = upstream
    return grads, delta


def sgd_step(
    model: ModelParams, grads: list[tuple[np.ndarray, np.ndarray]], state: OptimizerState
) -> tuple[ModelParams, OptimizerState]:
    """In-place SGD update: buffer <- m*buffer + grad + wd*param; param <- param - lr*buffer."""
    if len(grads) != len(model.layers):
        raise ValueError(f"got {len(grads)} gradient pairs for {len(model.layers)} layers")
    for idx, ((weight, bias), (gw, gb), (bw, bb)) in enumerate(
        zip(model.layers, grads, state.buffers)
    ):
        if gw.shape != weight.shape or gb.shape != bias.shape:
            raise ValueError(f"layer {idx}: gradient shapes do not match parameters")
        bw *= state.momentum
        bw += gw + state.weight_decay * weight
        bb *= state.momentum
        bb += gb + state.weight_decay * bias
        weight -= state.learning_rate * bw
        bias -= state.learning_rate * bb
    return model, state


def lr_at_epoch(base_lr: float, epoch: int, milestones: list[int], factor: float) -> float:
    """Piecewise-constant schedule: base_lr * factor^(number of milestones <= epoch)."""
    if list(milestones) != sorted(milestones):
        raise ValueError(f"milestones must be sorted ascending, got {milestones}")
    drops = sum(1 for m in milestones if m <= epoch)
    return base_lr * factor**drops


def params_digest(model: ModelParams) -> str:
    """SHA-256 over the raw parameter bytes, for trajectory comparison."""
    h = hashlib.sha256()
    for weight, bias in model.layers:
        h.update(np.ascontiguousarray(weight).tobytes())
        h.update(np.ascontiguousarray(bias).tobytes())
    return h.hexdigest()


def save_checkpoint(model: ModelParams, path, seed: int, config_hash: str) -> None:
    """Write the versioned JSON checkpoint (see README for the field list)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "layer_dims": model.layer_dims,
        "dtype": "float64",
        "weights": [weight.ravel().tolist() for weight, _ in model.layers],
        "biases": [bias.tolist() for _, bias in model.layers],
        "seed": int(seed),
        "config_hash": config_hash,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> tuple[ModelParams, int, str]:
    """Read a checkpoint written by `save_checkpoint`; returns (model, seed, config_hash)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: format={payload.get('format')!r}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
    if payload.get("dtype", "float64") != "float64":
        raise ValueError(f"unsupported checkpoint dtype {payload['dtype']!r}; expected 'float64'")
    dims = payload["layer_dims"]
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        weight = np.asarray(payload["weights"][i], dtype=np.float64).reshape(fan_out, fan_in)
        bias = np.asarray(payload["biases"][i], dtype=np.float64)
        layers.append((weight, bias))
    return ModelParams(layers), int(payload["seed"]), str(payload["config_hash"])
