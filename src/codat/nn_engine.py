"""Minimal dense feed-forward classifier with reverse-mode gradients.

Dense layers with a rectifier between them and identity at the output,
softmax cross-entropy, gradients with respect to both parameters and
inputs (`backward`, for the training update) or to the inputs alone
(`backward` without loss weights, for the attack loop), SGD with momentum
and weight decay on caller-held momentum buffers (`sgd_step`), and a
piecewise-constant learning-rate schedule.
Everything is plain numpy in float64, array in and array out: `forward`
takes a 2-d feature array and `backward` that and one integer label in
[1, K] per row, as `check_labels` requires of every label reader.  They
share one layer walk, which writes each dense layer's output and rectifier
mask into walk buffers owned by its caller (`walk_buffers`); the backward
sweep writes each layer's delta back into the output buffer of the layer it
came from.  `forward`, and `backward` unless handed a set, allocate a fresh
set per call, so a 512-row pass through the toy3 256-unit layers holds about
2.3 MiB of buffers.  The returned logits, weight gradients and input
gradients never alias a set that a caller reuses.

`forward` and the unweighted `backward` run the hidden layers of a pass of
`SPLIT_MIN_ROWS` or more rows in two row halves at once (`_by_rows`): the
caller's thread takes the first half and one daemon worker thread, started
at the first split, the second, both writing row slices of the same walk
set.  The output-layer product, the softmax head and the input-gradient
product run whole on the caller's thread.  A split keeps every bit, and
only hidden widths for which that was checked split.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

CHECKPOINT_FORMAT = "codat-checkpoint"
CHECKPOINT_VERSION = 1
# below this many rows a second thread costs more than its half saves
SPLIT_MIN_ROWS = 256


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


def init_model(layer_dims: list[int], seed: int) -> ModelParams:
    """Scaled-uniform fan-in initialization: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weight = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        bias = rng.uniform(-bound, bound, size=fan_out)
        layers.append((weight, bias))
    return ModelParams(layers)


def walk_buffers(model: ModelParams, rows: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Fresh (outputs, masks) for a `rows`-row walk: one output per layer, one mask per rectifier."""
    outputs = [np.empty((rows, weight.shape[0])) for weight, _ in model.layers]
    masks = [np.empty((rows, weight.shape[0]), dtype=bool) for weight, _ in model.layers[:-1]]
    return outputs, masks


class _RowHalves:
    """One daemon thread that runs the second row half of a split pass.

    The thread starts on the first split, and a forked child, which has no
    copy of it, starts its own.  Each job carries its own reply queue, so
    callers on several threads may share the worker.  A job is a closure,
    never a module-level function, so a tracer that wraps module functions
    sees only the calling thread.
    """

    def __init__(self):
        self._jobs = None

    def run(self, job, rows: int) -> None:
        """`job(slice)` on the first half here and on the second half there; waits for both."""
        if self._jobs is None:
            self._jobs = queue.SimpleQueue()
            threading.Thread(target=self._serve, args=(self._jobs,), daemon=True).start()
        half = rows // 2
        done = queue.SimpleQueue()
        self._jobs.put((job, slice(half, rows), done))
        try:
            job(slice(0, half))
        finally:
            error = done.get()
        if error is not None:
            raise error

    def forget(self) -> None:
        self._jobs = None

    @staticmethod
    def _serve(jobs) -> None:
        while True:
            job, rows, done = jobs.get()
            error = None
            try:
                job(rows)
            except BaseException as exc:  # re-raised on the calling thread
                error = exc
            # the job holds the caller's walk set: let it go before the caller
            # resumes, or the set outlives the call until the next split
            del job
            done.put(error)


_HALVES = _RowHalves()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_HALVES.forget)


def _by_rows(model: ModelParams, job, rows: int) -> None:
    """Run `job(slice)` over all `rows`, in two row halves at once where that keeps every bit.

    A split needs `SPLIT_MIN_ROWS` rows and hidden widths that are multiples
    of 8 from 16 up: under OpenBLAS, products of some other widths (12 and
    300 among them) round their last bits differently at some row counts.
    """
    if rows >= SPLIT_MIN_ROWS:
        widths = model.layer_dims[1:-1]
        if widths and all(width >= 16 and width % 8 == 0 for width in widths):
            _HALVES.run(job, rows)
            return
    job(slice(None))


def _walk(model: ModelParams, features: np.ndarray, outputs, masks, split: bool) -> np.ndarray:
    """Write one pass into `outputs` and `masks`; returns the logits, `outputs[-1]`.

    With `split`, the hidden layers may run in two row halves at once (`_by_rows`).
    """
    if features.ndim != 2 or features.shape[1] != model.input_dim:
        raise ValueError(f"features {features.shape} do not fit model input dim {model.input_dim}")
    last = len(model.layers) - 1

    def hidden(rows: slice) -> None:
        activation = features[rows]
        for idx, (weight, bias) in enumerate(model.layers[:last]):
            output = np.matmul(activation, weight.T, out=outputs[idx][rows])
            output += bias
            np.greater(output, 0.0, out=masks[idx][rows])
            np.maximum(output, 0.0, out=output)
            activation = output

    if split:
        _by_rows(model, hidden, features.shape[0])
    else:
        hidden(slice(None))
    weight, bias = model.layers[last]
    logits = np.matmul(outputs[last - 1] if last else features, weight.T, out=outputs[last])
    logits += bias
    return logits


def forward(model: ModelParams, features: np.ndarray) -> np.ndarray:
    """Logits for every feature row; rectifier between layers, identity at output."""
    return _walk(model, features, *walk_buffers(model, features.shape[0]), split=True)


def check_labels(labels, rows: int, num_classes: int) -> np.ndarray:
    """`labels` as an array of one integer in [1, num_classes] per row, else ValueError.

    A label 0 would read class K, one above K would index past it, a float
    one fails to index and a bool one (not an integer dtype) reads as 0 or 1.
    """
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise ValueError(f"{rows} rows and labels {labels.shape} do not pair")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if np.min(labels) < 1 or np.max(labels) > num_classes:
        raise ValueError(
            f"labels must lie in [1, {num_classes}], got range "
            f"[{np.min(labels)}, {np.max(labels)}]"
        )
    return labels


def check_int(name: str, value) -> int:
    """`value` as an int if it is an int or numpy integer (a bool is not), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def check_real(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is a real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: expected a real number, got {value!r}")


def cross_entropy_per_example(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row softmax cross-entropy via max-shifted log-sum-exp (nats)."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be a 2-d array, got shape {logits.shape}")
    labels = check_labels(labels, *logits.shape)
    shift = np.max(logits, axis=1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(logits - shift), axis=1)) + shift[:, 0]
    true_logit = logits[np.arange(logits.shape[0]), labels - 1]
    return logsumexp - true_logit


def backward(
    model: ModelParams, features: np.ndarray, labels: np.ndarray, loss_weights=None, buffers=None
) -> tuple[list[tuple[np.ndarray, np.ndarray]] | None, np.ndarray]:
    """Gradients of sum_i loss_weights[i] * cross_entropy_i over the feature rows.

    Returns per-layer (weight gradient, bias gradient) pairs and the
    gradient with respect to the input features.  Without `loss_weights`
    (the attack loop) the loss is the plain sum and only the input gradient
    is formed: the pairs are None.  Its input gradient equals, bit for bit,
    the one returned for weights of all ones.

    `buffers` is a `walk_buffers(model, rows)` set that the caller owns and
    may pass again on the next call (a PGD attack reuses one for all its
    steps); without it a fresh set is allocated.  The walk overwrites every
    entry before reading it, so nothing of an earlier call leaks in, and
    the returned gradients are fresh arrays that never alias the set.

    Without `loss_weights`, the walk's hidden layers and the sweep from the
    output layer's weight down to layer 1 may each run in two row halves at
    once (`_by_rows`), with the same bytes.  The weighted pass never splits:
    its weight gradients sum over all rows.
    """
    if buffers is None:
        buffers = walk_buffers(model, features.shape[0])
    outputs, masks = buffers
    weighted = loss_weights is not None
    logits = _walk(model, features, outputs, masks, split=not weighted)
    labels = check_labels(labels, *logits.shape)
    if weighted:
        loss_weights = np.asarray(loss_weights, dtype=np.float64)
        if loss_weights.shape != labels.shape:
            raise ValueError(f"loss weights {loss_weights.shape} do not match labels {labels.shape}")

    # softmax cross-entropy head, in the logits' own buffer
    delta = logits
    delta -= np.max(delta, axis=1, keepdims=True)
    np.exp(delta, out=delta)
    delta /= np.sum(delta, axis=1, keepdims=True)
    delta[np.arange(labels.size), labels - 1] -= 1.0

    last = len(model.layers) - 1
    grads = [None] * len(model.layers) if weighted else None

    def sweep(rows: slice) -> None:
        delta = outputs[last][rows]
        for idx in range(last, 0, -1):
            # layer idx's input is layer idx - 1's output: read it, then overwrite it
            if grads is not None:
                grads[idx] = (delta.T @ outputs[idx - 1], np.sum(delta, axis=0))
            delta = np.matmul(delta, model.layers[idx][0], out=outputs[idx - 1][rows])
            delta *= masks[idx - 1][rows]

    if weighted:
        delta *= loss_weights[:, None]
        sweep(slice(None))
        grads[0] = (outputs[0].T @ features, np.sum(outputs[0], axis=0))
    else:
        _by_rows(model, sweep, labels.size)
    return grads, outputs[0] @ model.layers[0][0]


def sgd_step(
    model: ModelParams,
    grads: list[tuple[np.ndarray, np.ndarray]],
    buffers: list[tuple[np.ndarray, np.ndarray]],
    learning_rate: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """In-place SGD update: buffer <- m*buffer + grad + wd*param; param <- param - lr*buffer.

    `buffers` holds one momentum buffer per parameter, shaped like `model.layers`
    (zeros before the first step).  Updates the parameters and the buffers in
    place and returns None; the caller checks the three hyperparameters.
    """
    if len(grads) != len(model.layers):
        raise ValueError(f"got {len(grads)} gradient pairs for {len(model.layers)} layers")
    for idx, ((weight, bias), (gw, gb), pair) in enumerate(zip(model.layers, grads, buffers)):
        if gw.shape != weight.shape or gb.shape != bias.shape:
            raise ValueError(f"layer {idx}: gradient shapes do not match parameters")
        for param, grad, buffer in zip((weight, bias), (gw, gb), pair):
            buffer *= momentum
            buffer += grad + weight_decay * param
            param -= learning_rate * buffer


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


def check_artifact(payload, kind: str, fmt: str, version: int, keys: tuple[str, ...]) -> None:
    """Reject `payload` unless it is a JSON object of format `fmt` and `version` holding `keys`."""
    if not isinstance(payload, dict):
        raise ValueError(f"{kind} must be a JSON object, got {type(payload).__name__}")
    if payload.get("format") != fmt:
        raise ValueError(f"{kind} format must be {fmt!r}, got {payload.get('format')!r}")
    if payload.get("version") != version:
        raise ValueError(f"unsupported {kind} version {payload.get('version')!r}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ValueError(f"{kind} lacks keys {', '.join(missing)}")


def read_json(path):
    """The JSON value in the UTF-8 file at `path`; a ValueError naming the path if it is not one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None


def load_checkpoint(path) -> tuple[ModelParams, int, str]:
    """Read a checkpoint written by `save_checkpoint`; returns (model, seed, config_hash)."""
    payload = read_json(path)
    keys = ("layer_dims", "weights", "biases", "seed", "config_hash")
    check_artifact(payload, "model checkpoint", CHECKPOINT_FORMAT, CHECKPOINT_VERSION, keys)
    if payload.get("dtype", "float64") != "float64":
        raise ValueError(f"unsupported checkpoint dtype {payload['dtype']!r}; expected 'float64'")
    nouns = {list: "a list", int: "an integer", str: "a string"}
    for key, kind in zip(keys, (list, list, list, int, str)):
        if type(payload[key]) is not kind:  # exact: a bool is no integer
            raise ValueError(
                f"model checkpoint {key} must be {nouns[kind]}, got {type(payload[key]).__name__}"
            )
    dims, weights, biases = payload["layer_dims"], payload["weights"], payload["biases"]
    if not all(type(dim) is int and dim > 0 for dim in dims):
        raise ValueError(f"model checkpoint layer_dims must be positive integers, got {dims}")
    layers = []
    for i in range(max(len(dims) - 1, len(weights), len(biases))):
        if i >= len(dims) - 1:
            raise ValueError(f"model checkpoint layer {i} lies beyond layer_dims {dims}")
        fan_in, fan_out = dims[i], dims[i + 1]
        try:
            weight = np.asarray(weights[i], dtype=np.float64).reshape(fan_out, fan_in)
            bias = np.asarray(biases[i], dtype=np.float64).reshape(fan_out)
        except (IndexError, TypeError, ValueError):
            raise ValueError(
                f"model checkpoint layer {i} needs a {fan_out}x{fan_in} weight "
                f"and {fan_out} biases"
            ) from None
        # the parsed lists hold about four times their arrays' bytes; free them now
        weights[i] = biases[i] = None
        layers.append((weight, bias))
    return ModelParams(layers), payload["seed"], payload["config_hash"]
