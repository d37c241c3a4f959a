"""Dataset synthesis, loading, and deterministic batching.

Provides a controllable K-class Gaussian-mixture generator whose default
3-class preset places two class means close together (one hard pair, one
easy class), an IDX binary loader for MNIST-style corpora, a numeric CSV
loader, and a seeded iterator of `LabeledBatch` minibatches, all with
features in [0, 1] as the attack module requires.  The generator and the
CSV loader scale each split on its own bounds, not on the train split's.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabeledBatch:
    """Feature rows in [0, 1] with 1-based integer class labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        # at least one row and at least one feature column
        if feats.ndim != 2 or feats.size == 0:
            raise ValueError(f"features must be a nonempty 2-d array, got shape {feats.shape}")
        if labels.shape != (feats.shape[0],):
            raise ValueError(f"labels shape {labels.shape} does not match {feats.shape[0]} rows")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        if np.min(labels) < 1:
            raise ValueError("labels are 1-based; smallest allowed value is 1")
        # written so that NaN, which fails every comparison, fails the check
        if not (np.min(feats) >= 0.0 and np.max(feats) <= 1.0):
            raise ValueError(
                f"features must be finite and lie in [0, 1], got range "
                f"[{np.min(feats)}, {np.max(feats)}]"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels.astype(np.int64))

    @property
    def size(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True)
class Dataset(LabeledBatch):
    """Immutable labeled split: a validated `LabeledBatch` plus split and provenance."""

    split: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")
        # own the feature rows, and hold the labels in the narrowest unsigned
        # type of the largest label (uint8 for up to 255 classes): a split is
        # kept whole for a run, while every batch drawn from it is cast back
        # to int64 by LabeledBatch, so batch arithmetic is unchanged
        feats = self.features.copy()
        labels = self.labels.astype(np.min_scalar_type(int(np.max(self.labels))))
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def num_classes(self) -> int:
        return int(np.max(self.labels))

    @property
    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes + 1)[1:]


@dataclass(frozen=True)
class MixtureSpec:
    """Isotropic Gaussian mixture: one component per class, shared spread.

    `means` holds one row per class, so its shape gives the class count
    and the feature dimension.
    """

    means: np.ndarray
    spread: float
    samples_per_class: int
    seed: int

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        if means.ndim != 2:
            raise ValueError(f"means must be 2-d, one row per class, got shape {means.shape}")
        if means.shape[0] == 0:
            raise ValueError(f"means must hold at least one class row, got shape {means.shape}")
        for a in range(len(means)):
            for b in range(a + 1, len(means)):
                if np.array_equal(means[a], means[b]):
                    raise ValueError(f"class means {a + 1} and {b + 1} coincide")
        if isinstance(self.spread, bool) or not 0.0 < self.spread < np.inf:
            raise ValueError(f"spread must be positive and finite, got {self.spread}")
        for name in ("samples_per_class", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name}: expected an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.samples_per_class < 1:
            raise ValueError("need at least one sample per class")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        means = means.copy()
        means.flags.writeable = False
        object.__setattr__(self, "means", means)


def toy3_spec(samples_per_class: int = 500, seed: int = 0, spread: float = 1.0) -> MixtureSpec:
    """Default 3-class preset with unequal difficulty.

    Class 2 sits between the other two means, so it borders both and is
    the hardest; classes 1 and 3 each border only class 2.
    """
    means = np.array([[0.0, 0.0], [2.3, 2.0], [4.7, 0.1]])
    return MixtureSpec(means=means, spread=spread, samples_per_class=samples_per_class, seed=seed)


def gen_gaussian_mixture(spec: MixtureSpec, split: str = "train") -> Dataset:
    """Sample the mixture and min-max rescale it to [0, 1] on this split's bounds.

    The bounds are the smallest and largest raw value over all features,
    so a train and a test split map one raw point to slightly different rows.
    """
    rng = np.random.default_rng(spec.seed)
    blocks, labels = [], []
    for cls, mean in enumerate(spec.means):
        blocks.append(
            rng.normal(loc=mean, scale=spec.spread, size=(spec.samples_per_class, mean.size))
        )
        labels.append(np.full(spec.samples_per_class, cls + 1, dtype=np.int64))
    raw = np.vstack(blocks)
    low, high = float(np.min(raw)), float(np.max(raw))
    # fl(x - low) <= fl(high - low), and rounding keeps the quotient monotone,
    # so the features land in [0, 1] with the bounds at exactly 0.0 and 1.0
    scaled = (raw - low) / (high - low)
    provenance = {
        "source": "gaussian_mixture",
        "seed": spec.seed,
        "spread": spec.spread,
        "means": spec.means.tolist(),
        "samples_per_class": spec.samples_per_class,
        "bounds": [low, high],
        "augmentation": "none",
    }
    return Dataset(scaled, np.concatenate(labels), split, provenance)


def _read_exact(fh, count: int, path, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError(
            f"truncated IDX file {path}: expected {count} bytes for {what}, got {len(data)}"
        )
    return data


def load_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Load an MNIST-style IDX image/label pair; pixels scaled into [0, 1].

    File labels are 0-based on disk and shifted to the package's 1-based
    convention; the shift is recorded in provenance.
    """
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(
                f"magic mismatch in {images_path}: expected {IDX_IMAGES_MAGIC:#010x}, "
                f"got {magic:#010x}"
            )
        pixel_bytes = _read_exact(fh, count * rows * cols, images_path, f"{count} images")
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(
                f"magic mismatch in {labels_path}: expected {IDX_LABELS_MAGIC:#010x}, "
                f"got {magic:#010x}"
            )
        label_bytes = _read_exact(fh, label_count, labels_path, f"{label_count} labels")
    if count != label_count:
        raise ValueError(
            f"count mismatch: {count} images in {images_path} but "
            f"{label_count} labels in {labels_path}"
        )
    features = np.frombuffer(pixel_bytes, dtype=np.uint8).reshape(count, rows * cols) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64) + 1
    provenance = {
        "source": "idx",
        "images_path": str(images_path),
        "labels_path": str(labels_path),
        "image_shape": [int(rows), int(cols)],
        "pixel_scale": 255,
        "label_shift": 1,
        "augmentation": "none",
    }
    return Dataset(features, labels, split, provenance)


def load_csv(path, num_classes: int | None = None, split: str = "train") -> Dataset:
    """Load a rectangular numeric CSV whose last column is the integer label.

    Feature columns already inside [0, 1] pass through unchanged, so an
    emitted dataset reloads bit-exactly; columns outside that range are
    min-max rescaled, and constant columns collapse to 0.0.  The applied
    per-column transform is recorded in provenance.
    """
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if rows and len(row) != len(rows[0]):
                raise ValueError(
                    f"ragged CSV {path}: line {line_no} has {len(row)} cells, "
                    f"expected {len(rows[0])}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise ValueError(f"non-numeric cell in {path} line {line_no}: {exc}") from None
            bad = [cell for cell, value in zip(row, values) if not math.isfinite(value)]
            if bad:
                raise ValueError(f"non-finite cell {bad[0]!r} in {path} line {line_no}")
            rows.append(values)
    if not rows:
        raise ValueError(f"empty CSV {path}")
    table = np.asarray(rows, dtype=np.float64)
    if table.shape[1] < 2:
        raise ValueError(f"CSV {path} has no feature columns, only the label column")
    raw_labels = table[:, -1]
    if np.any(raw_labels != np.round(raw_labels)):
        raise ValueError(f"label column of {path} contains non-integral values")
    labels = raw_labels.astype(np.int64)
    if np.min(labels) < 1:
        raise ValueError(f"labels in {path} must be 1-based, found {np.min(labels)}")
    if num_classes is not None and np.max(labels) > num_classes:
        raise ValueError(
            f"label {np.max(labels)} in {path} exceeds declared class count {num_classes}"
        )
    features = table[:, :-1]
    transforms = []
    for col in range(features.shape[1]):
        column = features[:, col]
        low, high = float(np.min(column)), float(np.max(column))
        if low == high:
            features[:, col] = 0.0
            transforms.append({"column": col, "rule": "constant", "value": low})
        elif 0.0 <= low and high <= 1.0:
            transforms.append({"column": col, "rule": "identity"})
        else:
            features[:, col] = (column - low) / (high - low)
            transforms.append({"column": col, "rule": "minmax", "low": low, "high": high})
    provenance = {
        "source": "csv",
        "path": str(path),
        "normalization": transforms,
        "augmentation": "none",
    }
    return Dataset(features, labels, split, provenance)


def save_csv(dataset: Dataset, path) -> None:
    """Write features plus a final label column, loadable by `load_csv`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(v) for v in row.tolist()] + [int(label)])


def batch_iter(dataset: Dataset, batch_size: int, seed, epoch: int = 0):
    """Yield shuffled LabeledBatch minibatches covering the dataset exactly once.

    The permutation is a pure function of (seed, epoch); the final short
    batch is emitted rather than dropped.  Each batch is its rows' one
    validated wrapper: the network and the trainer take its arrays as they are.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be at least 1, got {batch_size}")
    order = np.random.default_rng((seed, epoch)).permutation(dataset.size)
    for start in range(0, dataset.size, batch_size):
        rows = order[start : start + batch_size]
        yield LabeledBatch(dataset.features[rows], dataset.labels[rows])
