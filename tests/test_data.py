import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codat.attacks import AttackConfig
from codat.data import (
    Dataset,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    LabeledBatch,
    MixtureSpec,
    batch_iter,
    gen_gaussian_mixture,
    load_csv,
    load_idx,
    save_csv,
    toy3_spec,
)
from codat.nn_engine import backward, cross_entropy_per_example, forward, init_model, sgd_step
from codat.metrics import evaluate
from codat.training import TrainConfig, train


# ---------------------------------------------------------------- dataset


def test_dataset_rejects_out_of_range_features():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        Dataset(np.array([[1.5, 0.2]]), np.array([1]), "train")


@pytest.mark.parametrize(
    "features, match",
    [
        pytest.param(np.array([[0.5, np.nan], [0.2, 0.3]]), "finite", id="nan"),
        pytest.param(np.array([[0.5, np.inf], [0.2, 0.3]]), "finite", id="inf"),
        pytest.param(np.array([[0.5, -np.inf], [0.2, 0.3]]), "finite", id="-inf"),
        pytest.param(np.empty((2, 0)), r"nonempty 2-d array, got shape \(2, 0\)", id="no_column"),
    ],
)
def test_dataset_rejects_non_finite_features(features, match):
    with pytest.raises(ValueError, match=match):
        Dataset(features, np.array([1, 2]), "train")


def test_dataset_rejects_zero_based_labels():
    with pytest.raises(ValueError, match="1-based"):
        Dataset(np.array([[0.5, 0.5]]), np.array([0]), "train")


def test_dataset_rejects_unknown_split():
    with pytest.raises(ValueError, match="split"):
        Dataset(np.array([[0.5, 0.5]]), np.array([1]), "validation")


def test_dataset_class_counts():
    ds = Dataset(np.full((5, 2), 0.5), np.array([1, 2, 2, 3, 3]), "train")
    np.testing.assert_array_equal(ds.class_counts, [1, 2, 2])
    assert ds.num_classes == 3


# ---------------------------------------------------------------- mixture


def test_mixture_rejects_coinciding_means():
    with pytest.raises(ValueError, match="coincide"):
        MixtureSpec(np.array([[1.0, 1.0], [1.0, 1.0]]), 1.0, 10, 0)


def test_mixture_rejects_nonpositive_spread():
    with pytest.raises(ValueError, match="spread"):
        MixtureSpec(np.array([[0.0, 0.0], [1.0, 1.0]]), 0.0, 10, 0)


@pytest.mark.parametrize("spread", [float("nan"), float("inf")])
def test_mixture_rejects_non_finite_spread(spread):
    with pytest.raises(ValueError, match="spread must be positive and finite"):
        MixtureSpec(np.array([[0.0, 0.0], [1.0, 1.0]]), spread, 10, 0)


def test_mixture_rejects_bool_spread():
    with pytest.raises(ValueError, match="spread must be positive and finite, got True"):
        MixtureSpec(np.array([[0.0, 0.0], [1.0, 1.0]]), True, 10, 0)


@pytest.mark.parametrize("means", [np.array([0.0, 1.0]), np.zeros((2, 2, 2))])
def test_mixture_rejects_means_that_are_not_2d(means):
    with pytest.raises(ValueError, match="means must be 2-d"):
        MixtureSpec(means, 1.0, 10, 0)


@pytest.mark.parametrize(
    "name, value", [("samples_per_class", True), ("samples_per_class", 2.5), ("seed", True), ("seed", 1.5)]
)
def test_mixture_rejects_integer_fields_that_are_not_integers(name, value):
    fields = dict(means=np.array([[0.0, 0.0], [1.0, 1.0]]), spread=1.0, samples_per_class=10, seed=0)
    with pytest.raises(ValueError, match=f"{name}: expected an integer"):
        MixtureSpec(**{**fields, name: value})


def test_mixture_rejects_means_without_rows():
    # gen_gaussian_mixture would fail in numpy: "need at least one array to concatenate"
    with pytest.raises(ValueError, match="means must hold at least one class row"):
        MixtureSpec(np.zeros((0, 2)), 1.0, 3, 0)


def test_mixture_rejects_negative_seed():
    # default_rng would fail on it: "expected non-negative integer"
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        MixtureSpec(np.array([[0.0, 0.0], [1.0, 1.0]]), 1.0, 3, -1)


def test_mixture_stores_numpy_integer_fields_as_int():
    spec = MixtureSpec(np.array([[0.0], [1.0]]), 1.0, np.int64(3), np.uint8(4))
    assert type(spec.samples_per_class) is int and type(spec.seed) is int
    assert gen_gaussian_mixture(spec).size == 6


def test_mixture_class_counts_match_spec():
    ds = gen_gaussian_mixture(toy3_spec(samples_per_class=50, seed=1))
    np.testing.assert_array_equal(ds.class_counts, [50, 50, 50])


def test_mixture_is_deterministic_per_seed():
    a = gen_gaussian_mixture(toy3_spec(samples_per_class=20, seed=5))
    b = gen_gaussian_mixture(toy3_spec(samples_per_class=20, seed=5))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_mixture_features_span_unit_interval():
    ds = gen_gaussian_mixture(toy3_spec(samples_per_class=100, seed=2))
    assert float(np.min(ds.features)) == 0.0
    assert float(np.max(ds.features)) == 1.0
    low, high = ds.provenance["bounds"]
    assert low < high


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(1e-6, 1e3),
    classes=st.integers(2, 5),
    dim=st.integers(1, 3),
    per_class=st.integers(1, 40),
)
def test_mixture_features_reach_exactly_zero_and_one(seed, spread, classes, dim, per_class):
    # the bounds map to exactly 0.0 and 1.0 and rounding keeps the rest
    # between them, so the scaled features need no clip
    means = np.random.default_rng(seed).normal(scale=5.0, size=(classes, dim))
    ds = gen_gaussian_mixture(MixtureSpec(means, spread, per_class, seed))
    assert float(np.min(ds.features)) == 0.0
    assert float(np.max(ds.features)) == 1.0


def test_mixture_tiny_spread_collapses_classes_onto_rescaled_means():
    spec = toy3_spec(samples_per_class=10, seed=3, spread=1e-9)
    ds = gen_gaussian_mixture(spec)
    low, high = ds.provenance["bounds"]
    for cls in range(1, 4):
        rescaled_mean = (spec.means[cls - 1] - low) / (high - low)
        rows = ds.features[ds.labels == cls]
        np.testing.assert_allclose(rows, np.tile(rescaled_mean, (rows.shape[0], 1)), atol=1e-6)


def test_toy3_preset_makes_one_class_pair_hard_for_a_linear_model():
    # natural training of the plain linear model; the overlapping pair of
    # class means must force worst-class accuracy below average accuracy
    train = gen_gaussian_mixture(toy3_spec(samples_per_class=500, seed=0))
    model = init_model([2, 3], seed=0)
    buffers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in model.layers]
    for epoch in range(20):
        for batch in batch_iter(train, 64, seed=0, epoch=epoch):
            grads, _ = backward(model, batch.features, batch.labels, np.full(batch.size, 1.0 / batch.size))
            sgd_step(model, grads, buffers, 0.1, 0.9, 2e-4)
    predictions = np.argmax(forward(model, train.features), axis=1) + 1
    per_class = [
        float(np.mean(predictions[train.labels == cls] == cls)) for cls in (1, 2, 3)
    ]
    average = float(np.mean(predictions == train.labels))
    assert min(per_class) < average


# -------------------------------------------------------------------- idx


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, image_magic=IDX_IMAGES_MAGIC,
                   label_magic=IDX_LABELS_MAGIC, label_count=None):
    count = len(pixels) // (rows * cols)
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(struct.pack(">IIII", image_magic, count, rows, cols) + bytes(pixels))
    labels_path.write_bytes(
        struct.pack(">II", label_magic, label_count if label_count is not None else len(labels))
        + bytes(labels)
    )
    return images_path, labels_path


def test_idx_round_trip_of_hand_built_fixture(tmp_path):
    images_path, labels_path = write_idx_pair(
        tmp_path, pixels=[0, 128, 255, 64, 255, 0, 0, 0], labels=[0, 2]
    )
    ds = load_idx(images_path, labels_path)
    expected = np.array([[0.0, 128 / 255, 1.0, 64 / 255], [1.0, 0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(ds.features, expected)
    np.testing.assert_array_equal(ds.labels, [1, 3])
    assert ds.provenance["label_shift"] == 1


def test_idx_labels_are_held_in_the_narrowest_unsigned_type(tmp_path):
    # file labels 0 and 255 become 1 and 256, which needs 16 bits
    images_path, labels_path = write_idx_pair(tmp_path, pixels=[0] * 8, labels=[0, 255])
    ds = load_idx(images_path, labels_path)
    assert ds.labels.dtype == np.uint16
    np.testing.assert_array_equal(ds.labels, [1, 256])
    assert ds.num_classes == 256
    assert ds.class_counts[0] == ds.class_counts[255] == 1


def test_idx_normalization_endpoints(tmp_path):
    images_path, labels_path = write_idx_pair(tmp_path, pixels=[255, 0, 0, 0], labels=[1])
    ds = load_idx(images_path, labels_path)
    assert ds.features[0, 0] == 1.0
    assert ds.features[0, 1] == 0.0


def test_idx_truncated_images_error_names_byte_counts(tmp_path):
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 2, 2) + bytes([1, 2, 3]))
    labels_path.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 2) + bytes([0, 1]))
    with pytest.raises(ValueError, match="expected 8 bytes.*got 3"):
        load_idx(images_path, labels_path)


def test_idx_magic_mismatch_is_reported(tmp_path):
    images_path, labels_path = write_idx_pair(
        tmp_path, pixels=[0, 0, 0, 0], labels=[0], image_magic=0x00000999
    )
    with pytest.raises(ValueError, match="magic mismatch"):
        load_idx(images_path, labels_path)


def test_idx_count_mismatch_is_reported(tmp_path):
    images_path, labels_path = write_idx_pair(
        tmp_path, pixels=[0, 0, 0, 0], labels=[0, 1], label_count=2
    )
    with pytest.raises(ValueError, match="count mismatch"):
        load_idx(images_path, labels_path)


# -------------------------------------------------------------------- csv


def test_csv_normalizes_wide_columns_and_passes_unit_columns_through(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("10,0.5,1\n20,0.25,2\n30,0.75,1\n")
    ds = load_csv(path)
    np.testing.assert_allclose(ds.features[:, 0], [0.0, 0.5, 1.0], atol=1e-15)
    np.testing.assert_array_equal(ds.features[:, 1], [0.5, 0.25, 0.75])
    np.testing.assert_array_equal(ds.labels, [1, 2, 1])
    rules = {t["column"]: t["rule"] for t in ds.provenance["normalization"]}
    assert rules == {0: "minmax", 1: "identity"}


def test_csv_constant_column_collapses_to_zero(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("5,0.2,1\n5,0.4,2\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.features[:, 0], [0.0, 0.0])


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2,1\n1,2\n")
    with pytest.raises(ValueError, match="ragged"):
        load_csv(path)


def test_csv_rejects_non_numeric_cells(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,apple,1\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_cells_naming_file_and_line(tmp_path, cell):
    # must fail at load time: min-max rescaling would turn the column into
    # NaN features, which surface only later as a diverged attack
    path = tmp_path / "data.csv"
    path.write_text(f"2.0,0.5,1\n\n{cell},0.25,2\n")
    with pytest.raises(ValueError, match=f"non-finite cell '{cell}' in .*data.csv line 3"):
        load_csv(path)


def test_csv_without_feature_columns_names_the_file(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("1\n2\n3\n")
    with pytest.raises(ValueError, match=r"CSV \S*labels\.csv has no feature columns"):
        load_csv(path)


def test_csv_rejects_fractional_labels(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0.5,1.5\n")
    with pytest.raises(ValueError, match="non-integral"):
        load_csv(path)


def test_csv_rejects_labels_beyond_declared_range(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0.5,4\n0.2,1\n")
    with pytest.raises(ValueError, match="declared class count"):
        load_csv(path, num_classes=3)


def test_csv_emitted_dataset_round_trips_bit_exactly(tmp_path):
    original = gen_gaussian_mixture(toy3_spec(samples_per_class=25, seed=9))
    path = tmp_path / "emitted.csv"
    save_csv(original, path)
    reloaded = load_csv(path)
    np.testing.assert_array_equal(reloaded.features, original.features)
    np.testing.assert_array_equal(reloaded.labels, original.labels)


# ---------------------------------------------------------------- batching


def fixed_dataset(n=10):
    rng = np.random.default_rng(0)
    return Dataset(rng.uniform(0, 1, size=(n, 3)), rng.integers(1, 4, size=n), "train")


def test_batching_whole_set_when_batch_size_covers_it():
    ds = fixed_dataset(6)
    batches = list(batch_iter(ds, 100, seed=0))
    assert len(batches) == 1
    assert batches[0].size == 6


def test_batching_is_deterministic_per_seed_and_epoch():
    ds = fixed_dataset(10)
    first = [b.features for b in batch_iter(ds, 4, seed=3, epoch=2)]
    second = [b.features for b in batch_iter(ds, 4, seed=3, epoch=2)]
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
    shifted = np.concatenate([b.features for b in batch_iter(ds, 4, seed=3, epoch=3)])
    assert np.any(shifted != np.concatenate(first))


def test_batching_emits_final_short_batch_and_partitions_exactly():
    ds = fixed_dataset(10)
    batches = list(batch_iter(ds, 4, seed=1))
    assert [b.size for b in batches] == [4, 4, 2]
    all_labels = np.concatenate([b.labels for b in batches])
    assert sorted(all_labels.tolist()) == sorted(ds.labels.tolist())
    all_rows = np.concatenate([b.features for b in batches])
    reference = ds.features[np.lexsort(ds.features.T)]
    np.testing.assert_array_equal(all_rows[np.lexsort(all_rows.T)], reference)


def test_toy3_labels_are_uint8_and_batches_cast_them_to_int64():
    ds = gen_gaussian_mixture(toy3_spec(samples_per_class=20, seed=0))
    assert ds.labels.dtype == np.uint8
    assert not ds.labels.flags.writeable
    np.testing.assert_array_equal(ds.class_counts, [20, 20, 20])
    assert all(b.labels.dtype == np.int64 for b in batch_iter(ds, 16, seed=2))


def test_batching_rejects_batch_size_below_one():
    with pytest.raises(ValueError, match="batch size"):
        list(batch_iter(fixed_dataset(), 0, seed=0))


# ------------------------------------------------------------ batch wrappers


def test_one_labeled_batch_per_training_and_evaluation_batch(monkeypatch):
    # the attack, the network and the trainer take a batch's arrays as they are
    train_data = gen_gaussian_mixture(toy3_spec(samples_per_class=40, seed=0))
    test_data = gen_gaussian_mixture(toy3_spec(samples_per_class=400, seed=1), split="test")
    made = []
    check = LabeledBatch.__post_init__

    def counted(self):
        made.append(self.size)
        check(self)

    monkeypatch.setattr(LabeledBatch, "__post_init__", counted)
    config = TrainConfig(method="codat", epochs=1, batch_size=32, base_lr=0.1,
                         attack=AttackConfig(0.05, 0.0125, 10), seed=0, hidden_dims=(16,))
    model, _ = train(config, train_data)
    assert made == [32, 32, 32, 24]
    made.clear()
    evaluate(model, test_data, attack=AttackConfig(0.05, 0.0125, 20), seed=0)
    assert made == [512, 512, 176]
