import json
import math

import numpy as np
import pytest

from codat.nn_engine import (
    LabeledBatch,
    ModelParams,
    OptimizerState,
    backward,
    cross_entropy_per_example,
    forward,
    init_model,
    init_optimizer,
    load_checkpoint,
    lr_at_epoch,
    params_digest,
    save_checkpoint,
    sgd_step,
)


def make_batch(rng, rows, dim, num_classes):
    feats = rng.uniform(0.1, 0.9, size=(rows, dim))
    labels = rng.integers(1, num_classes + 1, size=rows)
    return LabeledBatch(feats, labels)


# ---------------------------------------------------------------- types


def test_model_rejects_unchained_layer_dims():
    with pytest.raises(ValueError, match="chain"):
        ModelParams([(np.zeros((4, 3)), np.zeros(4)), (np.zeros((2, 5)), np.zeros(2))])


def test_model_rejects_nonfinite_entries():
    with pytest.raises(ValueError, match="finite"):
        ModelParams([(np.full((2, 2), np.nan), np.zeros(2))])


def test_batch_rejects_out_of_bounds_features():
    with pytest.raises(ValueError, match="0, 1"):
        LabeledBatch(np.array([[0.5, 1.2]]), np.array([1]))


def test_batch_rejects_zero_based_labels():
    with pytest.raises(ValueError, match="1-based"):
        LabeledBatch(np.array([[0.5, 0.5]]), np.array([0]))


def test_optimizer_state_validates_hyperparameters():
    model = init_model([2, 3], seed=0)
    with pytest.raises(ValueError):
        init_optimizer(model, learning_rate=0.0)
    with pytest.raises(ValueError):
        init_optimizer(model, learning_rate=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        init_optimizer(model, learning_rate=0.1, weight_decay=-1e-4)


# -------------------------------------------------------------- forward


def test_forward_zero_weights_gives_zero_logits():
    model = ModelParams([(np.zeros((3, 2)), np.zeros(3))])
    batch = LabeledBatch(np.array([[0.2, 0.7], [0.9, 0.1]]), np.array([1, 2]))
    np.testing.assert_array_equal(forward(model, batch), np.zeros((2, 3)))


def test_forward_identity_layer_passes_features_through():
    model = ModelParams([(np.eye(3), np.zeros(3))])
    feats = np.array([[0.1, 0.5, 0.9], [0.3, 0.3, 0.4]])
    batch = LabeledBatch(feats, np.array([1, 3]))
    np.testing.assert_allclose(forward(model, batch), feats, atol=1e-15)


def test_forward_rejects_feature_dim_mismatch():
    model = init_model([4, 3], seed=0)
    batch = LabeledBatch(np.full((2, 5), 0.5), np.array([1, 2]))
    with pytest.raises(ValueError, match="dim"):
        forward(model, batch)


def test_forward_seed_42_two_layer_regression_lock():
    # golden value captured from the first run after the finite-difference
    # checks below passed; guards against silent numeric drift
    model = init_model([3, 4, 2], seed=42)
    batch = LabeledBatch(np.array([[0.25, 0.5, 0.75]]), np.array([1]))
    expected = np.array([[0.041913746375376204, -0.25937555177781096]])
    np.testing.assert_allclose(forward(model, batch), expected, rtol=0, atol=1e-15)


# ------------------------------------------------------- cross-entropy


def test_cross_entropy_uniform_logits_is_log_num_classes():
    logits = np.zeros((3, 10))
    np.testing.assert_allclose(
        cross_entropy_per_example(logits, np.array([1, 5, 10])), math.log(10.0), atol=1e-12
    )


def test_cross_entropy_confident_correct_approaches_zero():
    logits = np.array([[80.0, 0.0, 0.0]])
    assert cross_entropy_per_example(logits, np.array([1]))[0] == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_reference_value():
    loss = cross_entropy_per_example(np.array([[2.0, 1.0, 0.0]]), np.array([1]))
    assert loss[0] == pytest.approx(0.40760596444438, abs=1e-12)


def test_cross_entropy_rejects_label_out_of_range():
    with pytest.raises(ValueError, match="labels"):
        cross_entropy_per_example(np.zeros((1, 3)), np.array([4]))


def test_cross_entropy_nonnegative_and_stable_for_large_logits():
    rng = np.random.default_rng(3)
    logits = rng.uniform(-500, 500, size=(40, 6))
    labels = rng.integers(1, 7, size=40)
    losses = cross_entropy_per_example(logits, labels)
    assert np.all(np.isfinite(losses))
    assert np.all(losses >= 0.0)


# ------------------------------------------------------------- backward


def test_backward_zero_loss_weights_zero_gradients():
    rng = np.random.default_rng(1)
    model = init_model([3, 5, 2], seed=1)
    batch = make_batch(rng, 4, 3, 2)
    grads, input_grads = backward(model, batch, np.zeros(4))
    for gw, gb in grads:
        np.testing.assert_array_equal(gw, 0.0)
        np.testing.assert_array_equal(gb, 0.0)
    np.testing.assert_array_equal(input_grads, 0.0)


def test_backward_scales_linearly_in_loss_weights():
    rng = np.random.default_rng(2)
    model = init_model([3, 5, 2], seed=2)
    batch = make_batch(rng, 4, 3, 2)
    weights = rng.uniform(0.1, 1.0, size=4)
    grads_one, inputs_one = backward(model, batch, weights)
    grads_two, inputs_two = backward(model, batch, 2.0 * weights)
    for (gw1, gb1), (gw2, gb2) in zip(grads_one, grads_two):
        np.testing.assert_allclose(gw2, 2.0 * gw1, rtol=1e-12)
        np.testing.assert_allclose(gb2, 2.0 * gb1, rtol=1e-12)
    np.testing.assert_allclose(inputs_two, 2.0 * inputs_one, rtol=1e-12)


def weighted_loss(model, feats, labels, weights):
    batch = LabeledBatch(feats, labels)
    losses = cross_entropy_per_example(forward(model, batch), labels)
    return float(np.dot(weights, losses))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        dims = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 4)) + 1)]
        model = init_model(dims, seed=int(rng.integers(10_000)))
        batch = make_batch(rng, 3, dims[0], dims[-1])
        weights = rng.uniform(0.2, 1.0, size=3)
        grads, input_grads = backward(model, batch, weights)
        h = 1e-4

        for layer_idx, (gw, gb) in enumerate(grads):
            for arr_idx, (param, grad) in enumerate(
                zip(model.layers[layer_idx], (gw, gb))
            ):
                flat = param.ravel()
                for pos in range(flat.size):
                    original = flat[pos]
                    flat[pos] = original + h
                    up = weighted_loss(model, batch.features, batch.labels, weights)
                    flat[pos] = original - h
                    down = weighted_loss(model, batch.features, batch.labels, weights)
                    flat[pos] = original
                    numeric = (up - down) / (2 * h)
                    analytic = grad.ravel()[pos]
                    assert abs(analytic - numeric) <= 1e-4 * (1.0 + abs(numeric))

        feats = batch.features.copy()
        for row in range(feats.shape[0]):
            for col in range(feats.shape[1]):
                original = feats[row, col]
                feats[row, col] = original + h
                up = weighted_loss(model, feats, batch.labels, weights)
                feats[row, col] = original - h
                down = weighted_loss(model, feats, batch.labels, weights)
                feats[row, col] = original
                numeric = (up - down) / (2 * h)
                assert abs(input_grads[row, col] - numeric) <= 1e-4 * (1.0 + abs(numeric))


def test_backward_rejects_mismatched_weights():
    model = init_model([2, 3], seed=0)
    batch = LabeledBatch(np.full((2, 2), 0.5), np.array([1, 2]))
    with pytest.raises(ValueError, match="weights"):
        backward(model, batch, np.ones(3))


# ------------------------------------------------------------ optimizer


def test_sgd_without_momentum_or_decay_is_plain_descent():
    model = ModelParams([(np.array([[1.0, 2.0]]), np.array([0.5]))])
    state = OptimizerState(
        [(np.zeros((1, 2)), np.zeros(1))], learning_rate=0.1, momentum=0.0, weight_decay=0.0
    )
    grads = [(np.array([[0.3, -0.2]]), np.array([1.0]))]
    sgd_step(model, grads, state)
    np.testing.assert_allclose(model.layers[0][0], [[1.0 - 0.03, 2.0 + 0.02]], atol=1e-15)
    np.testing.assert_allclose(model.layers[0][1], [0.4], atol=1e-15)


def test_sgd_zero_gradient_zero_buffer_is_fixed_point():
    model = ModelParams([(np.array([[1.0]]), np.array([2.0]))])
    state = OptimizerState(
        [(np.zeros((1, 1)), np.zeros(1))], learning_rate=0.1, momentum=0.9, weight_decay=0.0
    )
    sgd_step(model, [(np.zeros((1, 1)), np.zeros(1))], state)
    assert model.layers[0][0][0, 0] == 1.0
    assert model.layers[0][1][0] == 2.0


def test_sgd_hand_checked_single_step():
    # buffer = 0.9*0 + 0.5 + 2e-4*1.0 = 0.5002; param = 1.0 - 0.1*0.5002
    model = ModelParams([(np.array([[1.0]]), np.array([0.0]))])
    state = init_optimizer(model, learning_rate=0.1, momentum=0.9, weight_decay=2e-4)
    sgd_step(model, [(np.array([[0.5]]), np.array([0.0]))], state)
    assert model.layers[0][0][0, 0] == pytest.approx(0.94998, abs=1e-12)


def test_sgd_rejects_shape_mismatch():
    model = init_model([2, 3], seed=0)
    state = init_optimizer(model, learning_rate=0.1)
    with pytest.raises(ValueError, match="shape"):
        sgd_step(model, [(np.zeros((3, 3)), np.zeros(3))], state)


def test_sgd_preserves_parameter_shapes():
    rng = np.random.default_rng(9)
    model = init_model([4, 8, 3], seed=5)
    state = init_optimizer(model, learning_rate=0.05)
    shapes = [(w.shape, b.shape) for w, b in model.layers]
    grads = [(rng.normal(size=w.shape), rng.normal(size=b.shape)) for w, b in model.layers]
    sgd_step(model, grads, state)
    assert [(w.shape, b.shape) for w, b in model.layers] == shapes


# ------------------------------------------------------------- schedule


def test_lr_schedule_before_between_and_after_milestones():
    assert lr_at_epoch(0.1, 10, [75, 90], 0.1) == pytest.approx(0.1)
    assert lr_at_epoch(0.1, 80, [75, 90], 0.1) == pytest.approx(0.01)
    assert lr_at_epoch(0.1, 95, [75, 90], 0.1) == pytest.approx(0.001)


def test_lr_schedule_drops_at_the_milestone_itself():
    assert lr_at_epoch(0.1, 75, [75, 90], 0.1) == pytest.approx(0.01)


def test_lr_schedule_without_milestones_is_constant():
    assert lr_at_epoch(0.1, 999, [], 0.1) == pytest.approx(0.1)


def test_lr_schedule_rejects_unsorted_milestones():
    with pytest.raises(ValueError, match="sorted"):
        lr_at_epoch(0.1, 10, [90, 75], 0.1)


# ----------------------------------------------------------- determinism


def test_identical_seed_gives_bit_identical_trajectory():
    def run():
        rng = np.random.default_rng(123)
        model = init_model([3, 6, 2], seed=77)
        state = init_optimizer(model, learning_rate=0.1)
        digests = [params_digest(model)]
        for _ in range(5):
            batch = make_batch(rng, 8, 3, 2)
            grads, _ = backward(model, batch, np.full(8, 1.0 / 8.0))
            sgd_step(model, grads, state)
            digests.append(params_digest(model))
        return digests

    assert run() == run()


# ----------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_is_exact(tmp_path):
    model = init_model([3, 5, 2], seed=11)
    path = tmp_path / "model.json"
    save_checkpoint(model, path, seed=11, config_hash="abc123")
    loaded, seed, config_hash = load_checkpoint(path)
    assert (seed, config_hash) == (11, "abc123")
    assert params_digest(loaded) == params_digest(model)


def test_checkpoint_writes_are_byte_identical(tmp_path):
    model = init_model([2, 4, 2], seed=3)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(model, first, seed=3, config_hash="h")
    save_checkpoint(model, second, seed=3, config_hash="h")
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)


def test_checkpoint_rejects_non_float64_dtype(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(init_model([2, 2], seed=0), path, seed=0, config_hash="h")
    payload = json.loads(path.read_text())
    assert payload["dtype"] == "float64"
    payload["dtype"] = "float32"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="dtype"):
        load_checkpoint(path)
