import numpy as np
import pytest

from codat.attacks import AttackConfig, pgd_attack, project_linf
from codat.nn_engine import (
    LabeledBatch,
    ModelParams,
    cross_entropy_per_example,
    forward,
    init_model,
)


def random_batch(rng, rows, dim, num_classes):
    return LabeledBatch(
        rng.uniform(0.0, 1.0, size=(rows, dim)), rng.integers(1, num_classes + 1, size=rows)
    )


# ---------------------------------------------------------------- config


def test_config_rejects_radius_outside_unit_interval():
    with pytest.raises(ValueError):
        AttackConfig(epsilon=1.0, step_size=0.1, steps=1)
    with pytest.raises(ValueError):
        AttackConfig(epsilon=-0.1, step_size=0.1, steps=1)


def test_config_rejects_step_larger_than_ball_diameter():
    with pytest.raises(ValueError, match="diameter"):
        AttackConfig(epsilon=0.03, step_size=0.1, steps=1)


def test_config_rejects_zero_steps():
    with pytest.raises(ValueError):
        AttackConfig(epsilon=0.03, step_size=0.01, steps=0)


def test_config_allows_zero_radius():
    assert AttackConfig(epsilon=0.0, step_size=0.0, steps=1).epsilon == 0.0


def test_config_as_dict_names_all_four_settings():
    cfg = AttackConfig(epsilon=0.03, step_size=0.0075, steps=10, random_start=False)
    assert cfg.as_dict() == {
        "epsilon": 0.03,
        "step_size": 0.0075,
        "steps": 10,
        "random_start": False,
    }


# ------------------------------------------------------------ projection


def test_projection_keeps_points_already_inside():
    anchor = np.array([[0.5, 0.5]])
    candidate = np.array([[0.52, 0.48]])
    np.testing.assert_array_equal(project_linf(candidate, anchor, 0.1), candidate)


def test_projection_clamps_to_ball_edge():
    out = project_linf(np.array([[1.0]]), np.array([[0.5]]), 0.1)
    assert out[0, 0] == pytest.approx(0.6, abs=1e-15)


def test_projection_feature_floor_binds_before_ball_floor():
    out = project_linf(np.array([[-0.5]]), np.array([[0.02]]), 0.1)
    assert out[0, 0] == 0.0


def test_projection_is_idempotent():
    rng = np.random.default_rng(4)
    anchor = rng.uniform(0, 1, size=(10, 5))
    candidate = anchor + rng.uniform(-0.5, 0.5, size=(10, 5))
    once = project_linf(candidate, anchor, 0.07)
    np.testing.assert_array_equal(project_linf(once, anchor, 0.07), once)


def test_projection_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        project_linf(np.zeros((2, 3)), np.zeros((2, 4)), 0.1)


# ---------------------------------------------------------------- attack


def test_zero_radius_attack_is_the_identity():
    rng = np.random.default_rng(0)
    model = init_model([4, 8, 3], seed=1)
    batch = random_batch(rng, 6, 4, 3)
    out = pgd_attack(model, batch, AttackConfig(epsilon=0.0, step_size=0.0, steps=5), seed=9)
    np.testing.assert_array_equal(out, batch.features)


def test_attack_output_is_exactly_feasible():
    rng = np.random.default_rng(21)
    cfg = AttackConfig(epsilon=0.03, step_size=0.0075, steps=10)
    for trial in range(30):
        model = init_model([5, 12, 4], seed=trial)
        batch = random_batch(rng, 25, 5, 4)
        out = pgd_attack(model, batch, cfg, seed=trial)
        # exact comparisons on purpose: feasibility carries no tolerance
        assert float(np.max(np.abs(out - batch.features))) <= cfg.epsilon
        assert float(np.min(out)) >= 0.0
        assert float(np.max(out)) <= 1.0


def test_attack_is_deterministic_per_seed():
    rng = np.random.default_rng(2)
    model = init_model([3, 6, 2], seed=0)
    batch = random_batch(rng, 8, 3, 2)
    cfg = AttackConfig(epsilon=0.05, step_size=0.0125, steps=5)
    first = pgd_attack(model, batch, cfg, seed=123)
    second = pgd_attack(model, batch, cfg, seed=123)
    np.testing.assert_array_equal(first, second)
    different = pgd_attack(model, batch, cfg, seed=124)
    assert np.any(different != first)


def test_single_sign_step_on_saturated_linear_model_moves_loss_by_radius_times_l1():
    # Two-class linear model with logit margins so large that softmax
    # saturates to exactly 1.0 in float64, making cross-entropy exactly
    # linear over the ball: loss(x') - loss(x) = eps * ||grad||_1 with all
    # quantities (powers of two) exactly representable.
    weight_row = np.array([1024.0, -512.0, 256.0])
    model = ModelParams([(np.vstack([np.zeros(3), weight_row]), np.zeros(2))])
    features = np.array([[0.5, 0.5, 0.5]])
    labels = np.array([1])
    batch = LabeledBatch(features, labels)
    eps = 0.0625
    cfg = AttackConfig(epsilon=eps, step_size=eps, steps=1, random_start=False)
    adversarial = pgd_attack(model, batch, cfg, seed=0)
    loss_before = cross_entropy_per_example(forward(model, batch), labels)[0]
    loss_after = cross_entropy_per_example(
        forward(model, LabeledBatch(adversarial, labels)), labels
    )[0]
    assert loss_after - loss_before == eps * float(np.sum(np.abs(weight_row)))


def test_attack_no_weaker_than_its_random_start_on_average():
    rng = np.random.default_rng(77)
    model = init_model([4, 10, 3], seed=3)
    cfg = AttackConfig(epsilon=0.05, step_size=0.0125, steps=7)
    start_losses, attacked_losses = [], []
    for batch_idx in range(100):
        batch = random_batch(rng, 10, 4, 3)
        # replay the attack's documented initialization: uniform over the
        # epsilon cube from the same seed, clamped into the feasible set
        replay = np.random.default_rng(batch_idx)
        start = batch.features + replay.uniform(
            -cfg.epsilon, cfg.epsilon, size=batch.features.shape
        )
        start = project_linf(start, batch.features, cfg.epsilon)
        start_losses.append(
            float(np.mean(cross_entropy_per_example(
                forward(model, LabeledBatch(start, batch.labels)), batch.labels
            )))
        )
        out = pgd_attack(model, batch, cfg, seed=batch_idx)
        attacked_losses.append(
            float(np.mean(cross_entropy_per_example(
                forward(model, LabeledBatch(out, batch.labels)), batch.labels
            )))
        )
    assert np.mean(attacked_losses) >= np.mean(start_losses)


def test_attack_aborts_on_non_finite_gradient():
    model = ModelParams(
        [(np.full((4, 2), 1e200), np.zeros(4)), (np.full((2, 4), 1e200), np.zeros(2))]
    )
    batch = LabeledBatch(np.full((3, 2), 0.5), np.array([1, 2, 1]))
    cfg = AttackConfig(epsilon=0.05, step_size=0.0125, steps=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            pgd_attack(model, batch, cfg, seed=0)


def test_attack_rejects_dimension_mismatch():
    model = init_model([4, 3], seed=0)
    batch = LabeledBatch(np.full((2, 6), 0.5), np.array([1, 2]))
    with pytest.raises(ValueError, match="dim"):
        pgd_attack(model, batch, AttackConfig(0.05, 0.0125, 3), seed=0)
