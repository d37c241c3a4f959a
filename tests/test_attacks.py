import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codat import attacks
from codat.attacks import AttackConfig, feasible_box, pgd_attack
from codat.data import LabeledBatch
from codat.nn_engine import (
    ModelParams,
    backward,
    cross_entropy_per_example,
    forward,
    init_model,
    walk_buffers,
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


@pytest.mark.parametrize("steps", [2.5, True, np.float64(3.0), "3"])
def test_config_rejects_steps_that_are_not_integers(steps):
    with pytest.raises(ValueError, match="steps: expected an integer"):
        AttackConfig(epsilon=0.03, step_size=0.01, steps=steps)


@pytest.mark.parametrize("random_start", ["no", 1, None])
def test_config_rejects_random_start_that_is_not_a_bool(random_start):
    with pytest.raises(ValueError, match="random_start must be a bool"):
        AttackConfig(epsilon=0.03, step_size=0.01, steps=3, random_start=random_start)


@pytest.mark.parametrize(
    "name, settings",
    [
        ("epsilon", dict(epsilon=False, step_size=0.0075)),
        ("epsilon", dict(epsilon="0.03", step_size=0.0075)),
        ("step_size", dict(epsilon=0.6, step_size=True)),
    ],
)
def test_config_rejects_settings_that_are_not_real_numbers(name, settings):
    with pytest.raises(ValueError, match=f"{name}: expected a real number"):
        AttackConfig(steps=3, **settings)


def test_config_stores_numpy_integer_steps_as_int():
    cfg = AttackConfig(epsilon=0.03, step_size=0.01, steps=np.int64(3))
    assert type(cfg.steps) is int and type(cfg.as_dict()["steps"]) is int


@pytest.mark.parametrize(
    "epsilon, step_size", [(0.0, float("nan")), (0.0, float("inf")), (0.03, float("nan"))]
)
def test_config_rejects_non_finite_step_size(epsilon, step_size):
    # a zero radius never reads the step size, but the size is still recorded
    with pytest.raises(ValueError, match="step size must be finite"):
        AttackConfig(epsilon=epsilon, step_size=step_size, steps=1)


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


def clip_into_box(candidate, anchor, epsilon):
    return np.clip(candidate, *feasible_box(anchor, epsilon))


def reference_projection(candidate, anchor, epsilon):
    """The projection `pgd_attack` ran on every step before `feasible_box`.

    Clamp to the ball, clamp to [0, 1], then walk each coordinate that the
    rounding of fl(anchor +- epsilon) left outside the ball back toward its
    anchor one ulp at a time.
    """
    projected = np.clip(np.clip(candidate, anchor - epsilon, anchor + epsilon), 0.0, 1.0)
    for _ in range(64):
        outside = np.abs(projected - anchor) > epsilon
        if not np.any(outside):
            return projected
        projected[outside] = np.nextafter(projected[outside], anchor[outside])
    still_outside = np.abs(projected - anchor) > epsilon
    projected[still_outside] = anchor[still_outside]
    return projected


def test_projection_keeps_points_already_inside():
    anchor = np.array([[0.5, 0.5]])
    candidate = np.array([[0.52, 0.48]])
    np.testing.assert_array_equal(clip_into_box(candidate, anchor, 0.1), candidate)


def test_projection_clamps_to_ball_edge():
    out = clip_into_box(np.array([[1.0]]), np.array([[0.5]]), 0.1)
    assert out[0, 0] == pytest.approx(0.6, abs=1e-15)
    assert abs(out[0, 0] - 0.5) <= 0.1


def test_projection_feature_floor_binds_before_ball_floor():
    out = clip_into_box(np.array([[-0.5]]), np.array([[0.02]]), 0.1)
    assert out[0, 0] == 0.0


def test_projection_is_idempotent():
    rng = np.random.default_rng(4)
    anchor = rng.uniform(0, 1, size=(10, 5))
    candidate = anchor + rng.uniform(-0.5, 0.5, size=(10, 5))
    once = clip_into_box(candidate, anchor, 0.07)
    np.testing.assert_array_equal(clip_into_box(once, anchor, 0.07), once)


def test_box_repair_moves_a_rounded_bound():
    # fl(0.1 + 0.2) - 0.1 = 0.20000000000000004 > 0.2: the upper bound must
    # sit one ulp below fl(anchor + epsilon), or the property below could
    # pass without the repair doing anything
    anchor = np.array([0.1])
    hi = feasible_box(anchor, 0.2)[1]
    assert float(hi[0]) == np.nextafter(0.1 + 0.2, 0.0)
    assert abs(hi[0] - anchor[0]) <= 0.2 < abs((0.1 + 0.2) - anchor[0])
    np.testing.assert_array_equal(reference_projection(anchor + 0.2, anchor, 0.2), hi)


_EDGE_ANCHORS = st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5, 0.1])
_ANCHORS = st.one_of(
    _EDGE_ANCHORS,
    st.floats(min_value=0.0, max_value=1.0),
    st.builds(
        lambda u, k: u**k, st.floats(min_value=0.0, max_value=1.0), st.integers(2, 400)
    ),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    anchors=st.lists(_ANCHORS, min_size=1, max_size=12),
    epsilon=st.one_of(
        st.floats(min_value=1e-300, max_value=0.999),
        st.sampled_from([1e-300, 1e-17, 2.0**-53, 0.1, 0.2, 0.3, 0.5, 0.999]),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_clip_equals_the_reference_projection_bit_for_bit(anchors, epsilon, seed):
    anchor = np.array(anchors)
    minus, plus = anchor - epsilon, anchor + epsilon
    rng = np.random.default_rng(seed)
    candidates = [
        minus,
        plus,
        np.nextafter(minus, -np.inf),
        np.nextafter(plus, np.inf),
        anchor,
        np.zeros_like(anchor),
        np.ones_like(anchor),
        anchor + rng.uniform(-2.0 * epsilon, 2.0 * epsilon, size=anchor.shape),
        rng.uniform(-0.5, 1.5, size=anchor.shape),
    ]
    for candidate in candidates:
        expected = reference_projection(candidate, anchor, epsilon)
        got = clip_into_box(candidate, anchor, epsilon)
        # int64 views so that -0.0 and 0.0 count as different bytes
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


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


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    epsilon=st.floats(min_value=1e-12, max_value=0.999),
    step_fraction=st.floats(min_value=1e-3, max_value=1.0),
    steps=st.integers(1, 6),
    random_start=st.booleans(),
    rows=st.integers(1, 40),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_attack_output_is_exactly_feasible_property(
    epsilon, step_fraction, steps, random_start, rows, dim, seed
):
    rng = np.random.default_rng(seed)
    cfg = AttackConfig(epsilon, step_fraction * (2.0 * epsilon), steps, random_start)
    anchor = rng.uniform(0.0, 1.0, size=(rows, dim))
    # anchors sitting exactly on the box faces, where the two clamps meet
    edge = rng.integers(0, 3, size=anchor.shape)
    anchor[edge == 1] = 0.0
    anchor[edge == 2] = 1.0
    batch = LabeledBatch(anchor, rng.integers(1, 4, size=rows))
    out = pgd_attack(init_model([dim, 8, 3], seed=seed), batch, cfg, seed=seed)
    assert out.shape == anchor.shape
    assert float(np.max(np.abs(out - anchor))) <= epsilon
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
    loss_before = cross_entropy_per_example(forward(model, batch.features), labels)[0]
    loss_after = cross_entropy_per_example(
        forward(model, LabeledBatch(adversarial, labels).features), labels
    )[0]
    assert loss_after - loss_before == eps * float(np.sum(np.abs(weight_row)))


def test_attack_output_bytes_are_pinned():
    # hash taken when each attack step still ran the full `backward` (numpy
    # 2.4, x86-64); the input-gradient step must return the same bytes
    rng = np.random.default_rng(2024)
    model = init_model([6, 32, 32, 4], seed=5)
    batch = LabeledBatch(rng.uniform(0.0, 1.0, size=(48, 6)), rng.integers(1, 5, size=48))
    cfg = AttackConfig(epsilon=0.05, step_size=0.0125, steps=10)
    out = pgd_attack(model, batch, cfg, seed=17)
    assert out.dtype == np.float64 and out.shape == (48, 6)
    assert hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest() == (
        "ec4bf0079f57efdcc6eaa9511d005fc560d5f71e27a03e43c760fe4f51bba1a1"
    )


def fresh_walk_pgd(model, batch, cfg, seed):
    """`pgd_attack` as a loop of `backward` calls that each walk a fresh set of buffers."""
    lo, hi = feasible_box(batch.features, cfg.epsilon)
    rng = np.random.default_rng(seed)
    start = batch.features + rng.uniform(-cfg.epsilon, cfg.epsilon, size=batch.features.shape)
    perturbed = np.clip(start, lo, hi)
    for _ in range(cfg.steps):
        _, input_grads = backward(model, perturbed, batch.labels)
        perturbed = np.clip(perturbed + cfg.step_size * np.sign(input_grads), lo, hi)
    return perturbed


@pytest.mark.parametrize(
    "dims",
    [[2, 256, 256, 3], [2, 7, 3], [2, 3], [4, 16, 8, 5]],
    ids=["toy3", "hidden7", "linear", "two_hidden"],
)
@pytest.mark.parametrize("rows", [1, 28, 64, 512])
def test_attack_in_one_buffer_set_equals_fresh_walks_bit_for_bit(monkeypatch, dims, rows):
    rng = np.random.default_rng(rows + len(dims))
    sets = []

    def stale(model, count):
        # contents a fresh np.empty might hold: NaN outputs, arbitrary masks
        outputs, masks = walk_buffers(model, count)
        for output in outputs:
            output.fill(np.nan)
        for mask in masks:
            mask[...] = rng.random(mask.shape) < 0.5
        sets.append((outputs, masks))
        return outputs, masks

    monkeypatch.setattr(attacks, "walk_buffers", stale)
    model = init_model(dims, seed=rows)
    batch = random_batch(rng, rows, dims[0], dims[-1])
    cfg = AttackConfig(epsilon=0.05, step_size=0.0125, steps=10)
    expected = fresh_walk_pgd(model, batch, cfg, seed=rows)
    first = pgd_attack(model, batch, cfg, seed=rows)
    second = pgd_attack(model, batch, cfg, seed=rows)
    assert len(sets) == 2  # one set per attack, reused by all ten steps
    assert first.tobytes() == expected.tobytes()
    assert second.tobytes() == first.tobytes()
    for outputs, masks in sets:
        assert not any(np.shares_memory(first, buffer) for buffer in outputs + masks)


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
        start = clip_into_box(start, batch.features, cfg.epsilon)
        start_losses.append(
            float(np.mean(cross_entropy_per_example(
                forward(model, LabeledBatch(start, batch.labels).features), batch.labels
            )))
        )
        out = pgd_attack(model, batch, cfg, seed=batch_idx)
        attacked_losses.append(
            float(np.mean(cross_entropy_per_example(
                forward(model, LabeledBatch(out, batch.labels).features), batch.labels
            )))
        )
    assert np.mean(attacked_losses) >= np.mean(start_losses)


def test_ulp_walk_runs_a_fixed_number_of_times_per_attack(monkeypatch):
    calls = []
    repair = attacks._repair_ball

    def counted(*args):
        calls.append(args)
        return repair(*args)

    monkeypatch.setattr(attacks, "_repair_ball", counted)
    rng = np.random.default_rng(5)
    model = init_model([3, 6, 2], seed=0)
    batch = random_batch(rng, 8, 3, 2)
    per_attack = []
    for steps in (1, 6, 20):
        calls.clear()
        pgd_attack(model, batch, AttackConfig(0.05, 0.0125, steps), seed=1)
        per_attack.append(len(calls))
    assert per_attack == [2, 2, 2]


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
