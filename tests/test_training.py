"""Tests for the training loop, its four step functions and their shared batch reductions."""

import numpy as np
import pytest

from codat.attacks import AttackConfig
from codat.data import Dataset, batch_iter, gen_gaussian_mixture, toy3_spec
from codat.dro_core import (
    AmbiguityConfig,
    ClassRiskVector,
    ProbabilityDistribution,
    uniform_distribution,
    worst_case_distribution,
)
from codat.nn_engine import (
    LabeledBatch,
    backward,
    cross_entropy_per_example,
    forward,
    init_model,
    lr_at_epoch,
    params_digest,
)
from codat.training import (
    STEP_FNS,
    VALID_METHODS,
    TrainConfig,
    TrainHistory,
    class_avg_loss,
    codat_batch_loss,
    config_fingerprint,
    train,
    _history_header,
)

NO_ATTACK = AttackConfig(epsilon=0.0, step_size=0.0, steps=1, random_start=False)
SMALL_ATTACK = AttackConfig(epsilon=0.03, step_size=0.0075, steps=2, random_start=True)


def small_dataset(per_class=40, seed=3):
    return gen_gaussian_mixture(toy3_spec(samples_per_class=per_class, seed=seed))


def make_config(method, **overrides):
    base = dict(
        method=method,
        epochs=3,
        batch_size=120,
        base_lr=0.05,
        attack=SMALL_ATTACK,
        seed=5,
        hidden_dims=(8,),
    )
    base.update(overrides)
    return TrainConfig(**base)


def run_step(method, losses, labels, num_classes, **overrides):
    """One STEP_FNS call with the batch statistics the training loop passes."""
    risks, present = class_avg_loss(losses, labels, num_classes)
    counts = np.bincount(labels - 1, minlength=num_classes)
    config = make_config(method, **overrides)
    return STEP_FNS[method](config, losses, labels, risks, present, counts)


class TestTrainConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            make_config("adamw")

    def test_weighted_requires_weights_and_others_forbid_them(self):
        with pytest.raises(ValueError, match="fixed_weights"):
            make_config("weighted")
        with pytest.raises(ValueError, match="fixed_weights"):
            make_config(
                "codat", fixed_weights=ProbabilityDistribution(np.array([0.5, 0.5]))
            )

    def test_rejects_negative_eta_and_unsorted_milestones(self):
        with pytest.raises(ValueError, match="eta"):
            make_config("codat", eta=-0.1)
        with pytest.raises(ValueError, match="sorted"):
            make_config("standard_at", lr_milestones=(4, 2))

    def test_rejects_momentum_one(self):
        with pytest.raises(ValueError, match="momentum"):
            make_config("standard_at", momentum=1.0)


class TestClassAvgLoss:
    def test_hand_example_with_absent_class(self):
        losses = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([1, 1, 2, 3])
        risks, present = class_avg_loss(losses, labels, 4)
        assert np.array_equal(risks.risks, [1.5, 3.0, 4.0, 0.0])
        assert np.array_equal(present, [True, True, True, False])

    def test_count_weighted_risks_recover_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            size = int(rng.integers(2, 50))
            num_classes = int(rng.integers(2, 6))
            losses = rng.uniform(0.0, 4.0, size=size)
            labels = rng.integers(1, num_classes + 1, size=size)
            risks, _ = class_avg_loss(losses, labels, num_classes)
            counts = np.bincount(labels - 1, minlength=num_classes)
            assert np.dot(counts / size, risks.risks) == pytest.approx(
                np.mean(losses), abs=1e-12
            )

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match="labels"):
            class_avg_loss(np.array([1.0, 2.0]), np.array([1, 4]), 3)
        with pytest.raises(ValueError, match="labels"):
            class_avg_loss(np.array([1.0]), np.array([0]), 3)


class TestCodatBatchLoss:
    def test_zero_radius_gives_present_class_mean(self):
        risks, present = class_avg_loss(
            np.array([1.0, 1.0, 2.0, 4.0]), np.array([1, 1, 2, 3]), 3
        )
        assert codat_batch_loss(risks, present, 0.0) == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_single_class_batch_returns_its_risk(self):
        risks, present = class_avg_loss(np.array([2.5, 3.5]), np.array([2, 2]), 3)
        assert codat_batch_loss(risks, present, 0.7) == 3.0

    def test_hand_value_three_classes(self):
        risks = ClassRiskVector(np.array([1.0, 2.0, 3.0]))
        present = np.array([True, True, True])
        expected = 2.0 + np.sqrt(0.5 * 2.0 / 3.0)
        assert codat_batch_loss(risks, present, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_absent_class_restricts_base_distribution(self):
        # class 2 absent: objective uses the uniform pair distribution
        risks, present = class_avg_loss(np.array([1.0, 3.0]), np.array([1, 3]), 3)
        pair = ClassRiskVector(np.array([1.0, 3.0]))
        expected = 2.0 + np.sqrt(0.4 * 1.0)
        assert codat_batch_loss(risks, present, 0.4) == pytest.approx(expected, abs=1e-12)
        cfg = AmbiguityConfig(uniform_distribution(2), 0.4)
        assert codat_batch_loss(risks, present, 0.4) == pytest.approx(
            worst_case_distribution(pair, cfg).objective_value, abs=1e-9
        )

    def test_radius_clamped_below_pair_bound(self):
        # two present classes bound the radius at 1; the clamped objective
        # approaches the larger risk from below
        risks, present = class_avg_loss(np.array([1.0, 3.0]), np.array([1, 3]), 3)
        loss = codat_batch_loss(risks, present, 1.9)
        assert loss == pytest.approx(3.0, abs=1e-4)
        assert loss <= 3.0

    def test_empty_mask_rejected(self):
        risks = ClassRiskVector(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="no classes"):
            codat_batch_loss(risks, np.array([False, False]), 0.3)


class TestStepFunctions:
    def test_standard_step_is_uniform_over_examples(self):
        losses = np.array([1.0, 2.0, 3.0, 6.0])
        labels = np.array([1, 1, 2, 3])
        loss, weights, row, valid = run_step("standard_at", losses, labels, 3)
        assert loss == 3.0
        assert np.array_equal(weights, np.full(4, 0.25))
        assert np.array_equal(row, [0.5, 0.25, 0.25])
        assert valid is None

    def test_worst_class_step_targets_highest_risk(self):
        losses = np.array([1.0, 1.0, 5.0, 5.0, 2.0])
        labels = np.array([1, 1, 2, 2, 3])
        loss, weights, row, _ = run_step("worst_class", losses, labels, 3)
        assert loss == 5.0
        assert np.array_equal(row, [0.0, 1.0, 0.0])
        assert np.array_equal(weights, [0.0, 0.0, 0.5, 0.5, 0.0])

    def test_worst_class_tie_picks_lowest_index(self):
        losses = np.array([4.0, 4.0, 1.0])
        labels = np.array([1, 2, 3])
        loss, weights, row, _ = run_step("worst_class", losses, labels, 3)
        assert loss == 4.0
        assert np.array_equal(row, [1.0, 0.0, 0.0])
        assert np.array_equal(weights, [1.0, 0.0, 0.0])

    def test_worst_class_ignores_absent_classes(self):
        losses = np.array([0.0, 0.0])
        labels = np.array([2, 3])
        loss, _, row, _ = run_step("worst_class", losses, labels, 3)
        assert loss == 0.0
        assert row[0] == 0.0

    def test_dirac_weights_silence_other_classes(self):
        dirac = ProbabilityDistribution(np.array([1.0, 0.0, 0.0]))
        losses = np.array([2.0, 7.0, 9.0])
        labels = np.array([1, 2, 3])
        loss, weights, row, _ = run_step("weighted", losses, labels, 3, fixed_weights=dirac)
        assert loss == 2.0
        assert np.array_equal(weights, [1.0, 0.0, 0.0])
        assert np.array_equal(row, [1.0, 0.0, 0.0])

    def test_weighted_step_rejects_zero_mass_batches(self):
        dirac = ProbabilityDistribution(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="no mass"):
            run_step("weighted", np.array([1.0]), np.array([2]), 3, fixed_weights=dirac)

    def test_codat_step_objective_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            size = int(rng.integers(6, 40))
            labels = rng.integers(1, 4, size=size)
            if len(np.unique(labels)) < 3:
                continue
            losses = rng.uniform(0.2, 3.0, size=size)
            loss, weights, row, valid = run_step("codat", losses, labels, 3, eta=0.5)
            risks, _ = class_avg_loss(losses, labels, 3)
            assert valid is True
            assert np.dot(row, risks.risks) == pytest.approx(loss, abs=1e-8)
            assert np.sum(row) == pytest.approx(1.0, abs=1e-12)
            counts = np.bincount(labels - 1, minlength=3)
            assert np.array_equal(weights, row[labels - 1] / counts[labels - 1])

    def test_worst_class_matches_dro_at_radius_limit(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            num_classes = int(rng.integers(3, 6))
            losses = rng.uniform(0.1, 4.0, size=4 * num_classes)
            labels = np.repeat(np.arange(1, num_classes + 1), 4)
            loss, _, _, _ = run_step("worst_class", losses, labels, num_classes)
            risks, _ = class_avg_loss(losses, labels, num_classes)
            cfg = AmbiguityConfig(
                uniform_distribution(num_classes), (num_classes - 1) * (1 - 1e-9)
            )
            limit = worst_case_distribution(ClassRiskVector(risks.risks), cfg)
            assert loss == pytest.approx(limit.objective_value, abs=1e-6)


class TestTrainingLoop:
    def test_one_epoch_hand_trace(self):
        features = np.array([[0.1, 0.9], [0.8, 0.2], [0.4, 0.5], [0.9, 0.7]])
        labels = np.array([1, 2, 1, 2])
        data = Dataset(features, labels, split="train", provenance={"source": "inline"})
        config = TrainConfig(
            method="standard_at",
            epochs=1,
            batch_size=4,
            base_lr=0.1,
            momentum=0.0,
            weight_decay=0.0,
            attack=NO_ATTACK,
            seed=9,
            hidden_dims=(),
        )
        model, history = train(config, data)

        expected = init_model([2, 2], seed=9)
        batch = next(iter(batch_iter(data, 4, seed=9, epoch=0)))
        grads, _ = backward(expected, batch, np.full(4, 0.25))
        wanted = [(w - 0.1 * gw, b - 0.1 * gb) for (w, b), (gw, gb) in zip(expected.layers, grads)]
        for (w, b), (ew, eb) in zip(model.layers, wanted):
            assert np.array_equal(w, ew)
            assert np.array_equal(b, eb)
        losses = cross_entropy_per_example(forward(init_model([2, 2], seed=9), batch), batch.labels)
        assert history.records[0].loss == pytest.approx(float(np.mean(losses)), abs=1e-15)

    def test_zero_radius_run_is_bit_identical_to_standard(self):
        data = small_dataset()
        codat_cfg = make_config("codat", eta=0.0)
        std_cfg = make_config("standard_at")
        m1, h1 = train(codat_cfg, data)
        m2, h2 = train(std_cfg, data)
        assert params_digest(m1) == params_digest(m2)
        assert config_fingerprint(codat_cfg) == config_fingerprint(std_cfg)
        assert [r.params_digest for r in h1.records] == [r.params_digest for r in h2.records]

    def test_uniform_weights_match_standard_on_balanced_batches(self):
        data = small_dataset()
        uniform = ProbabilityDistribution(np.full(3, 1.0 / 3.0))
        m1, _ = train(make_config("weighted", fixed_weights=uniform), data)
        m2, _ = train(make_config("standard_at"), data)
        assert params_digest(m1) == params_digest(m2)

    def test_training_is_deterministic(self):
        data = small_dataset()
        cfg = make_config("codat", eta=0.4, epochs=2)
        m1, h1 = train(cfg, data)
        m2, h2 = train(cfg, data)
        assert params_digest(m1) == params_digest(m2)
        assert [r.params_digest for r in h1.records] == [r.params_digest for r in h2.records]

    def test_adversarial_loss_dominates_natural_loss(self):
        data = small_dataset(per_class=60, seed=1)
        cfg = make_config(
            "standard_at",
            epochs=3,
            batch_size=64,
            attack=AttackConfig(epsilon=0.05, step_size=0.0125, steps=5, random_start=True),
        )
        _, history = train(cfg, data)
        for record in history.records:
            assert record.loss >= record.natural_loss

    def test_eta_at_class_bound_rejected(self):
        data = small_dataset()
        with pytest.raises(ValueError, match="K - 1"):
            train(make_config("codat", eta=2.0), data)

    def test_wrong_length_fixed_weights_rejected_before_any_attack(self, monkeypatch):
        def no_attack(*args, **kwargs):
            raise AssertionError("attack ran before the fixed weights were checked")

        monkeypatch.setattr("codat.training.pgd_attack", no_attack)
        halves = ProbabilityDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="fixed weights cover 2 classes, data has 3"):
            train(make_config("weighted", fixed_weights=halves), small_dataset())

    def test_divergence_raises_runtime_error(self):
        data = small_dataset()
        cfg = make_config("standard_at", base_lr=1e9, epochs=4, batch_size=16)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            RuntimeError, match="diverged"
        ):
            train(cfg, data)

    def test_learning_rate_schedule_recorded_exactly(self):
        data = small_dataset(per_class=10)
        cfg = make_config(
            "standard_at", epochs=6, batch_size=30, base_lr=0.2, lr_milestones=(2, 4)
        )
        _, history = train(cfg, data)
        recorded = [r.learning_rate for r in history.records]
        assert recorded == [lr_at_epoch(0.2, e, [2, 4], 0.1) for e in range(6)]
        assert recorded[0] == 0.2 and recorded[2] < recorded[0] and recorded[4] < recorded[2]

    def test_history_rows_are_distributions_and_round_trip(self, tmp_path):
        data = small_dataset(per_class=30)
        cfg = make_config("codat", eta=0.5, epochs=2, batch_size=32)
        _, history = train(cfg, data)
        for record in history.records:
            weights = np.array(record.class_weights)
            assert np.all(weights >= 0.0)
            assert np.sum(weights) == pytest.approx(1.0, abs=1e-9)
            assert record.weight_objective_gap <= 1e-8
            assert record.closed_form_fraction == 1.0
        path = tmp_path / "history.jsonl"
        history.save_jsonl(path)
        loaded = TrainHistory.load_jsonl(path)
        assert loaded.header == history.header
        assert loaded.records == history.records

    def test_final_epoch_attention_tracks_risk(self):
        data = small_dataset(per_class=100, seed=2)
        cfg = make_config("codat", eta=0.5, epochs=5, batch_size=64)
        _, history = train(cfg, data)
        assert history.records[-1].weight_risk_agreement >= 0.9

    def test_select_best_does_not_underperform_final_model(self):
        from codat.metrics import evaluate

        train_data = small_dataset(per_class=50, seed=4)
        eval_data = gen_gaussian_mixture(toy3_spec(samples_per_class=30, seed=10004))
        base = dict(eta=0.4, epochs=4, batch_size=50)
        _, _ = train(make_config("codat", **base), train_data)
        final_model, _ = train(make_config("codat", **base), train_data, eval_data)
        best_model, _ = train(
            make_config("codat", select_best=True, **base), train_data, eval_data
        )
        final_report = evaluate(final_model, eval_data, attack=SMALL_ATTACK, seed=5)
        best_report = evaluate(best_model, eval_data, attack=SMALL_ATTACK, seed=5)
        assert best_report.worst_class_accuracy >= final_report.worst_class_accuracy

    def test_dispatch_validates_method_field(self):
        assert sorted(STEP_FNS) == sorted(VALID_METHODS)
        data = small_dataset(per_class=5)
        model, _ = train(make_config("standard_at", epochs=1), data)
        assert model.num_classes == 3


# Fingerprint and history-header line per method (plus codat at radius 0,
# which must hash like standard_at).  Pure JSON and SHA-256, so the values
# are the same on every machine; a change here changes every checkpoint's
# config_hash and every history file.
PINNED = {
    "codat": (
        "7b2b04a7f49dd150599256da42f0132dd38b71bca9d3119784a2feae51341c03",
        '{"attack": {"epsilon": 0.03, "random_start": true, "step_size": 0.0075, '
        '"steps": 2}, "base_lr": 0.05, "batch_size": 120, '
        '"config_fingerprint": "7b2b04a7f49dd150599256da42f0132dd38b71bca9d3119784a2feae51341c03", '
        '"epochs": 3, "eta": 0.3, "fixed_weights": null, "format": "codat-history", '
        '"hidden_dims": [8], "lr_factor": 0.1, "lr_milestones": [2], "method": "codat", '
        '"momentum": 0.9, "num_classes": 3, "seed": 5, "train_size": 4, '
        '"type": "header", "version": 1, "weight_decay": 0.0002}'
    ),
    "codat_eta0": (
        "862ecf839cfbb238f6be93ee2c3ab82f6d971a951c2622aff2f6dbb6b93b1b55",
        '{"attack": {"epsilon": 0.03, "random_start": true, "step_size": 0.0075, '
        '"steps": 2}, "base_lr": 0.05, "batch_size": 120, '
        '"config_fingerprint": "862ecf839cfbb238f6be93ee2c3ab82f6d971a951c2622aff2f6dbb6b93b1b55", '
        '"epochs": 3, "eta": 0.0, "fixed_weights": null, "format": "codat-history", '
        '"hidden_dims": [8], "lr_factor": 0.1, "lr_milestones": [2], "method": "codat", '
        '"momentum": 0.9, "num_classes": 3, "seed": 5, "train_size": 4, '
        '"type": "header", "version": 1, "weight_decay": 0.0002}'
    ),
    "standard_at": (
        "862ecf839cfbb238f6be93ee2c3ab82f6d971a951c2622aff2f6dbb6b93b1b55",
        '{"attack": {"epsilon": 0.03, "random_start": true, "step_size": 0.0075, '
        '"steps": 2}, "base_lr": 0.05, "batch_size": 120, '
        '"config_fingerprint": "862ecf839cfbb238f6be93ee2c3ab82f6d971a951c2622aff2f6dbb6b93b1b55", '
        '"epochs": 3, "eta": null, "fixed_weights": null, "format": "codat-history", '
        '"hidden_dims": [8], "lr_factor": 0.1, "lr_milestones": [2], '
        '"method": "standard_at", "momentum": 0.9, "num_classes": 3, "seed": 5, '
        '"train_size": 4, "type": "header", "version": 1, "weight_decay": 0.0002}'
    ),
    "weighted": (
        "1cb8bee1db3b8274b2398d2adb41f031277aaba39c9094658cf020cb06820264",
        '{"attack": {"epsilon": 0.03, "random_start": true, "step_size": 0.0075, '
        '"steps": 2}, "base_lr": 0.05, "batch_size": 120, '
        '"config_fingerprint": "1cb8bee1db3b8274b2398d2adb41f031277aaba39c9094658cf020cb06820264", '
        '"epochs": 3, "eta": null, "fixed_weights": [0.2, 0.5, 0.3], '
        '"format": "codat-history", "hidden_dims": [8], "lr_factor": 0.1, '
        '"lr_milestones": [2], "method": "weighted", "momentum": 0.9, "num_classes": 3, '
        '"seed": 5, "train_size": 4, "type": "header", "version": 1, '
        '"weight_decay": 0.0002}'
    ),
    "worst_class": (
        "800d45b35b76d9cb048fb6c8a73b99c0ec13febcbb1814331b4fe5803e6dde8f",
        '{"attack": {"epsilon": 0.03, "random_start": true, "step_size": 0.0075, '
        '"steps": 2}, "base_lr": 0.05, "batch_size": 120, '
        '"config_fingerprint": "800d45b35b76d9cb048fb6c8a73b99c0ec13febcbb1814331b4fe5803e6dde8f", '
        '"epochs": 3, "eta": null, "fixed_weights": null, "format": "codat-history", '
        '"hidden_dims": [8], "lr_factor": 0.1, "lr_milestones": [2], '
        '"method": "worst_class", "momentum": 0.9, "num_classes": 3, "seed": 5, '
        '"train_size": 4, "type": "header", "version": 1, "weight_decay": 0.0002}'
    ),
}


class TestPinnedProvenance:
    @staticmethod
    def pinned_config(name):
        weights = ProbabilityDistribution(np.array([0.2, 0.5, 0.3]))
        overrides = {
            "codat": dict(eta=0.3),
            "codat_eta0": dict(eta=0.0),
            "weighted": dict(fixed_weights=weights),
        }.get(name, {})
        return make_config(name.split("_eta")[0], lr_milestones=(2,), **overrides)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_fingerprint_and_header_line_are_pinned(self, name, tmp_path):
        data = Dataset(
            np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]),
            np.array([1, 2, 3, 1]),
            "train",
        )
        config = self.pinned_config(name)
        fingerprint, header_line = PINNED[name]
        assert config_fingerprint(config) == fingerprint
        path = tmp_path / "history.jsonl"
        TrainHistory(_history_header(config, data)).save_jsonl(path)
        assert path.read_text(encoding="utf-8") == header_line + "\n"
