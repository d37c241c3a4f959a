"""Tests for the training loop, its four step functions and their shared batch reductions."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    config_fingerprint,
    train,
    _config_payload,
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
    risks, counts, _ = class_avg_loss(losses, labels, num_classes)
    config = make_config(method, **overrides)
    return STEP_FNS[method](config, losses, risks, counts)


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

    @pytest.mark.parametrize("name", ["base_lr", "weight_decay", "lr_factor", "eta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_settings(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            make_config("codat", **{name: value})

    def test_payload_names_every_field_once(self):
        weights = ProbabilityDistribution(np.array([0.2, 0.3, 0.5]))
        for config in (make_config("codat"), make_config("weighted", fixed_weights=weights)):
            payload = _config_payload(config)
            assert sorted(payload) == sorted(f.name for f in fields(TrainConfig))
            assert payload["attack"] == config.attack.as_dict()
            assert payload["lr_milestones"] == [] and payload["hidden_dims"] == [8]
        assert payload["eta"] is None and payload["fixed_weights"] == [0.2, 0.3, 0.5]

    def test_rejects_momentum_one(self):
        with pytest.raises(ValueError, match="momentum"):
            make_config("standard_at", momentum=1.0)

    def test_rejects_zero_learning_rate_and_negative_weight_decay(self):
        with pytest.raises(ValueError, match="learning rate"):
            make_config("standard_at", base_lr=0.0)
        with pytest.raises(ValueError, match="weight decay"):
            make_config("standard_at", weight_decay=-1e-4)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            make_config("standard_at", seed=-1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("epochs", 1.5),
            ("epochs", True),
            ("batch_size", 8.5),
            ("batch_size", np.float64(8.0)),
            ("hidden_dims", (2.7,)),
            ("hidden_dims", (True,)),
            ("lr_milestones", (45.5,)),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_rejects_integer_settings_that_are_not_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name}: expected an integer"):
            make_config("standard_at", **{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("base_lr", True),
            ("momentum", False),
            ("weight_decay", True),
            ("lr_factor", True),
            ("eta", True),
            ("base_lr", "0.05"),
        ],
    )
    def test_rejects_float_settings_that_are_not_real_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"{name}: expected a real number"):
            make_config("codat", **{name: value})

    def test_numpy_integer_settings_become_ints(self):
        config = make_config(
            "standard_at",
            epochs=np.int64(2),
            batch_size=np.int32(8),
            hidden_dims=(np.int64(4),),
            lr_milestones=(np.int16(1),),
        )
        settings = (config.epochs, config.batch_size, *config.hidden_dims, *config.lr_milestones)
        assert [type(v) for v in settings] == [int] * 4
        assert len(config_fingerprint(config)) == 64  # JSON takes no numpy integers


class TestClassAvgLoss:
    def test_hand_example_with_absent_class(self):
        losses = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([1, 1, 2, 3])
        risks, counts, sums = class_avg_loss(losses, labels, 4)
        assert np.array_equal(risks.risks, [1.5, 3.0, 4.0, 0.0])
        assert np.array_equal(counts, [2, 1, 1, 0])
        assert np.array_equal(sums, [3.0, 3.0, 4.0, 0.0])
        assert np.array_equal(counts > 0, [True, True, True, False])

    def test_count_weighted_risks_recover_mean(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            size = int(rng.integers(2, 50))
            num_classes = int(rng.integers(2, 6))
            losses = rng.uniform(0.0, 4.0, size=size)
            labels = rng.integers(1, num_classes + 1, size=size)
            risks, counts, sums = class_avg_loss(losses, labels, num_classes)
            assert np.array_equal(counts, np.bincount(labels - 1, minlength=num_classes))
            weighted = np.bincount(labels - 1, weights=losses, minlength=num_classes)
            assert np.array_equal(sums, weighted)
            assert np.dot(counts / size, risks.risks) == pytest.approx(
                np.mean(losses), abs=1e-12
            )

    def test_rejects_empty_loss_vector(self):
        # the only place an empty batch is rejected before any step function runs
        with pytest.raises(ValueError, match="nonempty loss vector"):
            class_avg_loss(np.array([]), np.array([], dtype=np.int64), 3)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError, match="labels"):
            class_avg_loss(np.array([1.0, 2.0]), np.array([1, 4]), 3)
        with pytest.raises(ValueError, match="labels"):
            class_avg_loss(np.array([1.0]), np.array([0]), 3)
        with pytest.raises(ValueError, match="labels must be integers"):
            class_avg_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 3)


class TestCodatBatchLoss:
    """The codat step's batch objective: mean + sqrt(eta * variance) over present classes."""

    def test_zero_radius_gives_present_class_mean(self):
        loss, _, _, _ = run_step(
            "codat", np.array([1.0, 1.0, 2.0, 4.0]), np.array([1, 1, 2, 3]), 3, eta=0.0
        )
        assert loss == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_single_class_batch_returns_its_risk(self):
        # the radius clamps to 0, and the one-point ball gives the worst-class
        # step's loss, routing row and history row, bit for bit
        losses, labels = np.array([2.5, 3.5]), np.array([2, 2])
        worst_loss, worst_routing, worst_row, _ = run_step("worst_class", losses, labels, 3)
        for eta in (0.0, 0.7, 1.5):
            loss, routing, row, valid = run_step("codat", losses, labels, 3, eta=eta)
            assert loss == 3.0
            assert np.array_equal(row, [0.0, 1.0, 0.0])
            assert np.array_equal(routing, [0.0, 1.0, 0.0])
            assert valid is None
            assert np.float64(loss).tobytes() == np.float64(worst_loss).tobytes()
            for ours, theirs in ((routing, worst_routing), (row, worst_row)):
                assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()

    def test_hand_value_three_classes(self):
        loss, _, _, _ = run_step(
            "codat", np.array([1.0, 2.0, 3.0]), np.array([1, 2, 3]), 3, eta=0.5
        )
        expected = 2.0 + np.sqrt(0.5 * 2.0 / 3.0)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_absent_class_restricts_base_distribution(self):
        # class 2 absent: objective uses the uniform pair distribution
        loss, _, row, _ = run_step("codat", np.array([1.0, 3.0]), np.array([1, 3]), 3, eta=0.4)
        expected = 2.0 + np.sqrt(0.4 * 1.0)
        assert loss == pytest.approx(expected, abs=1e-12)
        pair = ClassRiskVector(np.array([1.0, 3.0]))
        cfg = AmbiguityConfig(uniform_distribution(2), 0.4)
        assert loss == pytest.approx(
            worst_case_distribution(pair, cfg).objective_value, abs=1e-9
        )
        assert row[1] == 0.0

    def test_radius_clamped_below_pair_bound(self):
        # two present classes bound the radius at 1; the clamped objective
        # approaches the larger risk from below
        loss, _, _, _ = run_step("codat", np.array([1.0, 3.0]), np.array([1, 3]), 3, eta=1.9)
        assert loss == pytest.approx(3.0, abs=1e-4)
        assert loss <= 3.0


class TestStepFunctions:
    def test_standard_step_is_uniform_over_examples(self):
        losses = np.array([1.0, 2.0, 3.0, 6.0])
        labels = np.array([1, 1, 2, 3])
        loss, routing, row, valid = run_step("standard_at", losses, labels, 3)
        assert loss == 3.0
        assert routing is None  # the loop's example mean, np.full(4, 0.25)
        assert np.array_equal(row, [0.5, 0.25, 0.25])
        assert valid is None

    def test_worst_class_step_targets_highest_risk(self):
        losses = np.array([1.0, 1.0, 5.0, 5.0, 2.0])
        labels = np.array([1, 1, 2, 2, 3])
        loss, routing, row, _ = run_step("worst_class", losses, labels, 3)
        assert loss == 5.0
        assert np.array_equal(row, [0.0, 1.0, 0.0])
        assert np.array_equal(routing, [0.0, 1.0, 0.0])

    def test_worst_class_tie_picks_lowest_index(self):
        losses = np.array([4.0, 4.0, 1.0])
        labels = np.array([1, 2, 3])
        loss, routing, row, _ = run_step("worst_class", losses, labels, 3)
        assert loss == 4.0
        assert np.array_equal(row, [1.0, 0.0, 0.0])
        assert np.array_equal(routing, [1.0, 0.0, 0.0])

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
        loss, routing, row, _ = run_step("weighted", losses, labels, 3, fixed_weights=dirac)
        assert loss == 2.0
        assert np.array_equal(routing, [1.0, 0.0, 0.0])
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
            loss, routing, row, valid = run_step("codat", losses, labels, 3, eta=0.5)
            risks, _, _ = class_avg_loss(losses, labels, 3)
            assert valid is True
            assert np.dot(row, risks.risks) == pytest.approx(loss, abs=1e-8)
            assert np.sum(row) == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(routing, row)

    def test_worst_class_matches_dro_at_radius_limit(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            num_classes = int(rng.integers(3, 6))
            losses = rng.uniform(0.1, 4.0, size=4 * num_classes)
            labels = np.repeat(np.arange(1, num_classes + 1), 4)
            loss, _, _, _ = run_step("worst_class", losses, labels, num_classes)
            risks, _, _ = class_avg_loss(losses, labels, num_classes)
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
        grads, _ = backward(expected, batch.features, batch.labels, np.full(4, 0.25))
        wanted = [(w - 0.1 * gw, b - 0.1 * gb) for (w, b), (gw, gb) in zip(expected.layers, grads)]
        for (w, b), (ew, eb) in zip(model.layers, wanted):
            assert np.array_equal(w, ew)
            assert np.array_equal(b, eb)
        losses = cross_entropy_per_example(forward(init_model([2, 2], seed=9), batch.features), batch.labels)
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

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        per_class=st.integers(2, 12),
        batch_size=st.integers(1, 40),
        hidden_dims=st.lists(st.integers(1, 6), max_size=2),
        epochs=st.integers(1, 3),
        epsilon=st.floats(min_value=0.0, max_value=0.2),
        steps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_radius_matches_standard_per_epoch_property(
        self, per_class, batch_size, hidden_dims, epochs, epsilon, steps, seed
    ):
        data = small_dataset(per_class=per_class, seed=seed)
        attack = AttackConfig(epsilon, epsilon, steps, random_start=True)
        base = dict(
            epochs=epochs, batch_size=batch_size, hidden_dims=tuple(hidden_dims),
            attack=attack, seed=seed,
        )
        _, h1 = train(make_config("codat", eta=0.0, **base), data)
        _, h2 = train(make_config("standard_at", **base), data)
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
        cases = [
            ("standard_at", 1e9, {}),
            # the class risks stay finite but their squares overflow
            ("codat", 1e6, {"eta": 0.5, "attack": NO_ATTACK}),
            # the losses themselves overflow, with no attack to stop first
            ("standard_at", 1e100, {"attack": NO_ATTACK}),
        ]
        for method, base_lr, overrides in cases:
            cfg = make_config(method, base_lr=base_lr, epochs=4, batch_size=16, **overrides)
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

    @staticmethod
    def rewritten_history(tmp_path, lineno, edit):
        # a one-epoch history with line `lineno` (1-based) passed through `edit`
        _, history = train(make_config("codat", eta=0.5, epochs=1, batch_size=40), small_dataset())
        path = tmp_path / "history.jsonl"
        history.save_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[lineno - 1] = json.dumps(edit(json.loads(lines[lineno - 1])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_history_of_another_version_is_rejected(self, tmp_path):
        path = self.rewritten_history(tmp_path, 1, lambda header: {**header, "version": 2})
        with pytest.raises(ValueError, match="unsupported training history version 2"):
            TrainHistory.load_jsonl(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda record: {**record, "extra": 1}, "bad epoch record: .*'extra'"),
            (lambda record: {k: v for k, v in record.items() if k != "loss"},
             "bad epoch record: .*'loss'"),
            (lambda record: [record], "unknown history line type None"),
        ],
        ids=["unknown_key", "missing_key", "not_an_object"],
    )
    def test_malformed_epoch_line_names_its_line(self, tmp_path, edit, message):
        path = self.rewritten_history(tmp_path, 2, edit)
        with pytest.raises(ValueError, match=r"history\.jsonl:2: " + message):
            TrainHistory.load_jsonl(path)

    def test_blank_line_names_its_line(self, tmp_path):
        path = self.rewritten_history(tmp_path, 1, lambda header: header)
        path.write_text(path.read_text(encoding="utf-8").replace("\n", "\n\n", 1), encoding="utf-8")
        with pytest.raises(ValueError, match=r"history\.jsonl:2: Expecting value"):
            TrainHistory.load_jsonl(path)

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
        final_model, _ = train(make_config("codat", **base), train_data)
        best_model, _ = train(make_config("codat", **base), train_data, eval_data)
        final_report = evaluate(final_model, eval_data, attack=SMALL_ATTACK, seed=5)
        best_report = evaluate(best_model, eval_data, attack=SMALL_ATTACK, seed=5)
        assert best_report.worst_class_accuracy >= final_report.worst_class_accuracy

    def test_eval_data_alone_selects_the_best_epoch(self):
        from codat.metrics import evaluate

        train_data = small_dataset(per_class=50, seed=4)
        eval_data = gen_gaussian_mixture(toy3_spec(samples_per_class=30, seed=10004))
        config = make_config("codat", eta=0.4, epochs=4, batch_size=50)
        model, history = train(config, train_data, eval_data)
        # each epoch's model, as a shorter run of the same schedule, scored as train scores it
        scores = []
        for epochs in range(1, config.epochs + 1):
            shorter = make_config("codat", eta=0.4, epochs=epochs, batch_size=50)
            prefix, _ = train(shorter, train_data)
            assert params_digest(prefix) == history.records[epochs - 1].params_digest
            report = evaluate(prefix, eval_data, attack=config.attack, seed=config.seed)
            scores.append(report.worst_class_accuracy)
        best = int(np.argmax(scores))
        assert best != config.epochs - 1
        assert params_digest(model) == history.records[best].params_digest

    def test_codat_batch_computes_the_moments_once(self, monkeypatch):
        # one closed-form pass per batch: the loss, the routing row and the
        # history row come from one solver call, also on fallback batches
        from codat import dro_core, training

        calls = {"moments": 0, "solver": 0}
        real_moments, real_solver = dro_core.mean_variance_under, training.worst_case_distribution

        def moments(*args):
            calls["moments"] += 1
            return real_moments(*args)

        def solver(*args):
            calls["solver"] += 1
            return real_solver(*args)

        monkeypatch.setattr(dro_core, "mean_variance_under", moments)
        monkeypatch.setattr(training, "worst_case_distribution", solver)
        config = make_config("codat", eta=1.5, epochs=1, batch_size=20)
        _, history = train(config, small_dataset(per_class=40))
        batches = 3 * 40 // 20
        assert history.records[0].closed_form_fraction < 1.0
        assert calls == {"moments": batches, "solver": batches}

    def test_training_never_calls_the_projected_ascent_oracle(self, monkeypatch):
        # closed-form failures take the exact solver; the oracle is a test reference
        from codat import dro_core

        def no_oracle(risks, cfg):
            raise AssertionError("training called oracle_worst_case")

        monkeypatch.setattr(dro_core, "oracle_worst_case", no_oracle)
        config = make_config("codat", eta=1.5, epochs=2, batch_size=20)
        _, history = train(config, small_dataset(per_class=40))
        assert all(record.closed_form_fraction < 1.0 for record in history.records)
        for record in history.records:
            assert min(record.class_weights) >= 0.0
            assert sum(record.class_weights) == pytest.approx(1.0, abs=1e-12)

    def test_standard_weights_on_a_28_row_batch_are_the_example_mean(self, monkeypatch):
        # toy3's 1500 rows in batches of 64 end on a 28-row batch; routing the
        # class row counts / 28 would spread (c / 28) / c, not 1 / 28, for these c
        for c in (9, 18, 19, 25):
            assert (c / 28) / c != 1 / 28
        from codat import training

        seen = []
        real_backward = training.backward

        def recording(model, features, labels, loss_weights=None):
            seen.append(loss_weights)
            return real_backward(model, features, labels, loss_weights)

        monkeypatch.setattr(training, "backward", recording)
        config = make_config("standard_at", epochs=1, batch_size=64, attack=NO_ATTACK)
        train(config, gen_gaussian_mixture(toy3_spec()))
        assert [weights.size for weights in seen] == [64] * 23 + [28]
        assert np.array_equal(seen[-1], np.full(28, 1 / 28))

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
