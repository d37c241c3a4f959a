import csv
import json
import re

import numpy as np
import pytest

from codat.attacks import AttackConfig
from codat.data import Dataset, LabeledBatch, gen_gaussian_mixture, toy3_spec, batch_iter
from codat.metrics import (
    EvalReport,
    class_variance,
    confusion_to_csv,
    evaluate,
    fec,
    fec_rows,
    fec_table_to_csv,
    fec_table_to_json,
)
from codat.nn_engine import (
    ModelParams,
    backward,
    forward,
    init_model,
    sgd_step,
    walk_buffers,
)


def perfect_two_class_setup():
    # logits equal features, so argmax of the feature pair is the prediction
    model = ModelParams([(np.eye(2), np.zeros(2))])
    data = Dataset(
        np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]]),
        np.array([1, 1, 2, 2]),
        "test",
    )
    return model, data


# -------------------------------------------------------------- evaluate


def test_perfect_classifier_scores_ones_everywhere():
    model, data = perfect_two_class_setup()
    report = evaluate(model, data)
    np.testing.assert_array_equal(report.per_class_accuracy, [1.0, 1.0])
    assert report.average_accuracy == 1.0
    assert report.worst_class_accuracy == 1.0
    assert report.class_variance == 0.0
    np.testing.assert_array_equal(report.confusion, [[2, 0], [0, 2]])
    assert report.attack == "none"


def test_constant_classifier_on_balanced_two_class_data():
    model = ModelParams([(np.zeros((2, 2)), np.array([1.0, 0.0]))])
    data = Dataset(np.full((4, 2), 0.5), np.array([1, 1, 2, 2]), "test")
    report = evaluate(model, data)
    np.testing.assert_array_equal(report.per_class_accuracy, [1.0, 0.0])
    assert report.average_accuracy == 0.5
    assert report.worst_class_accuracy == 0.0


def test_evaluate_requires_every_class_present():
    model = init_model([2, 3], seed=0)
    data = Dataset(np.full((2, 2), 0.5), np.array([1, 3]), "test")
    with pytest.raises(ValueError, match="class 2"):
        evaluate(model, data)


def test_evaluate_is_deterministic_per_seed():
    model = init_model([2, 3], seed=4)
    data = gen_gaussian_mixture(toy3_spec(samples_per_class=40, seed=1), split="test")
    attack = AttackConfig(epsilon=0.05, step_size=0.0125, steps=5)
    first = evaluate(model, data, attack, seed=7)
    second = evaluate(model, data, attack, seed=7)
    np.testing.assert_array_equal(first.confusion, second.confusion)
    assert first.to_dict() == second.to_dict()


def test_confusion_cells_land_where_predicted_across_a_short_final_batch():
    # logits equal the one-hot features, so each row's prediction is chosen
    # by hand; 609 rows make a 512-row batch plus a 97-row final batch
    wanted = np.array([[150, 3, 7], [11, 160, 2], [5, 21, 250]])
    true, pred = np.nonzero(wanted)
    labels = np.repeat(true + 1, wanted[true, pred])
    predicted = np.repeat(pred, wanted[true, pred])
    order = np.random.default_rng(8).permutation(labels.size)
    data = Dataset(np.eye(3)[predicted[order]], labels[order], "test")
    assert data.size == 609
    tail = order[512:]
    assert np.any(labels[tail] - 1 != predicted[tail])  # final batch has misses
    report = evaluate(ModelParams([(np.eye(3), np.zeros(3))]), data)
    for t in range(3):
        for p in range(3):
            assert report.confusion[t, p] == wanted[t, p], (t, p)
    assert report.confusion.dtype == np.int64
    np.testing.assert_array_equal(report.per_class_accuracy, [150 / 160, 160 / 173, 250 / 276])
    assert report.average_accuracy == 560 / 609


def test_twenty_class_confusion_is_exact_with_narrow_labels():
    # the dataset holds uint8 labels; (label - 1) * 20 + prediction reaches
    # 399, which would wrap in uint8, so the cell index must be formed wide
    rng = np.random.default_rng(20)
    wanted = rng.integers(0, 3, size=(20, 20))
    wanted[np.arange(20), np.arange(20)] += 1
    true, pred = np.nonzero(wanted)
    labels = np.repeat(true + 1, wanted[true, pred])
    predicted = np.repeat(pred, wanted[true, pred])
    data = Dataset(np.eye(20)[predicted], labels, "test")
    assert data.labels.dtype == np.uint8
    report = evaluate(ModelParams([(np.eye(20), np.zeros(20))]), data)
    np.testing.assert_array_equal(report.confusion, wanted)
    np.testing.assert_array_equal(
        report.per_class_accuracy, np.diag(wanted) / wanted.sum(axis=1)
    )


def test_evaluate_rejects_predictions_beyond_the_data_classes():
    # a 3-output model on 2-class data: its third class has no confusion row,
    # whether the model predicts that class (bias 5) or never does (bias -5)
    data = Dataset(np.full((2, 2), 0.5), np.array([1, 2]), "test")
    for top_bias in (5.0, -5.0):
        model = ModelParams([(np.eye(3)[:, :2], np.array([0.0, 0.0, top_bias]))])
        with pytest.raises(ValueError, match="class 3 has no examples"):
            evaluate(model, data)


def test_evaluate_rejects_labels_beyond_the_model_classes():
    model = init_model([2, 3], seed=0)
    data = Dataset(np.full((4, 2), 0.5), np.array([1, 2, 3, 4]), "test")
    with pytest.raises(ValueError, match=r"labels must lie in \[1, 3\], got range \[1, 4\]"):
        evaluate(model, data)


def lightly_trained_model(data, epochs=5, seed=0):
    model = init_model([2, 16, 3], seed=seed)
    buffers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in model.layers]
    for epoch in range(epochs):
        for batch in batch_iter(data, 64, seed=seed, epoch=epoch):
            walk = walk_buffers(model, batch.size)
            forward(model, batch.features, walk)
            grads, _ = backward(model, batch.features, batch.labels, walk, np.full(batch.size, 1.0 / batch.size))
            sgd_step(model, grads, buffers, 0.1, 0.9, 2e-4)
    return model


def test_adversarial_accuracy_never_beats_natural_accuracy():
    attack = AttackConfig(epsilon=0.05, step_size=0.0125, steps=10)
    for seed in (0, 1, 2):
        data = gen_gaussian_mixture(toy3_spec(samples_per_class=60, seed=seed), split="test")
        model = lightly_trained_model(data, seed=seed)
        natural = evaluate(model, data, attack=None, seed=seed)
        adversarial = evaluate(model, data, attack=attack, seed=seed)
        assert adversarial.average_accuracy <= natural.average_accuracy


def test_report_internal_consistency_on_random_models():
    rng = np.random.default_rng(15)
    for trial in range(5):
        data = gen_gaussian_mixture(toy3_spec(samples_per_class=30, seed=trial), split="test")
        model = init_model([2, 8, 3], seed=int(rng.integers(1000)))
        report = evaluate(model, data)
        assert report.worst_class_accuracy == float(np.min(report.per_class_accuracy))
        np.testing.assert_array_equal(report.confusion.sum(axis=1), data.class_counts)
        # two-pass variance recomputation
        mean = float(np.mean(report.per_class_accuracy))
        twopass = float(np.mean([(a - mean) ** 2 for a in report.per_class_accuracy]))
        assert abs(report.class_variance - twopass) <= 1e-12
        assert report.average_accuracy == report.confusion.trace() / data.size
        # per-example loop as the reference for every confusion cell
        predictions = np.argmax(forward(model, LabeledBatch(data.features, data.labels).features), axis=1)
        reference = np.zeros((3, 3), dtype=np.int64)
        for true, pred in zip(data.labels, predictions):
            reference[true - 1, pred] += 1
        np.testing.assert_array_equal(report.confusion, reference)


def test_report_round_trips_through_json(tmp_path):
    model, data = perfect_two_class_setup()
    report = evaluate(model, data)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report.to_dict()), encoding="utf-8")
    loaded = EvalReport.load(path)
    assert loaded.to_dict() == report.to_dict()


def test_attacked_report_round_trips_through_its_dict():
    model, data = perfect_two_class_setup()
    attack = AttackConfig(epsilon=0.05, step_size=0.02, steps=3, random_start=False)
    report = evaluate(model, data, attack=attack)
    loaded = EvalReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert loaded.to_dict() == report.to_dict()
    assert loaded.attack_config == attack
    assert loaded.attack == "pgd-3 eps=0.05 step=0.02 random_start=false"


def test_report_load_rejects_foreign_payload(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "unrelated"}')
    with pytest.raises(ValueError, match="format"):
        EvalReport.load(path)


def test_report_load_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("plain text\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Expecting value: line 1"):
        EvalReport.load(path)


def test_attack_tag_formats():
    confusion = np.array([[1, 1], [0, 2]])
    assert EvalReport(confusion, None, 0).attack == "none"
    tag = EvalReport(confusion, AttackConfig(epsilon=0.03, step_size=0.0075, steps=20), 0).attack
    assert tag == "pgd-20 eps=0.03 step=0.0075 random_start=true"


# -------------------------------------------------------------- variance


def test_variance_of_equal_accuracies_is_zero():
    assert class_variance([0.7, 0.7, 0.7]) == 0.0


def test_variance_two_point():
    assert class_variance([0.0, 1.0]) == 0.25


def test_variance_reference_value():
    assert class_variance([0.2, 0.4, 0.9]) == pytest.approx(0.08667, abs=5e-6)


def test_variance_needs_two_classes():
    with pytest.raises(ValueError):
        class_variance([1.0])


# ------------------------------------------------------------------- fec


def test_fec_published_reference_rows():
    # CIFAR-10 PGD-100 column, method vs baseline
    assert fec(37.30, 22.00, 50.56, 49.57) == pytest.approx(2.05, abs=0.01)
    assert fec(36.30, 22.00, 49.69, 49.57) == pytest.approx(1.92, abs=0.01)
    # SVHN PGD-100
    assert fec(46.91, 35.78, 54.73, 53.18) == pytest.approx(1.41, abs=0.01)
    # STL-10 strongest-attack column
    assert fec(13.25, 5.75, 29.54, 33.88) == pytest.approx(3.24, abs=0.01)


def test_fec_of_baseline_against_itself_is_one():
    assert fec(22.0, 22.0, 49.57, 49.57) == 1.0


def test_fec_is_scale_invariant():
    percent = fec(37.30, 22.00, 50.56, 49.57)
    fraction = fec(0.3730, 0.2200, 0.5056, 0.4957)
    assert percent == pytest.approx(fraction, rel=1e-12)


def test_fec_monotone_in_both_accuracies():
    base = fec(30.0, 22.0, 48.0, 49.57)
    assert fec(31.0, 22.0, 48.0, 49.57) > base
    assert fec(30.0, 22.0, 49.0, 49.57) > base


def test_fec_above_one_iff_worst_gain_outpaces_average_decline():
    rng = np.random.default_rng(41)
    for _ in range(100):
        base_wst, base_avg = rng.uniform(10, 50), rng.uniform(40, 80)
        wst, avg = rng.uniform(5, 60), rng.uniform(30, 85)
        value = fec(wst, base_wst, avg, base_avg)
        gain = (wst - base_wst) / base_wst
        decline = (base_avg - avg) / base_avg
        assert (value > 1.0) == (gain > decline)


def test_fec_rejects_nonpositive_baselines():
    with pytest.raises(ValueError, match="baseline"):
        fec(10.0, 0.0, 50.0, 49.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("position", range(4))
def test_fec_rejects_non_finite_accuracies(bad, position):
    values = [37.30, 22.00, 50.56, 49.57]
    values[position] = bad
    with pytest.raises(ValueError, match="finite"):
        fec(*values)


# ----------------------------------------------------------------- table


def test_fec_rows_reproduce_published_column():
    triples = [
        ("at", 49.57, 22.00),
        ("trades", 52.55, 28.50),
        ("frl_rwrm", 48.70, 30.60),
        ("bat", 48.30, 26.10),
        ("cfol", 47.46, 32.30),
        ("wat", 49.69, 36.30),
        ("codat", 50.56, 37.30),
    ]
    rows = fec_rows(triples, baseline="at")
    printed = [1.00, 1.43, 1.45, 1.17, 1.53, 1.92, 2.05]
    for row, expected in zip(rows, printed):
        assert row.fec == pytest.approx(expected, abs=0.01)
    assert rows[0].fec == 1.0


def test_fec_rows_baseline_only():
    rows = fec_rows([("at", 49.57, 22.00)], baseline="at")
    assert len(rows) == 1
    assert rows[0].fec == 1.0


def test_fec_rows_missing_baseline_errors():
    with pytest.raises(ValueError, match="baseline"):
        fec_rows([("codat", 50.0, 37.0)], baseline="at")


def test_fec_rows_reject_a_repeated_name():
    # keyed by name, the last 'a' row would become the baseline of both
    with pytest.raises(ValueError, match=r"duplicate method names \['a'\]"):
        fec_rows([("a", 50.0, 30.0), ("a", 60.0, 40.0), ("b", 55.0, 35.0)], baseline="a")


def synthetic_report(per_class):
    per_class = np.asarray(per_class, dtype=np.float64)
    counts = np.full(per_class.size, 10)
    confusion = np.diag((per_class * 10).astype(np.int64))
    for i in range(per_class.size):
        confusion[i, (i + 1) % per_class.size] += 10 - confusion[i, i]
    return EvalReport(confusion, attack_config=None, seed=0)


def test_fec_table_from_reports():
    baseline = synthetic_report([0.9, 0.5])
    fairer = synthetic_report([0.8, 0.7])
    triples = [
        (name, report.average_accuracy, report.worst_class_accuracy)
        for name, report in (("base", baseline), ("fair", fairer))
    ]
    rows = fec_rows(triples, baseline="base")
    assert rows[0].fec == 1.0
    assert rows[1].fec > 1.0


def test_fec_table_csv_and_json_artifacts(tmp_path):
    rows = fec_rows([("at", 49.57, 22.00), ("codat", 50.56, 37.30)], baseline="at")
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
    fec_table_to_csv(rows, csv_path)
    fec_table_to_json(rows, json_path)
    with open(csv_path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["method", "avg", "wst", "fec"]
    assert parsed[1] == ["at", "49.57", "22.00", "1.00"]
    assert parsed[2] == ["codat", "50.56", "37.30", "2.05"]
    payload = json.loads(json_path.read_text())
    assert payload[1]["fec"] == rows[1].fec


def test_confusion_csv(tmp_path):
    model, data = perfect_two_class_setup()
    report = evaluate(model, data)
    path = tmp_path / "confusion.csv"
    confusion_to_csv(report, path)
    with open(path, newline="") as fh:
        parsed = [[int(c) for c in row] for row in csv.reader(fh)]
    assert parsed == [[2, 0], [0, 2]]
