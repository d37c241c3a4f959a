import functools
import hashlib
import inspect
import json
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codat import attacks, metrics, nn_engine
from codat.attacks import AttackConfig, pgd_attack
from codat.data import LabeledBatch, gen_gaussian_mixture, toy3_spec
from codat.nn_engine import (
    ModelParams,
    backward,
    cross_entropy_per_example,
    forward,
    init_model,
    load_checkpoint,
    lr_at_epoch,
    params_digest,
    save_checkpoint,
    sgd_step,
    walk_buffers,
)


def zero_buffers(model):
    return [(np.zeros_like(weight), np.zeros_like(bias)) for weight, bias in model.layers]


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


@pytest.mark.parametrize(
    "features, match",
    [
        pytest.param(np.array([[0.5, np.nan], [0.2, 0.3]]), "finite", id="nan"),
        pytest.param(np.array([[0.5, np.inf], [0.2, 0.3]]), "finite", id="inf"),
        pytest.param(np.array([[0.5, -np.inf], [0.2, 0.3]]), "finite", id="-inf"),
        pytest.param(np.empty((2, 0)), r"nonempty 2-d array, got shape \(2, 0\)", id="no_column"),
    ],
)
def test_batch_rejects_non_finite_features(features, match):
    with pytest.raises(ValueError, match=match):
        LabeledBatch(features, np.array([1, 2]))


def test_batch_rejects_zero_based_labels():
    with pytest.raises(ValueError, match="1-based"):
        LabeledBatch(np.array([[0.5, 0.5]]), np.array([0]))


# -------------------------------------------------------------- forward


def test_forward_zero_weights_gives_zero_logits():
    model = ModelParams([(np.zeros((3, 2)), np.zeros(3))])
    batch = LabeledBatch(np.array([[0.2, 0.7], [0.9, 0.1]]), np.array([1, 2]))
    np.testing.assert_array_equal(forward(model, batch.features), np.zeros((2, 3)))


def test_forward_identity_layer_passes_features_through():
    model = ModelParams([(np.eye(3), np.zeros(3))])
    feats = np.array([[0.1, 0.5, 0.9], [0.3, 0.3, 0.4]])
    batch = LabeledBatch(feats, np.array([1, 3]))
    np.testing.assert_allclose(forward(model, batch.features), feats, atol=1e-15)


def test_forward_rejects_feature_dim_mismatch():
    model = init_model([4, 3], seed=0)
    batch = LabeledBatch(np.full((2, 5), 0.5), np.array([1, 2]))
    with pytest.raises(ValueError, match="dim"):
        forward(model, batch.features)


def test_forward_seed_42_two_layer_regression_lock():
    # golden value captured from the first run after the finite-difference
    # checks below passed; guards against silent numeric drift
    model = init_model([3, 4, 2], seed=42)
    batch = LabeledBatch(np.array([[0.25, 0.5, 0.75]]), np.array([1]))
    expected = np.array([[0.041913746375376204, -0.25937555177781096]])
    np.testing.assert_allclose(forward(model, batch.features), expected, rtol=0, atol=1e-15)


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
    grads, input_grads = backward(model, batch.features, batch.labels, np.zeros(4))
    for gw, gb in grads:
        np.testing.assert_array_equal(gw, 0.0)
        np.testing.assert_array_equal(gb, 0.0)
    np.testing.assert_array_equal(input_grads, 0.0)


def test_backward_scales_linearly_in_loss_weights():
    rng = np.random.default_rng(2)
    model = init_model([3, 5, 2], seed=2)
    batch = make_batch(rng, 4, 3, 2)
    weights = rng.uniform(0.1, 1.0, size=4)
    grads_one, inputs_one = backward(model, batch.features, batch.labels, weights)
    grads_two, inputs_two = backward(model, batch.features, batch.labels, 2.0 * weights)
    for (gw1, gb1), (gw2, gb2) in zip(grads_one, grads_two):
        np.testing.assert_allclose(gw2, 2.0 * gw1, rtol=1e-12)
        np.testing.assert_allclose(gb2, 2.0 * gb1, rtol=1e-12)
    np.testing.assert_allclose(inputs_two, 2.0 * inputs_one, rtol=1e-12)


def weighted_loss(model, feats, labels, weights):
    batch = LabeledBatch(feats, labels)
    losses = cross_entropy_per_example(forward(model, batch.features), labels)
    return float(np.dot(weights, losses))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        dims = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 4)) + 1)]
        model = init_model(dims, seed=int(rng.integers(10_000)))
        batch = make_batch(rng, 3, dims[0], dims[-1])
        weights = rng.uniform(0.2, 1.0, size=3)
        grads, input_grads = backward(model, batch.features, batch.labels, weights)
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
        backward(model, batch.features, batch.labels, np.ones(3))


@pytest.mark.parametrize(
    "labels, match",
    [
        pytest.param(np.array([1, 4]), r"labels must lie in \[1, 3\]", id="above_k"),
        pytest.param(np.array([0, 2]), r"labels must lie in \[1, 3\]", id="zero"),
        pytest.param(np.array([1, 2, 3]), "do not pair", id="wrong_length"),
        pytest.param(np.array([1.0, 2.0]), "labels must be integers", id="float"),
        pytest.param(np.array([True, True]), "labels must be integers", id="bool"),
    ],
)
@pytest.mark.parametrize("weighted", [False, True], ids=["attack", "update"])
def test_backward_rejects_labels_outside_the_classes_or_rows(labels, match, weighted):
    # a raw label 0 would read class K and a label above K would index past it
    model = init_model([2, 3], seed=0)
    weights = np.ones(2) if weighted else None
    with pytest.raises(ValueError, match=match):
        backward(model, np.full((2, 2), 0.5), labels, weights)


def test_network_rejects_features_that_are_not_a_matrix():
    model = init_model([2, 3], seed=0)
    with pytest.raises(ValueError, match="do not fit"):
        forward(model, np.full(2, 0.5))
    with pytest.raises(ValueError, match="do not fit"):
        backward(model, np.full((1, 1, 2), 0.5), np.array([1]))


# ------------------------------------------- unweighted (attack) backward


@pytest.mark.parametrize("dims", [[5, 3], [5, 16, 12, 8, 3]], ids=["linear", "three_hidden"])
@pytest.mark.parametrize("rows", [1, 64, 512])
def test_unweighted_backward_equals_unit_weights_bit_for_bit(dims, rows):
    rng = np.random.default_rng(rows)
    model = init_model(dims, seed=rows + len(dims))
    batch = make_batch(rng, rows, dims[0], dims[-1])
    _, expected = backward(model, batch.features, batch.labels, np.ones(rows))
    grads, got = backward(model, batch.features, batch.labels)
    assert grads is None
    assert got.shape == batch.features.shape
    assert np.array_equal(got, expected)


def test_unweighted_backward_matches_finite_differences():
    rng = np.random.default_rng(13)
    weights = np.ones(4)
    h = 1e-4
    for dims in ([3, 4], [3, 6, 5, 4]):
        model = init_model(dims, seed=int(rng.integers(10_000)))
        batch = make_batch(rng, 4, dims[0], dims[-1])
        _, analytic = backward(model, batch.features, batch.labels)
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
                assert abs(analytic[row, col] - numeric) <= 1e-4 * (1.0 + abs(numeric))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    input_dim=st.integers(1, 6),
    hidden=st.lists(st.integers(1, 24), max_size=3),
    num_classes=st.integers(2, 5),
    rows=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
)
def test_unweighted_backward_equals_unit_weights_property(input_dim, hidden, num_classes, rows, seed):
    rng = np.random.default_rng(seed)
    model = init_model([input_dim, *hidden, num_classes], seed=seed)
    batch = make_batch(rng, rows, input_dim, num_classes)
    _, expected = backward(model, batch.features, batch.labels, np.ones(rows))
    grads, got = backward(model, batch.features, batch.labels)
    assert grads is None
    assert np.array_equal(got, expected)


# ------------------------------------------- memory and pinned bytes, toy3 size


def toy3_sized_case():
    """The toy3 2-256-256-3 model on 512 rows, the evaluation batch size."""
    model = init_model([2, 256, 256, 3], seed=0)
    rng = np.random.default_rng(0)
    batch = LabeledBatch(rng.uniform(0.0, 1.0, size=(512, 2)), rng.integers(1, 4, size=512))
    return model, batch, rng.uniform(0.1, 1.0, size=512)


def traced_peak_mib(fn) -> float:
    """Peak bytes allocated while `fn` runs, above what was live before, in MiB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


def test_toy3_sized_passes_reuse_layer_temporaries():
    # a fresh walk set: two 1 MiB layer outputs and two 128 KiB masks;
    # a fresh array for every bias add or rectifier would need 4 MiB
    model, batch, _ = toy3_sized_case()
    assert traced_peak_mib(lambda: backward(model, batch.features, batch.labels)) <= 2.5
    assert traced_peak_mib(lambda: forward(model, batch.features)) <= 2.5


def test_toy3_sized_backward_in_a_handed_set_allocates_no_layer_array():
    model, batch, _ = toy3_sized_case()
    buffers = walk_buffers(model, 512)
    peak = traced_peak_mib(lambda: backward(model, batch.features, batch.labels, buffers=buffers))
    assert peak <= 0.1


def test_weighted_backward_in_a_reused_stale_set_equals_a_fresh_one():
    # the attack's reuse of one set is checked in tests/test_attacks.py
    model, batch, weights = toy3_sized_case()
    expected_grads, expected_input = backward(model, batch.features, batch.labels, weights)
    buffers = walk_buffers(model, 512)
    for output in buffers[0]:
        output.fill(np.nan)
    for mask in buffers[1]:
        mask.fill(True)
    for _ in range(2):
        grads, input_grads = backward(model, batch.features, batch.labels, weights, buffers)
        returned = [input_grads]
        assert input_grads.tobytes() == expected_input.tobytes()
        for (gw, gb), (ew, eb) in zip(grads, expected_grads):
            assert gw.tobytes() == ew.tobytes() and gb.tobytes() == eb.tobytes()
            returned += [gw, gb]
        for array in returned:
            assert not any(np.shares_memory(array, buffer) for buffer in buffers[0])


def test_toy3_sized_outputs_are_pinned():
    # hashes taken when every bias add and rectifier made a fresh array
    # (numpy 2.4, x86-64); the in-place layers must return the same bytes
    model, batch, weights = toy3_sized_case()
    grads, input_grads = backward(model, batch.features, batch.labels, weights)
    h = hashlib.sha256()
    for gw, gb in grads:
        h.update(gw.tobytes())
        h.update(gb.tobytes())
    h.update(input_grads.tobytes())
    assert h.hexdigest() == "298c796b8fc8c999bf8288f0c69b8aa6e829918b27bfa7f671d1c80a43bcb905"
    assert hashlib.sha256(forward(model, batch.features).tobytes()).hexdigest() == (
        "9cccfd9a9a0aa3a083f6c9434cbf4a16171ec84e6b20b341ae112efa294537ff"
    )


# ------------------------------------------------- hidden layers by rows


@contextmanager
def one_thread():
    """Every pass on the calling thread: no row count reaches the split threshold."""
    saved = nn_engine.SPLIT_MIN_ROWS
    nn_engine.SPLIT_MIN_ROWS = sys.maxsize
    try:
        yield
    finally:
        nn_engine.SPLIT_MIN_ROWS = saved


def split_outputs(model, batch, seed):
    """Forward logits, both backward modes' gradients and a 2-step PGD attack's rows."""
    attack = AttackConfig(epsilon=0.1, step_size=0.05, steps=2)
    weights = np.random.default_rng(seed).uniform(0.1, 1.0, size=batch.size)
    grads, weighted_input_grads = backward(model, batch.features, batch.labels, weights)
    return (
        forward(model, batch.features),
        backward(model, batch.features, batch.labels)[1],
        *(array for pair in grads for array in pair),
        weighted_input_grads,
        pgd_attack(model, batch, attack, seed),
    )


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    input_dim=st.integers(1, 10),
    hidden=st.lists(st.integers(2, 64).map(lambda units: 8 * units), min_size=1, max_size=3),
    num_classes=st.integers(2, 10),
    rows=st.integers(256, 1200),
    seed=st.integers(0, 2**32 - 1),
)
@example(input_dim=1, hidden=[16], num_classes=2, rows=257, seed=1)
@example(input_dim=10, hidden=[512, 512, 512], num_classes=10, rows=1199, seed=2)
def test_row_split_equals_one_thread_bit_for_bit(input_dim, hidden, num_classes, rows, seed):
    rng = np.random.default_rng(seed)
    model = init_model([input_dim, *hidden, num_classes], seed=seed)
    batch = make_batch(rng, rows, input_dim, num_classes)
    got = split_outputs(model, batch, seed)
    with one_thread():
        expected = split_outputs(model, batch, seed)
    for array, reference in zip(got, expected):
        assert array.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "dims, rows, weighted, splits",
    [
        ([2, 8, 3], 512, False, 0),
        ([2, 12, 3], 512, False, 0),
        ([2, 100, 3], 512, False, 0),
        ([2, 16, 12, 3], 512, False, 0),
        ([2, 16, 16, 3], 255, False, 0),
        ([2, 256, 256, 3], 512, True, 1),
        ([2, 16, 16, 3], 256, False, 2),
        ([2, 256, 256, 3], 512, False, 2),
    ],
    ids=["width8", "width12", "width100", "one_width12", "rows255", "weighted", "rows256",
         "toy3"],
)
def test_worker_takes_only_the_shapes_the_guard_accepts(monkeypatch, dims, rows, weighted, splits):
    # `splits` counts the backward's walk and, unweighted, its sweep; forward adds one more if any
    calls = []

    def record(job, rows):
        calls.append(rows)
        job(slice(None))

    monkeypatch.setattr(nn_engine._HALVES, "run", record)
    rng = np.random.default_rng(0)
    model = init_model(dims, seed=0)
    batch = make_batch(rng, rows, dims[0], dims[-1])
    backward(model, batch.features, batch.labels, np.ones(rows) if weighted else None)
    assert len(calls) == splits
    forward(model, batch.features)
    assert len(calls) == splits + (splits > 0)


def test_split_pass_waits_for_both_halves_and_raises_either_error():
    for failing in (0, 256):  # the caller's half, then the worker's
        finished = []

        def job(rows):
            if rows.start != failing:
                time.sleep(0.05)  # the half that succeeds finishes last
            finished.append(rows.start)
            if rows.start == failing:
                raise RuntimeError(f"half from row {failing}")

        with pytest.raises(RuntimeError, match=f"half from row {failing}"):
            nn_engine._HALVES.run(job, 512)
        assert sorted(finished) == [0, 256]


def test_split_pass_leaves_no_reference_to_its_walk_set():
    # a walk set the worker held on to would stay alive beside the next call's set
    model, batch, _ = toy3_sized_case()
    buffers = walk_buffers(model, 512)
    backward(model, batch.features, batch.labels, buffers=buffers)
    refs = [weakref.ref(array) for array in buffers[0] + buffers[1]]
    del buffers
    assert all(ref() is None for ref in refs)


def test_split_worker_runs_no_module_level_function(monkeypatch):
    # a tracer that wraps every module function, as benchmarks/tracer.py does,
    # keeps one span stack: a wrapped call on the worker would push onto it
    modules = (nn_engine, attacks, metrics)
    names = {module.__name__ for module in modules}
    callers = []
    wrappers = {}

    def recorded(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            callers.append(threading.get_ident())
            return fn(*args, **kwargs)

        return call

    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ in names:
                if value not in wrappers:
                    wrappers[value] = recorded(value)
                monkeypatch.setattr(module, attr, wrappers[value])
    halves = []
    run = nn_engine._HALVES.run

    def run_recorded(job, rows):
        def half(part):
            halves.append(threading.get_ident())
            job(part)

        run(half, rows)

    monkeypatch.setattr(nn_engine._HALVES, "run", run_recorded)
    model, batch, weights = toy3_sized_case()
    attack = AttackConfig(epsilon=0.1, step_size=0.05, steps=2)
    nn_engine.forward(model, batch.features)
    nn_engine.backward(model, batch.features, batch.labels)
    nn_engine.backward(model, batch.features, batch.labels, weights)
    attacks.pgd_attack(model, batch, attack, 0)
    data = gen_gaussian_mixture(toy3_spec(samples_per_class=200, seed=1), split="test")
    assert data.size > 512  # two evaluation batches
    metrics.evaluate(model, data, attack, seed=0)
    me = threading.get_ident()
    assert set(halves) - {me}, "the worker never ran"
    assert callers and set(callers) == {me}


def test_a_pass_needs_at_least_one_row():
    model = init_model([2, 16, 3], seed=0)
    features, labels = np.empty((0, 2)), np.empty(0, dtype=np.int64)
    passes = [
        lambda: forward(model, features),
        lambda: backward(model, features, labels),
        lambda: backward(model, features, labels, np.empty(0)),
        lambda: cross_entropy_per_example(np.empty((0, 3)), labels),
    ]
    for run_pass in passes:
        with pytest.raises(ValueError, match="a pass needs at least one row"):
            run_pass()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_a_split_pass_after_its_parent():
    model, batch, _ = toy3_sized_case()
    _, expected = backward(model, batch.features, batch.labels)  # starts the parent's worker
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: one split pass, its digest to the pipe, no pytest teardown
        code = 1
        try:
            _, got = backward(model, batch.features, batch.labels)
            os.write(write_end, hashlib.sha256(got.tobytes()).digest())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    deadline = time.monotonic() + 60.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its split pass")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0
    with os.fdopen(read_end, "rb") as pipe:
        assert pipe.read() == hashlib.sha256(expected.tobytes()).digest()


# ------------------------------------------------------------ optimizer


def test_sgd_without_momentum_or_decay_is_plain_descent():
    model = ModelParams([(np.array([[1.0, 2.0]]), np.array([0.5]))])
    grads = [(np.array([[0.3, -0.2]]), np.array([1.0]))]
    sgd_step(model, grads, [(np.zeros((1, 2)), np.zeros(1))], 0.1, momentum=0.0, weight_decay=0.0)
    np.testing.assert_allclose(model.layers[0][0], [[1.0 - 0.03, 2.0 + 0.02]], atol=1e-15)
    np.testing.assert_allclose(model.layers[0][1], [0.4], atol=1e-15)


def test_sgd_zero_gradient_zero_buffer_is_fixed_point():
    model = ModelParams([(np.array([[1.0]]), np.array([2.0]))])
    buffers = [(np.zeros((1, 1)), np.zeros(1))]
    sgd_step(model, [(np.zeros((1, 1)), np.zeros(1))], buffers, 0.1, momentum=0.9, weight_decay=0.0)
    assert model.layers[0][0][0, 0] == 1.0
    assert model.layers[0][1][0] == 2.0


def test_sgd_hand_checked_single_step():
    # buffer = 0.9*0 + 0.5 + 2e-4*1.0 = 0.5002; param = 1.0 - 0.1*0.5002
    model = ModelParams([(np.array([[1.0]]), np.array([0.0]))])
    grads = [(np.array([[0.5]]), np.array([0.0]))]
    sgd_step(model, grads, zero_buffers(model), 0.1, momentum=0.9, weight_decay=2e-4)
    assert model.layers[0][0][0, 0] == pytest.approx(0.94998, abs=1e-12)


def test_sgd_rejects_shape_mismatch():
    model = init_model([2, 3], seed=0)
    with pytest.raises(ValueError, match="shape"):
        sgd_step(model, [(np.zeros((3, 3)), np.zeros(3))], zero_buffers(model), 0.1, 0.9, 2e-4)


def test_sgd_preserves_parameter_shapes():
    rng = np.random.default_rng(9)
    model = init_model([4, 8, 3], seed=5)
    shapes = [(w.shape, b.shape) for w, b in model.layers]
    grads = [(rng.normal(size=w.shape), rng.normal(size=b.shape)) for w, b in model.layers]
    sgd_step(model, grads, zero_buffers(model), 0.05, 0.9, 2e-4)
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
        buffers = zero_buffers(model)
        digests = [params_digest(model)]
        for _ in range(5):
            batch = make_batch(rng, 8, 3, 2)
            grads, _ = backward(model, batch.features, batch.labels, np.full(8, 1.0 / 8.0))
            sgd_step(model, grads, buffers, 0.1, 0.9, 2e-4)
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


def test_bench_checkpoint_loads_to_its_pinned_digest():
    path = Path(__file__).resolve().parents[1] / "benchmarks/data/toy3_codat_eta0.3_seed0.json"
    model, _, _ = load_checkpoint(path)
    assert params_digest(model) == "267ce4fbbef84200d95dcb2e0fe30fef46b9d3d84aef449bc6b58df28c61501c"


def test_checkpoint_reader_drops_each_parsed_layer(tmp_path, monkeypatch):
    # the parsed lists hold about four times their arrays' bytes
    save_checkpoint(init_model([2, 4, 3], seed=0), tmp_path / "m.json", seed=0, config_hash="h")
    parsed = []
    real_load = json.load
    monkeypatch.setattr(json, "load", lambda fh: parsed.append(real_load(fh)) or parsed[-1])
    load_checkpoint(tmp_path / "m.json")
    assert parsed[0]["weights"] == [None, None] and parsed[0]["biases"] == [None, None]


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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", 2.7, "seed must be an integer, got float"),
        ("seed", True, "seed must be an integer, got bool"),
        ("seed", "7", "seed must be an integer, got str"),
        ("config_hash", 5, "config_hash must be a string, got int"),
        ("layer_dims", [2, -1, 3], r"layer_dims must be positive integers, got \[2, -1, 3\]"),
        ("layer_dims", [2, 4.0, 3], r"layer_dims must be positive integers, got \[2, 4.0, 3\]"),
    ],
    ids=["fractional_seed", "bool_seed", "string_seed", "numeric_hash", "inferred_dim",
         "float_dim"],
)
def test_checkpoint_reads_integers_exactly(tmp_path, key, value, message):
    # each edit fits the [2, 4, 3] weights, so only the exact type check rejects it
    path = tmp_path / "model.json"
    save_checkpoint(init_model([2, 4, 3], seed=0), path, seed=0, config_hash="h")
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, key: value}))
    with pytest.raises(ValueError, match=f"model checkpoint {message}"):
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
