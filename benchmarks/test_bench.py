"""Self-tests of the benchmark harness; run with `python3 -m pytest benchmarks -q`."""

from __future__ import annotations

import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402
from tracer import TraceSummary, Tracer, tail_ms  # noqa: E402


def _summary(spans, instances=None):
    """spans: (name, start, end, parent index) tuples in opening order."""
    names = sorted({name for name, *_ in spans})
    return TraceSummary(
        names,
        np.array([names.index(name) for name, *_ in spans], dtype=np.int32),
        np.array([parent for *_, parent in spans], dtype=np.int64),
        np.array([start for _, start, _, _ in spans], dtype=np.float64),
        np.array([end for _, _, end, _ in spans], dtype=np.float64),
        np.array(instances if instances is not None else [-1] * len(spans), dtype=np.int64),
    )


def test_self_time_and_caller_split_on_a_synthetic_tree():
    s = _summary(
        [
            ("training.train", 0.0, 10.0, -1),
            ("attacks.pgd_attack", 1.0, 5.0, 0),
            ("nn_engine.backward", 2.0, 4.0, 1),
            ("nn_engine.backward", 6.0, 7.0, 0),
            ("training.class_avg_loss", 8.0, 9.5, 0),
            ("nn_engine.forward", 8.5, 9.0, 4),
        ]
    )
    np.testing.assert_allclose(s.self_time, [10 - 4 - 1 - 1.5, 2, 2, 1, 1, 0.5])
    assert s.self_s(name="nn_engine.backward", caller="attacks") == 2.0
    assert s.self_s(name="nn_engine.backward", caller="training") == 1.0
    assert s.calls(name="nn_engine.backward") == 2
    # a same-module helper inherits its parent's caller; its child sees the helper's module
    assert s.calls(name="training.class_avg_loss", caller="bench") == 1
    assert s.calls(name="nn_engine.forward", caller="training") == 1
    assert s.self_s(module="training") == 3.5 + 1.0
    assert s.self_s(module="nn_engine", caller="attacks") == 2.0
    # names a later version removed read as zero, not as an error
    assert s.calls(name="dro_core.oracle_worst_case") == 0
    assert s.self_s(name="dro_core.oracle_worst_case", caller="nowhere") == 0.0


def test_generator_item_intervals_are_per_instance():
    s = _summary(
        [
            ("data.batch_iter", 0.0, 0.1, -1),
            ("data.batch_iter", 1.0, 1.1, -1),
            ("data.batch_iter", 3.0, 3.1, -1),
            ("data.batch_iter", 10.0, 10.1, -1),
            ("data.batch_iter", 10.5, 10.6, -1),
        ],
        instances=[1, 1, 1, 2, 2],
    )
    np.testing.assert_allclose(np.sort(s.item_intervals_ms(name="data.batch_iter")), [500, 1000, 2000])


def test_tail_leaves_ten_samples_beyond_it():
    assert tail_ms(range(100)) == 89.0
    assert tail_ms([3.0, 1.0, 2.0]) == 3.0
    assert tail_ms([]) == 0.0


def _fake_module():
    module = types.ModuleType("fakemod")
    exec(
        "def leaf(x):\n"
        "    return x\n"
        "def outer(x):\n"
        "    return leaf(x)\n"
        "def boom():\n"
        "    raise KeyError('boom')\n"
        "def items(n):\n"
        "    for i in range(n):\n"
        "        yield leaf([i])\n",
        module.__dict__,
    )
    return module


def test_wrappers_pass_values_and_errors_through_unchanged():
    module = _fake_module()
    originals = dict(vars(module))
    tracer = Tracer()
    tracer.install([module])
    payload = object()
    assert module.outer(payload) is payload
    with pytest.raises(KeyError, match="boom"):
        module.boom()
    assert list(module.items(3)) == [[0], [1], [2]]
    tracer.uninstall()
    assert all(vars(module)[name] is fn for name, fn in originals.items() if callable(fn))

    s = tracer.summary()
    assert s.calls(name="fakemod.outer") == 1
    assert s.calls(name="fakemod.leaf") == 1 + 3  # the generator body calls leaf too
    assert s.calls(name="fakemod.boom") == 1
    assert s.calls(name="fakemod.items") == 4  # three items and the exhausting request
    leaf_under_outer = s.parents[s.ids == s.names.index("fakemod.leaf")][0]
    assert s.names[s.ids[leaf_under_outer]] == "fakemod.outer"


def test_traced_codat_calls_return_identical_results():
    codat_data = bench.data
    train = codat_data.gen_gaussian_mixture(codat_data.toy3_spec(12, seed=3), split="train")
    config = bench.training.TrainConfig(
        method="codat",
        epochs=1,
        batch_size=12,
        base_lr=0.1,
        attack=bench.attacks.AttackConfig(0.03, 0.0075, 2),
        seed=3,
        eta=1.5,
        hidden_dims=(8,),
    )
    plain_model, plain_history = bench.training.train(config, train)
    audit = bench.AttackAudit()
    tracer = Tracer()
    tracer.hooks["attacks.pgd_attack"] = audit
    tracer.install(bench.TRACED_MODULES)
    try:
        traced_model, traced_history = bench.training.train(config, train)
    finally:
        tracer.uninstall()
    digest = bench.nn_engine.params_digest
    assert digest(traced_model) == digest(plain_model)
    assert [r.loss for r in traced_history.records] == [r.loss for r in plain_history.records]
    assert audit.calls == 3 and audit.infeasible == 0
    s = tracer.summary()
    assert s.calls(name="nn_engine.backward", caller="attacks") == 3 * 2
    assert s.calls(name="dro_core.worst_case_distribution") == 3


def test_printed_metric_names_are_the_ones_in_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["workloads"]} == set(bench.WORKLOADS)

    empty = _summary([])
    layer = bench.per_layer_metrics(empty, empty, bench.AttackAudit(), 0.0, 1.0)
    assert {name: m["unit"] for name, m in layer.items()} == declared_layer

    unit = bench.UnitResult(seconds=0.5, examples=100, signature="x", output=None)
    e2e = bench.end_to_end_metrics(1.0, [unit, None], {"robust_avg_acc": 0.5})
    assert {name: m["unit"] for name, m in e2e.items()} == declared_e2e
    assert e2e["examples_per_s"]["value"] == 200.0
