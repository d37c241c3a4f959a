"""Workloads, output checks and metrics of the codat benchmark.

`run.py` is the command; this module holds what it runs.  A workload is
set up (data, config, checkpoint, warm-up), then units of work run until
the time budget is spent: a one-epoch `training.train` call for the
training workloads, a PGD-20 `metrics.evaluate` call for `eval_pgd20`,
each on inputs generated from its own seed.  Every unit's output is
checked; a repeated or traced unit must give the same bytes as the first
run of it.  See README.md for the metric definitions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

from codat import attacks, cli, data, dro_core, metrics, nn_engine, training

from tracer import Tracer, p50_ms, tail_ms

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT_PATH = os.path.join(HERE, "data", "toy3_codat_eta0.3_seed0.json")
CHECKPOINT_SHA256 = "8793ed7e0a0ad3864a1c53a012d20253b3e23d56719ae066763c3b7cdbc9a805"
OUT_DIR = os.path.join(HERE, "out")

TRACED_MODULES = (data, nn_engine, attacks, dro_core, training, metrics)

# 3 x 1024 rows: six full 512-row evaluation batches
TEST_PER_CLASS = 1024
# one epoch of the toy3 recipe is bit-identical to the first epoch of a full run
UNIT_EPOCHS = 1
SETUP_PASSES = 5
WARM_UP_SEED = 0
MIN_UNITS = 3
# one split's min-max scaling moves robust accuracy by several points; pool a few
QUALITY_SPLITS = 3
SIMPLEX_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    eta: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_eta0.3", "train", 0.3),
        Workload("train_eta1.5", "train", 1.5),
        Workload("eval_pgd20", "eval"),
    )
}

END_TO_END = {
    "setup_s": "s",
    "examples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality.robust_avg_acc": "fraction",
}

PER_LAYER = {
    "nn_engine.backward.from_attacks.calls": "count",
    "nn_engine.backward.from_attacks.self_s": "s",
    "nn_engine.backward.from_training.self_s": "s",
    "nn_engine.from_attacks.self_s": "s",
    "nn_engine.sgd_step.self_s": "s",
    "nn_engine.forward.self_s": "s",
    "attacks.pgd_attack.calls": "count",
    "attacks.pgd_attack.self_s": "s",
    "attacks.pgd_attack.ms_p50": "ms",
    "attacks.pgd_attack.ms_tail": "ms",
    "attacks.project_linf.self_s": "s",
    "attacks.infeasible": "count",
    "dro_core.self_s": "s",
    "dro_core.oracle_worst_case.calls": "count",
    "dro_core.oracle_worst_case.self_s": "s",
    "dro_core.oracle_worst_case.ms_p50": "ms",
    "dro_core.oracle_worst_case.ms_tail": "ms",
    "dro_core.fallback_share": "ratio",
    "training.self_s": "s",
    "training.class_avg_loss.calls": "count",
    "training.step_ms.p50": "ms",
    "training.step_ms.tail": "ms",
    "data.batch_iter.wait_s": "s",
    "data.gen_gaussian_mixture.self_s": "s",
    "metrics.evaluate.self_s": "s",
    "nn_engine.load_checkpoint.self_s": "s",
    "trace.overhead_share": "ratio",
    "trace.units_s": "s",
}


class Failures:
    """Operations attempted and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failure and yields None."""
        try:
            result = fn(*args, **kwargs)
        except Exception:  # the benchmark must report, not stop, on a failed operation
            traceback.print_exc()
            self.record(False, f"{what} raised")
            return None
        return result


@dataclasses.dataclass(frozen=True)
class UnitInput:
    """Inputs of one unit, all generated from the unit's own seed."""

    seed: int
    config: training.TrainConfig
    train_data: data.Dataset
    test_data: data.Dataset


@dataclasses.dataclass
class Fixture:
    workload: Workload
    seed: int
    resolved: dict
    eval_attack: attacks.AttackConfig
    checkpoint: nn_engine.ModelParams
    inputs: list[UnitInput] = dataclasses.field(default_factory=list)

    def unit_input(self, index: int) -> UnitInput:
        """Unit `index` runs on seed 1000 * run seed + index, generated on first use."""
        while len(self.inputs) <= index:
            self.inputs.append(make_input(self.resolved, 1000 * self.seed + len(self.inputs)))
        return self.inputs[index]


def make_input(resolved: dict, seed: int) -> UnitInput:
    resolved = {**resolved, "seed": seed}
    spread = resolved["spread"]
    return UnitInput(
        seed,
        cli.build_train_config(resolved),
        data.gen_gaussian_mixture(
            data.toy3_spec(resolved["train_per_class"], seed=seed, spread=spread), split="train"
        ),
        # the cli derives the test split seed the same way
        data.gen_gaussian_mixture(
            data.toy3_spec(TEST_PER_CLASS, seed=seed + 10000, spread=spread), split="test"
        ),
    )


def _subset(dataset: data.Dataset, stride: int) -> data.Dataset:
    # strided rows keep every class present (the generators emit class blocks)
    return data.Dataset(dataset.features[::stride], dataset.labels[::stride], dataset.split)


def set_up(workload: Workload, seed: int, warm_up: bool = True) -> Fixture:
    """Config, checkpoint and the first unit's data, then a short warm-up call."""
    resolved = {**cli.DEFAULTS, **cli.PRESETS["toy3"], "method": "codat", "epochs": UNIT_EPOCHS}
    if workload.eta is not None:
        resolved["eta"] = workload.eta
    eval_attack = attacks.AttackConfig(
        epsilon=resolved["epsilon"],
        step_size=resolved["eval_attack_step_size"],
        steps=resolved["eval_attack_steps"],
        random_start=resolved["random_start"],
    )
    checkpoint, _, _ = nn_engine.load_checkpoint(CHECKPOINT_PATH)
    fixture = Fixture(workload, seed, resolved, eval_attack, checkpoint)
    fixture.unit_input(0)
    if warm_up:
        # fixed inputs at the preset's eta: the closed form holds there, so the
        # warm-up does not time the fallback solver, whose cost varies widely
        warm = make_input({**resolved, "eta": cli.PRESETS["toy3"]["eta"]}, WARM_UP_SEED)
        if workload.kind == "train":
            training.train(warm.config, _subset(warm.train_data, 8))
        else:
            metrics.evaluate(checkpoint, _subset(warm.test_data, 6), attack=eval_attack, seed=warm.seed)
    return fixture


def report_hash(report) -> str:
    canonical = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def on_simplex(row, size: int) -> bool:
    row = np.asarray(row, dtype=np.float64)
    return (
        row.shape == (size,)
        and bool(np.all(np.isfinite(row)))
        and float(np.min(row)) >= 0.0
        and abs(float(np.sum(row)) - 1.0) <= SIMPLEX_TOL
    )


def check_history(history, num_classes: int) -> list[str]:
    problems = []
    for record in history.records:
        for key in ("loss", "natural_loss"):
            if not np.isfinite(getattr(record, key)):
                problems.append(f"epoch {record.epoch}: {key} is not finite")
        if not np.all(np.isfinite(record.class_risks)):
            problems.append(f"epoch {record.epoch}: class risks are not finite")
        if not on_simplex(record.class_weights, num_classes):
            problems.append(f"epoch {record.epoch}: class-weight row is off the simplex")
    return problems


def check_report(report, dataset: data.Dataset) -> list[str]:
    problems = []
    confusion = np.asarray(report.confusion)
    if int(confusion.sum()) != dataset.size:
        problems.append(f"confusion matrix sums to {int(confusion.sum())}, split has {dataset.size}")
    if not np.array_equal(confusion.sum(axis=1), dataset.class_counts):
        problems.append("confusion row sums differ from the class counts")
    accuracies = np.asarray(report.per_class_accuracy)
    if not (np.all(accuracies >= 0.0) and np.all(accuracies <= 1.0)):
        problems.append("per-class accuracy outside [0, 1]")
    return problems


class AttackAudit:
    """Hook on `attacks.pgd_attack`: counts outputs outside the ball or the box."""

    def __init__(self):
        self.calls = 0
        self.infeasible = 0

    def __call__(self, arguments, result) -> None:
        anchor = arguments["batch"].features
        epsilon = arguments["cfg"].epsilon
        out = np.asarray(result)
        self.calls += 1
        if (
            out.shape != anchor.shape
            or not np.all(np.isfinite(out))
            or float(np.max(np.abs(out - anchor))) > epsilon
            or float(np.min(out)) < 0.0
            or float(np.max(out)) > 1.0
        ):
            self.infeasible += 1


@dataclasses.dataclass
class UnitResult:
    seconds: float
    examples: int
    signature: str  # params digest (train) or report hash (eval)
    output: object


def evaluate_checkpoint(fixture: Fixture, unit: UnitInput):
    return metrics.evaluate(
        fixture.checkpoint, unit.test_data, attack=fixture.eval_attack, seed=unit.seed
    )


def _timed_call(fixture: Fixture, unit: UnitInput, failures: Failures, tracer: Tracer | None):
    if tracer is not None:
        tracer.install(TRACED_MODULES)
    try:
        started = perf_counter()
        if fixture.workload.kind == "train":
            result = failures.call("training.train", training.train, unit.config, unit.train_data)
        else:
            result = failures.call("metrics.evaluate", evaluate_checkpoint, fixture, unit)
        return result, perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()


def run_unit(fixture: Fixture, index: int, failures: Failures, tracer: Tracer | None = None):
    """One timed unit of work plus its output checks; None if it raised or failed a check."""
    unit = fixture.unit_input(index)
    result, seconds = _timed_call(fixture, unit, failures, tracer)
    if result is None:
        return None
    if fixture.workload.kind == "train":
        model, history = result
        digest = nn_engine.params_digest(model)
        problems = check_history(history, unit.train_data.num_classes)
        if history.records and history.records[-1].params_digest != digest:
            problems.append("history digest differs from the returned model")
        if not failures.record(not problems, "; ".join(problems)):
            return None
        return UnitResult(seconds, unit.train_data.size * UNIT_EPOCHS, digest, history)
    problems = check_report(result, unit.test_data)
    if not failures.record(not problems, "; ".join(problems)):
        return None
    return UnitResult(seconds, unit.test_data.size, report_hash(result), result)


def run_units(fixture: Fixture, failures: Failures, seconds: float) -> list:
    """Units 0, 1, ... until `seconds` have passed, and at least MIN_UNITS."""
    results = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(results) < MIN_UNITS:
        results.append(run_unit(fixture, len(results), failures))
    return results


def run_traced(fixture: Fixture, failures: Failures, seconds: float):
    """Each unit runs untraced, then traced on the same inputs.

    Pairing cancels the machine's slow speed drift in the overhead ratio.
    Set-up is traced once, without warm-up, in a tracer of its own.
    """
    setup_tracer = Tracer()
    setup_tracer.install(TRACED_MODULES)
    try:
        set_up(fixture.workload, fixture.seed, warm_up=False)
    finally:
        setup_tracer.uninstall()
    audit = AttackAudit()
    tracer = Tracer()
    tracer.hooks["attacks.pgd_attack"] = audit
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(plain) < MIN_UNITS:
        plain.append(run_unit(fixture, len(plain), failures))
        traced.append(run_unit(fixture, len(traced), failures, tracer))
    failures.record(
        _signatures(traced) == _signatures(plain),
        "traced and untraced units give different outputs",
    )
    failures.record(audit.infeasible == 0, f"{audit.infeasible} infeasible attack outputs")
    summary = tracer.summary()
    pairs = [(p, t) for p, t in zip(plain, traced) if p is not None and t is not None]
    per_layer = {}
    if pairs:
        overhead = statistics.median(t.seconds / p.seconds for p, t in pairs) - 1.0
        traced_s = sum(t.seconds for _, t in pairs)
        per_layer = per_layer_metrics(summary, setup_tracer.summary(), audit, overhead, traced_s)
    return plain, per_layer, summary, audit


def quality_probe(fixture: Fixture, units: list, failures: Failures) -> dict | None:
    """PGD-20 accuracy of the fixed checkpoint, pooled over the first test splits.

    The eval workload reuses its first units' reports; the training
    workloads evaluate the same splits once, outside the timed units.
    """
    reports = []
    for index in range(QUALITY_SPLITS):
        if fixture.workload.kind == "eval":
            if index >= len(units) or units[index] is None:
                return None
            reports.append(units[index].output)
            continue
        split = fixture.unit_input(index)
        report = failures.call("quality probe", evaluate_checkpoint, fixture, split)
        if report is None:
            return None
        problems = check_report(report, split.test_data)
        if not failures.record(not problems, "quality probe: " + "; ".join(problems)):
            return None
        reports.append(report)
    confusion = sum(np.asarray(report.confusion) for report in reports)
    hashes = [report_hash(report) for report in reports]
    return {
        "robust_avg_acc": float(np.trace(confusion) / np.sum(confusion)),
        "robust_worst_acc": float(np.min(np.diagonal(confusion) / np.sum(confusion, axis=1))),
        "report_sha256": hashlib.sha256("".join(hashes).encode("ascii")).hexdigest(),
        "split_report_sha256": hashes,
    }


def check_repeat(fixture: Fixture, units: list, failures: Failures) -> None:
    """Unit 0 run again must give the same output bytes."""
    again = run_unit(fixture, 0, failures)
    failures.record(
        bool(units) and units[0] is not None and again is not None
        and again.signature == units[0].signature,
        "unit 0 repeated gives different output",
    )


def examples_per_s(units: list) -> float:
    """Examples over seconds summed across units: each unit runs on other inputs."""
    finished = [u for u in units if u is not None]
    return sum(u.examples for u in finished) / sum(u.seconds for u in finished)


def per_layer_metrics(
    unit_trace, setup_trace, audit: AttackAudit, overhead_share: float, traced_s: float
) -> dict:
    """Per-layer numbers from the traced units and one traced set-up pass."""
    s = unit_trace
    wcd_calls = s.calls(name="dro_core.worst_case_distribution")
    oracle_calls = s.calls(name="dro_core.oracle_worst_case")
    pgd_ms = s.durations_ms(name="attacks.pgd_attack")
    oracle_ms = s.durations_ms(name="dro_core.oracle_worst_case")
    steps_ms = s.item_intervals_ms(name="data.batch_iter", caller="training")
    values = {
        "nn_engine.backward.from_attacks.calls": s.calls(name="nn_engine.backward", caller="attacks"),
        "nn_engine.backward.from_attacks.self_s": s.self_s(name="nn_engine.backward", caller="attacks"),
        "nn_engine.backward.from_training.self_s": s.self_s(name="nn_engine.backward", caller="training"),
        "nn_engine.from_attacks.self_s": s.self_s(module="nn_engine", caller="attacks"),
        "nn_engine.sgd_step.self_s": s.self_s(name="nn_engine.sgd_step"),
        "nn_engine.forward.self_s": s.self_s(name="nn_engine.forward"),
        "attacks.pgd_attack.calls": s.calls(name="attacks.pgd_attack"),
        "attacks.pgd_attack.self_s": s.self_s(name="attacks.pgd_attack"),
        "attacks.pgd_attack.ms_p50": p50_ms(pgd_ms),
        "attacks.pgd_attack.ms_tail": tail_ms(pgd_ms),
        "attacks.project_linf.self_s": s.self_s(name="attacks.project_linf"),
        "attacks.infeasible": audit.infeasible,
        "dro_core.self_s": s.self_s(module="dro_core"),
        "dro_core.oracle_worst_case.calls": oracle_calls,
        "dro_core.oracle_worst_case.self_s": s.self_s(name="dro_core.oracle_worst_case"),
        "dro_core.oracle_worst_case.ms_p50": p50_ms(oracle_ms),
        "dro_core.oracle_worst_case.ms_tail": tail_ms(oracle_ms),
        "dro_core.fallback_share": oracle_calls / wcd_calls if wcd_calls else 0.0,
        "training.self_s": s.self_s(module="training"),
        "training.class_avg_loss.calls": s.calls(name="training.class_avg_loss"),
        "training.step_ms.p50": p50_ms(steps_ms),
        "training.step_ms.tail": tail_ms(steps_ms),
        "data.batch_iter.wait_s": s.total_s(name="data.batch_iter"),
        "data.gen_gaussian_mixture.self_s": setup_trace.self_s(name="data.gen_gaussian_mixture"),
        "metrics.evaluate.self_s": s.self_s(name="metrics.evaluate"),
        "nn_engine.load_checkpoint.self_s": setup_trace.self_s(name="nn_engine.load_checkpoint"),
        "trace.overhead_share": overhead_share,
        "trace.units_s": traced_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def end_to_end_metrics(setup_s: float, units: list, quality: dict) -> dict:
    values = {
        "setup_s": setup_s,
        "examples_per_s": examples_per_s(units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality.robust_avg_acc": quality["robust_avg_acc"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
    }


def _checkpoint_intact(failures: Failures) -> None:
    with open(CHECKPOINT_PATH, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    failures.record(digest == CHECKPOINT_SHA256, f"checkpoint {CHECKPOINT_PATH} has sha256 {digest}")


def _signatures(units: list) -> list:
    return [None if unit is None else unit.signature for unit in units]


def run(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float, blas_threads: int):
    """Run one workload; returns (result line dict, full record dict)."""
    workload = WORKLOADS[workload_name]
    failures = Failures()
    _checkpoint_intact(failures)
    pass_seconds = []
    for _ in range(SETUP_PASSES):
        started = perf_counter()
        fixture = set_up(workload, seed)
        pass_seconds.append(perf_counter() - started)
    setup_s = import_s + statistics.median(pass_seconds)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(blas_threads),
        "setup": {"import_s": import_s, "pass_s": pass_seconds, "setup_s": setup_s},
    }

    if trace:
        units, metrics_out, summary, audit = run_traced(fixture, failures, seconds)
        record["attack_outputs_checked"] = audit.calls
        record["spans"] = int(summary.ids.size)
        record["trace_table"] = summary.table()
        _save_spans(summary, f"{workload.name}_seed{seed}")
    else:
        units = run_units(fixture, failures, seconds)
        check_repeat(fixture, units, failures)
    finished = [u for u in units if u is not None]
    quality = quality_probe(fixture, units, failures)
    if not trace:
        metrics_out = end_to_end_metrics(setup_s, units, quality) if finished and quality else {}

    record["units"] = {
        "count": len(units),
        "seeds": [fixture.unit_input(i).seed for i in range(len(units))],
        "seconds": [None if u is None else u.seconds for u in units],
        "signatures": _signatures(units),
    }
    # the first unit's output: identical for every run of this workload and seed
    record["params_digest"] = (
        units[0].signature
        if workload.kind == "train" and units[0] is not None
        else nn_engine.params_digest(fixture.checkpoint)
    )
    if quality is not None:
        record["eval_report_sha256"] = quality["report_sha256"]
        record["quality"] = quality
    if workload.kind == "train" and finished:
        last = [None if u is None else u.output.records[-1] for u in units]
        record["training"] = {
            "epochs_per_unit": UNIT_EPOCHS,
            "final_adv_loss": [None if r is None else r.loss for r in last],
            "closed_form_fraction": [None if r is None else r.closed_form_fraction for r in last],
            "mean_closed_form_fraction": statistics.mean(
                r.closed_form_fraction for r in last if r is not None
            ),
        }
    record["metrics"] = metrics_out
    record["failures"] = failures.messages
    result = {
        "correct": failures.failed == 0 and bool(metrics_out),
        "attempted": max(failures.attempted, 1),
        "failed": failures.failed,
        "metrics": metrics_out,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload.name}_seed{seed}_trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result, record


def _save_spans(summary, tag: str) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    np.savez_compressed(
        os.path.join(OUT_DIR, f"{tag}.spans.npz"),
        names=np.asarray(summary.names),
        ids=summary.ids,
        parents=summary.parents,
        starts=summary.starts,
        ends=summary.ends,
        instances=summary.instances,
    )
