"""Acceptance checks, one criterion per test, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The two
training-based checks share a cache of trained models, so the whole module
finishes in a few minutes on a desktop CPU.
"""

import json
import time

import numpy as np
import pytest

from codat.attacks import AttackConfig, pgd_attack
from codat.cli import main as cli_main
from codat.data import LabeledBatch, MixtureSpec, gen_gaussian_mixture, toy3_spec
from codat.dro_core import (
    AmbiguityConfig,
    ClassRiskVector,
    ProbabilityDistribution,
    chi_square_divergence,
    closed_form,
    mean_variance_under,
    oracle_worst_case,
    uniform_distribution,
    worst_case_distribution,
)
from codat.metrics import evaluate
from codat.nn_engine import (
    backward,
    cross_entropy_per_example,
    forward,
    init_model,
    params_digest,
    walk_buffers,
)
from codat.training import TrainConfig, train

# published benchmark accuracy rows: five result sets, four attack columns
# each, as (method, average, worst, printed coefficient); the first row of
# each group is the baseline
REFERENCE_FEC_SETS = {
    "set1/natural": [("AT", 83.81, 65.40, 1.00), ("TRADES", 82.38, 68.30, 1.03),
                     ("FRL-RWRM", 83.47, 71.10, 1.09), ("BAT", 86.46, 75.20, 1.20),
                     ("CFOL", 81.37, 64.70, 0.96), ("WAT", 80.05, 65.20, 0.95),
                     ("CODAT", 80.62, 66.40, 0.98)],
    "set1/pgd100": [("AT", 49.57, 22.00, 1.00), ("TRADES", 52.55, 28.50, 1.43),
                    ("FRL-RWRM", 48.70, 30.60, 1.45), ("BAT", 48.30, 26.10, 1.17),
                    ("CFOL", 47.46, 32.30, 1.53), ("WAT", 49.69, 36.30, 1.92),
                    ("CODAT", 50.56, 37.30, 2.05)],
    "set1/cw30": [("AT", 49.87, 22.40, 1.00), ("TRADES", 50.93, 25.90, 1.19),
                  ("FRL-RWRM", 48.28, 30.90, 1.42), ("BAT", 47.40, 24.00, 1.02),
                  ("CFOL", 46.03, 25.60, 1.07), ("WAT", 48.25, 33.10, 1.56),
                  ("CODAT", 47.87, 34.10, 1.62)],
    "set1/aa": [("AT", 47.01, 18.80, 1.00), ("TRADES", 49.52, 24.50, 1.43),
                ("FRL-RWRM", 46.09, 26.40, 1.47), ("BAT", 44.90, 21.90, 1.13),
                ("CFOL", 43.01, 22.10, 1.09), ("WAT", 46.80, 30.90, 1.89),
                ("CODAT", 46.57, 32.30, 2.03)],
    "set2/natural": [("AT", 57.52, 20.00, 1.00), ("TRADES", 55.24, 17.00, 0.83),
                     ("FRL-RWRM", 53.40, 24.00, 1.14), ("BAT", 61.74, 22.00, 1.19),
                     ("CFOL", 53.51, 20.00, 0.93), ("WAT", 53.00, 22.00, 1.02),
                     ("CODAT", 55.90, 20.00, 0.97)],
    "set2/pgd100": [("AT", 24.36, 2.00, 1.00), ("TRADES", 27.89, 2.00, 1.16),
                    ("FRL-RWRM", 22.68, 2.00, 0.93), ("BAT", 28.71, 4.00, 3.25),
                    ("CFOL", 24.21, 4.00, 2.70), ("WAT", 29.00, 3.00, 1.99),
                    ("CODAT", 27.60, 4.00, 3.10)],
    "set2/cw30": [("AT", 24.04, 2.00, 1.00), ("TRADES", 25.05, 1.00, 0.63),
                  ("FRL-RWRM", 21.46, 2.00, 0.90), ("BAT", 24.32, 1.00, 0.61),
                  ("CFOL", 22.92, 3.00, 1.57), ("WAT", 27.00, 2.00, 1.13),
                  ("CODAT", 23.83, 3.00, 1.63)],
    "set2/aa": [("AT", 22.19, 1.00, 1.00), ("TRADES", 24.07, 1.00, 1.09),
                ("FRL-RWRM", 19.99, 1.00, 0.91), ("BAT", 22.88, 1.00, 1.03),
                ("CFOL", 20.74, 2.00, 2.55), ("WAT", 26.00, 1.00, 1.19),
                ("CODAT", 22.92, 2.00, 2.81)],
    "set3/natural": [("AT", 92.74, 87.20, 1.00), ("TRADES", 88.30, 76.13, 0.84),
                     ("FRL-RWRM", 93.65, 89.10, 1.03), ("BAT", 90.19, 79.77, 0.89),
                     ("CFOL", 89.85, 82.27, 0.92), ("WAT", 93.73, 88.17, 1.02),
                     ("CODAT", 91.69, 87.86, 1.00)],
    "set3/pgd100": [("AT", 53.18, 35.78, 1.00), ("TRADES", 56.43, 35.54, 1.06),
                    ("FRL-RWRM", 54.48, 39.16, 1.13), ("BAT", 41.55, 29.25, 0.67),
                    ("CFOL", 44.10, 32.76, 0.77), ("WAT", 54.73, 41.20, 1.20),
                    ("CODAT", 54.73, 46.91, 1.41)],
    "set3/cw30": [("AT", 51.61, 36.81, 1.00), ("TRADES", 53.15, 32.17, 0.91),
                  ("FRL-RWRM", 51.86, 36.51, 1.00), ("BAT", 31.78, 19.70, 0.43),
                  ("CFOL", 40.63, 31.05, 0.69), ("WAT", 50.53, 37.17, 0.99),
                  ("CODAT", 48.98, 40.53, 1.05)],
    "set3/aa": [("AT", 47.27, 31.93, 1.00), ("TRADES", 50.52, 29.46, 0.99),
                ("FRL-RWRM", 47.02, 33.19, 1.03), ("BAT", 24.59, 15.78, 0.37),
                ("CFOL", 37.04, 27.55, 0.70), ("WAT", 47.02, 33.25, 1.04),
                ("CODAT", 46.27, 38.55, 1.20)],
    "set4/natural": [("AT", 64.31, 38.00, 1.00), ("TRADES", 63.95, 40.00, 1.05),
                     ("FRL-RWRM", 65.58, 46.25, 1.27), ("BAT", 60.40, 40.13, 1.00),
                     ("CFOL", 51.58, 34.50, 0.75), ("WAT", 59.31, 43.63, 1.07),
                     ("CODAT", 60.06, 46.00, 1.16)],
    "set4/pgd100": [("AT", 36.88, 12.13, 1.00), ("TRADES", 38.06, 12.25, 1.04),
                    ("FRL-RWRM", 33.80, 15.63, 1.23), ("BAT", 27.43, 7.50, 0.53),
                    ("CFOL", 26.45, 14.75, 0.94), ("WAT", 32.91, 14.63, 1.10),
                    ("CODAT", 33.31, 17.50, 1.41)],
    "set4/cw30": [("AT", 35.45, 7.63, 1.00), ("TRADES", 35.15, 9.63, 1.29),
                  ("FRL-RWRM", 31.94, 12.50, 1.71), ("BAT", 22.66, 4.25, 0.45),
                  ("CFOL", 24.19, 8.38, 0.80), ("WAT", 29.93, 12.00, 1.52),
                  ("CODAT", 30.01, 13.75, 1.91)],
    "set4/aa": [("AT", 33.88, 5.75, 1.00), ("TRADES", 34.68, 9.00, 1.80),
                ("FRL-RWRM", 31.64, 10.50, 2.14), ("BAT", 21.98, 3.88, 0.51),
                ("CFOL", 22.99, 6.13, 0.77), ("WAT", 29.66, 11.63, 2.45),
                ("CODAT", 29.54, 13.25, 3.24)],
    "set5/natural": [("AT", 86.62, 75.20, 1.00), ("TRADES", 84.52, 71.50, 0.93),
                     ("FRL-RWRM", 85.04, 70.70, 0.92), ("BAT", 86.08, 74.20, 0.98),
                     ("CFOL", 86.14, 71.40, 0.95), ("WAT", 83.66, 71.90, 0.92),
                     ("CODAT", 83.89, 73.10, 0.94)],
    "set5/pgd100": [("AT", 48.84, 23.30, 1.00), ("TRADES", 54.61, 31.50, 1.60),
                    ("FRL-RWRM", 50.68, 28.90, 1.32), ("BAT", 47.44, 27.70, 1.17),
                    ("CFOL", 50.60, 31.10, 1.45), ("WAT", 52.42, 33.60, 1.67),
                    ("CODAT", 53.97, 39.00, 2.18)],
    "set5/cw30": [("AT", 50.19, 25.40, 1.00), ("TRADES", 53.97, 30.70, 1.33),
                  ("FRL-RWRM", 51.60, 29.60, 1.21), ("BAT", 49.20, 30.10, 1.18),
                  ("CFOL", 50.64, 31.80, 1.30), ("WAT", 51.67, 32.10, 1.34),
                  ("CODAT", 51.55, 34.90, 1.49)],
    "set5/aa": [("AT", 47.51, 22.30, 1.00), ("TRADES", 52.19, 27.70, 1.41),
                ("FRL-RWRM", 49.40, 27.40, 1.31), ("BAT", 45.24, 25.00, 1.08),
                ("CFOL", 48.16, 27.80, 1.30), ("WAT", 50.10, 30.30, 1.51),
                ("CODAT", 50.16, 33.40, 1.74)],
}

TOY_MEANS = np.array([[0.0, 0.0], [2.3, 2.0], [4.7, 0.1]])
TRAIN_ATTACK = AttackConfig(epsilon=0.03, step_size=0.0075, steps=10, random_start=True)
EVAL_ATTACK = AttackConfig(epsilon=0.03, step_size=0.00375, steps=20, random_start=True)
SEEDS = (0, 1, 2)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _toy_dataset(samples_per_class: int, seed: int, split: str):
    spec = MixtureSpec(
        means=TOY_MEANS,
        spread=1.0,
        samples_per_class=samples_per_class,
        seed=seed,
    )
    return gen_gaussian_mixture(spec, split=split)


class ToyRunCache:
    """Trains toy-preset models on demand, once per (method, eta, seed)."""

    def __init__(self):
        self._reports = {}

    def report(self, method: str, eta: float, seed: int):
        key = (method, eta, seed)
        if key not in self._reports:
            train_data = _toy_dataset(500, seed, "train")
            test_data = _toy_dataset(200, seed + 10000, "test")
            config = TrainConfig(
                method=method,
                epochs=60,
                batch_size=64,
                base_lr=0.1,
                momentum=0.9,
                weight_decay=5e-3,
                lr_milestones=(45, 54),
                attack=TRAIN_ATTACK,
                eta=eta,
                seed=seed,
                hidden_dims=(256, 256),
            )
            model, _ = train(config, train_data)
            self._reports[key] = evaluate(model, test_data, attack=EVAL_ATTACK, seed=seed)
        return self._reports[key]


@pytest.fixture(scope="module")
def toy_runs():
    return ToyRunCache()


def test_criterion_1_reference_fec_tables(tmp_path):
    started = time.perf_counter()
    mismatches = []
    checked = 0
    for group, rows in REFERENCE_FEC_SETS.items():
        argv = ["fec", "--baseline", rows[0][0], "--out", str(tmp_path / group.replace("/", "_"))]
        for name, avg, wst, _ in rows:
            argv += ["--row", f"{name},{avg},{wst}"]
        assert cli_main(argv) == 0
        payload = json.loads(
            (tmp_path / group.replace("/", "_") / "fec.json").read_text()
        )
        computed = {entry["method"]: entry["fec"] for entry in payload}
        for name, _, _, printed in rows:
            checked += 1
            if abs(computed[name] - printed) > 0.01:
                mismatches.append((group, name, computed[name], printed))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 1.0
    _line(1, ok, f"{checked} published FEC values reproduced within 0.01 ({elapsed:.2f}s)")
    assert not mismatches, mismatches
    assert elapsed < 1.0


def test_criterion_2_dirac_divergence():
    started = time.perf_counter()
    failures = []
    for num_classes in range(2, 101):
        dirac = np.zeros(num_classes)
        dirac[0] = 1.0
        value = chi_square_divergence(
            ProbabilityDistribution(dirac), uniform_distribution(num_classes)
        )
        if value != float(num_classes - 1):
            failures.append((num_classes, value))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    _line(2, ok, f"Dirac vs uniform divergence exactly K-1 for K in 2..100 ({elapsed:.2f}s)")
    assert not failures, failures
    assert elapsed < 1.0


def _random_instances(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        num_classes = int(rng.integers(2, 11))
        risks = ClassRiskVector(rng.uniform(0.0, 5.0, size=num_classes))
        eta = float(rng.uniform(0.05, 0.9))
        eta = min(eta, (num_classes - 1) * 0.999)
        yield risks, AmbiguityConfig(uniform_distribution(num_classes), eta)


def test_criterion_3_closed_form_vs_oracle():
    started = time.perf_counter()
    max_objective_gap = 0.0
    max_distribution_gap = 0.0
    valid = 0
    for risks, cfg in _random_instances(200, seed=202):
        solution = worst_case_distribution(risks, cfg)
        if not solution.closed_form.valid:
            continue
        valid += 1
        distribution, objective = oracle_worst_case(risks, cfg)
        max_objective_gap = max(
            max_objective_gap, abs(objective - closed_form(risks, cfg).objective)
        )
        max_distribution_gap = max(
            max_distribution_gap,
            float(np.max(np.abs(distribution.weights - solution.distribution.weights))),
        )
    elapsed = time.perf_counter() - started
    ok = max_objective_gap <= 1e-3 and max_distribution_gap <= 1e-3 and elapsed < 10.0
    _line(
        3,
        ok,
        f"oracle vs closed form on {valid} valid instances: objective gap "
        f"{max_objective_gap:.2e}, distribution gap {max_distribution_gap:.2e} ({elapsed:.1f}s)",
    )
    assert max_objective_gap <= 1e-3
    assert max_distribution_gap <= 1e-3
    assert elapsed < 10.0


def test_criterion_4_worst_case_identities():
    started = time.perf_counter()
    worst_radius = 0.0
    worst_duality = 0.0
    worst_reconstruction = 0.0
    for risks, cfg in _random_instances(300, seed=404):
        solution = worst_case_distribution(risks, cfg)
        form = solution.closed_form
        if not form.valid or form.degenerate or cfg.eta == 0.0:
            continue
        weights = solution.distribution.weights
        worst_radius = max(
            worst_radius, abs(chi_square_divergence(solution.distribution, cfg.p0) - cfg.eta)
        )
        worst_duality = max(
            worst_duality,
            abs(float(np.dot(weights, risks.risks)) - closed_form(risks, cfg).objective),
        )
        mean, _ = mean_variance_under(cfg.p0, risks)
        rebuilt = cfg.p0.weights * (
            1.0 + (risks.risks - mean) / (2.0 * form.multiplier)
        )
        worst_reconstruction = max(
            worst_reconstruction, float(np.max(np.abs(rebuilt - weights)))
        )
    elapsed = time.perf_counter() - started
    ok = worst_radius <= 1e-8 and worst_duality <= 1e-8 and worst_reconstruction <= 1e-10
    _line(
        4,
        ok,
        f"radius gap {worst_radius:.2e} (<=1e-8), objective identity {worst_duality:.2e} "
        f"(<=1e-8), multiplier reconstruction {worst_reconstruction:.2e} (<=1e-10)",
    )
    assert worst_radius <= 1e-8
    assert worst_duality <= 1e-8
    assert worst_reconstruction <= 1e-10


def _numeric_gradient(objective, point: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(point)
    for idx in range(point.size):
        bumped = point.copy()
        bumped[idx] += step
        up = objective(bumped)
        bumped[idx] -= 2 * step
        down = objective(bumped)
        grad[idx] = (up - down) / (2 * step)
    return grad


def test_criterion_5_gradient_checks():
    started, cpu_started = time.perf_counter(), time.process_time()
    rng = np.random.default_rng(505)
    worst_objective_gap = 0.0
    for _ in range(20):
        num_classes = int(rng.integers(2, 8))
        risks = rng.uniform(0.1, 5.0, size=num_classes)
        eta = min(float(rng.uniform(0.05, 0.9)), (num_classes - 1) * 0.999)
        cfg = AmbiguityConfig(uniform_distribution(num_classes), eta)
        analytic = closed_form(ClassRiskVector(risks), cfg).gradient
        numeric = _numeric_gradient(
            lambda r: closed_form(ClassRiskVector(r), cfg).objective, risks
        )
        worst_objective_gap = max(worst_objective_gap, float(np.max(np.abs(analytic - numeric))))

    worst_network_gap = 0.0
    for net in range(20):
        dims = [int(rng.integers(2, 5))]
        for _ in range(int(rng.integers(1, 3))):
            dims.append(int(rng.integers(2, 6)))
        dims.append(int(rng.integers(2, 4)))
        model = init_model(dims, seed=600 + net)
        size = int(rng.integers(2, 5))
        batch = LabeledBatch(
            rng.uniform(0.0, 1.0, size=(size, dims[0])),
            rng.integers(1, dims[-1] + 1, size=size),
        )
        loss_weights = np.full(size, 1.0 / size)

        def batch_loss(features):
            probe = LabeledBatch(features.reshape(size, dims[0]), batch.labels)
            losses = cross_entropy_per_example(forward(model, probe.features), probe.labels)
            return float(np.dot(loss_weights, losses))

        walk = walk_buffers(model, size)
        forward(model, batch.features, walk)
        grads, input_grads = backward(model, batch.features, batch.labels, walk, loss_weights)
        numeric_inputs = _numeric_gradient(batch_loss, batch.features.ravel().copy())
        gap = np.max(
            np.abs(input_grads.ravel() - numeric_inputs)
            / (1.0 + np.abs(numeric_inputs))
        )
        worst_network_gap = max(worst_network_gap, float(gap))
        for layer, (gw, gb) in enumerate(grads):
            for which, analytic_block in (("w", gw), ("b", gb)):
                original = (
                    model.layers[layer][0] if which == "w" else model.layers[layer][1]
                )

                def param_loss(flat):
                    saved = original.copy()
                    original[...] = flat.reshape(original.shape)
                    try:
                        losses = cross_entropy_per_example(
                            forward(model, batch.features), batch.labels
                        )
                        return float(np.dot(loss_weights, losses))
                    finally:
                        original[...] = saved

                numeric_block = _numeric_gradient(param_loss, original.ravel().copy())
                gap = np.max(
                    np.abs(analytic_block.ravel() - numeric_block)
                    / (1.0 + np.abs(numeric_block))
                )
                worst_network_gap = max(worst_network_gap, float(gap))
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    ok = worst_objective_gap <= 1e-5 and worst_network_gap <= 1e-4 and elapsed < 30.0
    _line(
        5,
        ok,
        f"objective gradient gap {worst_objective_gap:.2e} (<=1e-5), network gradient "
        f"gap {worst_network_gap:.2e} (<=1e-4 relative) ({elapsed:.1f}s wall, {cpu:.1f}s CPU)",
    )
    assert worst_objective_gap <= 1e-5
    assert worst_network_gap <= 1e-4
    assert elapsed < 30.0


def test_criterion_6_reduction_chain():
    started, cpu_started = time.perf_counter(), time.process_time()
    train_data = _toy_dataset(500, 0, "train")
    shared = dict(
        epochs=60,
        batch_size=64,
        base_lr=0.1,
        momentum=0.9,
        weight_decay=5e-3,
        lr_milestones=(45, 54),
        attack=TRAIN_ATTACK,
        seed=0,
        hidden_dims=(256, 256),
    )
    model_zero, history_zero = train(TrainConfig(method="codat", eta=0.0, **shared), train_data)
    model_std, history_std = train(TrainConfig(method="standard_at", **shared), train_data)
    trajectory_zero = [record.params_digest for record in history_zero.records]
    trajectory_std = [record.params_digest for record in history_std.records]
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    ok = (
        trajectory_zero == trajectory_std
        and params_digest(model_zero) == params_digest(model_std)
        and elapsed < 60.0
    )
    _line(
        6,
        ok,
        f"zero-radius run and standard run share all {len(trajectory_zero)} epoch "
        f"digests ({elapsed:.1f}s wall, {cpu:.1f}s CPU)",
    )
    assert trajectory_zero == trajectory_std
    assert params_digest(model_zero) == params_digest(model_std)
    assert elapsed < 60.0


def test_criterion_7_attack_feasibility():
    started, cpu_started = time.perf_counter(), time.process_time()
    rng = np.random.default_rng(707)
    checked = 0
    violations = 0
    for chunk in range(20):
        dim = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        model = init_model([dim, 8, classes], seed=chunk)
        size = 500
        batch = LabeledBatch(
            rng.uniform(0.0, 1.0, size=(size, dim)),
            rng.integers(1, classes + 1, size=size),
        )
        epsilon = float(rng.uniform(0.01, 0.3))
        attack = AttackConfig(
            epsilon=epsilon, step_size=epsilon / 3, steps=5, random_start=True
        )
        adversarial = pgd_attack(model, batch, attack, seed=(chunk, 1))
        checked += size
        if not np.all(np.abs(adversarial - batch.features) <= epsilon):
            violations += 1
        if not (np.all(adversarial >= 0.0) and np.all(adversarial <= 1.0)):
            violations += 1
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    ok = violations == 0 and checked == 10000 and elapsed < 10.0
    _line(
        7,
        ok,
        f"{checked} attacked examples all inside the budget and [0,1] exactly "
        f"({elapsed:.1f}s wall, {cpu:.1f}s CPU)",
    )
    assert violations == 0
    assert checked == 10000
    assert elapsed < 10.0


def test_criterion_8_desk_scale_fairness(toy_runs):
    started, cpu_started = time.perf_counter(), time.process_time()
    worst_wins = 0
    variance_wins = 0
    details = []
    for seed in SEEDS:
        dro = toy_runs.report("codat", 0.3, seed)
        baseline = toy_runs.report("standard_at", 0.3, seed)
        worst_wins += dro.worst_class_accuracy > baseline.worst_class_accuracy
        variance_wins += dro.class_variance < baseline.class_variance
        details.append(
            f"seed{seed} worst {dro.worst_class_accuracy:.3f} vs "
            f"{baseline.worst_class_accuracy:.3f}"
        )
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    ok = worst_wins >= 2 and variance_wins >= 2 and elapsed < 600.0
    _line(
        8,
        ok,
        f"worst-class wins {worst_wins}/3, variance wins {variance_wins}/3 "
        f"({'; '.join(details)}) ({elapsed:.0f}s wall, {cpu:.0f}s CPU)",
    )
    assert worst_wins >= 2
    assert variance_wins >= 2
    assert elapsed < 600.0


def test_criterion_9_radius_sensitivity(toy_runs):
    started, cpu_started = time.perf_counter(), time.process_time()
    worst_rises = 0
    average_declines = 0
    for seed in SEEDS:
        small = toy_runs.report("codat", 0.05, seed)
        medium = toy_runs.report("codat", 0.3, seed)
        large = toy_runs.report("codat", 1.5, seed)
        worst_rises += medium.worst_class_accuracy >= small.worst_class_accuracy
        average_declines += large.average_accuracy <= small.average_accuracy
    elapsed = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    ok = worst_rises >= 2 and average_declines >= 2 and elapsed < 900.0
    _line(
        9,
        ok,
        f"worst-class rise 0.05->0.3 in {worst_rises}/3 seeds, average decline "
        f"0.05->1.5 in {average_declines}/3 seeds ({elapsed:.0f}s wall, {cpu:.0f}s CPU)",
    )
    assert worst_rises >= 2
    assert average_declines >= 2
    assert elapsed < 900.0
