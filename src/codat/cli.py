"""Command-line interface: train, evaluate, attack, fec, oracle, sweep.

Configuration is resolved in four layers, later layers winning: built-in
defaults, a named preset, a flat `key = value` config file, and command
line flags.  Every run writes its resolved configuration next to its
artifacts so results can be reproduced from the output directory alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .attacks import AttackConfig, pgd_attack
from .data import Dataset, batch_iter, gen_gaussian_mixture, load_csv, load_idx, save_csv, toy3_spec
from .dro_core import (
    AmbiguityConfig,
    ClassRiskVector,
    ProbabilityDistribution,
    equivalent_objective,
    oracle_worst_case,
    uniform_distribution,
    worst_case_distribution,
)
from .metrics import (
    EvalReport,
    confusion_to_csv,
    evaluate,
    fec_rows,
    fec_table_to_csv,
    fec_table_to_json,
)
from .nn_engine import (
    LabeledBatch,
    cross_entropy_per_example,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .training import VALID_METHODS, TrainConfig, config_fingerprint, train

OUT_ROOT_ENV = "CODAT_OUT_ROOT"


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# every configuration key, declared once: key -> (parser, default).  The
# command-line flag is --<key with dashes> (base_lr is --lr).  Documented
# defaults follow the published training recipe; the desk-scale preset
# overrides them with values that finish in minutes
_KEYS = {
    "method": (str, "codat"),
    "preset": (str, "none"),
    "epochs": (int, 100),
    "batch_size": (int, 128),
    "base_lr": (float, 0.1),
    "momentum": (float, 0.9),
    "weight_decay": (float, 2e-4),
    "lr_milestones": (_int_list, (75, 90)),
    "lr_factor": (float, 0.1),
    "eta": (float, 0.5),
    "fixed_weights": (_float_list, None),
    "seed": (int, 0),
    "hidden_dims": (_int_list, (256, 256)),
    "epsilon": (float, 8.0 / 255.0),
    "attack_step_size": (float, 2.0 / 255.0),
    "attack_steps": (int, 10),
    "random_start": (_parse_bool, True),
    "eval_attack_steps": (int, 100),
    "eval_attack_step_size": (float, 1.0 / 255.0),
    "train_per_class": (int, 500),
    "test_per_class": (int, 200),
    "spread": (float, 1.0),
    "train_csv": (str, None),
    "test_csv": (str, None),
    "train_images": (str, None),
    "train_labels": (str, None),
    "test_images": (str, None),
    "test_labels": (str, None),
    "out_root": (str, None),
    "run_name": (str, None),
    "select_best": (_parse_bool, False),
}
DEFAULTS = {key: default for key, (_, default) in _KEYS.items()}

PRESETS = {
    "none": {},
    # three-class Gaussian mixture, small MLP, minutes on a CPU; the higher
    # weight decay makes class margins decay when a class stops receiving
    # gradient, which the radius sweep relies on to show its tradeoff
    "toy3": {
        "epochs": 60,
        "batch_size": 64,
        "base_lr": 0.1,
        "lr_milestones": (45, 54),
        "weight_decay": 5e-3,
        "eta": 0.3,
        "epsilon": 0.03,
        "attack_step_size": 0.0075,
        "attack_steps": 10,
        "eval_attack_steps": 20,
        "eval_attack_step_size": 0.00375,
        "hidden_dims": (256, 256),
        "train_per_class": 500,
        "test_per_class": 200,
    },
    # the published image-benchmark recipe, kept for documentation; needs
    # externally supplied IDX data and far more compute than a desk run
    "paper-cifar": {
        "epochs": 100,
        "batch_size": 128,
        "base_lr": 0.1,
        "lr_milestones": (75, 90),
        "eta": 0.5,
        "epsilon": 8.0 / 255.0,
        "attack_step_size": 2.0 / 255.0,
        "attack_steps": 10,
        "eval_attack_steps": 100,
        "eval_attack_step_size": 1.0 / 255.0,
    },
}


class CliError(ValueError):
    """Configuration or usage problem; maps to exit status 2."""


def _parse_value(key: str, text) -> object:
    if not isinstance(text, str):
        return text
    stripped = text.strip()
    parse, default = _KEYS[key]
    # only a key that is unset by default can be set back to unset
    if default is None and stripped.lower() == "none":
        return None
    try:
        return parse(stripped)
    except ValueError as exc:
        raise CliError(f"{key}: {exc}") from None


def parse_config_file(path) -> dict:
    """Flat `key = value` file; '#' starts a comment, blank lines ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise CliError(f"{path}:{lineno}: unknown configuration key {key!r}")
            values[key] = _parse_value(key, value)
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Merge defaults, preset, config file, and flags, in that order."""
    resolved = dict(DEFAULTS)
    file_values = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        file_values = parse_config_file(config_path)
    preset = getattr(args, "preset", None) or file_values.get("preset") or resolved["preset"]
    if preset not in PRESETS:
        raise CliError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
    resolved["preset"] = preset
    resolved.update(PRESETS[preset])
    resolved.update(file_values)
    for key in _KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = _parse_value(key, flag_value)
    resolved["preset"] = preset
    return resolved


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_config(resolved: dict) -> str:
    lines = [f"{key} = {_format_value(resolved[key])}" for key in sorted(resolved)]
    return "\n".join(lines) + "\n"


def _out_root(resolved: dict) -> Path:
    if resolved.get("out_root"):
        return Path(resolved["out_root"])
    env = os.environ.get(OUT_ROOT_ENV)
    if env:
        return Path(env)
    return Path("runs")


def run_directory(resolved: dict) -> Path:
    if resolved.get("run_name"):
        return _out_root(resolved) / resolved["run_name"]
    name = (
        f"{resolved['method']}_{resolved['preset']}"
        f"_eta{resolved['eta']:g}_seed{resolved['seed']}"
    )
    return _out_root(resolved) / name


def _dataset_pair(resolved: dict) -> tuple[Dataset, Dataset]:
    idx_keys = ("train_images", "train_labels", "test_images", "test_labels")
    given_idx = [k for k in idx_keys if resolved.get(k)]
    if given_idx:
        missing = [k for k in idx_keys if not resolved.get(k)]
        if missing:
            raise CliError(f"IDX input needs all four paths; missing {missing}")
        train_data = load_idx(resolved["train_images"], resolved["train_labels"], split="train")
        test_data = load_idx(resolved["test_images"], resolved["test_labels"], split="test")
        return train_data, test_data
    if resolved.get("train_csv") or resolved.get("test_csv"):
        if not (resolved.get("train_csv") and resolved.get("test_csv")):
            raise CliError("CSV input needs both train_csv and test_csv")
        train_data = load_csv(resolved["train_csv"], split="train")
        test_data = load_csv(
            resolved["test_csv"], num_classes=train_data.num_classes, split="test"
        )
        return train_data, test_data
    if resolved["preset"] == "toy3":
        seed = resolved["seed"]
        train_data = gen_gaussian_mixture(
            toy3_spec(resolved["train_per_class"], seed=seed, spread=resolved["spread"]),
            split="train",
        )
        test_data = gen_gaussian_mixture(
            toy3_spec(resolved["test_per_class"], seed=seed + 10000, spread=resolved["spread"]),
            split="test",
        )
        return train_data, test_data
    if resolved["preset"] == "paper-cifar":
        raise CliError(
            "preset paper-cifar documents the published recipe; supply IDX or CSV data to run"
        )
    raise CliError("no dataset configured: pick --preset toy3 or give CSV/IDX paths")


def _eval_dataset(resolved: dict) -> Dataset:
    idx_keys = ("test_images", "test_labels")
    if any(resolved.get(k) for k in idx_keys):
        if not all(resolved.get(k) for k in idx_keys):
            raise CliError("IDX input needs both test_images and test_labels")
        return load_idx(resolved["test_images"], resolved["test_labels"], split="test")
    if resolved.get("test_csv"):
        return load_csv(resolved["test_csv"], split="test")
    if resolved["preset"] == "toy3":
        return gen_gaussian_mixture(
            toy3_spec(
                resolved["test_per_class"],
                seed=resolved["seed"] + 10000,
                spread=resolved["spread"],
            ),
            split="test",
        )
    raise CliError("no dataset configured: pick --preset toy3 or give CSV/IDX paths")


def _attack(resolved: dict, prefix: str) -> AttackConfig:
    """The training attack (prefix "") or the evaluation attack (prefix "eval_")."""
    return AttackConfig(
        epsilon=resolved["epsilon"],
        step_size=resolved[f"{prefix}attack_step_size"],
        steps=resolved[f"{prefix}attack_steps"],
        random_start=resolved["random_start"],
    )


def build_train_config(resolved: dict) -> TrainConfig:
    fixed = resolved.get("fixed_weights")
    weights = None if fixed is None else ProbabilityDistribution(np.asarray(fixed, dtype=np.float64))
    return TrainConfig(
        method=resolved["method"],
        epochs=resolved["epochs"],
        batch_size=resolved["batch_size"],
        base_lr=resolved["base_lr"],
        momentum=resolved["momentum"],
        weight_decay=resolved["weight_decay"],
        lr_milestones=tuple(resolved["lr_milestones"]),
        lr_factor=resolved["lr_factor"],
        attack=_attack(resolved, ""),
        eta=resolved["eta"],
        fixed_weights=weights,
        seed=resolved["seed"],
        hidden_dims=tuple(resolved["hidden_dims"]),
        select_best=resolved["select_best"],
    )


def _write_report(report: EvalReport, resolved: dict, path: Path) -> None:
    payload = report.to_dict()
    payload["resolved_config"] = {k: _format_value(v) for k, v in sorted(resolved.items())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _checkpoint_and_data(args: argparse.Namespace, resolved: dict):
    """The checkpoint's model and the evaluation data, checked to fit each other."""
    if not Path(args.checkpoint).exists():
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    model, _, _ = load_checkpoint(args.checkpoint)
    data = _eval_dataset(resolved)
    expected = model.input_dim
    if data.features.shape[1] != expected:
        raise CliError(
            f"checkpoint expects input dimension {expected}, dataset has {data.features.shape[1]}"
        )
    if data.num_classes > model.num_classes:
        raise CliError(
            f"checkpoint has {model.num_classes} classes, dataset labels reach {data.num_classes}"
        )
    return model, data


def _save_run(out_dir: Path, resolved: dict, config: TrainConfig, model) -> Path:
    """Write the run's config.txt and checkpoint.json; returns the checkpoint path."""
    (out_dir / "config.txt").write_text(format_config(resolved), encoding="utf-8")
    checkpoint_path = out_dir / "checkpoint.json"
    save_checkpoint(model, checkpoint_path, seed=config.seed, config_hash=config_fingerprint(config))
    return checkpoint_path


def _summary_line(tag: str, report: EvalReport) -> str:
    return (
        f"{tag}: avg={report.average_accuracy:.4f} "
        f"worst={report.worst_class_accuracy:.4f} variance={report.class_variance:.6f}"
    )


def cmd_train(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    train_data, test_data = _dataset_pair(resolved)
    config = build_train_config(resolved)
    out_dir = run_directory(resolved)
    out_dir.mkdir(parents=True, exist_ok=True)

    model, history = train(config, train_data, test_data)

    checkpoint_path = _save_run(out_dir, resolved, config, model)
    history.save_jsonl(out_dir / "history.jsonl")

    natural = evaluate(model, test_data, attack=None, seed=config.seed)
    adversarial = evaluate(model, test_data, attack=_attack(resolved, "eval_"), seed=config.seed)
    _write_report(natural, resolved, out_dir / "eval_natural.json")
    _write_report(adversarial, resolved, out_dir / "eval_adversarial.json")
    confusion_to_csv(natural, out_dir / "confusion_natural.csv")
    confusion_to_csv(adversarial, out_dir / "confusion_adversarial.csv")

    # validate artifacts before reporting success
    load_checkpoint(checkpoint_path)
    EvalReport.load(out_dir / "eval_natural.json")
    EvalReport.load(out_dir / "eval_adversarial.json")
    print(f"run directory: {out_dir}")
    print(_summary_line("natural", natural))
    print(_summary_line("adversarial", adversarial))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    model, data = _checkpoint_and_data(args, resolved)
    attack = None if args.attack == "none" else _attack(resolved, "eval_")
    report = evaluate(model, data, attack=attack, seed=resolved["seed"])
    out_dir = Path(args.out) if args.out else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = "natural" if attack is None else "adversarial"
    report_path = out_dir / f"eval_{tag}.json"
    _write_report(report, resolved, report_path)
    confusion_to_csv(report, out_dir / f"confusion_{tag}.csv")
    EvalReport.load(report_path)
    print(f"attack: {report.attack}")
    print(_summary_line(tag, report))
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    model, data = _checkpoint_and_data(args, resolved)
    attack = _attack(resolved, "eval_")
    adv_rows = []
    nat_correct = 0
    adv_correct = 0
    nat_loss = 0.0
    adv_loss = 0.0
    max_shift = 0.0
    for idx, batch in enumerate(batch_iter(data, 512, seed=0, shuffle=False)):
        adv = pgd_attack(model, batch, attack, seed=(resolved["seed"], idx))
        adv_rows.append(adv)
        max_shift = max(max_shift, float(np.max(np.abs(adv - batch.features), initial=0.0)))
        nat_logits = forward(model, batch)
        adv_logits = forward(model, LabeledBatch(adv, batch.labels))
        nat_loss += float(np.sum(cross_entropy_per_example(nat_logits, batch.labels)))
        adv_loss += float(np.sum(cross_entropy_per_example(adv_logits, batch.labels)))
        nat_correct += int(np.sum(np.argmax(nat_logits, axis=1) + 1 == batch.labels))
        adv_correct += int(np.sum(np.argmax(adv_logits, axis=1) + 1 == batch.labels))
    features = np.vstack(adv_rows)
    out_dir = Path(args.out) if args.out else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    adv_dataset = Dataset(
        features,
        data.labels,
        split=data.split,
        provenance={**data.provenance, "perturbation": "pgd-linf", "epsilon": attack.epsilon},
    )
    save_csv(adv_dataset, out_dir / "adversarial.csv")
    summary = {
        "examples": data.size,
        "natural_accuracy": nat_correct / data.size,
        "adversarial_accuracy": adv_correct / data.size,
        "natural_loss": nat_loss / data.size,
        "adversarial_loss": adv_loss / data.size,
        "max_linf_shift": max_shift,
        "attack": attack.as_dict(),
        "seed": resolved["seed"],
        "resolved_config": {k: _format_value(v) for k, v in sorted(resolved.items())},
    }
    with open(out_dir / "attack_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(
        f"adversarial accuracy {summary['adversarial_accuracy']:.4f} "
        f"(natural {summary['natural_accuracy']:.4f}), max shift {max_shift:.6f}"
    )
    return 0


def _fec_inputs(args: argparse.Namespace) -> list[tuple[str, float, float]]:
    triples: list[tuple[str, float, float]] = []
    for path in args.reports or []:
        report = EvalReport.load(path)
        triples.append(
            (Path(path).stem, report.average_accuracy, report.worst_class_accuracy)
        )
    if args.csv:
        with open(args.csv, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"eta", "avg", "wst"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise CliError(f"{args.csv}: expected columns eta,avg,wst")
            for row in reader:
                name = f"eta{float(row['eta']):g}"
                triples.append((name, float(row["avg"]), float(row["wst"])))
    for raw in args.row or []:
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 3:
            raise CliError(f"--row expects 'name,avg,wst', got {raw!r}")
        try:
            triples.append((parts[0], float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise CliError(f"--row {raw!r}: {exc}") from None
    if not triples:
        raise CliError("no inputs: give --reports, --csv, or --row")
    return triples


def cmd_fec(args: argparse.Namespace) -> int:
    triples = _fec_inputs(args)
    rows = fec_rows(triples, args.baseline)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    fec_table_to_csv(rows, out_dir / "fec.csv")
    fec_table_to_json(rows, out_dir / "fec.json")
    print(f"{'method':<20} {'avg':>8} {'wst':>8} {'fec':>6}")
    for row in rows:
        print(f"{row.method:<20} {row.avg:>8.2f} {row.wst:>8.2f} {row.fec:>6.2f}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise CliError(f"trials must be positive, got {args.trials}")
    if args.classes < 2:
        raise CliError(f"classes must be at least 2, got {args.classes}")
    if args.eta <= 0.0:
        raise CliError(f"eta must be positive, got {args.eta}")
    rng = np.random.default_rng(args.seed)
    eta_low = min(0.05, args.eta)
    max_objective_gap = 0.0
    max_distribution_gap = 0.0
    invalid = 0
    for _ in range(args.trials):
        num_classes = int(rng.integers(2, args.classes + 1))
        eta = float(rng.uniform(eta_low, args.eta))
        eta = min(eta, (num_classes - 1) * 0.999)
        risks = ClassRiskVector(rng.uniform(0.0, 5.0, size=num_classes))
        cfg = AmbiguityConfig(uniform_distribution(num_classes), eta)
        solution = worst_case_distribution(risks, cfg)
        if not solution.closed_form_valid:
            invalid += 1
            continue
        distribution, objective = oracle_worst_case(risks, cfg)
        max_objective_gap = max(
            max_objective_gap, abs(objective - equivalent_objective(risks, cfg))
        )
        max_distribution_gap = max(
            max_distribution_gap,
            float(np.max(np.abs(distribution.weights - solution.distribution.weights))),
        )
    payload = {
        "trials": args.trials,
        "classes_max": args.classes,
        "eta_max": args.eta,
        "seed": args.seed,
        "closed_form_valid": args.trials - invalid,
        "closed_form_invalid": invalid,
        "max_objective_gap": max_objective_gap,
        "max_distribution_gap": max_distribution_gap,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    try:
        etas = [float(p) for p in args.etas.split(",") if p.strip()]
    except ValueError as exc:
        raise CliError(f"--etas: {exc}") from None
    if not etas:
        raise CliError("--etas must list at least one value")
    if len(set(etas)) != len(etas):
        raise CliError(f"duplicate eta values in {etas}")
    resolved["method"] = "codat"
    train_data, test_data = _dataset_pair(resolved)
    sweep_dir = _out_root(resolved) / (
        f"sweep_{resolved['preset']}_seed{resolved['seed']}"
    )
    sweep_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    started = time.perf_counter()
    for eta in etas:
        run_conf = dict(resolved)
        run_conf["eta"] = eta
        try:
            config = build_train_config(run_conf)
            model, _ = train(config, train_data, test_data)
            report = evaluate(model, test_data, attack=_attack(run_conf, "eval_"), seed=config.seed)
        except (ValueError, RuntimeError) as exc:
            raise CliError(f"sweep failed at eta={eta:g}: {exc}") from None
        out_dir = run_directory(run_conf)
        out_dir.mkdir(parents=True, exist_ok=True)
        _save_run(out_dir, run_conf, config, model)
        _write_report(report, run_conf, out_dir / "eval_adversarial.json")
        elapsed = time.perf_counter() - started
        rows.append((eta, report.average_accuracy, report.worst_class_accuracy, elapsed))
        print(
            f"eta={eta:g}: avg={report.average_accuracy:.4f} "
            f"worst={report.worst_class_accuracy:.4f} ({elapsed:.1f}s elapsed)"
        )
    csv_path = sweep_dir / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eta", "avg", "wst", "seconds"])
        for eta, avg, wst, elapsed in rows:
            writer.writerow([f"{eta:g}", repr(avg), repr(wst), f"{elapsed:.3f}"])
    print(f"sweep table: {csv_path}")
    return 0


_HELP = {
    "preset": "named configuration preset",
    "lr_milestones": "comma-separated epochs",
    "fixed_weights": "comma-separated simplex weights",
    "hidden_dims": "comma-separated layer widths",
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--print-config", action="store_true", help="echo resolved config and exit")
    choices = {"method": VALID_METHODS, "preset": sorted(PRESETS)}
    for key, (parse, _) in _KEYS.items():
        flag = "--lr" if key == "base_lr" else "--" + key.replace("_", "-")
        if parse is _parse_bool:
            kwargs = {"action": argparse.BooleanOptionalAction, "default": None}
        elif parse in (int, float):
            kwargs = {"type": parse}
        else:
            kwargs = {"choices": choices.get(key)}
        parser.add_argument(flag, dest=key, help=_HELP.get(key), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codat",
        description="class-optimal distributionally adversarial training toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and evaluate it")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint")
    _add_config_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--attack", choices=["none", "pgd"], default="pgd")
    p_eval.add_argument("--out", help="output directory (default: checkpoint directory)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_attack = sub.add_parser("attack", help="write adversarial examples for a checkpoint")
    _add_config_flags(p_attack)
    p_attack.add_argument("--checkpoint", required=True)
    p_attack.add_argument("--out", help="output directory (default: checkpoint directory)")
    p_attack.set_defaults(func=cmd_attack)

    p_fec = sub.add_parser("fec", help="fairness elasticity table from reports or raw accuracies")
    p_fec.add_argument("--reports", nargs="*", help="evaluation report JSON paths")
    p_fec.add_argument("--csv", help="sweep CSV with columns eta,avg,wst")
    p_fec.add_argument(
        "--row", action="append", help="raw 'name,avg,wst' accuracy triple (repeatable)"
    )
    p_fec.add_argument("--baseline", required=True, help="method name of the baseline row")
    p_fec.add_argument("--out", help="output directory (default: current)")
    p_fec.set_defaults(func=cmd_fec)

    p_oracle = sub.add_parser("oracle", help="compare the closed form against the projection oracle")
    p_oracle.add_argument("--classes", type=int, default=10, help="maximum class count")
    p_oracle.add_argument("--eta", type=float, default=0.9, help="maximum ball radius")
    p_oracle.add_argument("--trials", type=int, default=200)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--out", help="optional JSON output path")
    p_oracle.set_defaults(func=cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="train one model per eta and tabulate accuracies")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--etas", required=True, help="comma-separated eta values")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "print_config", False):
            sys.stdout.write(format_config(resolve_config(args)))
            return 0
        return args.func(args)
    except (ValueError, OSError) as exc:  # CliError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
