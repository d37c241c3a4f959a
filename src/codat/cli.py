"""Command-line interface: train, evaluate, attack, fec, oracle, sweep.

Configuration is resolved in four layers, later layers winning: built-in
defaults, a named preset, a flat `key = value` config file, and command
line flags.  Every run writes its resolved configuration next to its
artifacts so results can be reproduced from the output directory alone.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .attacks import AttackConfig
from .data import Dataset, gen_gaussian_mixture, load_csv, load_idx, save_csv, toy3_spec
from .dro_core import (
    AmbiguityConfig,
    ClassRiskVector,
    ProbabilityDistribution,
    oracle_worst_case,
    uniform_distribution,
    worst_case_distribution,
)
from .metrics import (
    EvalReport,
    artifact_json,
    confusion_to_csv,
    evaluate,
    evaluated_batches,
    fec_rows,
    fec_table_to_csv,
    fec_table_to_json,
)
from .nn_engine import (
    cross_entropy_per_example,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    VALID_METHODS, TrainConfig, TrainHistory, check_fit, config_fingerprint, train
)

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


# every key, declared once: key -> (parser, default); its flag is --<key
# with dashes> (base_lr is --lr).  The defaults are the published recipe:
# it needs IDX or CSV data and far more compute than a desk run
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

# a preset lists only the values that differ from the defaults
PRESETS = {
    "none": {},
    # three-class Gaussian mixture, small MLP, minutes on a CPU; the higher
    # weight decay makes class margins decay when a class stops receiving
    # gradient, which the radius sweep relies on to show its tradeoff
    "toy3": {
        "epochs": 60,
        "batch_size": 64,
        "lr_milestones": (45, 54),
        "weight_decay": 5e-3,
        "eta": 0.3,
        "epsilon": 0.03,
        "attack_step_size": 0.0075,
        "eval_attack_steps": 20,
        "eval_attack_step_size": 0.00375,
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


def _eta_name(eta: float) -> str:
    return f"eta{eta:g}"


def run_directory(resolved: dict) -> Path:
    if resolved.get("run_name"):
        return _out_root(resolved) / resolved["run_name"]
    name = f"{resolved['method']}_{resolved['preset']}_{_eta_name(resolved['eta'])}"
    return _out_root(resolved) / f"{name}_seed{resolved['seed']}"


def _configured(resolved: dict, keys: list[str], source: str) -> bool:
    """Whether all of a data source's keys are set; some but not all is an error."""
    missing = [key for key in keys if not resolved.get(key)]
    if missing and len(missing) < len(keys):
        raise CliError(f"{source} input needs {', '.join(keys)}; missing {', '.join(missing)}")
    return not missing


def _datasets(resolved: dict, splits=("train", "test")) -> list[Dataset]:
    """The requested splits, all from one source: IDX, else CSV, else toy3."""
    idx_keys = [f"{split}_{part}" for split in splits for part in ("images", "labels")]
    csv_keys = [f"{split}_csv" for split in splits]
    datasets = []
    if _configured(resolved, idx_keys, "IDX"):
        for split in splits:
            images, labels = resolved[f"{split}_images"], resolved[f"{split}_labels"]
            datasets.append(load_idx(images, labels, split=split))
    elif _configured(resolved, csv_keys, "CSV"):
        for split in splits:
            # test labels are checked against the train split's class count
            classes = datasets[0].num_classes if datasets else None
            datasets.append(load_csv(resolved[f"{split}_csv"], num_classes=classes, split=split))
    elif resolved["preset"] == "toy3":
        for split in splits:
            seed = resolved["seed"] + (10000 if split == "test" else 0)
            spec = toy3_spec(resolved[f"{split}_per_class"], seed=seed, spread=resolved["spread"])
            datasets.append(gen_gaussian_mixture(spec, split=split))
    else:
        raise CliError("no dataset configured: pick --preset toy3 or give CSV/IDX paths")
    return datasets


def _attack(resolved: dict, prefix: str) -> AttackConfig:
    """The training attack (prefix "") or the evaluation attack (prefix "eval_")."""
    return AttackConfig(
        epsilon=resolved["epsilon"],
        step_size=resolved[f"{prefix}attack_step_size"],
        steps=resolved[f"{prefix}attack_steps"],
        random_start=resolved["random_start"],
    )


def build_train_config(resolved: dict) -> TrainConfig:
    values = {f.name: resolved[f.name] for f in fields(TrainConfig) if f.name != "attack"}
    fixed = values["fixed_weights"]
    if fixed is not None:
        values["fixed_weights"] = ProbabilityDistribution(np.asarray(fixed, dtype=np.float64))
    return TrainConfig(attack=_attack(resolved, ""), **values)


def _write_with_config(payload: dict, resolved: dict, path: Path) -> None:
    """Write a JSON artifact that records the resolved configuration."""
    config = {k: _format_value(v) for k, v in sorted(resolved.items())}
    path.write_text(artifact_json({**payload, "resolved_config": config}), encoding="utf-8")


def _write_eval(report: EvalReport, resolved: dict, out_dir: Path, tag: str) -> None:
    """Write eval_<tag>.json and confusion_<tag>.csv, then reload the report."""
    report_path = out_dir / f"eval_{tag}.json"
    _write_with_config(report.to_dict(), resolved, report_path)
    confusion_to_csv(report, out_dir / f"confusion_{tag}.csv")
    EvalReport.load(report_path)


def _checkpoint_and_data(args: argparse.Namespace, resolved: dict):
    """The checkpoint's model and the evaluation data, checked to fit each other."""
    if not Path(args.checkpoint).exists():
        raise CliError(f"checkpoint not found: {args.checkpoint}")
    model, _, _ = load_checkpoint(args.checkpoint)
    (data,) = _datasets(resolved, ("test",))
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


def _train_run(resolved: dict, train_data: Dataset, test_data: Dataset):
    """Train one configuration and write its run directory; returns it and both reports.

    The directory is created only once training and both evaluations have
    succeeded; its checkpoint, history and reports are then written and reloaded.
    """
    config = build_train_config(resolved)
    eval_attack = _attack(resolved, "eval_")
    # given eval data, train returns its best epoch on it: select_best picks on the test split
    model, history = train(config, train_data, test_data if resolved["select_best"] else None)
    natural = evaluate(model, test_data, attack=None, seed=config.seed)
    adversarial = evaluate(model, test_data, attack=eval_attack, seed=config.seed)
    out_dir = run_directory(resolved)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(format_config(resolved), encoding="utf-8")
    checkpoint_path = out_dir / "checkpoint.json"
    save_checkpoint(model, checkpoint_path, seed=config.seed, config_hash=config_fingerprint(config))
    history.save_jsonl(out_dir / "history.jsonl")
    _write_eval(natural, resolved, out_dir, "natural")
    _write_eval(adversarial, resolved, out_dir, "adversarial")
    load_checkpoint(checkpoint_path)
    TrainHistory.load_jsonl(out_dir / "history.jsonl")
    return out_dir, natural, adversarial


def _summary_line(tag: str, report: EvalReport) -> str:
    return (
        f"{tag}: avg={report.average_accuracy:.4f} "
        f"worst={report.worst_class_accuracy:.4f} variance={report.class_variance:.6f}"
    )


def cmd_train(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    out_dir, natural, adversarial = _train_run(resolved, *_datasets(resolved))
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
    _write_eval(report, resolved, out_dir, tag)
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
    natural = evaluated_batches(model, data, None, resolved["seed"])
    attacked = evaluated_batches(model, data, attack, resolved["seed"])
    for (batch, _, nat_logits), (_, adv, adv_logits) in zip(natural, attacked):
        adv_rows.append(adv)
        nat_loss += float(np.sum(cross_entropy_per_example(nat_logits, batch.labels)))
        adv_loss += float(np.sum(cross_entropy_per_example(adv_logits, batch.labels)))
        nat_correct += int(np.sum(np.argmax(nat_logits, axis=1) + 1 == batch.labels))
        adv_correct += int(np.sum(np.argmax(adv_logits, axis=1) + 1 == batch.labels))
    features = np.vstack(adv_rows)
    max_shift = float(np.max(np.abs(features - data.features), initial=0.0))
    out_dir = Path(args.out) if args.out else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    save_csv(Dataset(features, data.labels, data.split), out_dir / "adversarial.csv")
    summary = {
        "examples": data.size,
        "natural_accuracy": nat_correct / data.size,
        "adversarial_accuracy": adv_correct / data.size,
        "natural_loss": nat_loss / data.size,
        "adversarial_loss": adv_loss / data.size,
        "max_linf_shift": max_shift,
        "attack": attack.as_dict(),
        "seed": resolved["seed"],
    }
    _write_with_config(summary, resolved, out_dir / "attack_summary.json")
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
                name = _eta_name(float(row["eta"]))
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
    if not 0.0 < args.eta < np.inf:
        raise CliError(f"eta must be positive and finite, got {args.eta}")
    rng = np.random.default_rng(args.seed)
    eta_low = min(0.05, args.eta)
    # objective and distribution gaps of the oracle against the closed form
    # where it holds, and against the exact solver where it does not
    closed_gaps, exact_gaps = [0.0, 0.0], [0.0, 0.0]
    invalid = 0
    for _ in range(args.trials):
        num_classes = int(rng.integers(2, args.classes + 1))
        eta = float(rng.uniform(eta_low, args.eta))
        eta = min(eta, (num_classes - 1) * 0.999)
        risks = ClassRiskVector(rng.uniform(0.0, 5.0, size=num_classes))
        cfg = AmbiguityConfig(uniform_distribution(num_classes), eta)
        solution = worst_case_distribution(risks, cfg)
        valid = solution.closed_form.valid
        invalid += not valid
        distribution, oracle_objective = oracle_worst_case(risks, cfg)
        gaps = closed_gaps if valid else exact_gaps
        gaps[0] = max(gaps[0], abs(oracle_objective - solution.objective_value))
        weight_gap = np.abs(distribution.weights - solution.distribution.weights)
        gaps[1] = max(gaps[1], float(np.max(weight_gap)))
    payload = {
        "trials": args.trials,
        "classes_max": args.classes,
        "eta_max": args.eta,
        "seed": args.seed,
        "closed_form_valid": args.trials - invalid,
        "closed_form_invalid": invalid,
        "max_objective_gap": closed_gaps[0],
        "max_distribution_gap": closed_gaps[1],
        "max_exact_objective_gap": exact_gaps[0],
        "max_exact_distribution_gap": exact_gaps[1],
    }
    text = artifact_json(payload)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    if resolved["run_name"]:
        raise CliError("sweep names one run directory per radius; run_name must be unset")
    try:
        etas = _float_list(args.etas)
    except ValueError as exc:
        raise CliError(f"--etas: {exc}") from None
    if not etas:
        raise CliError("--etas must list at least one value")
    # run directories, and fec rows read from sweep.csv, name each radius by _eta_name
    names = [_eta_name(eta) for eta in etas]
    if len(set(names)) != len(names):
        raise CliError(f"duplicate eta values in {etas}: the radii are named {names}")
    resolved["method"] = "codat"
    train_data, test_data = _datasets(resolved)
    rows = []
    started = time.perf_counter()
    try:
        for eta in etas:  # every radius must fit the data before the first one trains
            check_fit(build_train_config({**resolved, "eta": eta}), train_data)
        for eta in etas:
            _, _, report = _train_run({**resolved, "eta": eta}, train_data, test_data)
            elapsed = time.perf_counter() - started
            rows.append((eta, report.average_accuracy, report.worst_class_accuracy, elapsed))
            print(
                f"eta={eta:g}: avg={report.average_accuracy:.4f} "
                f"worst={report.worst_class_accuracy:.4f} ({elapsed:.1f}s elapsed)"
            )
    except (ValueError, RuntimeError) as exc:
        # keep the class, so a diverged run exits 1 here as it does in train
        exc.args = (f"sweep failed at eta={eta:g}: {exc}",)
        raise
    sweep_dir = _out_root(resolved) / f"sweep_{resolved['preset']}_seed{resolved['seed']}"
    sweep_dir.mkdir(parents=True, exist_ok=True)
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

    p_oracle = sub.add_parser("oracle", help="check both worst-case solvers against the dual")
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
