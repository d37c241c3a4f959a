"""End-to-end tests for the command line interface."""

import csv
import json
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from codat.attacks import AttackConfig
from codat.cli import (
    DEFAULTS,
    OUT_ROOT_ENV,
    PRESETS,
    build_parser,
    build_train_config,
    format_config,
    main,
    parse_config_file,
    resolve_config,
    run_directory,
)
from codat.data import Dataset, gen_gaussian_mixture, save_csv, toy3_spec
from codat.metrics import EvalReport
from codat.nn_engine import ModelParams, init_model, save_checkpoint
from codat.training import TrainConfig

TINY = [
    "--epochs", "6",
    "--train-per-class", "40",
    "--test-per-class", "20",
    "--hidden-dims", "16",
    "--attack-steps", "3",
    "--eval-attack-steps", "5",
]

SMALL = [
    "--epochs", "10",
    "--train-per-class", "60",
    "--test-per-class", "30",
    "--hidden-dims", "16",
    "--attack-steps", "3",
    "--eval-attack-steps", "5",
]

# a report's attack record: the config as stored and the tag it gives
ATTACK = {"epsilon": 0.03, "step_size": 0.0075, "steps": 20, "random_start": True}
ATTACK_TAG = "pgd-20 eps=0.03 step=0.0075 random_start=true"

RUN_ARTIFACTS = (
    "config.txt",
    "checkpoint.json",
    "history.jsonl",
    "eval_natural.json",
    "eval_adversarial.json",
    "confusion_natural.csv",
    "confusion_adversarial.csv",
)


def run_artifacts(run_dir):
    """Every run artifact's bytes, with the history's wall times blanked."""
    artifacts = {name: (run_dir / name).read_bytes() for name in RUN_ARTIFACTS}
    artifacts["history.jsonl"] = re.sub(
        rb'"wall_time": [^,}]+', b'"wall_time": 0', artifacts["history.jsonl"]
    )
    return artifacts


def run_train(out_root, *extra, size=TINY):
    argv = ["train", "--preset", "toy3", "--seed", "0", "--out-root", str(out_root)]
    argv += list(size) + list(extra)
    return main(argv)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out_root = tmp_path_factory.mktemp("trained")
    rc = run_train(out_root, "--method", "codat", "--eta", "0.3", size=SMALL)
    assert rc == 0
    return out_root / "codat_toy3_eta0.3_seed0"


class TestConfigResolution:
    def test_precedence_defaults_preset_file_flags(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "# comment\npreset = toy3\nbatch_size = 32\nepochs = 7\n", encoding="utf-8"
        )
        import argparse

        args = argparse.Namespace(config=str(config), preset=None, epochs=9)
        resolved = resolve_config(args)
        assert resolved["epochs"] == 9  # flag beats file
        assert resolved["batch_size"] == 32  # file beats preset
        assert resolved["epsilon"] == 0.03  # preset beats default
        assert resolved["momentum"] == DEFAULTS["momentum"]  # untouched default

    def test_unknown_key_and_malformed_line_rejected(self, tmp_path):
        bad_key = tmp_path / "bad_key.conf"
        bad_key.write_text("optimizer = adam\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown configuration key"):
            parse_config_file(bad_key)
        bad_line = tmp_path / "bad_line.conf"
        bad_line.write_text("epochs 60\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_file(bad_line)

    def test_print_config_echoes_resolved_values(self, capsys):
        assert main(["train", "--preset", "toy3", "--print-config"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        values = dict(line.split(" = ", 1) for line in lines)
        assert values["epochs"] == "60"
        assert values["epsilon"] == "0.03"
        assert values["batch_size"] == "64"
        assert values["preset"] == "toy3"
        assert set(values) == set(DEFAULTS)

    def test_none_only_unsets_keys_that_default_to_unset(self, tmp_path, capsys):
        config = tmp_path / "none.conf"
        config.write_text("run_name = none\nfixed_weights = None\n", encoding="utf-8")
        assert parse_config_file(config) == {"run_name": None, "fixed_weights": None}
        config.write_text("select_best = none\n", encoding="utf-8")
        with pytest.raises(ValueError, match="select_best: expected a boolean"):
            parse_config_file(config)
        rc = main(["train", "--preset", "toy3", "--hidden-dims", "none", "--print-config"])
        assert rc == 2
        assert "hidden_dims" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--preset", "toy3", "--method", "weighted", "--lr", "0.05",
             "--lr-milestones", "3,5", "--hidden-dims", "16,8",
             "--fixed-weights", "0.2,0.5,0.3", "--no-random-start", "--select-best"],
            ["--hidden-dims", ""],
        ],
    )
    def test_config_file_round_trips(self, tmp_path, flags):
        parser = build_parser()
        resolved = resolve_config(parser.parse_args(["train", *flags]))
        text = format_config(resolved)
        config = tmp_path / "config.txt"
        config.write_text(text, encoding="utf-8")
        reread = resolve_config(parser.parse_args(["train", "--config", str(config)]))
        assert reread == resolved
        assert format_config(reread) == text

    def test_preset_catalog_is_documented(self):
        assert set(PRESETS) == {"none", "toy3"}
        # a preset lists only the values that differ from the defaults
        for preset in PRESETS.values():
            assert all(value != DEFAULTS[key] for key, value in preset.items())

    def test_run_directory_naming(self):
        resolved = dict(DEFAULTS)
        resolved.update(preset="toy3", method="codat", eta=0.3, seed=4, out_root="/x")
        assert str(run_directory(resolved)) == "/x/codat_toy3_eta0.3_seed4"


class TestTrainCommand:
    def test_artifacts_and_history_length(self, trained_run):
        for name in RUN_ARTIFACTS:
            assert (trained_run / name).exists(), name
        lines = (trained_run / "history.jsonl").read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert len(lines) - 1 == header["epochs"] == 10
        report = json.loads((trained_run / "eval_adversarial.json").read_text())
        assert "resolved_config" in report
        assert report["resolved_config"]["seed"] == "0"

    def test_eta_bound_error_names_the_rule(self, tmp_path, capsys):
        rc = run_train(tmp_path, "--method", "codat", "--eta", "9.5")
        assert rc == 2
        assert "K - 1" in capsys.readouterr().err

    def test_failed_run_leaves_no_run_directory(self, tmp_path):
        assert run_train(tmp_path, "--method", "codat", "--eta", "9.5") == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["standard_at", "codat"])
    def test_run_diverging_on_its_last_step_exits_1(self, tmp_path, capsys, method):
        # one full-split batch at a huge rate: the weights stay finite, the test logits do not
        size = ["--epochs", "1", "--train-per-class", "20", "--test-per-class", "10",
                "--batch-size", "100000", "--lr", "1e300", "--epsilon", "0"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert run_train(tmp_path, "--method", method, size=size) == 1
        assert "diverged" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command", [["train"], ["sweep", "--etas", "0.1,0.3"]], ids=["train", "sweep"]
    )
    def test_bad_evaluation_attack_rejected_before_training(
        self, tmp_path, monkeypatch, capsys, command
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training ran before the evaluation attack was checked")

        monkeypatch.setattr("codat.cli.train", no_training)
        argv = command + ["--preset", "toy3", "--epochs", "3", "--out-root", str(tmp_path),
                          "--eval-attack-step-size", "1"]
        assert main(argv) == 2
        assert "diameter" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [["--lr", "nan"], ["--lr", "inf"], ["--weight-decay", "nan"], ["--lr-factor", "nan"],
         ["--eta", "nan"], ["--attack-step-size", "nan"], ["--eval-attack-step-size", "nan"]],
        ids=["nan_lr", "inf_lr", "nan_decay", "nan_factor", "nan_eta", "nan_step",
             "nan_eval_step"],
    )
    def test_non_finite_setting_rejected_before_any_attack(
        self, tmp_path, monkeypatch, capsys, flags
    ):
        def no_attack(*args, **kwargs):
            raise AssertionError("attack ran before the settings were checked")

        monkeypatch.setattr("codat.training.pgd_attack", no_attack)
        assert run_train(tmp_path, "--method", "codat", *flags) == 2
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spread", ["nan", "inf"])
    def test_non_finite_spread_is_named(self, tmp_path, capsys, spread):
        assert run_train(tmp_path, "--spread", spread) == 2
        assert capsys.readouterr().err == (
            f"error: spread must be positive and finite, got {spread}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_history_is_reloaded(self, tmp_path, monkeypatch, capsys):
        def unreadable(path):
            raise ValueError(f"{path}: unreadable history")

        monkeypatch.setattr("codat.training.TrainHistory.load_jsonl", unreadable)
        assert run_train(tmp_path, "--method", "standard_at", "--epochs", "1") == 2
        assert "unreadable history" in capsys.readouterr().err

    def test_every_train_config_field_comes_from_its_key(self):
        values = {
            "method": "weighted", "epochs": 7, "batch_size": 33, "base_lr": 0.07, "seed": 9,
            "momentum": 0.5, "weight_decay": 1e-3, "lr_milestones": (2, 5), "lr_factor": 0.3,
            "eta": 0.7, "fixed_weights": (0.2, 0.3, 0.5), "hidden_dims": (5, 6),
        }
        assert set(values) == {f.name for f in fields(TrainConfig)} - {"attack"}
        config = build_train_config({**DEFAULTS, **values})
        for name, value in values.items():
            default = next(f.default for f in fields(TrainConfig) if f.name == name)
            assert value not in (DEFAULTS[name], default), name
            got = getattr(config, name)
            assert (tuple(got.weights) if name == "fixed_weights" else got) == value, name
        assert config.attack == AttackConfig(
            DEFAULTS["epsilon"], DEFAULTS["attack_step_size"], DEFAULTS["attack_steps"]
        )

    def test_zero_radius_checkpoint_matches_standard(self, tmp_path):
        assert run_train(tmp_path, "--method", "codat", "--eta", "0") == 0
        assert run_train(tmp_path, "--method", "standard_at") == 0
        first = (tmp_path / "codat_toy3_eta0_seed0" / "checkpoint.json").read_bytes()
        second = (tmp_path / "standard_at_toy3_eta0.3_seed0" / "checkpoint.json").read_bytes()
        assert first == second

    def test_out_root_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path / "envroot"))
        argv = ["train", "--preset", "toy3", "--seed", "0", "--method", "standard_at"] + TINY
        assert main(argv) == 0
        assert (tmp_path / "envroot" / "standard_at_toy3_eta0.3_seed0" / "checkpoint.json").exists()

    def test_csv_dataset_path(self, tmp_path):
        train = gen_gaussian_mixture(toy3_spec(samples_per_class=30, seed=2), split="train")
        test = gen_gaussian_mixture(toy3_spec(samples_per_class=15, seed=10002), split="test")
        save_csv(train, tmp_path / "train.csv")
        save_csv(test, tmp_path / "test.csv")
        rc = main(
            [
                "train", "--method", "standard_at", "--seed", "1",
                "--train-csv", str(tmp_path / "train.csv"),
                "--test-csv", str(tmp_path / "test.csv"),
                "--out-root", str(tmp_path / "runs"),
                "--epochs", "2", "--batch-size", "32", "--hidden-dims", "8",
                "--epsilon", "0.03", "--attack-step-size", "0.0075",
                "--attack-steps", "2", "--eval-attack-steps", "3",
                "--eval-attack-step-size", "0.00375",
            ]
        )
        assert rc == 0
        assert (tmp_path / "runs" / "standard_at_none_eta0.5_seed1" / "checkpoint.json").exists()


class TestDatasets:
    def test_half_configured_csv_names_the_missing_split(self, tmp_path, capsys):
        train = gen_gaussian_mixture(toy3_spec(samples_per_class=10, seed=2), split="train")
        save_csv(train, tmp_path / "train.csv")
        rc = main(["train", "--train-csv", str(tmp_path / "train.csv"),
                   "--out-root", str(tmp_path / "runs")])
        assert rc == 2
        assert "missing test_csv" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_half_configured_idx_names_the_missing_file(self, trained_run, tmp_path, capsys):
        rc = main(["evaluate", "--checkpoint", str(trained_run / "checkpoint.json"),
                   "--test-images", str(tmp_path / "images.idx"), "--out", str(tmp_path)])
        assert rc == 2
        assert "missing test_labels" in capsys.readouterr().err

    def test_no_preset_without_data_says_so_in_evaluate(self, trained_run, tmp_path, capsys):
        rc = main(["evaluate", "--checkpoint", str(trained_run / "checkpoint.json"),
                   "--preset", "none", "--out", str(tmp_path)])
        assert rc == 2
        assert "no dataset configured" in capsys.readouterr().err

    def test_non_finite_csv_cell_is_a_usage_error(self, tmp_path, capsys):
        test = gen_gaussian_mixture(toy3_spec(samples_per_class=4, seed=3), split="test")
        save_csv(test, tmp_path / "test.csv")
        (tmp_path / "train.csv").write_text(
            "0.1,0.2,1\n0.3,nan,2\n0.5,0.6,3\n0.7,0.8,1\n0.9,0.1,2\n0.2,0.4,3\n"
        )
        rc = main(["train", *TINY, "--train-csv", str(tmp_path / "train.csv"),
                   "--test-csv", str(tmp_path / "test.csv"), "--out-root", str(tmp_path / "runs")])
        assert rc == 2
        assert re.search(r"non-finite cell 'nan' in \S*train\.csv line 2", capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    def test_label_only_csv_is_a_usage_error(self, tmp_path, capsys):
        test = gen_gaussian_mixture(toy3_spec(samples_per_class=4, seed=3), split="test")
        save_csv(test, tmp_path / "test.csv")
        (tmp_path / "train.csv").write_text("1\n2\n3\n")
        rc = main(["train", *TINY, "--train-csv", str(tmp_path / "train.csv"),
                   "--test-csv", str(tmp_path / "test.csv"), "--out-root", str(tmp_path / "runs")])
        assert rc == 2
        assert re.search(r"CSV \S*train\.csv has no feature columns", capsys.readouterr().err)
        assert not (tmp_path / "runs").exists()

    def test_evaluate_reads_a_saved_csv_split(self, trained_run, tmp_path):
        test = gen_gaussian_mixture(toy3_spec(samples_per_class=30, seed=10000), split="test")
        save_csv(test, tmp_path / "test.csv")
        base = ["evaluate", "--checkpoint", str(trained_run / "checkpoint.json"),
                "--preset", "toy3", "--seed", "0", "--eval-attack-steps", "5"]
        rc = main(base + ["--test-csv", str(tmp_path / "test.csv"), "--out", str(tmp_path / "csv")])
        assert rc == 0
        assert (tmp_path / "csv" / "confusion_adversarial.csv").exists()
        from_csv = EvalReport.load(tmp_path / "csv" / "eval_adversarial.json")
        # the same split generated in memory gives the same report figures
        assert main(base + ["--test-per-class", "30", "--out", str(tmp_path / "gen")]) == 0
        generated = EvalReport.load(tmp_path / "gen" / "eval_adversarial.json")
        assert from_csv.to_dict() == generated.to_dict()


class TestEvaluateCommand:
    def test_same_seed_same_report_bytes(self, trained_run, tmp_path):
        base = ["evaluate", "--checkpoint", str(trained_run / "checkpoint.json"),
                "--preset", "toy3", "--seed", "0", "--test-per-class", "30",
                "--eval-attack-steps", "5"]
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "eval_adversarial.json").read_bytes()
        second = (tmp_path / "b" / "eval_adversarial.json").read_bytes()
        assert first == second

    def test_adversarial_average_at_most_natural(self, trained_run, tmp_path):
        base = ["evaluate", "--checkpoint", str(trained_run / "checkpoint.json"),
                "--preset", "toy3", "--seed", "0", "--test-per-class", "30",
                "--eval-attack-steps", "5", "--out", str(tmp_path)]
        assert main(base + ["--attack", "none"]) == 0
        assert main(base + ["--attack", "pgd"]) == 0
        natural = EvalReport.load(tmp_path / "eval_natural.json")
        adversarial = EvalReport.load(tmp_path / "eval_adversarial.json")
        assert adversarial.average_accuracy <= natural.average_accuracy
        assert adversarial.attack.startswith("pgd-5")

    def test_missing_checkpoint_is_clean_error(self, tmp_path, capsys):
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "nope.json"), "--preset", "toy3"])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_checkpoint_without_model_keys_is_clean_error(self, tmp_path, capsys):
        checkpoint = tmp_path / "empty.json"
        checkpoint.write_text('{"format": "codat-checkpoint", "version": 1}', encoding="utf-8")
        rc = main(["evaluate", "--checkpoint", str(checkpoint), "--preset", "toy3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "lacks keys layer_dims, weights, biases, seed, config_hash" in err

    @pytest.mark.parametrize(
        "content, message",
        [(b'{"format": "codat-checkpoint", ', "Expecting property name"), (b"\xff{}", "utf-8")],
        ids=["truncated", "not_utf8"],
    )
    def test_unreadable_checkpoint_error_names_the_file(self, tmp_path, capsys, content, message):
        checkpoint = tmp_path / "broken.json"
        checkpoint.write_bytes(content)
        rc = main(["evaluate", "--checkpoint", str(checkpoint), "--preset", "toy3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {checkpoint}: ") and message in err

    def test_checkpoint_that_is_not_an_object_is_clean_error(self, tmp_path, capsys):
        checkpoint = tmp_path / "list.json"
        checkpoint.write_text("[1, 2, 3]", encoding="utf-8")
        rc = main(["evaluate", "--checkpoint", str(checkpoint), "--preset", "toy3"])
        assert rc == 2
        assert "must be a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dims, weights, biases, message",
        [
            ([2, 3, 3], [], [], "layer 0 needs a 3x2 weight and 3 biases"),
            (
                [2, 3, 3],
                [[0.1] * 6, [0.1] * 8],
                [[0.0] * 3] * 2,
                "layer 1 needs a 3x3 weight and 3 biases",
            ),
            (
                [2, 3, 3],
                [[0.1] * 6, [0.1] * 9, [0.1] * 9],
                [[0.0] * 3] * 3,
                "layer 2 lies beyond layer_dims [2, 3, 3]",
            ),
            (5, [[0.1] * 6], [[0.0] * 3], "layer_dims must be a list, got int"),
            ([2, 3], {"0": [0.1] * 6}, [[0.0] * 3], "weights must be a list, got dict"),
            ([2, 3], [[0.1] * 6], None, "biases must be a list, got NoneType"),
        ],
        ids=[
            "empty", "wrong_size", "extra_layer",
            "dims_not_a_list", "weights_not_a_list", "biases_not_a_list",
        ],
    )
    def test_checkpoint_layers_must_fit_layer_dims(
        self, tmp_path, capsys, dims, weights, biases, message
    ):
        checkpoint = tmp_path / "misshapen.json"
        payload = {
            "format": "codat-checkpoint", "version": 1, "layer_dims": dims,
            "weights": weights, "biases": biases, "seed": 0, "config_hash": "x",
        }
        checkpoint.write_text(json.dumps(payload), encoding="utf-8")
        rc = main(["evaluate", "--checkpoint", str(checkpoint), "--preset", "toy3"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: model checkpoint {message}\n"

    def test_dimension_mismatch_reported(self, trained_run, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        wide.write_text(
            "0.1,0.2,0.3,1\n0.4,0.5,0.6,2\n0.2,0.1,0.9,1\n0.7,0.3,0.2,2\n", encoding="utf-8"
        )
        rc = main(
            ["evaluate", "--checkpoint", str(trained_run / "checkpoint.json"),
             "--test-csv", str(wide), "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "input dimension" in capsys.readouterr().err


class TestAttackCommand:
    def test_writes_feasible_examples_and_summary(self, trained_run, tmp_path):
        rc = main(
            ["attack", "--checkpoint", str(trained_run / "checkpoint.json"),
             "--preset", "toy3", "--seed", "0", "--test-per-class", "30",
             "--eval-attack-steps", "5", "--out", str(tmp_path)]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "attack_summary.json").read_text())
        assert summary["max_linf_shift"] <= 0.03
        assert summary["adversarial_loss"] >= summary["natural_loss"]
        assert summary["adversarial_accuracy"] <= summary["natural_accuracy"]
        assert (tmp_path / "adversarial.csv").exists()

    def test_accuracies_agree_with_evaluate(self, trained_run, tmp_path):
        # one checkpoint, split and seed: `attack` counts the predictions `evaluate` does
        shared = ["--checkpoint", str(trained_run / "checkpoint.json"), "--preset", "toy3",
                  "--seed", "0", "--test-per-class", "30", "--eval-attack-steps", "5"]
        assert main(["attack", *shared, "--out", str(tmp_path / "attack")]) == 0
        for mode in ("none", "pgd"):
            assert main(["evaluate", *shared, "--attack", mode, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "attack" / "attack_summary.json").read_text())
        natural = json.loads((tmp_path / "eval_natural.json").read_text())
        adversarial = json.loads((tmp_path / "eval_adversarial.json").read_text())
        assert summary["natural_accuracy"] == natural["average_accuracy"]
        assert summary["adversarial_accuracy"] == adversarial["average_accuracy"]
        assert summary["adversarial_accuracy"] < summary["natural_accuracy"]

    def test_split_lacking_a_class_attacks_but_does_not_evaluate(
        self, trained_run, tmp_path, capsys
    ):
        # `attack` sums over rows; `evaluate` needs every class's accuracy
        test = gen_gaussian_mixture(toy3_spec(samples_per_class=30, seed=10000), split="test")
        keep = test.labels != 2
        save_csv(Dataset(test.features[keep], test.labels[keep], "test"), tmp_path / "test.csv")
        shared = ["--checkpoint", str(trained_run / "checkpoint.json"), "--preset", "toy3",
                  "--seed", "0", "--eval-attack-steps", "5", "--test-csv", str(tmp_path / "test.csv")]
        assert main(["attack", *shared, "--out", str(tmp_path / "attack")]) == 0
        written = sorted(path.name for path in (tmp_path / "attack").iterdir())
        assert written == ["adversarial.csv", "attack_summary.json"]
        capsys.readouterr()
        assert main(["evaluate", *shared, "--out", str(tmp_path / "evaluate")]) == 2
        assert "error: class 2 has no examples" in capsys.readouterr().err
        assert not (tmp_path / "evaluate").exists()

    def test_diverged_model_exits_1_and_writes_nothing(self, tmp_path, capsys):
        # finite weights whose logits overflow: the losses would be NaN
        model = init_model([2, 8, 3], seed=0)
        model = ModelParams([(w * 1e200, b) for w, b in model.layers])
        save_checkpoint(model, tmp_path / "checkpoint.json", seed=0, config_hash="x")
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["attack", "--checkpoint", str(tmp_path / "checkpoint.json"),
                       "--preset", "toy3", "--test-per-class", "5", "--epsilon", "0",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFecCommand:
    def test_published_pair_reproduces_coefficient(self, tmp_path, capsys):
        rc = main(
            ["fec", "--row", "at,53.18,35.78", "--row", "codat,54.73,46.91",
             "--baseline", "at", "--out", str(tmp_path)]
        )
        assert rc == 0
        with open(tmp_path / "fec.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["fec"] == "1.00"
        assert abs(float(rows[1]["fec"]) - 1.41) <= 0.01

    def test_baseline_only_input_yields_unit_row(self, tmp_path):
        rc = main(["fec", "--row", "at,80.0,60.0", "--baseline", "at", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "fec.json").read_text())
        assert payload == [{"method": "at", "avg": 80.0, "wst": 60.0, "fec": 1.0}]

    def test_reports_of_one_stem_rejected(self, tmp_path, capsys):
        # the adversarial reports of two run directories are both named by their stem
        paths = []
        for run in ("first", "second"):
            (tmp_path / run).mkdir()
            paths.append(tmp_path / run / "eval_adversarial.json")
            report = EvalReport(np.array([[1, 1], [0, 2]]), None, 0).to_dict()
            paths[-1].write_text(json.dumps(report), encoding="utf-8")
        rc = main(["fec", "--reports", *map(str, paths), "--baseline", "eval_adversarial",
                   "--out", str(tmp_path / "fec")])
        assert rc == 2
        assert "duplicate method names ['eval_adversarial']" in capsys.readouterr().err
        assert not (tmp_path / "fec").exists()

    @pytest.mark.parametrize(
        "rows, bad, shown",
        [
            (["a,nan,0.5", "b,0.5,0.5"], "a", "avg=nan wst=0.5"),
            (["a,0.6,inf", "b,0.5,0.5"], "a", "avg=0.6 wst=inf"),
            (["b,nan,0.5"], "b", "avg=nan wst=0.5"),
        ],
        ids=["nan_row", "infinite_row", "nan_baseline_alone"],
    )
    def test_non_finite_row_rejected(self, tmp_path, capsys, rows, bad, shown):
        flags = [flag for row in rows for flag in ("--row", row)]
        rc = main(["fec", *flags, "--baseline", "b", "--out", str(tmp_path / "fec")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: method {bad!r} needs finite accuracies >= 0, got {shown}\n"
        )
        assert not (tmp_path / "fec").exists()

    def test_non_finite_csv_cell_rejected(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        csv_path.write_text("eta,avg,wst\n0,0.5,0.4\n0.3,0.6,nan\n", encoding="utf-8")
        rc = main(["fec", "--csv", str(csv_path), "--baseline", "eta0",
                   "--out", str(tmp_path / "fec")])
        assert rc == 2
        assert "method 'eta0.3' needs finite accuracies" in capsys.readouterr().err
        assert not (tmp_path / "fec").exists()

    def test_missing_baseline_rejected(self, tmp_path, capsys):
        rc = main(["fec", "--row", "a,1,1", "--baseline", "zzz", "--out", str(tmp_path)])
        assert rc == 2
        assert "baseline" in capsys.readouterr().err

    def test_reads_evaluation_reports_by_stem(self, trained_run, tmp_path, capsys):
        rc = main(
            ["fec",
             "--reports",
             str(trained_run / "eval_natural.json"),
             str(trained_run / "eval_adversarial.json"),
             "--baseline", "eval_natural",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "fec.json").read_text())
        assert payload[0]["method"] == "eval_natural"
        assert payload[0]["fec"] == 1.0


    def test_report_without_accuracy_keys_is_clean_error(self, tmp_path, capsys):
        report = tmp_path / "empty.json"
        report.write_text('{"format": "codat-eval-report", "version": 1}', encoding="utf-8")
        rc = main(["fec", "--reports", str(report), "--baseline", "empty", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "lacks keys per_class_accuracy, average_accuracy, worst_class_accuracy" in err

    @pytest.mark.parametrize(
        "key, value, shown",
        [
            ("average_accuracy", None, "null"),
            ("seed", [1], "[1]"),
            ("per_class_accuracy", None, "null"),
            ("per_class_accuracy", [0.5, 1.5], "[0.5, 1.5]"),
            ("per_class_accuracy", [0.5, 1.0, 1.0], "[0.5, 1.0, 1.0]"),
            ("average_accuracy", 7.5, "7.5"),
            ("average_accuracy", float("nan"), "NaN"),
            ("worst_class_accuracy", -0.25, "-0.25"),
            ("class_variance", -0.0625, "-0.0625"),
            ("class_variance", float("inf"), "Infinity"),
            ("confusion", [[4]], "[[4]]"),
            ("confusion", [[1, 1, 0], [0, 2, 0]], "[[1, 1, 0], [0, 2, 0]]"),
            ("confusion", [[1, -1], [0, 2]], "[[1, -1], [0, 2]]"),
            ("average_accuracy", 0.5, "0.5"),
            ("per_class_accuracy", [1.0, 0.5], "[1.0, 0.5]"),
            ("worst_class_accuracy", 1.0, "1.0"),
            ("class_variance", 0.0, "0.0"),
            ("confusion", [[0, 0], [0, 2]], "[[0, 0], [0, 2]]"),
            ("confusion", [[1.5, 1], [0, 2]], "[[1.5, 1], [0, 2]]"),
            ("confusion", [[10**30, 1], [0, 2]], f"[[{10**30}, 1], [0, 2]]"),
            ("seed", 1.5, "1.5"),
            ("seed", True, "true"),
            ("seed", "7", '"7"'),
            ("attack", ATTACK_TAG, json.dumps(ATTACK_TAG)),
            ("attack_config", {**ATTACK, "norm": "linf"}, json.dumps({**ATTACK, "norm": "linf"})),
            ("attack_config", {**ATTACK, "steps": 2.5}, json.dumps({**ATTACK, "steps": 2.5})),
            ("attack_config", {**ATTACK, "epsilon": 2.0}, json.dumps({**ATTACK, "epsilon": 2.0})),
            ("attack_config", {**ATTACK, "random_start": 1},
             json.dumps({**ATTACK, "random_start": 1})),
            ("attack_config", {**ATTACK, "epsilon": False},
             json.dumps({**ATTACK, "epsilon": False})),
        ],
        ids=[
            "null_accuracy", "list_seed", "null_per_class", "per_class_above_one",
            "per_class_too_many", "percent_average", "nan_average", "negative_worst",
            "negative_variance", "infinite_variance", "one_class", "confusion_not_square",
            "negative_cell", "contradicted_average", "swapped_per_class",
            "contradicted_worst", "contradicted_variance", "empty_class_row",
            "fractional_cell", "overflowing_cell", "fractional_seed", "bool_seed",
            "string_seed", "tag_against_null_config", "unknown_attack_key",
            "fractional_steps", "epsilon_above_one", "integer_random_start", "bool_epsilon",
        ],
    )
    def test_report_with_malformed_field_is_clean_error(
        self, tmp_path, capsys, key, value, shown
    ):
        # accuracies [0.5, 1.0], 0.75, 0.5 and variance 0.0625
        report = EvalReport(np.array([[1, 1], [0, 2]]), None, 0).to_dict()
        report[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        rc = main(["fec", "--reports", str(path), "--baseline", "bad", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: evaluation report field {key} is malformed: {shown}\n"
        )


class TestOracleCommand:
    def test_default_sweep_gap_is_small(self, capsys):
        assert main(["oracle", "--trials", "40", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 40
        assert payload["max_objective_gap"] <= 1e-3
        assert payload["max_distribution_gap"] <= 1e-3

    def test_small_radius_regime_is_tighter(self, capsys):
        assert main(["oracle", "--trials", "20", "--eta", "0.0001", "--seed", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_objective_gap"] <= 1e-6

    def test_readme_command_solves_every_trial(self, monkeypatch, capsys):
        from codat import cli

        real_oracle = cli.oracle_worst_case
        solved = []

        def counting_oracle(risks, cfg):
            solved.append(risks.size)
            return real_oracle(risks, cfg)

        monkeypatch.setattr(cli, "oracle_worst_case", counting_oracle)
        args = ["oracle", "--trials", "200", "--classes", "10", "--eta", "2.0", "--seed", "7"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form_valid"] > 0 and payload["closed_form_invalid"] > 0
        assert len(solved) == 200
        for key in (
            "max_objective_gap",
            "max_distribution_gap",
            "max_exact_objective_gap",
            "max_exact_distribution_gap",
        ):
            assert payload[key] <= 1e-9, key

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_non_finite_radius_rejected(self, capsys, eta):
        assert main(["oracle", "--trials", "3", "--eta", eta]) == 2
        assert capsys.readouterr().err == f"error: eta must be positive and finite, got {eta}\n"

    def test_zero_trials_rejected(self, capsys):
        assert main(["oracle", "--trials", "0"]) == 2
        assert "trials" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_table_feeds_fec(self, tmp_path, capsys):
        argv = ["sweep", "--preset", "toy3", "--seed", "0",
                "--out-root", str(tmp_path), "--etas", "0,0.3"] + SMALL
        assert main(argv) == 0
        csv_path = tmp_path / "sweep_toy3_seed0" / "sweep.csv"
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["eta"] for row in rows] == ["0", "0.3"]
        seconds = [float(row["seconds"]) for row in rows]
        assert seconds == sorted(seconds)
        assert (tmp_path / "codat_toy3_eta0_seed0" / "checkpoint.json").exists()
        rc = main(["fec", "--csv", str(csv_path), "--baseline", "eta0",
                   "--out", str(tmp_path / "fec")])
        assert rc == 0
        payload = json.loads((tmp_path / "fec" / "fec.json").read_text())
        assert payload[0]["method"] == "eta0"
        assert payload[0]["fec"] == 1.0
        assert len(payload) == 2

    def test_radius_directory_is_a_full_train_run(self, tmp_path):
        flags = ["--preset", "toy3", "--seed", "0", "--out-root", str(tmp_path)] + TINY
        assert main(["sweep", "--etas", "0,0.3"] + flags) == 0
        run_dir = tmp_path / "codat_toy3_eta0.3_seed0"
        from_sweep = run_artifacts(run_dir)
        shutil.rmtree(run_dir)
        assert main(["train", "--method", "codat", "--eta", "0.3"] + flags) == 0
        assert run_artifacts(run_dir) == from_sweep

    def test_run_name_rejected_before_training(self, tmp_path, capsys):
        argv = ["sweep", "--preset", "toy3", "--seed", "0", "--out-root", str(tmp_path),
                "--etas", "0,0.3", "--run-name", "foo"] + TINY
        assert main(argv) == 2
        assert "run_name" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_etas_rejected(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "toy3", "--etas", "0.1,0.1",
                   "--out-root", str(tmp_path)])
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err

    def test_radii_with_one_name_rejected_before_training(self, tmp_path, capsys):
        # distinct floats, but both radii would write eta0.3 directories and rows
        argv = ["sweep", "--preset", "toy3", "--seed", "0", "--out-root", str(tmp_path),
                "--etas", "0,0.3,0.30000001"] + TINY
        assert main(argv) == 2
        assert "eta0.3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "etas, message",
        [("0.3,2.5", "K - 1 = 2"), ("0.3,nan", "finite"), ("0.3,-1", "nonnegative")],
        ids=["beyond_bound", "nan", "negative"],
    )
    def test_every_radius_checked_before_any_trains(
        self, tmp_path, monkeypatch, capsys, etas, message
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("a radius trained before every radius was checked")

        monkeypatch.setattr("codat.cli.train", no_training)
        argv = ["sweep", "--preset", "toy3", "--seed", "0", "--out-root", str(tmp_path),
                "--etas", etas] + TINY
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_diverging_sweep_exits_like_train(self, tmp_path, capsys):
        argv = ["sweep", "--preset", "toy3", "--seed", "0", "--out-root", str(tmp_path),
                "--etas", "0", "--lr", "1e100"] + TINY
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert "sweep failed at eta=0" in err and "diverged" in err

    def test_failing_run_names_the_eta(self, tmp_path, capsys):
        argv = ["sweep", "--preset", "toy3", "--seed", "0",
                "--out-root", str(tmp_path), "--etas", "0.1,5.0"] + TINY
        rc = main(argv)
        assert rc == 2
        assert "eta=5" in capsys.readouterr().err
