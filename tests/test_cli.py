"""End-to-end tests for the command line interface."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from codat.cli import (
    DEFAULTS,
    OUT_ROOT_ENV,
    PRESETS,
    build_parser,
    format_config,
    main,
    parse_config_file,
    resolve_config,
    run_directory,
)
from codat.data import gen_gaussian_mixture, save_csv, toy3_spec
from codat.metrics import EvalReport

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
            ["--preset", "paper-cifar", "--hidden-dims", ""],
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
        assert set(PRESETS) == {"none", "toy3", "paper-cifar"}
        assert PRESETS["paper-cifar"]["epsilon"] == pytest.approx(8 / 255)

    def test_run_directory_naming(self):
        resolved = dict(DEFAULTS)
        resolved.update(preset="toy3", method="codat", eta=0.3, seed=4, out_root="/x")
        assert str(run_directory(resolved)) == "/x/codat_toy3_eta0.3_seed4"


class TestTrainCommand:
    def test_artifacts_and_history_length(self, trained_run):
        for name in (
            "checkpoint.json",
            "history.jsonl",
            "config.txt",
            "eval_natural.json",
            "eval_adversarial.json",
            "confusion_natural.csv",
            "confusion_adversarial.csv",
        ):
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

    def test_duplicate_etas_rejected(self, tmp_path, capsys):
        rc = main(["sweep", "--preset", "toy3", "--etas", "0.1,0.1",
                   "--out-root", str(tmp_path)])
        assert rc == 2
        assert "duplicate" in capsys.readouterr().err

    def test_failing_run_names_the_eta(self, tmp_path, capsys):
        argv = ["sweep", "--preset", "toy3", "--seed", "0",
                "--out-root", str(tmp_path), "--etas", "0.1,5.0"] + TINY
        rc = main(argv)
        assert rc == 2
        assert "eta=5" in capsys.readouterr().err
