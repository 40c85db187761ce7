"""Command-line behavior: outputs, config precedence, exit codes."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from qconv import layers, training
from qconv.cli import (
    ExperimentConfig,
    build_parser,
    main,
    parse_seeds,
    resolve_config,
    run_gradient_check,
)
from qconv.tetris import load_dataset
from qconv.training import TrainConfig


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--n", "120", "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "120 samples" in printed
    for fragment in ("S: 8", "L: 16", "O: 4", "T: 8", "I: 6"):
        assert fragment in printed
    dataset = load_dataset(out)
    assert len(dataset) == 120
    assert dataset.class_names == ("S", "L", "O", "T", "I")


def test_gen_data_label_subset(tmp_path):
    out = tmp_path / "two.jsonl"
    assert main(["gen-data", "--n", "100", "--labels", "S,T", "--out", str(out)]) == 0
    dataset = load_dataset(out)
    assert dataset.class_names == ("S", "T")
    assert set(dataset.labels.tolist()) <= {0, 1}


def test_gen_data_unknown_label_is_config_error(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    assert main(["gen-data", "--labels", "S,Q", "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err


def test_gen_data_bad_path_is_io_error(tmp_path, capsys):
    assert main(["gen-data", "--n", "5", "--out", str(tmp_path / "no" / "dir" / "f.jsonl")]) == 3
    assert "io error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train

def test_train_writes_csv_and_summary(tmp_path):
    out = tmp_path / "results"
    code = main([
        "train", "--model", "cnn", "--arch", "one-layer", "--labels", "2",
        "--images", "40", "--iterations", "6", "--eval-every", "3",
        "--seeds", "2", "--out-dir", str(out),
    ])
    assert code == 0
    rows = read_csv(out / "metrics_cnn_one-layer_2label.csv")
    assert rows[0] == [
        "iteration",
        "seed0_train_loss", "seed0_test_loss", "seed0_test_accuracy",
        "seed1_train_loss", "seed1_test_loss", "seed1_test_accuracy",
        "mean_train_loss", "mean_test_loss", "mean_test_accuracy",
    ]
    assert [r[0] for r in rows[1:]] == ["3", "6"]
    summary = json.loads((out / "summary_cnn_one-layer_2label.json").read_text())
    assert summary["config"]["seeds"] == [0, 1]
    assert summary["config"]["model"] == "cnn"
    assert 0.0 <= summary["final"]["mean_test_accuracy"] <= 1.0
    assert summary["wall_time_seconds"] > 0


def test_train_zero_iterations_is_config_error(capsys):
    assert main(["train", "--iterations", "0"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "iterations" in err


def test_train_unwritable_out_dir_is_io_error_before_training(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("qconv.cli.run_experiments",
                        lambda *args, **kwargs: pytest.fail("trained before making --out-dir"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["train", "--out-dir", str(blocker / "sub")]) == 3
    assert "io error" in capsys.readouterr().err


def test_train_csv_floats_have_full_precision(tmp_path):
    out = tmp_path / "res"
    assert main(["train", "--model", "cnn", "--labels", "2", "--images", "30", "--iterations", "2",
                 "--eval-every", "2", "--seeds", "1", "--out-dir", str(out)]) == 0
    rows = read_csv(out / "metrics_cnn_one-layer_2label.csv")
    value = rows[1][1]
    assert float(value) != 0.0
    assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 15


# ---------------------------------------------------------------------------
# config file handling

def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment settings\n"
        "model = cnn\n"
        "labels = 2\n"
        "images = 30\n"
        "iterations = 4\n"
        "eval_every = 2\n"
        "seeds = 1\n"
        f"out_dir = {tmp_path / 'from_file'}\n"
    )
    # flag overrides the file's iterations
    assert main(["train", "--config", str(cfg), "--iterations", "2"]) == 0
    rows = read_csv(tmp_path / "from_file" / "metrics_cnn_one-layer_2label.csv")
    assert [r[0] for r in rows[1:]] == ["2"]


# Every ExperimentConfig field: its config-file text and the matching train flag.
NON_DEFAULT_SETTINGS = {
    "model": ("cnn", "--model"),
    "architecture": ("two-layer", "--arch"),
    "labels": ("5", "--labels"),
    "images": ("40", "--images"),
    "iterations": ("7", "--iterations"),
    "learning_rate": ("0.05", "--lr"),
    "batch_size": ("8", "--batch-size"),
    "eval_every": ("3", "--eval-every"),
    "seeds": ("2,5", "--seeds"),
    "out_dir": ("elsewhere", "--out-dir"),
}


def test_config_file_and_flags_resolve_every_setting_alike(tmp_path):
    assert list(NON_DEFAULT_SETTINGS) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {text}\n" for key, (text, _) in NON_DEFAULT_SETTINGS.items()))
    flags = [arg for text, flag in NON_DEFAULT_SETTINGS.values() for arg in (flag, text)]
    from_file = resolve_config(build_parser().parse_args(["train", "--config", str(cfg)]))
    from_flags = resolve_config(build_parser().parse_args(["train", *flags]))
    assert from_file == from_flags
    defaults = ExperimentConfig()
    for key in NON_DEFAULT_SETTINGS:
        assert getattr(from_file, key) != getattr(defaults, key), key


def test_experiment_defaults_are_the_training_defaults():
    assert ExperimentConfig().train_config() == TrainConfig()


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("modle = cnn\n")
    assert main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "modle" in err


def test_config_file_bad_value_names_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("iterations = soon\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "iterations" in capsys.readouterr().err


def test_unknown_flag_is_config_error(capsys):
    assert main(["train", "--warp-speed", "9"]) == 1
    assert "config error" in capsys.readouterr().err


def test_parse_seeds_forms():
    assert parse_seeds("3") == (0, 1, 2)
    assert parse_seeds("4,7") == (4, 7)
    with pytest.raises(ValueError):
        parse_seeds("0.5")
    with pytest.raises(ValueError):
        parse_seeds("0,x")


def test_non_positive_seed_count_says_so(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seeds = 0\n")
    for args in (["--seeds", "0"], ["--seeds", "-3"], ["--config", str(cfg)]):
        assert main(["train", *args, "--out-dir", str(tmp_path / "res")]) == 1
        assert "seeds: need a positive count" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_negative_seed_is_config_error_before_any_run(tmp_path, capsys):
    assert main(["repro", "--seeds=-1,2", "--images", "30", "--iterations", "2",
                 "--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "seeds" in captured.err
    assert "running" not in captured.out


def test_duplicate_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "res"
    assert main(["train", "--model", "cnn", "--images", "30", "--iterations", "2",
                 "--eval-every", "2", "--seeds", "1,1", "--out-dir", str(out)]) == 1
    assert "seeds" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_passes_and_reports(capsys):
    assert main(["gradcheck", "--cases", "25", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "max deviation" in out
    assert "PASS" in out


def test_gradcheck_depth_zero_trivially_passes():
    assert main(["gradcheck", "--cases", "5", "--depth", "0"]) == 0


def wrong_shift(monkeypatch, name):
    # A shift of 1.0 rad instead of pi/4 scales the shift-rule difference by sin(2 * 1.0).
    original = getattr(layers, name)
    monkeypatch.setattr(layers, name, lambda *args: np.sin(2.0) * original(*args))


def test_gradcheck_detects_injected_wrong_shift(monkeypatch, capsys):
    wrong_shift(monkeypatch, "_generator_traces")
    assert main(["gradcheck", "--cases", "5"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "parameter gradient" in out


def test_gradcheck_detects_wrong_input_gradient(monkeypatch, capsys):
    wrong_shift(monkeypatch, "_scatter_windows")
    assert main(["gradcheck", "--cases", "5"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "input gradient" in out


def test_gradcheck_report_contents():
    report = run_gradient_check(cases=10, seed=0)
    assert report["passed"]
    assert report["max_deviation"] <= report["tolerance"]
    assert report["worst"]["kind"] in ("parameter", "input")


# ---------------------------------------------------------------------------
# repro

REPRO_FLAGS = ["--images", "30", "--iterations", "4", "--eval-every", "2", "--seeds", "2"]


def test_repro_single_panel(tmp_path):
    out = tmp_path / "repro"
    assert main(["repro", "--panel", "a", "--out-dir", str(out), *REPRO_FLAGS]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["panel_a_accuracy_2label.csv", "repro_summary.json"]
    rows = read_csv(out / "panel_a_accuracy_2label.csv")
    assert rows[0] == ["iteration", "cnn_one_layer", "cnn_two_layer",
                       "qccnn_one_layer", "qccnn_two_layer"]
    assert [r[0] for r in rows[1:]] == ["2", "4"]


def test_repro_all_panels_and_summary(tmp_path, capsys):
    out = tmp_path / "repro"
    assert main(["repro", "--out-dir", str(out), *REPRO_FLAGS]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "panel_a_accuracy_2label.csv",
        "panel_b_accuracy_5label.csv",
        "panel_c_loss_2label.csv",
        "panel_d_loss_5label.csv",
        "repro_summary.json",
    ]
    summary = json.loads((out / "repro_summary.json").read_text())
    assert len(summary["runs"]) == 8
    assert set(summary["loss_ordering"]) == {
        "one-layer_2label", "two-layer_2label", "one-layer_5label", "two-layer_5label",
    }
    assert "loss_ordering_reproduced" in summary
    printed = capsys.readouterr().out
    assert "reduced/custom seed set" in printed
    assert "seed 0 (1/2): 8 combinations, 4 iterations..." in printed
    assert "seed 1 (2/2): 8 combinations, 4 iterations..." in printed


def test_repro_builds_each_seeds_data_once(tmp_path, monkeypatch):
    calls = {"generate_dataset": 0, "split": 0, "filter_labels": 0}
    for name in calls:
        original = getattr(training, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(training, name, counted)
    assert main(["repro", "--out-dir", str(tmp_path), *REPRO_FLAGS]) == 0
    # one dataset and split per seed, and one train and one test filter
    assert calls == {"generate_dataset": 2, "split": 2, "filter_labels": 4}


def test_repro_divergence_names_the_run(tmp_path, capsys):
    # under filterwarnings = error a leaked overflow warning fails this test
    assert main(["repro", "--lr", "1e150", "--out-dir", str(tmp_path), *REPRO_FLAGS]) == 2
    assert capsys.readouterr().err == (
        "runtime error: qccnn one-layer 2-label, seed 0: "
        "non-finite evaluation loss at iteration 2\n"
    )


def test_repro_identical_configs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["repro", "--panel", "c", "--out-dir", str(out_a), *REPRO_FLAGS]) == 0
    assert main(["repro", "--panel", "c", "--out-dir", str(out_b), *REPRO_FLAGS]) == 0
    a = (out_a / "panel_c_loss_2label.csv").read_bytes()
    b = (out_b / "panel_c_loss_2label.csv").read_bytes()
    assert a == b
