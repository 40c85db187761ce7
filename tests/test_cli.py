"""Command-line behavior: outputs, config precedence, exit codes."""

import csv
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qconv import cli, layers, training
from qconv.cli import (
    ExperimentConfig,
    build_parser,
    main,
    parse_seeds,
    resolve_config,
    run_gradient_check,
)
from qconv.training import TrainConfig


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


# files written by earlier commits, which these commands must still reproduce
PINNED = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--n", "120", "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "120 samples" in printed
    for fragment in ("S: 8", "L: 16", "O: 4", "T: 8", "I: 6"):
        assert fragment in printed
    header, *records = read_jsonl(out)
    assert header == {"class_names": ["S", "L", "O", "T", "I"], "seed": 3, "split": "full"}
    assert len(records) == 120


def test_gen_data_label_subset(tmp_path):
    out = tmp_path / "two.jsonl"
    assert main(["gen-data", "--n", "100", "--labels", "S,T", "--out", str(out)]) == 0
    header, *records = read_jsonl(out)
    assert header["class_names"] == ["S", "T"]
    assert records and {r["label"] for r in records} <= {0, 1}


@pytest.mark.parametrize("name, flags", [
    pytest.param("gen_data_n12_seed3.jsonl", [], id="all"),
    pytest.param("gen_data_n12_seed3_S_T.jsonl", ["--labels", "S,T"], id="S-T"),
])
def test_gen_data_matches_pinned_file(tmp_path, name, flags):
    # regenerate with: qconv gen-data --n 12 --seed 3 [--labels S,T] --out tests/data/<name>
    out = tmp_path / name
    assert main(["gen-data", "--n", "12", "--seed", "3", *flags, "--out", str(out)]) == 0
    assert out.read_bytes() == (PINNED / name).read_bytes()


def test_gen_data_unknown_label_is_config_error(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    assert main(["gen-data", "--labels", "S,Q", "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-data", "gradcheck"])
def test_negative_generator_seed_is_config_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)  # where gen-data's default output file would go
    assert main([command, "--seed", "-2"]) == 1
    assert capsys.readouterr().err == "config error: seed: must be >= 0, got -2\n"
    assert not list(tmp_path.iterdir())


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


@pytest.mark.parametrize("command, stubbed, reason", [
    # numpy names the allocation; Python's own allocator raises a bare MemoryError
    pytest.param(["train", "--out-dir"], "run_experiments", "Unable to allocate 4.77 GiB", id="train"),
    pytest.param(["gen-data", "--out"], "generate_dataset", "", id="gen-data"),
])
def test_out_of_memory_is_runtime_error(tmp_path, monkeypatch, capsys, command, stubbed, reason):
    def exhausted(*args, **kwargs):
        raise MemoryError(reason)

    monkeypatch.setattr(f"qconv.cli.{stubbed}", exhausted)
    assert main([*command, str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"runtime error: out of memory: {reason or 'allocation failed'}\n"


def test_encoding_too_large_for_memory_is_config_error_before_any_data(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(training, "generate_dataset",
                        lambda *args, **kwargs: pytest.fail("built data for a run that cannot fit"))
    started = time.perf_counter()
    code = main(["train", "--images", "2000000", "--iterations", "1", "--out-dir", str(tmp_path)])
    assert code == 1 and time.perf_counter() - started < 1.0
    # 81 trig features of 8 bytes for each of an image's 4 windows
    assert capsys.readouterr().err == (
        "config error: 2000000 images: the first layer's encoded training and test sets "
        "would take 4.83 GiB, over the 2 GiB limit\n")


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
    "iterations": ("7", "--iterations"),
    "learning_rate": ("0.05", "--lr"),
    "batch_size": ("8", "--batch-size"),
    "eval_every": ("3", "--eval-every"),
    "seeds": ("2,5", "--seeds"),
    "model": ("cnn", "--model"),
    "architecture": ("two-layer", "--arch"),
    "labels": ("5", "--labels"),
    "images": ("40", "--images"),
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
    # the training fields, their defaults and their checks are TrainConfig's own
    assert issubclass(ExperimentConfig, TrainConfig)
    training = dataclasses.fields(TrainConfig)
    assert dataclasses.fields(ExperimentConfig)[: len(training)] == training
    defaults = ExperimentConfig()
    assert {f.name: getattr(defaults, f.name) for f in training} == dataclasses.asdict(TrainConfig())


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


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_non_finite_learning_rate_is_config_error(tmp_path, capsys, rate):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"learning_rate = {rate}\n")
    for args in (["--lr", rate], ["--config", str(cfg)]):
        assert main(["train", *args, "--out-dir", str(tmp_path / "res")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "learning_rate" in err
    assert not (tmp_path / "res").exists()


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


def test_gradcheck_default_deviation_stays_in_band(capsys):
    # the default run's max deviation was 8.364e-10 when this test was written; a
    # factor of 2 either way allows BLAS rounding but not a changed gradient
    assert main(["gradcheck"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("max deviation"))
    deviation = float(line.split(": ")[1].split()[0])
    assert 8.364e-10 / 2 <= deviation <= 8.364e-10 * 2, line


def test_gradcheck_depth_zero_trivially_passes():
    assert main(["gradcheck", "--cases", "5", "--depth", "0"]) == 0


def wrong_shift(monkeypatch, name):
    # A shift of 1.0 rad instead of pi/4 scales the shift-rule difference by sin(2 * 1.0).
    original = getattr(layers, name)
    monkeypatch.setattr(layers, name, lambda *args: np.sin(2.0) * original(*args))


def test_gradcheck_detects_injected_wrong_shift(monkeypatch, capsys):
    # scale only the angle path's Ry derivative (two slots, cos and sin), not the input path's
    original = layers._rotated
    monkeypatch.setattr(layers, "_rotated",
                        lambda v, k, n: (np.sin(2.0) if k == 2 else 1.0) * original(v, k, n))
    assert main(["gradcheck", "--cases", "5"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "parameter gradient" in out


def test_gradcheck_detects_wrong_input_gradient(monkeypatch, capsys):
    wrong_shift(monkeypatch, "_overlap_add")
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


def test_summaries_keep_their_key_order(tmp_path):
    # both summaries come from one writer: the config first, the wall time last
    flags = ["--images", "30", "--iterations", "2", "--eval-every", "2", "--seeds", "1"]
    assert main(["train", "--model", "cnn", "--out-dir", str(tmp_path), *flags]) == 0
    assert main(["repro", "--panel", "a", "--out-dir", str(tmp_path), *flags]) == 0
    train_summary = json.loads((tmp_path / "summary_cnn_one-layer_2label.json").read_text())
    repro_summary = json.loads((tmp_path / "repro_summary.json").read_text())
    assert list(train_summary) == ["config", "final", "wall_time_seconds"]
    assert list(repro_summary) == ["config", "panels", "runs", "loss_ordering",
                                   "loss_ordering_reproduced", "wall_time_seconds"]
    assert train_summary["wall_time_seconds"] > 0
    assert repro_summary["wall_time_seconds"] > 0


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
    assert multiprocessing.active_children() == []  # a failed run leaves no worker behind


def use_cpus(monkeypatch, count):
    """Make `run_experiments` find ``count`` CPUs, so it forks at most that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def record_trainers(monkeypatch, path):
    """Make every `training.train` call append the id of the process it runs in to ``path``."""
    original = training.train

    def train(*args):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(*args)

    monkeypatch.setattr(training, "train", train)


def read_trainers(path):
    trainers = set(path.read_text().split())
    path.unlink()
    return trainers


def test_repro_is_byte_identical_with_one_and_two_workers(tmp_path, monkeypatch):
    pids = tmp_path / "pids"
    record_trainers(monkeypatch, pids)
    results, run_experiments = [], training.run_experiments

    def recorded(*args):  # the panels hold only seed means, so compare every seed's runs too
        results.append(run_experiments(*args))
        return results[-1]

    monkeypatch.setattr(cli, "run_experiments", recorded)
    panels, trainers = {}, {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        assert main(["repro", "--out-dir", str(out), *REPRO_FLAGS]) == 0
        assert multiprocessing.active_children() == []
        panels[cpus] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        trainers[cpus] = read_trainers(pids)
    assert len(panels[1]) == 4
    assert panels[1] == panels[2]
    assert results[0] == results[1]
    assert trainers[1] == {str(os.getpid())}
    assert trainers[2] and str(os.getpid()) not in trainers[2]


@pytest.mark.parametrize("limit, forked", [(1.5, False), (2.0, True)])
def test_workers_are_capped_by_the_encoding_limit(tmp_path, monkeypatch, limit, forked):
    # two CPUs and two seeds, but the encoding limit holds one seed's encoding, or two
    use_cpus(monkeypatch, 2)
    net = training.build_network("qccnn", "one-layer", 2, 0)
    estimate = 30 * net.encode(np.zeros((1,) + training.INPUT_SHAPE)).phi.nbytes
    monkeypatch.setattr(training, "MAX_ENCODED_BYTES", int(limit * estimate))
    pids = tmp_path / "pids"
    record_trainers(monkeypatch, pids)
    command = ["train", "--images", "30", "--iterations", "2", "--seeds", "2"]
    assert main([*command, "--out-dir", str(tmp_path)]) == 0
    trainers = read_trainers(pids)
    assert (str(os.getpid()) not in trainers) if forked else trainers == {str(os.getpid())}


@pytest.mark.skipif(training._cpu_count() < 2, reason="on one CPU every seed trains in-process")
def test_killed_worker_is_runtime_error(tmp_path, monkeypatch, capsys):
    parent, original = os.getpid(), training.train

    def train(*args):
        if os.getpid() != parent:  # as the kernel's out-of-memory killer would
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args)

    monkeypatch.setattr(training, "train", train)
    assert main(["repro", "--out-dir", str(tmp_path), *REPRO_FLAGS]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: a training worker process died: ")
    assert err.count("\n") == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command, err", [
    pytest.param(["repro", "--images", "2", "--seeds", "1"],
                 "qccnn one-layer 2-label, seed 0: cannot train on an empty training set",
                 id="repro-empty-training-set"),
    pytest.param(["train", "--images", "5", "--seeds", "2", "--eval-every", "1"],
                 "qccnn one-layer 2-label, seed 1: cannot evaluate on an empty test set",
                 id="train-empty-test-set"),
])
def test_empty_set_names_the_run(tmp_path, capsys, command, err):
    assert main([*command, "--iterations", "2", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"config error: {err}\n"


def test_late_empty_set_fails_before_the_first_seed_trains(tmp_path, capsys, monkeypatch):
    # seed 0's sets are all non-empty; seed 1's 2-label test set is empty
    started = []
    run_experiments = training.run_experiments
    monkeypatch.setattr(cli, "run_experiments", lambda *args: run_experiments(
        *args, on_seed=lambda index, seed: started.append(seed)))
    monkeypatch.setattr(training, "train", lambda *args: pytest.fail("trained"))
    command = ["train", "--images", "5", "--iterations", "1", "--seeds", "2", "--eval-every", "1"]
    assert main([*command, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "config error: qccnn one-layer 2-label, seed 1: cannot evaluate on an empty test set\n")
    assert started == []


def test_repro_identical_configs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["repro", "--panel", "c", "--out-dir", str(out_a), *REPRO_FLAGS]) == 0
    assert main(["repro", "--panel", "c", "--out-dir", str(out_b), *REPRO_FLAGS]) == 0
    a = (out_a / "panel_c_loss_2label.csv").read_bytes()
    b = (out_b / "panel_c_loss_2label.csv").read_bytes()
    assert a == b


PIN_FLAGS = ["--images", "300", "--iterations", "60", "--eval-every", "10", "--seeds", "2"]


def assert_matches_pinned_panels(out_dir):
    pinned_panels = sorted((PINNED / "repro").glob("*.csv"))
    assert len(pinned_panels) == 4
    for pinned in pinned_panels:
        fresh = out_dir / pinned.name
        if "accuracy" in pinned.name:
            assert fresh.read_bytes() == pinned.read_bytes(), pinned.name
            continue
        want, got = read_csv(pinned), read_csv(fresh)
        assert got[0] == want[0] and [r[0] for r in got] == [r[0] for r in want]
        want_values = np.array([r[1:] for r in want[1:]], dtype=float)
        got_values = np.array([r[1:] for r in got[1:]], dtype=float)
        deviation = np.abs(got_values - want_values) / np.abs(want_values)
        row, col = np.unravel_index(np.argmax(deviation), deviation.shape)
        assert deviation.max() <= 1e-12, (
            f"{pinned.name}: largest relative deviation {deviation.max():.3e} "
            f"at iteration {want[row + 1][0]}, {want[0][col + 1]}"
        )


def test_repro_matches_pinned_panels(tmp_path):
    """The panels match those checked in under tests/data/repro: accuracy
    byte for byte, loss within 1e-12 relative.

    Regenerate them, and say in CHANGES.md why and by how much they moved,
    with ``OPENBLAS_NUM_THREADS=1 qconv repro --images 300 --iterations 60
    --eval-every 10 --seeds 2 --out-dir tests/data/repro``, then delete the
    repro_summary.json it also writes.  The files were written on a 2-CPU
    Intel Xeon with numpy's bundled OpenBLAS, whose SkylakeX kernel ran.
    They also hold under its Prescott kernel, which
    `test_repro_matches_pinned_panels_under_another_blas_kernel` checks:
    accuracy byte for byte, loss within ~4e-15 relative when that test
    was written.  A failure on another host can still be its BLAS; say so.
    """
    assert main(["repro", "--out-dir", str(tmp_path), *PIN_FLAGS]) == 0
    assert_matches_pinned_panels(tmp_path)


def openblas_config():
    """numpy's OpenBLAS build string, or None where numpy links another BLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 cannot report it as a dict
        return None
    return blas.get("openblas configuration") if "openblas" in blas.get("name", "") else None


@pytest.mark.skipif("DYNAMIC_ARCH" not in (openblas_config() or ""),
                    reason="needs numpy linked to a DYNAMIC_ARCH OpenBLAS, which can pick another kernel")
def test_repro_matches_pinned_panels_under_another_blas_kernel(tmp_path):
    # Prescott is OpenBLAS's SSE3 kernel, which it reports as Katmai: other block sizes and
    # summation orders than the AVX kernels the pins were written with
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Prescott",
           "OPENBLAS_VERBOSE": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "qconv", "repro", "--out-dir", str(tmp_path), *PIN_FLAGS],
                         env=env, check=True, capture_output=True, text=True)
    assert "Core: Katmai" in run.stdout + run.stderr  # the kernel really was switched
    assert_matches_pinned_panels(tmp_path)


# Trains the one-layer 5-label QCCNN, whose 5 x 81 x 3,200 phi products would run on two
# OpenBLAS threads in one call, and prints process CPU time over wall time.
TIME_TRAINING = """
import time
from qconv.tetris import generate_dataset, split
from qconv.training import TrainConfig, build_network, train
train_set, test_set = split(generate_dataset(1000, 1), 0.8, 2)
net = build_network("qccnn", "one-layer", 5, 3)
time.sleep(0.2)  # OpenBLAS's threads spin for about 70 ms after they start, at import
cpu, wall = time.process_time(), time.perf_counter()
train(net, train_set, test_set, TrainConfig(iterations=20))
print((time.process_time() - cpu) / (time.perf_counter() - wall))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no second thread on one CPU")
@pytest.mark.parametrize("coretype", [
    pytest.param(None, id="default-kernel", marks=pytest.mark.skipif(
        openblas_config() is None, reason="needs numpy linked to OpenBLAS, whose thread bound this is")),
    pytest.param("Haswell", id="haswell", marks=pytest.mark.skipif(
        "DYNAMIC_ARCH" not in (openblas_config() or ""),
        reason="needs numpy linked to a DYNAMIC_ARCH OpenBLAS, which can pick another kernel")),
])
def test_quantum_training_keeps_blas_on_one_thread(coretype):
    # a fresh process, so no BLAS thread is left spinning from earlier tests; the default
    # SkylakeX kernel keeps products up to 10**6 on one thread, Haswell only those under 2**19
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if not key.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if coretype:
        env.update({"OPENBLAS_CORETYPE": coretype, "OPENBLAS_VERBOSE": "2"})
    run = subprocess.run([sys.executable, "-c", TIME_TRAINING], env=env, check=True,
                         capture_output=True, text=True)
    if coretype:
        assert f"Core: {coretype}" in run.stdout + run.stderr
    assert float(run.stdout.split()[-1]) <= 1.3


def test_repro_is_byte_identical_across_blas_thread_counts(tmp_path):
    # each run is its own process: OpenBLAS reads its thread count once, at import
    src = str(Path(__file__).resolve().parents[1] / "src")
    flags = ["--images", "300", "--iterations", "20", "--eval-every", "10", "--seeds", "2"]
    panels = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "qconv", "repro", "--out-dir", str(out), *flags],
                       env=env, check=True, capture_output=True)
        panels[threads] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert len(panels["1"]) == 4
    assert panels["1"] == panels["2"]
