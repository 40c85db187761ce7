"""The benchmark's workloads and their output checks.

Every workload is split into the same phases so `run.py` can time them
apart: ``setup`` (what `setup_s` times, after a fresh import), ``prepare``
(per-pass inputs, untimed), ``execute`` (the timed pass) and ``check``
(untimed).  Nothing here imports qconv at module level: `run.py`
re-imports the package for each set-up repetition and hands the fresh
modules in as ``q``.

Training inputs come from a pool of experiment seeds whose results are
stored in ``references.json``; the benchmark seed only picks the order
in which a run walks the pool.  Each pool seed drives dataset, split and
initialisation exactly as ``qconv.training.run_experiment`` does.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "references.json"

SEED_POOL = 64
N_IMAGES = 1000
TRAIN_FRACTION = 0.8
LEARNING_RATE = 0.01
EVAL_EVERY = 10
TRAIN_ITERATIONS = 20
REPRO_ITERATIONS = 10
REPRO_MAX_SEEDS = 8
COMBINATIONS = (("one-layer", 2), ("two-layer", 2), ("one-layer", 5), ("two-layer", 5))

# Reassociating the float sums of QuantumConv's forward or backward moves
# the final losses by at most 7e-16 relative.  A quarter turn off by 0.1%
# moves them by 2e-3, and even an angle gradient scaled by 1.001 (which
# ADAM's normalisation nearly hides) by 1.5e-10.  Accuracy may move by
# one test sample, for an exact tie that flips.
LOSS_RTOL = 1e-11


def reference_key(model: str, architecture: str, labels: int, seed: int) -> str:
    return f"{model}/{architecture}/{labels}/{seed}"


def load_references() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def record_matches(record, reference, accuracy_tol: float) -> bool:
    """A MetricsRecord against a stored [iteration, train loss, test loss, accuracy]."""
    iteration, train_loss, test_loss, accuracy = reference
    return (
        record.iteration == iteration
        and math.isclose(record.train_loss, train_loss, rel_tol=LOSS_RTOL, abs_tol=0.0)
        and math.isclose(record.test_loss, test_loss, rel_tol=LOSS_RTOL, abs_tol=0.0)
        and abs(record.test_accuracy - accuracy) <= accuracy_tol + 1e-12
    )


@dataclass
class Context:
    seed: int
    tmp_dir: Path
    references: dict

    def pool_seeds(self, start: int, count: int) -> list[int]:
        order = np.random.default_rng(self.seed).permutation(SEED_POOL)
        return [int(order[(start + k) % SEED_POOL]) for k in range(count)]


def _report(exc: BaseException, what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exception(exc)


# ---------------------------------------------------------------- training


@dataclass
class TrainTask:
    model: str
    architecture: str
    labels: int
    seed: int
    net: object
    train_set: object
    test_set: object


def build_tasks(q, model: str, seed: int) -> list[TrainTask]:
    """Dataset, split, label filter and network for each combination, as
    run_experiment builds them for one seed."""
    training = q.training
    ds_seed, split_seed, init_seed = training.seed_children(seed)
    dataset = training.generate_dataset(N_IMAGES, ds_seed)
    train_set, test_set = training.split(dataset, TRAIN_FRACTION, split_seed)
    two_label = (training.filter_labels(train_set, training.TWO_LABEL_CLASSES),
                 training.filter_labels(test_set, training.TWO_LABEL_CLASSES))
    tasks = []
    for architecture, labels in COMBINATIONS:
        tr, te = two_label if labels == 2 else (train_set, test_set)
        net = training.build_network(model, architecture, labels, init_seed)
        tasks.append(TrainTask(model, architecture, labels, seed, net, tr, te))
    return tasks


def train_config(q):
    """The published settings at TRAIN_ITERATIONS; train() ignores the seed list."""
    return q.training.TrainConfig(iterations=TRAIN_ITERATIONS, learning_rate=LEARNING_RATE,
                                  batch_size=0, eval_every=EVAL_EVERY, seeds=(0,))


def stored_record(references: dict, model: str, architecture: str, labels: int, seed: int,
                  iteration: int):
    """The stored [iteration, train loss, test loss, accuracy] at an eval point, or None."""
    runs = references.get(reference_key(model, architecture, labels, seed), [])
    return next((r for r in runs if r[0] == iteration), None)


def check_train(task: TrainTask, records, references: dict) -> bool:
    """Every eval record of a run against the stored run, which must end at
    TRAIN_ITERATIONS: a run that stops early does less work and fails."""
    want = references.get(reference_key(task.model, task.architecture, task.labels, task.seed))
    if not records or not want or want[-1][0] != TRAIN_ITERATIONS or len(records) != len(want):
        return False
    accuracy_tol = 1.0 / len(task.test_set)
    return all(record_matches(got, ref, accuracy_tol) for got, ref in zip(records, want))


class TrainingWorkload:
    """One seed of each of the four combinations of one model per pass."""

    def __init__(self, model: str):
        self.model = model

    def setup(self, q, ctx: Context):
        return self.prepare(q, ctx, 0)

    def prepare(self, q, ctx: Context, index: int):
        return build_tasks(q, self.model, ctx.pool_seeds(index, 1)[0])

    def execute(self, q, tasks):
        config = train_config(q)
        results, ops = [], 0
        for task in tasks:
            try:
                results.append(q.training.train(task.net, task.train_set, task.test_set, config))
                ops += TRAIN_ITERATIONS
            except Exception as exc:  # counted as a failed run, the pass goes on
                _report(exc, f"train {task.model} {task.architecture} {task.labels}")
                results.append(None)
        return ops, results

    def check(self, q, ctx: Context, tasks, results) -> tuple[int, int]:
        failed = sum(not check_train(t, r, ctx.references) for t, r in zip(tasks, results))
        return len(tasks), failed


# --------------------------------------------------------------------- CLI


def run_cli(q, argv: list[str]) -> tuple[int, str]:
    """qconv.cli.main in-process, with its standard output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = q.cli.main(argv)
    return code, out.getvalue()


def repro_seed_count() -> int:
    """Two seeds per worker of run_experiment's default pool, at most REPRO_MAX_SEEDS."""
    cap = int(os.environ.get("QCONV_THREADS", "0") or 0) or (os.cpu_count() or 1)
    return max(2, min(2 * cap, REPRO_MAX_SEEDS))


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def check_repro(q, out_dir: Path, seeds: list[int], iterations: int, references: dict) -> bool:
    """Panels and summary exist with the expected rows; the final panel
    values equal the summary's and the summary's equal the stored runs."""
    cli = q.cli
    summary_path = out_dir / "repro_summary.json"
    if not summary_path.is_file():
        return False
    runs = json.loads(summary_path.read_text(encoding="utf-8"))["runs"]
    n_rows = 1 + math.ceil(iterations / EVAL_EVERY)
    columns = [(m, a) for m in ("cnn", "qccnn") for a in q.training.ARCHITECTURES]
    for panel, (metric, labels) in sorted(cli.PANELS.items()):
        path = out_dir / f"panel_{panel}_{metric}_{labels}label.csv"
        if not path.is_file():
            return False
        rows = _read_csv(path)
        if len(rows) != n_rows or len(rows[-1]) != 1 + len(columns):
            return False
        field = "mean_test_accuracy" if metric == "accuracy" else "mean_train_loss"
        for (model, arch), cell in zip(columns, rows[-1][1:]):
            if float(cell) != runs[f"{model}_{arch}_{labels}label"][field]:
                return False
    for model in q.training.MODELS:
        for arch in q.training.ARCHITECTURES:
            for labels in q.training.LABEL_CHOICES:
                finals = [stored_record(references, model, arch, labels, s, iterations)
                          for s in seeds]
                if None in finals:
                    return False
                mean = [iterations] + [float(np.mean(column)) for column in zip(*finals)][1:]
                got = runs[f"{model}_{arch}_{labels}label"]
                record = q.training.MetricsRecord(got["iteration"], got["mean_train_loss"],
                                                  got["mean_test_loss"], got["mean_test_accuracy"])
                # one flipped test sample in one seed, for test sets of 50 or more
                if not record_matches(record, mean, 1.0 / (50 * len(seeds))):
                    return False
    return True


class ReproWorkload:
    """`qconv repro` over all four panels, reduced iterations, default pool."""

    def _argv(self, ctx: Context, index: int) -> tuple[list[str], list[int], Path]:
        count = repro_seed_count()
        seeds = ctx.pool_seeds(index * count, count)
        out_dir = ctx.tmp_dir / f"repro-{index}"
        argv = ["repro", "--seeds", ",".join(map(str, seeds)),
                "--iterations", str(REPRO_ITERATIONS), "--eval-every", str(EVAL_EVERY),
                "--images", str(N_IMAGES), "--out-dir", str(out_dir)]
        return argv, seeds, out_dir

    def setup(self, q, ctx: Context):
        return q.cli.build_parser().parse_args(self._argv(ctx, 0)[0])

    def prepare(self, q, ctx: Context, index: int):
        return self._argv(ctx, index)

    def execute(self, q, inputs):
        argv, seeds, _ = inputs
        code, _ = run_cli(q, argv)
        return 8 * len(seeds) * REPRO_ITERATIONS, code

    def check(self, q, ctx: Context, inputs, code) -> tuple[int, int]:
        _, seeds, out_dir = inputs
        try:
            ok = code == 0 and check_repro(q, out_dir, seeds, REPRO_ITERATIONS, ctx.references)
        except (OSError, ValueError, KeyError) as exc:
            _report(exc, "repro output check")
            ok = False
        shutil.rmtree(out_dir, ignore_errors=True)
        return 1, int(not ok)


WORKLOADS = {
    "qccnn-train": TrainingWorkload("qccnn"),
    "cnn-train": TrainingWorkload("cnn"),
    "repro-multiseed": ReproWorkload(),
}
