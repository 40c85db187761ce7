"""Command-line interface: dataset generation, training, gradient
verification, and the four-panel benchmark reproduction.

Subcommands:
    gen-data    write a Tetris dataset file (JSON lines)
    train       train one model/architecture/label combination, write a
                metrics CSV and a summary JSON
    gradcheck   compare QuantumConv's backward-pass gradients against
                central finite differences on randomized layers
    repro       run every model/architecture combination for the selected
                panels and write one CSV per panel plus a summary JSON

Settings resolve in precedence order: built-in defaults, then a
``--config`` file of flat ``key = value`` lines (``#`` comments allowed,
unknown keys rejected), then command-line flags.

Exit codes: 0 success, 1 configuration error, 2 runtime/divergence
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .layers import QuantumConv, WindowSpec
from .tetris import CLASS_NAMES, enumerate_configurations, filter_labels, generate_dataset, save_dataset
from .training import (
    ARCHITECTURES,
    DEFAULT_SEEDS,
    LABEL_CHOICES,
    MODELS,
    ExperimentResult,
    TrainConfig,
    TrainingDivergedError,
    run_experiments,
)

GRADCHECK_TOLERANCE = 1e-6

# Fig-style panels: (metric, label count).  Accuracy panels plot the mean
# test accuracy, loss panels the mean training loss.
PANELS = {
    "a": ("accuracy", 2),
    "b": ("accuracy", 5),
    "c": ("loss", 2),
    "d": ("loss", 5),
}

class ConfigError(ValueError):
    """Invalid configuration value, file, or flag."""


def parse_seeds(value: str) -> tuple[int, ...]:
    """Either a count ("10" -> seeds 0..9) or an explicit list ("0,3,7")."""
    text = str(value).strip()
    try:
        if "," in text:
            seeds = tuple(int(part) for part in text.split(",") if part.strip())
        else:
            count = int(text)
    except ValueError as exc:
        raise ConfigError(f"seeds: cannot parse {value!r}") from exc
    if "," not in text:
        if count < 1:
            raise ConfigError(f"seeds: need a positive count, got {count}")
        seeds = tuple(range(count))
    if not seeds:
        raise ConfigError(f"seeds: empty seed list from {value!r}")
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds: need distinct non-negative seeds, got {value!r}")
    return seeds


_CHOICES = {"model": MODELS, "architecture": ARCHITECTURES, "labels": LABEL_CHOICES}


@dataclass(frozen=True)
class ExperimentConfig:
    """Every `train`/`repro` setting and its default.  The field names are
    the config-file keys; the training fields share `TrainConfig`'s names
    and defaults.  Construction validates."""

    model: str = "qccnn"
    architecture: str = "one-layer"
    labels: int = 2
    images: int = 1000
    iterations: int = TrainConfig.iterations
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    eval_every: int = TrainConfig.eval_every
    seeds: tuple[int, ...] = TrainConfig.seeds
    out_dir: str = "results"

    def __post_init__(self):
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name}: expected one of {choices}, got {getattr(self, name)!r}")
        if self.images < 2:
            raise ConfigError(f"images: need at least 2, got {self.images}")
        try:
            self.train_config()  # TrainConfig checks the training fields
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{f.name: getattr(self, f.name) for f in fields(TrainConfig)})


# Config-file key -> parser of its text: the field default's type, or parse_seeds.
_PARSERS = {f.name: parse_seeds if f.name == "seeds" else type(f.default)
            for f in fields(ExperimentConfig)}


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; unknown keys are rejected by name."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}: line {line_no}: unknown config key {key!r}")
        try:
            values[key] = _PARSERS[key](text.strip())
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}: line {line_no}: bad value for {key}: {text.strip()!r}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then config file, then explicit command-line flags."""
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key, parse in _PARSERS.items():
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = parse(flag)
    return ExperimentConfig(**values)


# MetricsRecord's series, in CSV column and summary order.
_SERIES = ("train_loss", "test_loss", "test_accuracy")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_metrics_csv(path: Path, result: ExperimentResult) -> None:
    """Per-seed and mean series, 17 significant digits, stable schema."""
    prefixes = [f"seed{seed}" for seed in result.seeds] + ["mean"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration"] + [f"{p}_{m}" for p in prefixes for m in _SERIES])
        for i, mean in enumerate(result.mean):
            records = [run[i] for run in result.per_seed] + [mean]
            writer.writerow([str(mean.iteration)] + [_fmt(getattr(r, m)) for r in records for m in _SERIES])


def _final_summary(result: ExperimentResult) -> dict:
    final = result.mean[-1]
    return {"iteration": final.iteration, **{f"mean_{m}": getattr(final, m) for m in _SERIES}}


def cmd_gen_data(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ConfigError(f"n: must be >= 1, got {args.n}")
    dataset = generate_dataset(args.n, args.seed)
    if args.labels != "all":
        names = tuple(part.strip() for part in args.labels.split(",") if part.strip())
        try:
            dataset = filter_labels(dataset, names)
        except ValueError as exc:
            raise ConfigError(f"labels: {exc}") from exc
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out}")
    for name in CLASS_NAMES:
        print(f"  class {name}: {len(enumerate_configurations(name))} configurations")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    combination = (config.model, config.architecture, config.labels)
    result = run_experiments([combination], config.train_config(), config.images)[combination]
    wall = time.perf_counter() - started
    stem = f"{config.model}_{config.architecture}_{config.labels}label"
    csv_path = out_dir / f"metrics_{stem}.csv"
    write_metrics_csv(csv_path, result)
    summary = {
        "config": asdict(config),
        "final": _final_summary(result),
        "wall_time_seconds": wall,
    }
    json_path = out_dir / f"summary_{stem}.json"
    json_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    final = result.mean[-1]
    print(f"{stem}: final mean test accuracy {final.test_accuracy:.4f}, "
          f"mean test loss {final.test_loss:.6f} ({wall:.1f}s)")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _central_difference(fn, values: np.ndarray, h: float = 1e-5) -> np.ndarray:
    grad = np.empty(values.size)
    for j in range(values.size):
        shifted = values.copy()
        shifted[j] = values[j] + h
        up = fn(shifted)
        shifted[j] = values[j] - h
        down = fn(shifted)
        grad[j] = (up - down) / (2.0 * h)
    return grad


def run_gradient_check(cases: int, seed: int, depth: int | None = None) -> dict:
    """Randomized check of `QuantumConv.backward` against central differences.

    Each case is a random layer (1x2 or 2x2 window, 1-3 filters) on one
    input a row and a column larger than the window, so that windows
    overlap, with a random upstream gradient u.  ``backward``'s angle and
    input gradients are compared with central differences of
    ``sum(u * forward(x))``, the scalar they are the gradient of.
    """
    rng = np.random.default_rng(seed)
    worst = {"deviation": 0.0, "case": None, "n_qubits": None, "depth": None, "kind": None}
    for case in range(cases):
        window = WindowSpec(*((1, 2), (2, 2))[int(rng.integers(2))])
        d = depth if depth is not None else int(rng.integers(1, 5))
        layer = QuantumConv(window, int(rng.integers(1, 4)), d, rng)
        x = rng.uniform(0.0, 2.0 * np.pi, (1, window.height + 1, window.width + 1, 1))
        out, cache = layer.forward(x)
        upstream = rng.standard_normal(out.shape)
        (got_p,), got_x = layer.backward(upstream, cache)
        angles = layer.angles

        def weighted_output(flat_angles, flat_x):
            layer.angles = flat_angles.reshape(angles.shape)
            return float(np.sum(upstream * layer.forward(flat_x.reshape(x.shape))[0]))

        fd_p = _central_difference(lambda a: weighted_output(a, x.ravel()), angles.ravel())
        fd_x = _central_difference(lambda v: weighted_output(angles.ravel(), v), x.ravel())
        for kind, got, want in (("parameter", got_p.ravel(), fd_p), ("input", got_x.ravel(), fd_x)):
            if got.size == 0:
                continue
            deviation = float(np.max(np.abs(got - want)))
            if deviation > worst["deviation"]:
                worst = {"deviation": deviation, "case": case, "n_qubits": window.area,
                         "depth": d, "kind": kind}
    return {
        "cases": cases,
        "tolerance": GRADCHECK_TOLERANCE,
        "max_deviation": worst["deviation"],
        "worst": worst,
        "passed": worst["deviation"] <= GRADCHECK_TOLERANCE,
    }


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.cases < 1:
        raise ConfigError(f"cases: must be >= 1, got {args.cases}")
    if args.depth is not None and args.depth < 0:
        raise ConfigError(f"depth: must be >= 0, got {args.depth}")
    report = run_gradient_check(args.cases, args.seed, depth=args.depth)
    print(f"gradcheck: {report['cases']} random circuits, QuantumConv backward")
    print(f"max deviation vs central finite differences: {report['max_deviation']:.3e} "
          f"(tolerance {report['tolerance']:.1e})")
    if report["passed"]:
        print("gradcheck: PASS")
        return 0
    worst = report["worst"]
    print(f"gradcheck: FAIL at case {worst['case']} "
          f"(n_qubits={worst['n_qubits']}, depth={worst['depth']}, {worst['kind']} gradient, "
          f"deviation {worst['deviation']:.3e})")
    return 2


def cmd_repro(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    panels = sorted(PANELS) if args.panel == "all" else [args.panel]
    label_counts = sorted({PANELS[p][1] for p in panels})
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.seeds != DEFAULT_SEEDS:
        print(f"note: reduced/custom seed set {list(config.seeds)} "
              f"(default is {list(DEFAULT_SEEDS)})")

    started = time.perf_counter()
    combinations = [(m, a, l) for l in label_counts for m in MODELS for a in ARCHITECTURES]

    def progress(index: int, seed: int) -> None:
        print(f"seed {seed} ({index + 1}/{len(config.seeds)}): {len(combinations)} "
              f"combinations, {config.iterations} iterations...")

    results = run_experiments(combinations, config.train_config(), config.images, progress)

    written = []
    for panel in panels:
        metric, labels = PANELS[panel]
        path = out_dir / f"panel_{panel}_{metric}_{labels}label.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            columns = [(m, a) for m in ("cnn", "qccnn") for a in ARCHITECTURES]
            writer.writerow(["iteration"] + [f"{m}_{a.replace('-', '_')}" for m, a in columns])
            series = [results[(m, a, labels)].mean for m, a in columns]
            for i in range(len(series[0])):
                row = [str(series[0][i].iteration)]
                for mean in series:
                    value = mean[i].test_accuracy if metric == "accuracy" else mean[i].train_loss
                    row.append(_fmt(value))
                writer.writerow(row)
        written.append(path)
        print(f"wrote {path}")

    loss_ordering = {}
    for labels in label_counts:
        for architecture in ARCHITECTURES:
            q = results[("qccnn", architecture, labels)].mean[-1].train_loss
            c = results[("cnn", architecture, labels)].mean[-1].train_loss
            key = f"{architecture}_{labels}label"
            loss_ordering[key] = {
                "qccnn_final_train_loss": q,
                "cnn_final_train_loss": c,
                "qccnn_below_cnn": bool(q < c),
            }
    reproduced = all(v["qccnn_below_cnn"] for v in loss_ordering.values())
    if not reproduced:
        print("reproduction discrepancy: QCCNN final loss is not below the CNN baseline "
              "for every pair under this seed set")
    summary = {
        "config": asdict(config),
        "panels": [str(p) for p in written],
        "runs": {
            f"{m}_{a}_{l}label": _final_summary(r) for (m, a, l), r in sorted(results.items())
        },
        "loss_ordering": loss_ordering,
        "loss_ordering_reproduced": reproduced,
        "wall_time_seconds": time.perf_counter() - started,
    }
    summary_path = out_dir / "repro_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {summary_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are config errors (exit 1)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qconv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a Tetris dataset file")
    gen.add_argument("--n", type=int, default=1000, help="number of images (default 1000)")
    gen.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    gen.add_argument("--labels", default="all",
                     help="'all' or comma-separated class names, e.g. S,T (default all)")
    gen.add_argument("--out", default="tetris_dataset.jsonl",
                     help="output path (default tetris_dataset.jsonl)")
    gen.set_defaults(func=cmd_gen_data)

    def add_experiment_flags(p, with_model=True):
        p.add_argument("--config", help="flat key = value config file")
        settings = [("--model", "model", ""), ("--arch", "architecture", ""),
                    ("--labels", "labels", "")] if with_model else []
        settings += [
            ("--images", "images", "dataset size per seed"),
            ("--iterations", "iterations", "training iterations"),
            ("--lr", "learning_rate", "ADAM learning rate"),
            ("--batch-size", "batch_size", "mini-batch size, 0 = full batch"),
            ("--eval-every", "eval_every", "record metrics every this many iterations"),
            ("--seeds", "seeds", "seed count or comma list"),
            ("--out-dir", "out_dir", "output directory"),
        ]
        for flag, key, text in settings:
            # typed as in a config file, except --seeds: argparse would reword parse_seeds' errors
            default = getattr(ExperimentConfig, key)
            shown = f"0..{len(default) - 1}" if key == "seeds" else default
            p.add_argument(flag, dest=key, type=str if key == "seeds" else _PARSERS[key],
                           choices=_CHOICES.get(key),
                           help=f"{text} (default {shown})" if text else f"default {shown}")

    tr = sub.add_parser("train", help="train one combination, write CSV + summary JSON")
    add_experiment_flags(tr)
    tr.set_defaults(func=cmd_train)

    gc = sub.add_parser("gradcheck", help="QuantumConv gradients vs finite differences")
    gc.add_argument("--cases", type=int, default=200, help="random circuits (default 200)")
    gc.add_argument("--seed", type=int, default=0, help="case generator seed (default 0)")
    gc.add_argument("--depth", type=int, default=None,
                    help="fix the circuit depth (default: random 1..4)")
    gc.set_defaults(func=cmd_gradcheck)

    rp = sub.add_parser("repro", help="reproduce the four benchmark panels")
    add_experiment_flags(rp, with_model=False)
    rp.add_argument("--panel", choices=[*sorted(PANELS), "all"], default="all",
                    help="which panel to produce (default all)")
    rp.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())
