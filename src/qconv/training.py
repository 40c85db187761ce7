"""ADAM optimisation, the training loop, and multi-seed experiments.

An experiment seed drives dataset generation, the 80/20 split, and
parameter initialisation through three child seeds derived with
numpy's SeedSequence, so repeating a seed list reproduces every number
exactly.  Seeds train in forked worker processes, one per CPU
and at most one per seed, and their results are gathered in the order
given; every combination trained on a seed shares that seed's data.
"""

from __future__ import annotations

import functools
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .layers import ClassicalConv, Dense, MaxPool, Network, QuantumConv, WindowSpec, mse_loss_batch
from .tetris import GRID, Dataset, filter_labels, generate_dataset, split

INPUT_SHAPE = (GRID, GRID, 1)
QUANTUM_DEPTH = 4
CONV_WINDOW = WindowSpec(2, 2)

MODELS = ("qccnn", "cnn")
ARCHITECTURES = ("one-layer", "two-layer")
LABEL_CHOICES = (2, 5)
TWO_LABEL_CLASSES = ("S", "T")
DEFAULT_SEEDS = tuple(range(10))

# Largest first-layer encoding of a run's training and test sets, in bytes, that
# `run_experiments` builds; a larger run fails at once instead of part way through
# exhausting memory.  It also caps the worker processes, each encoding one seed.
MAX_ENCODED_BYTES = 2 * 2**30


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite."""


# ADAM's decay rates and epsilon, as Kingma & Ba recommend (arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float


def init_adam(n_params: int, lr: float = 0.01) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0, lr)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One bias-corrected ADAM update; returns (new params, new state)."""
    p = np.asarray(params, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    if p.shape != g.shape or p.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {p.shape}, grads {g.shape}, state {state.m.shape}"
        )
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_params = p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(m, v, t, state.lr)


@dataclass(frozen=True)
class TrainConfig:
    """Settings of one training run.  Construction validates."""

    iterations: int = 1000
    learning_rate: float = 0.01
    batch_size: int = 0  # 0 = full batch
    eval_every: int = 10
    seeds: tuple[int, ...] = DEFAULT_SEEDS

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0 (0 = full batch), got {self.batch_size}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct and non-negative, got {self.seeds}")


@dataclass(frozen=True)
class MetricsRecord:
    iteration: int
    train_loss: float
    test_loss: float
    test_accuracy: float


@dataclass
class ExperimentResult:
    """One combination's runs, one per seed, in seed order."""

    seeds: tuple[int, ...]
    per_seed: list[list[MetricsRecord]]

    @functools.cached_property
    def mean(self) -> list[MetricsRecord]:
        """Each metric's mean over the seeds, eval point by eval point."""
        return [MetricsRecord(runs[0].iteration,
                              float(np.mean([run.train_loss for run in runs])),
                              float(np.mean([run.test_loss for run in runs])),
                              float(np.mean([run.test_accuracy for run in runs])))
                for runs in zip(*self.per_seed)]


def _onehot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    if labels.size and not 0 <= labels.min() <= labels.max() < n_classes:
        raise ValueError(f"dataset labels {labels.min()}..{labels.max()} out of range "
                         f"for {n_classes} classes")
    return np.eye(n_classes)[labels]


def evaluate(net: Network, inputs, labels: np.ndarray, onehot: np.ndarray):
    """(accuracy, mean loss) over a batch, raw or from `net.encode`; argmax
    ties go to the lowest index."""
    if not labels.size:
        raise ValueError("cannot evaluate on an empty dataset")
    pred, _ = net.forward_batch(inputs)
    correct = int(np.sum(pred.argmax(axis=1) == labels))
    return correct / labels.size, mse_loss_batch(pred, onehot)[0]


def _check_not_empty(train_set: Dataset, test_set: Dataset) -> None:
    if not len(train_set):
        raise ValueError("cannot train on an empty training set")
    if not len(test_set):
        raise ValueError("cannot evaluate on an empty test set")


def train(net: Network, train_set: Dataset, test_set: Dataset,
          config: TrainConfig) -> list[MetricsRecord]:
    """Run the iteration loop; metrics are recorded after the update at every
    multiple of ``eval_every`` and at the final iteration.  Both sets are
    encoded through the first layer once; mini-batches index the encoded
    training set.  Overflow inside a diverging run is not warned about:
    the non-finite loss it leads to raises `TrainingDivergedError`."""
    _check_not_empty(train_set, test_set)
    targets = _onehot(train_set.labels, net.n_classes)
    test_onehot = _onehot(test_set.labels, net.n_classes)
    inputs, test_inputs = net.encode(train_set.images), net.encode(test_set.images)
    n = len(train_set)
    params = net.get_flat_params()
    state = init_adam(params.size, config.learning_rate)
    records: list[MetricsRecord] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, config.iterations + 1):
            if config.batch_size and config.batch_size < n:
                start = ((it - 1) * config.batch_size) % n
                idx = np.arange(start, start + config.batch_size) % n
                xb, tb = inputs[idx], targets[idx]
            else:
                xb, tb = inputs, targets
            loss, grads, _ = net.loss_and_gradients(xb, tb)
            if not np.isfinite(loss):
                raise TrainingDivergedError(f"non-finite training loss at iteration {it}")
            params, state = adam_step(params, grads, state)
            net.set_flat_params(params)
            if it % config.eval_every == 0 or it == config.iterations:
                train_loss = evaluate(net, inputs, train_set.labels, targets)[1]
                test_accuracy, test_loss = evaluate(net, test_inputs, test_set.labels, test_onehot)
                if not (np.isfinite(train_loss) and np.isfinite(test_loss)):
                    raise TrainingDivergedError(f"non-finite evaluation loss at iteration {it}")
                records.append(MetricsRecord(it, train_loss, test_loss, test_accuracy))
    return records


def build_network(model: str, architecture: str, n_classes: int, seed: int) -> Network:
    """The two benchmark architectures, quantum or classical convolutions.

    one-layer: conv(2x2, 5 filters) -> pool(2x2) -> dense
    two-layer: conv(2x2, 2 filters) -> conv(2x2, 3 filters)
               -> pool(2x2, padding 1) -> dense
    Windows step one cell at a time; quantum circuits use 4 qubits at depth 4.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if architecture not in ARCHITECTURES:
        raise ValueError(f"architecture must be one of {ARCHITECTURES}, got {architecture!r}")
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    rng = np.random.default_rng(seed)

    def conv(filters: int):
        if model == "qccnn":
            return QuantumConv(CONV_WINDOW, filters, QUANTUM_DEPTH, rng)
        return ClassicalConv(CONV_WINDOW, filters, rng)

    if architecture == "one-layer":
        layers = [conv(5), MaxPool(WindowSpec(2, 2))]
    else:
        layers = [conv(2), conv(3), MaxPool(WindowSpec(2, 2, padding=1))]
    shape = INPUT_SHAPE
    for layer in layers:
        shape = layer.out_shape(shape)
    layers.append(Dense(int(np.prod(shape)), n_classes, rng))
    return Network(layers, n_classes)


def seed_children(seed: int) -> tuple[int, int, int]:
    """Child seeds for (dataset, split, initialisation) from one experiment seed."""
    a, b, c = np.random.SeedSequence(seed).generate_state(3)
    return int(a), int(b), int(c)


def _named(exc: Exception, seed: int, model: str, architecture: str, labels: int) -> Exception:
    return type(exc)(f"{model} {architecture} {labels}-label, seed {seed}: {exc}")


def _train_seed(combinations, sets: dict[int, tuple[Dataset, Dataset]], seed: int,
                config: TrainConfig) -> list[list[MetricsRecord]]:
    """Every combination on one seed's sets, in order: one worker process's task."""
    init_seed = seed_children(seed)[2]
    runs = []
    for combination in combinations:
        net = build_network(*combination, init_seed)
        try:
            runs.append(train(net, *sets[combination[2]], config))
        except (TrainingDivergedError, ValueError) as exc:
            raise _named(exc, seed, *combination) from exc
    return runs


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _train_seeds(combinations, all_sets: list, config: TrainConfig, workers: int,
                 on_seed) -> list[list[list[MetricsRecord]]]:
    """`_train_seed` for each seed and its sets, in seed order, on up to ``workers``
    processes, forked so that they inherit the imports and warm caches.  At most
    ``workers`` seeds are submitted at once, so ``on_seed`` runs as a seed starts."""
    seeds = list(enumerate(zip(config.seeds, all_sets)))  # (index, (seed, sets))
    results = []
    if workers > 1:
        # imported here: ~2 MB of modules that in-process training never loads
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    if workers == 1 or "fork" not in multiprocessing.get_all_start_methods():
        for index, (seed, sets) in seeds:
            if on_seed is not None:
                on_seed(index, seed)
            results.append(_train_seed(combinations, sets, seed, config))
        return results
    pending = deque()
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        for index, (seed, sets) in seeds:
            if len(pending) == workers:
                results.append(pending.popleft().result())
            if on_seed is not None:
                on_seed(index, seed)
            pending.append(pool.submit(_train_seed, combinations, sets, seed, config))
        results.extend(future.result() for future in pending)
    return results


def run_experiments(combinations, config: TrainConfig, n_images: int = 1000,
                    on_seed=None) -> dict[tuple[str, str, int], ExperimentResult]:
    """Train each (model, architecture, labels) combination over all seeds.

    Each seed's dataset, split and 2-label filter are built once, for every
    seed before the first trains, and shared by every combination the seed
    trains, so a run with an empty set is refused before any training.  A
    run whose first-layer encoding would exceed `MAX_ENCODED_BYTES` is
    refused before any data is built.  Seeds train in forked processes, at
    most one per CPU, seed and encoding that `MAX_ENCODED_BYTES` holds, or
    in this one; no number depends on the count.  Of several failing seeds
    the first raises.  ``on_seed(index, seed)``, if given, is called in seed
    order just before each seed trains.
    """
    combinations = tuple(dict.fromkeys(combinations))
    for _, _, labels in combinations:
        if labels not in LABEL_CHOICES:
            raise ValueError(f"labels must be one of {LABEL_CHOICES}, got {labels}")
    encoded = n_images * max(build_network(*c, 0).encode(np.zeros((1,) + INPUT_SHAPE)).phi.nbytes
                             for c in combinations)
    if encoded > MAX_ENCODED_BYTES:
        raise ValueError(f"{n_images} images: the first layer's encoded training and test sets "
                         f"would take {encoded / 2**30:.2f} GiB, over the "
                         f"{MAX_ENCODED_BYTES / 2**30:g} GiB limit")

    def seed_sets(seed: int) -> dict[int, tuple[Dataset, Dataset]]:
        ds_seed, split_seed, _ = seed_children(seed)
        train_set, test_set = split(generate_dataset(n_images, ds_seed), 0.8, split_seed)
        sets = {5: (train_set, test_set)}
        if any(labels == 2 for _, _, labels in combinations):
            sets[2] = (filter_labels(train_set, TWO_LABEL_CLASSES),
                       filter_labels(test_set, TWO_LABEL_CLASSES))
        for combination in combinations:
            try:
                _check_not_empty(*sets[combination[2]])
            except ValueError as exc:  # e.g. a 2-label filter of a few images
                raise _named(exc, seed, *combination) from exc
        return sets

    # about 72 KB per 1,000 images and seed, so every seed's sets are kept from the start
    all_sets = [seed_sets(seed) for seed in config.seeds]
    workers = min(_cpu_count(), len(config.seeds), max(1, MAX_ENCODED_BYTES // max(encoded, 1)))
    per_seed = _train_seeds(combinations, all_sets, config, workers, on_seed)
    return {combination: ExperimentResult(tuple(config.seeds), list(runs))
            for combination, runs in zip(combinations, zip(*per_seed))}
