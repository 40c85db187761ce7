"""ADAM optimisation, the training loop, and multi-seed experiments.

An experiment seed drives dataset generation, the 80/20 split, and
parameter initialisation through three child seeds derived with
numpy's SeedSequence, so repeating a seed list reproduces every number
exactly.  Seeds run one after another, in the order given; every
combination trained on a seed shares that seed's data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import ClassicalConv, Dense, MaxPool, Network, QuantumConv, WindowSpec
from .tetris import Dataset, filter_labels, generate_dataset, split

INPUT_SHAPE = (3, 3, 1)
QUANTUM_DEPTH = 4
CONV_WINDOW = WindowSpec(2, 2, stride=1, padding=0)

MODELS = ("qccnn", "cnn")
ARCHITECTURES = ("one-layer", "two-layer")
LABEL_CHOICES = (2, 5)
TWO_LABEL_CLASSES = ("S", "T")
DEFAULT_SEEDS = tuple(range(10))


class TrainingDivergedError(RuntimeError):
    """Raised when the loss stops being finite."""


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float
    beta2: float
    eps: float


def init_adam(n_params: int, lr: float = 0.01, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0, lr, beta1, beta2, eps)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One bias-corrected ADAM update; returns (new params, new state)."""
    p = np.asarray(params, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    if p.shape != g.shape or p.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {p.shape}, grads {g.shape}, state {state.m.shape}"
        )
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_params = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, AdamState(m, v, t, state.lr, state.beta1, state.beta2, state.eps)


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
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 0:
            raise ValueError(f"batch_size must be >= 0 (0 = full batch), got {self.batch_size}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if not self.seeds:
            raise ValueError("need at least one seed")


@dataclass(frozen=True)
class MetricsRecord:
    iteration: int
    train_loss: float
    test_loss: float
    test_accuracy: float


@dataclass
class ExperimentResult:
    model: str
    architecture: str
    labels: int
    seeds: tuple[int, ...]
    per_seed: list[list[MetricsRecord]]
    mean: list[MetricsRecord]


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
    return correct / labels.size, float(np.mean((pred - onehot) ** 2))


def train(net: Network, train_set: Dataset, test_set: Dataset,
          config: TrainConfig) -> list[MetricsRecord]:
    """Run the iteration loop; metrics are recorded after the update at every
    multiple of ``eval_every`` and at the final iteration.  Both sets are
    encoded through the first layer once; mini-batches index the encoded
    training set.  Overflow inside a diverging run is not warned about:
    the non-finite loss it leads to raises `TrainingDivergedError`."""
    if not len(train_set):
        raise ValueError("cannot train on an empty training set")
    if not len(test_set):
        raise ValueError("cannot evaluate on an empty test set")
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
    All strides are 1; quantum circuits use 4 qubits at depth 4.
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
        layers = [conv(5), MaxPool(WindowSpec(2, 2, stride=1, padding=0))]
    else:
        layers = [conv(2), conv(3), MaxPool(WindowSpec(2, 2, stride=1, padding=1))]
    shape = INPUT_SHAPE
    for layer in layers:
        shape = layer.out_shape(shape)
    layers.append(Dense(int(np.prod(shape)), n_classes, rng))
    return Network(layers, n_classes)


def seed_children(seed: int) -> tuple[int, int, int]:
    """Child seeds for (dataset, split, initialisation) from one experiment seed."""
    a, b, c = np.random.SeedSequence(seed).generate_state(3)
    return int(a), int(b), int(c)


def _mean_records(per_seed: list[list[MetricsRecord]]) -> list[MetricsRecord]:
    out = []
    for i in range(len(per_seed[0])):
        out.append(
            MetricsRecord(
                per_seed[0][i].iteration,
                float(np.mean([run[i].train_loss for run in per_seed])),
                float(np.mean([run[i].test_loss for run in per_seed])),
                float(np.mean([run[i].test_accuracy for run in per_seed])),
            )
        )
    return out


def run_experiments(combinations, config: TrainConfig, n_images: int = 1000,
                    on_seed=None) -> dict[tuple[str, str, int], ExperimentResult]:
    """Train each (model, architecture, labels) combination over all seeds.

    Seeds run one after another.  Each seed's dataset, split and 2-label
    filter are built once and shared by every combination it trains, and
    are released before the next seed's are built.  ``on_seed(index,
    seed)``, if given, is called before each seed trains.
    """
    combinations = tuple(dict.fromkeys(combinations))
    for model, architecture, labels in combinations:
        if model not in MODELS or architecture not in ARCHITECTURES:
            raise ValueError(
                f"invalid combination: model {model!r}, architecture {architecture!r}"
            )
        if labels not in LABEL_CHOICES:
            raise ValueError(f"labels must be one of {LABEL_CHOICES}, got {labels}")

    def run_seed(seed: int) -> list[list[MetricsRecord]]:
        ds_seed, split_seed, init_seed = seed_children(seed)
        train_set, test_set = split(generate_dataset(n_images, ds_seed), 0.8, split_seed)
        sets = {5: (train_set, test_set)}
        if any(labels == 2 for _, _, labels in combinations):
            sets[2] = (filter_labels(train_set, TWO_LABEL_CLASSES),
                       filter_labels(test_set, TWO_LABEL_CLASSES))
        runs = []
        for model, architecture, labels in combinations:
            net = build_network(model, architecture, labels, init_seed)
            try:
                runs.append(train(net, *sets[labels], config))
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(
                    f"{model} {architecture} {labels}-label, seed {seed}: {exc}"
                ) from exc
        return runs

    per_seed: dict[tuple[str, str, int], list] = {c: [] for c in combinations}
    for index, seed in enumerate(config.seeds):
        if on_seed is not None:
            on_seed(index, seed)
        for combination, records in zip(combinations, run_seed(seed)):
            per_seed[combination].append(records)
    return {
        combination: ExperimentResult(*combination, tuple(config.seeds), runs, _mean_records(runs))
        for combination, runs in per_seed.items()
    }
