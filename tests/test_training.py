"""Optimizer, evaluation, training loop, and experiment plumbing."""

import numpy as np
import pytest

from qconv.layers import ClassicalConv, Dense, Network, QuantumConv
from qconv.tetris import Dataset, filter_labels, generate_dataset, split
from qconv.training import (
    ARCHITECTURES,
    DEFAULT_SEEDS,
    LABEL_CHOICES,
    MODELS,
    TWO_LABEL_CLASSES,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    build_network,
    evaluate,
    init_adam,
    run_experiments,
    seed_children,
    train,
)


def toy_dataset(labels, n_classes=None, seed=0):
    images = 0.1 * np.random.default_rng(seed).random((len(labels), 3, 3, 1))
    names = ("S", "L", "O", "T", "I")[: (n_classes or max(labels) + 1)]
    return Dataset(images, np.array(labels, dtype=np.int64), names)


def empty_dataset():
    return Dataset(np.empty((0, 3, 3, 1)), np.empty(0, dtype=np.int64), ("S", "T"))


def evaluate_on(net, dataset):
    return evaluate(net, dataset.images, dataset.labels, np.eye(net.n_classes)[dataset.labels])


def constant_net(outputs):
    """3x3x1 -> fixed prediction, via a zero-weight dense layer with bias."""
    layer = Dense(9, len(outputs), np.random.default_rng(0))
    layer.weights[...] = 0.0
    layer.bias[...] = outputs
    return Network([layer], n_classes=len(outputs))


# ---------------------------------------------------------------------------
# adam

def test_adam_zero_gradient_leaves_params():
    params = np.array([1.0, -2.0, 3.0])
    state = init_adam(3, lr=0.01)
    new_params, new_state = adam_step(params, np.zeros(3), state)
    np.testing.assert_array_equal(new_params, params)
    assert new_state.t == 1


def test_adam_matches_textbook_iteration_and_saturates():
    # independent reimplementation of the published update rule
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    grad = np.array([0.3, -4.0])
    params = np.array([0.0, 0.0])
    state = init_adam(2, lr=lr)
    m = np.zeros(2)
    v = np.zeros(2)
    want = params.copy()
    for t in range(1, 201):
        params, state = adam_step(params, grad, state)
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        want = want - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(params, want, atol=1e-14)
    # with a constant gradient the step approaches lr * sign(grad)
    before = params.copy()
    params, state = adam_step(params, grad, state)
    np.testing.assert_allclose(before - params, lr * np.sign(grad), atol=1e-4)


def test_adam_deterministic():
    grads = np.random.default_rng(0).standard_normal((20, 4))
    trajectories = []
    for _ in range(2):
        params = np.ones(4)
        state = init_adam(4, lr=0.05)
        for g in grads:
            params, state = adam_step(params, g, state)
        trajectories.append(params.copy())
    np.testing.assert_array_equal(trajectories[0], trajectories[1])


def test_adam_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(2), init_adam(3))


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_perfect_predictor():
    dataset = toy_dataset([0], n_classes=2)
    net = constant_net([1.0, 0.0])
    accuracy, loss = evaluate_on(net, dataset)
    assert accuracy == 1.0
    assert loss == 0.0


def test_evaluate_constant_net_on_balanced_labels():
    dataset = toy_dataset([0, 1, 2, 3, 4] * 20, n_classes=5)
    net = constant_net([0.0, 0.0, 0.0, 0.0, 0.0])
    accuracy, loss = evaluate_on(net, dataset)
    assert accuracy == pytest.approx(0.2)  # argmax ties resolve to class 0
    assert loss == pytest.approx(0.2, abs=1e-12)


def test_evaluate_single_sample_accuracy_is_binary():
    net = constant_net([0.0, 1.0])
    assert evaluate_on(net, toy_dataset([1], n_classes=2))[0] == 1.0
    assert evaluate_on(net, toy_dataset([0], n_classes=2))[0] == 0.0


def test_evaluate_rejects_empty_dataset():
    with pytest.raises(ValueError):
        evaluate_on(constant_net([0.0, 1.0]), empty_dataset())


# ---------------------------------------------------------------------------
# train

def test_train_rejects_zero_iterations():
    net = build_network("cnn", "one-layer", 2, seed=0)
    data = toy_dataset([0, 1, 0, 1], n_classes=2)
    with pytest.raises(ValueError):
        train(net, data, data, TrainConfig(iterations=0, seeds=(0,)))


def test_train_rejects_empty_training_set():
    net = build_network("cnn", "one-layer", 2, seed=0)
    data = toy_dataset([0, 1], n_classes=2)
    empty = empty_dataset()
    with pytest.raises(ValueError, match="empty training set"):
        train(net, empty, data, TrainConfig(iterations=1, seeds=(0,)))


def test_train_rejects_empty_test_set_before_training():
    net = build_network("cnn", "one-layer", 2, seed=0)
    data = toy_dataset([0, 1], n_classes=2)
    before = net.get_flat_params()
    empty = empty_dataset()
    with pytest.raises(ValueError, match="empty test set"):
        train(net, data, empty, TrainConfig(iterations=10, eval_every=10, seeds=(0,)))
    np.testing.assert_array_equal(net.get_flat_params(), before)


def test_train_rejects_labels_outside_the_network():
    net = build_network("cnn", "one-layer", 2, seed=0)
    data = toy_dataset([0, 1], n_classes=2)
    for labels in ([0, 4], [-1, 1]):
        wide = Dataset(data.images, np.array(labels), ("S", "L", "O", "T", "I"))
        with pytest.raises(ValueError, match="out of range for 2 classes"):
            train(net, wide, data, TrainConfig(iterations=1, seeds=(0,)))


def test_train_smoke_loss_decreases():
    labels = np.array([0, 1] * 5)
    base = np.where(labels == 0, 0.05, 0.9)[:, None, None, None]
    images = np.clip(base + 0.02 * np.random.default_rng(1).random((10, 3, 3, 1)), 0, 1)
    data = Dataset(images, labels, ("S", "T"))
    net = build_network("qccnn", "one-layer", 2, seed=2)
    records = train(net, data, data, TrainConfig(iterations=30, eval_every=5, seeds=(0,)))
    assert records[-1].train_loss < records[0].train_loss


def test_train_records_schedule_and_final_iteration():
    net = build_network("cnn", "one-layer", 2, seed=3)
    data = toy_dataset([0, 1, 0, 1], n_classes=2)
    records = train(net, data, data, TrainConfig(iterations=25, eval_every=10, seeds=(0,)))
    assert [r.iteration for r in records] == [10, 20, 25]
    for r in records:
        assert np.isfinite(r.train_loss) and np.isfinite(r.test_loss)
        assert 0.0 <= r.test_accuracy <= 1.0


def test_train_divergence_guard_aborts():
    net = build_network("cnn", "one-layer", 2, seed=4)
    data = toy_dataset([0, 1, 0, 1], n_classes=2)
    with pytest.raises(TrainingDivergedError):
        train(net, data, data, TrainConfig(iterations=50, learning_rate=1e150, seeds=(0,)))


def test_train_minibatch_mode_runs_deterministically():
    data = toy_dataset([0, 1, 0, 1, 1, 0], n_classes=2, seed=5)
    outs = []
    for _ in range(2):
        net = build_network("cnn", "one-layer", 2, seed=5)
        records = train(net, data, data,
                        TrainConfig(iterations=12, eval_every=6, batch_size=2, seeds=(0,)))
        outs.append(records)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# experiments

def test_run_experiment_output_shape_and_headers():
    config = TrainConfig(iterations=6, eval_every=2, seeds=(0, 1))
    combination = ("qccnn", "one-layer", 2)
    result = run_experiments([combination], config, n_images=40)[combination]
    assert [r.iteration for r in result.mean] == [2, 4, 6]
    assert len(result.per_seed) == 2
    for i, mean in enumerate(result.mean):
        want = np.mean([run[i].test_accuracy for run in result.per_seed])
        assert mean.test_accuracy == pytest.approx(want, abs=1e-15)


def test_build_network_two_layer_uses_four_qubits_depth_four():
    net = build_network("qccnn", "two-layer", 5, seed=0)
    quantum = [layer for layer in net.layers if isinstance(layer, QuantumConv)]
    assert len(quantum) == 2
    for layer in quantum:
        assert layer.window.area == 4
        assert layer.depth == 4
        assert layer.angles.shape[1] == 16


def test_build_network_classical_baseline_matches_shapes():
    qccnn = build_network("qccnn", "one-layer", 5, seed=0)
    cnn = build_network("cnn", "one-layer", 5, seed=0)
    x = np.random.default_rng(1).random((3, 3, 3, 1))
    a, _ = qccnn.forward_batch(x)
    b, _ = cnn.forward_batch(x)
    assert a.shape == b.shape == (3, 5)
    conv = cnn.layers[0]
    assert isinstance(conv, ClassicalConv)
    out, _ = conv.forward(x - 0.5)
    assert np.all(out >= 0.0) and np.any(out == 0.0)  # the classical filters end in ReLU


def test_run_experiment_rejects_bad_combinations():
    config = TrainConfig(iterations=1, seeds=(0,))
    bad = (("qccnn", "three-layer", 2), ("qnn", "one-layer", 2), ("qccnn", "one-layer", 3))
    for combination in bad:
        with pytest.raises(ValueError):
            run_experiments([combination], config)


def test_run_experiment_deterministic():
    config = TrainConfig(iterations=4, eval_every=2, seeds=(0, 1, 2))
    first, second = (run_experiments([("cnn", "one-layer", 2)], config, n_images=30)
                     for _ in range(2))
    assert first == second


def test_seed_outer_experiments_equal_each_combination_alone():
    # each combination trained by hand on data built for it alone: a
    # combination that disturbed a seed's shared sets would change the
    # records of the combinations trained after it
    config = TrainConfig(iterations=4, eval_every=2, seeds=(0, 1))
    combinations = [(m, a, l) for l in LABEL_CHOICES for m in MODELS for a in ARCHITECTURES]
    results = run_experiments(combinations, config, n_images=30)
    assert list(results) == combinations
    for model, architecture, labels in combinations:
        want = []
        for seed in config.seeds:
            ds_seed, split_seed, init_seed = seed_children(seed)
            train_set, test_set = split(generate_dataset(30, ds_seed), 0.8, split_seed)
            if labels == 2:
                train_set = filter_labels(train_set, TWO_LABEL_CLASSES)
                test_set = filter_labels(test_set, TWO_LABEL_CLASSES)
            net = build_network(model, architecture, labels, init_seed)
            want.append(train(net, train_set, test_set, config))
        result = results[(model, architecture, labels)]
        assert result.seeds == config.seeds
        assert result.per_seed == want


def test_run_experiments_checks_every_combination_before_training(monkeypatch):
    monkeypatch.setattr("qconv.training.train", lambda *args: pytest.fail("trained"))
    monkeypatch.setattr("qconv.training.generate_dataset", lambda *args: pytest.fail("built data"))
    config = TrainConfig(iterations=1, seeds=(0,))
    with pytest.raises(ValueError, match="labels must be one of"):
        run_experiments([("cnn", "one-layer", 2), ("cnn", "one-layer", 3)], config)
    with pytest.raises(ValueError) as bad_model:
        run_experiments([("cnn", "one-layer", 2), ("qnn", "one-layer", 2)], config)
    assert str(bad_model.value) == "model must be one of ('qccnn', 'cnn'), got 'qnn'"
    with pytest.raises(ValueError) as bad_architecture:
        run_experiments([("cnn", "one-layer", 2), ("cnn", "three-layer", 5)], config)
    assert str(bad_architecture.value) == (
        "architecture must be one of ('one-layer', 'two-layer'), got 'three-layer'")


def test_seed_children_are_stable():
    assert seed_children(0) == seed_children(0)
    assert seed_children(0) != seed_children(1)
    assert len(set(seed_children(5))) == 3


def test_default_seed_list():
    assert DEFAULT_SEEDS == tuple(range(10))
    assert TrainConfig().seeds == DEFAULT_SEEDS


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(eval_every=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=-1)
    with pytest.raises(ValueError):
        TrainConfig(seeds=())


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite_learning_rate(rate):
    # nan <= 0 is False, so a plain sign check let nan through to a non-finite loss
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        TrainConfig(learning_rate=rate)


@pytest.mark.parametrize("seeds", [(0, -1), (3, 3)], ids=["negative", "duplicate"])
def test_train_config_rejects_bad_seeds(seeds):
    # a negative seed would fail in SeedSequence after the seeds before it had
    # trained; a repeated one would train twice and count twice in the mean
    with pytest.raises(ValueError, match="seeds"):
        TrainConfig(seeds=seeds)
