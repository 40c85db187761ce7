"""Optimizer, evaluation, training loop, and experiment plumbing."""

import numpy as np
import pytest

from qconv.layers import Dense, Network
from qconv.tetris import Dataset, Sample
from qconv.training import (
    DEFAULT_SEEDS,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    build_network,
    evaluate,
    init_adam,
    run_experiment,
    seed_children,
    train,
)


def toy_dataset(labels, n_classes=None, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for label in labels:
        pixels = 0.1 * rng.random(9)
        samples.append(Sample(pixels.reshape(3, 3, 1), int(label)))
    names = ("S", "L", "O", "T", "I")[: (n_classes or max(labels) + 1)]
    return Dataset(samples, names, "full", seed)


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
    accuracy, loss = evaluate(net, dataset)
    assert accuracy == 1.0
    assert loss == 0.0


def test_evaluate_constant_net_on_balanced_labels():
    dataset = toy_dataset([0, 1, 2, 3, 4] * 20, n_classes=5)
    net = constant_net([0.0, 0.0, 0.0, 0.0, 0.0])
    accuracy, loss = evaluate(net, dataset)
    assert accuracy == pytest.approx(0.2)  # argmax ties resolve to class 0
    assert loss == pytest.approx(0.2, abs=1e-12)


def test_evaluate_single_sample_accuracy_is_binary():
    net = constant_net([0.0, 1.0])
    assert evaluate(net, toy_dataset([1], n_classes=2))[0] == 1.0
    assert evaluate(net, toy_dataset([0], n_classes=2))[0] == 0.0


def test_evaluate_rejects_empty_dataset():
    with pytest.raises(ValueError):
        evaluate(constant_net([0.0, 1.0]), Dataset([], ("S", "T"), "full", 0))


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
    empty = Dataset([], ("S", "T"), "train", 0)
    with pytest.raises(ValueError, match="empty training set"):
        train(net, empty, data, TrainConfig(iterations=1, seeds=(0,)))


def test_train_rejects_empty_test_set_before_training():
    net = build_network("cnn", "one-layer", 2, seed=0)
    data = toy_dataset([0, 1], n_classes=2)
    before = net.get_flat_params()
    empty = Dataset([], ("S", "T"), "test", 0)
    with pytest.raises(ValueError, match="empty test set"):
        train(net, data, empty, TrainConfig(iterations=10, eval_every=10, seeds=(0,)))
    np.testing.assert_array_equal(net.get_flat_params(), before)


def test_train_smoke_loss_decreases():
    rng = np.random.default_rng(1)
    samples = []
    for label in [0, 1] * 5:
        base = np.full(9, 0.05) if label == 0 else np.full(9, 0.9)
        pixels = np.clip(base + 0.02 * rng.random(9), 0, 1)
        samples.append(Sample(pixels.reshape(3, 3, 1), label))
    data = Dataset(samples, ("S", "T"), "full", 1)
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
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
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
    result = run_experiment("one-layer", "qccnn", 2, config, n_images=40)
    assert [r.iteration for r in result.mean] == [2, 4, 6]
    assert len(result.per_seed) == 2
    for i, mean in enumerate(result.mean):
        want = np.mean([run[i].test_accuracy for run in result.per_seed])
        assert mean.test_accuracy == pytest.approx(want, abs=1e-15)


def test_run_experiment_two_layer_uses_four_qubits_depth_four():
    net = build_network("qccnn", "two-layer", 5, seed=0)
    quantum = [layer for layer in net.layers if hasattr(layer, "circuit")]
    assert len(quantum) == 2
    for layer in quantum:
        assert layer.circuit.n_qubits == 4
        assert layer.circuit.depth == 4
        assert layer.angles.shape[1] == 16


def test_run_experiment_classical_baseline_matches_shapes():
    qccnn = build_network("qccnn", "one-layer", 5, seed=0)
    cnn = build_network("cnn", "one-layer", 5, seed=0)
    x = np.random.default_rng(1).random((3, 3, 3, 1))
    a, _ = qccnn.forward_batch(x)
    b, _ = cnn.forward_batch(x)
    assert a.shape == b.shape == (3, 5)
    assert any(layer.relu for layer in cnn.layers if hasattr(layer, "relu"))


def test_run_experiment_rejects_bad_combinations():
    config = TrainConfig(iterations=1, seeds=(0,))
    with pytest.raises(ValueError):
        run_experiment("three-layer", "qccnn", 2, config)
    with pytest.raises(ValueError):
        run_experiment("one-layer", "qnn", 2, config)
    with pytest.raises(ValueError):
        run_experiment("one-layer", "qccnn", 3, config)


def test_run_experiment_deterministic():
    config = TrainConfig(iterations=4, eval_every=2, seeds=(0, 1, 2))
    first = run_experiment("one-layer", "cnn", 2, config, n_images=30)
    second = run_experiment("one-layer", "cnn", 2, config, n_images=30)
    assert first.per_seed == second.per_seed
    assert first.mean == second.mean


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
