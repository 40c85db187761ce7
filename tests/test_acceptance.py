"""Acceptance criteria, one test per criterion, printed as PASS/FAIL lines.

Criteria 5-7 train every benchmark combination at the published
settings (10 seeds x 1000 full-batch iterations, ADAM at 0.01), so this
module needs several minutes of wall time; everything else is fast.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every test here is marked ``slow``, so ``pytest -m "not slow"`` runs
the rest of the suite alone.
"""

import time

import numpy as np
import pytest

from qconv.cli import main
from qconv.layers import Dense, MaxPool, Network, QuantumConv, WindowSpec, _block_gates
from qconv.tetris import enumerate_configurations, generate_dataset
from qconv.training import TrainConfig, build_network, run_experiments

import oracles

pytestmark = pytest.mark.slow

FULL_SETTINGS = TrainConfig()  # 1000 iterations, lr 0.01, full batch, seeds 0..9

_RUNS: dict = {}


def full_run(model: str, architecture: str, labels: int):
    key = (model, architecture, labels)
    if key not in _RUNS:
        _RUNS[key] = run_experiments([key], FULL_SETTINGS)[key]
    return _RUNS[key]


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_gradient_exactness():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice([2, 4]))
        depth = int(rng.integers(1, 5))
        layer = QuantumConv(WindowSpec(n // 2, 2), 1, depth, np.random.default_rng(0))
        params = rng.uniform(0.0, 2.0 * np.pi, layer.angles.size)
        x = rng.uniform(0.0, 2.0 * np.pi, n).reshape(1, n // 2, 2, 1)

        def forward(p):
            layer.angles = p.reshape(1, -1)
            return layer.forward(x)

        out, cache = forward(params)
        (got,), _ = layer.backward(np.ones_like(out), cache)
        want = oracles.central_difference(lambda p: forward(p)[0].item(), params)
        worst = max(worst, float(np.max(np.abs(got[0] - want))))
    elapsed = time.perf_counter() - started
    report(
        1,
        worst <= 1e-6 and elapsed < 10.0,
        f"200 circuits, max |QuantumConv.backward - fd| = {worst:.3e} (tol 1e-6), "
        f"{elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_circuit_oracle_equivalence():
    rng = np.random.default_rng(4040)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        params = rng.uniform(0.0, 2.0 * np.pi, n * int(rng.integers(0, 5)))
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        got = amps
        for gate in _block_gates(params[None], n):
            got = gate[0] @ got
        want = oracles.circuit_unitary(n, params) @ amps
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - started
    report(
        2,
        worst <= 1e-12 and elapsed < 5.0,
        f"100 circuits, layer block gates vs dense unitary product, "
        f"max amplitude error = {worst:.2e} (tol 1e-12), {elapsed:.1f}s (< 5s)",
    )


def test_criterion_3_dataset_fidelity():
    counts = tuple(len(enumerate_configurations(name)) for name in ("S", "L", "O", "T", "I"))
    dataset = generate_dataset(1000, seed=0)
    pixels = dataset.images.ravel()
    in_range = np.all(((0.0 <= pixels) & (pixels <= 0.1)) | ((0.7 <= pixels) & (pixels <= 1.0)))
    report(
        3,
        counts == (8, 16, 4, 8, 6) and bool(in_range) and len(dataset) == 1000,
        f"configuration counts {counts}, all {pixels.size} pixels in [0,0.1] u [0.7,1]",
    )


def test_criterion_4_shape_reproduction():
    chains = {}
    for architecture, want in (
        ("one-layer", [(3, 3, 1), (2, 2, 5), (1, 1, 5)]),
        ("two-layer", [(3, 3, 1), (2, 2, 2), (1, 1, 6), (2, 2, 6)]),
    ):
        net = build_network("qccnn", architecture, 5, seed=0)
        shapes = [(3, 3, 1)]
        x = np.zeros((1, 3, 3, 1))
        for layer in net.layers[:-1]:
            shapes.append(layer.out_shape(shapes[-1]))
            x = layer.forward(x)[0]
            assert x.shape[1:] == shapes[-1]
        pred = net.layers[-1].forward(x)[0]
        chains[architecture] = shapes
        assert shapes == want and pred.shape == (1, 5)
    report(4, True, f"one-layer {chains['one-layer']} -> classes; "
                    f"two-layer {chains['two-layer']} -> classes")


def test_criterion_5_two_label_convergence():
    result = full_run("qccnn", "one-layer", 2)
    curve = [rec.test_accuracy for rec in result.mean]
    best, final = max(curve), curve[-1]
    report(
        5,
        best >= 0.95,
        f"qccnn one-layer 2-label, 10 seeds x 1000 iterations: mean test accuracy "
        f"reaches {best:.4f} (>= 0.95), final {final:.4f}",
    )


def test_criterion_6_five_label_convergence():
    result = full_run("qccnn", "two-layer", 5)
    curve = [rec.test_accuracy for rec in result.mean]
    best, final = max(curve), curve[-1]
    report(
        6,
        best >= 0.90,
        f"qccnn two-layer 5-label, 10 seeds x 1000 iterations: mean test accuracy "
        f"reaches {best:.4f} (>= 0.90), final {final:.4f}",
    )


def test_criterion_7_comparative_loss():
    pairs = []
    ok = True
    for labels in (2, 5):
        for architecture in ("one-layer", "two-layer"):
            q = full_run("qccnn", architecture, labels).mean[-1].train_loss
            c = full_run("cnn", architecture, labels).mean[-1].train_loss
            ok = ok and q < c
            pairs.append(f"{architecture}/{labels}-label qccnn {q:.4f} vs cnn {c:.4f}")
    report(7, ok, "final mean MSE, QCCNN strictly below CNN on every matched pair: "
                  + "; ".join(pairs))


def test_criterion_8_end_to_end_backprop():
    rng = np.random.default_rng(88)
    net = Network(
        [
            QuantumConv(WindowSpec(2, 2), filters=1, depth=1, rng=rng),
            MaxPool(WindowSpec(2, 2)),
            Dense(1, 2, rng),
        ],
        n_classes=2,
    )
    data = generate_dataset(8, seed=88)
    x = data.images
    targets = np.zeros((8, 2))
    targets[np.arange(8), data.labels % 2] = 1.0
    _, grads, _ = net.loss_and_gradients(x, targets)
    flat = net.get_flat_params()

    def total_loss(p):
        net.set_flat_params(p)
        return net.loss_and_gradients(x, targets)[0]

    fd = oracles.central_difference(total_loss, flat)
    net.set_flat_params(flat)
    worst = float(np.max(np.abs(grads - fd)))
    report(8, worst <= 1e-5,
           f"minimal qccnn (1 filter, depth 1), {flat.size} parameters, "
           f"max |backprop - fd| = {worst:.2e} (tol 1e-5)")


def test_criterion_9_repro_determinism(tmp_path):
    flags = ["--images", "60", "--iterations", "30", "--eval-every", "10", "--seeds", "2"]
    dirs = (tmp_path / "first", tmp_path / "second")
    for out in dirs:
        assert main(["repro", "--out-dir", str(out), *flags]) == 0
    names = sorted(p.name for p in dirs[0].iterdir() if p.suffix == ".csv")
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes() for name in names
    )
    report(9, identical and len(names) == 4,
           f"two repro executions with identical config: {len(names)} CSVs byte-identical")
