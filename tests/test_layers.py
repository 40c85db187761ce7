"""Layer forward/backward correctness against loop oracles and finite differences."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qconv.layers as layers_module
from qconv.layers import (
    MAX_WINDOW_QUBITS,
    ClassicalConv,
    Dense,
    MaxPool,
    Network,
    QuantumConv,
    WindowSpec,
    _bit_pairs,
    _generator_traces,
    _pauli_basis,
    _scatter_windows,
    _windows,
    mse_loss_batch,
    output_shape,
)
from qconv.tetris import generate_dataset, split
from qconv.training import TrainConfig, build_network, train

import oracles

WIN = WindowSpec(2, 2)


def oracle_filter(layer, params):
    """`oracles.feature` of one of the layer's filters as a function of the window,
    its dense unitary built once."""
    unitary = oracles.circuit_unitary(layer.window.area, params)
    return lambda values: oracles.parity_expectation(unitary @ oracles.encode_state(values))


def finite_difference_gradients(layer, x, upstream, h=1e-5):
    """Central differences of sum(upstream * layer.forward(x)[0]) with respect to
    each of `layer.params`, then x: what `layer.backward(upstream, cache)` returns."""
    def weighted_output(xb):
        return float((layer.forward(xb)[0] * upstream).sum())

    grads = []
    for p in layer.params:
        saved = p.copy()

        def with_param(flat):
            p[...] = flat.reshape(p.shape)
            return weighted_output(x)

        grads.append(oracles.central_difference(with_param, saved.ravel(), h).reshape(p.shape))
        p[...] = saved
    dx = oracles.central_difference(lambda flat: weighted_output(flat.reshape(x.shape)), x.ravel(), h)
    return grads, dx.reshape(x.shape)


# ---------------------------------------------------------------------------
# shape arithmetic

def test_one_layer_conv_shape():
    assert output_shape((3, 3, 1), WIN, filters=5) == (2, 2, 5)


def test_second_conv_shape_multiplies_channels():
    assert output_shape((2, 2, 2), WIN, filters=3) == (1, 1, 6)


def test_padded_pool_shape():
    assert output_shape((1, 1, 6), WindowSpec(2, 2, 1, padding=1)) == (2, 2, 6)


def test_non_tiling_stride_rejected():
    with pytest.raises(ValueError):
        output_shape((3, 3, 1), WindowSpec(2, 2, stride=2), filters=1)


def test_window_larger_than_input_rejected():
    with pytest.raises(ValueError):
        output_shape((2, 2, 1), WindowSpec(3, 3), filters=1)


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(0, 2)
    with pytest.raises(ValueError):
        WindowSpec(2, 2, stride=0)
    with pytest.raises(ValueError):
        WindowSpec(2, 2, padding=-1)


def test_conv_forwards_reject_bad_geometry():
    rng = np.random.default_rng(9)
    strided = WindowSpec(2, 2, stride=2)
    for layer in (QuantumConv(strided, filters=1, depth=1, rng=rng),
                  ClassicalConv(strided, filters=1, rng=rng)):
        with pytest.raises(ValueError, match="does not tile"):
            layer.forward(np.zeros((1, 3, 3, 1)))
    for layer in (QuantumConv(WIN, filters=1, depth=1, rng=rng),
                  ClassicalConv(WIN, filters=1, rng=rng)):
        with pytest.raises(ValueError, match="larger than padded input"):
            layer.forward(np.zeros((1, 1, 2, 1)))


def test_quantum_conv_rejects_window_past_qubit_limit():
    assert MAX_WINDOW_QUBITS == 6
    rng = np.random.default_rng(10)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"3x3 needs 9 qubits; MAX_WINDOW_QUBITS is 6"):
        QuantumConv(WindowSpec(3, 3), filters=1, depth=1, rng=rng)
    assert rng.bit_generator.state == before  # rejected before drawing any angle


# ---------------------------------------------------------------------------
# window extraction

def test_windows_traversal_order():
    image = np.arange(9, dtype=float).reshape(3, 3, 1)
    win = _windows(image[None], WIN)
    assert win.shape == (1, 2, 2, 1, 4)
    patches = oracles.windows(image, WIN)
    assert [(i, j) for i, j, _, _ in patches] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    np.testing.assert_array_equal(win.reshape(4, 4), [values for *_, values in patches])
    np.testing.assert_array_equal(win[0, 0, 0, 0], image[0:2, 0:2, 0].ravel())


def test_single_window_covers_input():
    image = np.arange(4, dtype=float).reshape(2, 2, 1)
    win = _windows(image[None], WIN)
    assert win.shape == (1, 1, 1, 1, 4)
    np.testing.assert_array_equal(win[0, 0, 0, 0], image[:, :, 0].ravel())


def test_padded_windows_each_hold_the_pixel_once():
    image = np.array([[[5.0]]])
    win = _windows(image[None], WindowSpec(2, 2, 1, padding=1)).reshape(-1, 4)
    assert len(win) == 4
    for patch in win:
        assert patch.sum() == 5.0
        assert (patch != 0).sum() == 1


def test_windows_hold_one_channel_each():
    image = np.arange(8, dtype=float).reshape(2, 2, 2)
    win = _windows(image[None], WIN)
    assert [(c, i, j) for i, j, c, _ in oracles.windows(image, WIN)] == [(0, 0, 0), (1, 0, 0)]
    for c in range(2):
        np.testing.assert_array_equal(win[0, 0, 0, c], image[:, :, c].ravel())


# ---------------------------------------------------------------------------
# quantum convolution

def test_quantum_conv_paper_shapes():
    rng = np.random.default_rng(0)
    layer = QuantumConv(WIN, filters=5, depth=4, rng=rng)
    out, _ = layer.forward(np.zeros((3, 3, 3, 1)))
    assert out.shape == (3, 2, 2, 5)


def test_quantum_conv_zero_everything_gives_ones():
    rng = np.random.default_rng(1)
    layer = QuantumConv(WIN, filters=2, depth=4, rng=rng)
    layer.angles[...] = 0.0
    out, _ = layer.forward(np.zeros((2, 3, 3, 1)))
    np.testing.assert_allclose(out, 1.0, atol=1e-12)


def test_quantum_conv_cells_match_standalone_features():
    rng = np.random.default_rng(2)
    for window in (WIN, WindowSpec(2, 3)):
        layer = QuantumConv(window, filters=3, depth=2, rng=rng)
        x = rng.random((2, 3, window.width + 1, 2))
        out, _ = layer.forward(x)
        assert out.shape == (2, 2, 2, 6)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)
        for f in range(3):
            feature = oracle_filter(layer, layer.angles[f])
            for s in range(2):
                for i, j, c, values in oracles.windows(x[s], window):
                    assert out[s, i, j, c * 3 + f] == pytest.approx(feature(values), abs=1e-12)


def test_quantum_conv_backward_zero_upstream():
    rng = np.random.default_rng(3)
    layer = QuantumConv(WIN, filters=2, depth=3, rng=rng)
    out, cache = layer.forward(rng.random((1, 3, 3, 1)))
    (dangles,), dx = layer.backward(np.zeros_like(out), cache)
    assert np.all(dangles == 0.0)
    assert np.all(dx == 0.0)


def test_quantum_conv_single_window_matches_shift_rule():
    rng = np.random.default_rng(4)
    layer = QuantumConv(WIN, filters=1, depth=2, rng=rng)
    x = rng.random((1, 2, 2, 1))
    out, cache = layer.forward(x)
    upstream = np.full_like(out, 1.7)
    (dangles,), dx = layer.backward(upstream, cache)
    params, window = layer.angles[0], x[0, :, :, 0].ravel()
    np.testing.assert_allclose(
        dangles[0], 1.7 * oracles.shift_difference(
            lambda p: oracles.feature(p, window), params), atol=1e-12
    )
    np.testing.assert_allclose(
        dx[0, :, :, 0].ravel(), 1.7 * oracles.shift_difference(
            lambda w: oracles.feature(params, w), window), atol=1e-12
    )


def test_quantum_conv_backward_matches_per_window_accumulation():
    rng = np.random.default_rng(5)
    for window in (WIN, WindowSpec(2, 3)):
        m, n = window.height, window.width
        layer = QuantumConv(window, filters=2, depth=3, rng=rng)
        x = rng.random((2, 3, n + 1, 2))
        out, cache = layer.forward(x)
        upstream = rng.standard_normal(out.shape)
        (dangles,), dx = layer.backward(upstream, cache)
        cells = [(s, i, j, c, values) for s in range(2)
                 for i, j, c, values in oracles.windows(x[s], window)]
        want_angles = np.empty_like(dangles)
        want_dx = np.zeros_like(x)
        for f in range(2):

            def weighted_output(params):  # the shift rule is linear, so shift the window sum
                feature = oracle_filter(layer, params)
                return sum(upstream[s, i, j, c * 2 + f] * feature(values)
                           for s, i, j, c, values in cells)

            want_angles[f] = oracles.shift_difference(weighted_output, layer.angles[f])
            feature = oracle_filter(layer, layer.angles[f])
            for s, i, j, c, values in cells:
                grad = upstream[s, i, j, c * 2 + f] * oracles.shift_difference(feature, values)
                want_dx[s, i : i + m, j : j + n, c] += grad.reshape(m, n)
        np.testing.assert_allclose(dangles, want_angles, atol=1e-12)
        np.testing.assert_allclose(dx, want_dx, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (1, 4)]),
    depth=st.integers(0, 4),
    filters=st.integers(1, 3),
    samples=st.integers(1, 2),
    channels=st.integers(1, 2),
    extra=st.integers(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_quantum_conv_matches_dense_oracle(shape, depth, filters, samples, channels, extra, seed):
    rng = np.random.default_rng(seed)
    m, n = shape
    window = WindowSpec(m, n)
    layer = QuantumConv(window, filters=filters, depth=depth, rng=rng)
    x = rng.uniform(0.0, np.pi, (samples, m + extra, n + extra, channels))
    out, cache = layer.forward(x)
    upstream = rng.standard_normal(out.shape)
    (dangles,), dx = layer.backward(upstream, cache)
    assert dangles.shape == (filters, window.area * depth)
    want_angles = np.zeros_like(dangles)
    want_dx = np.zeros_like(x)
    for s in range(samples):
        for i, j, c, values in oracles.windows(x[s], window):
            for f in range(filters):
                cell = (s, i, j, c * filters + f)
                params = layer.angles[f]
                assert out[cell] == pytest.approx(oracles.feature(params, values), abs=1e-12)
                want_angles[f] += upstream[cell] * oracles.central_difference(
                    lambda p: oracles.feature(p, values), params)
                grad = upstream[cell] * oracles.central_difference(
                    lambda w: oracles.feature(params, w), values)
                want_dx[s, i : i + m, j : j + n, c] += grad.reshape(m, n)
    np.testing.assert_allclose(dangles, want_angles, atol=1e-6)
    np.testing.assert_allclose(dx, want_dx, atol=1e-6)


def test_quantum_conv_finite_difference_on_scalar_surrogate():
    rng = np.random.default_rng(6)
    layer = QuantumConv(WIN, filters=2, depth=2, rng=rng)
    x = rng.random((1, 3, 3, 1))
    upstream = rng.standard_normal((1, 2, 2, 2))
    out, cache = layer.forward(x)
    (dangles,), dx = layer.backward(upstream, cache)
    (fd_angles,), fd_x = finite_difference_gradients(layer, x, upstream)
    np.testing.assert_allclose(dangles, fd_angles, atol=1e-5)
    np.testing.assert_allclose(dx, fd_x, atol=1e-5)


def test_quantum_conv_gradient_scatter_conserves_window_sums():
    rng = np.random.default_rng(7)
    layer = QuantumConv(WIN, filters=2, depth=1, rng=rng)
    x = rng.random((1, 3, 3, 1))
    out, cache = layer.forward(x)
    upstream = rng.standard_normal(out.shape)
    _, dx = layer.backward(upstream, cache)
    total = 0.0
    for i, j, c, values in oracles.windows(x[0], WIN):
        for f in range(2):
            grad = oracles.shift_difference(
                lambda w: oracles.feature(layer.angles[f], w), values)
            total += (upstream[0, i, j, c * 2 + f] * grad).sum()
    assert dx.sum() == pytest.approx(total, abs=1e-10)


def count_trig_features(monkeypatch) -> list:
    """Route `_trig_features` through a counter; the list's length is the call count."""
    calls, original = [], layers_module._trig_features
    monkeypatch.setattr(layers_module, "_trig_features",
                        lambda t: calls.append(t.shape) or original(t))
    return calls


def test_pauli_basis_is_built_once_and_read_only():
    basis = _pauli_basis(2)
    assert _pauli_basis(2) is basis
    assert basis.shape == (9, 16)
    with pytest.raises(ValueError):
        basis[0, 0] = 2.0


@pytest.mark.parametrize("n_qubits", [1, 2, 4])
def test_generator_traces_match_dense_traces(n_qubits):
    rng = np.random.default_rng(n_qubits)
    dim = 2**n_qubits
    z, m = (a + np.swapaxes(a, 1, 2) for a in rng.standard_normal((2, 3, dim, dim)))
    generator = np.array([[0.0, -1.0], [1.0, 0.0]])  # Ry(pi/2): (a0, a1) -> (-a1, a0)
    want = [[np.trace(z[f] @ oracles.embed_single(generator, q, n_qubits) @ m[f]).real
             for q in range(n_qubits)] for f in range(3)]
    np.testing.assert_allclose(_generator_traces(z, m, n_qubits), want, rtol=1e-12, atol=1e-12)
    assert _bit_pairs(n_qubits) is _bit_pairs(n_qubits)
    with pytest.raises(ValueError):
        _bit_pairs(n_qubits)[0, 0, 0] = 1


def test_quantum_conv_forward_of_encoded_mini_batch_matches_raw_forward():
    layer = QuantumConv(WIN, filters=3, depth=2, rng=np.random.default_rng(30))
    x = np.random.default_rng(31).random((6, 3, 3, 2))
    enc = layer.encode(x)
    assert enc.phi.shape == (81, 6, 2 * 2 * 2) and enc.in_shape == x.shape
    for idx in (np.arange(6), np.array([4, 5, 0, 1]), np.array([2])):
        got, cache = layer.forward_encoded(enc[idx])
        want, want_cache = layer.forward(x[idx])
        assert got.tobytes() == want.tobytes()
        assert cache["in_shape"] == want_cache["in_shape"] == x[idx].shape
        upstream = np.random.default_rng(32).standard_normal(got.shape)
        (dangles,), dx = layer.backward(upstream, cache)
        (want_dangles,), want_dx = layer.backward(upstream, want_cache)
        assert dangles.tobytes() == want_dangles.tobytes() and dx.tobytes() == want_dx.tobytes()


def test_encoded_is_frozen_and_read_only():
    layer = QuantumConv(WIN, filters=2, depth=1, rng=np.random.default_rng(33))
    enc = layer.encode(np.random.default_rng(34).random((3, 3, 3, 1)))
    for phi in (enc.phi, enc[np.array([0, 2])].phi, enc[1:].phi):
        assert not phi.flags.writeable
        with pytest.raises(ValueError):
            phi[0, 0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        enc.phi = np.zeros(enc.phi.shape)


def test_quantum_conv_keeps_no_state_between_calls():
    net = build_network("qccnn", "two-layer", 5, seed=35)
    x = np.random.default_rng(36).random((3, 3, 3, 1))
    net.forward_batch(x)
    net.forward_batch(net.encode(x))
    for layer in net.layers[:2]:
        assert set(vars(layer)) == {"window", "filters", "depth", "angles"}


def assert_phi_built_once_per_set(monkeypatch, batch_size: int):
    """A 20-iteration one-layer run on 80 training images builds phi once per set."""
    calls = count_trig_features(monkeypatch)
    train_set, test_set = split(generate_dataset(100, seed=36), 0.8, seed=37)
    assert len(train_set) == 80
    net = build_network("qccnn", "one-layer", 5, seed=38)
    config = TrainConfig(iterations=20, batch_size=batch_size, eval_every=10, seeds=(0,))
    records = train(net, train_set, test_set, config)
    assert [r.iteration for r in records] == [10, 20]
    assert calls == [(4 * len(train_set), 4), (4 * len(test_set), 4)]


def test_one_layer_training_builds_phi_once_per_fixed_set(monkeypatch):
    assert_phi_built_once_per_set(monkeypatch, batch_size=0)


def test_one_layer_mini_batch_training_builds_phi_once_per_fixed_set(monkeypatch):
    assert_phi_built_once_per_set(monkeypatch, batch_size=40)


# ---------------------------------------------------------------------------
# classical convolution

def test_classical_conv_all_ones_filter_sums_window():
    rng = np.random.default_rng(8)
    layer = ClassicalConv(WIN, filters=1, rng=rng)
    layer.weights[...] = 1.0
    out, _ = layer.forward(np.ones((1, 3, 3, 1)))
    np.testing.assert_allclose(out, 4.0, atol=1e-15)


def test_classical_conv_one_hot_filter_picks_pixels():
    rng = np.random.default_rng(9)
    layer = ClassicalConv(WIN, filters=1, rng=rng)
    layer.weights[...] = 0.0
    layer.weights[0, 1, 1] = 1.0
    x = np.arange(9, dtype=float).reshape(1, 3, 3, 1)
    out, _ = layer.forward(x)
    # weight at window cell (1,1) reads pixel (i+1, j+1)
    np.testing.assert_array_equal(out[0, :, :, 0], x[0, 1:, 1:, 0])


def test_classical_conv_matches_loop_oracle():
    rng = np.random.default_rng(10)
    layer = ClassicalConv(WIN, filters=3, rng=rng)
    x = rng.standard_normal((2, 3, 3, 2))
    out, _ = layer.forward(x)
    for s in range(2):
        np.testing.assert_allclose(out[s], oracles.naive_conv(x[s], layer.weights), atol=1e-12)


def test_classical_conv_single_window_filter_grad_is_window():
    rng = np.random.default_rng(11)
    layer = ClassicalConv(WIN, filters=1, rng=rng)
    layer.weights[...] = np.abs(layer.weights)  # on a positive window ReLU passes everything
    x = rng.random((1, 2, 2, 1))
    out, cache = layer.forward(x)
    (dw,), _ = layer.backward(np.full_like(out, 2.0), cache)
    np.testing.assert_allclose(dw[0], 2.0 * x[0, :, :, 0], atol=1e-14)


def test_classical_conv_backward_matches_finite_differences():
    rng = np.random.default_rng(12)
    layer = ClassicalConv(WIN, filters=2, rng=rng)
    x = rng.standard_normal((2, 3, 3, 2))
    upstream = rng.standard_normal((2, 2, 2, 4))
    out, cache = layer.forward(x)
    (dw,), dx = layer.backward(upstream, cache)
    (fd_w,), fd_x = finite_difference_gradients(layer, x, upstream)
    np.testing.assert_allclose(dw, fd_w, atol=1e-6)
    np.testing.assert_allclose(dx, fd_x, atol=1e-6)


@st.composite
def tiling_geometry(draw):
    """A window of 1..3 x 1..3, stride 1..2, padding 0..1, and an input (v, h) it tiles."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    v = (draw(st.integers(1, 3)) - 1) * stride + m - 2 * padding
    h = (draw(st.integers(1, 3)) - 1) * stride + n - 2 * padding
    assume(v >= 1 and h >= 1)
    return WindowSpec(m, n, stride, padding), v, h


@settings(max_examples=60, deadline=None)
@given(geometry=tiling_geometry(), samples=st.integers(1, 3), channels=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_scatter_windows_is_the_adjoint_of_windows(geometry, samples, channels, seed):
    """<g, windows(x)> == <scatter(g), x>: gather and scatter agree on the window layout."""
    window, v, h = geometry
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, v, h, channels))
    win = _windows(x, window)
    rows, cols, _ = output_shape(x.shape[1:], window)
    assert win.shape == (samples, rows, cols, channels, window.area)
    g = rng.standard_normal(win.shape)
    scattered = (_scatter_windows(g, window, x.shape) * x).sum()
    assert (g * win).sum() == pytest.approx(scattered, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(geometry=tiling_geometry(), samples=st.integers(1, 3), channels=st.integers(1, 3),
       filters=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_classical_conv_matches_oracles_on_any_geometry(geometry, samples, channels, filters, seed):
    window, v, h = geometry
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, (samples, v, h, channels)).astype(float)
    layer = ClassicalConv(window, filters, np.random.default_rng(seed))
    out, _ = layer.forward(x)
    for s in range(samples):
        want = oracles.naive_conv(x[s], layer.weights, window.stride, window.padding)
        np.testing.assert_allclose(out[s], want, atol=1e-12)
    # gradients away from ReLU's kink: positive weights on positive inputs leave only
    # all-padding windows at 0, and those stay 0 whatever the weights and inputs
    layer.weights[...] = np.abs(layer.weights) + 0.1
    x = np.abs(x) + 1.0
    out, cache = layer.forward(x)
    upstream = rng.standard_normal(out.shape)
    (dw,), dx = layer.backward(upstream, cache)
    (fd_w,), fd_x = finite_difference_gradients(layer, x, upstream)
    np.testing.assert_allclose(dw, fd_w, atol=1e-6)
    np.testing.assert_allclose(dx, fd_x, atol=1e-6)


def test_relu_subgradient_is_zero_at_zero():
    rng = np.random.default_rng(13)
    layer = ClassicalConv(WIN, filters=1, rng=rng)
    layer.weights[...] = 1.0
    x = np.zeros((1, 2, 2, 1))  # pre-activation exactly 0
    out, cache = layer.forward(x)
    (dw,), dx = layer.backward(np.ones_like(out), cache)
    assert np.all(dw == 0.0)
    assert np.all(dx == 0.0)


# ---------------------------------------------------------------------------
# max pooling

def test_pool_whole_window_max():
    pool = MaxPool(WIN)
    x = np.array([[1.0, 3.0], [2.0, -1.0]]).reshape(1, 2, 2, 1)
    out, _ = pool.forward(x)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 3.0


def test_pool_tie_routes_gradient_to_first_position():
    pool = MaxPool(WIN)
    x = np.full((1, 2, 2, 1), 4.2)
    out, cache = pool.forward(x)
    _, dx = pool.backward(np.ones_like(out), cache)
    np.testing.assert_array_equal(dx[0, :, :, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_padded_pool_of_negative_values_selects_padding():
    pool = MaxPool(WindowSpec(2, 2, 1, padding=1))
    x = np.full((1, 1, 1, 6), -0.5)
    out, cache = pool.forward(x)
    assert out.shape == (1, 2, 2, 6)
    np.testing.assert_array_equal(out, np.zeros_like(out))
    np.testing.assert_array_equal(out[0], oracles.naive_max_pool(x[0], pool.window))
    # gradient dies in the padding
    _, dx = pool.backward(np.ones_like(out), cache)
    np.testing.assert_array_equal(dx, np.zeros_like(x))


def test_pool_matches_loop_oracle_and_routes_gradients():
    rng = np.random.default_rng(14)
    pool = MaxPool(WindowSpec(2, 2, 1, padding=1))
    x = rng.standard_normal((3, 2, 2, 4))
    out, cache = pool.forward(x)
    for s in range(3):
        np.testing.assert_allclose(out[s], oracles.naive_max_pool(x[s], pool.window), atol=1e-15)
    upstream = rng.standard_normal(out.shape)
    _, dx = pool.backward(upstream, cache)
    np.testing.assert_allclose(dx, finite_difference_gradients(pool, x, upstream, h=1e-7)[1],
                               atol=1e-6)


def test_pool_nan_in_window_reaches_its_output_cell():
    pool = MaxPool(WIN)
    x = np.array([[1.0, np.nan, 0.0], [2.0, 5.0, 0.0], [0.0, 0.0, 0.0]]).reshape(1, 3, 3, 1)
    out, _ = pool.forward(x)
    # the NaN at (0, 1) lies in output cells (0, 0) and (0, 1), each with a larger value after it
    np.testing.assert_array_equal(np.isnan(out[0, :, :, 0]), [[True, True], [False, False]])
    np.testing.assert_array_equal(out[0, 1, :, 0], [5.0, 5.0])


@settings(max_examples=60, deadline=None)
@given(geometry=tiling_geometry(), samples=st.integers(1, 3), channels=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_pool_matches_loop_oracles_exactly_on_any_geometry(geometry, samples, channels, seed):
    window, v, h = geometry
    rng = np.random.default_rng(seed)
    # a small integer grid, so that inputs tie with each other and with the padding
    x = rng.integers(-2, 3, (samples, v, h, channels)).astype(float)
    pool = MaxPool(window)
    out, cache = pool.forward(x)
    # magnitudes far apart, so that a cell's sum depends on the order of its terms
    upstream = rng.standard_normal(out.shape) * 10.0 ** rng.integers(-8, 9, out.shape)
    _, dx = pool.backward(upstream, cache)
    for s in range(samples):
        np.testing.assert_array_equal(out[s], oracles.naive_max_pool(x[s], window))
        np.testing.assert_array_equal(dx[s], oracles.naive_max_pool_grad(x[s], window, upstream[s]))


# ---------------------------------------------------------------------------
# dense layer and loss

def test_dense_identity_passthrough():
    rng = np.random.default_rng(15)
    layer = Dense(3, 3, rng)
    layer.weights[...] = np.eye(3)
    layer.bias[...] = 0.0
    x = rng.standard_normal((2, 3))
    out, _ = layer.forward(x)
    np.testing.assert_allclose(out, x, atol=1e-15)


def test_dense_zero_input_returns_bias():
    rng = np.random.default_rng(16)
    layer = Dense(4, 2, rng)
    layer.bias[...] = [0.5, -1.5]
    out, _ = layer.forward(np.zeros((1, 4)))
    np.testing.assert_allclose(out[0], [0.5, -1.5], atol=1e-15)


def test_dense_backward_matches_finite_differences():
    rng = np.random.default_rng(17)
    layer = Dense(6, 3, rng)
    x = rng.standard_normal((4, 6))
    upstream = rng.standard_normal((4, 3))
    out, cache = layer.forward(x)
    (dw, db), dx = layer.backward(upstream, cache)
    (fd_w, fd_b), fd_x = finite_difference_gradients(layer, x, upstream)
    np.testing.assert_allclose(dw, fd_w, atol=1e-6)
    np.testing.assert_allclose(db, fd_b, atol=1e-6)
    np.testing.assert_allclose(dx, fd_x, atol=1e-6)


def test_dense_rejects_wrong_width():
    layer = Dense(5, 2, np.random.default_rng(18))
    with pytest.raises(ValueError):
        layer.forward(np.zeros((1, 4)))


def test_mse_exact_match_is_zero():
    loss, grad = mse_loss_batch(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_mse_single_unit_error_over_five_classes():
    target = np.zeros((1, 5))
    target[0, 2] = 1.0
    loss, grad = mse_loss_batch(np.zeros((1, 5)), target)
    assert loss == pytest.approx(0.2, abs=1e-15)
    np.testing.assert_allclose(grad, (2.0 / 5.0) * (0.0 - target), atol=1e-15)


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    pred = rng.standard_normal((1, 5))
    target = rng.standard_normal((1, 5))
    _, grad = mse_loss_batch(pred, target)
    fd = oracles.central_difference(
        lambda p: mse_loss_batch(p.reshape(1, 5), target)[0], pred.ravel(), h=1e-6
    )
    np.testing.assert_allclose(grad.ravel(), fd, atol=1e-8)


def test_mse_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss_batch(np.array([[1.0, 2.0]]), np.array([[1.0]]))


def test_batch_mse_is_mean_of_per_sample_losses():
    rng = np.random.default_rng(20)
    pred = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 3))
    loss, grad = mse_loss_batch(pred, target)
    per_sample = [np.mean((pred[i] - target[i]) ** 2) for i in range(4)]
    assert loss == pytest.approx(np.mean(per_sample), abs=1e-15)
    fd = oracles.central_difference(
        lambda flat: mse_loss_batch(flat.reshape(4, 3), target)[0], pred.ravel(), h=1e-6
    )
    np.testing.assert_allclose(grad.ravel(), fd, atol=1e-8)


# ---------------------------------------------------------------------------
# network composition

def test_network_shape_chain_one_layer():
    for n_classes in (2, 5):
        net = build_network("qccnn", "one-layer", n_classes, seed=0)
        pred, _ = net.forward_batch(np.zeros((1, 3, 3, 1)))
        assert pred.shape == (1, n_classes)
    shapes = [(3, 3, 1)]
    net = build_network("qccnn", "one-layer", 5, seed=0)
    for layer in net.layers[:-1]:
        shapes.append(layer.out_shape(shapes[-1]))
    assert shapes == [(3, 3, 1), (2, 2, 5), (1, 1, 5)]


def test_network_shape_chain_two_layer():
    net = build_network("qccnn", "two-layer", 5, seed=0)
    shapes = [(3, 3, 1)]
    for layer in net.layers[:-1]:
        shapes.append(layer.out_shape(shapes[-1]))
    assert shapes == [(3, 3, 1), (2, 2, 2), (1, 1, 6), (2, 2, 6)]
    assert net.layers[-1].weights.shape == (5, 24)


def test_network_quantum_outputs_bounded():
    net = build_network("qccnn", "one-layer", 2, seed=1)
    x = np.random.default_rng(2).random((4, 3, 3, 1))
    conv_out, _ = net.layers[0].forward(x)
    assert np.all(conv_out >= -1.0) and np.all(conv_out <= 1.0)


def test_network_end_to_end_gradient_minimal_qccnn():
    # one quantum filter at depth 1, as small as the architecture allows
    rng = np.random.default_rng(21)
    layers = [
        QuantumConv(WIN, filters=1, depth=1, rng=rng),
        MaxPool(WIN),
        Dense(1, 2, rng),
    ]
    net = Network(layers, n_classes=2)
    x = rng.random((3, 3, 3, 1))
    targets = np.zeros((3, 2))
    targets[np.arange(3), [0, 1, 0]] = 1.0
    loss, grads, _ = net.loss_and_gradients(x, targets)
    flat = net.get_flat_params()

    def total_loss(p):
        net.set_flat_params(p)
        return net.loss_and_gradients(x, targets)[0]

    fd = oracles.central_difference(total_loss, flat)
    net.set_flat_params(flat)
    np.testing.assert_allclose(grads, fd, atol=1e-5)


def test_network_forward_deterministic():
    net = build_network("qccnn", "two-layer", 5, seed=3)
    x = np.random.default_rng(4).random((1, 3, 3, 1))
    a = net.forward_batch(x)[0][0]
    b = net.forward_batch(x.copy())[0][0]
    np.testing.assert_array_equal(a, b)


def test_network_flat_param_round_trip():
    net = build_network("cnn", "two-layer", 5, seed=5)
    flat = net.get_flat_params()
    net.set_flat_params(flat * 2.0)
    np.testing.assert_allclose(net.get_flat_params(), flat * 2.0, atol=1e-15)
    with pytest.raises(ValueError):
        net.set_flat_params(flat[:-1])
