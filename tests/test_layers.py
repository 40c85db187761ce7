"""Layer forward/backward correctness against loop oracles and finite differences."""

import dataclasses
import functools
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    _gate_basis,
    _overlap_add,
    _parity,
    _pauli_basis,
    _phi_product,
    _rotated,
    _slot_swaps,
    _windows,
    mse_loss_batch,
    output_shape,
)
from qconv.tetris import generate_dataset, split
from qconv.training import ARCHITECTURES, LABEL_CHOICES, MODELS, TrainConfig, build_network, train

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
    assert output_shape((1, 1, 6), WindowSpec(2, 2, padding=1)) == (2, 2, 6)


def test_window_larger_than_input_rejected():
    with pytest.raises(ValueError):
        output_shape((2, 2, 1), WindowSpec(3, 3), filters=1)


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(0, 2)
    with pytest.raises(ValueError):
        WindowSpec(2, 2, padding=-1)


def test_conv_forwards_reject_bad_geometry():
    rng = np.random.default_rng(9)
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
    assert win.shape == (4, 2, 2, 1, 1)
    patches = oracles.windows(image, WIN)
    assert [(i, j) for i, j, _, _ in patches] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    np.testing.assert_array_equal(win.reshape(4, 4).T, [values for *_, values in patches])
    np.testing.assert_array_equal(win[:, 0, 0, 0, 0], image[0:2, 0:2, 0].ravel())


def test_single_window_covers_input():
    image = np.arange(4, dtype=float).reshape(2, 2, 1)
    win = _windows(image[None], WIN)
    assert win.shape == (4, 1, 1, 1, 1)
    np.testing.assert_array_equal(win[:, 0, 0, 0, 0], image[:, :, 0].ravel())


def test_padded_windows_each_hold_the_pixel_once():
    image = np.array([[[5.0]]])
    win = _windows(image[None], WindowSpec(2, 2, padding=1)).reshape(4, -1).T
    assert len(win) == 4
    for patch in win:
        assert patch.sum() == 5.0
        assert (patch != 0).sum() == 1


def test_windows_hold_one_channel_each():
    image = np.arange(8, dtype=float).reshape(2, 2, 2)
    win = _windows(image[None], WIN)
    assert [(c, i, j) for i, j, c, _ in oracles.windows(image, WIN)] == [(0, 0, 0), (1, 0, 0)]
    for c in range(2):
        np.testing.assert_array_equal(win[:, 0, 0, c, 0], image[:, :, c].ravel())


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
    # with padding, the input gradient's overlap-add clips each window to the input
    for window in (WIN, WindowSpec(2, 3), WindowSpec(2, 2, padding=1), WindowSpec(2, 3, padding=1)):
        m, n, p = window.height, window.width, window.padding
        layer = QuantumConv(window, filters=2, depth=3, rng=rng)
        x = rng.random((2, 3, n + 1, 2))
        out, cache = layer.forward(x)
        upstream = rng.standard_normal(out.shape)
        (dangles,), dx = layer.backward(upstream, cache)
        cells = [(s, i, j, c, values) for s in range(2)
                 for i, j, c, values in oracles.windows(x[s], window)]
        want_angles = np.empty_like(dangles)
        want_dx = np.pad(np.zeros_like(x), ((0, 0), (p, p), (p, p), (0, 0)))
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
        np.testing.assert_allclose(dx, want_dx[:, p : p + 3, p : p + n + 1], atol=1e-12)


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


class MatmulShapes(np.ndarray):
    """An array whose matrix products, and theirs, record their operand shapes in ``calls``."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, MatmulShapes) else x for x in inputs]
        if ufunc is np.matmul:
            MatmulShapes.calls.append(tuple(x.shape for x in plain))
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)


@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize("rows", range(1, 13))
def test_phi_product_blocks_windows_under_the_blas_thread_bound(rows, adjoint):
    features, bound = 81, layers_module.BLAS_ONE_THREAD_SIZE
    block = (bound - 1) // (rows * features)
    rng = np.random.default_rng(rows)
    for windows in (1, block - 1, block, block + 1, 3 * block + 7):
        phi = rng.uniform(-1.0, 1.0, (features, windows))
        a = rng.standard_normal((rows, windows if adjoint else features))
        MatmulShapes.calls = []
        got = _phi_product(a.view(MatmulShapes), phi, adjoint)
        want = a @ phi.T if adjoint else a @ phi
        assert got.shape == want.shape
        if windows <= block:
            assert got.tobytes() == want.tobytes()
        else:
            # relative to the summed terms' magnitude: a reordered sum of signed terms moves by
            # rounding of the terms, which can exceed the rounding of a sum that cancels
            scale = np.abs(a) @ np.abs(phi.T if adjoint else phi)
            assert np.abs(got - want).max() <= 1e-15 * scale.max()
        assert len(MatmulShapes.calls) == -(-windows // block)
        for left, right in MatmulShapes.calls:
            assert left[0] * left[1] * right[1] < bound


def test_classical_conv_blocks_windows_under_the_blas_thread_bound():
    """A 5-filter ClassicalConv over more windows than one `_phi_product` block keeps every
    product under the bound, and its outputs and gradients those of unblocked products."""
    bound = layers_module.BLAS_ONE_THREAD_SIZE
    rng = np.random.default_rng(44)
    layer = ClassicalConv(WIN, filters=5, rng=rng)
    x = rng.uniform(-1.0, 1.0, (6600, 3, 3, 1))
    windows = 4 * len(x)
    assert windows > (bound - 1) // (5 * 4)  # more than one block of windows
    w = layer.weights.reshape(5, 4)
    layer.weights = layer.weights.view(MatmulShapes)
    MatmulShapes.calls = []
    out, cache = layer.forward(layers_module.Encoded(layer.encode(x).phi.view(MatmulShapes)))
    upstream = rng.standard_normal(out.shape)
    (dw,), dx = layer.backward(upstream, cache)
    for left, right in MatmulShapes.calls:
        assert left[0] * left[1] * right[1] < bound
    assert len(MatmulShapes.calls) == 3 * 2  # forward, weight and window gradients, 2 blocks each
    for s in range(len(x)):
        np.testing.assert_allclose(out[s], oracles.naive_conv(x[s], w.reshape(5, 2, 2)), atol=1e-12)

    # within 1e-15 of the summed terms' magnitude, as in the `_phi_product` test above
    phi = _windows(x, WIN).reshape(4, windows)
    u = upstream.transpose(3, 1, 2, 0).reshape(5, windows) * (w @ phi > 0.0)  # channel f is filter f
    assert np.abs(dw.reshape(5, 4) - u @ phi.T).max() <= 1e-15 * (np.abs(u) @ np.abs(phi.T)).max()

    def scatter(dwin):
        return _overlap_add(lambda k, cells: dwin.reshape(4, 2, 2, 1, -1)[k][cells], WIN, (2, 2, 1, len(x)))

    assert np.abs(dx - scatter(w.T @ u)).max() <= 1e-15 * scatter(np.abs(w.T) @ np.abs(u)).max()


def count_trig_features(monkeypatch) -> list:
    """Route `_trig_features` through a counter; the list's length is the call count."""
    calls, original = [], layers_module._trig_features
    monkeypatch.setattr(layers_module, "_trig_features",
                        lambda t: calls.append(t.shape) or original(t))
    return calls


def test_pauli_basis_is_built_once_and_read_only():
    # and the other circuit constants: the gate basis, the parity, both paths' slot-swap tables
    for build, args, shapes in ((_pauli_basis, (2,), [(9, 16)]), (_gate_basis, (2,), [(4, 4, 4)]),
                                (_parity, (2,), [(4, 4)]), (_slot_swaps, (2, 2), [(2, 4)] * 2),
                                (_slot_swaps, (3, 2), [(2, 9)] * 2)):
        built = build(*args)
        assert build(*args) is built
        for table, shape in zip(built if isinstance(built, tuple) else [built], shapes, strict=True):
            assert table.shape == shape
            # BLAS rounds differently over other memory layouts, and outputs are pinned to the bit
            assert table.flags.c_contiguous
            with pytest.raises(ValueError):
                table[0, 0] = 2
    np.testing.assert_array_equal(_parity(2), np.diag([1.0, -1.0, -1.0, 1.0]))


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_operator_bases_match_kronecker_oracles(n_qubits):
    pauli = [np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])]
    want = [functools.reduce(np.kron, ps).ravel() for ps in itertools.product(pauli, repeat=n_qubits)]
    np.testing.assert_array_equal(_pauli_basis(n_qubits), want)

    ladder = np.eye(2**n_qubits)
    for i in range(n_qubits - 1):
        ladder = oracles.cnot_matrix(i, i + 1, n_qubits).real @ ladder
    ry_terms = [np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])]  # Ry(t) = cos t I + sin t G
    want = [ladder @ functools.reduce(np.kron, gs) for gs in itertools.product(ry_terms, repeat=n_qubits)]
    np.testing.assert_array_equal(_gate_basis(n_qubits), want)


@pytest.mark.parametrize("n_qubits", [1, 2, 4])
@pytest.mark.parametrize("slots", [2, 3])
def test_rotation_grad_matches_dense_derivatives(slots, n_qubits):
    # per-qubit factors (cos t, sin t), or (1, cos t, sin t), and their t-derivatives
    rng = np.random.default_rng(10 * slots + n_qubits)
    t = rng.uniform(0.0, 2.0 * np.pi, (n_qubits, 5))
    factor = np.stack((np.ones_like(t), np.cos(t), np.sin(t)))[3 - slots:]
    dfactor = np.stack((np.zeros_like(t), -np.sin(t), np.cos(t)))[3 - slots:]
    p = np.stack([functools.reduce(np.kron, factor[:, :, w].T) for w in range(5)], axis=1)
    v = rng.standard_normal(p.shape)
    want = [[v[:, w] @ functools.reduce(np.kron, [(dfactor if r == q else factor)[:, r, w]
                                                  for r in range(n_qubits)])
             for w in range(5)] for q in range(n_qubits)]
    got = np.einsum("wqj,jw->qw", _rotated(v.T, slots, n_qubits), p)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_quantum_conv_forward_of_encoded_mini_batch_matches_raw_forward():
    layer = QuantumConv(WIN, filters=3, depth=2, rng=np.random.default_rng(30))
    x = np.random.default_rng(31).random((6, 3, 3, 2))
    enc = layer.encode(x)
    assert enc.phi.shape == (81, 2, 2, 2, 6)
    for idx in (np.arange(6), np.array([4, 5, 0, 1]), np.array([2])):
        got, cache = layer.forward(enc[idx])
        want, want_cache = layer.forward(x[idx])
        assert got.tobytes() == want.tobytes()
        assert cache["phi"].shape == want_cache["phi"].shape == (81, 2, 2, 2, len(idx))
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


def test_encoded_rejects_an_index_that_drops_the_sample_axis():
    layer = QuantumConv(WIN, filters=2, depth=1, rng=np.random.default_rng(39))
    enc = layer.encode(np.random.default_rng(40).random((4, 3, 3, 1)))
    for idx in (0, -1, np.int64(2), np.array(1)):
        with pytest.raises(TypeError, match="slice or an array of samples"):
            enc[idx]
    assert enc[[0]].phi.shape == enc[0:1].phi.shape == (81, 2, 2, 1, 1)


def benchmark_encoding_convs():
    """Every QuantumConv of the benchmark networks and their first ClassicalConvs, with
    the input shape each takes."""
    one, two = (build_network("qccnn", arch, 5, seed=41).layers for arch in ("one-layer", "two-layer"))
    cnn_one, cnn_two = (build_network("cnn", arch, 5, seed=41).layers for arch in ("one-layer", "two-layer"))
    return [(one[0], (3, 3, 1)), (two[0], (3, 3, 1)), (two[1], (2, 2, 2)),
            (cnn_one[0], (3, 3, 1)), (cnn_two[0], (3, 3, 1))]


@settings(max_examples=40, deadline=None)
@given(which=st.integers(0, 4), samples=st.integers(1, 7), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_encoded_mini_batch_forwards_like_the_raw_rows(which, samples, data, seed):
    """Unsorted, repeated or sliced sample indices forward bit-for-bit like the raw rows."""
    layer, in_shape = benchmark_encoding_convs()[which]
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, (samples,) + in_shape)
    idx = data.draw(st.one_of(
        st.lists(st.integers(0, samples - 1), min_size=1, max_size=2 * samples).map(np.array),
        st.slices(samples).filter(lambda sl: len(range(samples)[sl]) > 0)))
    got, _ = layer.forward(layer.encode(x)[idx])
    want, _ = layer.forward(x[idx])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", MODELS)
def test_encoded_mini_batch_is_one_contiguous_copy(model):
    """An index array takes samples into one C-contiguous copy, which the first layer
    forwards without copying it again."""
    layer = build_network(model, "one-layer", 5, seed=42).layers[0]
    enc = layer.encode(np.random.default_rng(43).random((80, 3, 3, 1)))
    batch = enc[np.arange(40) * 2]
    assert batch.phi.flags.c_contiguous and not batch.phi.flags.writeable
    _, cache = layer.forward(batch)
    assert np.shares_memory(cache["phi"], batch.phi)


def test_quantum_conv_keeps_no_state_between_calls():
    # and ClassicalConv: neither caches anything on the layer
    x = np.random.default_rng(36).random((3, 3, 3, 1))
    for model, attributes in (("qccnn", {"window", "filters", "depth", "angles"}),
                              ("cnn", {"window", "filters", "weights"})):
        net = build_network(model, "two-layer", 5, seed=35)
        net.forward_batch(x)
        net.forward_batch(net.encode(x))
        for layer in net.layers[:2]:
            assert set(vars(layer)) == attributes


def train_one_layer_on_80_images(model: str, batch_size: int) -> tuple:
    """Train a one-layer network 20 iterations on 80 images; returns the training and
    test sets."""
    train_set, test_set = split(generate_dataset(100, seed=36), 0.8, seed=37)
    assert len(train_set) == 80
    net = build_network(model, "one-layer", 5, seed=38)
    config = TrainConfig(iterations=20, batch_size=batch_size, eval_every=10, seeds=(0,))
    assert [r.iteration for r in train(net, train_set, test_set, config)] == [10, 20]
    return train_set, test_set


def assert_phi_built_once_per_set(monkeypatch, batch_size: int):
    """A one-layer qccnn run builds phi once per set."""
    calls = count_trig_features(monkeypatch)
    train_set, test_set = train_one_layer_on_80_images("qccnn", batch_size)
    assert calls == [(4, 4 * len(train_set)), (4, 4 * len(test_set))]


def test_one_layer_training_builds_phi_once_per_fixed_set(monkeypatch):
    assert_phi_built_once_per_set(monkeypatch, batch_size=0)


def test_one_layer_mini_batch_training_builds_phi_once_per_fixed_set(monkeypatch):
    assert_phi_built_once_per_set(monkeypatch, batch_size=40)


def assert_windows_gathered_once_per_set(monkeypatch, batch_size: int):
    """A one-layer cnn run gathers the first layer's windows once per set."""
    calls, original = [], layers_module._windows
    monkeypatch.setattr(layers_module, "_windows",
                        lambda xb, window: calls.append(xb.shape) or original(xb, window))
    train_set, test_set = train_one_layer_on_80_images("cnn", batch_size)
    assert calls == [train_set.images.shape, test_set.images.shape]


def test_one_layer_cnn_training_gathers_windows_once_per_fixed_set(monkeypatch):
    assert_windows_gathered_once_per_set(monkeypatch, batch_size=0)


def test_one_layer_cnn_mini_batch_training_gathers_windows_once_per_fixed_set(monkeypatch):
    assert_windows_gathered_once_per_set(monkeypatch, batch_size=40)


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
    """A window of 1..3 x 1..3, padding 0..2, and an input (v, h) of each side's three
    smallest sizes that fit the padded window; with padding 2, some output cells read
    only padding."""
    m, n, padding = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    v, h = (draw(st.integers(low, low + 2)) for low in (max(1, m - 2 * padding), max(1, n - 2 * padding)))
    return WindowSpec(m, n, padding=padding), v, h


@settings(max_examples=60, deadline=None)
@given(geometry=tiling_geometry(), samples=st.integers(1, 3), channels=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_scatter_windows_is_the_adjoint_of_windows(geometry, samples, channels, seed):
    """<g, windows(x)> == <scatter(g), x>: gather and the overlap-add scatter agree on
    the window layout."""
    window, v, h = geometry
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, v, h, channels))
    win = _windows(x, window)
    rows, cols, _ = output_shape(x.shape[1:], window)
    assert win.shape == (window.area, rows, cols, channels, samples)
    g = rng.standard_normal(win.shape)
    scattered = (_overlap_add(lambda k, cells: g[k][cells], window, win.shape[1:]) * x).sum()
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
        want = oracles.naive_conv(x[s], layer.weights, window.padding)
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
    pool = MaxPool(WindowSpec(2, 2, padding=1))
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
    pool = MaxPool(WindowSpec(2, 2, padding=1))
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
    # a small integer grid, so that inputs tie with each other and with the padding,
    # with some NaN and -0.0 among them
    x = rng.integers(-2, 3, (samples, v, h, channels)).astype(float)
    special = rng.random(x.shape)
    x[special < 0.1] = np.nan
    x[(special >= 0.1) & (special < 0.2)] = -0.0
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


@pytest.mark.parametrize("labels", [2, 5])
@pytest.mark.parametrize("architecture", ["one-layer", "two-layer"])
@pytest.mark.parametrize("model", ["qccnn", "cnn"])
def test_build_network_gradients_match_finite_differences(model, architecture, labels):
    """`loss_and_gradients` of each benchmark network, on raw and on encoded input,
    against central differences of its loss at one random point near initialisation."""
    net = build_network(model, architecture, labels, seed=42)
    rng = np.random.default_rng(43)
    flat = net.get_flat_params() + rng.normal(0.0, 0.1, net.get_flat_params().size)
    images = generate_dataset(12, seed=44).images
    targets = np.eye(labels)[rng.integers(0, labels, len(images))]

    def loss_at(p, xb):
        net.set_flat_params(p)
        return net.loss_and_gradients(xb, targets)[0]

    for xb in (images, net.encode(images)):
        net.set_flat_params(flat)
        _, grads, _ = net.loss_and_gradients(xb, targets)
        fd = oracles.central_difference(lambda p: loss_at(p, xb), flat, h=1e-5)
        np.testing.assert_allclose(grads, fd, rtol=0.0, atol=1e-6)


# loss and gradient of every benchmark network, written by an earlier commit
PINNED_GRADIENTS = Path(__file__).parent / "data" / "network_gradients.json"


def benchmark_network_gradients(encode: bool) -> dict:
    """``{"model architecture labels": (loss, flat gradient)}`` of `loss_and_gradients` for
    every ``build_network(..., seed=42)`` on 12 images, raw or through `Network.encode`,
    against the one-hot targets of labels 0, 1, 2, ... in turn."""
    images = generate_dataset(12, seed=44).images
    out = {}
    for model, architecture, labels in itertools.product(MODELS, ARCHITECTURES, LABEL_CHOICES):
        net = build_network(model, architecture, labels, seed=42)
        targets = np.eye(labels)[np.arange(len(images)) % labels]
        loss, grads, _ = net.loss_and_gradients(net.encode(images) if encode else images, targets)
        out[f"{model} {architecture} {labels}"] = (loss, grads)
    return out


@pytest.mark.parametrize("encode", [False, True], ids=["raw", "encoded"])
def test_network_gradients_match_pinned_file(encode):
    """Every benchmark network's loss and gradient match tests/data/network_gradients.json
    within 1e-12 relative to the largest entry of each.

    Regenerate the file, and say in CHANGES.md why and by how much it moved, with
    ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_layers.py``.  It was
    written on a 2-CPU Intel Xeon with numpy's bundled OpenBLAS, whose SkylakeX kernel
    ran.  Under its Prescott and Haswell kernels (``OPENBLAS_CORETYPE``) the file
    matched within 1e-15 when this was written; a larger deviation on another host
    can still be its BLAS, so say which kernel ran.
    """
    pinned = json.loads(PINNED_GRADIENTS.read_text())
    got = benchmark_network_gradients(encode)
    assert sorted(got) == sorted(pinned)
    for key, (loss, grads) in got.items():
        for name, value in (("loss", [loss]), ("gradient", grads)):
            want = np.atleast_1d(pinned[key][name])
            deviation = np.abs(value - want) / np.abs(want).max()
            assert deviation.max() <= 1e-12, (
                f"{key} {name}: largest relative deviation {deviation.max():.3e} "
                f"at entry {deviation.argmax()}"
            )


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


if __name__ == "__main__":
    PINNED_GRADIENTS.write_text(json.dumps(
        {key: {"loss": loss, "gradient": grads.tolist()}
         for key, (loss, grads) in benchmark_network_gradients(encode=False).items()},
        indent=1) + "\n")
