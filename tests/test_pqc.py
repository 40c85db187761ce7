"""The circuit: its layout, and the encoding, evolution, features and exact
shift-rule gradients that `QuantumConv` computes for it, one window at a time."""

import functools
import itertools

import numpy as np
import pytest

from qconv.layers import QuantumConv, WindowSpec, _block_gates, _trig_features
from qconv.pqc import build_circuit

import oracles


def on_one_window(spec, params, window):
    """QuantumConv with one filter on one 1 x n window: (feature, angle grad, input grad)."""
    window = np.asarray(window, dtype=float).ravel()
    layer = QuantumConv(WindowSpec(1, window.size), 1, spec.depth, np.random.default_rng(0))
    layer.angles[0] = params
    out, cache = layer.forward(window.reshape(1, 1, -1, 1))
    (dangles,), dx = layer.backward(np.ones_like(out), cache)
    return out.item(), dangles[0], dx.ravel()


def circuit_matrix(spec, params):
    """Product of the layer's block gates: the whole circuit as one matrix."""
    matrix = np.eye(2**spec.n_qubits)
    for gate in _block_gates(spec, np.asarray(params, dtype=float).reshape(1, -1)):
        matrix = gate[0] @ matrix
    return matrix


def pauli_coordinates(state):
    """<state|P|state> for every P in {I, Z, X}^n, qubit 0 leftmost: what phi must hold."""
    paulis = (np.eye(2), np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    n = int(np.log2(state.size))
    return np.array([
        np.real(np.conj(state) @ functools.reduce(np.kron, factors, np.eye(1)) @ state)
        for factors in itertools.product(paulis, repeat=n)
    ])


# ---------------------------------------------------------------------------
# layout

def test_benchmark_circuit_counts():
    spec = build_circuit(4, 4)
    assert spec.param_count == 16
    assert spec.cnot_pairs == ((0, 1), (1, 2), (2, 3))


def test_depth_zero_circuit_is_empty():
    spec = build_circuit(4, 0)
    assert spec.param_count == 0
    assert _block_gates(spec, np.zeros((1, 0))).shape == (0, 1, 16, 16)


def test_small_circuit_counts():
    spec = build_circuit(2, 3)
    assert spec.param_count == 6
    assert spec.cnot_pairs == ((0, 1),)


def test_build_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_circuit(0, 1)
    with pytest.raises(ValueError):
        build_circuit(2, -1)


# ---------------------------------------------------------------------------
# encoding: phi(x) holds the Pauli coordinates of the encoded product state

def test_encode_zero_window_is_ground_state():
    ground = np.zeros(8)
    ground[0] = 1.0
    np.testing.assert_allclose(_trig_features(np.zeros((1, 3)))[:, 0],
                               pauli_coordinates(ground), atol=1e-15)


def test_encode_half_pi_gives_all_ones():
    phi = _trig_features(np.full((1, 2), np.pi / 2))[:, 0]
    np.testing.assert_allclose(phi, pauli_coordinates(np.array([0.0, 0.0, 0.0, 1.0])), atol=1e-15)


def test_encode_matches_kronecker_oracle():
    window = np.array([np.pi / 4, 0.0])
    np.testing.assert_allclose(oracles.encode_state(window), [np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0],
                               atol=1e-12)
    rng = np.random.default_rng(41)
    for w in (window, *rng.uniform(-np.pi, np.pi, (5, 3))):
        np.testing.assert_allclose(_trig_features(w[None])[:, 0],
                                   pauli_coordinates(oracles.encode_state(w)), atol=1e-15)


# ---------------------------------------------------------------------------
# evolution: the product of the layer's block gates

def test_depth_zero_run_is_identity():
    spec = build_circuit(4, 0)
    np.testing.assert_array_equal(circuit_matrix(spec, []), np.eye(16))
    rng = np.random.default_rng(29)
    for window in rng.uniform(0, 2 * np.pi, (5, 4)):
        want = oracles.parity_expectation(oracles.encode_state(window))
        assert on_one_window(spec, [], window)[0] == pytest.approx(want, abs=1e-12)


def test_zero_angles_leave_only_the_cnot_ladders():
    spec = build_circuit(4, 2)
    ladder = np.eye(16)
    for control, target in spec.cnot_pairs:
        ladder = oracles.cnot_matrix(control, target, 4) @ ladder
    for gate in _block_gates(spec, np.zeros((1, 8))):
        np.testing.assert_array_equal(gate[0], ladder.real)


def test_run_circuit_matches_dense_unitary_oracle():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        depth = int(rng.integers(0, 5))
        spec = build_circuit(n, depth)
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        got = circuit_matrix(spec, params) @ amps
        want = oracles.circuit_unitary(spec, params) @ amps
        np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# feature values

def test_feature_of_ground_state_is_one():
    spec = build_circuit(4, 4)
    assert on_one_window(spec, np.zeros(16), np.zeros(4))[0] == pytest.approx(1.0, abs=1e-12)


def test_feature_all_ones_window_against_oracle():
    spec = build_circuit(4, 1)
    window = np.full(4, np.pi / 2)
    got = on_one_window(spec, np.zeros(4), window)[0]
    want = oracles.feature(spec, np.zeros(4), window)
    assert got == pytest.approx(want, abs=1e-12)


def test_feature_bounded_for_random_inputs():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.choice([2, 4]))
        spec = build_circuit(n, int(rng.integers(0, 5)))
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        window = rng.uniform(-np.pi, np.pi, n)
        value = on_one_window(spec, params, window)[0]
        assert -1.0 <= value <= 1.0
        assert value == pytest.approx(oracles.feature(spec, params, window), abs=1e-12)


def test_feature_is_two_pi_periodic_in_each_angle():
    rng = np.random.default_rng(47)
    spec = build_circuit(3, 2)
    params = rng.uniform(0, 2 * np.pi, spec.param_count)
    window = rng.uniform(0, 1, 3)
    base = on_one_window(spec, params, window)[0]
    for j in range(spec.param_count):
        shifted = params.copy()
        shifted[j] += 2 * np.pi
        assert on_one_window(spec, shifted, window)[0] == pytest.approx(base, abs=1e-12)


def test_feature_deterministic():
    spec = build_circuit(4, 3)
    rng = np.random.default_rng(53)
    params = rng.uniform(0, 2 * np.pi, spec.param_count)
    window = rng.uniform(0, 1, 4)
    a = on_one_window(spec, params, window)
    b = on_one_window(spec, params.copy(), window.copy())
    assert a[0] == b[0]  # bit identical
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[2], b[2])


# ---------------------------------------------------------------------------
# gradients

def test_param_gradient_empty_for_depth_zero():
    assert on_one_window(build_circuit(3, 0), [], np.zeros(3))[1].shape == (0,)


def test_param_gradient_matches_finite_differences():
    rng = np.random.default_rng(59)
    for _ in range(60):
        n = int(rng.choice([2, 4]))
        spec = build_circuit(n, int(rng.integers(1, 5)))
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        window = rng.uniform(0, 2 * np.pi, n)
        got = on_one_window(spec, params, window)[1]
        want = oracles.central_difference(
            lambda p: oracles.feature(spec, p, window), params
        )
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_single_qubit_gradient_closed_form():
    # One qubit, window 0: f(t) = cos(2t), so df/dt = -2 sin(2t)
    spec = build_circuit(1, 1)
    for theta in (0.0, 0.3, 1.2, -0.7):
        got = on_one_window(spec, [theta], [0.0])[1][0]
        assert got == pytest.approx(-2.0 * np.sin(2.0 * theta), abs=1e-12)
        fd = oracles.central_difference(
            lambda p: oracles.feature(spec, p, [0.0]), np.array([theta])
        )[0]
        assert got == pytest.approx(fd, abs=1e-6)


def test_input_gradient_zero_at_parity_extremum():
    spec = build_circuit(1, 0)
    assert on_one_window(spec, [], [0.0])[2][0] == pytest.approx(0.0, abs=1e-15)


def test_input_gradient_analytic_value_at_quarter_pi():
    # f(w) = cos(2w) for a bare single qubit; df/dw at pi/4 is -2
    spec = build_circuit(1, 0)
    got = on_one_window(spec, [], [np.pi / 4])[2][0]
    assert got == pytest.approx(-2.0, abs=1e-12)
    fd = oracles.central_difference(
        lambda w: oracles.feature(spec, [], w), np.array([np.pi / 4])
    )[0]
    assert got == pytest.approx(fd, abs=1e-6)


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.choice([2, 4]))
        spec = build_circuit(n, int(rng.integers(0, 5)))
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        window = rng.uniform(0, 2 * np.pi, n)
        got = on_one_window(spec, params, window)[2]
        want = oracles.central_difference(
            lambda w: oracles.feature(spec, params, w), window
        )
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_shift_constant_is_quarter_turn():
    # The full-angle Ry convention doubles the frequency, so the layer's
    # gradients equal the quarter-turn (pi/4) shift difference exactly;
    # the textbook half-turn shift fails the finite-difference check.
    rng = np.random.default_rng(67)
    spec = build_circuit(2, 2)
    params = rng.uniform(0, 2 * np.pi, spec.param_count)
    window = rng.uniform(0, 2 * np.pi, 2)
    _, got_p, got_w = on_one_window(spec, params, window)
    np.testing.assert_allclose(
        got_p, oracles.shift_difference(lambda p: oracles.feature(spec, p, window), params),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        got_w, oracles.shift_difference(lambda w: oracles.feature(spec, params, w), window),
        atol=1e-12,
    )
    fd = oracles.central_difference(lambda p: oracles.feature(spec, p, window), params)
    wrong = np.empty_like(fd)
    for j in range(spec.param_count):
        shifted = params.copy()
        shifted[j] = params[j] + np.pi / 2
        up = oracles.feature(spec, shifted, window)
        shifted[j] = params[j] - np.pi / 2
        wrong[j] = up - oracles.feature(spec, shifted, window)
    assert np.max(np.abs(wrong - fd)) > 1e-2
