"""`QuantumConv`'s circuit: its layout, gates and parity signs, the
angles that never train, and the encoding, evolution, features and exact
shift-rule gradients the layer computes for it, one window at a time."""

import functools
import itertools

import numpy as np
import pytest

from qconv.layers import (
    QuantumConv,
    WindowSpec,
    _gates,
    _ladder_permutation,
    _parity,
    _ry_products,
    _trig_features,
)

import oracles


def on_one_window(params, window):
    """QuantumConv with one filter on one 1 x n window: (feature, angle grad, input grad)."""
    window = np.asarray(window, dtype=float).ravel()
    depth = np.size(params) // window.size
    layer = QuantumConv(WindowSpec(1, window.size), 1, depth, np.random.default_rng(0))
    layer.angles[0] = params
    out, cache = layer.forward(window.reshape(1, 1, -1, 1))
    (dangles,), dx = layer.backward(np.ones_like(out), cache)
    return out.item(), dangles[0], dx.ravel()


def circuit_matrix(n_qubits, params):
    """Product of the layer's block gates: the whole circuit as one matrix."""
    matrix = np.eye(2**n_qubits)
    angles = np.asarray(params, dtype=float).reshape(1, -1)
    for gate in _gates(_ry_products(angles, n_qubits), n_qubits):
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
    layer = QuantumConv(WindowSpec(2, 2), 5, 4, np.random.default_rng(0))
    assert layer.angles.shape == (5, 16)


def test_depth_zero_circuit_is_empty():
    layer = QuantumConv(WindowSpec(2, 2), 1, 0, np.random.default_rng(0))
    assert layer.angles.shape == (1, 0)
    assert _gates(_ry_products(layer.angles, 4), 4).shape == (0, 1, 16, 16)


def test_small_circuit_counts():
    layer = QuantumConv(WindowSpec(1, 2), 3, 3, np.random.default_rng(0))
    assert layer.angles.shape == (3, 6)


def test_build_rejects_bad_sizes():
    with pytest.raises(ValueError, match="depth must be >= 0"):
        QuantumConv(WindowSpec(1, 2), 1, -1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# encoding: phi(x) holds the Pauli coordinates of the encoded product state

def test_encode_zero_window_is_ground_state():
    ground = np.zeros(8)
    ground[0] = 1.0
    np.testing.assert_allclose(_trig_features(np.zeros((3, 1)))[:, 0],
                               pauli_coordinates(ground), atol=1e-15)


def test_encode_half_pi_gives_all_ones():
    phi = _trig_features(np.full((2, 1), np.pi / 2))[:, 0]
    np.testing.assert_allclose(phi, pauli_coordinates(np.array([0.0, 0.0, 0.0, 1.0])), atol=1e-15)


def test_encode_matches_kronecker_oracle():
    window = np.array([np.pi / 4, 0.0])
    np.testing.assert_allclose(oracles.encode_state(window), [np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0],
                               atol=1e-12)
    rng = np.random.default_rng(41)
    for w in (window, *rng.uniform(-np.pi, np.pi, (5, 3))):
        np.testing.assert_allclose(_trig_features(w[:, None])[:, 0],
                                   pauli_coordinates(oracles.encode_state(w)), atol=1e-15)


# ---------------------------------------------------------------------------
# gates: each block is the Ry layer, then the CNOT ladder

@pytest.mark.parametrize("angle, want, atol", [
    pytest.param(np.pi / 2, [0.0, 1.0], 1e-15, id="half_pi_flips_zero_to_one"),
    pytest.param(np.pi / 4, [np.sqrt(0.5), np.sqrt(0.5)], 1e-12, id="quarter_pi_equal_superposition"),
])
def test_ry_on_the_zero_state(angle, want, atol):
    np.testing.assert_allclose(circuit_matrix(1, [angle])[:, 0], want, atol=atol)


@pytest.mark.parametrize("amps, want", [
    # |10> has index 2 under qubit-0-is-MSB
    pytest.param([0, 0, 1, 0], [0, 0, 0, 1], id="flips_target_when_control_set"),
    pytest.param([1, 0, 0, 0], [1, 0, 0, 0], id="leaves_zero_control_alone"),
    pytest.param([1, 0, 1, 0], [1, 0, 0, 1], id="entangles_superposed_control"),
])
def test_cnot_on_two_qubit_states(amps, want):
    np.testing.assert_array_equal(np.asarray(amps)[_ladder_permutation(2)], want)


def test_zero_angles_leave_only_the_cnot_ladders():
    for n in (2, 3, 4, 5, 6):
        ladder = np.eye(2**n)
        for i in range(n - 1):
            ladder = oracles.cnot_matrix(i, i + 1, n).real @ ladder
        for gate in _gates(_ry_products(np.zeros((1, 2 * n)), n), n):
            np.testing.assert_array_equal(gate[0], ladder)


def test_block_gates_treat_each_filter_row_independently():
    rng = np.random.default_rng(19)
    angles = rng.uniform(0, 2 * np.pi, (6, 6))
    got = _gates(_ry_products(angles, 3), 3)
    for row in range(6):
        alone = _gates(_ry_products(angles[row : row + 1], 3), 3)
        np.testing.assert_allclose(got[:, row], alone[:, 0], atol=1e-15)


# ---------------------------------------------------------------------------
# evolution: the product of the layer's block gates

def test_depth_zero_feature_is_parity_of_encoded_state():
    rng = np.random.default_rng(29)
    for window in rng.uniform(0, 2 * np.pi, (5, 4)):
        want = oracles.parity_expectation(oracles.encode_state(window))
        assert on_one_window([], window)[0] == pytest.approx(want, abs=1e-12)


def test_circuit_matches_dense_unitary_oracle():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        depth = int(rng.integers(0, 5))
        params = rng.uniform(0, 2 * np.pi, n * depth)
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        got = circuit_matrix(n, params) @ amps
        want = oracles.circuit_unitary(n, params) @ amps
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_circuit_preserves_norm_over_100_blocks():
    rng = np.random.default_rng(17)
    for n in (2, 4, 6):
        state = circuit_matrix(n, rng.uniform(0, 2 * np.pi, n * 100))[:, 0]
        assert abs(state @ state - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# measurement: the Z-parity signs weighted by |amplitude|^2

@pytest.mark.parametrize("probabilities, want", [
    pytest.param(np.eye(16)[0], 1.0, id="all_zeros_is_plus_one"),
    pytest.param(np.eye(16)[1], -1.0, id="odd_parity_is_minus_one"),  # |0001> = index 1
    pytest.param(np.full(16, 1 / 16), 0.0, id="uniform_superposition_is_zero"),
])
def test_parity_expectation_on_four_qubits(probabilities, want):
    assert np.diag(_parity(4)) @ probabilities == want


# ---------------------------------------------------------------------------
# feature values

def test_feature_of_ground_state_is_one():
    assert on_one_window(np.zeros(16), np.zeros(4))[0] == pytest.approx(1.0, abs=1e-12)


def test_feature_all_ones_window_against_oracle():
    window = np.full(4, np.pi / 2)
    got = on_one_window(np.zeros(4), window)[0]
    want = oracles.feature(np.zeros(4), window)
    assert got == pytest.approx(want, abs=1e-12)


def test_feature_bounded_for_random_inputs():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.choice([2, 4]))
        params = rng.uniform(0, 2 * np.pi, n * int(rng.integers(0, 5)))
        window = rng.uniform(-np.pi, np.pi, n)
        value = on_one_window(params, window)[0]
        assert -1.0 <= value <= 1.0
        assert value == pytest.approx(oracles.feature(params, window), abs=1e-12)


def test_feature_is_two_pi_periodic_in_each_angle():
    rng = np.random.default_rng(47)
    params = rng.uniform(0, 2 * np.pi, 6)
    window = rng.uniform(0, 1, 3)
    base = on_one_window(params, window)[0]
    for j in range(params.size):
        shifted = params.copy()
        shifted[j] += 2 * np.pi
        assert on_one_window(shifted, window)[0] == pytest.approx(base, abs=1e-12)


def test_feature_deterministic():
    rng = np.random.default_rng(53)
    params = rng.uniform(0, 2 * np.pi, 12)
    window = rng.uniform(0, 1, 4)
    a = on_one_window(params, window)
    b = on_one_window(params.copy(), window.copy())
    assert a[0] == b[0]  # bit identical
    np.testing.assert_array_equal(a[1], b[1])
    np.testing.assert_array_equal(a[2], b[2])


# ---------------------------------------------------------------------------
# gradients

def test_param_gradient_empty_for_depth_zero():
    assert on_one_window([], np.zeros(3))[1].shape == (0,)


def test_param_gradient_matches_finite_differences():
    rng = np.random.default_rng(59)
    for _ in range(60):
        n = int(rng.choice([2, 4]))
        params = rng.uniform(0, 2 * np.pi, n * int(rng.integers(1, 5)))
        window = rng.uniform(0, 2 * np.pi, n)
        got = on_one_window(params, window)[1]
        want = oracles.central_difference(lambda p: oracles.feature(p, window), params)
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_single_qubit_gradient_closed_form():
    # One qubit, window 0: f(t) = cos(2t), so df/dt = -2 sin(2t)
    for theta in (0.0, 0.3, 1.2, -0.7):
        got = on_one_window([theta], [0.0])[1][0]
        assert got == pytest.approx(-2.0 * np.sin(2.0 * theta), abs=1e-12)
        fd = oracles.central_difference(lambda p: oracles.feature(p, [0.0]), np.array([theta]))[0]
        assert got == pytest.approx(fd, abs=1e-6)


def test_input_gradient_zero_at_parity_extremum():
    assert on_one_window([], [0.0])[2][0] == pytest.approx(0.0, abs=1e-15)


def test_input_gradient_analytic_value_at_quarter_pi():
    # f(w) = cos(2w) for a bare single qubit; df/dw at pi/4 is -2
    got = on_one_window([], [np.pi / 4])[2][0]
    assert got == pytest.approx(-2.0, abs=1e-12)
    fd = oracles.central_difference(lambda w: oracles.feature([], w), np.array([np.pi / 4]))[0]
    assert got == pytest.approx(fd, abs=1e-6)


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.choice([2, 4]))
        params = rng.uniform(0, 2 * np.pi, n * int(rng.integers(0, 5)))
        window = rng.uniform(0, 2 * np.pi, n)
        got = on_one_window(params, window)[2]
        want = oracles.central_difference(lambda w: oracles.feature(params, w), window)
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_shift_constant_is_quarter_turn():
    # The full-angle Ry convention doubles the frequency, so the layer's
    # gradients equal the quarter-turn (pi/4) shift difference exactly;
    # the textbook half-turn shift fails the finite-difference check.
    rng = np.random.default_rng(67)
    params = rng.uniform(0, 2 * np.pi, 4)
    window = rng.uniform(0, 2 * np.pi, 2)
    _, got_p, got_w = on_one_window(params, window)
    np.testing.assert_allclose(
        got_p, oracles.shift_difference(lambda p: oracles.feature(p, window), params), atol=1e-12
    )
    np.testing.assert_allclose(
        got_w, oracles.shift_difference(lambda w: oracles.feature(params, w), window), atol=1e-12
    )
    fd = oracles.central_difference(lambda p: oracles.feature(p, window), params)
    wrong = np.empty_like(fd)
    for j in range(params.size):
        shifted = params.copy()
        shifted[j] = params[j] + np.pi / 2
        up = oracles.feature(shifted, window)
        shifted[j] = params[j] - np.pi / 2
        wrong[j] = up - oracles.feature(shifted, window)
    assert np.max(np.abs(wrong - fd)) > 1e-2


# ---------------------------------------------------------------------------
# angles that never train: pulled back through the last CNOT ladder, the
# parity is a Z-string, and the last block's Ry on a qubit outside it
# commutes out (Bermejo et al. 2024, arXiv:2408.12739)

def qubits_outside_pulled_back_parity(n):
    """Qubits on which Z^n, pulled back through one oracle CNOT ladder, acts as identity."""
    ladder = np.eye(2**n)
    for i in range(n - 1):
        ladder = oracles.cnot_matrix(i, i + 1, n).real @ ladder
    pulled = ladder.T @ functools.reduce(np.kron, [np.diag([1.0, -1.0])] * n, np.eye(1)) @ ladder
    diagonal = np.diag(pulled)
    np.testing.assert_array_equal(pulled, np.diag(diagonal))  # a Z-string is diagonal
    index = np.arange(2**n)
    return {q for q in range(n) if np.array_equal(diagonal, diagonal[index ^ (1 << (n - 1 - q))])}


@pytest.mark.parametrize("n, want", [(3, {1}), (4, {0, 2}), (5, {1, 3}), (6, {0, 2, 4})])
def test_last_block_angles_outside_the_pulled_back_parity_never_train(n, want):
    dead = qubits_outside_pulled_back_parity(n)
    assert dead == want and len(dead) == n // 2
    rng = np.random.default_rng(n)
    for depth in (1, 2, 4):
        size = n * depth
        theta = rng.uniform(0, 2 * np.pi, size)
        quarter = np.pi / 4 * np.eye(size)
        layer = QuantumConv(WindowSpec(1, n), 2 * size + 1, depth, rng)
        layer.angles[...] = np.vstack((theta, theta + quarter, theta - quarter))
        coeffs = layer.forward(np.zeros((1, 1, n, 1)))[1]["coeffs"]
        up, down = coeffs[1 : size + 1] - coeffs[0], coeffs[size + 1 :] - coeffs[0]
        last_block_dead = [(depth - 1) * n + q for q in sorted(dead)]
        assert np.max(np.abs(up[last_block_dead])) <= 1e-14
        assert np.max(np.abs(down[last_block_dead])) <= 1e-14
        # row j is the exact shift-rule derivative of the coefficients in angle j
        assert np.linalg.matrix_rank(up - down) == size - n // 2
