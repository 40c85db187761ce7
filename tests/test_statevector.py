"""The circuit's gates on state vectors: the Ry layers and CNOT ladders of
`layers._block_gates` and the Z-parity signs of `qconv.pqc`, on known
states, against the Kronecker oracles, and through their invariants."""

import numpy as np

from qconv.layers import _block_gates
from qconv.pqc import build_circuit, ladder_permutation, parity_signs

import oracles


def block(angles):
    """One circuit block on len(angles) qubits: the Ry layer, then the CNOT ladder."""
    angles = np.asarray(angles, dtype=float)
    return _block_gates(build_circuit(angles.size, 1), angles[None])[0, 0]


def ladder(n):
    """Apply the n-qubit CNOT ladder to a state vector by its index permutation."""
    perm = ladder_permutation(build_circuit(n, 1))
    return lambda amps: amps[perm]


def oracle_ladder(n):
    mat = np.eye(2**n)
    for i in range(n - 1):
        mat = oracles.cnot_matrix(i, i + 1, n) @ mat
    return mat


def basis_state(n, index):
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def random_state(n, rng):
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return amps / np.linalg.norm(amps)


# ---------------------------------------------------------------------------
# Ry layers

def test_ry_zero_angle_is_identity():
    state = random_state(3, np.random.default_rng(1))
    out = block(np.zeros(3)) @ state
    np.testing.assert_allclose(out, oracle_ladder(3) @ state, atol=1e-15)


def test_ry_half_pi_flips_zero_to_one():
    np.testing.assert_allclose(block([np.pi / 2]) @ basis_state(1, 0), [0.0, 1.0], atol=1e-15)


def test_ry_quarter_pi_equal_superposition():
    out = block([np.pi / 4]) @ basis_state(1, 0)
    np.testing.assert_allclose(out, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)


def test_ry_matches_kronecker_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            state = random_state(n, rng)
            qubit = int(rng.integers(n))
            angles = np.zeros(n)
            angles[qubit] = rng.uniform(-2 * np.pi, 2 * np.pi)
            got = block(angles) @ state
            want = oracle_ladder(n) @ oracles.embed_single(
                oracles.ry_matrix(angles[qubit]), qubit, n) @ state
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_ry_then_inverse_restores_state():
    rng = np.random.default_rng(3)
    state = random_state(1, rng)
    angle = rng.uniform(0, 2 * np.pi)
    out = block([-angle]) @ block([angle]) @ state
    np.testing.assert_allclose(out, state, atol=1e-12)


# ---------------------------------------------------------------------------
# CNOT ladders

def test_cnot_flips_target_when_control_set():
    # |10> has index 2 under qubit-0-is-MSB
    np.testing.assert_array_equal(ladder(2)(basis_state(2, 2)), basis_state(2, 3))


def test_cnot_leaves_zero_control_alone():
    np.testing.assert_array_equal(ladder(2)(basis_state(2, 0)), basis_state(2, 0))


def test_cnot_entangles_superposed_control():
    # (|00> + |10>)/sqrt2 -> (|00> + |11>)/sqrt2, checked against the 4x4 matrix
    amps = np.zeros(4, dtype=np.complex128)
    amps[[0, 2]] = np.sqrt(0.5)
    got = ladder(2)(amps)
    np.testing.assert_allclose(got, oracles.cnot_matrix(0, 1, 2) @ amps, atol=1e-15)
    np.testing.assert_allclose(got, [np.sqrt(0.5), 0, 0, np.sqrt(0.5)], atol=1e-15)


def test_cnot_matches_kronecker_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 6):
        for _ in range(6):
            state = random_state(n, rng)
            np.testing.assert_allclose(ladder(n)(state), oracle_ladder(n) @ state, atol=1e-12)


def test_cnot_is_an_involution():
    # on two qubits the ladder is a single CNOT
    state = random_state(2, np.random.default_rng(5))
    np.testing.assert_allclose(ladder(2)(ladder(2)(state)), state, atol=1e-12)


# ---------------------------------------------------------------------------
# Z-parity expectation: the parity signs weighted by |amplitude|^2

def test_expectation_all_zeros_is_plus_one():
    assert parity_signs(4) @ np.abs(basis_state(4, 0)) ** 2 == 1.0


def test_expectation_odd_parity_is_minus_one():
    # |0001> = index 1
    assert parity_signs(4) @ np.abs(basis_state(4, 1)) ** 2 == -1.0


def test_expectation_uniform_superposition_is_zero():
    amps = np.full(16, 0.25, dtype=np.complex128)
    want = oracles.parity_expectation(amps)
    assert abs(want) < 1e-15
    assert abs(parity_signs(4) @ np.abs(amps) ** 2 - want) < 1e-12


def test_expectation_matches_oracle_and_stays_bounded():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            state = random_state(n, rng)
            got = parity_signs(n) @ np.abs(state) ** 2
            assert -1.0 <= got <= 1.0
            assert abs(got - oracles.parity_expectation(state)) < 1e-12


# ---------------------------------------------------------------------------
# invariants

def test_norm_preserved_under_random_gate_sequences():
    rng = np.random.default_rng(17)
    for n in (2, 4, 6):
        state = basis_state(n, 0)
        for _ in range(100):
            state = block(rng.uniform(0, 2 * np.pi, n)) @ state
        assert abs(np.vdot(state, state).real - 1.0) <= 1e-10


def test_array_kernels_handle_batches():
    rng = np.random.default_rng(19)
    spec = build_circuit(3, 2)
    angles = rng.uniform(0, 2 * np.pi, (6, spec.param_count))
    got = _block_gates(spec, angles)
    for row in range(6):
        np.testing.assert_allclose(got[:, row], _block_gates(spec, angles[row : row + 1])[:, 0],
                                   atol=1e-15)
