"""Circuit layout, encoding, evolution, and exact shift-rule gradients."""

import numpy as np
import pytest

from qconv.pqc import (
    PARAM_SHIFT,
    build_circuit,
    encode_window,
    input_grad,
    param_shift_grad,
    quantum_feature,
    run_circuit,
)
from qconv.statevector import Statevector, cnot_amplitudes, init_state

import oracles


# ---------------------------------------------------------------------------
# layout

def test_benchmark_circuit_counts():
    spec = build_circuit(4, 4)
    assert spec.param_count == 16
    assert spec.cnot_count == 12
    assert spec.cnot_pairs == ((0, 1), (1, 2), (2, 3))


def test_depth_zero_circuit_is_empty():
    spec = build_circuit(4, 0)
    assert spec.param_count == 0
    assert spec.gate_count == 0


def test_small_circuit_counts():
    spec = build_circuit(2, 3)
    assert spec.param_count == 6
    assert spec.cnot_count == 3


def test_build_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_circuit(0, 1)
    with pytest.raises(ValueError):
        build_circuit(2, -1)


# ---------------------------------------------------------------------------
# encoding

def test_encode_zero_window_is_ground_state():
    state = encode_window([0.0, 0.0, 0.0])
    np.testing.assert_allclose(state.amplitudes, init_state(3).amplitudes, atol=1e-15)


def test_encode_half_pi_gives_all_ones():
    state = encode_window([np.pi / 2, np.pi / 2])
    np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-15)


def test_encode_matches_kronecker_oracle():
    window = [np.pi / 4, 0.0]
    state = encode_window(window)
    np.testing.assert_allclose(state.amplitudes, oracles.encode_state(window), atol=1e-15)
    np.testing.assert_allclose(
        state.amplitudes, [np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0], atol=1e-12
    )


def test_encode_rejects_non_finite():
    with pytest.raises(ValueError):
        encode_window([0.0, np.nan])


# ---------------------------------------------------------------------------
# evolution

def test_depth_zero_run_is_identity():
    rng = np.random.default_rng(29)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    out = run_circuit(build_circuit(4, 0), [], Statevector(4, amps))
    np.testing.assert_allclose(out.amplitudes, amps, atol=1e-15)


def test_zero_angles_leave_only_the_cnot_ladders():
    rng = np.random.default_rng(31)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    spec = build_circuit(4, 2)
    got = run_circuit(spec, np.zeros(8), Statevector(4, amps)).amplitudes
    want = amps
    for _ in range(2):
        for control, target in spec.cnot_pairs:
            want = cnot_amplitudes(want, 4, control, target)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_run_circuit_matches_dense_unitary_oracle():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        depth = int(rng.integers(0, 5))
        spec = build_circuit(n, depth)
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        got = run_circuit(spec, params, Statevector(n, amps)).amplitudes
        want = oracles.circuit_unitary(spec, params) @ amps
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_run_circuit_rejects_wrong_param_count():
    with pytest.raises(ValueError):
        run_circuit(build_circuit(3, 2), np.zeros(5), init_state(3))


# ---------------------------------------------------------------------------
# feature values

def test_feature_of_ground_state_is_one():
    spec = build_circuit(4, 4)
    assert quantum_feature(spec, np.zeros(16), np.zeros(4)) == pytest.approx(1.0, abs=1e-12)


def test_feature_all_ones_window_against_oracle():
    spec = build_circuit(4, 1)
    window = np.full(4, np.pi / 2)
    got = quantum_feature(spec, np.zeros(4), window)
    want = oracles.feature(spec, np.zeros(4), window)
    assert got == pytest.approx(want, abs=1e-12)


def test_feature_bounded_for_random_inputs():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.choice([2, 4]))
        spec = build_circuit(n, int(rng.integers(0, 5)))
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        window = rng.uniform(-np.pi, np.pi, n)
        value = quantum_feature(spec, params, window)
        assert -1.0 <= value <= 1.0
        assert value == pytest.approx(oracles.feature(spec, params, window), abs=1e-12)


def test_feature_is_two_pi_periodic_in_each_angle():
    rng = np.random.default_rng(47)
    spec = build_circuit(3, 2)
    params = rng.uniform(0, 2 * np.pi, spec.param_count)
    window = rng.uniform(0, 1, 3)
    base = quantum_feature(spec, params, window)
    for j in range(spec.param_count):
        shifted = params.copy()
        shifted[j] += 2 * np.pi
        assert quantum_feature(spec, shifted, window) == pytest.approx(base, abs=1e-12)


def test_feature_deterministic():
    spec = build_circuit(4, 3)
    rng = np.random.default_rng(53)
    params = rng.uniform(0, 2 * np.pi, spec.param_count)
    window = rng.uniform(0, 1, 4)
    a = quantum_feature(spec, params, window)
    b = quantum_feature(spec, params.copy(), window.copy())
    assert a == b  # bit identical


# ---------------------------------------------------------------------------
# gradients

def test_param_gradient_empty_for_depth_zero():
    assert param_shift_grad(build_circuit(3, 0), [], np.zeros(3)).shape == (0,)


def test_param_gradient_matches_finite_differences():
    rng = np.random.default_rng(59)
    for _ in range(60):
        n = int(rng.choice([2, 4]))
        spec = build_circuit(n, int(rng.integers(1, 5)))
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        window = rng.uniform(0, 2 * np.pi, n)
        got = param_shift_grad(spec, params, window)
        want = oracles.central_difference(
            lambda p: quantum_feature(spec, p, window), params
        )
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_single_qubit_gradient_closed_form():
    # One qubit, window 0: f(t) = cos(2t), so df/dt = -2 sin(2t)
    spec = build_circuit(1, 1)
    for theta in (0.0, 0.3, 1.2, -0.7):
        got = param_shift_grad(spec, [theta], [0.0])[0]
        assert got == pytest.approx(-2.0 * np.sin(2.0 * theta), abs=1e-12)
        fd = oracles.central_difference(
            lambda p: quantum_feature(spec, p, [0.0]), np.array([theta])
        )[0]
        assert got == pytest.approx(fd, abs=1e-6)


def test_input_gradient_zero_at_parity_extremum():
    spec = build_circuit(1, 0)
    assert input_grad(spec, [], [0.0])[0] == pytest.approx(0.0, abs=1e-15)


def test_input_gradient_analytic_value_at_quarter_pi():
    # f(w) = cos(2w) for a bare single qubit; df/dw at pi/4 is -2
    spec = build_circuit(1, 0)
    got = input_grad(spec, [], [np.pi / 4])[0]
    assert got == pytest.approx(-2.0, abs=1e-12)
    fd = oracles.central_difference(
        lambda w: quantum_feature(spec, [], w), np.array([np.pi / 4])
    )[0]
    assert got == pytest.approx(fd, abs=1e-6)


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.choice([2, 4]))
        spec = build_circuit(n, int(rng.integers(0, 5)))
        params = rng.uniform(0, 2 * np.pi, spec.param_count)
        window = rng.uniform(0, 2 * np.pi, n)
        got = input_grad(spec, params, window)
        want = oracles.central_difference(
            lambda w: quantum_feature(spec, params, w), window
        )
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_shift_constant_is_quarter_turn():
    # The full-angle Ry convention doubles the frequency, so the exact
    # shift is pi/4; anything else fails the finite-difference check.
    assert PARAM_SHIFT == pytest.approx(np.pi / 4)
    rng = np.random.default_rng(67)
    spec = build_circuit(2, 2)
    params = rng.uniform(0, 2 * np.pi, spec.param_count)
    window = rng.uniform(0, 2 * np.pi, 2)
    fd = oracles.central_difference(lambda p: quantum_feature(spec, p, window), params)
    wrong = np.empty_like(fd)
    for j in range(spec.param_count):
        shifted = params.copy()
        shifted[j] = params[j] + np.pi / 2
        up = quantum_feature(spec, shifted, window)
        shifted[j] = params[j] - np.pi / 2
        wrong[j] = up - quantum_feature(spec, shifted, window)
    assert np.max(np.abs(wrong - fd)) > 1e-2
