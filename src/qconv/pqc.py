"""Parametric quantum circuit used as the convolution feature map.

The circuit on N qubits with depth D is D repetitions of

    [Ry layer: one trainable full-angle rotation per qubit]
    [CNOT ladder: control i -> target i+1 for i = 0..N-2, ascending]

so there are ``N * D`` trainable angles, ordered ``(block, qubit)``:
``angles[block * N + qubit]``.  Inputs enter through `encode_window`,
which maps each window value t to the single-qubit state
``cos(t)|0> + sin(t)|1>``; the scalar feature read out afterwards is
the exact all-qubit Z-parity expectation, so every feature lies in
[-1, 1].

Gradients use the exact parameter-shift rule.  Because Ry here takes
the full angle (see `qconv.statevector`), the feature value has
frequency 2 in every angle, and the exact rule is a quarter-turn shift
with unit prefactor:

    d f / d t = f(t + pi/4) - f(t - pi/4)

This is the familiar "half the difference at +-pi/2" rule restated for
the doubled frequency; both phrasings give identical values on their
respective parametrisations.  The same rule differentiates the encoding
angles, since encoding is itself a layer of Ry rotations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .statevector import (
    Statevector,
    apply_ry,
    cnot_amplitudes,
    expectation_z_all,
    init_state,
    ry_amplitudes,
)

# Exact shift for full-angle Ry parameters; gradient = f(+shift) - f(-shift).
PARAM_SHIFT = np.pi / 4.0


@dataclass(frozen=True)
class CircuitSpec:
    """Layout of the interlaced Ry/CNOT circuit: all structure, no angles."""

    n_qubits: int
    depth: int

    @property
    def param_count(self) -> int:
        return self.n_qubits * self.depth

    @property
    def cnot_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, i + 1) for i in range(self.n_qubits - 1))

    @property
    def cnot_count(self) -> int:
        return (self.n_qubits - 1) * self.depth

    @property
    def gate_count(self) -> int:
        return self.param_count + self.cnot_count


def build_circuit(n_qubits: int, depth: int) -> CircuitSpec:
    """Fix the circuit layout for ``n_qubits`` and ``depth`` two-qubit layers."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return CircuitSpec(int(n_qubits), int(depth))


def _checked_params(spec: CircuitSpec, params) -> np.ndarray:
    p = np.asarray(params, dtype=np.float64).ravel()
    if p.size != spec.param_count:
        raise ValueError(f"expected {spec.param_count} circuit angles, got {p.size}")
    if p.size and not np.all(np.isfinite(p)):
        raise ValueError("circuit angles must be finite")
    return p


def _checked_window(spec: CircuitSpec, values) -> np.ndarray:
    w = np.asarray(values, dtype=np.float64).ravel()
    if w.size != spec.n_qubits:
        raise ValueError(f"expected {spec.n_qubits} window values, got {w.size}")
    if not np.all(np.isfinite(w)):
        raise ValueError("window values must be finite")
    return w


def encode_window(values) -> Statevector:
    """Product-state encoding: Ry(values[q]) on qubit q of |0...0>."""
    w = np.asarray(values, dtype=np.float64).ravel()
    if w.size < 1:
        raise ValueError("cannot encode an empty window")
    if not np.all(np.isfinite(w)):
        raise ValueError("window values must be finite")
    state = init_state(w.size)
    for qubit, angle in enumerate(w):
        state = apply_ry(state, qubit, angle)
    return state


def _evolve(amps: np.ndarray, spec: CircuitSpec, params: np.ndarray) -> np.ndarray:
    """Run the circuit over amplitudes shaped ``(..., 2**N)``; params pre-checked."""
    n = spec.n_qubits
    angles = params.reshape(spec.depth, n) if spec.depth else params
    for block in range(spec.depth):
        for q in range(n):
            amps = ry_amplitudes(amps, n, q, angles[block, q])
        for control, target in spec.cnot_pairs:
            amps = cnot_amplitudes(amps, n, control, target)
    return amps


def run_circuit(spec: CircuitSpec, params, state: Statevector) -> Statevector:
    """Evolve ``state`` through the circuit; returns a fresh state."""
    p = _checked_params(spec, params)
    if state.amplitudes.shape[-1] != 2**spec.n_qubits:
        raise ValueError(
            f"state has {state.amplitudes.shape[-1]} amplitudes, "
            f"circuit needs {2**spec.n_qubits}"
        )
    return Statevector(spec.n_qubits, _evolve(state.amplitudes, spec, p))


def quantum_feature(spec: CircuitSpec, params, window) -> float:
    """Encode the window, run the circuit, read out the Z-parity expectation."""
    w = _checked_window(spec, window)
    return expectation_z_all(run_circuit(spec, params, encode_window(w)))


def param_shift_grad(spec: CircuitSpec, params, window) -> np.ndarray:
    """Exact gradient of `quantum_feature` in every circuit angle.

    Component j is ``f(angles with j-th + pi/4) - f(... - pi/4)``; two
    full feature evaluations per parameter, nothing approximate.
    """
    p = _checked_params(spec, params)
    w = _checked_window(spec, window)
    grad = np.empty(spec.param_count)
    for j in range(spec.param_count):
        shifted = p.copy()
        shifted[j] = p[j] + PARAM_SHIFT
        plus = quantum_feature(spec, shifted, w)
        shifted[j] = p[j] - PARAM_SHIFT
        minus = quantum_feature(spec, shifted, w)
        grad[j] = plus - minus
    return grad


def input_grad(spec: CircuitSpec, params, window) -> np.ndarray:
    """Exact gradient of `quantum_feature` in every window value.

    The encoding is a layer of Ry rotations whose angles are the window
    values, so the same quarter-turn shift rule applies to them.
    """
    p = _checked_params(spec, params)
    w = _checked_window(spec, window)
    grad = np.empty(spec.n_qubits)
    for q in range(spec.n_qubits):
        shifted = w.copy()
        shifted[q] = w[q] + PARAM_SHIFT
        plus = quantum_feature(spec, p, shifted)
        shifted[q] = w[q] - PARAM_SHIFT
        minus = quantum_feature(spec, p, shifted)
        grad[q] = plus - minus
    return grad
