"""Layout of the parametric quantum circuit used as the convolution feature map.

The circuit on N qubits with depth D is D repetitions of

    [Ry layer: one trainable full-angle rotation per qubit]
    [CNOT ladder: control i -> target i+1 for i = 0..N-2, ascending]

so there are ``N * D`` trainable angles, ordered ``(block, qubit)``:
``angles[block * N + qubit]``.  Ry takes the full angle, with matrix
``[[cos t, -sin t], [sin t, cos t]]``.  Qubit 0 is the most significant
bit of a basis-state index: |b0 b1 ... b(N-1)> has index
``sum(b_q << (N - 1 - q))``.  Window values enter as the single-qubit
states ``cos(t)|0> + sin(t)|1>``, and the feature read out is the
all-qubit Z-parity expectation, so every feature lies in [-1, 1].

This module holds only the layout and the two basis-index tables the
layer builds its matrices from; `qconv.layers.QuantumConv` evaluates
the circuit and its gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def build_circuit(n_qubits: int, depth: int) -> CircuitSpec:
    """Fix the circuit layout for ``n_qubits`` and ``depth`` two-qubit layers."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return CircuitSpec(int(n_qubits), int(depth))


def parity_signs(n_qubits: int) -> np.ndarray:
    """(-1)**popcount(index) for every basis index: the diagonal of Z on every qubit."""
    idx = np.arange(2**n_qubits)
    ones = sum((idx >> q) & 1 for q in range(n_qubits))
    return 1.0 - 2.0 * (ones % 2)


def ladder_permutation(spec: CircuitSpec) -> np.ndarray:
    """Basis-index permutation of one CNOT ladder L: ``(L v)[i] = v[perm[i]]``."""
    n = spec.n_qubits
    idx = np.arange(2**n)
    perm = idx
    for control, target in spec.cnot_pairs:
        # each CNOT is its own inverse, flipping the target bit where the control is set
        perm = perm[idx ^ (((idx >> (n - 1 - control)) & 1) << (n - 1 - target))]
    return perm
