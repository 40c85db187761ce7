"""Independent brute-force oracles the tests check production code against.

Everything here is built the slow, obvious way: gate matrices embedded
with explicit Kronecker products, convolutions, pooling and window
enumeration as nested loops, and gradients as central finite
differences or explicit quarter-turn shifts.  None of it shares code
with the library paths it verifies.
"""

import numpy as np

from qconv.pqc import CircuitSpec


def ry_matrix(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def embed_single(gate: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Kronecker-embed a one-qubit gate; qubit 0 is the leftmost factor."""
    mat = np.eye(1, dtype=np.complex128)
    for q in range(n_qubits):
        mat = np.kron(mat, gate if q == qubit else np.eye(2))
    return mat


def cnot_matrix(control: int, target: int, n_qubits: int) -> np.ndarray:
    """Permutation matrix of CNOT under the qubit-0-is-MSB convention."""
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for basis in range(dim):
        if (basis >> (n_qubits - 1 - control)) & 1:
            flipped = basis ^ (1 << (n_qubits - 1 - target))
            mat[flipped, basis] = 1.0
        else:
            mat[basis, basis] = 1.0
    return mat


def circuit_unitary(spec: CircuitSpec, params: np.ndarray) -> np.ndarray:
    """Full circuit as an explicit matrix product of embedded gates."""
    dim = 2**spec.n_qubits
    unitary = np.eye(dim, dtype=np.complex128)
    angles = np.asarray(params, dtype=float).reshape(spec.depth, spec.n_qubits)
    for block in range(spec.depth):
        for q in range(spec.n_qubits):
            unitary = embed_single(ry_matrix(angles[block, q]), q, spec.n_qubits) @ unitary
        for control, target in spec.cnot_pairs:
            unitary = cnot_matrix(control, target, spec.n_qubits) @ unitary
    return unitary


def encode_state(window: np.ndarray) -> np.ndarray:
    """Kronecker product of single-qubit encoded states, qubit 0 leftmost."""
    state = np.ones(1, dtype=np.complex128)
    for angle in np.asarray(window, dtype=float).ravel():
        state = np.kron(state, np.array([np.cos(angle), np.sin(angle)]))
    return state


def parity_expectation(amplitudes: np.ndarray) -> float:
    """Direct signed-parity sum over all basis states."""
    total = 0.0
    for basis, amp in enumerate(amplitudes):
        total += (-1) ** bin(basis).count("1") * abs(amp) ** 2
    return total


def feature(spec: CircuitSpec, params, window) -> float:
    """Dense-matrix evaluation of the whole encode/evolve/measure chain."""
    return parity_expectation(circuit_unitary(spec, np.asarray(params)) @ encode_state(window))


def central_difference(fn, values: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one entry at a time."""
    values = np.asarray(values, dtype=float)
    grad = np.empty(values.size)
    for j in range(values.size):
        shifted = values.copy()
        shifted[j] = values[j] + h
        up = fn(shifted)
        shifted[j] = values[j] - h
        grad[j] = (up - fn(shifted)) / (2.0 * h)
    return grad


def shift_difference(fn, values: np.ndarray) -> np.ndarray:
    """Exact quarter-turn rule fn(v + pi/4) - fn(v - pi/4), one entry at a time.

    Every circuit angle and every encoded value enters the feature with
    frequency 2 (Ry takes the full angle), so this is its exact derivative.
    """
    values = np.asarray(values, dtype=float)
    grad = np.empty(values.size)
    for j in range(values.size):
        shifted = values.copy()
        shifted[j] = values[j] + np.pi / 4
        up = fn(shifted)
        shifted[j] = values[j] - np.pi / 4
        grad[j] = up - fn(shifted)
    return grad


def windows(image: np.ndarray, window) -> list:
    """(row, col, channel, values) of every window of one (v, h, d) image.

    Channel by channel, then row by row, left to right; ``values`` is the
    zero-padded patch flattened row-major, qubit 0 first.
    """
    p, s = window.padding, window.stride
    if p:
        image = np.pad(image, ((p, p), (p, p), (0, 0)))
    v, h, d = image.shape
    out = []
    for c in range(d):
        for i in range((v - window.height) // s + 1):
            for j in range((h - window.width) // s + 1):
                patch = image[i * s : i * s + window.height, j * s : j * s + window.width, c]
                out.append((i, j, c, patch.ravel()))
    return out


def naive_conv(image: np.ndarray, weights: np.ndarray, stride: int = 1,
               padding: int = 0, relu: bool = False) -> np.ndarray:
    """Triple-loop single-image convolution, per-channel independent filters."""
    v, h, d = image.shape
    k, m, n = weights.shape
    if padding:
        image = np.pad(image, ((padding, padding), (padding, padding), (0, 0)))
    rows = (v + 2 * padding - m) // stride + 1
    cols = (h + 2 * padding - n) // stride + 1
    out = np.zeros((rows, cols, d * k))
    for c in range(d):
        for f in range(k):
            for i in range(rows):
                for j in range(cols):
                    acc = 0.0
                    for a in range(m):
                        for b in range(n):
                            acc += image[i * stride + a, j * stride + b, c] * weights[f, a, b]
                    out[i, j, c * k + f] = max(acc, 0.0) if relu else acc
    return out


def naive_max_pool(image: np.ndarray, window) -> np.ndarray:
    """Loop max pooling with zero padding included in each window."""
    p, s, m, n = window.padding, window.stride, window.height, window.width
    v, h, d = image.shape
    if p:
        image = np.pad(image, ((p, p), (p, p), (0, 0)))
    rows = (v + 2 * p - m) // s + 1
    cols = (h + 2 * p - n) // s + 1
    out = np.zeros((rows, cols, d))
    for c in range(d):
        for i in range(rows):
            for j in range(cols):
                out[i, j, c] = image[i * s : i * s + m, j * s : j * s + n, c].max()
    return out


def _first_max(patch: np.ndarray) -> tuple[int, int]:
    """(row, col) of the first row-major maximum of a 2-D patch."""
    best = (0, 0)
    for a in range(patch.shape[0]):
        for b in range(patch.shape[1]):
            if patch[a, b] > patch[best]:
                best = (a, b)
    return best


def naive_max_pool_grad(image: np.ndarray, window, upstream: np.ndarray) -> np.ndarray:
    """Input gradient of max pooling: each output cell's upstream value goes to
    its window's first row-major maximum, cells taken in row-major order;
    what lands in the zero padding is dropped."""
    p, s, m, n = window.padding, window.stride, window.height, window.width
    v, h, d = image.shape
    padded = np.pad(image, ((p, p), (p, p), (0, 0)))
    grad = np.zeros(padded.shape)
    rows, cols, _ = upstream.shape
    for c in range(d):
        for i in range(rows):
            for j in range(cols):
                a, b = _first_max(padded[i * s : i * s + m, j * s : j * s + n, c])
                grad[i * s + a, j * s + b, c] += upstream[i, j, c]
    return grad[p : p + v, p : p + h]
