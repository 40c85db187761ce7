"""Independent brute-force oracles the tests check production code against.

Everything here is built the slow, obvious way: gate matrices embedded
with explicit Kronecker products, convolutions, pooling and window
enumeration as nested loops, and gradients as central finite
differences or explicit quarter-turn shifts.  None of it shares code
with the library paths it verifies.
"""

import math

import numpy as np


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


def circuit_unitary(n_qubits: int, params) -> np.ndarray:
    """Full circuit as an explicit matrix product of embedded gates: each block
    is Ry on every qubit, then the CNOT ladder i -> i+1 for i = 0..n-2."""
    unitary = np.eye(2**n_qubits, dtype=np.complex128)
    angles = np.asarray(params, dtype=float).reshape(-1, n_qubits)
    for block_angles in angles:
        for q in range(n_qubits):
            unitary = embed_single(ry_matrix(block_angles[q]), q, n_qubits) @ unitary
        for i in range(n_qubits - 1):
            unitary = cnot_matrix(i, i + 1, n_qubits) @ unitary
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


def feature(params, window) -> float:
    """Dense-matrix evaluation of the whole encode/evolve/measure chain,
    one qubit per window value."""
    n_qubits = np.asarray(window).size
    return parity_expectation(circuit_unitary(n_qubits, params) @ encode_state(window))


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
    p = window.padding
    if p:
        image = np.pad(image, ((p, p), (p, p), (0, 0)))
    v, h, d = image.shape
    out = []
    for c in range(d):
        for i in range(v - window.height + 1):
            for j in range(h - window.width + 1):
                patch = image[i : i + window.height, j : j + window.width, c]
                out.append((i, j, c, patch.ravel()))
    return out


def naive_conv(image: np.ndarray, weights: np.ndarray, padding: int = 0) -> np.ndarray:
    """Triple-loop single-image convolution, per-channel independent filters, then ReLU."""
    v, h, d = image.shape
    k, m, n = weights.shape
    if padding:
        image = np.pad(image, ((padding, padding), (padding, padding), (0, 0)))
    rows = v + 2 * padding - m + 1
    cols = h + 2 * padding - n + 1
    out = np.zeros((rows, cols, d * k))
    for c in range(d):
        for f in range(k):
            for i in range(rows):
                for j in range(cols):
                    acc = 0.0
                    for a in range(m):
                        for b in range(n):
                            acc += image[i + a, j + b, c] * weights[f, a, b]
                    out[i, j, c * k + f] = max(acc, 0.0)
    return out


def naive_max_pool(image: np.ndarray, window) -> np.ndarray:
    """Loop max pooling with zero padding included in each window."""
    p, m, n = window.padding, window.height, window.width
    v, h, d = image.shape
    if p:
        image = np.pad(image, ((p, p), (p, p), (0, 0)))
    rows = v + 2 * p - m + 1
    cols = h + 2 * p - n + 1
    out = np.zeros((rows, cols, d))
    for c in range(d):
        for i in range(rows):
            for j in range(cols):
                out[i, j, c] = image[i : i + m, j : j + n, c].max()
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
    p, m, n = window.padding, window.height, window.width
    v, h, d = image.shape
    padded = np.pad(image, ((p, p), (p, p), (0, 0)))
    grad = np.zeros(padded.shape)
    rows, cols, _ = upstream.shape
    for c in range(d):
        for i in range(rows):
            for j in range(cols):
                a, b = _first_max(padded[i : i + m, j : j + n, c])
                grad[i + a, j + b, c] += upstream[i, j, c]
    return grad[p : p + v, p : p + h]


def split_rows(n: int, train_fraction: float, seed: int) -> tuple[list, list]:
    """Source rows of the two sides of a seeded split, in permutation order:
    the first floor(fraction * n) rows of the permutation train, the rest test."""
    order = [int(i) for i in np.random.default_rng(seed).permutation(n)]
    n_train = math.floor(train_fraction * n)
    return order[:n_train], order[n_train:]


def filter_rows(rows, labels, class_names, names) -> tuple[list, list]:
    """(kept rows, new labels) of a label filter, one row at a time: rows of
    the named classes stay in the order given, relabelled by their class's
    position in ``names``."""
    kept, relabelled = [], []
    for row in rows:
        name = class_names[labels[row]]
        if name in names:
            kept.append(row)
            relabelled.append(names.index(name))
    return kept, relabelled
