"""Differentiable network layers with exact forward/backward passes.

Feature tensors are numpy float arrays of shape (height, width,
channels); batched variants carry a leading sample axis.  ``forward``
returns ``(output, cache)`` and ``backward`` consumes that cache.
Layers keep no state between calls beyond their parameters.

Windows step one cell at a time.  Every window layer reads, per window
offset, only the output cells whose window cell lies inside the input
(`_clipped_offsets`); padding reads 0 and builds no padded copy.
Windows are gathered in (offset, rows, cols, channels, samples) order,
and gradients scatter back from it: with samples innermost, numpy's
inner loops run over samples, not over 1-6 channels.  Batches pass
between layers as (samples, rows, cols, channels) views of samples-last
memory.

`QuantumConv`'s circuit has one qubit per window value, row-major, and
depth D is D blocks of

    [Ry layer: one trainable full-angle rotation per qubit]
    [CNOT ladder: control i -> target i+1 for i = 0..n-2, ascending]

so a filter has ``n * D`` angles, ordered ``(block, qubit)``:
``angles[block * n + qubit]``.  Ry takes the full angle, with matrix
``[[cos t, -sin t], [sin t, cos t]]``.  Qubit 0 is the most significant
bit of a basis-state index: |b0 b1 ... b(n-1)> has index
``sum(b_q << (n - 1 - q))``.  Window values enter as the single-qubit
states ``cos(t)|0> + sin(t)|1>``, and the feature read out is the
all-qubit Z-parity expectation, so every feature lies in [-1, 1].
Pulled back through the last ladder, that parity is a Z-string acting
as identity on floor(n/2) qubits, so their last-block angles never
change the output (the light-cone argument of Bermejo et al. 2024,
arXiv:2408.12739).

`QuantumConv` does not simulate a circuit per window.  With the
product-state encoding, each filter's output is exactly a trigonometric
polynomial of the window values, ``c_f . phi(x)`` with 3**n terms, so
the layer computes the circuit-dependent coefficients once per call and
evaluates every window with one matrix product.  phi, the parity, the
Pauli basis and the Ry layers are each one tensor product over qubits
(`_products`; phi fills its own rows, `_trig_features`).  Both gradients
use one Ry derivative, d/dt turning a qubit's (cos t, sin t) into
(-sin t, cos t), a signed slot swap whose transpose goes to the
coefficients (`_slot_swaps`), not to phi.  This is the only circuit
evaluator; the tests check it against dense-matrix oracles, and
``qconv gradcheck`` checks its gradients against finite differences.

A convolution's products over windows grow with the window count:
forward's ``C @ phi``, the parameter gradient's ``u @ phi.T`` and the
window gradient's product.  `_phi_product` takes each in blocks of
windows, one BLAS call per block, with M*N*K under `BLAS_ONE_THREAD_SIZE`.
Numpy's bundled OpenBLAS (0.3.31) runs a dgemm on one thread exactly
while M*N*K < 2**19 under its Haswell and Prescott kernels (at 5 x 81,
1,294 windows on one thread, 1,295 on two), and up to about 10**6 on
its SkylakeX small-matrix path.  A second thread gains these products no
wall time and spins between calls, doubling CPU time; blocked, training
runs on one core.  At 1,000 images every other product here has M*N*K
of at most ~10**5.
"""

from __future__ import annotations

import functools
from dataclasses import KW_ONLY, dataclass

import numpy as np

# Largest window QuantumConv accepts: its features have 3**n entries per window
# and its {I, Z, X}^n basis 12**n entries, so memory grows steeply past this.
MAX_WINDOW_QUBITS = 6

# OpenBLAS runs a dgemm of M*N*K below this on one thread (see above, on the phi products).
BLAS_ONE_THREAD_SIZE = 2**19


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: size and zero padding per edge; windows step one cell."""

    height: int
    width: int
    _: KW_ONLY
    padding: int = 0

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"window size must be >= 1, got {self.height}x{self.width}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")

    @property
    def area(self) -> int:
        return self.height * self.width


def output_shape(input_shape, window: WindowSpec, filters: int = 1) -> tuple[int, int, int]:
    """Output (rows, cols, channels) of a window pass."""
    v, h, d = input_shape
    if filters < 1:
        raise ValueError(f"filters must be >= 1, got {filters}")
    rows = v + 2 * window.padding - window.height + 1
    cols = h + 2 * window.padding - window.width + 1
    if rows < 1 or cols < 1:
        raise ValueError(f"window {window.height}x{window.width} larger than padded input {input_shape}")
    return (rows, cols, d * filters)


@functools.lru_cache(maxsize=None)
def _clipped_offsets(window: WindowSpec, v: int, h: int) -> tuple:
    """``(reads, first_pad)`` per window offset k over a (v, h) input, row-major:
    ``reads`` pairs the (rows, cols) slices of the output cells that read the input
    at k with those of the input cells they read, or is None; ``first_pad`` slices
    the cells whose first padding offset is k >= 1 (one row or column), or is None."""
    p = window.padding
    rows, cols, _ = output_shape((v, h, 1), window)
    padded_before = np.zeros((rows, cols), dtype=bool)
    offsets = []
    for a in range(window.height):
        for b in range(window.width):
            r0, c0 = max(p - a, 0), max(p - b, 0)
            r1, c1 = max(min(rows, v + p - a), r0), max(min(cols, h + p - b), c0)
            cells = (slice(r0, r1), slice(c0, c1))
            reads = (cells, (slice(r0 + a - p, r1 + a - p), slice(c0 + b - p, c1 + b - p)))
            pad = np.ones((rows, cols), dtype=bool)
            pad[cells] = False
            i, j = np.nonzero(pad & ~padded_before)
            first_pad = (slice(i.min(), i.max() + 1), slice(j.min(), j.max() + 1)) if i.size else None
            offsets.append((reads if r1 > r0 and c1 > c0 else None, first_pad if offsets else None))
            padded_before |= pad
    return tuple(offsets)


def _windows(xb: np.ndarray, window: WindowSpec) -> np.ndarray:
    """Every window of a batch as (m*n, rows, cols, channels, samples), values row-major,
    padding 0."""
    rows, cols, _ = output_shape(xb.shape[1:], window)
    x = xb.transpose(1, 2, 3, 0)
    win = np.zeros((window.area, rows, cols) + x.shape[2:])
    for k, (reads, _) in enumerate(_clipped_offsets(window, *x.shape[:2])):
        if reads:
            win[k][reads[0]] = x[reads[1]]
    return win


def _overlap_add(term, window: WindowSpec, shape) -> np.ndarray:
    """Sum ``term(k, cells)``, window offset k's terms on the given output
    cells of a (rows, cols, d, S) grid, onto the input: (S, v, h, d).

    One add per window offset, on the cells where it reads the input,
    taken in reverse, so that every input cell sums its terms in the
    output cells' row-major order.  `MaxPool` builds each offset's terms
    as they are added: stacking them first took one more large
    allocation per call.
    """
    rows, cols, d, samples = shape
    # windows step one cell, so this is the input's shape
    v, h = rows + window.height - 1 - 2 * window.padding, cols + window.width - 1 - 2 * window.padding
    dx = np.zeros((v, h, d, samples))
    for k, (reads, _) in reversed(list(enumerate(_clipped_offsets(window, v, h)))):
        if reads:
            dx[reads[1]] += term(k, reads[0])
    return dx.transpose(3, 0, 1, 2)


def _merge_filters(y: np.ndarray) -> np.ndarray:
    """(F, rows, cols, d, S) outputs as the samples-last (S, rows, cols, d*F), channel c*F + f."""
    merged = y.transpose(1, 2, 3, 0, 4).reshape(y.shape[1:3] + (-1, y.shape[4]))
    return merged.transpose(3, 0, 1, 2)


def _split_filters(upstream: np.ndarray, filters: int) -> np.ndarray:
    """The inverse of `_merge_filters` on an upstream gradient, flattened: (F, rows*cols*d*S)."""
    y = upstream.transpose(1, 2, 3, 0).reshape(upstream.shape[1:3] + (-1, filters, upstream.shape[0]))
    return y.transpose(3, 0, 1, 2, 4).reshape(filters, -1)


# I, Z and X.  An encoded qubit's density is (I + cos 2t Z + sin 2t X) / 2,
# which fixes the (1, cos 2t, sin 2t) order of the features.
_PAULI_IZX = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])
# I and Ry's generator: Ry(t) = cos t I + sin t G, which fixes the (cos t, sin t) order.
_RY_IG = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, -1.0], [1.0, 0.0]]])


def _products(factors: np.ndarray) -> np.ndarray:
    """Every product of one factor per qubit, qubit 0 leftmost: (n, k, ...) -> (k**n, ...)."""
    k, rest = factors.shape[1], factors.shape[2:]
    out = factors[0]
    for factor in factors[1:]:
        out = (out[:, None] * factor).reshape((out.shape[0] * k,) + rest)
    return out


@functools.lru_cache(maxsize=None)
def _slot_swaps(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """d/dt_q on `_products` whose last two of k slots per qubit are (cos t_q, sin t_q), as
    read-only (n, k**n) tables: ``sum_j v_j dp_j/dt_q = sum_i sign[q, i] v[perm[q, i]] p_i``."""
    place = k ** np.arange(n - 1, -1, -1)[:, None]
    slot = np.arange(k**n) // place % k  # (n, k**n): each index's slot on each qubit
    sign = (slot == k - 2) * 1.0 - (slot == k - 1)  # the (cos, sin) -> (-sin, cos) pair, transposed
    perm = np.arange(k**n) + place * sign.astype(int)  # a leading 1 has sign 0 and stays
    perm.flags.writeable = sign.flags.writeable = False
    return perm, sign


def _rotated(v: np.ndarray, k: int, n: int) -> np.ndarray:
    """`_slot_swaps`' ``sign * v[..., perm]``: (..., k**n) -> (..., n, k**n), one row per qubit."""
    perm, sign = _slot_swaps(k, n)
    return sign * v[..., perm]


def _operator_products(single: np.ndarray, n: int) -> np.ndarray:
    """Every Kronecker product of one of k 2x2 matrices per qubit: (k, 2, 2) -> (k**n, 2**n, 2**n),
    `_products` of each qubit's entries laid over its (row bit, column bit) pairs."""
    bits = (np.arange(2**n) >> np.arange(n - 1, -1, -1)[:, None]) & 1  # (n, 2**n)
    entries = single[:, bits[:, :, None], bits[:, None, :]]  # (k, n, 2**n, 2**n)
    return _products(np.ascontiguousarray(entries.swapaxes(0, 1)))


@functools.lru_cache(maxsize=None)
def _pauli_basis(n_qubits: int) -> np.ndarray:
    """Every P in {I, Z, X}^n as rows of a read-only (3**n, 4**n) array, qubit 0 leftmost."""
    basis = _operator_products(_PAULI_IZX, n_qubits).reshape(3**n_qubits, 4**n_qubits)
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=None)
def _gate_basis(n_qubits: int) -> np.ndarray:
    """The CNOT ladder times every product in {I, G}^n: read-only (2**n, 2**n, 2**n)."""
    basis = np.ascontiguousarray(_operator_products(_RY_IG, n_qubits)[:, _ladder_permutation(n_qubits)])
    basis.flags.writeable = False
    return basis


def _phi_product(a: np.ndarray, phi: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """``a @ phi``, or ``a @ phi.T`` if adjoint, for phi of shape (features, W), in blocks of
    windows small enough that every BLAS call has ``rows * features * block`` under
    `BLAS_ONE_THREAD_SIZE`.  The adjoint sums its blocks in order; W within one block is
    one call."""
    rows, (features, windows) = a.shape[0], phi.shape
    block = max(1, (BLAS_ONE_THREAD_SIZE - 1) // (rows * features))
    if windows <= block:
        return a @ phi.T if adjoint else a @ phi
    if adjoint:
        out = a[:, :block] @ phi[:, :block].T
        for start in range(block, windows, block):
            out += a[:, start : start + block] @ phi[:, start : start + block].T
        return out
    out = np.empty((rows, windows))
    for start in range(0, windows, block):
        np.matmul(a, phi[:, start : start + block], out=out[:, start : start + block])
    return out


def _trig_features(t: np.ndarray) -> np.ndarray:
    """phi(x) = (x)_q (1, cos 2t_q, sin 2t_q), qubit 0 leftmost: (n, W) -> (3**n, W).

    Built in its own rows, with no partial product allocated: as every factor's slot 0
    is 1, qubits 0..q-1's products are the rows of phi whose later qubits are all in
    slot 0, and qubit q's cos and sin slots are filled from them in place."""
    n, rest = t.shape[0], t.shape[1:]
    t2 = 2.0 * t
    cos, sin = np.cos(t2), np.sin(t2)
    phi = np.empty((3**n,) + rest)
    phi[0] = 1.0
    for q in range(n):
        level = phi.reshape((3**q, 3, 3 ** (n - q - 1)) + rest)[:, :, 0]
        np.multiply(level[:, 0], cos[q], out=level[:, 1])
        np.multiply(level[:, 0], sin[q], out=level[:, 2])
    return phi


@functools.lru_cache(maxsize=None)
def _parity(n_qubits: int) -> np.ndarray:
    """Z on every qubit, the observable read out: read-only, diagonal (-1)**popcount(index)."""
    parity = np.diag(_products(np.tile([1.0, -1.0], (n_qubits, 1))))
    parity.flags.writeable = False
    return parity


def _ladder_permutation(n: int) -> np.ndarray:
    """Basis-index permutation of one CNOT ladder L: ``(L v)[i] = v[perm[i]]``."""
    perm = idx = np.arange(2**n)
    for i in range(n - 1):
        # each CNOT is its own inverse, flipping bit i+1 where bit i is set
        perm = perm[idx ^ (((idx >> (n - 1 - i)) & 1) << (n - 2 - i))]
    return perm


def _ry_products(angles: np.ndarray, n_qubits: int) -> np.ndarray:
    """Products of one (cos t_q, sin t_q) per qubit: (filters, n*depth) -> (2**n, depth, filters)."""
    t = angles.T.reshape(-1, n_qubits, angles.shape[0]).swapaxes(0, 1)  # (n, depth, filters)
    return _products(np.stack((np.cos(t), np.sin(t)), axis=1))


def _gates(ry: np.ndarray, n_qubits: int) -> np.ndarray:
    """Ladder times Ry layer for every block and filter, (depth, filters, dim, dim), from the
    `_ry_products`, (2**n, depth, filters), as one 2-D product."""
    gates = ry.reshape(2**n_qubits, -1).T @ _gate_basis(n_qubits).reshape(2**n_qubits, -1)
    return gates.reshape(ry.shape[1:] + (2**n_qubits,) * 2)


@dataclass(frozen=True)
class Encoded:
    """A batch through a convolution's feature map: read-only phi of shape (features, rows,
    cols, channels, samples).  Indexing takes samples, by slice or index array, into one
    C-contiguous copy, so ``inputs[idx]`` is a mini-batch of raw and encoded inputs alike."""

    phi: np.ndarray

    def __post_init__(self):
        self.phi.flags.writeable = False

    def __getitem__(self, idx) -> Encoded:
        if not isinstance(idx, slice) and np.ndim(idx) == 0:
            raise TypeError(f"index Encoded with a slice or an array of samples, got {idx!r}")
        return Encoded(np.take(self.phi, np.arange(self.phi.shape[-1])[idx], axis=-1))


class _Conv:
    """A convolution: filter f's output on window x is ``c_f . phi(x)``, a feature map phi
    times a coefficient map C, one row per filter, then a ReLU if ``relu``.

    phi is the window values or a subclass's `_features` of them, and depends on the input
    only: `encode` returns it on the output grid, so a fixed set is encoded once
    (`Network.encode`) and it, or a mini-batch indexed from it, is forwarded as it is;
    `forward` encodes a raw batch first.  A subclass builds
    C from its parameters (`_coefficients`), takes ``dL/dC = u phi^T`` to their gradients
    (`_param_grads`) and gives the window values' gradient (`_window_grad`), which one
    `_overlap_add` scatters onto the input.  Each filter applies to each input channel
    alone: channel c under filter f is output channel ``c * filters + f`` (`_merge_filters`).
    """

    relu = False

    def __init__(self, window: WindowSpec, filters: int):
        if filters < 1:
            raise ValueError(f"filters must be >= 1, got {filters}")
        self.window = window
        self.filters = filters

    def out_shape(self, input_shape):
        return output_shape(input_shape, self.window, self.filters)

    def encode(self, xb: np.ndarray) -> Encoded:
        return Encoded(self._features(_windows(xb, self.window)))

    def _features(self, win: np.ndarray) -> np.ndarray:
        return win

    def forward(self, x: np.ndarray | Encoded):
        enc = x if isinstance(x, Encoded) else self.encode(x)
        coeffs, cache = self._coefficients()
        z = _phi_product(coeffs, enc.phi.reshape(len(enc.phi), -1))
        if self.relu:
            np.maximum(z, 0.0, out=z)  # backward's z > 0 mask is the same either side of it
            cache["z"] = z
        cache.update(phi=enc.phi, coeffs=coeffs)
        return _merge_filters(z.reshape((self.filters,) + enc.phi.shape[1:])), cache

    def backward(self, upstream: np.ndarray, cache, need_dx: bool = True):
        phi = cache["phi"].reshape(len(cache["phi"]), -1)
        u = _split_filters(upstream, self.filters)
        if self.relu:
            u = u * (cache["z"] > 0.0)  # ReLU's subgradient is 0 at 0
        grads = self._param_grads(_phi_product(u, phi, adjoint=True), cache)
        if not need_dx:
            return grads, None
        dwin = self._window_grad(u, phi, cache).reshape((self.window.area,) + cache["phi"].shape[1:])
        return grads, _overlap_add(lambda k, cells: dwin[k][cells], self.window, dwin.shape[1:])


class QuantumConv(_Conv):
    """Convolution whose feature map is the parametric quantum circuit.

    Each output cell is the Z-parity expectation of the circuit run on
    the encoded window, so cells lie in [-1, 1] and no extra
    nonlinearity is applied.  Because the encoding is a product state,
    filter f's cell is exactly the trigonometric polynomial
    ``c_f . phi(x)`` with ``phi(x) = (x)_q (1, cos 2t_q, sin 2t_q)``
    (3**n entries, `_trig_features`) and ``c_f[P] = 2**-n Tr(O_f P)`` over
    ``P in {I, Z, X}^n``, where ``O_f = U_f^T Z^n U_f`` is the parity
    observable pulled back through the circuit.

    The input gradient rotates C by each qubit's slot swap, then
    multiplies by Phi.  The angle gradient is taken in adjoint order:
    ``dL/dC``, lifted to one matrix per filter, is carried forward
    through the blocks once; at each block it and the parity observable
    pulled back to the block's output weight the Ry layer's cos/sin
    products, which the same slot swap turns into angles.  Both
    gradients satisfy the quarter-turn shift rule ``df/dt = f(t + pi/4)
    - f(t - pi/4)`` exactly, which the tests check.
    """

    def __init__(self, window: WindowSpec, filters: int, depth: int, rng: np.random.Generator):
        super().__init__(window, filters)
        if window.area > MAX_WINDOW_QUBITS:
            raise ValueError(
                f"quantum window {window.height}x{window.width} needs {window.area} qubits; "
                f"MAX_WINDOW_QUBITS is {MAX_WINDOW_QUBITS}"
            )
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.depth = depth
        self.angles = rng.uniform(0.0, 2.0 * np.pi, size=(filters, window.area * depth))

    @property
    def params(self) -> list[np.ndarray]:
        return [self.angles]

    def _features(self, win: np.ndarray) -> np.ndarray:
        return _trig_features(win.reshape(len(win), -1)).reshape((-1,) + win.shape[1:])

    def _coefficients(self):
        n = self.window.area
        ry = _ry_products(self.angles, n)
        gates = _gates(ry, n)
        # parity observable pulled back through blocks depth-1 .. 0; observables[b]
        # is what the state leaving block b is measured against
        observables = np.empty((self.depth, self.filters, 2**n, 2**n))
        obs = np.broadcast_to(_parity(n), (self.filters, 2**n, 2**n))
        for block in range(self.depth - 1, -1, -1):
            observables[block] = obs
            obs = np.swapaxes(gates[block], -1, -2) @ obs @ gates[block]
        coeffs = obs.reshape(self.filters, -1) @ _pauli_basis(n).T / 2**n  # sum(O * P) = Tr(O P)
        return coeffs, {"ry": ry, "gates": gates, "observables": observables}

    def _param_grads(self, dcoeffs: np.ndarray, cache) -> list[np.ndarray]:
        n = self.window.area
        # sum_w u_fw f_f(x_w) = 2**-n Tr(O_b g_b M_b g_b^T), M_b the upstream-weighted encoded
        # densities carried to block b; its derivative in g_b is 2**(1-n) O_b g_b M_b
        m = (dcoeffs @ _pauli_basis(n)).reshape(self.filters, 2**n, 2**n)
        adjoint = np.empty((self.depth, self.filters, 2**n, 2**n))
        for block, (g, z) in enumerate(zip(cache["gates"], cache["observables"])):
            gm = g @ m
            adjoint[block] = z @ gm
            m = gm @ np.swapaxes(g, -1, -2)
        # read off per {I, G}^n product, then per angle through the rotated Ry products
        weights = adjoint.reshape(-1, 4**n) @ _gate_basis(n).reshape(2**n, 4**n).T / 2 ** (n - 1)
        dangles = np.einsum("cqj,jc->cq", _rotated(weights, 2, n), cache["ry"].reshape(2**n, -1))
        return [dangles.reshape(self.depth, self.filters, n).swapaxes(0, 1).reshape(self.angles.shape)]

    def _window_grad(self, u: np.ndarray, phi: np.ndarray, cache) -> np.ndarray:
        n = self.window.area
        # rotate the coefficients, not the 3**n x windows features; d(2t)/dt = 2
        rotated = _rotated(2.0 * cache["coeffs"], 3, n).reshape(-1, 3**n)
        dphi = _phi_product(rotated, phi).reshape(self.filters, n, -1)
        return np.einsum("fqw,fw->qw", dphi, u)


class ClassicalConv(_Conv):
    """Plain linear convolution, one m x n weight array per filter, no bias, then a ReLU."""

    relu = True

    def __init__(self, window: WindowSpec, filters: int, rng: np.random.Generator):
        super().__init__(window, filters)
        bound = np.sqrt(6.0 / (window.area + filters))
        self.weights = rng.uniform(-bound, bound, size=(filters, window.height, window.width))

    @property
    def params(self) -> list[np.ndarray]:
        return [self.weights]

    def _coefficients(self):
        return self.weights.reshape(self.filters, -1), {}

    def _param_grads(self, dcoeffs: np.ndarray, cache) -> list[np.ndarray]:
        return [dcoeffs.reshape(self.weights.shape)]

    def _window_grad(self, u: np.ndarray, phi: np.ndarray, cache) -> np.ndarray:
        return _phi_product(cache["coeffs"].T, u)


class MaxPool:
    """Per-channel max over each window; zero padding competes in the max.

    The pool visits the m*n window offsets, each on the output cells
    where it reads the input, and the zero padding at each cell's first
    padding offset: a later one cannot change a max that is already
    >= 0 or NaN.  Ties go to the first row-major position in the window,
    which alone receives the gradient; a NaN in a window makes that
    output NaN, and the gradient goes to the first maximum of the other
    values unless the NaN is the window's first value.  Backward takes
    the offsets in reverse, so every input cell sums its terms in the
    output cells' row-major order.
    """

    def __init__(self, window: WindowSpec):
        self.window = window

    @property
    def params(self) -> list[np.ndarray]:
        return []

    def out_shape(self, input_shape):
        return output_shape(input_shape, self.window)

    def forward(self, xb: np.ndarray):
        rows, cols, _ = output_shape(xb.shape[1:], self.window)
        x = xb.transpose(1, 2, 3, 0)  # already contiguous for the batches layers return
        (reads, _), *rest = _clipped_offsets(self.window, *x.shape[:2])
        out = np.zeros((rows, cols) + x.shape[2:])
        # the value at argmax: a NaN never replaces it, and one at offset 0 is held as +inf
        best = np.zeros(out.shape)
        if reads:
            out[reads[0]] = x[reads[1]]
            np.fmin(x[reads[1]], np.inf, out=best[reads[0]])
        argmax = np.zeros(out.shape, dtype=np.min_scalar_type(self.window.area - 1))

        def update(k, cells, value):
            o, b, a = out[cells], best[cells], argmax[cells]
            # k where strictly greater, with k increasing: the first maximum keeps a tie
            greater = np.greater(value, b).view(np.uint8)
            np.maximum(a, np.multiply(greater, k, dtype=a.dtype), out=a)
            np.fmax(b, value, out=b)
            np.maximum(o, value, out=o)

        for k, (reads, first_pad) in enumerate(rest, 1):
            if reads:
                update(k, reads[0], x[reads[1]])
            if first_pad:
                update(k, first_pad, 0.0)
        return out.transpose(3, 0, 1, 2), {"argmax": argmax}

    def backward(self, upstream: np.ndarray, cache, need_dx: bool = True):
        if not need_dx:
            return [], None
        argmax, up = cache["argmax"], upstream.transpose(1, 2, 3, 0)
        # not np.where, ~3x slower here; they differ only on a non-finite upstream
        dx = _overlap_add(lambda k, cells: up[cells] * (argmax[cells] == k), self.window, argmax.shape)
        return [], dx


class Dense:
    """Fully connected map to the class scores: y = W x + b, linear output."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        self.weights = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        self.bias = np.zeros(out_dim)

    @property
    def params(self) -> list[np.ndarray]:
        return [self.weights, self.bias]

    def out_shape(self, input_shape):
        return (self.weights.shape[0],)

    def forward(self, xb: np.ndarray):
        flat = xb.reshape(xb.shape[0], -1)
        if flat.shape[1] != self.weights.shape[1]:
            raise ValueError(
                f"dense layer expects {self.weights.shape[1]} inputs, got {flat.shape[1]}"
            )
        out = flat @ self.weights.T + self.bias
        cache = {"flat": flat, "in_shape": xb.shape}
        return out, cache

    def backward(self, upstream: np.ndarray, cache, need_dx: bool = True):
        dw = upstream.T @ cache["flat"]
        db = upstream.sum(axis=0)
        dx = None
        if need_dx:
            dx = (self.weights.T @ upstream.T).T.reshape(cache["in_shape"])  # samples-last
        return [dw, db], dx


def mse_loss_batch(pred: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over samples of the per-sample MSE, plus its gradient in pred."""
    if pred.shape != targets.shape:
        raise ValueError(f"prediction shape {pred.shape} != target shape {targets.shape}")
    diff = pred - targets
    return float(np.mean(diff * diff)), (2.0 / diff.size) * diff


class Network:
    """Ordered layer stack ending in class scores, trained against one-hot MSE."""

    def __init__(self, layers: list, n_classes: int):
        self.layers = layers
        self.n_classes = n_classes

    @property
    def param_arrays(self) -> list[np.ndarray]:
        return [a for layer in self.layers for a in layer.params]

    def encode(self, images: np.ndarray):
        """The images as the first layer takes them: `Encoded` for a convolution."""
        first = self.layers[0]
        return first.encode(images) if isinstance(first, _Conv) else images

    def forward_batch(self, xb):
        """Forward a raw batch or one made by `encode` (or indexed from it): the first
        layer takes either."""
        out, caches = xb, []
        for layer in self.layers:
            out, cache = layer.forward(out)
            caches.append(cache)
        return out, caches

    def backward_batch(self, dpred: np.ndarray, caches) -> list[np.ndarray]:
        """Flat list of parameter gradients; the input gradient is not formed."""
        grads: list[list[np.ndarray]] = [None] * len(self.layers)
        upstream = dpred
        for i in range(len(self.layers) - 1, -1, -1):
            grads[i], upstream = self.layers[i].backward(upstream, caches[i], i > 0)
        return [g for layer_grads in grads for g in layer_grads]

    def loss_and_gradients(self, xb, targets: np.ndarray):
        """Batch loss, flat parameter gradient, and predictions."""
        pred, caches = self.forward_batch(xb)
        loss, dpred = mse_loss_batch(pred, targets)
        return loss, flatten_arrays(self.backward_batch(dpred, caches)), pred

    def get_flat_params(self) -> np.ndarray:
        return flatten_arrays(self.param_arrays)

    def set_flat_params(self, flat: np.ndarray) -> None:
        arrays = self.param_arrays
        total = sum(a.size for a in arrays)
        if flat.size != total:
            raise ValueError(f"expected {total} parameters, got {flat.size}")
        offset = 0
        for a in arrays:
            a[...] = flat[offset : offset + a.size].reshape(a.shape)
            offset += a.size


def flatten_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    """Stable flat ordering: layer order, then array order, C-order entries."""
    if not arrays:
        return np.zeros(0)
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
