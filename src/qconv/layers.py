"""Differentiable network layers with exact forward/backward passes.

Feature tensors are numpy float arrays of shape (height, width,
channels); batched variants carry a leading sample axis.  ``forward``
returns ``(output, cache)`` and ``backward`` consumes that cache.
Layers keep no state between calls beyond their parameters.

Every window layer reads the same windows: one strided slice of the
zero-padded input per window offset, gathered in (samples, rows, cols,
channels, offset) order and scattered back from it.  Convolution layers
apply every filter to every input channel independently; input channel
c under filter f lands on output channel ``c * filters + f`` (a reshape
of the (..., channels, filters) products), giving ``d * k`` channels.

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
evaluates every window with one matrix product.  It is the package's
only circuit evaluator; the tests check it against dense-matrix
oracles, and ``qconv gradcheck`` checks its gradients against finite
differences.  phi depends only on the input, so a fixed set is
encoded once (`QuantumConv.encode`, `Network.encode`) and the
`Encoded` value, or any mini-batch indexed from it, is forwarded with
`QuantumConv.forward_encoded`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Largest window QuantumConv accepts: its features have 3**n entries per window
# and its {I, Z, X}^n basis 12**n entries, so memory grows steeply past this.
MAX_WINDOW_QUBITS = 6


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: size, stride, and zero padding per edge."""

    height: int
    width: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"window size must be >= 1, got {self.height}x{self.width}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")

    @property
    def area(self) -> int:
        return self.height * self.width


def output_shape(input_shape, window: WindowSpec, filters: int = 1) -> tuple[int, int, int]:
    """Output (rows, cols, channels) of a window pass; rejects non-tiling strides."""
    v, h, d = input_shape
    if filters < 1:
        raise ValueError(f"filters must be >= 1, got {filters}")
    rows_span = v + 2 * window.padding - window.height
    cols_span = h + 2 * window.padding - window.width
    if rows_span < 0 or cols_span < 0:
        raise ValueError(f"window {window.height}x{window.width} larger than padded input {input_shape}")
    if rows_span % window.stride or cols_span % window.stride:
        raise ValueError(
            f"stride {window.stride} does not tile input {input_shape} "
            f"with window {window.height}x{window.width}, padding {window.padding}"
        )
    return (rows_span // window.stride + 1, cols_span // window.stride + 1, d * filters)


def _window_offsets(window: WindowSpec, rows: int, cols: int) -> list[tuple[slice, slice]]:
    """Padded-input row and column slices under each window offset, row-major."""
    m, n, s = window.height, window.width, window.stride
    return [(slice(a, a + s * (rows - 1) + 1, s), slice(b, b + s * (cols - 1) + 1, s))
            for a in range(m) for b in range(n)]


def _window_slices(xb: np.ndarray, window: WindowSpec) -> list[np.ndarray]:
    """The (S, rows, cols, d) slice of the zero-padded batch under each window offset."""
    rows, cols, _ = output_shape(xb.shape[1:], window)
    p = window.padding
    xp = np.pad(xb, ((0, 0), (p, p), (p, p), (0, 0))) if p else xb
    return [xp[:, r, c] for r, c in _window_offsets(window, rows, cols)]


def _windows(xb: np.ndarray, window: WindowSpec) -> np.ndarray:
    """Every window of a batch as (samples, rows, cols, channels, m*n), values row-major."""
    return np.stack(_window_slices(xb, window), axis=-1)


def _overlap_add(term, window: WindowSpec, rows: int, cols: int, input_shape) -> np.ndarray:
    """Sum ``term(k)``, window offset k's (rows, cols, d, S) terms, onto the input: (S, v, h, d).

    One strided add per window offset, taken in reverse, so that every
    input cell sums its terms in the output cells' row-major order.  The
    sample axis is innermost while summing, so each add moves contiguous
    runs of samples rather than a few channels at a time.  ``term`` lets
    `MaxPool` build each offset's terms as they are added: stacking them
    first took one more large allocation per call and was slower inside
    a training step.
    """
    samples, v, h, d = input_shape
    p = window.padding
    dxp = np.zeros((v + 2 * p, h + 2 * p, d, samples))
    for k, (r, c) in reversed(list(enumerate(_window_offsets(window, rows, cols)))):
        dxp[r, c] += term(k)
    dx = np.moveaxis(dxp, 3, 0)
    return dx[:, p : p + v, p : p + h, :] if p else dx


def _scatter_windows(dwin: np.ndarray, window: WindowSpec, input_shape) -> np.ndarray:
    """Overlap-add per-window input gradients (S, rows, cols, d, m*n) onto the input."""
    rows, cols = dwin.shape[1:3]
    # (m*n, rows, cols, d, S), copied so that each offset's terms are one contiguous block
    terms = np.ascontiguousarray(dwin.transpose(4, 1, 2, 3, 0))
    return _overlap_add(terms.__getitem__, window, rows, cols, input_shape)


# I, Z and X.  An encoded qubit's density is (I + cos 2t Z + sin 2t X) / 2,
# which fixes the (1, cos 2t, sin 2t) order of the features.
_PAULI_IZX = np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the trailing matrices, broadcast over leading axes."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(lead + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


@functools.lru_cache(maxsize=None)
def _pauli_basis(n_qubits: int) -> np.ndarray:
    """Every P in {I, Z, X}^n as rows of a read-only (3**n, 4**n) array, qubit 0 leftmost."""
    basis = np.ones((1, 1, 1))
    for _ in range(n_qubits):
        basis = _kron(basis[:, None], _PAULI_IZX)  # (3**q, 3, 2**(q+1), 2**(q+1))
        basis = basis.reshape((-1,) + basis.shape[-2:])
    basis = basis.reshape(basis.shape[0], -1)
    basis.flags.writeable = False
    return basis


def _trig_features(t: np.ndarray) -> np.ndarray:
    """phi(x) = (x)_q (1, cos 2t_q, sin 2t_q), qubit 0 leftmost: (W, n) -> (3**n, W)."""
    windows = t.shape[0]
    cos, sin = np.cos(2.0 * t), np.sin(2.0 * t)
    phi = np.ones((1, windows))
    for q in range(t.shape[1]):
        factor = np.stack((np.ones(windows), cos[:, q], sin[:, q]))
        phi = (phi[:, None, :] * factor[None]).reshape(-1, windows)
    return phi


def _parity_signs(n: int) -> np.ndarray:
    """(-1)**popcount(index) for every basis index: the diagonal of Z on every qubit."""
    idx = np.arange(2**n)
    ones = sum((idx >> q) & 1 for q in range(n))
    return 1.0 - 2.0 * (ones % 2)


def _ladder_permutation(n: int) -> np.ndarray:
    """Basis-index permutation of one CNOT ladder L: ``(L v)[i] = v[perm[i]]``."""
    idx = np.arange(2**n)
    perm = idx
    for i in range(n - 1):
        # each CNOT is its own inverse, flipping bit i+1 where bit i is set
        perm = perm[idx ^ (((idx >> (n - 1 - i)) & 1) << (n - 2 - i))]
    return perm


def _block_gates(angles: np.ndarray, n_qubits: int) -> np.ndarray:
    """Ladder times Ry layer for every block and filter: (depth, filters, dim, dim)."""
    n = n_qubits
    t = angles.reshape(angles.shape[0], angles.shape[1] // n, n).transpose(1, 0, 2)
    c, s = np.cos(t), np.sin(t)
    ry = np.stack((np.stack((c, -s), axis=-1), np.stack((s, c), axis=-1)), axis=-2)
    gates = ry[..., 0, :, :]
    for q in range(1, n):
        gates = _kron(gates, ry[..., q, :, :])
    return gates[..., _ladder_permutation(n), :]


@functools.lru_cache(maxsize=None)
def _bit_pairs(n_qubits: int) -> np.ndarray:
    """Read-only (n, 2, 2**(n-1)) table: for each qubit q, the basis indices
    with q's bit clear, then the same indices with it set (qubit 0 leftmost)."""
    j = np.arange(2**n_qubits)
    bits = 2 ** np.arange(n_qubits - 1, -1, -1)
    clear = np.stack([j[(j & b) == 0] for b in bits])
    table = np.stack((clear, clear + bits[:, None]), axis=1)
    table.flags.writeable = False
    return table


def _generator_traces(z: np.ndarray, m: np.ndarray, n_qubits: int) -> np.ndarray:
    """``Tr(z A_q m)`` for symmetric z, m and each qubit q: (F, dim, dim) -> (F, n).

    A_q is the Ry generator on qubit q, which equals Ry(pi/2) there:
    it maps that qubit's amplitudes (a0, a1) to (-a1, a0).  Each qubit's
    products are summed as one contiguous run, rows outer, which fixes
    the rounding of the result.
    """
    pairs = _bit_pairs(n_qubits)
    zp, mp = z[..., pairs], m[..., pairs]  # (F, dim, n, 2, dim / 2)
    terms = zp[..., 1, :] * mp[..., 0, :] - zp[..., 0, :] * mp[..., 1, :]
    return np.moveaxis(terms, 2, 1).reshape(z.shape[0], n_qubits, -1).sum(axis=2)


@dataclass(frozen=True)
class Encoded:
    """A batch as `QuantumConv` sees it: read-only phi of shape
    (3**n, samples, windows per sample), in the memory order of the
    (3**n, windows) product, and the raw batch's shape.  Indexing takes
    samples, so ``inputs[idx]`` is a mini-batch of raw and encoded
    inputs alike."""

    phi: np.ndarray
    in_shape: tuple

    def __post_init__(self):
        self.phi.flags.writeable = False

    def __getitem__(self, idx) -> Encoded:
        phi = self.phi[:, idx]
        return Encoded(phi, (phi.shape[1],) + tuple(self.in_shape[1:]))


class QuantumConv:
    """Convolution whose feature map is the parametric quantum circuit.

    Each output cell is the Z-parity expectation of the circuit run on
    the encoded window, so cells lie in [-1, 1] and no extra
    nonlinearity is applied.  Because the encoding is a product state,
    filter f's cell is exactly the trigonometric polynomial
    ``c_f . phi(x)`` with ``phi(x) = (x)_q (1, cos 2t_q, sin 2t_q)``
    (3**n entries) and ``c_f[P] = 2**-n Tr(O_f P)`` over
    ``P in {I, Z, X}^n``, where ``O_f = U_f^T Z^n U_f`` is the parity
    observable pulled back through the circuit.

    Forward is one ``C @ Phi`` product over all windows.  The input
    gradient differentiates phi factor by factor.  The angle gradient
    is taken in adjoint order: the upstream gradient is contracted with
    phi first, lifted to one matrix per filter, and carried forward
    through the circuit blocks once, meeting the parity observable
    pulled back to each block.  Both gradients satisfy the quarter-turn
    shift rule ``df/dt = f(t + pi/4) - f(t - pi/4)`` exactly, which the
    tests check.  ``forward(x)`` is ``forward_encoded(encode(x))``.
    """

    def __init__(self, window: WindowSpec, filters: int, depth: int, rng: np.random.Generator):
        if filters < 1:
            raise ValueError(f"filters must be >= 1, got {filters}")
        if window.area > MAX_WINDOW_QUBITS:
            raise ValueError(
                f"quantum window {window.height}x{window.width} needs {window.area} qubits; "
                f"MAX_WINDOW_QUBITS is {MAX_WINDOW_QUBITS}"
            )
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.window = window
        self.filters = filters
        self.depth = depth
        self.angles = rng.uniform(0.0, 2.0 * np.pi, size=(filters, window.area * depth))

    @property
    def params(self) -> list[np.ndarray]:
        return [self.angles]

    def out_shape(self, input_shape):
        return output_shape(input_shape, self.window, self.filters)

    def encode(self, xb: np.ndarray) -> Encoded:
        """phi of every window of xb; depends on the input only, never on the angles."""
        phi = _trig_features(_windows(xb, self.window).reshape(-1, self.window.area))
        return Encoded(phi.reshape(phi.shape[0], xb.shape[0], -1), xb.shape)

    def forward(self, xb: np.ndarray):
        return self.forward_encoded(self.encode(xb))

    def forward_encoded(self, enc: Encoded):
        n = self.window.area
        gates = _block_gates(self.angles, n)
        # parity observable pulled back through blocks depth-1 .. 0; observables[b]
        # is what the state entering block b is measured against
        observables = np.empty((self.depth, self.filters, 2**n, 2**n))
        obs = np.broadcast_to(np.diag(_parity_signs(n)), (self.filters, 2**n, 2**n))
        for block in range(self.depth - 1, -1, -1):
            g = gates[block]
            obs = observables[block] = np.swapaxes(g, -1, -2) @ obs @ g
        basis = _pauli_basis(n)
        coeffs = obs.reshape(self.filters, -1) @ basis.T / 2**n  # Tr(O P) = sum(O * P), P = P^T
        phi = enc.phi.reshape(3**n, -1)
        out = (coeffs @ phi).T.reshape(enc.in_shape[:1] + self.out_shape(enc.in_shape[1:]))
        cache = {"phi": phi, "coeffs": coeffs, "basis": basis, "gates": gates,
                 "observables": observables, "in_shape": enc.in_shape}
        return out, cache

    def backward(self, upstream: np.ndarray, cache, need_dx: bool = True):
        phi, coeffs = cache["phi"], cache["coeffs"]
        n = self.window.area
        u = upstream.reshape(-1, self.filters)

        # d/dtheta sum_w u_wf f_f(x_w) = 2**(1-n) Tr(Z_b A_q M_b), with M the
        # upstream-weighted encoded densities carried forward to block b
        dangles = np.empty((self.filters, self.depth, n))
        m = ((phi @ u).T @ cache["basis"]).reshape(self.filters, 2**n, 2**n)
        for block, (g, z) in enumerate(zip(cache["gates"], cache["observables"])):
            dangles[:, block] = _generator_traces(z, m, n)
            m = g @ m @ np.swapaxes(g, -1, -2)
        dangles = dangles.reshape(self.angles.shape) / 2 ** (n - 1)

        dx = None
        if need_dx:
            # d phi / d t_q maps qubit q's factor (1, c, s) to (0, -2s, 2c)
            v = coeffs.T @ u.T
            dwin = np.empty((n, phi.shape[1]))
            for q in range(n):
                vq = v.reshape(3**q, 3, -1, phi.shape[1])
                pq = phi.reshape(vq.shape)
                dwin[q] = 2.0 * (np.einsum("ajw,ajw->w", vq[:, 2], pq[:, 1])
                                 - np.einsum("ajw,ajw->w", vq[:, 1], pq[:, 2]))
            dx = _scatter_windows(dwin.T.reshape(upstream.shape[:3] + (-1, n)), self.window,
                                  cache["in_shape"])
        return [dangles], dx


class ClassicalConv:
    """Plain linear convolution, one m x n weight array per filter, no bias."""

    def __init__(self, window: WindowSpec, filters: int, rng: np.random.Generator):
        if filters < 1:
            raise ValueError(f"filters must be >= 1, got {filters}")
        self.window = window
        self.filters = filters
        bound = np.sqrt(6.0 / (window.area + filters))
        self.weights = rng.uniform(-bound, bound, size=(filters, window.height, window.width))

    @property
    def params(self) -> list[np.ndarray]:
        return [self.weights]

    def out_shape(self, input_shape):
        return output_shape(input_shape, self.window, self.filters)

    def forward(self, xb: np.ndarray):
        win = _windows(xb, self.window)
        # one 2-D product; @ on the 5-D stack would run a batch of tiny products
        z = win.reshape(-1, self.window.area) @ self.weights.reshape(self.filters, -1).T
        out = np.maximum(z, 0.0).reshape(win.shape[:3] + (-1,))
        cache = {"win": win, "z": z, "in_shape": xb.shape}
        return out, cache

    def backward(self, upstream: np.ndarray, cache, need_dx: bool = True):
        win, z = cache["win"], cache["z"]
        u = upstream.reshape(z.shape) * (z > 0.0)  # ReLU's subgradient is 0 at exactly 0
        dw = (u.T @ win.reshape(z.shape[0], -1)).reshape(self.weights.shape)
        dx = None
        if need_dx:
            dwin = u @ self.weights.reshape(self.filters, -1)
            dx = _scatter_windows(dwin.reshape(win.shape), self.window, cache["in_shape"])
        return [dw], dx


class MaxPool:
    """Per-channel max over each window; zero padding competes in the max.

    The pool visits the m*n window offsets, each one strided slice of
    the padded input.  Ties go to the first row-major position in the
    window, which alone receives the gradient; a NaN in a window makes
    that output NaN.  Backward takes the offsets in reverse, so every
    input cell sums its terms in the output cells' row-major order.
    """

    def __init__(self, window: WindowSpec):
        self.window = window

    @property
    def params(self) -> list[np.ndarray]:
        return []

    def out_shape(self, input_shape):
        return output_shape(input_shape, self.window)

    def forward(self, xb: np.ndarray):
        first, *rest = _window_slices(xb, self.window)
        out = first.copy()
        argmax = np.zeros(out.shape, dtype=np.int64)
        for k, v in enumerate(rest, 1):
            np.copyto(argmax, k, where=v > out)  # strict: the first maximum keeps a tie
            np.maximum(out, v, out=out)
        cache = {"argmax": argmax, "in_shape": xb.shape}
        return out, cache

    def backward(self, upstream: np.ndarray, cache, need_dx: bool = True):
        if not need_dx:
            return [], None
        argmax = np.moveaxis(cache["argmax"], 0, -1)  # samples last, as _overlap_add sums
        up = np.moveaxis(upstream, 0, -1)
        dx = _overlap_add(lambda k: np.where(argmax == k, up, 0.0), self.window,
                          *argmax.shape[:2], cache["in_shape"])
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
            dx = (upstream @ self.weights).reshape(cache["in_shape"])
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
        """The images as the first layer takes them: `Encoded` for a `QuantumConv`."""
        first = self.layers[0]
        return first.encode(images) if isinstance(first, QuantumConv) else images

    def forward_batch(self, xb):
        """Forward a raw batch or one made by `encode` (or indexed from it)."""
        first, *rest = self.layers
        out, cache = first.forward_encoded(xb) if isinstance(xb, Encoded) else first.forward(xb)
        caches = [cache]
        for layer in rest:
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
