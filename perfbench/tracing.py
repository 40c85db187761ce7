"""Span tracing from outside the package.

`Tracer.install` replaces public qconv functions and methods with timed
wrappers at the place their callers look them up (a module global or a
class attribute), and `Tracer.uninstall` puts the originals back, so an
untraced pass runs the package exactly as shipped.  Spans stay in memory
as ``(id, name, start, end, parent, thread)`` tuples until the run ends.

A span's parent is the innermost open span on its thread.  The first
span on a thread pool worker takes as parent the span that was open in
the thread that submitted the task, so per-seed training spans nest
under the ``run_experiment`` that started them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (module, attribute, span name): functions wrapped where callers find them.
FUNCTIONS = (
    ("qconv.layers", "circuit_stages", "pqc.circuit_stages"),
    ("qconv.layers", "encode_batch", "pqc.encode_batch"),
    ("qconv.layers", "mse_loss_batch", "layers.mse_loss_batch"),
    ("qconv.layers", "ry_amplitudes", "statevector.ry_amplitudes"),
    ("qconv.pqc", "ry_amplitudes", "statevector.ry_amplitudes"),
    ("qconv.statevector", "ry_amplitudes", "statevector.ry_amplitudes"),
    ("qconv.cli", "cmd_repro", "cli.cmd_repro"),
    ("qconv.cli", "run_experiment", "training.run_experiment"),
    ("qconv.training", "train", "training.train"),
    ("qconv.training", "evaluate", "training.evaluate"),
    ("qconv.training", "adam_step", "training.adam_step"),
    ("qconv.training", "generate_dataset", "tetris.generate_dataset"),
    ("qconv.training", "split", "tetris.split"),
    ("qconv.training", "filter_labels", "tetris.filter_labels"),
)

# (class, method) pairs of qconv.layers, each span named layers.Class.method.
METHODS = (
    ("QuantumConv", "forward"), ("QuantumConv", "backward"),
    ("ClassicalConv", "forward"), ("ClassicalConv", "backward"),
    ("MaxPool", "forward"), ("MaxPool", "backward"),
    ("Dense", "forward"), ("Dense", "backward"),
    ("Network", "loss_and_gradients"), ("Network", "set_flat_params"),
)


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


# Span name -> function of the call's arguments giving the identity of
# the work, for the distinct-work ratios.
DISTINCT_KEYS = {
    "layers.QuantumConv.forward": lambda layer, xb: _digest(layer.angles, xb),
    "pqc.circuit_stages": lambda spec, params: (spec, _digest(params)),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.keys: dict[str, list] = {name: [] for name in DISTINCT_KEYS}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def wrap(self, name: str, fn):
        key_of = DISTINCT_KEYS.get(name)
        keys = self.keys.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1]
            if key_of is not None:
                keys.append(key_of(*args, **kwargs))
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1]

                def run(*a, **kw):
                    tracer._local.stack = [parent]
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.stack = None

                return super().submit(run, *args, **kwargs)

        return TracedPool

    def install(self) -> None:
        """Wrap every listed name the package still has.  A name a later
        version removed is skipped, so its metrics read 0."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in FUNCTIONS:
            self._patch(sys.modules.get(module_name), attr, span)
        layers = sys.modules.get("qconv.layers")
        for cls_name, method in METHODS:
            self._patch(getattr(layers, cls_name, None), method, f"layers.{cls_name}.{method}")
        training = sys.modules.get("qconv.training")
        if training is not None and "ThreadPoolExecutor" in vars(training):
            self._saved.append((training, "ThreadPoolExecutor", training.ThreadPoolExecutor))
            training.ThreadPoolExecutor = self._pool_class()

    def _patch(self, owner, attr: str, span: str) -> None:
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(span, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and the durations."""
    children: dict[int, list] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for sid, name, start, end, _, _ in spans:
        stats = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []})
        duration = end - start
        stats["calls"] += 1
        stats["total"] += duration
        stats["self"] += duration - _covered(children.get(sid, []), start, end)
        stats["durations"].append(duration)
    return out
