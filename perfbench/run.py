"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload qccnn-train --seed 0 --seconds 40 --trace 0

Run from the root of a qconv checkout; the package is imported from
``src/``.  After a warm-up pass, the run repeats timed passes of the
workload for ``--seconds``, times ``setup_s`` over fresh imports before
and between the passes, and checks every output.  It prints an environment line,
the pass times, one line per metric and, last, one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` passes alternate between untraced and traced; the metrics
are the per-layer figures of the traced passes, per pass, plus the
tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Context, load_references  # noqa: E402

SETUP_REPS = 5
SETUP_EVERY_S = 2.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QCONV_THREADS")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here at all."""


def fresh_import() -> SimpleNamespace:
    """Import qconv from this checkout, dropping any earlier import first."""
    src = (ROOT / "src").resolve()
    if not (src / "qconv" / "__init__.py").is_file():
        raise BenchmarkError(f"no qconv sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "qconv" or m.startswith("qconv.")]:
        del sys.modules[name]
    cli = importlib.import_module("qconv.cli")
    if src not in Path(cli.__file__).resolve().parents:
        raise BenchmarkError(f"qconv imported from {cli.__file__}, not from {src}")
    return SimpleNamespace(cli=cli, training=sys.modules["qconv.training"])


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer: tracing.Tracer, passes: int, overhead: tuple[float, float]) -> dict:
    """Per-layer figures of the traced passes, each per pass unless named otherwise."""
    stats = tracing.summarize(tracer.spans)
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "durations": []}

    def get(name: str) -> dict:
        return stats.get(name, empty)

    def calls(name):
        return (f"{name}.calls", get(name)["calls"] / passes, "count")

    def self_ms(name):
        return (f"{name}.self_ms", 1e3 * get(name)["self"] / passes, "ms")

    def total_ms(name):
        return (f"{name}.total_ms", 1e3 * get(name)["total"] / passes, "ms")

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def distinct(name):
        keys = tracer.keys[name]
        return (f"{name}.distinct_ratio", ratio(len(set(keys)), len(keys)), "ratio")

    qc_fwd, qc_bwd = "layers.QuantumConv.forward", "layers.QuantumConv.backward"
    step = sorted(get("layers.Network.loss_and_gradients")["durations"])
    train = get("training.train")
    experiments = get("training.run_experiment")
    overlap_base = experiments["total"] if experiments["calls"] else train["total"]

    rows = [
        calls(qc_fwd), self_ms(qc_fwd), distinct(qc_fwd),
        calls(qc_bwd), self_ms(qc_bwd),
        ("layers.QuantumConv.train_share",
         ratio(get(qc_fwd)["total"] + get(qc_bwd)["total"], train["total"]), "ratio"),
    ]
    for layer in ("ClassicalConv", "MaxPool", "Dense"):
        rows += [self_ms(f"layers.{layer}.forward"), self_ms(f"layers.{layer}.backward")]
    rows += [
        ("layers.Network.loss_and_gradients.p50_ms",
         1e3 * float(np.percentile(step, 50)) if step else 0.0, "ms"),
        ("layers.Network.loss_and_gradients.p99_ms",
         1e3 * float(np.percentile(step, 99)) if step else 0.0, "ms"),
        ("layers.Network.loss_and_gradients.samples", len(step), "count"),
        self_ms("layers.Network.set_flat_params"),
        self_ms("layers.mse_loss_batch"),
        calls("pqc.circuit_stages"), self_ms("pqc.circuit_stages"), distinct("pqc.circuit_stages"),
        ("pqc.circuit_stages.forward_share",
         ratio(get("pqc.circuit_stages")["total"], get(qc_fwd)["total"]), "ratio"),
        calls("pqc.encode_batch"), self_ms("pqc.encode_batch"),
        calls("statevector.ry_amplitudes"), self_ms("statevector.ry_amplitudes"),
        calls("training.evaluate"), self_ms("training.evaluate"), total_ms("training.evaluate"),
        self_ms("training.adam_step"),
        ("training.train.ms_per_seed", 1e3 * ratio(train["total"], train["calls"]), "ms"),
        ("training.train.ms_per_iter", 1e3 * ratio(train["total"], len(step)), "ms"),
        ("training.seed_overlap", ratio(train["total"], overlap_base), "ratio"),
        self_ms("tetris.generate_dataset"), self_ms("tetris.split"), self_ms("tetris.filter_labels"),
        self_ms("cli.cmd_repro"),
        ("trace.passes", passes, "count"),
        ("trace.overhead_ms", 1e3 * (overhead[0] - overhead[1]), "ms"),
        ("trace.overhead_frac", ratio(overhead[0] - overhead[1], overhead[1]), "ratio"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def measure(workload, ctx: Context, seconds: float, trace: bool, spans_path=None) -> dict:
    setup_times = []

    def time_setup(reps: int) -> SimpleNamespace:
        for _ in range(reps):
            started = time.perf_counter()
            q = fresh_import()
            workload.setup(q, ctx)
            setup_times.append(time.perf_counter() - started)
        return q

    q = time_setup(SETUP_REPS)
    last_setup = time.perf_counter()
    tracer = tracing.Tracer() if trace else None
    # Pass 0 warms up and is checked but not timed.  Timed passes then run
    # while the next one, taken to last as long as the one before, ends
    # within `seconds`; with tracing, untraced and traced passes alternate.
    walls = {False: [], True: []}
    cpus, ops = [], 0
    attempted = failed = 0
    began = last = 0.0
    index = 0
    while (index <= 1 or time.perf_counter() - began + last <= seconds
           or (trace and not walls[True])):
        if index == 1:
            began = time.perf_counter()
        traced = trace and index > 0 and index % 2 == 0
        started = time.perf_counter()
        if not trace and started - last_setup >= SETUP_EVERY_S:
            # Set-up is timed again every SETUP_EVERY_S, so its median spans
            # the run like the passes do.  The passes keep the modules they
            # warmed up with.
            kept = {name: m for name, m in sys.modules.items()
                    if name == "qconv" or name.startswith("qconv.")}
            time_setup(1)
            sys.modules.update(kept)
            last_setup = time.perf_counter()
        if traced:
            tracer.install()
        try:
            inputs = workload.prepare(q, ctx, index)
            cpu0, wall0 = time.process_time(), time.perf_counter()
            done, result = workload.execute(q, inputs)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        finally:
            if traced:
                tracer.uninstall()
        if index > 0:
            walls[traced].append(wall)
            if not traced:
                cpus.append(cpu)
                ops += done
        a, f = workload.check(q, ctx, inputs, result)
        attempted, failed = attempted + a, failed + f
        last = time.perf_counter() - started
        index += 1

    if trace:
        metrics = layer_metrics(tracer, len(walls[True]),
                                (statistics.median(walls[True]), statistics.median(walls[False])))
        if spans_path:
            tracer.write(spans_path)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.fmean(walls[False]),
            "ops_per_s": ops / sum(walls[False]),
            "cpu_s": statistics.fmean(cpus),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
            "pass_walls": {"untraced": walls[False], "traced": walls[True]}}


def run(workload_name: str, seed: int, seconds: float, trace: bool, spans_path=None) -> dict:
    """One run, with a temporary directory removed afterwards.  It sits
    under the checkout, not in the system's temporary directory, because
    the benchmark may read and write only inside its checkout."""
    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_parent) as tmp:
            ctx = Context(seed, Path(tmp), load_references())
            return measure(WORKLOADS[workload_name], ctx, seconds, trace, spans_path)
    finally:
        with contextlib.suppress(OSError):
            tmp_parent.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, also write every span to this JSONL file")
    args = parser.parse_args(argv)
    try:
        env = environment()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    walls = result.pop("pass_walls")
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']} "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    print("pass_walls " + json.dumps(walls))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:16s} {name:44s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
