"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at minimal length (the warm-up pass plus one timed
pass, and one traced pass with tracing on) and asserts that each run is
correct and prints exactly the metrics BENCHMARK.json names, with their
units.  It then checks that a deliberately wrong reference and a
training run cut short each fail the output check,
and that the tracer skips names the package does not have.  Exits
non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import sys

from suite import SPEC, WORKLOAD_NAMES, run_one


def run_workload(workload: str, trace: int) -> dict:
    _, result = run_one(workload, 0, 0, trace)
    del result["pass_walls"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == want, f"{workload} trace {trace}: metrics differ: {set(got) ^ set(want)}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
        if not trace:
            assert metric["value"] > 0, (workload, name, metric)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def check_wrong_reference() -> None:
    import run as bench
    import workloads

    q = bench.fresh_import()
    references = workloads.load_references()
    task = workloads.build_tasks(q, "cnn", 0)[0]
    config = workloads.train_config(q)
    records = q.training.train(task.net, task.train_set, task.test_set, config)
    assert workloads.check_train(task, records, references), "true reference rejected"
    key = workloads.reference_key(task.model, task.architecture, task.labels, task.seed)
    # (field, change): a train loss off by 1e-6 relative, a test loss off
    # by 1e-6 relative, an accuracy off by two test samples
    for field, change in ((1, 1e-6 * references[key][-1][1]), (2, 1e-6 * references[key][-1][2]),
                          (3, 2.0 / len(task.test_set))):
        wrong = copy.deepcopy(references)
        wrong[key][-1][field] += change
        assert not workloads.check_train(task, records, wrong), f"wrong field {field} accepted"
    # a run that stops at an earlier eval point matches that point's record
    assert not workloads.check_train(task, records[:-1], references), "truncated run accepted"



def check_missing_names() -> None:
    """A name the package no longer has is skipped by the tracer and reads 0."""
    import run as bench
    import tracing

    bench.fresh_import()
    saved = tracing.FUNCTIONS, tracing.METHODS
    tracing.FUNCTIONS = saved[0] + (("qconv.layers", "no_such_function", "pqc.gone"),
                                    ("qconv.no_such_module", "train", "training.gone"))
    tracing.METHODS = saved[1] + (("NoSuchLayer", "forward"), ("Dense", "no_such_method"))
    try:
        tracer = tracing.Tracer()
        tracer.install()
        wrapped = {attr for _, attr, _ in tracer._saved}
        tracer.uninstall()
    finally:
        tracing.FUNCTIONS, tracing.METHODS = saved
    assert {"circuit_stages", "train", "forward"} <= wrapped, wrapped
    metrics = bench.layer_metrics(tracer, 1, (1.0, 1.0))
    assert metrics["pqc.circuit_stages.calls"]["value"] == 0, metrics


def main() -> int:
    for workload in WORKLOAD_NAMES:
        run_workload(workload, 0)
        layers = run_workload(workload, 1)
        print(f"{workload}: end-to-end and per-layer metrics complete")
        if workload == "cnn-train":
            for name in ("layers.QuantumConv.forward.calls", "layers.QuantumConv.backward.calls",
                         "pqc.circuit_stages.calls", "pqc.encode_batch.calls",
                         "statevector.ry_amplitudes.calls"):
                assert layers[name] == 0, (workload, name, layers[name])
        if workload == "qccnn-train":
            assert layers["layers.QuantumConv.forward.calls"] > 0
            assert layers["training.seed_overlap"] == 1.0, layers["training.seed_overlap"]
        if workload == "repro-multiseed":
            assert layers["training.seed_overlap"] > 0
            assert layers["cli.cmd_repro.self_ms"] > 0
    check_wrong_reference()
    print("wrong references and truncated runs are rejected")
    check_missing_names()
    print("the tracer skips names the package lacks")
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
