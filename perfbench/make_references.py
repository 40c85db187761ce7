"""Regenerate references.json: every eval record of every pool seed.

    python3 perfbench/make_references.py

Trains each model/architecture/label combination for TRAIN_ITERATIONS on
every seed of the pool, through the same code path as the training
workloads, and stores [iteration, train loss, test loss, test accuracy]
at each eval point.  Run it only when the reference numbers are meant
to change, and say why in the change that does.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, fresh_import, git_commit
from workloads import REFERENCE_FILE, SEED_POOL, TRAIN_ITERATIONS, build_tasks, reference_key, train_config


def main() -> int:
    q = fresh_import()
    config = train_config(q)
    runs = {}
    for seed in range(SEED_POOL):
        for model in q.training.MODELS:
            for task in build_tasks(q, model, seed):
                records = q.training.train(task.net, task.train_set, task.test_set, config)
                runs[reference_key(model, task.architecture, task.labels, seed)] = [
                    [r.iteration, r.train_loss, r.test_loss, r.test_accuracy] for r in records
                ]
        print(f"seed {seed} done", file=sys.stderr)
    payload = {"commit": git_commit(ROOT), "iterations": TRAIN_ITERATIONS, "runs": runs}
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
