"""Run every workload and print each metric by workload, name and unit.

    python3 perfbench/suite.py                   # end-to-end metrics, tracing off
    python3 perfbench/suite.py --trace 1         # per-layer profile
    python3 perfbench/suite.py --seeds 0-9       # spread over seeds
    python3 perfbench/suite.py --save out.json   # also write the results

Each workload runs in its own process (``run.py``), so ``peak_rss_mb``
is that workload's own.  With several seeds, each metric is printed as
its median, quartiles and quartile spread (IQR / median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, SPEC

WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(environment, result) of one run.py process; raises on a failed run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    result["pass_walls"] = next(json.loads(line[11:]) for line in lines
                                if line.startswith("pass_walls "))
    return env, result


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as the acceptance rule computes it."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0", help="'3', '0,4,7' or '0-9' (default 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write environment and every result to this JSON file")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    seconds = SPEC["run_seconds"]
    saved = {"seconds": seconds, "trace": args.trace, "seeds": seeds, "results": {}}
    failures = 0
    for workload in WORKLOAD_NAMES:
        results = []
        for seed in seeds:
            env, result = run_one(workload, seed, seconds, args.trace)
            saved["env"] = env
            results.append(result)
            failures += result["failed"]
        saved["results"][workload] = results
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: attempted {attempted}, failed {failed}, "
              f"failed_frac {failed / attempted:.4g}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = quartile_spread(values)
            text = f"{med:12.6g}" if len(values) == 1 else (
                f"{med:12.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
            print(f"  {workload:16s} {name:44s} {first['unit']:6s} {text}")
    print("env " + json.dumps(saved.get("env"), sort_keys=True))
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
