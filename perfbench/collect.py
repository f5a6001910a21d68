"""Run the benchmark over several seeds and summarise every metric.

usage: python3 perfbench/collect.py [--runs 10] [--trace 0|1] [--workload NAME ...]
                                    [--out FILE]

Run from the root of a source checkout.  For each workload and seeds 1 to
``--runs`` this runs ``run.py`` for ``run_seconds`` of ``BENCHMARK.json``,
each run in its own process, and reads the result from its last line.
Per metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, which ``BENCHMARK.json`` bounds for the end-to-end metrics.  The
SHA-256 of each run's inputs is kept, so two collections can be shown to
have consumed identical captures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from spans import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    inputs = json.dumps(detail["inputs_sha256"], sort_keys=True).encode()
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "inputs_sha256": hashlib.sha256(inputs).hexdigest(),
            "detail": {k: v for k, v in detail.items() if k != "inputs_sha256"}}


def summarise(runs: list[dict], units: dict[str, str]) -> dict:
    """Median, quartiles and spread per metric; layer metrics also say what they should move."""
    moves = {name: m for name, *_, m in LAYER_METRICS}
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": units.get(name, ""), "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(med) if med else None}
        if name in moves:
            out[name]["moves"] = moves[name]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", default=None, help="write the collection as JSON here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    bounds = {m["name"]: m.get("bound") for m in metrics}
    collection = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "seconds": seconds, "trace": args.trace, "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        runs = [run_once(name, seed, seconds, args.trace)
                for seed in range(1, args.runs + 1)]
        summary = summarise(runs, units)
        collection["workloads"][name] = {"summary": summary, "runs": runs}
        print(f"{name}: {sum(r['failed'] for r in runs)} failed of "
              f"{sum(r['attempted'] for r in runs)} attempted")
        for metric, s in summary.items():
            bound = bounds.get(metric)
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {metric:28s} median {s['median']:.6g} {s['unit']:13s} "
                  f"IQR/median {spread}" + (f" (bound {bound})" if bound else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(collection, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
