"""Steadiness check: run one workload on several seeds and report spreads.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload spec-sweep --seeds 1-10

For each metric it prints the median of the runs and the distance between
their first and third quartile as a share of that median, next to the bound
``BENCHMARK.json`` fixes for the metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from bench_metrics import median, relative_spread  # noqa: E402


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in _seeds(args.seeds):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if completed.returncode != 0:
            print(completed.stdout + completed.stderr, file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        for name, record in result["metrics"].items():
            values.setdefault(name, []).append(record["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={record['value']:.4g}" for name, record in result["metrics"].items()
        ), flush=True)

    for name, series in values.items():
        middle = median(series)
        spread = relative_spread(series) if len(series) > 1 and middle else float("nan")
        bound = bounds[name]
        flag = "" if spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:40s} median {middle:12.5g}  spread {spread:7.3f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
