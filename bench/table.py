"""Print every end-to-end metric, with its unit, for all three workloads.

Usage, from the root of a checkout:

    python3 bench/table.py [--seed 0]

Each workload runs in its own process (`bench/run.py --trace 0`) for
BENCHMARK.json's run_seconds, so peak memory is per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args()
    status = 0
    print(f"{'workload':16s} {'metric':14s} {'value':>12s}  unit    (attempted, failed)")
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:16s} failed to run:\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        tag = f"({result['attempted']}, {result['failed']})"
        for metric in spec["end_to_end"]:
            m = result["metrics"][metric["name"]]
            print(f"{workload:16s} {metric['name']:14s} {m['value']:12.6g}  {m['unit']:7s} {tag}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
