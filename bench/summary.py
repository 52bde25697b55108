#!/usr/bin/env python3
"""Print every end-to-end metric, with units, for every workload.

    python3 bench/summary.py [--seed 0] [--seconds 30]

Runs ``bench/run.py --trace 0`` once per workload of BENCHMARK.json and adds
``fail_ratio`` (failed / attempted invocations) to each row.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    status = 0
    for workload in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload['name']}: run.py exited {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        cells = [f"{name}={m['value']:.4f} {m['unit']}" for name, m in result["metrics"].items()]
        cells.append(f"fail_ratio={result['failed'] / result['attempted']:.4f} ratio")
        print(f"{workload['name']:<15} correct={result['correct']} "
              f"n={result['attempted']}  " + "  ".join(cells))
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
