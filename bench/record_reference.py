#!/usr/bin/env python3
"""Record the default-seed output digests that every timed run is checked against.

Run from the root of a checkout after a change that alters output bytes on
purpose:

    python3 bench/record_reference.py [workload ...]
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import check  # noqa: E402
import workloads  # noqa: E402


def main(names: list[str]) -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        path = run.REFERENCE / f"{name}.json"
        path.unlink(missing_ok=True)
        bench = run.Bench(workloads.WORKLOADS[name], workloads.DEFAULT_SEED, reference=False)
        try:
            bench.invoke()
            errors = bench.errors + bench.oracle()
            if errors:
                print(f"{name}: not recorded: {errors}", file=sys.stderr)
                return 1
            path.write_text(json.dumps(check.digest_outputs(bench.out), indent=1) + "\n")
        finally:
            bench.close()
        print(f"{name}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
