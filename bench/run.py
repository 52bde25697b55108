#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``criteval evaluate`` / ``criteval sweep``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep_grid --seed 0 --seconds 20 --trace 0

``--trace 0`` runs the real CLI as a subprocess in a closed loop, one
invocation at a time, for ``--seconds`` seconds, and reports wall time, CPU
time and peak memory of each process plus the start-up time of
``criteval <command> --help``. ``--trace 1`` runs the CLI once untraced, once
with one worker thread, and twice in-process on one worker thread through
``criteval.cli.main``: plain, then with every layer's public functions
wrapped in spans (see spans.py). Per-layer metrics come from the span file
of the traced run.

Inputs are generated from the seed by ``criteval.synthgen`` (workloads.py).
Every invocation's outputs are checked (check.py); a nonzero exit or a
mismatch counts as a failed invocation. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"
LAUNCHER = "import sys; from criteval.cli import main; sys.exit(main())"
HELP_PER_ROUND = 3
SWEEP_ORACLE_CELLS = {"sweep_grid": 6, "sweep_dense": 1}


@dataclass(frozen=True)
class Sample:
    """One CLI process: wall time from spawn to exit, user+sys CPU, peak RSS."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["CRIT_EVAL_THREADS"] = str(threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], env: dict[str, str], log: Path) -> Sample:
    """Run ``criteval <args>`` in a fresh interpreter and reap it with wait4."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, *args], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def machine(worker_count: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"nproc": usable_cores(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "workers": worker_count}


def tail_percentile(values: list[float]) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 90):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}={statistics.quantiles(values, n=1000)[round(p * 10) - 1]:.4f}"
    return "no tail percentile (fewer than 20 samples)"


class Bench:
    """One benchmark run: a work directory, generated inputs and output checks."""

    def __init__(self, workload, seed: int, reference: bool = True):
        import check
        import workloads

        self.check = check
        self.workload = workload
        self.seed = seed
        self.threads = usable_cores()
        self.dir = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = self.dir / "inputs"
        self.out = self.dir / "out"
        self.corpus = workloads.write_inputs(workload, seed, self.inputs)
        self.args = workloads.cli_args(workload, self.inputs, self.out)
        self.expected = None
        if reference and seed == workloads.DEFAULT_SEED:
            self.expected = json.loads((REFERENCE / f"{workload.name}.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def record(self, ok: bool, what: str) -> None:
        """Count one invocation; check its outputs when it exited cleanly."""
        self.attempted += 1
        if not ok:
            errors = [what]
        elif self.expected is None:
            self.expected = self.check.digest_outputs(self.out)
            errors = []
        else:
            errors = self.check.compare_outputs(self.expected, self.out)
        self.failed += bool(errors)
        self.errors += [f"invocation {self.attempted}: {e}" for e in errors]

    def invoke(self, threads: int | None = None) -> Sample:
        shutil.rmtree(self.out, ignore_errors=True)
        log = self.dir / "stderr.txt"
        sample = spawn(self.args, child_env(threads or self.threads), log)
        what = f"exit {sample.returncode}: {log.read_text().strip()[-500:]}"
        self.record(sample.returncode == 0, what)
        return sample

    def in_process(self) -> float:
        """Wall time of ``criteval.cli.main`` called in this process."""
        from criteval import cli

        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = cli.main(list(self.args))
            elapsed = time.perf_counter() - start
        self.record(code == 0, f"exit {code}: {sink.getvalue()[-500:]}")
        return elapsed

    def oracle(self) -> list[str]:
        if self.errors or not self.out.is_dir():
            return []
        if self.workload.command == "sweep":
            return self.check.oracle_sweep(self.args, self.out, self.seed,
                                           SWEEP_ORACLE_CELLS[self.workload.name])
        return self.check.oracle_evaluate(self.args, self.out, self.seed)


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Closed-loop rounds of ``--help`` samples followed by one timed invocation.

    ``criteval <command> --help`` in a fresh interpreter times start-up,
    imports and the parser build. Its samples are spread over the run, so a
    short noisy moment of the machine cannot set the whole figure.
    """
    env = child_env(bench.threads)
    log = bench.dir / "help.txt"
    setup: list[float] = []
    samples: list[Sample] = []
    rounds: list[float] = []
    start = time.perf_counter()
    # Start another round only while it is expected to end within half a round
    # of the window's end, so a run lasts about ``seconds`` on average whatever
    # the invocation length.
    while not rounds or time.perf_counter() - start + statistics.median(rounds) / 2 <= seconds:
        begin = time.perf_counter()
        for _ in range(HELP_PER_ROUND):
            sample = spawn([bench.workload.command, "--help"], env, log)
            if sample.returncode != 0:
                raise RuntimeError(f"criteval {bench.workload.command} --help exited "
                                   f"{sample.returncode}: {log.read_text()[-500:]}")
            setup.append(sample.wall_s)
        samples.append(bench.invoke())
        rounds.append(time.perf_counter() - begin)
    series = {
        "wall_s": ("s", [s.wall_s for s in samples]),
        "cpu_s": ("s", [s.cpu_s for s in samples]),
        "peak_rss_mb": ("MB", [s.peak_rss_mb for s in samples]),
        "setup_s": ("s", setup),
    }
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (unit, values) in series.items()}
    return metrics, series


def traced_run(bench: Bench) -> tuple[dict, dict]:
    import spans
    from criteval import metrics as crit_metrics

    wall = bench.invoke().wall_s
    serial = bench.invoke(threads=1).wall_s
    # The in-process passes run on one worker thread: with more, a span's
    # wall time would include waits for the GIL held by the other threads.
    os.environ["CRIT_EVAL_THREADS"] = "1"
    try:
        plain = bench.in_process()
        tracer = spans.Tracer()
        with tracer.installed():
            traced = bench.in_process()
    finally:
        os.environ["CRIT_EVAL_THREADS"] = str(bench.threads)
    span_file = bench.dir / "spans.csv"
    tracer.write(span_file)
    shutil.copy(span_file, WORK / f"last-{bench.workload.name}-spans.csv")
    if tracer.missing:
        print(f"hooks not found (their layers may report zero calls): {tracer.missing}",
              file=sys.stderr)
    layers = spans.layer_metrics(spans.read_spans(span_file))
    units = {"calls": "count", "objects": "count", "pairs": "count", "elements": "count",
             "mb": "MB", "s": "s", "self_s": "s"}
    metrics = {name: {"value": value, "unit": units[name.split(".", 1)[1]]}
               for name, value in layers.items()}
    metrics["pool.workers"] = {"value": crit_metrics.worker_count(), "unit": "count"}
    metrics["pool.serial_wall_s"] = {"value": serial, "unit": "s"}
    metrics["pool.speedup"] = {"value": serial / wall, "unit": "ratio"}
    metrics["trace.total_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    series = {"wall_s": ("s", [wall]), "in_process_s": ("s", [plain])}
    return metrics, series


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "criteval" / "cli.py").is_file():
        print(f"error: {SRC / 'criteval'} not found; run from the root of a criteval checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from criteval import metrics as crit_metrics

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    os.environ["CRIT_EVAL_THREADS"] = str(usable_cores())
    bench = Bench(workload, args.seed)
    try:
        if args.trace:
            metrics, series = traced_run(bench)
        else:
            metrics, series = timed_run(bench, args.seconds)
        oracle_errors = bench.oracle()
    finally:
        bench.close()

    details = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "machine": machine(crit_metrics.worker_count()), "corpus": bench.corpus,
        "samples": {name: values for name, (_, values) in series.items()},
        "errors": bench.errors + oracle_errors,
    }
    (WORK / f"last-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2) + "\n")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("machine", json.dumps(details["machine"]))
    print("corpus", json.dumps(bench.corpus))
    for error in details["errors"]:
        print("error", error, file=sys.stderr)
    for name, (unit, values) in series.items():
        print(f"{name:<14} {statistics.median(values):10.4f} {unit:<5} median of n={len(values)}, "
              f"min {min(values):.4f}, max {max(values):.4f}, {tail_percentile(values)}")
    if not args.trace:
        print(f"{'fail_ratio':<14} {bench.failed / bench.attempted:10.4f} ratio "
              f"{bench.failed} failed of {bench.attempted} attempted")
    else:
        for name, metric in metrics.items():
            print(f"{name:<20} {metric['value']:14.4f} {metric['unit']}")
    result = {
        "correct": not details["errors"],
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
