"""Command-line front end: evaluate, sweep, rank, generate, birdview."""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import pickle
import sys
from pathlib import Path
from typing import Any, Callable, Collection, Mapping, Sequence

from . import metrics, model, render, sweep, synthgen
from .criticality import CriticalityConfig
from .matching import distance_limits_default


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {text!r}") from None


def _parse_config(text: str) -> CriticalityConfig:
    values = _parse_floats(text)
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"expected dmax,rmax,tmax, got {text!r}")
    try:
        return CriticalityConfig(*values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _typed(arg: str) -> str:
    """A command-line name as the UTF-8 text of its bytes, which an ASCII locale leaves escaped."""
    try:
        return arg.encode("utf-8", "surrogateescape").decode("utf-8", "surrogateescape")
    except UnicodeEncodeError:  # a surrogate that escapes no byte: the name is kept as given
        return arg


def _out_dir(text: str) -> Path:
    """``--out`` as a directory that can be made: it, or its nearest existing ancestor, is one."""
    out = Path(text)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ValueError(f"--out {text!r}: {str(existing)!r} is not a directory")
    return out


def _load_grid(spec: str) -> sweep.ConfigGrid:
    """The default grid, or one read from a JSON file; errors name the JSON path."""
    if spec == "default":
        return sweep.default_grid()
    data = model.read_json(spec)
    values = {}
    for key in ("d_values", "r_values", "t_values"):
        items = model._require(data, key, "$")
        if not isinstance(items, list):
            raise model.IngestError(f"$.{key}: expected a list of numbers, got {items!r}")
        values[key] = tuple(model._finite(v, f"$.{key}[{i}]") for i, v in enumerate(items))
    try:
        return sweep.ConfigGrid(**values)
    except ValueError as exc:
        raise model.IngestError(f"$.{exc}") from None


def _load_results(dataset: model.Dataset, paths: Mapping[str, str], class_name: str,
                  max_range: float, workers: int) -> dict[str, model.DetectionTable]:
    """The table of each results file, loaded in up to ``workers`` forked processes; then, in ``paths``
    order, each unknown-frame warning and the first load error, after ``detector {name!r}: `` for a
    named file. A class that no input has (a vacuous 1.0) is rejected; one with no ground truth
    within ``max_range`` of its frame's ego, which ranks nothing either, is warned of."""
    def load(name: str) -> model.DetectionTable | str:
        try:
            return model.load_detections(paths[name])
        except (OSError, ValueError) as exc:
            return str(exc)

    tables = _fan_out(load, paths, workers)
    for name in paths:
        label, table = f"detector {name!r}: " if name else "", tables[name]
        if isinstance(table, str):
            raise ValueError(label + table)
        unknown = model.ingest_summary(dataset, table)["unknown_frame_ids"]
        if unknown:
            more = " ..." if len(unknown) > 5 else ""
            sys.stderr.write(f"warning: {label}{len(unknown)} detection frame_id(s) not present in "
                             "ground truth (skipped during evaluation): "
                             f"{', '.join(unknown[:5])}{more}\n")
    present = {g.class_name for f in dataset.frames for g in f.ground_truth}.union(
        *(table.classes for table in tables.values()))
    if class_name not in present:
        raise ValueError(f"class {class_name!r} is in no ground truth or detection; "
                         f"classes present: {', '.join(sorted(present)) or 'none'}")
    if not any(math.dist(g.center, f.ego.center) <= max_range  # CurveAccumulator's range rule
               for f in dataset.frames for g in f.ground_truth if g.class_name == class_name):
        sys.stderr.write(f"warning: class {class_name!r} has no ground truth within {max_range:g} m "
                         "of the ego; recall is vacuous, so AP and AP_crit rank nothing\n")
    return tables


def _curve_files(class_name: str, limits: Sequence[float]) -> dict[float, str]:
    """The curve CSV name of each limit, for a class without '/' or '\\'; no two limits share one."""
    if any(c in class_name for c in "/\\"):
        raise ValueError(f"--class {class_name!r} names the curve files: it must hold no '/' or '\\'")
    files: dict[float, str] = {}
    first: dict[str, float] = {}
    for limit in limits:
        name = files[limit] = f"curve_{class_name}_l{limit:g}.csv"
        if first.setdefault(name, limit) != limit:
            raise ValueError(f"distance limits {first[name]!r} and {limit!r} both write {name}")
    return files


def _cmd_evaluate(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    cfg = CriticalityConfig(args.dmax, args.rmax, args.tmax)
    # The curve files and the header take the class as typed: an ASCII locale writes back its bytes.
    class_name = _typed(args.class_name)
    limits = metrics.check_scope(class_name, args.dist_limits, args.max_range)
    curve_files = _curve_files(args.class_name, limits)
    dataset = model.load_ground_truth(args.gt)
    table = _load_results(dataset, {"": args.pred}, class_name, args.max_range, 1)[""]
    report = metrics.evaluate_detector(dataset, table, class_name, limits, cfg,
                                       ap_style=args.ap_style, max_range=args.max_range)
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_report_json(report, out / "report.json")
    for res in report.results:
        metrics.write_curve_csv(res.arrays, out / curve_files[res.distance_limit])
    print(f"class={args.class_name} ap_style={args.ap_style} "
          f"dmax={cfg.d_max:g} rmax={cfg.r_max:g} tmax={cfg.t_max:g}")
    print(f"{'l':>6}  {'AP':>10}  {'AP_crit':>10}")
    for res in report.results:
        print(f"{res.distance_limit:>6g}  {res.ap:>10.6f}  {res.ap_crit:>10.6f}")
    print(f"report written to {out / 'report.json'}")
    return 0


def _fan_out(fn: Callable[[str], Any], names: Collection[str], workers: int) -> dict[str, Any]:
    """``{name: fn(name) for name in sorted(names)}`` in up to ``workers`` forked processes."""
    if min(workers, len(names)) <= 1 or not hasattr(os, "fork"):
        return {name: fn(name) for name in sorted(names)}
    import select
    import signal
    import traceback
    waiting, running, replies, parent = sorted(names, reverse=True), {}, {}, os.getpid()
    handler, held = signal.getsignal(signal.SIGINT), []
    try:
        while waiting or running:
            while waiting and len(running) < workers:
                name, (read, write) = waiting.pop(), os.pipe()
                sys.stdout.flush()
                sys.stderr.flush()
                signal.signal(signal.SIGINT, lambda *_: held.append(1))  # held until the pid is kept
                running[open(read, "rb")] = name, os.fork()
                signal.signal(signal.SIGINT, handler)
                if held:
                    signal.raise_signal(signal.SIGINT)
                if os.getpid() != parent:  # the worker sends (result, None) or (error, traceback)
                    try:
                        reply = fn(name), None
                    except BaseException as exc:
                        reply = exc, traceback.format_exc()
                    try:
                        pickle.loads(data := pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
                    except BaseException:  # a reply that cannot be pickled and loaded goes as text
                        trace = (reply[1] or "") + traceback.format_exc()
                        data = pickle.dumps((RuntimeError(trace), None))
                    with open(write, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                os.close(write)
            with select.select(list(running), [], [])[0][0] as pipe:
                data, status = pipe.read(), os.waitpid(running[pipe][1], 0)[1]
            name = running.pop(pipe)[0]  # reaped, so no longer running
            replies[name] = pickle.loads(data) if data and not status else (ChildProcessError(
                f"detector {name!r}: worker exited with status {os.waitstatus_to_exitcode(status)}"), None)
    finally:
        if os.getpid() != parent:  # a worker never returns into its caller's stack
            os._exit(1)
        signal.signal(signal.SIGINT, handler)  # after a failed fork
        for pipe, (_, pid) in running.items():  # after an interrupt or a failed fork
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for value, trace in (replies[name] for name in sorted(replies)):
        if isinstance(value, BaseException):
            raise value from RuntimeError(f"in the worker:\n{trace}") if trace else None
    return {name: replies[name][0] for name in sorted(replies)}


def _cmd_sweep(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    workers = metrics.worker_count()
    grid = _load_grid(args.grid)
    class_name = _typed(args.class_name)
    metrics.check_scope(class_name, args.dist_limits, args.max_range)
    paths: dict[str, str] = {}
    for spec in args.pred:
        name, sep, path = spec.partition("=")
        name, path = (_typed(name), path) if sep else (_typed(Path(spec).stem), spec)
        if not name:
            raise ValueError(f"--pred {spec!r}: the detector name is empty")
        if name in paths:
            raise ValueError(f"duplicate detector name {name!r}")
        paths[name] = path
    dataset = model.load_ground_truth(args.gt)
    tables = _load_results(dataset, paths, class_name, args.max_range, workers)
    parts = _fan_out(lambda name: sweep.evaluate_sweep(  # the workers inherit the tables
        dataset, {name: tables[name]}, grid, args.dist_limits, class_name,
        ap_style=args.ap_style, max_range=args.max_range), tables, workers)
    rows = [row for part in parts.values() for row in part]
    out.mkdir(parents=True, exist_ok=True)
    sweep.write_sweep_csv(rows, out / "sweep.csv")
    sweep.write_rankings_json(sweep.rankings_report(rows, args.dist_limits), out / "rankings.json")
    print(f"swept {len(parts)} detector(s) x {len(args.dist_limits)} limit(s) x "
          f"{len(grid)} config(s) -> {len(rows)} rows")
    print(f"table written to {out / 'sweep.csv'}; rankings to {out / 'rankings.json'}")
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    by_limit: dict[float, dict[tuple[float, ...], dict[str, sweep.SweepRow]]] = {}
    for (limit, *config), cell in sweep.ranking_cells(sweep.read_sweep_csv(args.table)).items():
        by_limit.setdefault(limit, {})[tuple(config)] = cell
    if not by_limit:
        raise ValueError(f"{args.table}: no rows")
    if args.limit is not None and args.limit not in by_limit:
        listed = ", ".join(f"{limit:g}" for limit in by_limit) or "none"
        raise ValueError(f"{args.table}: no rows with l={args.limit:g}; limits present: {listed}")
    text = lambda c: ",".join(f"{v:g}" for v in c)
    encoding = sys.stdout.encoding or "utf-8"  # a name it cannot hold prints escaped
    shown = lambda name: name.encode(encoding, "backslashreplace").decode(encoding)
    other = "ap" if args.metric == "ap_crit" else "ap_crit"
    for limit in by_limit if args.limit is None else [args.limit]:
        cells = by_limit[limit]
        key = next(iter(cells)) if args.config is None else dataclasses.astuple(args.config)
        if key not in cells:
            listed = "; ".join(text(c) for c in list(cells)[:5]) + ("; ..." if len(cells) > 5 else "")
            raise ValueError(f"{args.table}: no rows with l={limit:g} and config {text(key)}; "
                             f"configs present ({len(cells)}): {listed}")
        cell = cells[key]
        order = sweep.rank(cell, args.metric)
        n_moved, max_displacement = sweep.ranking_diff(sweep.rank(cell, other), order)
        print(f"l={limit:g} config=({text(key)}) metric={args.metric}")
        for i, name in enumerate(order, start=1):
            print(f"  {i}. {shown(name)}  {getattr(cell[name], args.metric):.6f}")
        print(f"  vs {other}: n_moved={n_moved} max_displacement={max_displacement}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    data = model.read_json(args.spec)
    root = "$.scenario" if isinstance(data, dict) and "scenario" in data else "$"
    spec = synthgen.scenario_from_dict(data["scenario"] if root != "$" else data, root)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    detectors = data.get("detectors", {})
    if not isinstance(detectors, dict):
        raise model.IngestError("$.detectors: expected an object")
    if "gt" in detectors:
        raise model.IngestError("$.detectors.gt: the name is taken by the ground truth, gt.json")
    for name in detectors:  # each names a file in --out
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise model.IngestError(f"$.detectors.{name}: a detector name must be a file name: "
                                    "not empty, '.' or '..', and without '/', '\\' or NUL")
    try:
        dataset = synthgen.gen_dataset(spec)
    except ValueError as exc:
        raise ValueError(f"{root}.{exc}") from None
    files = [(out / "gt.json", model.dataset_to_dict(dataset))]
    # Every detector is drawn before any file is written.
    for i, name in enumerate(sorted(detectors)):
        error_model = synthgen.error_model_from_dict(detectors[name], f"$.detectors.{name}")
        try:
            detections = synthgen.corrupt(dataset, error_model, seed=spec.seed + i)
        except ValueError as exc:
            raise ValueError(f"$.detectors.{name}: {exc}") from None
        files.append((out / f"{name}.json", model.detections_to_dict(detections)))
    out.mkdir(parents=True, exist_ok=True)
    for path, content in files:
        model.dump_json(content, path)
    print(f"generated {len(dataset.frames)} frame(s); wrote {', '.join(str(p) for p, _ in files)}")
    return 0


def _cmd_birdview(args: argparse.Namespace) -> int:
    cfg = CriticalityConfig(args.dmax, args.rmax, args.tmax)
    out = Path(args.out)
    folder = _out_dir(str(out.parent))
    if out.is_dir():
        raise ValueError(f"--out {args.out!r} is a directory; it names the SVG file to write")
    dataset = model.load_ground_truth(args.gt)
    try:
        frame = dataset.frame(args.frame)
    except KeyError:
        raise ValueError(f"unknown frame_id {args.frame!r}") from None
    dets = model.load_detections(args.pred).in_frame(args.frame) if args.pred else []
    svg = render.render_birdview(frame, dets, cfg, weight=args.weight)
    folder.mkdir(parents=True, exist_ok=True)
    out.write_text(svg, encoding="utf-8")
    print(f"bird view written to {out}")
    return 0


def _add_common_eval_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--class", dest="class_name", default="car", help="object class to evaluate")
    parser.add_argument(
        "--dist-limits",
        type=_parse_floats,
        default=distance_limits_default(),
        help="comma-separated matching distance limits in meters (default 0.5,1,2,4)",
    )
    parser.add_argument("--ap-style", choices=list(metrics.AP_STYLES), default="paper")
    parser.add_argument("--max-range", type=float, default=metrics.DEFAULT_EVAL_RANGE,
                        help="evaluation range around ego in meters (default 50)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="criteval",
        description="Criticality-weighted evaluation of object detections for driving tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="evaluate one detector and write report + curves")
    p.add_argument("--gt", required=True, help="ground-truth JSON")
    p.add_argument("--pred", required=True, help="detection-results JSON")
    for cap in ("--dmax", "--rmax", "--tmax"):
        p.add_argument(cap, type=float, required=True)
    _add_common_eval_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("sweep", help="evaluate a configuration grid for several detectors")
    p.add_argument("--gt", required=True)
    p.add_argument(
        "--pred",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="detector results file; repeatable (bare PATH uses the file stem as name)",
    )
    p.add_argument("--grid", default="default", help="'default' or a grid JSON path")
    _add_common_eval_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("rank", help="rank detectors from a sweep table")
    p.add_argument("--table", required=True, help="sweep.csv from the sweep command")
    p.add_argument("--metric", choices=["ap", "ap_crit"], required=True)
    p.add_argument("--l", dest="limit", type=float, default=None, help="distance limit filter")
    p.add_argument("--config", type=_parse_config, default=None, metavar="DMAX,RMAX,TMAX")
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("generate", help="generate a synthetic dataset (and detector files)")
    p.add_argument("--spec", required=True, help="scenario (+ optional detectors) JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed in the scenario file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("birdview", help="render one frame as an annotated SVG")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", default=None)
    p.add_argument("--frame", required=True, type=_typed)
    p.add_argument("--weight", choices=list(render.WEIGHT_NAMES), default="kappa")
    for cap in ("--dmax", "--rmax", "--tmax"):
        p.add_argument(cap, type=float, required=True)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=_cmd_birdview)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()  # commands build only acyclic containers, which reference counting frees
    try:
        return args.fn(args)
    except (model.IngestError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
