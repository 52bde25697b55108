"""Span tracing around the public functions of each pipeline layer.

Hooks replace module attributes at run time, so ``src/`` carries no
tracing code. Spans live in memory while the program runs and are written
to a CSV file afterwards; every per-layer metric is derived from that file.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

LAYERS = ("ingest", "classify", "match", "accumulate", "reweight", "summarize", "write")
SPAN_FIELDS = ("id", "name", "layer", "start", "end", "parent", "thread", "work", "bytes")


def _file_size(path: Any) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


@dataclass(frozen=True)
class Hook:
    """One traced callable: ``module.attr`` or ``module.Class.method``.

    ``measure`` names what ``Tracer._measure`` records for each call.
    """

    module: str
    attr: str
    layer: str
    measure: str | None = None


HOOKS = (
    Hook("criteval.model", "load_ground_truth", "ingest", "ingest_gt"),
    Hook("criteval.model", "load_detections", "ingest", "ingest_det"),
    Hook("criteval.metrics", "classify", "classify"),
    Hook("criteval.metrics", "greedy_assign", "match", "pairs"),
    Hook("criteval.metrics", "CurveAccumulator.__init__", "accumulate"),
    Hook("criteval.metrics", "CurveAccumulator.curve_arrays", "reweight", "elements"),
    Hook("criteval.metrics", "CurveAccumulator.curve", "reweight", "elements"),
    Hook("criteval.metrics", "ap_from_arrays", "summarize"),
    Hook("criteval.sweep", "ap_from_arrays", "summarize"),
    Hook("criteval.metrics", "average_precision", "summarize"),
    Hook("criteval.metrics", "devkit_average_precision", "summarize"),
    Hook("criteval.metrics", "resample_curve", "summarize"),
    Hook("criteval.sweep", "rankings_report", "summarize"),
    Hook("criteval.model", "dump_json", "write", "written"),
    Hook("criteval.metrics", "write_curve_csv", "write", "written"),
    Hook("criteval.sweep", "write_sweep_csv", "write", "written"),
    Hook("criteval.metrics", "EvaluationReport.to_dict", "write"),
)


class Tracer:
    """Collects spans (name, start, end, parent span, thread) in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _measure(self, kind: str | None, sig, args, kwargs, result) -> tuple[int, int]:
        if kind is None:
            return 0, 0
        bound = sig.bind(*args, **kwargs).arguments
        if kind == "ingest_gt":
            return sum(len(f.ground_truth) for f in result.frames), _file_size(bound["path"])
        if kind == "ingest_det":
            return len(result), _file_size(bound["path"])
        if kind == "pairs":
            return len(bound["gts"]) * len(bound["detections"]), 0
        if kind == "elements":
            # Ground truths plus predictions the accumulator reweights.
            acc = bound["self"]
            try:
                return acc.n_gt + len(acc._conf), 0
            except AttributeError:
                if "CurveAccumulator sizes" not in self.missing:
                    self.missing.append("CurveAccumulator sizes")
                return 0, 0
        if kind == "written":
            return 0, _file_size(bound["path"])
        return 0, 0

    def wrap(self, fn: Callable, name: str, layer: str, measure: str | None) -> Callable:
        sig = inspect.signature(fn)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            work, nbytes = self._measure(measure, sig, args, kwargs, result)
            spans.append((span_id, name, layer, start, end, parent,
                          threading.get_ident(), work, nbytes))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every hook for the duration of the block, then restore."""
        undo = []
        try:
            for hook in HOOKS:
                name = f"{hook.module.rsplit('.', 1)[-1]}.{hook.attr}"
                owner = importlib.import_module(hook.module)
                *path, attr = hook.attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(name)
                    continue
                setattr(owner, attr, self.wrap(fn, name, hook.layer, hook.measure))
                undo.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(SPAN_FIELDS)
            for span in sorted(self.spans):
                writer.writerow(span[:3] + (repr(span[3]), repr(span[4])) + span[5:])


def read_spans(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return [
            {
                "id": int(r["id"]), "name": r["name"], "layer": r["layer"],
                "start": float(r["start"]), "end": float(r["end"]),
                "parent": int(r["parent"]), "thread": int(r["thread"]),
                "work": int(r["work"]), "bytes": int(r["bytes"]),
            }
            for r in csv.DictReader(f)
        ]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals from a span file.

    A layer's time and call count come from its outermost spans (a
    ``curve`` span enclosing ``curve_arrays`` counts once). Self time is a
    span's duration minus its child spans, which are always in the same
    thread. Layers with no spans report zero rather than disappearing.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] += s["end"] - s["start"]

    def nested_in_same_layer(s: dict) -> bool:
        parent = by_id.get(s["parent"])
        while parent is not None:
            if parent["layer"] == s["layer"]:
                return True
            parent = by_id.get(parent["parent"])
        return False

    total = {layer: 0.0 for layer in LAYERS}
    self_time = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    work = {layer: 0 for layer in LAYERS}
    nbytes = {layer: 0 for layer in LAYERS}
    for s in spans:
        duration = s["end"] - s["start"]
        self_time[s["layer"]] += duration - child_time[s["id"]]
        if nested_in_same_layer(s):
            continue
        total[s["layer"]] += duration
        calls[s["layer"]] += 1
        work[s["layer"]] += s["work"]
        nbytes[s["layer"]] += s["bytes"]

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = total[layer]
        out[f"{layer}.calls"] = calls[layer]
    out["ingest.objects"] = work["ingest"]
    out["ingest.mb"] = nbytes["ingest"] / 1e6
    out["match.pairs"] = work["match"]
    out["accumulate.self_s"] = self_time["accumulate"]
    out["reweight.elements"] = work["reweight"]
    out["write.mb"] = nbytes["write"] / 1e6
    return out
