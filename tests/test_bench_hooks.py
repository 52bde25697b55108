"""The benchmark's tracing hooks resolve against the current source.

``bench/spans.py`` wraps functions by name at run time. A rename in
``src/`` would drop a hook (or an attribute it measures) silently and zero a
per-layer benchmark metric, so the hooks are checked here.
"""

import importlib.util
import sys
from pathlib import Path

from criteval import metrics, sweep
from criteval.cli import main
from criteval.model import dataset_to_dict, detections_to_dict, dump_json
from criteval.criticality import CriticalityConfig
from criteval.synthgen import gen_dataset

from helpers import perfect_detections, random_scenario_spec

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
CFG = CriticalityConfig(20.0, 20.0, 8.0)


def test_every_benchmark_hook_resolves_and_measures(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    dataset = gen_dataset(random_scenario_spec(seed=8, n_frames=4))
    detections = perfect_detections(dataset, 0.8)
    acc = metrics.CurveAccumulator(dataset, detections, "car", [1.0])
    n_objects = acc.n_gt + len(acc._conf)
    assert n_objects > 0

    rows = []  # the rows of each classify call
    classify = metrics.classify
    monkeypatch.setattr(metrics, "classify",
                        lambda ego, obj: rows.append(len(obj[0])) or classify(ego, obj))
    tracer = spans.Tracer()
    accumulator_init = metrics.CurveAccumulator.__init__
    with tracer.installed():
        assert tracer.missing == []
        metrics.evaluate_detector(dataset, detections, "car", [0.5, 1.0], CFG)
        metrics.build_curve(dataset, detections, "car", 1.0, CFG)
    assert tracer.missing == []
    assert metrics.CurveAccumulator.__init__ is accumulator_init

    layers = spans.layer_metrics([dict(zip(spans.SPAN_FIELDS, s)) for s in tracer.spans])
    assert layers["accumulate.calls"] == 2
    assert layers["reweight.calls"] == 2
    assert layers["reweight.elements"] == 2 * n_objects
    # One ground-truth call and one prediction call per accumulator, each object in one of them.
    assert layers["classify.calls"] == 2 * 2
    assert sum(rows) == 2 * n_objects
    assert layers["match.calls"] == 3 * len(dataset.frames)


def test_sweep_summaries_stay_in_the_summarize_layer(monkeypatch):
    """One summarize call per (detector, slice, limit) plus each detector's classic AP per limit."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    dataset = gen_dataset(random_scenario_spec(seed=8, n_frames=4))
    detectors = {"a": perfect_detections(dataset, 0.8), "b": perfect_detections(dataset, 0.6)}
    grid = sweep.ConfigGrid((10.0, 20.0, 30.0), (20.0, 40.0), (4.0, 8.0))
    limits = [0.5, 1.0, 2.0]
    tracer = spans.Tracer()
    with tracer.installed():
        assert tracer.missing == []
        rows = sweep.evaluate_sweep(dataset, detectors, grid, limits, "car")
    assert len(rows) == len(detectors) * len(limits) * len(grid)

    layers = spans.layer_metrics([dict(zip(spans.SPAN_FIELDS, s)) for s in tracer.spans])
    n_slices = len(grid.d_values) * len(grid.r_values)
    assert layers["summarize.calls"] == (len(detectors) * n_slices * len(limits)
                                         + len(detectors) * len(limits))
    assert layers["reweight.calls"] == len(detectors) * n_slices
    assert layers["summarize.s"] > 0.0


def test_sweep_outputs_stay_in_the_write_layer(monkeypatch, tmp_path):
    """``sweep.csv`` and the streamed ``rankings.json`` are each one write call."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    dataset = gen_dataset(random_scenario_spec(seed=8, n_frames=4))
    dump_json(dataset_to_dict(dataset), tmp_path / "gt.json")
    dump_json(detections_to_dict(perfect_detections(dataset, 0.8)), tmp_path / "a.json")
    out = tmp_path / "out"
    tracer = spans.Tracer()
    with tracer.installed():
        assert main(["sweep", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "a.json"),
                     "--out", str(out)]) == 0
    layers = spans.layer_metrics([dict(zip(spans.SPAN_FIELDS, s)) for s in tracer.spans])
    assert layers["write.calls"] == 2
    written = sum(path.stat().st_size for path in (out / "sweep.csv", out / "rankings.json"))
    assert layers["write.mb"] == written / 1e6
