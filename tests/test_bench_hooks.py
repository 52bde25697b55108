"""The benchmark's tracing hooks resolve against the current source.

``bench/spans.py`` wraps functions by name at run time. A rename in
``src/`` would drop a hook (or an attribute it measures) silently and zero a
per-layer benchmark metric, so the hooks are checked here.
"""

import importlib.util
import sys
from pathlib import Path

from criteval import metrics
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
    assert layers["classify.calls"] == 2 * n_objects
    assert layers["match.calls"] == 3 * len(dataset.frames)
