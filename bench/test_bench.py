"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from criteval import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _shrunk(workload: workloads.Workload) -> workloads.Workload:
    """The same workload on a 2-scene, 4-frame corpus with at most 5 FPs per frame."""
    corpus = dataclasses.replace(
        workload.corpus, scenes=2, frames_per_scene=4,
        detectors={k: dataclasses.replace(v, fp_rate_per_frame=min(v.fp_rate_per_frame, 5.0))
                   for k, v in workload.corpus.detectors.items()},
    )
    return dataclasses.replace(workload, corpus=corpus)


SMALL = {name: _shrunk(w) for name, w in workloads.WORKLOADS.items()}


def _file_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _traced(workload, tmp_path: Path) -> tuple[dict, Path]:
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    workloads.write_inputs(workload, 5, inputs)
    tracer = spans.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(workloads.cli_args(workload, inputs, out)) == 0
    assert not tracer.missing
    tracer.write(tmp_path / "spans.csv")
    return spans.layer_metrics(spans.read_spans(tmp_path / "spans.csv")), out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    workload = workloads.WORKLOADS[name] if name == "sweep_grid" else SMALL[name]
    stats = [workloads.write_inputs(workload, seed, tmp_path / f"{i}")
             for i, seed in enumerate((11, 11, 12))]
    assert _file_bytes(tmp_path / "0") == _file_bytes(tmp_path / "1")
    assert _file_bytes(tmp_path / "0")["gt.json"] != _file_bytes(tmp_path / "2")["gt.json"]
    # Seeds move objects around but keep the corpus size.
    assert stats[0]["gt"] == stats[2]["gt"]


def test_metric_names_are_well_formed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_every_layer_is_called_on_some_workload(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    called = set()
    for name, workload in SMALL.items():
        layers, _ = _traced(workload, tmp_path / name)
        assert set(layers) <= per_layer
        called |= {layer for layer in spans.LAYERS if layers[f"{layer}.calls"] > 0}
    assert called == set(spans.LAYERS)


def test_layer_metrics_use_self_time_and_keep_idle_layers():
    def span(i, layer, start, end, parent=0):
        return {"id": i, "name": layer, "layer": layer, "start": start, "end": end,
                "parent": parent, "thread": 1, "work": 1, "bytes": 0}

    records = [span(1, "accumulate", 0.0, 10.0), span(2, "classify", 1.0, 3.0, parent=1),
             span(3, "match", 4.0, 8.0, parent=1), span(4, "reweight", 10.0, 12.0),
             span(5, "reweight", 10.5, 11.5, parent=4)]
    metrics = spans.layer_metrics(records)
    assert metrics["accumulate.s"] == 10.0
    assert metrics["accumulate.self_s"] == 4.0
    assert (metrics["reweight.s"], metrics["reweight.calls"]) == (2.0, 1)
    assert (metrics["write.s"], metrics["write.calls"]) == (0.0, 0)


def test_output_check_accepts_additions_and_rejects_changes(tmp_path):
    _, out = _traced(SMALL["evaluate_dense"], tmp_path)
    reference = check.digest_outputs(out)
    assert check.compare_outputs(reference, out) == []

    report = json.loads((out / "report.json").read_text())
    report["diagnostics"] = {"n_tp": 1}
    report["results"][0]["diagnostics"] = {"n_fp": 2}
    (out / "report.json").write_text(json.dumps(report))
    assert check.compare_outputs(reference, out) == []

    report["results"][0]["ap_crit"] += 1e-12
    (out / "report.json").write_text(json.dumps(report))
    assert check.compare_outputs(reference, out) == ["report.json.results[0].ap_crit: value differs"]

    curve = next(out.glob("curve_*.csv"))
    curve.write_bytes(curve.read_bytes() + b"\n")
    assert f"{curve.name}: bytes differ" in check.compare_outputs(reference, out)


def _cli_args(name: str, tmp_path: Path) -> list[str]:
    return workloads.cli_args(SMALL[name], tmp_path / name / "inputs", tmp_path / name / "out")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_oracles_agree_with_cli_outputs(name, tmp_path):
    _, out = _traced(SMALL[name], tmp_path / name)
    if SMALL[name].command == "sweep":
        assert check.oracle_sweep(_cli_args(name, tmp_path), out, seed=3, n_cells=3) == []
    else:
        assert check.oracle_evaluate(_cli_args(name, tmp_path), out, seed=3) == []


def test_oracles_catch_wrong_curves_and_rankings(tmp_path):
    _, out = _traced(SMALL["evaluate_dense"], tmp_path / "evaluate_dense")
    report = json.loads((out / "report.json").read_text())
    for res in report["results"]:
        res["curve"][-1]["r_s"] *= 0.5
    (out / "report.json").write_text(json.dumps(report))
    errors = check.oracle_evaluate(_cli_args("evaluate_dense", tmp_path), out, seed=3)
    assert any("curve point" in e for e in errors)
    assert any(e.endswith("differs from the curve in report.json") for e in errors)

    _, out = _traced(SMALL["sweep_grid"], tmp_path / "sweep_grid")
    rankings = json.loads((out / "rankings.json").read_text())
    rankings["per_config"][0]["order_ap"].reverse()
    (out / "rankings.json").write_text(json.dumps(rankings))
    errors = check.oracle_sweep(_cli_args("sweep_grid", tmp_path), out, seed=3, n_cells=1)
    assert errors == ["rankings.json differs from rankings_report of sweep.csv"]


def test_reference_curve_catches_a_wrong_accumulator(tmp_path, monkeypatch):
    """A matcher with the wrong distance limit is caught on every seed, not just seed 0."""
    from criteval import metrics

    greedy_assign = metrics.greedy_assign

    def loose_assign(gts, detections, distance_limit):
        return greedy_assign(gts, detections, 2.0 * distance_limit)

    monkeypatch.setattr(metrics, "greedy_assign", loose_assign)
    _, out = _traced(SMALL["evaluate_dense"], tmp_path / "evaluate_dense")
    errors = check.oracle_evaluate(_cli_args("evaluate_dense", tmp_path), out, seed=3)
    assert any("curve point" in e for e in errors)
