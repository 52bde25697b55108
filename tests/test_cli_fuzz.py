"""Mutated input files of every command through ``cli.main``.

Scenario and detector-spec files go through ``generate``, ground-truth,
results and grid files through ``evaluate`` and ``sweep``, and sweep tables
through ``rank``.

Every mutated file must either work (exit 0) or be rejected with exit 1 and
an ``error: ...`` line; no exception may escape. Mutations drop keys, cells
and rows, put wrong types, non-finite values and huge magnitudes in place,
and duplicate ids and rows.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from criteval.cli import main

_SPEC = {
    "scenario": {
        "n_frames": 2,
        "seed": 4,
        "frame_prefix": "f",
        "ego": {"start": [0, 0], "velocity": [0.0, 3.0]},
        "objects": [
            {"start": [10, 5], "velocity": [-2.0, 0.0], "class": "car", "size": [2, 4.5],
             "id": "a"},
            {"start": [-5, 20], "velocity": None},
        ],
    },
    "detectors": {
        "d": {
            "miss_prob_by_distance": [[20, 0.1], [40, 0.5]],
            "center_noise_sigma": 0.3,
            "velocity_noise_sigma": 0.2,
            "fp_rate_per_frame": 1.5,
            "fp_radius": 30,
            "confidence_model": {"true": {"mean": 0.8, "std": 0.1},
                                 "false": {"mean": 0.3, "std": 0.1}},
        },
    },
}
_WRONG_TYPES = ["x", "", True, None, [], {}, [1, "y"], {"k": 1}, 3, 0.5]
_NON_FINITE = [math.nan, math.inf, -math.inf]
_HUGE = [1e308, -1e308, 10**400, -(10**400)]
# Large values of these fields are valid requests that run as long as they ask.
_SMALL = {"n_frames": st.integers(-2, 3), "fp_rate_per_frame": st.floats(-1.0, 4.0)}
_KINDS = ["drop", "type", "nonfinite", "huge", "duplicate"]


def _paths(node, prefix=()):
    """Every location in a JSON document, the root first."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(value, (*prefix, key))


def _mutate(holder: list, data) -> None:
    """One drawn mutation of the document ``holder[0]``."""
    path = data.draw(st.sampled_from(list(_paths(holder[0]))))
    parent, key = holder, 0
    for step in path:
        parent, key = parent[key], step
    kind = data.draw(st.sampled_from(_KINDS))
    target = parent[key]
    if kind == "drop" and parent is not holder:
        del parent[key]
    elif kind == "duplicate" and isinstance(target, list) and target:
        target.append(copy.deepcopy(data.draw(st.sampled_from(target))))
    elif kind == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(target))
    elif kind == "huge" and key in _SMALL:
        parent[key] = data.draw(_SMALL[key])
    elif kind in ("type", "nonfinite", "huge"):
        choices = {"type": _WRONG_TYPES, "nonfinite": _NON_FINITE, "huge": _HUGE}[kind]
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(choices)))


def _run(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), argv
    if code == 1:
        assert err.getvalue().startswith("error: "), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_generate_survives_mutated_specs(data):
    holder = [copy.deepcopy(_SPEC)]
    if data.draw(st.booleans()):
        holder = [holder[0]["scenario"]]  # the bare scenario form
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(holder, data)
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(holder[0]))
        _run(["generate", "--spec", str(spec), "--out", str(Path(tmp) / "out")])


_HEADER = ["detector", "class", "l", "d_max", "r_max", "t_max", "ap", "ap_crit"]
_ROWS = [[name, "car", limit, *config, ap, ap_crit]
         for name, ap, ap_crit in (("a", "0.5", "0.4"), ("b", "0.6", "0.3"), ("c", "0.5", "0.45"))
         for limit in ("1.0", "2.0")
         for config in (("20.0", "20.0", "8.0"), ("10.0", "20.0", "4.0"))]
_BAD_CELLS = ["x", "", "true", "[1]", "nan", "inf", "-inf", "Infinity", "1e308", "-1e308",
              "1e400", "1" + "0" * 400, "0", "-20.0"]


def _mutate_table(table: list[list[str]], data) -> None:
    """One drawn mutation of a header-plus-rows table."""
    kind = data.draw(st.sampled_from(["drop_column", "drop_cell", "drop_row", "cell",
                                      "duplicate_row", "duplicate_column"]))
    row = data.draw(st.integers(0, len(table) - 1))
    if not table[row]:
        return
    column = data.draw(st.integers(0, len(table[row]) - 1))
    if kind == "drop_column":
        for cells in table:
            del cells[column:column + 1]
    elif kind == "drop_cell":
        del table[row][column]
    elif kind == "drop_row":
        del table[row]
    elif kind == "cell":
        table[row][column] = data.draw(st.sampled_from(_BAD_CELLS))
    elif kind == "duplicate_row":
        table.insert(row, list(table[row]))
    elif table[0]:
        table[0].append(data.draw(st.sampled_from(table[0])))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_rank_survives_mutated_tables(data):
    table = [list(_HEADER), *(list(r) for r in _ROWS)]
    for _ in range(data.draw(st.integers(1, 3))):
        if table:
            _mutate_table(table, data)
    options = ["--metric", data.draw(st.sampled_from(["ap", "ap_crit"]))]
    limit = data.draw(st.sampled_from([None, "1", "2.0", "3", "1e308", "inf"]))
    config = data.draw(st.sampled_from([None, "20,20,8", "10,20,4", "5,5,5"]))
    options += [] if limit is None else ["--l", limit]
    options += [] if config is None else ["--config", config]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(table)
        _run(["rank", "--table", str(path), *options])


_GT = {
    "frames": [
        {"frame_id": "f0", "timestamp": 0.0,
         "ego": {"center": [0.0, 0.0], "velocity": [0.0, 3.0], "yaw": 1.5, "size": [2.0, 5.0]},
         "objects": [
             {"id": "a", "class": "car", "center": [5.0, 10.0], "velocity": [0.0, -2.0],
              "size": [2.0, 4.5], "yaw": 0.1},
             {"id": "b", "class": "car", "center": [-8.0, 20.0, 1.0], "velocity": None,
              "size": [2.0, 4.5], "yaw": 0.0},
         ]},
        {"frame_id": "f1", "timestamp": 0.5,
         "ego": {"center": [0.0, 1.5], "velocity": [0.0, 3.0]},
         "objects": [
             {"id": "a", "class": "car", "center": [5.0, 9.0], "velocity": [0.0, -2.0],
              "size": [2.0, 4.5], "yaw": 0.1},
         ]},
    ],
    "meta": {"source": "fuzz"},
}
_RESULTS = {
    "results": {
        "f0": [
            {"class": "car", "center": [5.2, 9.9], "velocity": [0.1, -2.1], "size": [2.0, 4.4],
             "yaw": 0.1, "confidence": 0.9},
            {"class": "car", "center": [30.0, -4.0], "velocity": None, "size": [2.0, 4.5],
             "yaw": 0.0, "confidence": 0.4},
        ],
        "f1": [
            {"class": "car", "center": [5.1, 8.8], "velocity": [0.0, -1.9], "size": [2.0, 4.5],
             "yaw": 0.1, "confidence": 0.8},
        ],
    },
}
_GRID = {"d_values": [10.0, 20.0], "r_values": [20.0], "t_values": [4.0, 8.0]}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_evaluate_and_sweep_survive_mutated_inputs(data):
    documents = {"gt": [copy.deepcopy(_GT)], "pred": [copy.deepcopy(_RESULTS)],
                 "grid": [copy.deepcopy(_GRID)]}
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(documents[data.draw(st.sampled_from(sorted(documents)))], data)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in documents}
        for name, holder in documents.items():
            paths[name].write_text(json.dumps(holder[0]))
        inputs = ["--gt", str(paths["gt"]), "--dist-limits", "1,2"]
        _run(["evaluate", *inputs, "--pred", str(paths["pred"]),
              "--dmax", "20", "--rmax", "20", "--tmax", "8", "--out", str(Path(tmp) / "e")])
        _run(["sweep", *inputs, "--pred", f"x={paths['pred']}", "--grid", str(paths["grid"]),
              "--out", str(Path(tmp) / "s")])
