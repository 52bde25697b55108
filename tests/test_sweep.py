"""Configuration grids, sweep tables, rankings."""

import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from criteval import model, sweep
from criteval.criticality import CriticalityConfig
from criteval.metrics import evaluate_detector
from criteval.model import Dataset, dump_json
from criteval.sweep import (
    SWEEP_CSV_HEADER,
    ConfigGrid,
    SweepRow,
    default_grid,
    evaluate_sweep,
    rank,
    ranking_cells,
    ranking_diff,
    rankings_report,
    read_sweep_csv,
    write_rankings_json,
    write_sweep_csv,
)
from criteval.synthgen import ErrorModel, corrupt, gen_dataset

from helpers import (
    LARGEST_CAP,
    SMALLEST_CAP,
    make_ego,
    make_frame,
    make_state,
    perfect_detections,
    random_scenario_spec,
    without_velocities,
)

SMALL_GRID = ConfigGrid(d_values=(10.0, 20.0), r_values=(20.0,), t_values=(4.0, 8.0))


def _configs(grid: ConfigGrid) -> list[CriticalityConfig]:
    """Every configuration of the grid, t_max varying fastest."""
    return [CriticalityConfig(*caps)
            for caps in itertools.product(grid.d_values, grid.r_values, grid.t_values)]


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 1500
    configs = _configs(grid)
    assert len(configs) == 1500
    assert CriticalityConfig(20.0, 20.0, 8.0) in configs
    assert CriticalityConfig(5.0, 5.0, 2.0) in configs
    assert min(grid.d_values) == 5.0 and max(grid.d_values) == 50.0
    assert min(grid.t_values) == 2.0 and max(grid.t_values) == 30.0


def test_grid_validation():
    with pytest.raises(ValueError, match=r"^d_values: expected a nonempty list"):
        ConfigGrid(d_values=(), r_values=(5.0,), t_values=(2.0,))
    with pytest.raises(ValueError, match=r"^d_values\[1\]: .* greater than 5.0, got 5.0$"):
        ConfigGrid(d_values=(5.0, 5.0), r_values=(5.0,), t_values=(2.0,))
    with pytest.raises(ValueError, match=r"^d_values\[0\]: .* greater than 0.0, got -5.0$"):
        ConfigGrid(d_values=(-5.0, 5.0), r_values=(5.0,), t_values=(2.0,))
    with pytest.raises(ValueError, match=r"^t_values\[1\]: .* greater than 2.0, got inf$"):
        ConfigGrid(d_values=(5.0,), r_values=(5.0,), t_values=(2.0, math.inf))


@pytest.mark.parametrize("values, message", [
    ({"d_values": (1e-200, 5.0)}, "d_values[0]: expected a value with a positive finite square, "
                                  "got 1e-200"),
    ({"r_values": (5.0, 1e160)}, "r_values[1]: expected a value with a positive finite square, "
                                 "got 1e+160"),
    # Not the first t_max: a sweep builds no CriticalityConfig, so the grid checks every value.
    ({"t_values": (2.0, 4.0, math.nextafter(LARGEST_CAP, math.inf))},
     f"t_values[2]: expected a value with a positive finite square, "
     f"got {math.nextafter(LARGEST_CAP, math.inf)!r}"),
])
def test_grid_rejects_every_value_whose_square_is_zero_or_inf(values, message):
    caps = {"d_values": (5.0,), "r_values": (5.0,), "t_values": (2.0,)}
    with pytest.raises(ValueError) as exc:
        ConfigGrid(**{**caps, **values})
    assert str(exc.value) == message
    edges = ConfigGrid((SMALLEST_CAP, 5.0), (5.0, LARGEST_CAP), (SMALLEST_CAP, LARGEST_CAP))
    assert len(_configs(edges)) == 8


_EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                *(math.nextafter(cap, toward) for cap in (SMALLEST_CAP, LARGEST_CAP)
                  for toward in (0.0, math.inf)), SMALLEST_CAP, LARGEST_CAP]


def _rejected(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


@given(value=st.floats() | st.sampled_from(_EDGE_VALUES))
@settings(max_examples=300, deadline=None)
def test_grid_and_table_caps_follow_the_rule_of_criticality_config(tmp_path_factory, value):
    """Sweeps and ``rank --table`` take a cap exactly when ``CriticalityConfig`` does."""
    table = tmp_path_factory.mktemp("table") / "sweep.csv"
    for position in range(3):
        caps = [5.0, 5.0, 5.0]
        caps[position] = value
        expected = _rejected(lambda: CriticalityConfig(*caps))
        assert _rejected(lambda: ConfigGrid(*((cap,) for cap in caps))) == expected
        table.write_text(",".join(SWEEP_CSV_HEADER) + "\n"
                         + ",".join(["a", "car", "1.0", *map(repr, caps), "0.5", "0.4"]) + "\n")
        assert _rejected(lambda: read_sweep_csv(table)) == expected
        if not expected:
            assert read_sweep_csv(table)[0][3:6] == tuple(caps)


def _sweep_inputs():
    dataset = gen_dataset(random_scenario_spec(seed=21, n_frames=6))
    noisy = corrupt(
        dataset,
        ErrorModel(miss_prob_by_distance=0.3, center_noise_sigma=0.3,
                   velocity_noise_sigma=0.3, fp_rate_per_frame=1.0),
        seed=22,
    )
    return dataset, {"ideal": perfect_detections(dataset, 0.95), "noisy": noisy}


def test_sweep_cross_product_and_hoisted_ap():
    dataset, detectors = _sweep_inputs()
    rows = evaluate_sweep(dataset, detectors, SMALL_GRID, [1.0, 2.0], "car")
    assert len(rows) == 2 * 2 * len(SMALL_GRID)
    for detector in detectors:
        for limit in (1.0, 2.0):
            aps = {r.ap for r in rows if r.detector == detector and r.distance_limit == limit}
            assert len(aps) == 1  # classic AP never depends on the caps


def test_sweep_identical_inputs_identical_rows():
    dataset, _ = _sweep_inputs()
    same = perfect_detections(dataset, 0.9)
    rows = evaluate_sweep(dataset, {"a": same, "b": list(same)}, SMALL_GRID, [1.0], "car")
    by_name = {}
    for row in rows:
        by_name.setdefault(row.detector, []).append((row.d_max, row.r_max, row.t_max, row.ap, row.ap_crit))
    assert by_name["a"] == by_name["b"]


def test_sweep_deterministic_across_runs():
    dataset, detectors = _sweep_inputs()
    runs = [evaluate_sweep(dataset, detectors, SMALL_GRID, [1.0, 2.0], "car") for _ in range(2)]
    assert runs[0] == runs[1]
    reversed_detectors = dict(reversed(list(detectors.items())))
    assert evaluate_sweep(dataset, reversed_detectors, SMALL_GRID, [1.0, 2.0], "car") == runs[0]


def test_sweep_ap_crit_bounded_and_unit_weight_collapses_every_config():
    from criteval.metrics import CurveAccumulator, ap_from_arrays

    dataset, detectors = _sweep_inputs()
    rows = evaluate_sweep(dataset, detectors, SMALL_GRID, [1.0], "car")
    assert all(0.0 <= r.ap_crit <= 1.0 for r in rows)
    acc = CurveAccumulator(*without_velocities(dataset, detectors["noisy"]), "car", [1.0, 2.0])
    for cfg in _configs(SMALL_GRID):
        for _, precision, recall, p_r, r_s in acc.curve_arrays(cfg.d_max, cfg.r_max, [cfg.t_max]):
            assert ap_from_arrays("paper", r_s, p_r) == ap_from_arrays("paper", recall[None],
                                                                       precision[None])


def test_sweep_detector_with_no_detections_has_rows():
    dataset, _ = _sweep_inputs()
    # One car 30 m ahead driving away: its kappa is 0 for d_max < 30.
    receding = Dataset([make_frame("f0", 0.0, make_ego(),
                                   [make_state(center=(0.0, 30.0), velocity=(0.0, 5.0))])])
    grid = ConfigGrid(d_values=(5.0, 20.0), r_values=(20.0,), t_values=(4.0, 8.0))
    cases = [
        (dataset, "car", (0.0, 0.0)),  # critical ground truth, all of it missed
        (dataset, "pedestrian", (1.0, 1.0)),  # no ground truth: one vacuous point
        (receding, "car", (0.0, 1.0)),  # ground truth of zero total weight
    ]
    for (data, class_name, expected), ap_style in itertools.product(cases, ("paper", "devkit")):
        rows = evaluate_sweep(data, {"mute": []}, grid, [1.0], class_name, ap_style=ap_style)
        assert len(rows) == len(grid)
        for row in rows:
            cfg = CriticalityConfig(row.d_max, row.r_max, row.t_max)
            res = evaluate_detector(data, [], class_name, [1.0], cfg, ap_style).results[0]
            assert (repr(row.ap), repr(row.ap_crit)) == (repr(res.ap), repr(res.ap_crit))
            assert (row.ap, row.ap_crit) == expected


_INCREASING_CAPS = st.lists(st.sampled_from([2.0, 5.0, 10.0, 20.0, 50.0]) | st.floats(0.5, 60.0),
                            min_size=1, max_size=3, unique=True).map(lambda caps: tuple(sorted(caps)))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    grid=st.builds(ConfigGrid, _INCREASING_CAPS, _INCREASING_CAPS, _INCREASING_CAPS),
    limits=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]), min_size=1, max_size=3, unique=True),
    ap_style=st.sampled_from(["paper", "devkit"]),
)
@settings(max_examples=40, deadline=None)
def test_every_sweep_cell_equals_evaluate_detector(seed, grid, limits, ap_style):
    dataset = gen_dataset(random_scenario_spec(seed=seed, n_frames=3))
    detectors = {
        "ideal": perfect_detections(dataset, 0.9),
        "noisy": corrupt(dataset, ErrorModel(miss_prob_by_distance=0.3, center_noise_sigma=0.5,
                                             velocity_noise_sigma=0.5, fp_rate_per_frame=1.0),
                         seed=seed + 1),
    }
    rows = evaluate_sweep(dataset, detectors, grid, limits, "car", ap_style=ap_style)
    assert len(rows) == len(detectors) * len(limits) * len(grid)
    for row in rows:
        cfg = CriticalityConfig(row.d_max, row.r_max, row.t_max)
        res = evaluate_detector(dataset, detectors[row.detector], "car", [row.distance_limit], cfg,
                                ap_style).results[0]
        assert (repr(row.ap), repr(row.ap_crit)) == (repr(res.ap), repr(res.ap_crit))
        # What rank --table accepts: every score a sweep writes lies in [0, 1].
        assert 0.0 <= row.ap <= 1.0 and 0.0 <= row.ap_crit <= 1.0


def test_sweep_requires_a_detector():
    dataset, _ = _sweep_inputs()
    with pytest.raises(ValueError):
        evaluate_sweep(dataset, {}, SMALL_GRID, [1.0], "car")


def test_sweep_rejects_unknown_ap_style_before_any_work(monkeypatch):
    dataset, detectors = _sweep_inputs()

    def no_work(*args, **kwargs):
        raise AssertionError("an accumulator was built")

    monkeypatch.setattr(sweep, "CurveAccumulator", no_work)
    with pytest.raises(ValueError, match="ap_style must be one of"):
        evaluate_sweep(dataset, detectors, SMALL_GRID, [1.0], "car", ap_style="coco")


def _rows(values, limit=1.0, config=(20.0, 20.0, 8.0)):
    return [
        SweepRow(name, "car", limit, config[0], config[1], config[2], ap, ap_crit)
        for name, (ap, ap_crit) in values.items()
    ]


def _cell(values):
    (cell,) = ranking_cells(_rows(values)).values()
    return cell


def test_rank_descending_and_tie_break():
    assert rank(_cell({"A": (0.7, 0.6), "B": (0.9, 0.5)}), "ap") == ["B", "A"]
    assert rank(_cell({"B": (0.5, 0.5), "A": (0.5, 0.5)}), "ap") == ["A", "B"]


def test_rank_rejects_unknown_metric():
    with pytest.raises(ValueError):
        rank(_cell({"A": (0.7, 0.6)}), "f1")


def test_ranking_cells_orders_cells_and_rejects_a_repeated_detector():
    rows = _rows({"A": (0.7, 0.6)}, limit=2.0) + _rows({"B": (0.5, 0.5), "A": (0.7, 0.6)})
    cells = ranking_cells(rows)
    assert list(cells) == [(1.0, 20.0, 20.0, 8.0), (2.0, 20.0, 20.0, 8.0)]
    assert list(cells[(1.0, 20.0, 20.0, 8.0)]) == ["B", "A"]
    with pytest.raises(ValueError, match="detector 'A' appears twice in the cell l=1 config 20,20,8"):
        ranking_cells(rows + _rows({"A": (0.7, 0.6)}))


def test_ranking_diff_examples():
    assert ranking_diff(["A", "B", "C"], ["A", "B", "C"]) == (0, 0)
    assert ranking_diff(["A", "B", "C"], ["B", "A", "C"]) == (2, 1)
    with pytest.raises(ValueError):
        ranking_diff(["A", "B"], ["A", "C"])


def test_sweep_csv_round_trip(tmp_path):
    dataset, detectors = _sweep_inputs()
    rows = evaluate_sweep(dataset, detectors, SMALL_GRID, [1.0], "car")
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    assert read_sweep_csv(path) == rows
    header = path.read_text().splitlines()[0]
    assert header == "detector,class,l,d_max,r_max,t_max,ap,ap_crit"


def test_rankings_report_counts_differing_configs():
    rows = _rows({"A": (0.7, 0.8), "B": (0.9, 0.6)}) + _rows(
        {"A": (0.7, 0.5), "B": (0.9, 0.6)}, config=(10.0, 20.0, 8.0)
    )
    report = rankings_report(rows, [1.0])
    assert report["n_configs"] == 2
    orders = {
        (c["d_max"], c["r_max"], c["t_max"]): (c["order_ap"], c["order_ap_crit"])
        for c in report["per_config"]
    }
    assert orders[(20.0, 20.0, 8.0)] == (["B", "A"], ["A", "B"])
    assert orders[(10.0, 20.0, 8.0)] == (["B", "A"], ["B", "A"])
    assert report["n_differing_by_l"] == {"1.0": 1}


# Limits and caps as the CLI gives them, plus integers, infinity and values whose repr takes
# an exponent. Equal values such as 1 and 1.0 never both appear, so each row has its own cell.
_CAPS = (st.sampled_from([0.5, 1.0, 2.0, 4.0, 1e-07, 1e16, 3, math.inf]) | st.floats(1e-3, 1e3)
         | st.integers(1, 50))
_NAMES = st.sampled_from(['q"uote', "back\\slash", "\u00e9t\u00e9", "\u8eca", "a", "b"]) | st.text(max_size=6)


@given(names=st.lists(_NAMES, min_size=1, max_size=4, unique=True),
       limits=st.lists(_CAPS, min_size=1, max_size=3, unique=True),
       configs=st.lists(st.tuples(_CAPS, _CAPS, _CAPS), min_size=1, max_size=3, unique=True),
       data=st.data(), chunk_rows=st.integers(min_value=1, max_value=4))
@example(names=[], limits=[1.0, 2.0], configs=[(20.0, 20.0, 8.0)], data=None,
         chunk_rows=1)  # no row at all
@settings(max_examples=100, deadline=None)
def test_streamed_rankings_json_equals_dump_json(tmp_path_factory, names, limits, configs, data,
                                                 chunk_rows):
    """Entries are formatted ``chunk_rows`` at a time, so they cross chunk boundaries."""
    scores = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    rows = [SweepRow(name, "car", limit, *config, data.draw(scores), data.draw(scores))
            for name in names for limit in limits for config in configs]
    report = rankings_report(rows, limits)
    out = tmp_path_factory.mktemp("rankings")
    saved, model._CHUNK_ROWS = model._CHUNK_ROWS, chunk_rows
    try:
        write_rankings_json(report, out / "streamed.json")
    finally:
        model._CHUNK_ROWS = saved
    dump_json(report, out / "dumped.json")
    assert (out / "streamed.json").read_bytes() == (out / "dumped.json").read_bytes()


def test_streamed_rankings_json_of_a_sweep(tmp_path):
    dataset, detectors = _sweep_inputs()
    report = rankings_report(evaluate_sweep(dataset, detectors, SMALL_GRID, [1.0, 2.0], "car"),
                             [1.0, 2.0])
    write_rankings_json(report, tmp_path / "streamed.json")
    dump_json(report, tmp_path / "dumped.json")
    assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()
    assert json.loads((tmp_path / "streamed.json").read_text()) == report
