"""Classic and weighted measures, curve construction, AP summaries."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from criteval import criticality, metrics
from criteval.criticality import (
    CASE_MISSING_VELOCITY,
    CASE_NONFINITE_TIME,
    CASE_RECEDING,
    CASE_TRACKED,
    CASE_ZERO_REL_VELOCITY,
    CriticalityConfig,
    weights_from_class,
)
from criteval.metrics import (
    CURVE_FIELDS,
    CurveAccumulator,
    CurvePoint,
    EvaluationReport,
    LimitResult,
    _ScoreTerms,
    ap_from_arrays,
    average_precision,
    build_curve,
    devkit_average_precision,
    evaluate_detector,
    resample_curve,
    worker_count,
    write_curve_csv,
    write_report_json,
)
from criteval.model import Dataset, Detection, Vec2
from criteval.sweep import ConfigGrid, evaluate_sweep
from criteval.synthgen import ErrorModel, corrupt, gen_dataset

from helpers import (
    WeightedCounts,
    classic_pr,
    counts_from_match,
    curve_csv_oracle,
    curve_csv_template,
    devkit_ap_oracle,
    in_scope,
    make_ego,
    make_frame,
    make_state,
    match_frame,
    perfect_detections,
    random_scenario_spec,
    report_json_oracle,
    weighted_pr,
    without_velocities,
)

CFG = CriticalityConfig(20.0, 20.0, 8.0)
SMALL_GRID = ConfigGrid((10.0, 20.0), (20.0,), (4.0, 8.0))

nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
counts_strategy = st.builds(
    lambda tg, tp, fp, fn, a, b, c: WeightedCounts(tg, tp, fp, fn, a, b, c),
    nonneg, nonneg, nonneg, nonneg,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
)


def test_classic_pr_examples():
    assert classic_pr(WeightedCounts(0, 0, 0, 0, n_tp=3, n_fp=1, n_fn=0)) == (0.75, 1.0)
    assert classic_pr(WeightedCounts(0, 0, 0, 0, n_tp=0, n_fp=0, n_fn=5)) == (1.0, 0.0)
    assert classic_pr(WeightedCounts(0, 0, 0, 0, n_tp=0, n_fp=0, n_fn=0)) == (1.0, 1.0)


def test_weighted_pr_examples():
    # One TP (gt weight 0.8, predicted weight 0.9) plus one FP at 0.1.
    counts = WeightedCounts(0.8, 0.9, 0.1, 0.0, 1, 1, 0)
    p_r, r_s = weighted_pr(counts)
    assert p_r == 0.8
    assert r_s == 1.0  # 0.9 / 0.8 clamped

    counts = WeightedCounts(3.0, 3.0, 1.0, 2.0, 3, 1, 2)
    assert weighted_pr(counts) == (0.75, 0.6)

    counts = WeightedCounts(0.0, 0.0, 0.0, 0.5, 0, 0, 1)
    assert weighted_pr(counts) == (1.0, 0.0)


@given(counts=counts_strategy)
@settings(max_examples=1000)
def test_weighted_pr_always_clamped(counts):
    p_r, r_s = weighted_pr(counts)
    assert 0.0 <= p_r <= 1.0
    assert 0.0 <= r_s <= 1.0


def test_average_precision_hand_curve_is_exact():
    curve = [
        CurvePoint(0.9, 1.0, 0.2, 1.0, 0.2),
        CurvePoint(0.5, 0.8, 0.5, 0.8, 0.5),
        CurvePoint(0.1, 0.5, 1.0, 0.5, 1.0),
    ]
    assert average_precision(curve, use_weighted=False) == 0.69
    assert average_precision(curve, use_weighted=True) == 0.69


def test_average_precision_single_perfect_point():
    assert average_precision([CurvePoint(1.0, 1.0, 1.0, 1.0, 1.0)]) == 1.0


def test_average_precision_noise_floor_filters_everything():
    curve = [CurvePoint(0.9, 0.05, 0.5, 0.05, 0.5), CurvePoint(0.5, 0.01, 1.0, 0.01, 1.0)]
    assert average_precision(curve) == 0.0
    assert average_precision([]) == 0.0


def test_average_precision_anchors_at_predecessor_recall():
    curve = [
        CurvePoint(0.9, 0.05, 0.05, 0.05, 0.05),  # filtered out
        CurvePoint(0.5, 1.0, 0.5, 1.0, 0.5),
        CurvePoint(0.1, 0.8, 1.0, 0.8, 1.0),
    ]
    expected = (0.5 - 0.05) * 1.0 + (1.0 - 0.5) * 0.8
    assert average_precision(curve) == pytest.approx(expected, abs=1e-15)


def test_average_precision_rejects_unsorted_curve():
    curve = [CurvePoint(0.5, 0.8, 0.9, 0.8, 0.9), CurvePoint(0.9, 1.0, 0.2, 1.0, 0.2)]
    with pytest.raises(ValueError, match="sorted"):
        average_precision(curve)


@given(
    # Both curves stay above the 0.1 floors: dropping a point from one curve
    # but not the other redistributes recall mass and can break dominance.
    recalls=st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=1, max_size=10),
    precisions_low=st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=10, max_size=10),
    deltas=st.lists(st.floats(min_value=0.0, max_value=0.9), min_size=10, max_size=10),
)
@settings(max_examples=300)
def test_dominated_curve_has_no_larger_ap(recalls, precisions_low, deltas):
    r = sorted(recalls)
    low = [
        CurvePoint(0.5, precisions_low[i], r[i], precisions_low[i], r[i])
        for i in range(len(r))
    ]
    high = [
        CurvePoint(0.5, min(1.0, precisions_low[i] + deltas[i]), r[i],
                   min(1.0, precisions_low[i] + deltas[i]), r[i])
        for i in range(len(r))
    ]
    assert average_precision(low) <= average_precision(high) + 1e-12


def test_devkit_ap_perfect_detector():
    assert devkit_average_precision([CurvePoint(1.0, 1.0, 1.0, 1.0, 1.0)]) == 1.0


def test_devkit_ap_between_zero_and_one():
    curve = [
        CurvePoint(0.9, 1.0, 0.2, 1.0, 0.2),
        CurvePoint(0.5, 0.8, 0.5, 0.8, 0.5),
        CurvePoint(0.1, 0.5, 1.0, 0.5, 1.0),
    ]
    value = devkit_average_precision(curve)
    assert 0.0 < value < 1.0


def _two_frame_dataset():
    frames = []
    for k, frame_id in enumerate(["f0", "f1"]):
        ego = make_ego(velocity=(0.0, 0.0))
        objects = [
            # head-on, maximally critical
            make_state(object_id="critical", center=(0.0, 10.0 - k), velocity=(0.0, -3.0)),
            # already past its closest point, receding: only distance matters
            make_state(object_id="mild", center=(18.0, 1.0 + k), velocity=(0.0, 2.0)),
        ]
        frames.append(make_frame(frame_id, 0.5 * k, ego, objects))
    return Dataset(frames=frames)


def test_perfect_detector_single_point_all_ones():
    dataset = _two_frame_dataset()
    curve = build_curve(dataset, perfect_detections(dataset, 1.0), "car", 0.5, CFG)
    assert len(curve) == 1
    pt = curve[0]
    assert (pt.precision, pt.recall, pt.p_r, pt.r_s) == (1.0, 1.0, 1.0, 1.0)
    assert average_precision(curve) == 1.0
    assert average_precision(curve, use_weighted=True) == 1.0


def test_empty_detections_give_single_vacuous_point():
    dataset = _two_frame_dataset()
    curve = build_curve(dataset, [], "car", 0.5, CFG)
    assert curve == [CurvePoint(1.0, 1.0, 0.0, 1.0, 0.0)]
    assert average_precision(curve) == 0.0


def test_missed_critical_object_hurts_weighted_recall_more():
    dataset = _two_frame_dataset()
    detections = [
        d for d in perfect_detections(dataset, 0.9)
        if not (d.state.center.y in (10.0, 9.0) and d.state.center.x == 0.0)
    ]
    curve = build_curve(dataset, detections, "car", 0.5, CFG)
    for pt in curve:
        assert pt.r_s < pt.recall


def test_curve_thresholds_are_distinct_confidences_descending():
    dataset = _two_frame_dataset()
    dets = perfect_detections(dataset, 0.9)
    dets[0] = dataclasses.replace(dets[0], confidence=0.4)
    dets[1] = dataclasses.replace(dets[1], confidence=0.7)
    curve = build_curve(dataset, dets, "car", 0.5, CFG)
    thresholds = [pt.threshold for pt in curve]
    assert thresholds == sorted({d.confidence for d in dets}, reverse=True)
    recalls = [pt.recall for pt in curve]
    assert recalls == sorted(recalls)


def test_weighted_recall_never_increases_with_threshold():
    spec = random_scenario_spec(seed=5, n_frames=8)
    dataset = gen_dataset(spec)
    detections = corrupt(
        dataset,
        ErrorModel(miss_prob_by_distance=[(20.0, 0.1), (50.0, 0.4)],
                   center_noise_sigma=0.3, velocity_noise_sigma=0.5,
                   fp_rate_per_frame=1.0),
        seed=99,
    )
    curve = build_curve(dataset, detections, "car", 2.0, CFG)
    r_s = [pt.r_s for pt in curve]  # emitted highest threshold first
    assert all(a <= b + 1e-15 for a, b in zip(r_s, r_s[1:]))
    assert r_s == sorted(r_s)


def _sum_counts(items):
    return WeightedCounts(
        sum_tp_gt=sum(c.sum_tp_gt for c in items),
        sum_tp_pred=sum(c.sum_tp_pred for c in items),
        sum_fp_pred=sum(c.sum_fp_pred for c in items),
        sum_fn_gt=sum(c.sum_fn_gt for c in items),
        n_tp=sum(c.n_tp for c in items),
        n_fp=sum(c.n_fp for c in items),
        n_fn=sum(c.n_fn for c in items),
    )


def test_curve_matches_per_threshold_rematch_oracle():
    # Independent route: re-match every frame at each threshold and sum counts.
    spec = random_scenario_spec(seed=11, n_frames=5)
    dataset = gen_dataset(spec)
    detections = corrupt(
        dataset,
        ErrorModel(miss_prob_by_distance=0.25, center_noise_sigma=0.4,
                   velocity_noise_sigma=0.6, fp_rate_per_frame=1.5),
        seed=12,
    )
    limit = 2.0
    curve = build_curve(dataset, detections, "car", limit, CFG)
    for pt in curve:
        per_frame = []
        for frame in dataset.frames:
            gts, dets = in_scope(frame, detections, "car", 50.0)
            result = match_frame(gts, dets, limit, pt.threshold)
            per_frame.append(counts_from_match(result, frame.ego, CFG))
        total = _sum_counts(per_frame)
        assert total.sum_tp_gt <= total.n_tp and total.sum_tp_pred <= total.n_tp
        assert total.sum_fp_pred <= total.n_fp and total.sum_fn_gt <= total.n_fn
        precision, recall = classic_pr(total)
        p_r, r_s = weighted_pr(total)
        assert pt.precision == pytest.approx(precision, abs=1e-12)
        assert pt.recall == pytest.approx(recall, abs=1e-12)
        assert pt.p_r == pytest.approx(p_r, abs=1e-12)
        assert pt.r_s == pytest.approx(r_s, abs=1e-12)


def test_unit_weight_injection_reduces_to_classic():
    for seed in (3, 17):
        spec = random_scenario_spec(seed=seed, n_frames=6)
        dataset = gen_dataset(spec)
        detections = corrupt(
            dataset,
            ErrorModel(miss_prob_by_distance=0.2, center_noise_sigma=0.3,
                       velocity_noise_sigma=0.4, fp_rate_per_frame=1.0),
            seed=seed + 100,
        )
        curve = build_curve(*without_velocities(dataset, detections), "car", 1.0, CFG)
        for pt in curve:
            assert (pt.p_r, pt.r_s) == (pt.precision, pt.recall)
        assert average_precision(curve, True) == average_precision(curve, False)


# Mostly within the caps' range, where scores are strictly between 0 and 1.
_DIST = st.floats(min_value=0.0, max_value=120.0) | st.floats(min_value=0.0, max_value=1e200)
_CAP = st.floats(min_value=0.5, max_value=100.0)
# One strategy per classified situation, shaped like ``classify`` output.
_CLASSIFIED = (
    st.tuples(st.just(CASE_MISSING_VELOCITY), _DIST, st.just(0.0), st.just(0.0)),
    st.tuples(st.just(CASE_ZERO_REL_VELOCITY), _DIST, st.just(0.0), st.just(0.0)),
    st.tuples(st.just(CASE_RECEDING), _DIST, st.just(0.0), st.just(0.0)),
    st.tuples(st.just(CASE_NONFINITE_TIME), _DIST, _DIST, st.sampled_from([math.inf, math.nan])),
    st.tuples(st.just(CASE_NONFINITE_TIME), _DIST, st.just(math.inf), st.sampled_from([math.inf, math.nan])),
    st.tuples(st.just(CASE_TRACKED), _DIST, _DIST, _DIST),
)


@given(
    each_case=st.tuples(*_CLASSIFIED),
    extra=st.lists(st.one_of(*_CLASSIFIED), max_size=20),
    d_max=_CAP,
    r_max=_CAP,
    t_values=st.lists(_CAP, min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_batched_kernel_matches_scalar_path(each_case, extra, d_max, r_max, t_values, seed):
    rows = list(each_case) + extra
    kappa = _ScoreTerms(*map(np.array, zip(*rows))).kappa_rows(d_max, r_max, np.array(t_values))
    for t_max, kappa_row in zip(t_values, kappa):
        cfg = CriticalityConfig(d_max, r_max, t_max)
        assert list(kappa_row) == [weights_from_class(*row, cfg).kappa for row in rows]

    dataset = gen_dataset(random_scenario_spec(seed=seed, n_frames=3))
    detections = corrupt(
        dataset,
        ErrorModel(miss_prob_by_distance=0.2, center_noise_sigma=0.5,
                   velocity_noise_sigma=0.5, fp_rate_per_frame=2.0),
        seed=seed + 1,
    )
    acc = CurveAccumulator(dataset, detections, "car", [1.0, 0.5, 2.0])
    batches = acc.curve_arrays(CriticalityConfig(d_max, r_max, t_values[0]), t_values=t_values)
    assert len(batches) == 3
    for i, t_max in enumerate(t_values):
        one_rows = acc.curve_arrays(CriticalityConfig(d_max, r_max, t_max))
        for batch, one_row in zip(batches, one_rows, strict=True):
            for k in range(3):
                assert np.array_equal(batch[k], one_row[k])
            for k in (3, 4):
                assert np.array_equal(batch[k][i], one_row[k])
                assert batch[k][i].tobytes() == one_row[k].tobytes()
                assert batch[k].flags.c_contiguous


_UNIT = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.1, 0.09999999999999999])
_KEPT = st.floats(min_value=0.1, max_value=1.0)


@st.composite
def _curve_row(draw, cuts: int) -> tuple[list[float], list[float]]:
    """One (recall, precision) row, recall nondecreasing, shaped as the summaries meet it."""
    kind = draw(st.sampled_from(["run_from_start", "dip", "none", "any"]))
    if kind == "run_from_start":  # every point kept
        r = sorted(draw(st.lists(_KEPT, min_size=cuts, max_size=cuts)))
        return r, draw(st.lists(_KEPT, min_size=cuts, max_size=cuts))
    r = sorted(draw(st.lists(_UNIT, min_size=cuts, max_size=cuts)))
    if kind == "none":  # nothing kept
        return r, draw(st.lists(st.floats(0.0, 0.09999999999999999), min_size=cuts, max_size=cuts))
    p = draw(st.lists(_KEPT if kind == "dip" else _UNIT, min_size=cuts, max_size=cuts))
    if kind == "dip" and cuts > 2:  # precision below the floor mid-curve splits the kept run
        p[draw(st.integers(1, cuts - 2))] = draw(st.floats(0.0, 0.09999999999999999))
    return r, p


@given(data=st.data(), cuts=st.integers(min_value=0, max_value=12),
       rows=st.integers(min_value=0, max_value=6), ap_style=st.sampled_from(metrics.AP_STYLES))
@settings(max_examples=300, deadline=None)
def test_batched_ap_equals_the_per_row_call(data, cuts, rows, ap_style):
    pairs = [data.draw(_curve_row(cuts)) for _ in range(rows)]
    r = np.array([r for r, _ in pairs], dtype=np.float64).reshape(rows, cuts)
    p = np.array([p for _, p in pairs], dtype=np.float64).reshape(rows, cuts)
    batched = ap_from_arrays(ap_style, r, p)
    assert isinstance(batched, list) and all(type(ap) is float for ap in batched)
    assert list(map(repr, batched)) == [repr(ap_from_arrays(ap_style, r[i].copy(), p[i].copy()))
                                        for i in range(rows)]
    if ap_style == "devkit":
        assert list(map(repr, batched)) == [repr(devkit_ap_oracle(r[i], p[i])) for i in range(rows)]


def test_batched_paper_ap_falls_back_only_for_a_split_run(monkeypatch):
    r = np.array([[0.2, 0.4, 0.6, 0.8], [0.2, 0.4, 0.6, 0.8], [0.0, 0.05, 0.1, 0.3],
                  [0.2, 0.4, 0.6, 0.8]])
    p = np.array([[1.0, 0.9, 0.8, 0.7], [1.0, 0.05, 0.8, 0.7], [1.0, 0.9, 0.8, 0.7],
                  [0.05, 0.05, 0.05, 0.05]])
    calls = []
    one_row = metrics._ap_paper_arrays
    monkeypatch.setattr(metrics, "_ap_paper_arrays", lambda *a: calls.append(a) or one_row(*a))
    batched = ap_from_arrays("paper", r, p)
    assert len(calls) == 1 and np.array_equal(calls[0][1], p[1])
    assert batched == [one_row(r[i], p[i]) for i in range(4)]
    assert batched[3] == 0.0 and min(batched[:3]) > 0.0


def test_slice_with_a_zero_precision_denominator_prefix_is_vacuous_there():
    """p_r's denominator is zero over the first cuts of some t_max rows only.

    The top prediction is beyond d_max, passes ego beyond r_max and gets there
    after 150/26 s: its kappa is 0 for t_max 2 and 4 and positive for 8.
    """
    objects = [make_state(object_id="far", center=(0.0, 30.0), velocity=(1.0, -5.0)),
               make_state(object_id="near", center=(0.0, 5.0), velocity=(0.0, -3.0))]
    dataset = Dataset(frames=[make_frame("f0", 0.0, make_ego(), objects)])
    detections = [Detection("f0", objects[0], 0.9), Detection("f0", objects[1], 0.5)]
    acc = CurveAccumulator(dataset, detections, "car", [1.0])
    for t_values in ([2.0, 4.0], [2.0, 4.0, 8.0], [8.0, 2.0]):
        head = CriticalityConfig(20.0, 5.0, t_values[0])
        ((_, _, _, p_r, r_s),) = acc.curve_arrays(head, t_values=t_values)
        for row, t_max in enumerate(t_values):
            ((_, _, _, p_r_one, r_s_one),) = acc.curve_arrays(dataclasses.replace(head, t_max=t_max))
            assert p_r[row].tobytes() == p_r_one.tobytes()
            assert r_s[row].tobytes() == r_s_one.tobytes()
            assert p_r[row][0] == 1.0  # 0 / 0 without the vacuous fill
            assert (r_s[row][0] > 0.0) == (t_max == 8.0)  # the only cap above 150/26 s


def test_no_t_values_give_no_rows_before_and_after_a_slice():
    dataset = _two_frame_dataset()
    acc = CurveAccumulator(dataset, perfect_detections(dataset, 0.7), "car", [1.0])
    for t_values in ([], [4.0, 8.0], []):
        ((thresholds, _, _, p_r, r_s),) = acc.curve_arrays(CFG, t_values=t_values)
        assert p_r.shape == r_s.shape == (len(t_values), len(thresholds))


@given(
    limits=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0]) | st.floats(min_value=0.05, max_value=8.0),
                    min_size=1, max_size=5, unique=True),
    seed=st.integers(min_value=0, max_value=10_000),
    ap_style=st.sampled_from(metrics.AP_STYLES),
)
@settings(max_examples=30, deadline=None)
def test_evaluate_over_limits_equals_one_call_per_limit(limits, seed, ap_style):
    dataset = gen_dataset(random_scenario_spec(seed=seed, n_frames=3))
    detections = corrupt(
        dataset,
        ErrorModel(miss_prob_by_distance=0.2, center_noise_sigma=1.0,
                   velocity_noise_sigma=0.5, fp_rate_per_frame=2.0),
        seed=seed + 1,
    )
    report = evaluate_detector(dataset, detections, "car", limits, CFG, ap_style)
    assert [res.distance_limit for res in report.results] == limits
    for res in report.results:
        (one,) = evaluate_detector(dataset, detections, "car", [res.distance_limit], CFG,
                                   ap_style).results
        assert (repr(res.ap), repr(res.ap_crit)) == (repr(one.ap), repr(one.ap_crit))
        for got, want in zip(res.arrays, one.arrays, strict=True):
            assert np.array_equal(got, want)
        assert res.resampled == one.resampled


def test_each_object_is_classified_once_whatever_the_limits(monkeypatch):
    dataset = gen_dataset(random_scenario_spec(seed=5, n_frames=8))
    detections = corrupt(dataset, ErrorModel(center_noise_sigma=0.5, fp_rate_per_frame=2.0),
                         seed=6)
    frames = {f.frame_id: f for f in dataset.frames}

    def in_range(frame, state):
        return state.class_name == "car" and math.hypot(
            state.center.x - frame.ego.center.x,
            state.center.y - frame.ego.center.y) <= metrics.DEFAULT_EVAL_RANGE

    objects = [(f, gt) for f in dataset.frames for gt in f.ground_truth]
    objects += [(frames[d.frame_id], d.state) for d in detections]
    expected = sum(in_range(f, state) for f, state in objects)
    assert 0 < expected < len(objects)

    rows = []  # the rows of each kernel call: one for ground truth, one for predictions
    classify = metrics.classify
    monkeypatch.setattr(metrics, "classify",
                        lambda ego, obj: rows.append(len(obj[0])) or classify(ego, obj))
    for limits in ([1.0], [0.5, 1.0, 2.0, 4.0]):
        rows.clear()
        evaluate_detector(dataset, detections, "car", limits, CFG)
        assert len(rows) == 2 and sum(rows) == expected
        rows.clear()
        evaluate_sweep(dataset, {"a": detections}, SMALL_GRID, limits, "car")
        assert len(rows) == 2 and sum(rows) == expected


def test_resample_curve_grid():
    dataset = _two_frame_dataset()
    curve = build_curve(dataset, perfect_detections(dataset, 1.0), "car", 0.5, CFG)
    grid = resample_curve(curve)
    assert len(grid["grid"]) == 101
    assert grid["precision"][0] == 1.0
    assert grid["p_r"][100] == 1.0


def test_write_curve_csv(tmp_path):
    arrays = tuple(np.array([v]) for v in (0.9, 1.0, 0.25, 0.875, 0.3))
    path = tmp_path / "curve.csv"
    write_curve_csv(arrays, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "threshold,precision,recall,p_r,r_s"
    assert lines[1] == "0.900000,1.000000,0.250000,0.875000,0.300000"


# Values whose repr takes an exponent or 17 significant digits, plus any finite float.
writer_floats = st.one_of(
    st.sampled_from([1e-07, 0.30000000000000004, 5e-324, 1.0, 0.0, -0.0, 1e16]),
    st.floats(allow_nan=False, allow_infinity=False),
)
class_names = st.one_of(st.just('c"a\\r \u00e9\u8eca'), st.text(max_size=8))


@st.composite
def evaluation_reports(draw):
    results = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        n = draw(st.integers(min_value=0, max_value=9))
        arrays = tuple(np.array(draw(st.lists(writer_floats, min_size=n, max_size=n)),
                                dtype=np.float64) for _ in range(5))
        grid = draw(st.lists(writer_floats, max_size=3))
        results.append(LimitResult(draw(writer_floats), draw(writer_floats), draw(writer_floats),
                                   arrays, {"grid": grid, "step": 0.01}))
    return EvaluationReport(
        class_name=draw(class_names),
        config=draw(st.builds(CriticalityConfig, *[st.floats(min_value=1e-9, max_value=1e9)] * 3)),
        ap_style=draw(st.sampled_from(["paper", "devkit"])),
        max_range=draw(writer_floats),
        results=results,
        ingest={"n_frames": 1, "unknown_frame_ids": draw(st.lists(class_names, max_size=2))},
    )


@given(report=evaluation_reports(), chunk_rows=st.integers(min_value=1, max_value=4))
@settings(max_examples=100, deadline=None)
def test_writers_match_their_oracles_byte_for_byte(tmp_path_factory, report, chunk_rows):
    out = tmp_path_factory.mktemp("writers")
    saved, metrics._CHUNK_ROWS = metrics._CHUNK_ROWS, chunk_rows
    try:
        write_report_json(report, out / "report.json")
        for i, res in enumerate(report.results):
            write_curve_csv(res.arrays, out / f"curve{i}.csv")
    finally:
        metrics._CHUNK_ROWS = saved
    assert (out / "report.json").read_bytes() == report_json_oracle(report)
    for i, res in enumerate(report.results):
        assert (out / f"curve{i}.csv").read_bytes() == curve_csv_oracle(res.curve)
        curve = report.to_dict()["results"][i]["curve"]
        assert [CurvePoint(**pt) for pt in curve] == res.curve


# Bit patterns that compare equal (0.0 and -0.0) or whose repr is long, plus any finite float.
run_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.30000000000000004, 0.12345678901234568]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def run_columns(draw, n):
    """A column of ``n`` values made of runs of one repeated value each."""
    run_of = np.cumsum(draw(st.lists(st.booleans(), min_size=n, max_size=n))) if n else []
    values = draw(st.lists(run_floats, min_size=n + 1, max_size=n + 1))
    return np.array(values, dtype=np.float64)[run_of]


@st.composite
def run_reports(draw):
    """Reports like the kernel's: one threshold array shared by every limit, runs of equal values."""
    n = draw(st.integers(min_value=0, max_value=12))
    thresholds = draw(run_columns(n))
    results = [LimitResult(float(i + 1), 0.5, 0.25,
                           (thresholds, *(draw(run_columns(n)) for _ in range(4))), {"step": 0.01})
               for i in range(draw(st.integers(min_value=1, max_value=4)))]
    return EvaluationReport("car", CriticalityConfig(20.0, 20.0, 8.0), "paper", 50.0, results,
                            {"n_frames": 1})


@given(report=run_reports(), chunk_rows=st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_report_writer_formats_runs_of_equal_values_exactly(tmp_path_factory, report, chunk_rows):
    """Each run of bit-identical values is formatted once: 0.0 next to -0.0 is two runs,
    and runs cross chunk boundaries."""
    path = tmp_path_factory.mktemp("runs") / "report.json"
    saved, metrics._CHUNK_ROWS = metrics._CHUNK_ROWS, chunk_rows
    try:
        write_report_json(report, path)
    finally:
        metrics._CHUNK_ROWS = saved
    assert path.read_bytes() == report_json_oracle(report)


def test_writers_match_their_oracles_on_kernel_curves(tmp_path):
    """Vacuous one-point curves and curves longer than one write chunk, from the kernel."""
    dataset = gen_dataset(random_scenario_spec(seed=21, n_frames=6))
    detections = corrupt(dataset, ErrorModel(fp_rate_per_frame=3.0), seed=22)
    name = 'c"a\\r \u00e9'
    copies = detections * (2 * metrics._CHUNK_ROWS // len(detections) + 1)
    detections += [dataclasses.replace(d, state=dataclasses.replace(d.state, class_name=name),
                                       confidence=i / len(copies))
                   for i, d in enumerate(copies)]
    for class_name, dets in (("car", []), ("car", detections), (name, detections)):
        report = evaluate_detector(dataset, dets, class_name, [0.5, 1.0, 2.0], CFG)
        write_report_json(report, tmp_path / "report.json")
        assert (tmp_path / "report.json").read_bytes() == report_json_oracle(report)
        for res in report.results:
            write_curve_csv(res.arrays, tmp_path / "curve.csv")
            assert (tmp_path / "curve.csv").read_bytes() == curve_csv_oracle(res.curve)
        n_points = {len(res.curve) for res in report.results}
        if not dets:
            assert [res.curve for res in report.results] == [[CurvePoint(1.0, 1.0, 0.0, 1.0, 0.0)]] * 3
        elif class_name == name:
            assert min(n_points) > metrics._CHUNK_ROWS


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("CRIT_EVAL_THREADS", "3")
    assert worker_count() == 3
    assert worker_count(2) == 2
    monkeypatch.setenv("CRIT_EVAL_THREADS", "zebra")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("CRIT_EVAL_THREADS")
    assert worker_count() >= 1


# Coordinates and velocities that overflow, cancel exactly or are subnormal, plus any finite float.
_GEOMETRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 1e308]),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _ego_and_object(draw):
    """``(ego, object)`` as ``criticality.classify`` takes them, in every classified situation."""
    ex, ey, evx, evy = (draw(_GEOMETRY) for _ in range(4))
    bx, by = draw(_GEOMETRY), draw(_GEOMETRY)
    kind = draw(st.sampled_from(["any", "missing", "same", "receding", "approaching"]))
    if kind == "missing":
        velocity = None
    elif kind == "same":  # the relative velocity cancels exactly
        velocity = (evx, evy)
    elif kind == "any":
        velocity = (draw(_GEOMETRY), draw(_GEOMETRY))
    else:  # along the line from ego through the object, away from or towards ego
        k = draw(st.floats(min_value=0.01, max_value=10.0)) * (1.0 if kind == "receding" else -1.0)
        velocity = (evx + k * (bx - ex), evy + k * (by - ey))
    return (ex, ey, (evx, evy)), (bx, by, velocity)


_OVERFLOW = ((0.0, 0.0, (0.0, 0.0)), (1e300, 0.0, (-1e-300, 0.0)))  # tests/test_geometry.py


@pytest.mark.filterwarnings("error")
@given(pairs=st.lists(_ego_and_object(), max_size=25),
       unknown=st.sampled_from([math.nan, math.inf, -1e300]))
@settings(max_examples=300, deadline=None)
def test_classify_kernel_equals_the_scalar_classify(pairs, unknown):
    """Every field of every row, repr for repr, whatever a missing velocity's columns hold."""
    pairs = [_OVERFLOW, *pairs]
    ego = np.array([(ex, ey, *v) for (ex, ey, v), _ in pairs]).T
    obj = [np.array(column) for column in zip(*(
        (bx, by, *(v or (unknown, unknown)), v is not None) for _, (bx, by, v) in pairs))]
    got = list(zip(*(column.tolist() for column in metrics.classify(ego, obj))))
    want = [criticality.classify(e, o) for e, o in pairs]
    assert list(map(repr, got)) == list(map(repr, want))
    assert got[0][0] == CASE_NONFINITE_TIME


def test_classify_kernel_takes_no_rows():
    empty = np.zeros(0)
    columns = metrics.classify([empty] * 4, [empty] * 4 + [np.zeros(0, dtype=bool)])
    assert [len(column) for column in columns] == [0] * 4


# A coarse grid: duplicate centers and equal distances are common; differences may overflow.
_SPOT = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, 49.0, 60.0, 1e308, -1e308])


@st.composite
def _matching_scene(draw):
    """Frames with ground truth and predictions on a coarse grid, some in frames the
    ground truth lacks, some of another class or beyond the range."""
    frames, detections = [], []
    for k in range(draw(st.integers(min_value=0, max_value=4))):
        objects = [make_state(object_id=f"g{j}", class_name=draw(st.sampled_from(["car", "car", "ped"])),
                              center=(draw(_SPOT), draw(_SPOT)))
                   for j in range(draw(st.integers(min_value=0, max_value=6)))]
        frames.append(make_frame(f"f{k}", float(k), make_ego(), objects))
    frame_ids = [f.frame_id for f in frames] + ["unknown"]
    for i in range(draw(st.integers(min_value=0, max_value=14))):
        state = make_state(object_id=f"p{i}", class_name=draw(st.sampled_from(["car", "car", "ped"])),
                           center=(draw(_SPOT), draw(_SPOT)))
        detections.append(Detection(draw(st.sampled_from(frame_ids)), state,
                                    draw(st.sampled_from([0.2, 0.5, 0.5, 0.9, 1.0]))))
    # Sorted frame_ids differ from input order when some frame holds no detection.
    draw(st.randoms()).shuffle(detections)
    return Dataset(frames=frames), detections


def _boundary_scene(limit):
    """One prediction at the origin per frame with a ground truth at (limit, 0), which
    matches, at (limit, limit), whose gap is the limit but not its distance, and at
    (nextafter(limit, inf), 0); then a ground truth and a prediction, each alone in its frame."""
    offsets = [(limit, 0.0), (limit, limit), (math.nextafter(limit, math.inf), 0.0)]
    frames = [make_frame(f"f{k}", float(k), make_ego(), [make_state(f"g{k}", center=offset)])
              for k, offset in enumerate(offsets)]
    frames.append(make_frame("f3", 3.0, make_ego(), [make_state("g3")]))
    frames.append(make_frame("f4", 4.0, make_ego(), []))
    detections = [Detection(f"f{k}", make_state(f"p{k}"), 0.9) for k in (0, 1, 2, 4)]
    return Dataset(frames=frames), detections


@pytest.mark.filterwarnings("error")
@given(scene=_matching_scene(),
       limits=st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 100.0]), min_size=1,
                       max_size=4, unique=True))
@example(scene=_boundary_scene(0.25), limits=[0.25])
@example(scene=_boundary_scene(0.5), limits=[0.5])
@example(scene=_boundary_scene(1.0), limits=[1.0])
@example(scene=_boundary_scene(1.5), limits=[1.5])
@example(scene=_boundary_scene(2.0), limits=[2.0])
@example(scene=_boundary_scene(4.0), limits=[4.0])
@settings(max_examples=300, deadline=None)
def test_accumulator_matches_equal_unfiltered_greedy_assign(scene, limits):
    """Each limit's match of every prediction, against ``greedy_assign`` on whole frames."""
    dataset, detections = scene
    acc = CurveAccumulator(dataset, detections, "car", limits)
    gt_ids, preds, want = [], [], {limit: {} for limit in limits}
    for frame in sorted(dataset.frames, key=lambda f: f.frame_id):
        gts, dets = in_scope(frame, detections, "car", metrics.DEFAULT_EVAL_RANGE)
        gt_ids += [(frame.frame_id, g.object_id) for g in gts]
        preds += sorted(dets, key=lambda d: -d.confidence)
        for limit in limits:
            for gt, pred in match_frame(gts, dets, limit, 0.0).tp:
                want[limit][pred.object_id] = (frame.frame_id, gt.object_id)
    preds.sort(key=lambda d: -d.confidence)  # stable: frame order, then within-frame order
    assert acc._conf.tolist() == [d.confidence for d in preds]
    assert acc.n_gt == len(gt_ids)
    for limit, (tp, _, tp_gt, *_) in zip(limits, acc._splits, strict=True):
        got = {preds[i].state.object_id: gt_ids[j] for i, j in zip(tp.tolist(), tp_gt.tolist())}
        assert got == want[limit]


@pytest.mark.filterwarnings("error")
def test_accumulator_matches_quietly_where_a_difference_overflows():
    """Within a range near the largest float, two objects' x may differ by more than it."""
    frame = make_frame("f0", 0.0, make_ego(), [make_state("g", center=(1e308, 0.0))])
    detections = [Detection("f0", make_state("p", center=(-1e308, 0.0)), 0.9)]
    acc = CurveAccumulator(Dataset(frames=[frame]), detections, "car", [1.0], max_range=1.7e308)
    assert acc.n_gt == 1 and acc._splits[0][2].tolist() == []


# (k + 0.5) / 1e6: the six-decimal rounding boundaries, which binary floats straddle.
_DECIMAL_HALVES = st.integers(min_value=0, max_value=999_999).map(lambda k: (k + 0.5) / 1e6)


_TIE = 0.0078125  # 1/128: times 1e6 exactly 7812.5
_CSV_VALUES = st.one_of(
    st.sampled_from([_TIE, math.nextafter(_TIE, 0.0), math.nextafter(_TIE, 1.0), 0.0, 5e-324,
                     2.5e-06, 0.9999995, math.nextafter(1.0, 0.0), 1.0]),
    _DECIMAL_HALVES,
    st.floats(min_value=0.0, max_value=1.0),
)
_CSV_OUTLIERS = st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1.5, -1e-9, 1.0000000000000002])


@given(data=st.data(), n=st.integers(min_value=0, max_value=12),
       chunk_rows=st.integers(min_value=1, max_value=5), outliers=st.booleans())
@settings(max_examples=300, deadline=None)
def test_curve_csv_digits_equal_the_percent_template(tmp_path_factory, data, n, chunk_rows, outliers):
    """In-range chunks by digits, ties and chunks with -0.0, NaN or a value outside [0, 1] by %."""
    values = _CSV_VALUES | _CSV_OUTLIERS if outliers else _CSV_VALUES
    arrays = [np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
              for _ in CURVE_FIELDS]
    path = tmp_path_factory.mktemp("csv") / "curve.csv"
    saved, metrics._CHUNK_ROWS = metrics._CHUNK_ROWS, chunk_rows
    try:
        write_curve_csv(arrays, path)
    finally:
        metrics._CHUNK_ROWS = saved
    assert path.read_bytes() == curve_csv_template(arrays)


def test_curve_csv_digits_at_every_rounding_boundary(tmp_path):
    """(k + 0.5) / 1e6 for every 61st k, every k / 128 in [0, 1], and both neighbours of each."""
    halves = (np.arange(0, 1_000_000, 61) + 0.5) / 1e6
    ties = np.arange(129) / 128.0
    points = np.concatenate([halves, ties])
    values = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    values = values[values <= 1.0]
    arrays = [np.roll(values, shift)[: len(values) // 5 * 5] for shift in range(5)]
    write_curve_csv(arrays, tmp_path / "curve.csv")
    assert (tmp_path / "curve.csv").read_bytes() == curve_csv_template(arrays)
