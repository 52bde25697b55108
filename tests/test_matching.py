"""Greedy center-distance matching."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from criteval.matching import distance_limits_default, greedy_assign
from criteval.model import Detection

from helpers import assign_inputs, brute_force_assign, make_state, match_frame


def det(center, conf, object_id="d"):
    return Detection("f0", make_state(object_id=object_id, center=center), conf)


def test_single_match_within_limit():
    gts = [make_state(object_id="g", center=(0.0, 10.0))]
    result = match_frame(gts, [det((0.3, 10.0), 0.9)], 0.5, 0.0)
    assert len(result.tp) == 1 and not result.fp and not result.fn


def test_miss_beyond_limit():
    gts = [make_state(object_id="g", center=(0.0, 10.0))]
    result = match_frame(gts, [det((0.0, 10.7), 0.9)], 0.5, 0.0)
    assert not result.tp and len(result.fp) == 1 and len(result.fn) == 1


def test_higher_confidence_wins_the_gt():
    gts = [make_state(object_id="g", center=(0.0, 0.0))]
    far_but_confident = det((0.4, 0.0), 0.9, "far")
    near_but_meek = det((0.2, 0.0), 0.8, "near")
    result = match_frame(gts, [near_but_meek, far_but_confident], 0.5, 0.0)
    assert len(result.tp) == 1
    assert result.tp[0][1].object_id == "far"
    assert result.fp[0].object_id == "near"


def test_prediction_takes_nearest_available_gt():
    gts = [
        make_state(object_id="g0", center=(0.0, 0.0)),
        make_state(object_id="g1", center=(0.6, 0.0)),
    ]
    result = match_frame(gts, [det((0.5, 0.0), 0.9)], 2.0, 0.0)
    assert result.tp[0][0].object_id == "g1"


def test_threshold_discards_low_confidence():
    gts = [make_state(object_id="g", center=(0.0, 0.0))]
    preds = [det((0.1, 0.0), 0.4)]
    result = match_frame(gts, preds, 1.0, 0.5)
    assert not result.tp and not result.fp and len(result.fn) == 1
    # Boundary: confidence equal to the threshold is kept.
    result = match_frame(gts, preds, 1.0, 0.4)
    assert len(result.tp) == 1


def test_confidence_ties_broken_by_input_order():
    gts = [make_state(object_id="g", center=(0.0, 0.0))]
    first = det((0.3, 0.0), 0.9, "first")
    second = det((0.1, 0.0), 0.9, "second")
    result = match_frame(gts, [first, second], 1.0, 0.0)
    assert result.tp[0][1].object_id == "first"


def test_equal_distances_go_to_the_lowest_index():
    # Index 1 comes first in x order; the tie still goes to index 0.
    gts = [make_state(object_id="g0", center=(1.0, 0.0)),
           make_state(object_id="g1", center=(-1.0, 0.0))]
    assert greedy_assign(*assign_inputs(gts, [det((0.0, 0.0), 0.9)]), 1.0)[0][1] == 0


def test_distance_limit_must_be_positive():
    with pytest.raises(ValueError):
        match_frame([], [], 0.0, 0.0)


def test_distance_limit_must_be_finite():
    with pytest.raises(ValueError, match="must be positive and finite, got inf"):
        match_frame([], [], math.inf, 0.0)


def test_distance_limits_default():
    limits = distance_limits_default()
    assert limits == [0.5, 1.0, 2.0, 4.0]
    assert len(limits) == 4
    assert all(a < b for a, b in zip(limits, limits[1:]))


@st.composite
def frame_contents(draw):
    n_gt = draw(st.integers(min_value=0, max_value=6))
    n_pred = draw(st.integers(min_value=0, max_value=8))
    coord = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
    gts = [
        make_state(object_id=f"g{i}", center=(draw(coord), draw(coord)))
        for i in range(n_gt)
    ]
    preds = [
        det((draw(coord), draw(coord)),
            draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)), f"d{i}")
        for i in range(n_pred)
    ]
    return gts, preds


@given(contents=frame_contents(), limit=st.floats(min_value=0.1, max_value=30.0),
       threshold=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300)
@example(contents=([make_state(object_id="g0", center=(0.109375, 1e-9))],  # hypot is exactly l,
                   [det((0.0, 0.0), 0.0, "d0")]),  # the square root of the sum one ulp above it
         limit=0.109375, threshold=0.0)
def test_partition_counts(contents, limit, threshold):
    gts, preds = contents
    result = match_frame(gts, preds, limit, threshold)
    assert len(result.tp) + len(result.fn) == len(gts)
    above = sum(1 for p in preds if p.confidence >= threshold)
    assert len(result.tp) + len(result.fp) == above
    for gt, pred in result.tp:
        assert math.hypot(gt.center.x - pred.center.x, gt.center.y - pred.center.y) <= limit


@given(contents=frame_contents(), limit=st.floats(min_value=0.1, max_value=30.0),
       t1=st.floats(min_value=0.0, max_value=1.0), t2=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300)
def test_threshold_monotonicity(contents, limit, t1, t2):
    gts, preds = contents
    low, high = sorted((t1, t2))
    r_low = match_frame(gts, preds, limit, low)
    r_high = match_frame(gts, preds, limit, high)
    assert len(r_high.tp) <= len(r_low.tp)
    assert len(r_high.fn) >= len(r_low.fn)


@given(contents=frame_contents())
@settings(max_examples=200)
def test_degenerate_oracle_with_unbounded_limit(contents):
    gts, preds = contents
    result = match_frame(gts, preds, 1e18, 0.0)
    assert len(result.fn) == max(0, len(gts) - len(preds))
    assert len(result.fp) == max(0, len(preds) - len(gts))


# Multiples of the limit: on the limit along an axis, at the corners of the
# window and just inside or outside it.
LIMIT_MULTIPLES = [0.0, 0.5, 1.0, -1.0, 2.0, -2.0, math.nextafter(1.0, 2.0),
                   math.nextafter(1.0, 0.0), math.sqrt(0.5), -math.sqrt(0.5)]


@st.composite
def matching_inputs(draw):
    limit = draw(st.sampled_from([5e-324, 1e-310, 0.5, 1.0, 2.0, 4.0, 1e18, 1e308, math.inf])
                 | st.floats(min_value=1e-3, max_value=30.0))
    coord = (st.sampled_from([0.0, 1e300, -1e300, 1.7e308, -1.7e308, math.inf, math.nan])
             | st.floats(min_value=-50.0, max_value=50.0))
    base = draw(coord)
    anchors = [(base + draw(st.floats(-5.0, 5.0)), base + draw(st.floats(-5.0, 5.0)))
               for _ in range(draw(st.integers(1, 3)))]
    offset = st.sampled_from(LIMIT_MULTIPLES) | st.floats(-3.0, 3.0)

    def center():
        # Near an anchor in units of the limit (overflowing to inf or nan for
        # the largest limits), or anywhere.
        if draw(st.booleans()):
            ax, ay = draw(st.sampled_from(anchors))
            return ax + draw(offset) * limit, ay + draw(offset) * limit
        return draw(coord), draw(coord)

    conf = st.sampled_from([0.5, 0.9]) | st.floats(0.0, 1.0)
    gts = [make_state(object_id=f"g{i}", center=center())
           for i in range(draw(st.integers(0, 8)))]
    preds = [det(center() if draw(st.booleans()) else draw(st.sampled_from(anchors)),
                 draw(conf), f"d{i}")
             for i in range(draw(st.integers(0, 8)))]
    return gts, preds, limit


@given(inputs=matching_inputs())
@example(inputs=(  # A nan x would disorder the ground truths sorted by x.
    [make_state(object_id=f"g{i}", center=(x, 0.0))
     for i, x in enumerate([7.0, math.nan, 3.0, 7.0, 0.0, 3.0])],
    [det((1.0, 0.0), 0.5, "d0"), det((7.0, 0.0), 0.5, "d1")],
    0.5,
))
@settings(max_examples=600)
def test_greedy_assign_equals_the_all_pairs_scan(inputs):
    gts, preds, limit = inputs
    got = greedy_assign(*assign_inputs(gts, preds), limit)
    want = brute_force_assign(*assign_inputs(gts, preds), limit)
    assert got == want
