"""Approach geometry of ``classify``: worked cases, invariances, simulation oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criteval.criticality import (
    CASE_MISSING_VELOCITY,
    CASE_NONFINITE_TIME,
    CASE_RECEDING,
    CASE_TRACKED,
    CASE_ZERO_REL_VELOCITY,
    classify,
)

from helpers import (
    approaching_pairs,
    brute_force_cpa,
    default_oracle_horizon,
    make_ego,
    make_state,
)

coords = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)
# Sub-nanometer-per-second components underflow sign tests; snap them to the
# legitimate zero-velocity branch instead.
speeds = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False).map(
    lambda v: 0.0 if abs(v) < 1e-9 else v
)
finite = st.floats(allow_nan=False, allow_infinity=False)


def _classify(ex, ey, bx, by, vx, vy):
    """``classify`` of an object at (bx, by) moving with (vx, vy) relative to a still ego."""
    return classify(make_ego(center=(ex, ey)).motion,
                    make_state(center=(bx, by), velocity=(vx, vy)).motion)


def _travel(ex, ey, bx, by, vx, vy):
    """Signed distance from the object to its closest point, along its velocity.

    The approach direction is ill-conditioned where this is near zero.
    """
    return ((ex - bx) * vx + (ey - by) * vy) / math.hypot(vx, vy)


def test_head_on_along_x_axis():
    assert _classify(0, 0, 10, 0, -2, 0) == (CASE_TRACKED, 10.0, 0.0, 5.0)


def test_vertical_line_needs_no_special_case():
    assert _classify(0, 0, 3, 4, 0, 1) == (CASE_RECEDING, 5.0, 0.0, 0.0)
    assert _classify(0, 0, 3, 4, 0, -1) == (CASE_TRACKED, 5.0, 3.0, 4.0)


def test_zero_relative_velocity_leaves_geometry_undefined():
    ego = make_ego(velocity=(3.0, 1.0))
    obj = make_state(center=(6.0, 8.0), velocity=(3.0, 1.0))
    assert classify(ego.motion, obj.motion) == (CASE_ZERO_REL_VELOCITY, 10.0, 0.0, 0.0)


def test_time_to_closest_approach_toward_ego():
    case, d_ego_b, d_ego_c, delta_t = _classify(0, 0, 6, 8, -3, -4)
    assert (case, d_ego_b, d_ego_c) == (CASE_TRACKED, 10.0, 0.0)
    assert delta_t == 2.0


def test_time_overflow_is_non_finite():
    case, _, _, delta_t = _classify(0, 0, 1e300, 0, -1e-300, 0)
    assert case == CASE_NONFINITE_TIME
    assert not math.isfinite(delta_t)


@given(ex=finite, ey=finite, bx=finite, by=finite, evx=finite, evy=finite,
       ovx=finite, ovy=finite, known=st.booleans())
@settings(max_examples=500)
def test_classify_never_raises_on_finite_input(ex, ey, bx, by, evx, evy, ovx, ovy, known):
    ego = make_ego(center=(ex, ey), velocity=(evx, evy))
    obj = make_state(center=(bx, by), velocity=(ovx, ovy) if known else None)
    case, d_ego_b, d_ego_c, delta_t = classify(ego.motion, obj.motion)
    assert repr(d_ego_b) == repr(math.hypot(bx - ex, by - ey))
    if not known:
        assert case == CASE_MISSING_VELOCITY
    elif ovx - evx == 0.0 and ovy - evy == 0.0:
        assert case == CASE_ZERO_REL_VELOCITY
    else:
        assert case in (CASE_RECEDING, CASE_NONFINITE_TIME, CASE_TRACKED)
    if case in (CASE_MISSING_VELOCITY, CASE_ZERO_REL_VELOCITY, CASE_RECEDING):
        assert d_ego_c == 0.0 and delta_t == 0.0
    else:
        assert math.isfinite(delta_t) == (case == CASE_TRACKED)


@given(ex=coords, ey=coords, bx=coords, by=coords, vx=speeds, vy=speeds)
@settings(max_examples=300)
def test_closest_point_is_no_farther_than_object(ex, ey, bx, by, vx, vy):
    _, d_ego_b, d_ego_c, _ = _classify(ex, ey, bx, by, vx, vy)
    assert d_ego_c <= d_ego_b + 1e-9 * max(1.0, d_ego_b)


@given(ex=coords, ey=coords, bx=coords, by=coords, vx=speeds, vy=speeds,
       tx=coords, ty=coords)
@settings(max_examples=200)
def test_translation_invariance(ex, ey, bx, by, vx, vy, tx, ty):
    a = _classify(ex, ey, bx, by, vx, vy)
    b = _classify(ex + tx, ey + ty, bx + tx, by + ty, vx, vy)
    scale = max(1.0, abs(ex), abs(ey), abs(bx), abs(by), abs(tx), abs(ty))
    assert a[1] == pytest.approx(b[1], abs=1e-9 * scale)
    if a[0] == CASE_ZERO_REL_VELOCITY:
        assert b[0] == CASE_ZERO_REL_VELOCITY
        return
    if abs(_travel(ex, ey, bx, by, vx, vy)) > 1e-9 * scale:
        assert a[0] == b[0]
    if a[0] == b[0] == CASE_TRACKED:
        speed = math.hypot(vx, vy)
        assert a[2] == pytest.approx(b[2], abs=1e-9 * scale)
        assert a[3] * speed == pytest.approx(b[3] * speed, abs=1e-9 * scale)


@given(ex=coords, ey=coords, bx=coords, by=coords, vx=speeds, vy=speeds,
       angle=st.floats(min_value=0.0, max_value=2.0 * math.pi))
@settings(max_examples=200)
def test_rotation_invariance(ex, ey, bx, by, vx, vy, angle):
    cos_a, sin_a = math.cos(angle), math.sin(angle)

    def rotate(x, y):
        return cos_a * x - sin_a * y, sin_a * x + cos_a * y

    # Rotate the object position about ego, and the velocity direction with it.
    rx, ry = rotate(bx - ex, by - ey)
    a = _classify(ex, ey, bx, by, vx, vy)
    b = _classify(ex, ey, ex + rx, ey + ry, *rotate(vx, vy))
    scale = max(1.0, abs(ex), abs(ey), abs(bx), abs(by))
    assert a[1] == pytest.approx(b[1], abs=1e-8 * scale)
    assert (a[0] == CASE_ZERO_REL_VELOCITY) == (b[0] == CASE_ZERO_REL_VELOCITY)
    if a[0] == CASE_ZERO_REL_VELOCITY:
        return
    travel = abs(_travel(ex, ey, bx, by, vx, vy))
    if travel > 1e-8 * scale:
        assert a[0] == b[0]
    if a[0] == b[0] == CASE_TRACKED:
        speed = math.hypot(vx, vy)
        assert a[2] == pytest.approx(b[2], abs=1e-8 * scale)
        assert a[3] * speed == pytest.approx(b[3] * speed, abs=1e-8 * scale)
        # Time is d_BC / speed: only well-conditioned away from d_BC ~ 0.
        if travel > 1e-9 * scale:
            assert a[3] == pytest.approx(b[3], rel=1e-6)


@given(ex=coords, ey=coords, bx=coords, by=coords, vx=speeds, vy=speeds)
@settings(max_examples=300)
def test_negating_velocity_flips_approaching(ex, ey, bx, by, vx, vy):
    if (vx == 0.0 and vy == 0.0) or abs(_travel(ex, ey, bx, by, vx, vy)) <= 1e-9:
        return
    a = _classify(ex, ey, bx, by, vx, vy)
    b = _classify(ex, ey, bx, by, -vx, -vy)
    assert (a[0] == CASE_RECEDING) != (b[0] == CASE_RECEDING)


def test_simulation_oracle_agrees_on_sample_batch():
    # Full 1000-scenario run lives in the acceptance suite.
    for ego, obj in approaching_pairs(100, seed=123):
        case, _, d_ego_c, delta_t = classify(ego.motion, obj.motion)
        assert case == CASE_TRACKED
        min_dist, t_min = brute_force_cpa(ego, obj, dt=1e-3,
                                          horizon=default_oracle_horizon(ego, obj))
        assert abs(d_ego_c - min_dist) <= 1e-3
        assert abs(delta_t - t_min) <= 1e-2
