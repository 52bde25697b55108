"""Closest-approach geometry: worked cases, invariances, simulation oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criteval.geometry import closest_approach, relative_velocity, time_to_closest_approach
from criteval.model import Vec2
from criteval.synthgen import brute_force_cpa, default_oracle_horizon

from helpers import approaching_pairs

coords = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False)
# Sub-nanometer-per-second components underflow sign tests; snap them to the
# legitimate zero-velocity branch instead.
speeds = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False).map(
    lambda v: 0.0 if abs(v) < 1e-9 else v
)


def test_relative_velocity_examples():
    assert relative_velocity(Vec2(2, 0), Vec2(2, 0)) == Vec2(0.0, 0.0)
    assert relative_velocity(Vec2(0, 0), Vec2(0, 10)) == Vec2(0.0, -10.0)
    assert relative_velocity(Vec2(-3, -4), Vec2(0, 0)) == Vec2(-3.0, -4.0)


def test_head_on_along_x_axis():
    geom = closest_approach(Vec2(0, 0), Vec2(10, 0), Vec2(-2, 0))
    assert geom.c == Vec2(0.0, 0.0)
    assert geom.d_egoB == 10.0
    assert geom.d_egoC == 0.0
    assert geom.d_BC == 10.0
    assert geom.approaching is True
    assert geom.delta_t == 5.0


def test_vertical_line_needs_no_special_case():
    geom = closest_approach(Vec2(0, 0), Vec2(3, 4), Vec2(0, 1))
    assert geom.c == Vec2(3.0, 0.0)
    assert geom.d_egoC == 3.0
    assert geom.d_BC == 4.0
    assert geom.approaching is False


def test_zero_relative_velocity_leaves_geometry_undefined():
    geom = closest_approach(Vec2(0, 0), Vec2(6, 8), Vec2(0, 0))
    assert geom.d_egoB == 10.0
    assert geom.c is None
    assert geom.d_egoC is None
    assert geom.d_BC is None
    assert geom.delta_t is None
    assert geom.approaching is None


def test_time_to_closest_approach_examples():
    geom = closest_approach(Vec2(0, 0), Vec2(10, 0), Vec2(-2, 0))
    assert time_to_closest_approach(geom, Vec2(-2, 0)) == 5.0

    geom = closest_approach(Vec2(0, 0), Vec2(6, 8), Vec2(-3, -4))
    assert time_to_closest_approach(geom, Vec2(-3, -4)) == 2.0


def test_time_overflow_is_non_finite():
    geom = closest_approach(Vec2(0, 0), Vec2(1e300, 0), Vec2(-1e-300, 0))
    assert not math.isfinite(geom.delta_t)


@given(ex=st.floats(allow_nan=False, allow_infinity=False),
       ey=st.floats(allow_nan=False, allow_infinity=False),
       bx=st.floats(allow_nan=False, allow_infinity=False),
       by=st.floats(allow_nan=False, allow_infinity=False),
       vx=st.floats(allow_nan=False, allow_infinity=False),
       vy=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300)
def test_delta_t_is_time_to_closest_approach(ex, ey, bx, by, vx, vy):
    v_rel = Vec2(vx, vy)
    geom = closest_approach(Vec2(ex, ey), Vec2(bx, by), v_rel)
    if geom.approaching is None:
        assert vx == vy == 0.0 and geom.delta_t is None
    else:
        # repr: the same IEEE operation, so equal also when both are nan.
        assert repr(geom.delta_t) == repr(time_to_closest_approach(geom, v_rel))


def test_time_requires_defined_geometry():
    geom = closest_approach(Vec2(0, 0), Vec2(6, 8), Vec2(0, 0))
    with pytest.raises(ValueError):
        time_to_closest_approach(geom, Vec2(0, 0))


@given(ex=coords, ey=coords, bx=coords, by=coords, vx=speeds, vy=speeds)
@settings(max_examples=300)
def test_closest_point_is_no_farther_than_object(ex, ey, bx, by, vx, vy):
    geom = closest_approach(Vec2(ex, ey), Vec2(bx, by), Vec2(vx, vy))
    if geom.d_egoC is not None:
        assert geom.d_egoC <= geom.d_egoB + 1e-9 * max(1.0, geom.d_egoB)


@given(ex=coords, ey=coords, bx=coords, by=coords, vx=speeds, vy=speeds,
       tx=coords, ty=coords)
@settings(max_examples=200)
def test_translation_invariance(ex, ey, bx, by, vx, vy, tx, ty):
    a = closest_approach(Vec2(ex, ey), Vec2(bx, by), Vec2(vx, vy))
    b = closest_approach(Vec2(ex + tx, ey + ty), Vec2(bx + tx, by + ty), Vec2(vx, vy))
    scale = max(1.0, abs(ex), abs(ey), abs(bx), abs(by), abs(tx), abs(ty))
    assert a.d_egoB == pytest.approx(b.d_egoB, abs=1e-9 * scale)
    if a.d_egoC is not None:
        assert a.d_egoC == pytest.approx(b.d_egoC, abs=1e-9 * scale)
        assert a.d_BC == pytest.approx(b.d_BC, abs=1e-9 * scale)
        if min(a.d_BC, b.d_BC) > 1e-9 * scale:  # sign is ill-conditioned at d_BC ~ 0
            assert a.approaching == b.approaching


@given(ex=coords, ey=coords, bx=coords, by=coords, vx=speeds, vy=speeds,
       angle=st.floats(min_value=0.0, max_value=2.0 * math.pi))
@settings(max_examples=200)
def test_rotation_invariance(ex, ey, bx, by, vx, vy, angle):
    cos_a, sin_a = math.cos(angle), math.sin(angle)

    def rotate(p: Vec2) -> Vec2:
        return Vec2(cos_a * p.x - sin_a * p.y, sin_a * p.x + cos_a * p.y)

    # Rotate the object position about ego, and the velocity direction with it.
    ego = Vec2(ex, ey)
    rel = rotate(Vec2(bx - ex, by - ey))
    a = closest_approach(ego, Vec2(bx, by), Vec2(vx, vy))
    b = closest_approach(ego, Vec2(ex + rel.x, ey + rel.y), rotate(Vec2(vx, vy)))
    scale = max(1.0, abs(ex), abs(ey), abs(bx), abs(by))
    assert a.d_egoB == pytest.approx(b.d_egoB, abs=1e-8 * scale)
    if a.d_egoC is not None:
        assert a.d_egoC == pytest.approx(b.d_egoC, abs=1e-8 * scale)
        assert a.d_BC == pytest.approx(b.d_BC, abs=1e-8 * scale)
        # Time is d_BC / speed: only well-conditioned away from d_BC ~ 0.
        if math.isfinite(a.delta_t) and min(a.d_BC, b.d_BC) > 1e-9 * scale:
            assert a.delta_t == pytest.approx(b.delta_t, rel=1e-6)


@given(ex=coords, ey=coords, bx=coords, by=coords, vx=speeds, vy=speeds)
@settings(max_examples=300)
def test_negating_velocity_flips_approaching(ex, ey, bx, by, vx, vy):
    a = closest_approach(Vec2(ex, ey), Vec2(bx, by), Vec2(vx, vy))
    if a.approaching is None or a.d_BC <= 1e-9:
        return
    b = closest_approach(Vec2(ex, ey), Vec2(bx, by), Vec2(-vx, -vy))
    assert a.approaching != b.approaching


def test_simulation_oracle_agrees_on_sample_batch():
    # Full 1000-scenario run lives in the acceptance suite.
    for ego, obj in approaching_pairs(100, seed=123):
        v_rel = relative_velocity(obj.velocity, ego.velocity)
        geom = closest_approach(ego.center, obj.center, v_rel)
        assert geom.approaching is True
        min_dist, t_min = brute_force_cpa(ego, obj, dt=1e-3,
                                          horizon=default_oracle_horizon(ego, obj))
        assert abs(geom.d_egoC - min_dist) <= 1e-3
        assert abs(geom.delta_t - t_min) <= 1e-2
