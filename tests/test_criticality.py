"""Criticality scores: parabola, combination, corner cases, monotonicity."""

import ast
import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criteval import criticality
from criteval.criticality import (
    CriticalityConfig,
    combine,
    criticality_components,
    parabolic_score,
)
from criteval.model import Vec2

from helpers import LARGEST_CAP, SMALLEST_CAP, make_ego, make_state

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_parabolic_score_examples():
    assert parabolic_score(0.0, 20.0) == 1.0
    assert parabolic_score(20.0, 20.0) == 0.0
    assert parabolic_score(10.0, 20.0) == 0.75


@given(x=st.floats(min_value=0.0, max_value=1e6), z=st.floats(min_value=1e-3, max_value=1e6))
@settings(max_examples=500)
def test_parabolic_score_bounds_and_clip(x, z):
    score = parabolic_score(x, z)
    assert 0.0 <= score <= 1.0
    if x >= z:
        assert score == 0.0


@given(z=st.floats(min_value=1e-3, max_value=1e6),
       a=st.floats(min_value=0.0, max_value=1.0), b=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=500)
def test_parabolic_score_strictly_decreasing_inside(z, a, b):
    x1, x2 = sorted((a * z, b * z))
    if x1 == x2 or x2 >= z:
        return
    s1, s2 = parabolic_score(x1, z), parabolic_score(x2, z)
    assert s1 >= s2
    # Strict once the step is resolvable at double precision.
    if (x2 * x2 - x1 * x1) / (z * z) > 1e-15:
        assert s1 > s2


def test_combine_examples():
    assert combine(0.0, 0.0, 0.0) == 0.0
    assert combine(1.0, 0.2, 0.0) == 1.0
    assert combine(0.5, 0.5, 0.5) == 0.875


def test_combine_rejects_out_of_range():
    with pytest.raises(ValueError):
        combine(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        combine(0.5, -0.1, 0.0)


@given(kd=unit, kr=unit, kt=unit)
@settings(max_examples=1000)
def test_combine_bounds_and_extremes(kd, kr, kt):
    value = combine(kd, kr, kt)
    assert 0.0 <= value <= 1.0
    if kd == kr == kt == 0.0:
        assert value == 0.0
    if 1.0 in (kd, kr, kt):
        assert value == 1.0


@given(kd=unit, kr=unit, kt=unit, bump=unit)
@settings(max_examples=500)
def test_combine_monotone_in_each_argument(kd, kr, kt, bump):
    base = combine(kd, kr, kt)
    assert combine(min(1.0, kd + bump), kr, kt) >= base
    assert combine(kd, min(1.0, kr + bump), kt) >= base
    assert combine(kd, kr, min(1.0, kt + bump)) >= base


def test_chained_head_on_example():
    ego = make_ego(center=(0.0, 0.0), velocity=(0.0, 0.0))
    obj = make_state(center=(6.0, 8.0), velocity=(-3.0, -4.0))
    w = criticality_components(ego, obj, CriticalityConfig(30.0, 20.0, 8.0))
    assert w.kappa_d == pytest.approx(1.0 - 100.0 / 900.0, abs=1e-12)
    assert w.kappa_r == 1.0
    assert w.kappa_t == 1.0 - 4.0 / 64.0
    assert w.kappa == 1.0


def test_missing_velocity_is_maximally_cautious():
    ego = make_ego()
    obj = make_state(center=(40.0, 0.0), velocity=None)
    w = criticality_components(ego, obj, CriticalityConfig(30.0, 20.0, 8.0))
    assert w.kappa_d == 0.0
    assert w.kappa_r == 1.0 and w.kappa_t == 1.0
    assert w.kappa == 1.0


def test_zero_relative_velocity_scores_only_distance():
    ego = make_ego(velocity=(3.0, 1.0))
    obj = make_state(center=(15.0, 0.0), velocity=(3.0, 1.0))
    w = criticality_components(ego, obj, CriticalityConfig(30.0, 20.0, 8.0))
    assert w.kappa_r == 0.0 and w.kappa_t == 0.0
    assert w.kappa == w.kappa_d == 0.75


CORNER_CFG = CriticalityConfig(30.0, 20.0, 8.0)


@pytest.mark.parametrize(
    "ego,obj,expected_kr,expected_kt",
    [
        # same velocity as ego in both components
        (make_ego(velocity=(2.0, 1.0)),
         make_state(center=(10.0, 0.0), velocity=(2.0, 1.0)), 0.0, 0.0),
        # moving away from the closest point on its line
        (make_ego(velocity=(2.0, 1.0)),
         make_state(center=(3.0, 4.0), velocity=(2.0, 2.0)), 0.0, 0.0),
        # enormous distance over tiny speed overflows the time
        (make_ego(velocity=(0.0, 0.0)),
         make_state(center=(1e300, 0.0), velocity=(-1e-300, 0.0)), None, 0.1),
        # velocity not available
        (make_ego(velocity=(2.0, 1.0)),
         make_state(center=(10.0, 0.0), velocity=None), 1.0, 1.0),
    ],
)
def test_corner_cases(ego, obj, expected_kr, expected_kt):
    w = criticality_components(ego, obj, CORNER_CFG)
    if expected_kr is not None:
        assert w.kappa_r == expected_kr
    assert w.kappa_t == expected_kt


def test_single_zero_velocity_component_needs_no_special_case():
    # Purely vertical relative motion: the projection form has no slope branch.
    ego = make_ego(velocity=(0.0, 0.0))
    obj = make_state(center=(3.0, 4.0), velocity=(0.0, -1.0))
    w = criticality_components(ego, obj, CORNER_CFG)
    assert w.kappa_r == parabolic_score(3.0, 20.0)
    assert w.kappa_t == parabolic_score(4.0, 8.0)


def test_missing_ego_velocity_aborts():
    ego = dataclasses.replace(make_ego(), velocity=None)
    with pytest.raises(ValueError, match="ego velocity"):
        criticality_components(ego, make_state(), CORNER_CFG)


def test_weights_ignore_size_and_yaw():
    ego = make_ego(velocity=(1.0, 0.0))
    obj = make_state(center=(12.0, 5.0), velocity=(-4.0, 0.5))
    w1 = criticality_components(ego, obj, CORNER_CFG)
    w2 = criticality_components(
        ego, dataclasses.replace(obj, size=(9.0, 14.0), yaw=2.5), CORNER_CFG
    )
    assert w1 == w2


@given(
    bx=st.floats(min_value=-45.0, max_value=45.0),
    by=st.floats(min_value=-45.0, max_value=45.0),
    vx=st.floats(min_value=-15.0, max_value=15.0),
    vy=st.floats(min_value=-15.0, max_value=15.0),
    grow=st.floats(min_value=0.0, max_value=30.0),
)
@settings(max_examples=300)
def test_kappa_monotone_in_caps(bx, by, vx, vy, grow):
    ego = make_ego(velocity=(2.0, -1.0))
    obj = make_state(center=(bx, by), velocity=(vx, vy))
    small = CriticalityConfig(20.0, 15.0, 6.0)
    for bigger in (
        CriticalityConfig(20.0 + grow, 15.0, 6.0),
        CriticalityConfig(20.0, 15.0 + grow, 6.0),
        CriticalityConfig(20.0, 15.0, 6.0 + grow),
    ):
        assert criticality_components(ego, obj, bigger).kappa >= criticality_components(
            ego, obj, small
        ).kappa


def test_config_validation():
    with pytest.raises(ValueError):
        CriticalityConfig(0.0, 20.0, 8.0)
    with pytest.raises(ValueError):
        CriticalityConfig(20.0, 20.0, math.inf)


def test_caps_whose_square_is_zero_or_inf_are_rejected():
    for cap, beyond in ((SMALLEST_CAP, 0.0), (LARGEST_CAP, math.inf)):
        outside = math.nextafter(cap, beyond)
        assert 0.0 < cap * cap < math.inf and outside * outside == beyond
        for name in ("d_max", "r_max", "t_max"):
            caps = {"d_max": 20.0, "r_max": 20.0, "t_max": 8.0}
            assert getattr(CriticalityConfig(**{**caps, name: cap}), name) == cap
            message = f"{name} must have a positive finite square, got {outside}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                CriticalityConfig(**{**caps, name: outside})
    with pytest.raises(ValueError, match=r"^d_max must be positive and finite, got 0.0$"):
        CriticalityConfig(0.0, 20.0, 8.0)


def test_scalar_kappa_imports_no_array_code():
    # bench/check.py:reference_curve checks the pipeline's kappa against the
    # scalar criticality_components "with none of the pipeline's array code".
    # If this module used numpy or criteval.metrics, that check would compare
    # the kernel with itself.
    imported = set()
    for node in ast.walk(ast.parse(Path(criticality.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["criteval" if node.level else "", node.module]))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert imported, "no imports found: the parse is wrong"
    banned = [name for name in imported
              if name.split(".")[0] == "numpy" or name.startswith("criteval.metrics")]
    assert banned == []
