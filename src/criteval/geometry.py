"""Closest-approach geometry between ego and a moving object.

Ego is treated as stationary while the object moves with the relative
velocity. The closest point of approach C is the foot of the
perpendicular from ego onto the object's relative-motion line, computed
by vector projection so a single zero velocity component needs no
special case; the geometry is undefined only when the relative velocity
is exactly zero in both components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Vec2


@dataclass(frozen=True)
class ApproachGeometry:
    """Summary of the approach between ego and one object.

    ``c``, ``d_egoC``, ``d_BC``, ``delta_t`` and ``approaching`` are
    ``None`` exactly when the relative velocity is zero. ``delta_t`` may
    be a non-finite float when the division overflows.
    """

    d_egoB: float
    c: Vec2 | None
    d_egoC: float | None
    d_BC: float | None
    delta_t: float | None
    approaching: bool | None


def relative_velocity(v_b: Vec2, v_ego: Vec2) -> Vec2:
    """Velocity of the object as seen from a stationary ego."""
    return Vec2(v_b.x - v_ego.x, v_b.y - v_ego.y)


def closest_approach(ego_pos: Vec2, b_pos: Vec2, v_rel: Vec2) -> ApproachGeometry:
    """Characterize where the object's relative-motion line passes ego.

    ``approaching`` is true iff the object actually moves towards the
    closest point (a zero displacement counts as approaching: the object
    is already there).
    """
    d_ego_b = math.hypot(b_pos.x - ego_pos.x, b_pos.y - ego_pos.y)
    if v_rel.x == 0.0 and v_rel.y == 0.0:
        return ApproachGeometry(d_ego_b, None, None, None, None, None)
    speed = math.hypot(v_rel.x, v_rel.y)
    ux, uy = v_rel.x / speed, v_rel.y / speed
    along = (ego_pos.x - b_pos.x) * ux + (ego_pos.y - b_pos.y) * uy
    c = Vec2(b_pos.x + along * ux, b_pos.y + along * uy)
    d_ego_c = math.hypot(ego_pos.x - c.x, ego_pos.y - c.y)
    d_b_c = math.hypot(b_pos.x - c.x, b_pos.y - c.y)
    approaching = (c.x - b_pos.x) * v_rel.x + (c.y - b_pos.y) * v_rel.y >= 0.0
    # speed > 0 here (else the division above raised), as time_to_closest_approach computes it.
    return ApproachGeometry(d_ego_b, c, d_ego_c, d_b_c, d_b_c / speed, approaching)


def time_to_closest_approach(geom: ApproachGeometry, v_rel: Vec2) -> float:
    """Time for the object to cover the distance to the closest point.

    Returns a non-finite float (consumed by the criticality corner case)
    when the division overflows or is undefined.
    """
    if geom.approaching is None:
        raise ValueError("time to closest approach requires a defined approach geometry")
    speed = math.hypot(v_rel.x, v_rel.y)
    try:
        return geom.d_BC / speed
    except ZeroDivisionError:
        return math.inf
