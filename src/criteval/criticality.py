"""Object criticality weights.

Each object gets three component scores in [0, 1] — current distance,
closest-approach distance, time to closest approach — each a downward
parabola clipped at a configurable cap, combined into a single weight
``kappa = 1 - (1 - kappa_d)(1 - kappa_r)(1 - kappa_t)``.

Degenerate approach situations are classified once, independent of the
caps, so weights for many configurations can be recomputed cheaply:

* missing object velocity       -> kappa_r = kappa_t = 1 (worst case)
* zero relative velocity        -> kappa_r = kappa_t = 0
* moving away from the closest point -> kappa_r = kappa_t = 0
* non-finite time to approach   -> kappa_t = 0.1 (low but nonzero)
* otherwise                     -> both scored from the geometry
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # model loads numpy, which annotations alone do not need
    from .model import ObjectState

CASE_MISSING_VELOCITY = 0
CASE_ZERO_REL_VELOCITY = 1
CASE_RECEDING = 2
CASE_NONFINITE_TIME = 3
CASE_TRACKED = 4

NONFINITE_TIME_SCORE = 0.1


@dataclass(frozen=True)
class CriticalityConfig:
    """Caps (meters, meters, seconds) beyond which each component score is zero."""

    d_max: float
    r_max: float
    t_max: float

    def __post_init__(self) -> None:
        for name, value in (("d_max", self.d_max), ("r_max", self.r_max), ("t_max", self.t_max)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
            if not 0.0 < value * value < math.inf:  # the parabolas divide by it
                raise ValueError(f"{name} must have a positive finite square, got {value}")


@dataclass(frozen=True)
class CriticalityWeights:
    kappa_d: float
    kappa_r: float
    kappa_t: float
    kappa: float


# bench/check.py:116,127 (reference_curve) use criticality_components and its scalar chain
# (weights_from_class, parabolic_score, combine) as a kappa oracle free of the array kernel.
def parabolic_score(x: float, z: float) -> float:
    """Downward parabola through (0, 1) and (z, 0), clipped to [0, 1]."""
    return max(0.0, -(x * x) / (z * z) + 1.0)


def combine(kd: float, kr: float, kt: float) -> float:
    """Product-form combination: 0 iff all components are 0, 1 iff any is 1."""
    for value in (kd, kr, kt):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"criticality components must be in [0, 1], got {value}")
    return 1.0 - (1.0 - kd) * (1.0 - kr) * (1.0 - kt)


def classify(ego: tuple, obj: tuple) -> tuple[int, float, float, float]:
    """Cap-independent geometry summary ``(case, d_egoB, d_egoC, delta_t)``.

    ``ego`` and ``obj`` are ``(x, y, velocity)`` (:attr:`ObjectState.motion`),
    a velocity being a ``(vx, vy)`` pair or None when unknown. Ego is held
    still; the object moves with the relative velocity
    ``v_obj - v_ego``. Its closest point C to ego is found by projecting onto
    the unit velocity, so a single zero velocity component needs no slope
    branch, and the geometry is undefined only when the relative velocity is
    exactly zero in both components. The object approaches iff it moves
    towards C (a zero displacement counts: it is already there); ``delta_t``,
    its distance to C over its speed, may overflow. ``d_egoC`` and
    ``delta_t`` are stored as 0.0 for the cases that do not use them.
    """
    ex, ey, ego_velocity = ego
    bx, by, velocity = obj
    if ego_velocity is None:
        raise ValueError("ego velocity must be known")
    d_ego_b = math.hypot(bx - ex, by - ey)
    if velocity is None:
        return (CASE_MISSING_VELOCITY, d_ego_b, 0.0, 0.0)
    vx, vy = velocity[0] - ego_velocity[0], velocity[1] - ego_velocity[1]
    if vx == 0.0 and vy == 0.0:
        return (CASE_ZERO_REL_VELOCITY, d_ego_b, 0.0, 0.0)
    speed = math.hypot(vx, vy)
    ux, uy = vx / speed, vy / speed
    along = (ex - bx) * ux + (ey - by) * uy
    cx, cy = bx + along * ux, by + along * uy
    # Also false when the projection is nan (an overflowing relative velocity).
    if not (cx - bx) * vx + (cy - by) * vy >= 0.0:
        return (CASE_RECEDING, d_ego_b, 0.0, 0.0)
    delta_t = math.hypot(bx - cx, by - cy) / speed
    case = CASE_TRACKED if math.isfinite(delta_t) else CASE_NONFINITE_TIME
    return (case, d_ego_b, math.hypot(ex - cx, ey - cy), delta_t)


def weights_from_class(
    case: int, d_ego_b: float, d_ego_c: float, delta_t: float, cfg: CriticalityConfig
) -> CriticalityWeights:
    """Turn a classified geometry summary into the three scores and their combination."""
    kd = parabolic_score(d_ego_b, cfg.d_max)
    if case == CASE_MISSING_VELOCITY:
        kr = kt = 1.0
    elif case in (CASE_ZERO_REL_VELOCITY, CASE_RECEDING):
        kr = kt = 0.0
    elif case == CASE_NONFINITE_TIME:
        kr = parabolic_score(d_ego_c, cfg.r_max) if math.isfinite(d_ego_c) else NONFINITE_TIME_SCORE
        kt = NONFINITE_TIME_SCORE
    else:
        kr = parabolic_score(d_ego_c, cfg.r_max)
        kt = parabolic_score(delta_t, cfg.t_max)
    return CriticalityWeights(kd, kr, kt, combine(kd, kr, kt))


def criticality_components(
    ego: ObjectState, obj: ObjectState, cfg: CriticalityConfig
) -> CriticalityWeights:
    """Criticality of one object relative to ego.

    The same computation serves ground-truth states and predicted states;
    the caller chooses which state to pass. Ego state is always ground
    truth.
    """
    case, d_ego_b, d_ego_c, delta_t = classify(ego.motion, obj.motion)
    return weights_from_class(case, d_ego_b, d_ego_c, delta_t, cfg)
