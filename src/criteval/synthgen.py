"""Deterministic synthetic scenarios and brute-force oracles.

Generated datasets use constant-velocity kinematics at the 0.5 s keyframe
cadence and serialize through the same schemas the loaders accept. All
randomness flows through :class:`SplitMix64`, a tiny fixed-rule generator,
so a seed reproduces the same bytes on any platform or implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .model import (
    DEFAULT_EGO_SIZE,
    EGO_ID,
    Dataset,
    Detection,
    Frame,
    IngestError,
    ObjectState,
    Vec2,
    _finite,
    _heading,
    _nonempty_str,
    _point,
    _require,
    _size,
    _velocity,
)

KEYFRAME_INTERVAL = 0.5
DEFAULT_OBJECT_SIZE = (2.0, 4.5)
ORACLE_HORIZON_CAP = 120.0


class SplitMix64:
    """SplitMix64 pseudo-random generator.

    64-bit state; each draw adds the constant 0x9E3779B97F4A7C15 to the
    state and scrambles it with two xor-shift-multiply rounds
    (0xBF58476D1CE4E5B9 then 0x94D049BB133111EB, final shift 31). Uniform
    doubles take the top 53 bits; gaussians use one Box-Muller evaluation
    per draw (two uniforms each, no caching); Poisson counts multiply
    uniforms until the product drops below exp(-rate).
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def gauss(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        return mean + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def poisson(self, rate: float) -> int:
        if rate <= 0:
            return 0
        limit = math.exp(-rate)
        count = 0
        product = self.uniform()
        while product > limit:
            count += 1
            product *= self.uniform()
        return count


@dataclass(frozen=True)
class ScenarioObject:
    start: Vec2
    velocity: Vec2 | None
    class_name: str = "car"
    size: tuple[float, float] = DEFAULT_OBJECT_SIZE
    object_id: str | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    """Constant-velocity scene description; the seed fully determines output."""

    n_frames: int
    ego_start: Vec2
    ego_velocity: Vec2
    objects: list[ScenarioObject]
    seed: int = 0
    frame_prefix: str = "frame"


@dataclass(frozen=True)
class ErrorModel:
    """Detector imperfections applied to ground truth.

    ``miss_prob_by_distance`` is either a constant probability or a list of
    ``(distance_limit, probability)`` steps with increasing limits; an object at
    distance d uses the first step with d <= distance_limit, and the last
    probability beyond the final limit. Spurious detections are drawn per
    frame from a Poisson with ``fp_rate_per_frame``, placed uniformly in a
    disc of ``fp_radius`` around ego. Confidences are clamped gaussians per
    the true/false entries of ``confidence_model``.
    """

    miss_prob_by_distance: float | list[tuple[float, float]] = 0.0
    center_noise_sigma: float = 0.0
    velocity_noise_sigma: float = 0.0
    fp_rate_per_frame: float = 0.0
    confidence_model: dict[str, dict[str, float]] = field(
        default_factory=lambda: {
            "true": {"mean": 0.8, "std": 0.1},
            "false": {"mean": 0.3, "std": 0.1},
        }
    )
    fp_radius: float = 50.0

    def miss_probability(self, distance: float) -> float:
        if isinstance(self.miss_prob_by_distance, (int, float)):
            return float(self.miss_prob_by_distance)
        steps = self.miss_prob_by_distance
        for limit, prob in steps:
            if distance <= limit:
                return prob
        return steps[-1][1] if steps else 0.0


def gen_dataset(spec: ScenarioSpec) -> Dataset:
    """Frames sampled every 0.5 s; objects with unknown velocity stay put."""
    frames: list[Frame] = []
    for k in range(spec.n_frames):
        t = k * KEYFRAME_INTERVAL
        ego = ObjectState(
            object_id=EGO_ID,
            class_name=EGO_ID,
            center=Vec2(spec.ego_start.x + spec.ego_velocity.x * t,
                        spec.ego_start.y + spec.ego_velocity.y * t),
            velocity=spec.ego_velocity,
            size=DEFAULT_EGO_SIZE,
            yaw=_heading(spec.ego_velocity),
        )
        objects = []
        for i, obj in enumerate(spec.objects):
            vx, vy = (0.0, 0.0) if obj.velocity is None else (obj.velocity.x, obj.velocity.y)
            objects.append(
                ObjectState(
                    object_id=obj.object_id or f"obj{i:03d}",
                    class_name=obj.class_name,
                    center=Vec2(obj.start.x + vx * t, obj.start.y + vy * t),
                    velocity=obj.velocity,
                    size=obj.size,
                    yaw=_heading(obj.velocity),
                )
            )
        frames.append(Frame(f"{spec.frame_prefix}{k:03d}", t, ego, objects))
    return Dataset(frames=frames, meta={"generator": "criteval.synthgen", "seed": spec.seed})


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


def corrupt(dataset: Dataset, model: ErrorModel, seed: int) -> list[Detection]:
    """Derive detections from ground truth with seeded misses, noise and FPs.

    Frames and objects are visited in dataset order with a fixed draw
    sequence per object, so the output is a pure function of (dataset,
    model, seed).
    """
    rng = SplitMix64(seed)
    detections: list[Detection] = []
    for frame in dataset.frames:
        index = 0
        for obj in frame.ground_truth:
            distance = math.hypot(
                obj.center.x - frame.ego.center.x, obj.center.y - frame.ego.center.y
            )
            if rng.uniform() < model.miss_probability(distance):
                continue
            center = Vec2(
                obj.center.x + rng.gauss(0.0, model.center_noise_sigma),
                obj.center.y + rng.gauss(0.0, model.center_noise_sigma),
            )
            velocity = obj.velocity
            if velocity is not None:
                velocity = Vec2(
                    velocity.x + rng.gauss(0.0, model.velocity_noise_sigma),
                    velocity.y + rng.gauss(0.0, model.velocity_noise_sigma),
                )
            conf_params = model.confidence_model["true"]
            confidence = _clamp01(rng.gauss(conf_params["mean"], conf_params["std"]))
            state = ObjectState(
                object_id=f"det{index}",
                class_name=obj.class_name,
                center=center,
                velocity=velocity,
                size=obj.size,
                yaw=obj.yaw,
            )
            detections.append(Detection(frame.frame_id, state, confidence))
            index += 1
        for _ in range(rng.poisson(model.fp_rate_per_frame)):
            angle = 2.0 * math.pi * rng.uniform()
            radius = model.fp_radius * math.sqrt(rng.uniform())
            speed = 15.0 * rng.uniform()
            direction = 2.0 * math.pi * rng.uniform()
            conf_params = model.confidence_model["false"]
            state = ObjectState(
                object_id=f"det{index}",
                class_name="car",
                center=Vec2(
                    frame.ego.center.x + radius * math.cos(angle),
                    frame.ego.center.y + radius * math.sin(angle),
                ),
                velocity=Vec2(speed * math.cos(direction), speed * math.sin(direction)),
                size=DEFAULT_OBJECT_SIZE,
                yaw=direction,
            )
            detections.append(
                Detection(frame.frame_id, state, _clamp01(rng.gauss(conf_params["mean"], conf_params["std"])))
            )
            index += 1
    return detections


def default_oracle_horizon(ego: ObjectState, obj: ObjectState) -> float:
    """Long enough to bracket any closest approach within the eval range."""
    v_rel = Vec2(obj.velocity.x - ego.velocity.x, obj.velocity.y - ego.velocity.y)
    speed = math.hypot(v_rel.x, v_rel.y)
    if speed == 0.0:
        return ORACLE_HORIZON_CAP
    distance = math.hypot(obj.center.x - ego.center.x, obj.center.y - ego.center.y)
    return min(ORACLE_HORIZON_CAP, 4.0 * distance / speed)


def brute_force_cpa(
    ego: ObjectState, obj: ObjectState, dt: float, horizon: float
) -> tuple[float, float]:
    """Sampled closest approach: step the object by the relative velocity
    with ego fixed and return (min distance, time of the minimum)."""
    if not dt > 0 or not horizon > 0:
        raise ValueError("dt and horizon must be positive")
    if ego.velocity is None or obj.velocity is None:
        raise ValueError("brute_force_cpa requires both velocities")
    v_rel = Vec2(obj.velocity.x - ego.velocity.x, obj.velocity.y - ego.velocity.y)
    times = np.arange(0.0, horizon + dt, dt)
    dx = (obj.center.x - ego.center.x) + v_rel.x * times
    dy = (obj.center.y - ego.center.y) + v_rel.y * times
    distances = np.hypot(dx, dy)
    best = int(np.argmin(distances))
    return float(distances[best]), float(times[best])


# ---------------------------------------------------------------------------
# JSON forms accepted by the CLI.


def _integer(value: Any, path: str) -> int:
    """A JSON integer: strings, booleans and floats (even ``2.0``) are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise IngestError(f"{path}: expected an integer, got {value!r}")
    return value


def scenario_from_dict(data: Any, path: str = "$") -> ScenarioSpec:
    """Scenario from its JSON form; errors name the offending location under ``path``."""
    n_frames = _integer(_require(data, "n_frames", path), f"{path}.n_frames")
    if n_frames < 0:
        raise IngestError(f"{path}.n_frames: expected a nonnegative integer, got {n_frames}")
    frame_prefix = data.get("frame_prefix", "frame")
    if not isinstance(frame_prefix, str):
        raise IngestError(f"{path}.frame_prefix: expected a string, got {frame_prefix!r}")
    ego = _require(data, "ego", path)
    objects_raw = data.get("objects", [])
    if not isinstance(objects_raw, list):
        raise IngestError(f"{path}.objects: expected a list")
    objects = []
    ids: set[str] = set()
    for i, obj in enumerate(objects_raw):
        obj_path = f"{path}.objects[{i}]"
        start = _point(_require(obj, "start", obj_path), f"{obj_path}.start")
        size, object_id = obj.get("size"), obj.get("id")
        class_name = _nonempty_str(obj.get("class", "car"), f"{obj_path}.class")
        # gen_dataset names an object without an id obj000, obj001, ...
        written_id = (f"obj{i:03d}" if object_id is None
                      else _nonempty_str(object_id, f"{obj_path}.id"))
        if written_id in ids:
            raise IngestError(f"{obj_path}.id: duplicate object id {written_id!r}")
        ids.add(written_id)
        objects.append(
            ScenarioObject(
                start=start,
                velocity=_velocity(obj.get("velocity"), f"{obj_path}.velocity"),
                class_name=class_name,
                size=DEFAULT_OBJECT_SIZE if size is None else _size(size, f"{obj_path}.size"),
                object_id=object_id,
            )
        )
    return ScenarioSpec(
        n_frames=n_frames,
        ego_start=_point(_require(ego, "start", f"{path}.ego"), f"{path}.ego.start"),
        ego_velocity=_point(_require(ego, "velocity", f"{path}.ego"), f"{path}.ego.velocity"),
        objects=objects,
        seed=_integer(data.get("seed", 0), f"{path}.seed"),
        frame_prefix=frame_prefix,
    )


def _number_in(value: Any, path: str, low: float, high: float = math.inf) -> float:
    out = _finite(value, path)
    if not low <= out <= high:
        raise IngestError(f"{path}: expected a number in [{low:g}, {high:g}], got {out!r}")
    return out


def error_model_from_dict(data: Any, path: str = "$") -> ErrorModel:
    """Error model from its JSON form; errors name the offending location under ``path``."""
    if not isinstance(data, dict):
        raise IngestError(f"{path}: expected an object")
    miss = data.get("miss_prob_by_distance", 0.0)
    miss_path = f"{path}.miss_prob_by_distance"
    if not isinstance(miss, list):
        miss = _number_in(miss, miss_path, 0.0, 1.0)
    else:
        for i, step in enumerate(miss):
            if not isinstance(step, list) or len(step) != 2:
                raise IngestError(f"{miss_path}[{i}]: expected [distance_limit, prob]")
        miss = [(_number_in(limit, f"{miss_path}[{i}][0]", 0.0),
                 _number_in(prob, f"{miss_path}[{i}][1]", 0.0, 1.0))
                for i, (limit, prob) in enumerate(miss)]
        for i in range(1, len(miss)):
            if miss[i][0] <= miss[i - 1][0]:
                raise IngestError(f"{miss_path}[{i}][0]: expected a value greater than "
                                  f"{miss[i - 1][0]!r}, got {miss[i][0]!r}")
    fields: dict[str, Any] = {"miss_prob_by_distance": miss}
    for key in ("center_noise_sigma", "velocity_noise_sigma", "fp_rate_per_frame", "fp_radius"):
        if key in data:
            fields[key] = _number_in(data[key], f"{path}.{key}", 0.0)
    if "confidence_model" in data:
        conf, conf_path = data["confidence_model"], f"{path}.confidence_model"
        fields["confidence_model"] = {
            kind: {
                key: _number_in(
                    _require(_require(conf, kind, conf_path), key, f"{conf_path}.{kind}"),
                    f"{conf_path}.{kind}.{key}", 0.0, high)
                for key, high in (("mean", 1.0), ("std", math.inf))
            }
            for kind in ("true", "false")
        }
    return ErrorModel(**fields)
