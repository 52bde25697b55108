"""Domain types, JSON ingestion and serialization for ground-truth frames and detections.

Which objects an evaluation sees (one class, within a range of the ego)
is decided in one place, :class:`criteval.metrics.CurveAccumulator`.

All positions are 2D ``(x, y)`` coordinates in meters in one global frame
per scene; velocities are m/s. Inputs may carry a third (altitude)
component in center/velocity arrays; it is ignored. An object velocity is
either fully known or missing as a whole: ``null`` or any non-finite
component loads as ``None``. Every numeric field must be a JSON number; a
string or a boolean is rejected.

Ground-truth schema::

    {"frames": [{"frame_id": str, "timestamp": float,
                 "ego": {"center": [x, y], "velocity": [vx, vy]},
                 "objects": [{"id": str, "class": str, "center": [x, y],
                              "velocity": [vx, vy] | null,
                              "size": [width, length], "yaw": float}]}],
     "meta": {...}}

``ego`` may optionally carry ``size`` and ``yaw`` (used by the bird-view
renderer); by default the ego heading is derived from its velocity.

Detection schema (a 2D subset of nuScenes-style result files)::

    {"results": {"<frame_id>": [{"class": str, "center": [x, y],
                                 "velocity": [vx, vy] | null,
                                 "size": [width, length], "yaw": float,
                                 "confidence": float}]},
     "meta": {...}}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, NamedTuple

EGO_ID = "ego"
DEFAULT_EGO_SIZE = (2.0, 5.0)


class IngestError(ValueError):
    """An input file failed schema or invariant validation."""


class Vec2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class ObjectState:
    """Kinematic snapshot of one object at a keyframe.

    ``velocity`` is ``None`` when the velocity is not available.
    ``size`` is (width, length) in meters; length runs along the heading.
    """

    object_id: str
    class_name: str
    center: Vec2
    velocity: Vec2 | None
    size: tuple[float, float]
    yaw: float


@dataclass(frozen=True)
class Frame:
    frame_id: str
    timestamp: float
    ego: ObjectState
    ground_truth: list[ObjectState]


@dataclass(frozen=True)
class Detection:
    frame_id: str
    state: ObjectState
    confidence: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class Dataset:
    frames: list[Frame]
    meta: dict[str, Any] = field(default_factory=dict)

    def frame(self, frame_id: str) -> Frame:
        for f in self.frames:
            if f.frame_id == frame_id:
                return f
        raise KeyError(frame_id)


# ---------------------------------------------------------------------------
# Parsing helpers. Every raising path names the offending JSON location.


def _require(mapping: Any, key: str, path: str) -> Any:
    if not isinstance(mapping, dict):
        raise IngestError(f"{path}: expected an object")
    if key not in mapping:
        raise IngestError(f"{path}: missing required field '{key}'")
    return mapping[key]


def _number(value: Any, path: str) -> float:
    """A JSON number as a float: strings and booleans are rejected, a huge integer is inf."""
    if type(value) is float:  # almost every value; the checks below cost 3x as much
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise IngestError(f"{path}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite(value: Any, path: str) -> float:
    out = _number(value, path)
    if not math.isfinite(out):
        raise IngestError(f"{path}: expected a finite number, got {out!r}")
    return out


def _point(value: Any, path: str) -> Vec2:
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise IngestError(f"{path}: expected [x, y]")
    return Vec2(_finite(value[0], f"{path}[0]"), _finite(value[1], f"{path}[1]"))


def _velocity(value: Any, path: str) -> Vec2 | None:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise IngestError(f"{path}: expected [vx, vy] or null")
    vx, vy = _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")
    if not (math.isfinite(vx) and math.isfinite(vy)):
        return None
    return Vec2(vx, vy)


def _size(value: Any, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) < 2:
        raise IngestError(f"{path}: expected [width, length]")
    w, l = _finite(value[0], f"{path}[0]"), _finite(value[1], f"{path}[1]")
    if w <= 0 or l <= 0:
        raise IngestError(f"{path}: size components must be positive, got [{w}, {l}]")
    return (w, l)


def _heading(velocity: Vec2 | None) -> float:
    """The direction of travel in radians; 0.0 for an unknown or zero velocity."""
    if velocity is None or velocity == (0.0, 0.0):
        return 0.0
    return math.atan2(velocity.y, velocity.x)


def _ego_state(obj: Any, path: str) -> ObjectState:
    center = _point(_require(obj, "center", path), f"{path}.center")
    velocity = _velocity(_require(obj, "velocity", path), f"{path}.velocity")
    if velocity is None:
        raise IngestError(f"{path}.velocity: ego velocity must be known and finite")
    if "yaw" in obj and obj["yaw"] is not None:
        yaw = _finite(obj["yaw"], f"{path}.yaw")
    else:
        yaw = _heading(velocity)
    size = _size(obj["size"], f"{path}.size") if obj.get("size") is not None else DEFAULT_EGO_SIZE
    return ObjectState(EGO_ID, EGO_ID, center, velocity, size, yaw)


def _nonempty_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise IngestError(f"{path}: expected a nonempty string, got {value!r}")
    return value


def _object_state(obj: Any, path: str, object_id: str) -> ObjectState:
    return ObjectState(
        object_id=object_id,
        class_name=_nonempty_str(_require(obj, "class", path), f"{path}.class"),
        center=_point(_require(obj, "center", path), f"{path}.center"),
        velocity=_velocity(_require(obj, "velocity", path), f"{path}.velocity"),
        size=_size(_require(obj, "size", path), f"{path}.size"),
        yaw=_finite(_require(obj, "yaw", path), f"{path}.yaw"),
    )


def dataset_from_dict(data: Any) -> Dataset:
    """Build a validated :class:`Dataset` from a parsed ground-truth document."""
    frames_raw = _require(data, "frames", "$")
    if not isinstance(frames_raw, list):
        raise IngestError("$.frames: expected a list")
    frames: list[Frame] = []
    seen_frames: set[str] = set()
    for i, fr in enumerate(frames_raw):
        path = f"$.frames[{i}]"
        frame_id = _nonempty_str(_require(fr, "frame_id", path), f"{path}.frame_id")
        if frame_id in seen_frames:
            raise IngestError(f"{path}.frame_id: duplicate frame_id '{frame_id}'")
        seen_frames.add(frame_id)
        timestamp = _finite(_require(fr, "timestamp", path), f"{path}.timestamp")
        ego = _ego_state(_require(fr, "ego", path), f"{path}.ego")
        objects_raw = _require(fr, "objects", path)
        if not isinstance(objects_raw, list):
            raise IngestError(f"{path}.objects: expected a list")
        objects: list[ObjectState] = []
        seen_ids: set[str] = set()
        for j, obj in enumerate(objects_raw):
            obj_path = f"{path}.objects[{j}]"
            state = _object_state(obj, obj_path,
                                  _nonempty_str(_require(obj, "id", obj_path), f"{obj_path}.id"))
            if state.object_id in seen_ids:
                raise IngestError(f"{obj_path}.id: duplicate object id '{state.object_id}'")
            seen_ids.add(state.object_id)
            objects.append(state)
        frames.append(Frame(frame_id, timestamp, ego, objects))
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise IngestError(f"$.meta: expected an object, got {meta!r}")
    return Dataset(frames=frames, meta=dict(meta))


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; malformed JSON is an IngestError naming the file."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise IngestError(f"{path}: malformed JSON ({e})") from None


def load_ground_truth(path: str | Path) -> Dataset:
    """Load and validate a ground-truth JSON file."""
    return dataset_from_dict(read_json(path))


def detections_from_dict(data: Any) -> list[Detection]:
    """Build validated :class:`Detection` objects from a parsed results document.

    Order within each frame is preserved; frames are emitted in document order.
    """
    results = _require(data, "results", "$")
    if not isinstance(results, dict):
        raise IngestError("$.results: expected an object keyed by frame_id")
    detections: list[Detection] = []
    for frame_id, entries in results.items():
        if not isinstance(entries, list):
            raise IngestError(f"$.results['{frame_id}']: expected a list")
        for j, obj in enumerate(entries):
            path = f"$.results['{frame_id}'][{j}]"
            confidence = _number(_require(obj, "confidence", path), f"{path}.confidence")
            if not (0.0 <= confidence <= 1.0):
                raise IngestError(
                    f"{path}.confidence: must be in [0, 1], got {confidence!r}"
                )
            detections.append(Detection(frame_id, _object_state(obj, path, f"det{j}"), confidence))
    return detections


def load_detections(path: str | Path) -> list[Detection]:
    """Load and validate a detection-results JSON file."""
    return detections_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# Serialization (inverse of the loaders; MISSING velocity becomes null).


def _state_to_dict(state: ObjectState) -> dict[str, Any]:
    return {
        "id": state.object_id,
        "class": state.class_name,
        "center": [state.center.x, state.center.y],
        "velocity": None if state.velocity is None else [state.velocity.x, state.velocity.y],
        "size": [state.size[0], state.size[1]],
        "yaw": state.yaw,
    }


def dataset_to_dict(dataset: Dataset) -> dict[str, Any]:
    return {
        "frames": [
            {
                "frame_id": f.frame_id,
                "timestamp": f.timestamp,
                "ego": {
                    "center": [f.ego.center.x, f.ego.center.y],
                    "velocity": [f.ego.velocity.x, f.ego.velocity.y],
                    "size": [f.ego.size[0], f.ego.size[1]],
                    "yaw": f.ego.yaw,
                },
                "objects": [_state_to_dict(o) for o in f.ground_truth],
            }
            for f in dataset.frames
        ],
        "meta": dataset.meta,
    }


def detections_to_dict(detections: Iterable[Detection]) -> dict[str, Any]:
    results: dict[str, list[dict[str, Any]]] = {}
    for det in detections:
        entry = _state_to_dict(det.state)
        del entry["id"]
        entry["confidence"] = det.confidence
        results.setdefault(det.frame_id, []).append(entry)
    return {"results": results}


def dump_json(data: Any, path: str | Path) -> None:
    """Write JSON with a byte-deterministic layout."""
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Ingest diagnostics.


def ingest_summary(dataset: Dataset, detections: Iterable[Detection]) -> dict[str, Any]:
    """Counts plus the detection frame_ids that do not exist in the ground truth.

    Unknown frames are kept in the detection list but skipped during
    evaluation; callers should surface them as warnings.
    """
    known = {f.frame_id for f in dataset.frames}
    detections = list(detections)
    unknown = sorted({d.frame_id for d in detections} - known)
    return {
        "n_frames": len(dataset.frames),
        "n_gt_objects": sum(len(f.ground_truth) for f in dataset.frames),
        "n_detections": len(detections),
        "unknown_frame_ids": unknown,
    }
