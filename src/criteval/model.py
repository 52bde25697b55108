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

:func:`load_detections` returns a :class:`DetectionTable`: one column per
field, checked a column at a time. It is a read-only sequence of
:class:`Detection` objects, built one at a time when indexed or iterated.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

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

    @property
    def motion(self) -> tuple[float, float, Vec2 | None]:
        """``(x, y, velocity)``, as :func:`criteval.criticality.classify` takes an object."""
        return (*self.center, self.velocity)


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


@dataclass(frozen=True, eq=False)
class DetectionTable(Sequence[Detection]):
    """Detections as read-only columns, one row per detection, in input order.

    Rows ``offsets[k]:offsets[k + 1]`` are a nonempty run of frame ``frame_ids[k]``.
    A row's class is ``classes[class_index[row]]``; its velocity is
    ``(vx, vy)`` where ``velocity_known``, else missing. Indexing or
    iterating builds each :class:`Detection` when it is asked for, with
    ``object_id`` ``det{j}`` for the ``j``-th row of its run.
    """

    frame_ids: tuple[str, ...]
    offsets: np.ndarray
    classes: tuple[str, ...]
    class_index: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    velocity_known: np.ndarray
    width: np.ndarray
    length: np.ndarray
    yaw: np.ndarray
    confidence: np.ndarray

    @classmethod
    def of(cls, detections: Iterable[Detection]) -> DetectionTable:
        """``detections`` as a table; a table is returned as it is.

        Read back, a row has the ``det{j}`` object id and the float fields of a loaded file.
        """
        if isinstance(detections, DetectionTable):
            return detections
        objects = list(detections)
        starts = [i for i, d in enumerate(objects) if not i or d.frame_id != objects[i - 1].frame_id]
        states = [d.state for d in objects]
        codes: dict[str, int] = {}
        class_index = [codes.setdefault(s.class_name, len(codes)) for s in states]
        return _table([objects[i].frame_id for i in starts], starts + [len(objects)], codes,
                      class_index, [(*s.center, s.size[0], s.size[1], s.yaw, d.confidence)
                                    for s, d in zip(states, objects)],
                      [s.velocity or (math.nan, math.nan) for s in states],
                      [s.velocity is not None for s in states])

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, index: int | slice) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        return next(self._rows(i, i + 1))

    def __iter__(self) -> Iterator[Detection]:
        return self._rows(0, len(self))

    def in_frame(self, frame_id: str) -> list[Detection]:
        """The detections of one frame, built from its rows alone."""
        bounds = self.offsets.tolist()
        return [det for k, f in enumerate(self.frame_ids) if f == frame_id
                for det in self._rows(bounds[k], bounds[k + 1])]

    def _rows(self, start: int, stop: int) -> Iterator[Detection]:
        bounds = self.offsets.tolist()
        k = bisect_right(bounds, start) - 1
        columns = (c[start:stop].tolist() for c in (
            self.class_index, self.x, self.y, self.vx, self.vy, self.velocity_known,
            self.width, self.length, self.yaw, self.confidence))
        for i, (c, x, y, vx, vy, known, w, l, yaw, conf) in enumerate(zip(*columns), start):
            while bounds[k + 1] <= i:
                k += 1
            state = ObjectState(f"det{i - bounds[k]}", self.classes[c], Vec2(x, y),
                                Vec2(vx, vy) if known else None, (w, l), yaw)
            yield Detection(self.frame_ids[k], state, conf)


def _table(frame_ids: list[str], offsets: list[int], codes: dict[str, int],
           class_index: list[int], numbers: Any, velocity: Any, known: Any) -> DetectionTable:
    """The table of rows of (x, y, width, length, yaw, confidence) and of (vx, vy); each column is
    one contiguous row of a ``(6, N)`` or ``(2, N)`` block, so a pickled table loads back read-only."""
    num = np.reshape(np.asarray(numbers, dtype=np.float64), (-1, 6)).T.copy()
    vel = np.reshape(np.asarray(velocity, dtype=np.float64), (-1, 2)).T.copy()
    columns = (np.array(offsets, dtype=np.intp), np.array(class_index, dtype=np.intp),
               num[0], num[1], vel[0], vel[1], np.array(known, dtype=bool), *num[2:])
    for column in columns:
        column.flags.writeable = False
    return DetectionTable(tuple(frame_ids), columns[0], tuple(codes), *columns[1:])


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
    """Parse a UTF-8 JSON file; malformed JSON is an IngestError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise IngestError(f"{path}: malformed JSON ({e})") from None
        except UnicodeDecodeError as e:
            raise IngestError(f"{path}: not UTF-8 text ({e})") from None
        except RecursionError:
            raise IngestError(f"{path}: JSON nested too deeply") from None


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


def _columns(data: Any) -> DetectionTable | None:
    """The table of a results document whose numbers are all plain, valid floats; else None.

    One pass gathers the fields and one step checks each column. What this
    accepts, :func:`detections_from_dict` accepts with the same detections.
    """
    results = data.get("results") if type(data) is dict else None
    if type(results) is not dict:
        return None
    frame_ids, offsets, codes, class_index, numbers, velocity = [], [0], {}, [], [], []
    try:
        for frame_id, entries in results.items():
            if type(entries) is not list:
                return None
            for obj in entries:
                center, v, size = obj["center"], obj["velocity"], obj["size"]
                class_index.append(codes.setdefault(obj["class"], len(codes)))
                numbers += center[0], center[1], size[0], size[1], obj["yaw"], obj["confidence"]
                velocity += (math.nan, math.nan) if v is None else (v[0], v[1])
            if entries:
                frame_ids.append(frame_id)
                offsets.append(len(class_index))
    except (LookupError, TypeError):  # a missing field, or a value of the wrong shape
        return None
    if not (all(type(c) is str and c for c in codes)
            and set(map(type, numbers)) | set(map(type, velocity)) <= {float}):
        return None
    num, vel = np.reshape(numbers, (-1, 6)), np.reshape(velocity, (-1, 2))
    conf = num[:, 5]
    if not (np.isfinite(num[:, :5]).all() and (num[:, 2:4] > 0).all()
            and ((conf >= 0.0) & (conf <= 1.0)).all()):
        return None
    return _table(frame_ids, offsets, codes, class_index, num, vel, np.isfinite(vel).all(axis=1))


def load_detections(path: str | Path) -> DetectionTable:
    """Load and validate a detection-results JSON file.

    A file that :func:`_columns` declines is validated object by object, so
    a fault is reported at its JSON location.
    """
    data = read_json(path)
    table = _columns(data)
    return DetectionTable.of(detections_from_dict(data)) if table is None else table


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
                "ego": {k: v for k, v in _state_to_dict(f.ego).items() if k not in ("id", "class")},
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


_CHUNK_ROWS = 1024  # rows that a streamed writer formats at a time


def _reprs(values: np.ndarray) -> np.ndarray:
    """``repr`` of each value, as an object array; called once per run of bit-identical values."""
    bits = values.view(np.int64)  # unlike ==, tells 0.0 from -0.0
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1]))[:len(bits)])
    texts = np.array(list(map(repr, values[starts].tolist())), dtype=object)
    return np.repeat(texts, np.diff(starts, append=len(bits)))


def dump_json(data: Any, path: str | Path, key: str | None = None,
              fills: Iterable[Mapping[str, Sequence[Any]]] = ()) -> None:
    """Write ``json.dump(data, indent=2, sort_keys=True)``'s text and a newline.

    With ``key``, the n-th ``"key": null`` is written as a list of flat objects,
    ``_CHUNK_ROWS`` at a time: the n-th fill maps each field to its column of
    values, and the i-th object holds each column's i-th value. A column is a float64
    array of finite values, whose ``repr`` is their JSON text, or a list of JSON values.
    Each run of bit-identical floats, each distinct ``repr`` in a fill's lists and each float
    column that the next fill holds again is formatted once. Only such a value is an
    unquoted ``"key": null``, as ``json`` escapes ``"`` in strings.
    """
    with open(path, "w") as f:
        if key is None:
            json.dump(data, f, indent=2, sort_keys=True)
        else:
            parts = json.dumps(data, indent=2, sort_keys=True).split(f'"{key}": null')
            fills, done = iter(fills), {}
            f.write(parts[0])
            for before, rest in zip(parts, parts[1:]):
                fill = next(fills)
                # The objects sit two spaces deeper than "key"; NUL is in no JSON text.
                pad, names = "\n" + " " * (len(before) - before.rfind("\n") + 1), sorted(fill)
                columns, texts = [fill[k] for k in names], {}
                # Float columns: formatted whole, once while fills hold them in turn, in fill order
                # (widest first), stale texts dropped first; an entry holds its column to keep its id.
                done = {id(c): done[id(c)] for c in columns if id(c) in done}
                for array in (c for c in fill.values() if isinstance(c, np.ndarray)):
                    done[id(array)] = done.get(id(array)) or (array, _reprs(array))
                fields = "\0,".join(f"{pad}  {json.dumps(k)}: " for k in names)
                pieces = np.array(f",{pad}{{{fields}\0{pad}}}".split("\0"), dtype=object)[:, None]
                n = min(map(len, columns), default=0)
                f.write(f'"{key}": [')
                for part in (slice(start, start + _CHUNK_ROWS) for start in range(0, n, _CHUNK_ROWS)):
                    # A list is formatted by chunk, each distinct value once, indented to its field.
                    rows = [done[id(c)][1][part] if isinstance(c, np.ndarray) else [
                        texts.get(r := repr(v)) or texts.setdefault(r, json.dumps(
                            v, indent=2, sort_keys=True).replace("\n", pad + "  ")) for v in c[part]]
                        for c in columns]
                    block = np.empty((len(pieces) + len(rows), len(rows[0])), dtype=object)
                    block[0::2], block[1::2] = pieces, rows
                    f.write("".join(block.T.ravel().tolist())[0 if part.start else 1:])  # no first comma
                f.write(f"{pad[:-2] if n else ''}]{rest}")
                fill = columns = rows = texts = None  # let go before the next fill is built
        f.write("\n")


# ---------------------------------------------------------------------------
# Ingest diagnostics.


def ingest_summary(dataset: Dataset, detections: Iterable[Detection]) -> dict[str, Any]:
    """Counts plus the detection frame_ids that do not exist in the ground truth.

    Unknown frames are kept in the detection list but skipped during
    evaluation; callers should surface them as warnings.
    """
    table = DetectionTable.of(detections)
    return {
        "n_frames": len(dataset.frames),
        "n_gt_objects": sum(len(f.ground_truth) for f in dataset.frames),
        "n_detections": len(table),
        "unknown_frame_ids": sorted(set(table.frame_ids) - {f.frame_id for f in dataset.frames}),
    }
