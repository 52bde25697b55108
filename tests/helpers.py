"""Shared builders for test scenarios, and the oracles the tests compare against."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np

from criteval.criticality import CriticalityConfig, criticality_components
from criteval.matching import greedy_assign
from criteval.metrics import AP_MIN_PRECISION, AP_MIN_RECALL, CurvePoint, EvaluationReport, _ratio
from criteval.model import Dataset, Detection, Frame, ObjectState, Vec2
from criteval.synthgen import ScenarioObject, ScenarioSpec, SplitMix64, gen_dataset

# The smallest and the largest cap whose square is a positive finite float; the parabolas divide
# by that square. Just below the first the square is 0.0, just above the second inf.
SMALLEST_CAP, LARGEST_CAP = 1.5717277847026288e-162, 1.3407807929942596e154


def make_state(
    object_id="a",
    class_name="car",
    center=(0.0, 0.0),
    velocity=(0.0, 0.0),
    size=(2.0, 4.5),
    yaw=0.0,
) -> ObjectState:
    vel = None if velocity is None else Vec2(*velocity)
    return ObjectState(object_id, class_name, Vec2(*center), vel, size, yaw)


def make_ego(center=(0.0, 0.0), velocity=(0.0, 0.0), yaw=0.0) -> ObjectState:
    return ObjectState("ego", "ego", Vec2(*center), Vec2(*velocity), (2.0, 5.0), yaw)


def make_frame(frame_id="f0", timestamp=0.0, ego=None, objects=()) -> Frame:
    return Frame(frame_id, timestamp, ego if ego is not None else make_ego(), list(objects))


@dataclasses.dataclass(frozen=True)
class WeightedCounts:
    """Criticality-weighted and raw tallies for one (limit, threshold) cut.

    ``sum_tp_gt``/``sum_fn_gt`` sum ground-truth weights, ``sum_tp_pred``/
    ``sum_fp_pred`` sum predicted-state weights.
    """

    sum_tp_gt: float
    sum_tp_pred: float
    sum_fp_pred: float
    sum_fn_gt: float
    n_tp: int
    n_fp: int
    n_fn: int


def _scalar_ratios(num: tuple[float, float], den: tuple[float, float]) -> tuple[float, float]:
    a, b = _ratio(np.array(num, dtype=np.float64), np.array(den, dtype=np.float64))
    return float(a), float(b)


def classic_pr(counts: WeightedCounts) -> tuple[float, float]:
    """Count-based precision and recall through the kernel's ratio rule."""
    return _scalar_ratios((counts.n_tp, counts.n_tp),
                          (counts.n_tp + counts.n_fp, counts.n_tp + counts.n_fn))


def weighted_pr(counts: WeightedCounts) -> tuple[float, float]:
    """Reliability-weighted precision and safety-weighted recall, clamped to 1.

    Ground-truth weights sit where the detector should not overstate
    criticality (precision numerator, recall denominator); predicted
    weights sit on the other side.
    """
    return _scalar_ratios((counts.sum_tp_gt, counts.sum_tp_pred),
                          (counts.sum_tp_pred + counts.sum_fp_pred,
                           counts.sum_tp_gt + counts.sum_fn_gt))


def in_scope(
    frame: Frame, dets: list[Detection], class_name: str, max_range: float
) -> tuple[list[ObjectState], list[Detection]]:
    """The frame's ground truths and detections of one class within ``max_range`` of the ego.

    The range is inclusive; input order is kept (test oracle).
    """
    ex, ey = frame.ego.center
    near = lambda s: math.hypot(s.center.x - ex, s.center.y - ey) <= max_range
    gts = [g for g in frame.ground_truth if g.class_name == class_name and near(g)]
    kept = [d for d in dets if d.frame_id == frame.frame_id
            and d.state.class_name == class_name and near(d.state)]
    return gts, kept


@dataclasses.dataclass(frozen=True)
class MatchResult:
    """Per-frame partition into TP pairs, FP predictions and FN ground truths."""

    tp: list[tuple[ObjectState, ObjectState]]
    fp: list[ObjectState]
    fn: list[ObjectState]
    distance_limit: float
    threshold: float


def assign_inputs(
    gts: list[ObjectState], detections: list[Detection]
) -> tuple[list[tuple], list[tuple[float, float, float]]]:
    """The arguments of ``greedy_assign``: GT ``(x, y, velocity)``, detection ``(x, y, confidence)``."""
    return [g.motion for g in gts], [(*d.state.center, d.confidence) for d in detections]


def match_frame(
    gts: list[ObjectState],
    preds: list[Detection],
    distance_limit: float,
    threshold: float,
) -> MatchResult:
    """Match one frame's detections (already class- and range-filtered)."""
    if not 0 < distance_limit < math.inf:
        raise ValueError(f"distance_limit must be positive and finite, got {distance_limit!r}")
    kept = [d for d in preds if d.confidence >= threshold]
    assignment = greedy_assign(*assign_inputs(gts, kept), distance_limit)
    tp = [(gts[j], kept[i].state) for i, j in assignment if j is not None]
    fp = [kept[i].state for i, j in assignment if j is None]
    matched = {j for _, j in assignment if j is not None}
    fn = [gt for j, gt in enumerate(gts) if j not in matched]
    return MatchResult(tp, fp, fn, distance_limit, threshold)


def counts_from_match(match: MatchResult, ego: ObjectState, cfg: CriticalityConfig) -> WeightedCounts:
    """Weighted counts for a single matched frame from scalar kappa (test oracle)."""
    kappa = lambda obj: criticality_components(ego, obj, cfg).kappa
    return WeightedCounts(
        sum_tp_gt=sum(kappa(gt) for gt, _ in match.tp),
        sum_tp_pred=sum(kappa(pred) for _, pred in match.tp),
        sum_fp_pred=sum(kappa(pred) for pred in match.fp),
        sum_fn_gt=sum(kappa(gt) for gt in match.fn),
        n_tp=len(match.tp),
        n_fp=len(match.fp),
        n_fn=len(match.fn),
    )


def brute_force_assign(
    gts: list[tuple], detections: list[tuple], distance_limit: float
) -> list[tuple[int, int | None]]:
    """Greedy matching by a scan over every (prediction, ground truth) pair (test oracle).

    Takes and returns what ``greedy_assign`` does.
    """
    order = sorted(range(len(detections)), key=lambda i: -detections[i][2])
    taken = [False] * len(gts)
    out: list[tuple[int, int | None]] = []
    for i in order:
        cx, cy = detections[i][0], detections[i][1]
        best: int | None = None
        best_dist = math.inf
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            dist = math.hypot(gt[0] - cx, gt[1] - cy)
            if dist <= distance_limit and dist < best_dist:
                best, best_dist = j, dist
        if best is not None:
            taken[best] = True
        out.append((i, best))
    return out


ORACLE_HORIZON_CAP = 120.0


def default_oracle_horizon(ego: ObjectState, obj: ObjectState) -> float:
    """Long enough to bracket any closest approach within the eval range (test oracle)."""
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
    with ego fixed and return (min distance, time of the minimum) (test oracle)."""
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


def paper_ap_oracle(r: np.ndarray, p: np.ndarray) -> float:
    """Paper AP of one curve, its kept points compacted (test oracle of the batched summary)."""
    if len(r) == 0:
        return 0.0
    keep = (p >= AP_MIN_PRECISION) & (r >= AP_MIN_RECALL)
    if not keep.any():
        return 0.0
    first = int(np.flatnonzero(keep)[0])
    anchor = float(r[first - 1]) if first > 0 else 0.0
    rk = r[keep]
    pk = p[keep]
    prev = np.concatenate(([anchor], rk[:-1]))
    return float(np.sum((rk - prev) * pk))


def devkit_ap_oracle(r: np.ndarray, p: np.ndarray) -> float:
    """Devkit AP of one curve, summarized on its own (test oracle of the batched summary)."""
    if len(r) == 0:
        return 0.0
    prec = np.interp(np.linspace(0.0, 1.0, 101), r, p, right=0.0)[11:] - 0.1
    prec[prec < 0] = 0.0
    return min(1.0, float(np.mean(prec)) / 0.9)


def curve_csv_oracle(curve: list[CurvePoint]) -> bytes:
    """A curve CSV as ``csv.writer`` lays it out, six decimals per value (test oracle)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["threshold", "precision", "recall", "p_r", "r_s"])
    for pt in curve:
        writer.writerow(
            [
                f"{pt.threshold:.6f}",
                f"{pt.precision:.6f}",
                f"{pt.recall:.6f}",
                f"{pt.p_r:.6f}",
                f"{pt.r_s:.6f}",
            ]
        )
    return buf.getvalue().encode()


def curve_csv_template(arrays) -> bytes:
    """A curve CSV of the CURVE_FIELDS arrays, each row through one ``%.6f`` template (test oracle)."""
    rows = "%.6f,%.6f,%.6f,%.6f,%.6f\r\n" * len(arrays[0]) % tuple(np.column_stack(arrays).ravel().tolist())
    return ("threshold,precision,recall,p_r,r_s\r\n" + rows).encode()


def report_json_oracle(report: EvaluationReport) -> bytes:
    """``report.json`` as ``model.dump_json(report.to_dict(), path)`` writes it (test oracle)."""
    return (json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode()


def without_velocities(
    dataset: Dataset, detections: list[Detection]
) -> tuple[Dataset, list[Detection]]:
    """The same inputs with every object velocity unknown (ego keeps its own).

    The missing-velocity fallback sets kappa_r = kappa_t = 1, so every
    object's kappa is exactly 1 and the weighted measures must equal the
    classic ones bit for bit.
    """
    unknown = lambda state: dataclasses.replace(state, velocity=None)
    frames = [
        dataclasses.replace(f, ground_truth=[unknown(gt) for gt in f.ground_truth])
        for f in dataset.frames
    ]
    dets = [dataclasses.replace(d, state=unknown(d.state)) for d in detections]
    return dataclasses.replace(dataset, frames=frames), dets


def perfect_detections(dataset: Dataset, confidence=0.9) -> list[Detection]:
    """Predictions identical to the ground truth."""
    out = []
    for frame in dataset.frames:
        for i, gt in enumerate(frame.ground_truth):
            state = dataclasses.replace(gt, object_id=f"det{i}")
            out.append(Detection(frame.frame_id, state, confidence))
    return out


def random_scenario_spec(seed: int, n_frames: int = 6) -> ScenarioSpec:
    """Mixed scenario: movers, a few velocity-unknown objects, varied ranges."""
    rng = SplitMix64(seed)
    n_objects = 6 + int(rng.uniform() * 6)
    objects = []
    for _ in range(n_objects):
        start = Vec2(rng.uniform() * 80.0 - 40.0, rng.uniform() * 80.0 - 40.0)
        if rng.uniform() < 0.12:
            velocity = None
        else:
            velocity = Vec2(rng.uniform() * 16.0 - 8.0, rng.uniform() * 16.0 - 8.0)
        objects.append(ScenarioObject(start=start, velocity=velocity))
    return ScenarioSpec(
        n_frames=n_frames,
        ego_start=Vec2(0.0, 0.0),
        ego_velocity=Vec2(rng.uniform() * 10.0 - 5.0, rng.uniform() * 10.0 - 5.0),
        objects=objects,
        seed=seed,
    )


def approaching_pairs(n: int, seed: int) -> list[tuple[ObjectState, ObjectState]]:
    """(ego, object) pairs built from known approach geometry.

    The closest-approach offset is kept >= 0.3 m and the relative speed
    <= 10 m/s so a 1 ms sampled simulation can localize the approach.
    """
    rng = SplitMix64(seed)
    pairs = []
    for _ in range(n):
        ego_pos = Vec2(rng.uniform() * 20.0 - 10.0, rng.uniform() * 20.0 - 10.0)
        theta = 2.0 * math.pi * rng.uniform()
        ux, uy = math.cos(theta), math.sin(theta)
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        offset = 0.3 + 39.7 * rng.uniform()
        travel = 1.0 + 39.0 * rng.uniform()
        speed = 0.5 + 9.5 * rng.uniform()
        closest = Vec2(ego_pos.x - uy * offset * side, ego_pos.y + ux * offset * side)
        b_pos = Vec2(closest.x - ux * travel, closest.y - uy * travel)
        v_ego = Vec2(rng.uniform() * 10.0 - 5.0, rng.uniform() * 10.0 - 5.0)
        v_b = Vec2(ux * speed + v_ego.x, uy * speed + v_ego.y)
        ego = ObjectState("ego", "ego", ego_pos, v_ego, (2.0, 5.0), 0.0)
        obj = ObjectState("b", "car", b_pos, v_b, (2.0, 4.5), 0.0)
        pairs.append((ego, obj))
    return pairs


def sweep_dataset_and_detectors(
    n_scenes: int = 10, frames_per_scene: int = 20
) -> tuple[Dataset, dict[str, list[Detection]]]:
    """200-frame corpus of slow-moving scenes plus two imperfect detectors."""
    from criteval.synthgen import ErrorModel, corrupt

    frames = []
    for s in range(n_scenes):
        rng = SplitMix64(5000 + s)
        objects = []
        for _ in range(10 + int(rng.uniform() * 5)):
            start = Vec2(rng.uniform() * 88.0 - 44.0, rng.uniform() * 88.0 - 44.0)
            if rng.uniform() < 0.1:
                velocity = None
            else:
                velocity = Vec2(rng.uniform() * 5.0 - 2.5, rng.uniform() * 5.0 - 2.5)
            objects.append(ScenarioObject(start=start, velocity=velocity))
        spec = ScenarioSpec(
            n_frames=frames_per_scene,
            ego_start=Vec2(0.0, 0.0),
            ego_velocity=Vec2(rng.uniform() * 4.0 - 2.0, rng.uniform() * 4.0 - 2.0),
            objects=objects,
            seed=5000 + s,
            frame_prefix=f"s{s:02d}_f",
        )
        frames.extend(gen_dataset(spec).frames)
    dataset = Dataset(frames=frames)
    detectors = {
        "farblind": corrupt(
            dataset,
            ErrorModel(miss_prob_by_distance=[(25.0, 0.05), (50.0, 0.5)],
                       center_noise_sigma=0.25, velocity_noise_sigma=0.3,
                       fp_rate_per_frame=0.4),
            seed=611,
        ),
        "nearblind": corrupt(
            dataset,
            ErrorModel(miss_prob_by_distance=[(15.0, 0.35), (50.0, 0.05)],
                       center_noise_sigma=0.35, velocity_noise_sigma=0.4,
                       fp_rate_per_frame=0.6),
            seed=612,
        ),
    }
    return dataset, detectors


def divergence_scenario() -> tuple[Dataset, list[Detection], list[Detection]]:
    """Two detectors whose count-based and weighted rankings disagree.

    Detector A misses only distant receding objects (zero weight at caps
    (20, 20, 8)); detector B misses one head-on object per frame but has
    better raw counts.
    """
    near = [
        ScenarioObject(start=Vec2(0.0, 14.0), velocity=Vec2(0.0, -4.0), object_id="near0"),
        ScenarioObject(start=Vec2(4.0, 12.0), velocity=Vec2(-1.2, -3.6), object_id="near1"),
        ScenarioObject(start=Vec2(-5.0, 10.0), velocity=Vec2(1.5, -3.0), object_id="near2"),
    ]
    far = []
    for i in range(10):
        angle = 2.0 * math.pi * i / 10.0
        direction = Vec2(math.cos(angle), math.sin(angle))
        far.append(
            ScenarioObject(
                start=Vec2(38.0 * direction.x, 38.0 * direction.y),
                velocity=Vec2(2.0 * direction.x, 2.0 * direction.y),
                object_id=f"far{i}",
            )
        )
    spec = ScenarioSpec(
        n_frames=4,
        ego_start=Vec2(0.0, 0.0),
        ego_velocity=Vec2(0.0, 0.0),
        objects=near + far,
        seed=7,
    )
    dataset = gen_dataset(spec)

    def detect(frame: Frame, skip_ids: set[str]) -> list[Detection]:
        dets = []
        for i, gt in enumerate(frame.ground_truth):
            if gt.object_id in skip_ids:
                continue
            state = dataclasses.replace(
                gt,
                object_id=f"det{i}",
                center=Vec2(gt.center.x + 0.15, gt.center.y - 0.1),
            )
            dets.append(Detection(frame.frame_id, state, 0.9 - 0.02 * i))
        return dets

    miss_a = {"far0", "far1", "far2", "far3"}
    miss_b = {"near0"}
    dets_a = [d for f in dataset.frames for d in detect(f, miss_a)]
    dets_b = [d for f in dataset.frames for d in detect(f, miss_b)]
    return dataset, dets_a, dets_b
