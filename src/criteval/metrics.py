"""Precision/recall, their criticality-weighted counterparts, and AP summaries.

Curves are built over the distinct confidence values present in the
detections, evaluated from high to low, with one set of counts
accumulated over the whole dataset per threshold; with no detections a
curve is one vacuous point at threshold 1.0. Approach geometry depends
neither on the criticality caps nor on the distance limit, and matching
only on the limit, so :class:`CurveAccumulator` filters and classifies
each object once per (detector, class), matches once per limit, and
reweights cheaply for any number of configurations.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .criticality import (
    CASE_MISSING_VELOCITY,
    CASE_NONFINITE_TIME,
    CASE_TRACKED,
    NONFINITE_TIME_SCORE,
    CriticalityConfig,
    classify,
)
from .matching import greedy_assign
from .model import Dataset, Detection, ingest_summary

DEFAULT_EVAL_RANGE = 50.0
AP_MIN_RECALL = 0.1
AP_MIN_PRECISION = 0.1
AP_STYLES = ("paper", "devkit")
# Recall values 0, 0.01, ..., 1: devkit AP's interpolation points and the report's recall grid.
_RECALL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    precision: float
    recall: float
    p_r: float
    r_s: float


# The arrays of a curve, one entry per cut, highest threshold first.
CURVE_FIELDS = ("threshold", "precision", "recall", "p_r", "r_s")


def _points(arrays: Sequence[np.ndarray]) -> list[CurvePoint]:
    return [CurvePoint(*pt) for pt in zip(*(a.tolist() for a in arrays))]


def _ratio(num: np.ndarray, den: np.ndarray | float) -> np.ndarray:
    """``min(1, num / den)`` written into ``num``; vacuously 1 where ``den == 0``."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.divide(num, den, out=num)
    np.minimum(num, 1.0, out=num)
    np.copyto(num, 1.0, where=np.asarray(den) == 0.0)
    return num


def worker_count(requested: int | None = None) -> int:
    """Requested worker count: explicit argument, else CRIT_EVAL_THREADS, else CPU count.

    Evaluation runs on one thread whatever this returns; it only reports
    the request.
    """
    if requested is not None and requested > 0:
        return requested
    env = os.environ.get("CRIT_EVAL_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"CRIT_EVAL_THREADS must be an integer, got {env!r}") from None
        if value > 0:
            return value
    return os.cpu_count() or 1


class _ScoreTerms:
    """Cap-independent parts of the component scores of a set of objects.

    Each score is ``max(0, -x**2 / cap**2 + 1)`` or a case's fixed value, so
    keeping ``-x**2`` per object leaves one pass per cap value, with the
    same operations in the same order as ``weights_from_class``. Each row
    starts with the four fields of a ``classify`` result.
    """

    def __init__(self, rows: Sequence[tuple]):
        case = np.array([r[0] for r in rows], dtype=np.int64)
        d_b, d_c, d_t = (np.array([r[k] for r in rows], dtype=np.float64) for k in (1, 2, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            self._neg_sq_b = -(d_b * d_b)
            self._neg_sq_c = -(d_c * d_c)
            self._neg_sq_t = -(d_t * d_t)
        nonfinite = case == CASE_NONFINITE_TIME
        self._scored_t = case == CASE_TRACKED
        self._scored_r = self._scored_t | (nonfinite & np.isfinite(d_c))
        # kappa_r and kappa_t where they are not scored from the geometry.
        self._fixed = np.where(
            case == CASE_MISSING_VELOCITY, 1.0, np.where(nonfinite, NONFINITE_TIME_SCORE, 0.0)
        )

    def _complement(self, neg_sq: np.ndarray, cap, scored: np.ndarray | None):
        """``1 - score`` per object (one row per cap if ``cap`` is a column)."""
        with np.errstate(over="ignore", invalid="ignore"):
            score = np.divide(neg_sq, cap * cap)
            score += 1.0
            np.maximum(score, 0.0, out=score)
        if scored is not None:
            np.copyto(score, self._fixed, where=~scored)
        return np.subtract(1.0, score, out=score)

    def kappa_rows(self, d_max: float, r_max: float, t_values: np.ndarray) -> np.ndarray:
        """``1 - (1-kd)(1-kr)(1-kt)`` per object, one row per t_max."""
        not_dr = self._complement(self._neg_sq_b, d_max, None)
        not_dr *= self._complement(self._neg_sq_c, r_max, self._scored_r)
        kappa = self._complement(self._neg_sq_t, t_values[:, None], self._scored_t)
        kappa *= not_dr
        return np.subtract(1.0, kappa, out=kappa)


def _running_sums(values: np.ndarray, columns: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row-wise running sums of ``values[:, columns]`` after ``counts[g]`` columns (0 after none).

    The sums run in place after a zero column, so skipping the other
    columns of a row leaves each sum as it would be with zeros in their places.
    """
    sums = np.zeros((len(values), len(columns) + 1))
    # The columns are valid indices; "clip" gathers without the buffer that "raise" takes.
    np.take(values, columns, axis=1, out=sums[:, 1:], mode="clip")
    np.cumsum(sums, axis=1, out=sums)
    return sums[:, counts]


class CurveAccumulator:
    """Per-(detector, class) cache of approach geometry and of the matches at each limit.

    Each object is range-filtered and classified once; only matching runs
    once per distance limit. Frames are processed in sorted frame_id order
    and predictions kept in a fixed global order (descending confidence,
    then frame_id, then within-frame rank), so repeated evaluations are
    bit-reproducible. Each cut of a curve keeps the highest-confidence
    predictions down to one distinct confidence; with no predictions there
    is one cut, at threshold 1.0, that keeps none.
    """

    def __init__(
        self,
        dataset: Dataset,
        detections: Iterable[Detection],
        class_name: str,
        dist_limits: Iterable[float],
        max_range: float = DEFAULT_EVAL_RANGE,
    ):
        limits = self.dist_limits = tuple(dist_limits)
        if not (limits and all(limit > 0 for limit in limits) and len(set(limits)) == len(limits)):
            raise ValueError("distance limits must be nonempty, positive and distinct, got "
                             + (", ".join(map(repr, limits)) or "none"))
        if not all(map(math.isfinite, limits)):
            raise ValueError("distance limits must be finite, got " + ", ".join(map(repr, limits)))
        if not 0 < max_range < math.inf:
            raise ValueError(f"max_range must be positive and finite, got {max_range!r}")
        if not class_name:
            raise ValueError("class_name must be nonempty")

        # The detections of the class by frame, in input order.
        grouped: dict[str, list[Detection]] = {}
        for det in detections:
            if det.state.class_name == class_name:
                grouped.setdefault(det.frame_id, []).append(det)
        gt_rows: list[tuple[int, float, float, float]] = []
        pred_rows: list[tuple[int, float, float, float]] = []
        conf: list[float] = []
        # The matched ground truth (-1 if none) of each prediction, one array per limit.
        matches = [array("q") for _ in limits]
        for frame in sorted(dataset.frames, key=lambda f: f.frame_id):
            ego = frame.ego
            ex, ey = ego.center
            gts = [g for g in frame.ground_truth if g.class_name == class_name
                   and math.hypot(g.center.x - ex, g.center.y - ey) <= max_range]
            dets = [d for d in grouped.get(frame.frame_id, ())
                    if math.hypot(d.state.center.x - ex, d.state.center.y - ey) <= max_range]
            base = len(gt_rows)
            gt_rows.extend(classify(ego, gt) for gt in gts)
            # Within-frame rank order; greedy_assign keeps it, as its sort is stable.
            dets.sort(key=lambda d: -d.confidence)
            pred_rows.extend(classify(ego, det.state) for det in dets)
            conf.extend(det.confidence for det in dets)
            for match, limit in zip(matches, limits):
                match.extend(-1 if j is None else base + j
                             for _, j in greedy_assign(gts, dets, limit))
        # Frames come in frame_id order, so a stable sort makes the global order.
        order = np.argsort(-np.array(conf, dtype=np.float64), kind="stable")

        self.n_gt = len(gt_rows)
        self._gt = _ScoreTerms(gt_rows)
        self._pred = _ScoreTerms([pred_rows[i] for i in order])
        self._conf = np.array(conf, dtype=np.float64)[order]
        if len(order):
            ends = np.flatnonzero(np.append(np.diff(self._conf) != 0.0, True))
            n_kept, thresholds = ends + 1, self._conf[ends]
        else:
            n_kept, thresholds = np.zeros(1, dtype=np.int64), np.ones(1)
        # Per limit: true and false positives (as indices in global order), the
        # ground truth each true positive matched, and both counts at each cut.
        self._splits = []
        for match in matches:
            gt_index = np.frombuffer(match, dtype=np.int64)[order]
            is_tp = gt_index >= 0
            tp_at_cut = np.concatenate(([0], np.cumsum(is_tp)))[n_kept]
            cum_tp = tp_at_cut.astype(np.float64)
            classic = (thresholds, _ratio(cum_tp.copy(), n_kept.astype(np.float64)),
                       _ratio(cum_tp, float(self.n_gt)))
            for values in classic:
                values.flags.writeable = False
            self._splits.append((np.flatnonzero(is_tp), np.flatnonzero(~is_tp), gt_index[is_tp],
                                 tp_at_cut, n_kept - tp_at_cut, classic))

    def curve_arrays(
        self, cfg: CriticalityConfig, t_values: Sequence[float] | None = None
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """(threshold, precision, recall, p_r, r_s) arrays per limit, highest threshold first.

        ``p_r`` and ``r_s`` are 1-D for ``cfg``. With ``t_values`` they have
        one row per value, for ``cfg`` with that ``t_max``: the cap-separable
        component scores are computed once for the whole batch and every
        limit. Every row equals the 1-row result bit for bit. All arrays are
        read-only; the classic ones are shared.

        The safety-weighted recall denominator is the total ground-truth
        weight, which does not depend on the threshold, so the recall side
        is exactly nonincreasing as the threshold rises.
        """
        t = np.array([cfg.t_max] if t_values is None else t_values, dtype=np.float64)
        kgt = self._gt.kappa_rows(cfg.d_max, cfg.r_max, t)
        # The same pairwise sum as over a 1-D array, row by row.
        total_gt = np.array([row.sum() for row in kgt])[:, None]
        kpred = self._pred.kappa_rows(cfg.d_max, cfg.r_max, t)
        # Prediction sums of every limit first, so kpred is freed before the ground-truth sums.
        pred_sums = [(_running_sums(kpred, tp, tp_at_cut), _running_sums(kpred, fp, fp_at_cut))
                     for tp, fp, _, tp_at_cut, fp_at_cut, _ in self._splits]
        del kpred
        curves = []
        for _, _, tp_gt, tp_at_cut, _, classic in self._splits:
            cum_tp_pred, p_den = pred_sums.pop(0)
            cum_tp_gt = _running_sums(kgt, tp_gt, tp_at_cut)
            p_den += cum_tp_pred
            p_r = _ratio(cum_tp_gt, p_den)
            r_s = _ratio(cum_tp_pred, total_gt)
            if t_values is None:
                p_r, r_s = p_r[0], r_s[0]
            p_r.flags.writeable = r_s.flags.writeable = False
            curves.append((*classic, p_r, r_s))
        return curves

    def curve(self, cfg: CriticalityConfig) -> list[CurvePoint]:
        """One operating point per cut, highest threshold first, of a one-limit accumulator."""
        if len(self.dist_limits) != 1:
            raise ValueError("curve() needs an accumulator of one distance limit")
        return _points(self.curve_arrays(cfg)[0])


def build_curve(
    dataset: Dataset,
    detections: Iterable[Detection],
    class_name: str,
    distance_limit: float,
    cfg: CriticalityConfig,
    max_range: float = DEFAULT_EVAL_RANGE,
) -> list[CurvePoint]:
    """Operating points over the distinct confidences present in the detections."""
    acc = CurveAccumulator(dataset, detections, class_name, [distance_limit], max_range)
    return acc.curve(cfg)


def _curve_arrays(curve: Sequence[CurvePoint], use_weighted: bool) -> tuple[np.ndarray, np.ndarray]:
    if use_weighted:
        r = np.array([pt.r_s for pt in curve], dtype=np.float64)
        p = np.array([pt.p_r for pt in curve], dtype=np.float64)
    else:
        r = np.array([pt.recall for pt in curve], dtype=np.float64)
        p = np.array([pt.precision for pt in curve], dtype=np.float64)
    if len(r) > 1 and np.any(np.diff(r) < 0):
        raise ValueError("curve must be sorted by nondecreasing recall")
    return r, p


def _ap_paper_arrays(r: np.ndarray, p: np.ndarray) -> float:
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


def _ap_devkit_arrays(r: np.ndarray, p: np.ndarray) -> float:
    if len(r) == 0:
        return 0.0
    prec = np.interp(_RECALL_GRID, r, p, right=0.0)
    prec = prec[round(100 * AP_MIN_RECALL) + 1 :] - AP_MIN_PRECISION
    prec[prec < 0] = 0.0
    return min(1.0, float(np.mean(prec)) / (1.0 - AP_MIN_PRECISION))


def average_precision(curve: Sequence[CurvePoint], use_weighted: bool = False) -> float:
    """Riemann-sum AP over operating points with both coordinates >= 0.1.

    Points below either 0.1 floor are dropped to suppress noise; the first
    retained point is anchored at its predecessor's recall (0 if none).
    With ``use_weighted`` the (r_s, p_r) coordinates are summarized instead.
    """
    return _ap_paper_arrays(*_curve_arrays(curve, use_weighted))


def devkit_average_precision(curve: Sequence[CurvePoint], use_weighted: bool = False) -> float:
    """nuScenes-devkit style AP: 101-point interpolation, floors subtracted,
    renormalized. Offered for comparability with published tables."""
    return _ap_devkit_arrays(*_curve_arrays(curve, use_weighted))


def ap_function(ap_style: str) -> Callable[[Sequence[CurvePoint], bool], float]:
    if ap_style not in AP_STYLES:
        raise ValueError(f"ap_style must be one of {AP_STYLES}, got {ap_style!r}")
    return average_precision if ap_style == "paper" else devkit_average_precision


def ap_from_arrays(ap_style: str, r: np.ndarray, p: np.ndarray) -> float:
    """Array fast path for sweeps; assumes ``r`` is already nondecreasing."""
    if ap_style not in AP_STYLES:
        raise ValueError(f"ap_style must be one of {AP_STYLES}, got {ap_style!r}")
    return _ap_paper_arrays(r, p) if ap_style == "paper" else _ap_devkit_arrays(r, p)


def _recall_grid(recall: np.ndarray, precision: np.ndarray, r_s: np.ndarray,
                 p_r: np.ndarray) -> dict[str, Any]:
    out: dict[str, Any] = {"step": 0.01, "grid": _RECALL_GRID.tolist()}
    for key, r, p in (("precision", recall, precision), ("p_r", r_s, p_r)):
        values = np.interp(_RECALL_GRID, r, p, right=0.0) if len(r) else np.zeros(len(_RECALL_GRID))
        out[key] = values.tolist()
    return out


def resample_curve(curve: Sequence[CurvePoint]) -> dict[str, Any]:
    """Reporting view of a curve on the recall grid of step 0.01 (plots only).

    Interpolates precision over recall and weighted precision over
    weighted recall; beyond the achieved recall the value is 0.
    """
    return _recall_grid(*_curve_arrays(curve, False), *_curve_arrays(curve, True))


@dataclass(frozen=True)
class LimitResult:
    distance_limit: float
    ap: float
    ap_crit: float
    arrays: tuple[np.ndarray, ...]  # the read-only curve, as CURVE_FIELDS
    resampled: dict[str, Any]

    @property
    def curve(self) -> list[CurvePoint]:
        """The operating points of ``arrays``, built on each access."""
        return _points(self.arrays)


@dataclass(frozen=True)
class EvaluationReport:
    class_name: str
    config: CriticalityConfig
    ap_style: str
    max_range: float
    results: list[LimitResult]
    ingest: dict[str, Any]

    def _as_dict(self, curves: Sequence[Any]) -> dict[str, Any]:
        return {
            "class": self.class_name,
            "criticality_config": asdict(self.config),
            "ap_style": self.ap_style,
            "max_range": self.max_range,
            "ingest": self.ingest,
            "results": [
                {
                    "distance_limit": res.distance_limit,
                    "ap": res.ap,
                    "ap_crit": res.ap_crit,
                    "curve": curve,
                    "curve_recall_grid": res.resampled,
                }
                for res, curve in zip(self.results, curves)
            ],
        }

    def to_dict(self) -> dict[str, Any]:
        rows = (zip(*(a.tolist() for a in res.arrays)) for res in self.results)
        return self._as_dict([[dict(zip(CURVE_FIELDS, pt)) for pt in curve] for curve in rows])


def evaluate_detector(
    dataset: Dataset,
    detections: Iterable[Detection],
    class_name: str,
    dist_limits: Sequence[float],
    cfg: CriticalityConfig,
    ap_style: str = "paper",
    max_range: float = DEFAULT_EVAL_RANGE,
    workers: int | None = None,
) -> EvaluationReport:
    """Full per-class evaluation of one detector across distance limits.

    Runs on one thread; ``workers`` is accepted for compatibility and ignored.
    """
    detections = list(detections)
    ap_function(ap_style)  # rejects an unknown style before any work
    acc = CurveAccumulator(dataset, detections, class_name, dist_limits, max_range)
    results = []
    for distance_limit, arrays in zip(acc.dist_limits, acc.curve_arrays(cfg)):
        _, precision, recall, p_r, r_s = arrays
        results.append(
            LimitResult(
                distance_limit=distance_limit,
                ap=ap_from_arrays(ap_style, recall, precision),
                ap_crit=ap_from_arrays(ap_style, r_s, p_r),
                arrays=arrays,
                resampled=_recall_grid(recall, precision, r_s, p_r),
            )
        )
    return EvaluationReport(
        class_name=class_name,
        config=cfg,
        ap_style=ap_style,
        max_range=max_range,
        results=results,
        ingest=ingest_summary(dataset, detections),
    )


_CHUNK_ROWS = 4096
# A curve point as json.dump(indent=2, sort_keys=True) lays it out at
# results[i].curve[j], after its line break: keys sorted, each value by float.__repr__.
_JSON_KEYS = sorted(CURVE_FIELDS)
_JSON_POINT = "\n        {\n%s\n        }" % ",\n".join(f'          "{k}": %r' for k in _JSON_KEYS)


def _formatted(columns: Sequence[np.ndarray], row: str, sep: str) -> Iterable[str]:
    """``sep.join(row % values)`` over the rows of ``columns``, a few thousand rows at a time."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        block = np.column_stack([c[start:start + _CHUNK_ROWS] for c in columns])
        yield (sep if start else "") + sep.join([row] * len(block)) % tuple(block.ravel().tolist())


def write_curve_csv(arrays: Sequence[np.ndarray], path: str | Path) -> None:
    """One row per operating point of the CURVE_FIELDS arrays, six decimals."""
    with open(path, "w", newline="") as f:
        f.write("threshold,precision,recall,p_r,r_s\r\n")
        f.writelines(_formatted(arrays, "%.6f,%.6f,%.6f,%.6f,%.6f\r\n", ""))


def write_report_json(report: EvaluationReport, path: str | Path) -> None:
    """``model.dump_json(report.to_dict(), path)`` byte for byte, curves streamed.

    An unquoted ``"curve": null`` can only be a curve's placeholder, as
    ``json`` escapes every ``"`` in a string. Curve values are finite, so
    ``%r`` writes them as ``json`` does.
    """
    text = json.dumps(report._as_dict([None] * len(report.results)), indent=2, sort_keys=True)
    parts = text.split('"curve": null')
    with open(path, "w") as f:
        f.write(parts[0])
        for res, rest in zip(report.results, parts[1:]):
            f.write('"curve": [')
            f.writelines(_formatted([res.arrays[CURVE_FIELDS.index(k)] for k in _JSON_KEYS],
                                    _JSON_POINT, ","))
            f.write(("\n      ]" if len(res.arrays[0]) else "]") + rest)
        f.write("\n")
