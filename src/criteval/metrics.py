"""Precision/recall, their criticality-weighted counterparts, and AP summaries.

Curves are built over the distinct confidence values present in the
detections, evaluated from high to low, with one set of counts
accumulated over the whole dataset per threshold; with no detections a
curve is one vacuous point at threshold 1.0. Approach geometry depends
neither on the criticality caps nor on the distance limit, and matching
only on the limit, so :class:`CurveAccumulator` filters and classifies
each object once per (detector, class), as columns, matches once per
limit, and reweights cheaply for any number of configurations.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .criticality import (
    CASE_MISSING_VELOCITY,
    CASE_NONFINITE_TIME,
    CASE_RECEDING,
    CASE_TRACKED,
    CASE_ZERO_REL_VELOCITY,
    NONFINITE_TIME_SCORE,
    CriticalityConfig,
)
from .matching import greedy_assign
from . import model
from .model import Dataset, Detection, DetectionTable, ingest_summary

DEFAULT_EVAL_RANGE = 50.0
AP_MIN_RECALL = 0.1
AP_MIN_PRECISION = 0.1
AP_STYLES = ("paper", "devkit")
# Recall values 0, 0.01, ..., 1: devkit AP's interpolation points and the report's recall grid.
_RECALL_GRID = np.linspace(0.0, 1.0, 101)


# bench/check.py:222 rebuilds report curves as CurvePoints.
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
    den = np.asarray(den)
    # Denominators are nondecreasing along the cuts: a positive first column has no zero after it.
    if not (den.ndim == 2 and (den[:, 0] > 0.0).all()):
        np.copyto(num, 1.0, where=den == 0.0)
    return num


def worker_count() -> int:
    """Worker processes: CRIT_EVAL_THREADS, at least 1, if it is set, else the usable cores.

    ``criteval sweep`` evaluates up to this many detectors at once, one per
    forked process; the library functions run in the calling process.
    """
    env = os.environ.get("CRIT_EVAL_THREADS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"CRIT_EVAL_THREADS must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"CRIT_EVAL_THREADS must be at least 1, got {env!r}")
        return value
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _ScoreTerms:
    """Cap-independent parts of the component scores of a set of objects.

    Each score is ``max(0, -x**2 / cap**2 + 1)`` or a case's fixed value, so
    keeping ``-x**2`` per object leaves one pass per cap value, with the
    same operations in the same order as ``weights_from_class``. It takes
    the four columns of a ``classify`` result.
    """

    def __init__(self, case: np.ndarray, d_b: np.ndarray, d_c: np.ndarray, d_t: np.ndarray):
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
        # The 1 - kappa_t rows of the last t_values, which no other cap changes.
        self._not_t: tuple[bytes | None, np.ndarray] = (None, np.empty(0))

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
        key = t_values.tobytes()
        if self._not_t[0] != key:
            self._not_t = key, self._complement(self._neg_sq_t, t_values[:, None], self._scored_t)
        kappa = np.multiply(self._not_t[1], not_dr)
        return np.subtract(1.0, kappa, out=kappa)


def _running_sums(values: np.ndarray, columns: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row-wise running sums of ``values[:, columns]`` after ``counts[g]`` columns (0 after none).

    The sums run in place after a zero column, so skipping the other
    columns of a row leaves each sum as it would be with zeros in their places.
    """
    sums = np.empty((len(values), len(columns) + 1))
    sums[:, 0] = 0.0
    # The columns are valid indices; "clip" gathers without the buffer that "raise" takes.
    np.take(values, columns, axis=1, out=sums[:, 1:], mode="clip")
    np.cumsum(sums, axis=1, out=sums)
    # Unlike sums[:, counts], take lays each row out contiguously.
    return np.take(sums, counts, axis=1)


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each pair, which ``np.hypot`` does not always round alike."""
    return np.fromiter(map(math.hypot, x.tolist(), y.tolist()), np.float64, len(x))


# bench/spans.py:51 hooks it as the classify layer.
def classify(ego: Sequence[np.ndarray], obj: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """``criticality.classify`` of each row, as ``(case, d_egoB, d_egoC, delta_t)`` columns.

    ``ego`` holds the ``(x, y, vx, vy)`` columns of each row's ego and ``obj``
    the ``(x, y, vx, vy, known)`` columns of its object, whose velocity is
    missing where ``known`` is false. The scalar function's IEEE operations
    run in its order, each ``hypot`` being ``math.hypot``, so every value is
    the scalar one bit for bit.
    """
    ex, ey, evx, evy = ego
    bx, by, ovx, ovy, known = obj
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d_ego_b = _hypot(bx - ex, by - ey)
        vx, vy = ovx - evx, ovy - evy
        speed = _hypot(vx, vy)
        ux, uy = vx / speed, vy / speed
        along = (ex - bx) * ux + (ey - by) * uy
        cx, cy = bx + along * ux, by + along * uy
        approaching = (cx - bx) * vx + (cy - by) * vy >= 0.0
        delta_t = _hypot(bx - cx, by - cy) / speed
        d_ego_c = _hypot(ex - cx, ey - cy)
    case = np.select([~known, (vx == 0.0) & (vy == 0.0), ~approaching, np.isfinite(delta_t)],
                     [CASE_MISSING_VELOCITY, CASE_ZERO_REL_VELOCITY, CASE_RECEDING, CASE_TRACKED],
                     CASE_NONFINITE_TIME)
    scored = (case == CASE_TRACKED) | (case == CASE_NONFINITE_TIME)
    return case, d_ego_b, np.where(scored, d_ego_c, 0.0), np.where(scored, delta_t, 0.0)


def check_scope(class_name: str, dist_limits: Iterable[float],
                max_range: float) -> tuple[float, ...]:
    """The limits as a tuple, once they, ``max_range`` and ``class_name`` prove valid."""
    limits = tuple(dist_limits)
    if not (limits and all(limit > 0 for limit in limits) and len(set(limits)) == len(limits)):
        raise ValueError("distance limits must be nonempty, positive and distinct, got "
                         + (", ".join(map(repr, limits)) or "none"))
    if not all(map(math.isfinite, limits)):
        raise ValueError("distance limits must be finite, got " + ", ".join(map(repr, limits)))
    if not 0 < max_range < math.inf:
        raise ValueError(f"max_range must be positive and finite, got {max_range!r}")
    if not class_name:
        raise ValueError("class_name must be nonempty")
    return limits


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
        limits = self.dist_limits = check_scope(class_name, dist_limits, max_range)
        table = DetectionTable.of(detections)
        frames = sorted(dataset.frames, key=lambda f: f.frame_id)
        if any(f.ego.velocity is None for f in frames):
            raise ValueError("ego velocity must be known")
        ego = np.reshape([(*f.ego.center, *f.ego.velocity) for f in frames], (-1, 4))
        # The class's ground truth as (frame, x, y, vx, vy, known) rows, in frame order, and
        # its predictions in known frames as the same columns (and confidence), in input order.
        unknown = (math.nan, math.nan)
        gt = np.reshape([(k, *g.center, *(g.velocity or unknown), g.velocity is not None)
                         for k, f in enumerate(frames) for g in f.ground_truth
                         if g.class_name == class_name], (-1, 6))
        position = {f.frame_id: k for k, f in enumerate(frames)}
        run_frame = np.array([position.get(f, -1) for f in table.frame_ids], dtype=np.intp)
        p_frame = np.repeat(run_frame, np.diff(table.offsets))
        rows = np.flatnonzero((p_frame >= 0) & (table.class_index == (
            table.classes.index(class_name) if class_name in table.classes else -1)))
        g_frame, gts = gt[:, 0].astype(np.intp), [*gt[:, 1:5].T, gt[:, 5] == 1.0]
        p_frame, preds = p_frame[rows], [c[rows] for c in (table.x, table.y, table.vx, table.vy,
                                                           table.velocity_known, table.confidence)]

        def in_range(frame: np.ndarray, columns: Sequence[np.ndarray]) -> np.ndarray:
            with np.errstate(over="ignore"):
                distance = _hypot(columns[0] - ego[frame, 0], columns[1] - ego[frame, 1])
            return np.flatnonzero(distance <= max_range)

        keep = in_range(g_frame, gts)
        g_frame, gts = g_frame[keep], [c[keep] for c in gts]
        keep = in_range(p_frame, preds)
        # By frame, then descending confidence, then input order.
        keep = keep[np.lexsort((-preds[5][keep], p_frame[keep]))]
        p_frame, preds, conf = p_frame[keep], [c[keep] for c in preds[:5]], preds[5][keep]
        matches = self._match(len(frames), (g_frame, *gts[:2]), (p_frame, *preds[:2]), conf)
        # Frames come in frame_id order, so a stable sort makes the global order.
        order = np.argsort(-conf, kind="stable")

        self.n_gt = len(g_frame)
        self._gt = _ScoreTerms(*classify(ego[g_frame].T, gts))
        self._pred = _ScoreTerms(*(column[order] for column in classify(ego[p_frame].T, preds)))
        self._conf = conf[order]
        if len(order):
            ends = np.flatnonzero(np.append(np.diff(self._conf) != 0.0, True))
            n_kept, thresholds = ends + 1, self._conf[ends]
        else:
            n_kept, thresholds = np.zeros(1, dtype=np.int64), np.ones(1)
        # Per limit: true and false positives (as indices in global order), the
        # ground truth each true positive matched, and both counts at each cut.
        self._splits = []
        for match in matches:
            gt_index = match[order]
            is_tp = gt_index >= 0
            tp_at_cut = np.concatenate(([0], np.cumsum(is_tp)))[n_kept]
            cum_tp = tp_at_cut.astype(np.float64)
            classic = (thresholds, _ratio(cum_tp.copy(), n_kept.astype(np.float64)),
                       _ratio(cum_tp, float(self.n_gt)))
            for values in classic:
                values.flags.writeable = False
            self._splits.append((np.flatnonzero(is_tp), np.flatnonzero(~is_tp), gt_index[is_tp],
                                 tp_at_cut, n_kept - tp_at_cut, classic))

    def _match(self, n_frames: int, gts: Sequence[np.ndarray], preds: Sequence[np.ndarray],
               conf: np.ndarray) -> list[np.ndarray]:
        """The matched ground truth (-1 if none) of each prediction, one array per limit.

        ``gts`` and ``preds`` are ``(frame, x, y)`` columns in frame order. Per frame and
        limit, ``greedy_assign`` gets the objects whose gap, the least ``max(|dx|, |dy|)``
        to an object of the other side in their frame, is within the limit, in their order:
        ``hypot`` is never below either leg, so the others neither claim nor are claimed.
        """
        (g_frame, gx, gy), (p_frame, px, py) = gts, preds
        bounds = [np.searchsorted(f, np.arange(n_frames + 1)) for f in (g_frame, p_frame)]
        gaps = [np.full(len(gx), np.inf), np.full(len(px), np.inf)]
        with np.errstate(over="ignore"):  # a leg that overflows is inf, as its hypot is
            for k in np.flatnonzero((np.diff(bounds[0]) > 0) & (np.diff(bounds[1]) > 0)).tolist():
                g, p = slice(*bounds[0][k:k + 2]), slice(*bounds[1][k:k + 2])
                gap = np.maximum(np.abs(gx[g, None] - px[p]), np.abs(gy[g, None] - py[p]))
                gaps[0][g], gaps[1][p] = gap.min(axis=1), gap.min(axis=0)
        matches = []
        for limit in self.dist_limits:
            match = np.full(len(px), -1, dtype=np.int64)
            g_used, p_used = (np.flatnonzero(side <= limit) for side in gaps)
            g_cut, p_cut = (np.searchsorted(u, b).tolist() for u, b in zip((g_used, p_used), bounds))
            gts = list(zip(gx[g_used].tolist(), gy[g_used].tolist()))
            preds = list(zip(px[p_used].tolist(), py[p_used].tolist(), conf[p_used].tolist()))
            g_used, p_used = g_used.tolist(), p_used.tolist()
            for k in range(n_frames):
                (g0, g1), (p0, p1) = g_cut[k:k + 2], p_cut[k:k + 2]
                for i, j in greedy_assign(gts[g0:g1], preds[p0:p1], limit):
                    if j is not None:
                        match[p_used[p0 + i]] = g_used[g0 + j]
            matches.append(match)
        return matches

    def curve_arrays(
        self, d_max: float, r_max: float, t_values: Sequence[float]
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """(threshold, precision, recall, p_r, r_s) arrays per limit, highest threshold first.

        ``p_r`` and ``r_s`` have one row per value of ``t_values``, for the
        caps ``(d_max, r_max, t_max)``; one configuration is ``[t_max]``. The
        cap-separable component scores are computed once for the whole batch
        and every limit, and every row equals the one-row result bit for bit.
        All arrays are read-only; the classic ones are shared.

        The safety-weighted recall denominator is the total ground-truth
        weight, which does not depend on the threshold, so the recall side
        is exactly nonincreasing as the threshold rises.
        """
        t = np.array(t_values, dtype=np.float64)
        kgt = self._gt.kappa_rows(d_max, r_max, t)
        # The same pairwise sum as over a 1-D array, row by row.
        total_gt = np.array([row.sum() for row in kgt])[:, None]
        kpred = self._pred.kappa_rows(d_max, r_max, t)
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
            p_r.flags.writeable = r_s.flags.writeable = False
            curves.append((*classic, p_r, r_s))
        return curves

    # bench/spans.py:55 hooks it as the reweight layer.
    def curve(self, cfg: CriticalityConfig) -> list[CurvePoint]:
        """One operating point per cut, highest threshold first, of a one-limit accumulator."""
        if len(self.dist_limits) != 1:
            raise ValueError("curve() needs an accumulator of one distance limit")
        *classic, p_r, r_s = self.curve_arrays(cfg.d_max, cfg.r_max, [cfg.t_max])[0]
        return _points((*classic, p_r[0], r_s[0]))


def _curve_arrays(curve: Sequence[CurvePoint], weighted: Sequence[bool]) -> tuple[np.ndarray, np.ndarray]:
    r = np.array([[pt.r_s if w else pt.recall for pt in curve] for w in weighted], dtype=np.float64)
    p = np.array([[pt.p_r if w else pt.precision for pt in curve] for w in weighted], dtype=np.float64)
    if np.any(np.diff(r) < 0):
        raise ValueError("curve must be sorted by nondecreasing recall")
    return r, p


# bench/spans.py:58-59 hook this and devkit_average_precision as the summarize layer.
def average_precision(curve: Sequence[CurvePoint], use_weighted: bool = False) -> float:
    """Riemann-sum AP over operating points with both coordinates >= 0.1.

    Points below either 0.1 floor are dropped to suppress noise; the first
    retained point is anchored at its predecessor's recall (0 if none).
    With ``use_weighted`` the (r_s, p_r) coordinates are summarized instead.
    """
    return ap_from_arrays("paper", *_curve_arrays(curve, [use_weighted]))[0]


def devkit_average_precision(curve: Sequence[CurvePoint], use_weighted: bool = False) -> float:
    """nuScenes-devkit style AP: 101-point interpolation, floors subtracted,
    renormalized. Offered for comparability with published tables."""
    return ap_from_arrays("devkit", *_curve_arrays(curve, [use_weighted]))[0]


# bench/check.py:218 summarizes report curves with it.
def ap_function(ap_style: str) -> Callable[[Sequence[CurvePoint], bool], float]:
    if ap_style not in AP_STYLES:
        raise ValueError(f"ap_style must be one of {AP_STYLES}, got {ap_style!r}")
    return average_precision if ap_style == "paper" else devkit_average_precision


def _ap_paper_rows(r: np.ndarray, p: np.ndarray) -> list[float]:
    """Paper AP per row. As recall is nondecreasing, a row's kept points nearly
    always form one run; its terms are then a contiguous slice of ``prod``.
    A split run is compacted, each kept point stepping from the one before."""
    if not r.shape[1]:
        return [0.0] * len(r)
    keep = (p >= AP_MIN_PRECISION) & (r >= AP_MIN_RECALL)
    first, stop = keep.argmax(axis=1), keep.shape[1] - keep[:, ::-1].argmax(axis=1)
    runs = zip(first.tolist(), stop.tolist(), np.count_nonzero(keep, axis=1).tolist())
    prod = np.empty(r.shape)  # recall steps, from 0 at each row's first cut, times precision
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(r.ravel()[1:], r.ravel()[:-1], out=prod.reshape(-1)[1:])
        prod[:, 0] = r[:, 0]
        prod *= p
    aps = []
    for i, (a, b, n) in enumerate(runs):
        if n and n != b - a:  # a split run: its compacted terms, anchored before the first
            prod[i, a:a + n] = np.diff(r[i, keep[i]], prepend=r[i, a - 1] if a else 0.0) * p[i, keep[i]]
        aps.append(float(prod[i, a:a + n].sum()) if n else 0.0)
    return aps


def _on_grid(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Each row's precision at the 101 recall points, 0 beyond its last recall or without cuts."""
    out = np.zeros((len(r), len(_RECALL_GRID)))
    if r.shape[1]:
        for row, ri, pi in zip(out, r, p):
            row[:] = np.interp(_RECALL_GRID, ri, pi, right=0.0)
    return out


def _ap_devkit_rows(r: np.ndarray, p: np.ndarray) -> list[float]:
    """Devkit AP per row; only ``np.interp`` runs row by row."""
    prec = np.maximum(_on_grid(r, p)[:, round(100 * AP_MIN_RECALL) + 1 :] - AP_MIN_PRECISION, 0.0)
    return [min(1.0, mean / (1.0 - AP_MIN_PRECISION)) for mean in np.mean(prec, axis=1).tolist()]


def ap_from_arrays(ap_style: str, r: np.ndarray, p: np.ndarray) -> list[float]:
    """The AP of each row of ``(rows, cuts)`` arrays; assumes each row of ``r`` is nondecreasing."""
    ap_function(ap_style)  # rejects an unknown style
    if np.ndim(r) != 2 or np.shape(r) != np.shape(p):
        raise ValueError(f"r and p must share a (rows, cuts) shape, got {np.shape(r)}, {np.shape(p)}")
    return (_ap_paper_rows if ap_style == "paper" else _ap_devkit_rows)(r, p)


def _recall_grid(r: np.ndarray, p: np.ndarray) -> dict[str, Any]:
    precision, p_r = _on_grid(r, p).tolist()  # r holds (recall, r_s), p (precision, p_r)
    return {"step": 0.01, "grid": _RECALL_GRID.tolist(), "precision": precision, "p_r": p_r}


# bench/check.py:227 checks curve_recall_grid against it.
def resample_curve(curve: Sequence[CurvePoint]) -> dict[str, Any]:
    """Reporting view of a curve on the recall grid of step 0.01 (plots only).

    Interpolates precision over recall and weighted precision over
    weighted recall; beyond the achieved recall the value is 0.
    """
    return _recall_grid(*_curve_arrays(curve, [False, True]))


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

    # bench/spans.py:65 hooks it as the write layer.
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
    workers: int | None = None,  # ignored; bench/check.py:183 passes workers=1
) -> EvaluationReport:
    """Full per-class evaluation of one detector across distance limits, on one thread."""
    ap_function(ap_style)  # rejects an unknown style before any work
    detections = DetectionTable.of(detections)
    acc = CurveAccumulator(dataset, detections, class_name, dist_limits, max_range)
    results = []
    curves = acc.curve_arrays(cfg.d_max, cfg.r_max, [cfg.t_max])
    for distance_limit, (threshold, precision, recall, (p_r,), (r_s,)) in zip(acc.dist_limits, curves):
        r, p = np.stack((recall, r_s)), np.stack((precision, p_r))
        results.append(
            LimitResult(
                distance_limit,
                *ap_from_arrays(ap_style, r, p),  # ap, ap_crit
                arrays=(threshold, precision, recall, p_r, r_s),
                resampled=_recall_grid(r, p),
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


_CSV_HEADER = b"threshold,precision,recall,p_r,r_s\r\n"
_CSV_ROW = "%.6f,%.6f,%.6f,%.6f,%.6f\r\n"


def _csv_rows(block: np.ndarray) -> bytes:
    """The ``_CSV_ROW`` text of each row of a ``(rows, 5)`` block.

    For x in [+0.0, 1.0], ``rint(x * 1e6)`` is the integer that ``'%.6f' % x``
    prints unless the product is a half-integer: multiplication rounds
    monotonically and half-integers below 2**20 are floats, so the product
    is on the exact product's side of each of them, or on one. Such a value,
    and a block holding -0.0, NaN or a value outside [0, 1], is formatted
    with ``%``.
    """
    if not (~np.signbit(block) & (block <= 1.0)).all():
        return (_CSV_ROW * len(block) % tuple(block.ravel().tolist())).encode()
    scaled = block * 1e6
    micros = np.rint(scaled).astype(np.int64)
    # Each value as "d.dddddd" and a separator: a comma, or the CR of the row's CRLF.
    text = np.empty((*block.shape, 9), dtype=np.uint8)
    text[..., 1], text[..., 8], text[:, -1, 8] = ord("."), ord(","), ord("\r")
    for place in (7, 6, 5, 4, 3, 2, 0):
        micros, digit = np.divmod(micros, 10)
        text[..., place] = digit + ord("0")
    for row, col in zip(*np.nonzero(scaled - np.floor(scaled) == 0.5)):
        text[row, col, :8] = np.frombuffer(b"%.6f" % block[row, col], dtype=np.uint8)
    newline = np.full((len(block), 1), ord("\n"), dtype=np.uint8)
    return np.concatenate((text.reshape(len(block), -1), newline), axis=1).tobytes()


def write_curve_csv(arrays: Sequence[np.ndarray], path: str | Path) -> None:
    """One row per operating point of the CURVE_FIELDS arrays, six decimals."""
    with open(path, "wb") as f:
        f.write(_CSV_HEADER)
        for start in range(0, len(arrays[0]), model._CHUNK_ROWS):
            f.write(_csv_rows(np.column_stack([a[start:start + model._CHUNK_ROWS] for a in arrays])))


def _reprs(values: np.ndarray) -> np.ndarray:
    """``repr`` of each value, as an object array; called once per run of bit-identical values."""
    bits = values.view(np.int64)  # unlike ==, tells 0.0 from -0.0
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1]))[:len(bits)])
    texts = np.array(list(map(repr, values[starts].tolist())), dtype=object)
    return np.repeat(texts, np.diff(starts, append=len(bits)))


def write_report_json(report: EvaluationReport, path: str | Path) -> None:
    """``model.dump_json(report.to_dict(), path)`` byte for byte, curves streamed.

    Curve values are finite, so their ``repr`` is what ``json`` writes. The
    limits of a report share one threshold array, whose text is built once.
    """
    arrays = {id(res.arrays[0]): res.arrays[0] for res in report.results}
    thresholds = {key: _reprs(values) for key, values in arrays.items()}
    fills = (dict(zip(CURVE_FIELDS, [thresholds[id(res.arrays[0])], *map(_reprs, res.arrays[1:])]))
             for res in report.results)
    model.dump_json(report._as_dict([None] * len(report.results)), path, "curve", fills)
