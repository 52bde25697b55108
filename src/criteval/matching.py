"""Greedy center-distance matching of detections to ground truth.

Predictions are processed in descending confidence order (ties broken by
input order); each claims the nearest not-yet-matched ground truth whose
2D center distance (``math.hypot``) is within the distance limit. Among
equal distances the lowest ground-truth index wins. Matching never looks
at velocity, box extent or orientation.

Only ground truths whose center x lies within twice the limit of the
prediction's are examined. This is exact: ``hypot(dx, dy) >= |dx|`` also
after rounding, and rounding is monotone, so every pair within the limit
lies inside that window. The result equals the scan over all pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .model import Detection, ObjectState


@dataclass(frozen=True)
class MatchResult:
    """Per-frame partition into TP pairs, FP predictions and FN ground truths."""

    tp: list[tuple[ObjectState, ObjectState]]
    fp: list[ObjectState]
    fn: list[ObjectState]
    distance_limit: float
    threshold: float


def distance_limits_default() -> list[float]:
    """Default center-distance limits (meters) used for evaluation."""
    return [0.5, 1.0, 2.0, 4.0]


def greedy_assign(
    gts: list[ObjectState], detections: list[Detection], distance_limit: float
) -> list[tuple[Detection, int | None]]:
    """Assign each detection to a ground-truth index or None (false positive).

    Returned in processing order: descending confidence, stable for ties.
    """
    order = sorted(range(len(detections)), key=lambda i: -detections[i].confidence)
    # Unmatched ground truths by center x. A non-finite x is never within a
    # limit (its distance is inf or nan), so it is left out.
    open_gts = sorted((gt.center.x, j, gt.center.y) for j, gt in enumerate(gts)
                      if abs(gt.center.x) < math.inf)
    xs = [x for x, _, _ in open_gts]
    reach = 2.0 * distance_limit
    out: list[tuple[Detection, int | None]] = []
    for i in order:
        det = detections[i]
        cx, cy = det.state.center
        # best = -1 until a match: an inf distance under an inf limit never
        # wins, as in a scan that keeps the first strictly smaller distance.
        best, best_k, best_dist = -1, -1, math.inf
        lo = bisect_left(xs, cx - reach)
        for k in range(lo, bisect_right(xs, cx + reach, lo)):
            gx, j, gy = open_gts[k]
            dist = math.hypot(gx - cx, gy - cy)
            if dist <= distance_limit and (dist < best_dist or dist == best_dist and j < best):
                best, best_k, best_dist = j, k, dist
        if best < 0:
            out.append((det, None))
        else:
            del xs[best_k], open_gts[best_k]
            out.append((det, best))
    return out


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
    assignment = greedy_assign(gts, kept, distance_limit)
    tp = [(gts[j], det.state) for det, j in assignment if j is not None]
    fp = [det.state for det, j in assignment if j is None]
    matched = {j for _, j in assignment if j is not None}
    fn = [gt for j, gt in enumerate(gts) if j not in matched]
    return MatchResult(tp, fp, fn, distance_limit, threshold)
