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
from typing import Sequence

DEFAULT_EVAL_RANGE = 50.0
AP_STYLES = ("paper", "devkit")


def distance_limits_default() -> list[float]:
    """Default center-distance limits (meters) used for evaluation."""
    return [0.5, 1.0, 2.0, 4.0]


def greedy_assign(
    gts: Sequence[Sequence[float]], detections: Sequence[Sequence[float]], distance_limit: float
) -> list[tuple[int, int | None]]:
    """Assign each detection to a ground-truth index or None (false positive).

    A ground truth is ``(x, y, ...)`` and a detection ``(x, y, confidence)``.
    Returns ``(detection index, ground-truth index or None)`` pairs in
    processing order: descending confidence, stable for ties.
    """
    order = sorted(range(len(detections)), key=lambda i: -detections[i][2])
    # Unmatched ground truths by center x. A non-finite x is never within a
    # limit (its distance is inf or nan), so it is left out.
    open_gts = sorted((gt[0], j, gt[1]) for j, gt in enumerate(gts) if abs(gt[0]) < math.inf)
    xs = [x for x, _, _ in open_gts]
    reach = 2.0 * distance_limit
    out: list[tuple[int, int | None]] = []
    for i in order:
        cx, cy = detections[i][0], detections[i][1]
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
            out.append((i, None))
        else:
            del xs[best_k], open_gts[best_k]
            out.append((i, best))
    return out

