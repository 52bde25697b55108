"""Bird-view SVG rendering of one frame with criticality labels.

Fixed 120 m x 120 m canvas centered on ego, rotated so the ego heading
points up. Ground-truth boxes are green, detections blue; a segment from
each box center to its front edge marks the heading, and every box is
labeled with the selected weight to two decimals. All numbers are
formatted with fixed precision so identical inputs give identical bytes.
The labels come from the same criticality computation the metrics use;
the renderer has no math of its own.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

from .criticality import CriticalityConfig, criticality_components
from .model import Detection, Frame, ObjectState

WEIGHT_NAMES = ("kappa", "kappa_d", "kappa_r", "kappa_t")

_VIEW_METERS = 120.0
_PLOT_PX = 720.0
_MARGIN_PX = 20.0
_CANVAS_PX = _PLOT_PX + 2 * _MARGIN_PX
_SCALE = _PLOT_PX / _VIEW_METERS

_GT_COLOR = "green"
_PRED_COLOR = "blue"
_EGO_COLOR = "#333333"
# What XML 1.0 cannot hold even as a reference; the header writes it as a backslash escape.
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


class _ViewTransform:
    """World coordinates -> screen pixels with ego at center, heading up."""

    def __init__(self, ego: ObjectState):
        self.origin = ego.center
        rho = math.pi / 2.0 - ego.yaw
        self.cos = math.cos(rho)
        self.sin = math.sin(rho)
        self.rho = rho


def _box_svg(
    state: ObjectState, view: _ViewTransform, color: str, label: str
) -> list[str]:
    width, length = state.size
    phi = state.yaw + view.rho
    # View-frame unit vectors along the heading and across it.
    ax, ay = math.cos(phi), math.sin(phi)
    bx, by = -math.sin(phi), math.cos(phi)
    dx = state.center.x - view.origin.x
    dy = state.center.y - view.origin.y
    cx = view.cos * dx - view.sin * dy
    cy = view.sin * dx + view.cos * dy

    def screen(vx: float, vy: float) -> tuple[float, float]:
        return (_MARGIN_PX + _PLOT_PX / 2.0 + _SCALE * vx,
                _MARGIN_PX + _PLOT_PX / 2.0 - _SCALE * vy)

    half_l, half_w = length / 2.0, width / 2.0
    corners = [
        screen(cx + sa * ax * half_l + sb * bx * half_w, cy + sa * ay * half_l + sb * by * half_w)
        for sa, sb in ((1, 1), (1, -1), (-1, -1), (-1, 1))
    ]
    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
    center_px = screen(cx, cy)
    front_px = screen(cx + ax * half_l, cy + ay * half_l)
    parts = [
        f'<polygon points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>',
        f'<line x1="{_fmt(center_px[0])}" y1="{_fmt(center_px[1])}" '
        f'x2="{_fmt(front_px[0])}" y2="{_fmt(front_px[1])}" stroke="{color}" stroke-width="1.5"/>',
    ]
    if label:
        parts.append(
            f'<text x="{_fmt(center_px[0] + 4.0)}" y="{_fmt(center_px[1] - 4.0)}" '
            f'font-size="10" font-family="monospace" fill="{color}">{label}</text>'
        )
    return parts


def _axes() -> list[str]:
    parts = [
        f'<rect x="{_fmt(_MARGIN_PX)}" y="{_fmt(_MARGIN_PX)}" width="{_fmt(_PLOT_PX)}" '
        f'height="{_fmt(_PLOT_PX)}" fill="white" stroke="#888888" stroke-width="1"/>'
    ]
    half = _VIEW_METERS / 2.0
    for meters in range(-60, 61, 20):
        offset = _MARGIN_PX + _PLOT_PX * (meters + half) / _VIEW_METERS
        parts.append(
            f'<line x1="{_fmt(offset)}" y1="{_fmt(_MARGIN_PX + _PLOT_PX)}" '
            f'x2="{_fmt(offset)}" y2="{_fmt(_MARGIN_PX + _PLOT_PX - 6.0)}" '
            f'stroke="#888888" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(offset)}" y="{_fmt(_MARGIN_PX + _PLOT_PX + 14.0)}" font-size="9" '
            f'font-family="monospace" fill="#444444" text-anchor="middle">{meters}</text>'
        )
        vertical = _MARGIN_PX + _PLOT_PX * (half - meters) / _VIEW_METERS
        parts.append(
            f'<line x1="{_fmt(_MARGIN_PX)}" y1="{_fmt(vertical)}" '
            f'x2="{_fmt(_MARGIN_PX + 6.0)}" y2="{_fmt(vertical)}" stroke="#888888" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN_PX - 4.0)}" y="{_fmt(vertical + 3.0)}" font-size="9" '
            f'font-family="monospace" fill="#444444" text-anchor="end">{meters}</text>'
        )
    return parts


def render_birdview(
    frame: Frame,
    detections: Iterable[Detection],
    cfg: CriticalityConfig,
    weight: str = "kappa",
) -> str:
    """SVG text for one frame; ``weight`` selects the label value."""
    # Here, not at the top: the module imports urllib.request, which would slow every command.
    from xml.sax.saxutils import escape
    if weight not in WEIGHT_NAMES:
        raise ValueError(f"weight must be one of {WEIGHT_NAMES}, got {weight!r}")
    view = _ViewTransform(frame.ego)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS_PX)}" '
        f'height="{int(_CANVAS_PX)}" viewBox="0 0 {int(_CANVAS_PX)} {int(_CANVAS_PX)}">',
        f'<rect x="0" y="0" width="{int(_CANVAS_PX)}" height="{int(_CANVAS_PX)}" fill="white"/>',
    ]
    parts.extend(_axes())
    header = (
        f"frame {frame.frame_id} | weight {weight} | "
        f"dmax={_fmt(cfg.d_max)} rmax={_fmt(cfg.r_max)} tmax={_fmt(cfg.t_max)} | "
        f"gt=green pred=blue | axes in meters"
    )
    parts.append(
        f'<text x="{_fmt(_MARGIN_PX)}" y="{_fmt(_MARGIN_PX - 6.0)}" font-size="11" '
        f'font-family="monospace" fill="#222222">'
        f'{escape(_NOT_XML.sub(lambda m: m[0].encode("unicode_escape").decode(), header))}</text>'
    )
    parts.extend(_box_svg(frame.ego, view, _EGO_COLOR, "ego"))
    for gt in frame.ground_truth:
        value = getattr(criticality_components(frame.ego, gt, cfg), weight)
        parts.extend(_box_svg(gt, view, _GT_COLOR, _fmt(value)))
    for det in detections:
        value = getattr(criticality_components(frame.ego, det.state, cfg), weight)
        parts.extend(_box_svg(det.state, view, _PRED_COLOR, _fmt(value)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
