"""Configuration sweeps and detector rankings.

A sweep evaluates every detector at every (distance limit, criticality
configuration) cell. Each detector has one accumulator: its objects are
filtered and classified once and matched once per limit. Only the
parabola caps change across configurations, so the weights of a whole
(d_max, r_max) slice of t_max values, at every limit, come from one
batched call. The classic AP is hoisted out of the configuration loop
entirely since it never depends on the weights.

Rankings have one path: ``ranking_cells`` indexes a table by
(l, d_max, r_max, t_max) cell and detector, and ``rank`` orders one cell's
detectors by descending metric, ties broken by ascending name. Both
``rankings_report`` (``rankings.json``) and ``criteval rank`` use them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .criticality import CriticalityConfig
from .metrics import DEFAULT_EVAL_RANGE, CurveAccumulator, ap_from_arrays, ap_function
from . import model
from .model import Dataset, Detection, IngestError

SWEEP_CSV_HEADER = ["detector", "class", "l", "d_max", "r_max", "t_max", "ap", "ap_crit"]


@dataclass(frozen=True)
class ConfigGrid:
    d_values: tuple[float, ...]
    r_values: tuple[float, ...]
    t_values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("d_values", "r_values", "t_values"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name}: expected a nonempty list of values")
            for i, (low, value) in enumerate(zip((0.0, *values), values)):
                if not low < value < math.inf:
                    raise ValueError(f"{name}[{i}]: expected a finite value greater than "
                                     f"{low!r}, got {value!r}")
                if not 0.0 < value * value < math.inf:  # as CriticalityConfig checks each cap
                    raise ValueError(f"{name}[{i}]: expected a value with a positive finite "
                                     f"square, got {value!r}")

    def __len__(self) -> int:
        return len(self.d_values) * len(self.r_values) * len(self.t_values)


def default_grid() -> ConfigGrid:
    """10 x 10 x 15 = 1500 configurations: caps at 5..50 m and 2..30 s."""
    return ConfigGrid(
        d_values=tuple(float(v) for v in range(5, 55, 5)),
        r_values=tuple(float(v) for v in range(5, 55, 5)),
        t_values=tuple(float(v) for v in range(2, 32, 2)),
    )


CellKey = tuple[float, float, float, float]


class SweepRow(NamedTuple):
    detector: str
    class_name: str
    distance_limit: float
    d_max: float
    r_max: float
    t_max: float
    ap: float
    ap_crit: float


def evaluate_sweep(
    dataset: Dataset,
    detections_by_detector: Mapping[str, Iterable[Detection]],
    grid: ConfigGrid,
    dist_limits: Sequence[float],
    class_name: str,
    ap_style: str = "paper",
    max_range: float = DEFAULT_EVAL_RANGE,
) -> list[SweepRow]:
    """Complete table, sorted by detector, limit, d_max, r_max, t_max.

    Each (d_max, r_max) slice of the grid is one batched reweighting over
    all its t_max values and all limits, and one batched summary per limit.
    """
    if not detections_by_detector:
        raise ValueError("at least one detector is required")
    ap_function(ap_style)  # rejects an unknown style before any work
    rows: list[SweepRow] = []
    for name in sorted(detections_by_detector):
        acc = CurveAccumulator(dataset, detections_by_detector[name], class_name, dist_limits,
                               max_range)
        tables: dict[float, list[SweepRow]] = {limit: [] for limit in acc.dist_limits}
        for d_max, r_max in ((d, r) for d in grid.d_values for r in grid.r_values):
            for (limit, table), (_, precision, recall, p_r, r_s) in zip(
                    tables.items(), acc.curve_arrays(d_max, r_max, grid.t_values)):
                # The classic AP is the same in every slice.
                ap = table[0].ap if table else ap_from_arrays(ap_style, recall[None], precision[None])[0]
                table.extend(
                    SweepRow(name, class_name, limit, d_max, r_max, t_max, ap, ap_crit)
                    for t_max, ap_crit in zip(grid.t_values, ap_from_arrays(ap_style, r_s, p_r))
                )
        rows.extend(row for limit in sorted(tables) for row in tables[limit])
    return rows


def ranking_cells(rows: Iterable[SweepRow]) -> dict[CellKey, dict[str, SweepRow]]:
    """Rows by (l, d_max, r_max, t_max) cell, then by detector; cells in ascending order."""
    cells: dict[CellKey, dict[str, SweepRow]] = {}
    for row in rows:
        key = (row.distance_limit, row.d_max, row.r_max, row.t_max)
        cell = cells.setdefault(key, {})
        if row.detector in cell:
            raise ValueError(
                f"detector {row.detector!r} appears twice in the cell l={key[0]:g} "
                f"config {key[1]:g},{key[2]:g},{key[3]:g}"
            )
        cell[row.detector] = row
    return {key: cells[key] for key in sorted(cells)}


def rank(cell: Mapping[str, SweepRow], metric: str) -> list[str]:
    """The detectors of one cell by descending metric; ties broken by ascending name."""
    if metric not in ("ap", "ap_crit"):
        raise ValueError(f"metric must be 'ap' or 'ap_crit', got {metric!r}")
    return sorted(cell, key=lambda name: (-getattr(cell[name], metric), name))


def ranking_diff(order_a: Sequence[str], order_b: Sequence[str]) -> tuple[int, int]:
    """(n_moved, max_displacement) between two orderings of the same detector set."""
    if sorted(order_a) != sorted(order_b):
        raise ValueError("orders must contain the same detectors")
    pos_b = {name: i for i, name in enumerate(order_b)}
    displacements = [abs(i - pos_b[name]) for i, name in enumerate(order_a)]
    return sum(1 for d in displacements if d > 0), max(displacements, default=0)


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    """UTF-8 whatever the locale; a command-line name's undecodable bytes are written as they came."""
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_CSV_HEADER)
        for row in rows:
            writer.writerow([*row[:2], *map(repr, row[2:])])


def _finite_cell(rec: dict[str, str], column: str, where: str, positive: bool = False) -> float:
    text = rec[column]
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise IngestError(f"{where}: column '{column}': expected a finite number, got {text!r}")
    if not (value > 0 if positive else 0.0 <= value <= 1.0):
        expected = "a positive number" if positive else "a score in [0, 1]"
        raise IngestError(f"{where}: column '{column}': expected {expected}, got {text!r}")
    return value


def read_sweep_csv(path: str | Path) -> list[SweepRow]:
    """Rows of a UTF-8 sweep table; undecodable bytes are read as ``write_sweep_csv`` writes them.

    A cell that is not a finite number, a limit or cap that is not positive, an AP outside
    [0, 1], caps that ``CriticalityConfig`` rejects and a second class are errors.
    """
    rows: list[SweepRow] = []
    try:
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as f:
            reader = csv.DictReader(f)
            missing = set(SWEEP_CSV_HEADER) - set(reader.fieldnames or [])
            if missing:
                raise ValueError(f"{path}: missing sweep columns {sorted(missing)}")
            for rec in reader:
                where = f"{path}:line {reader.line_num}"
                cell = [_finite_cell(rec, c, where, positive=True) for c in SWEEP_CSV_HEADER[2:6]]
                scores = [_finite_cell(rec, c, where) for c in SWEEP_CSV_HEADER[6:]]
                try:
                    CriticalityConfig(*cell[1:])
                except ValueError as exc:
                    raise IngestError(f"{where}: {exc}") from None
                if rows and rec["class"] != rows[0].class_name:
                    raise IngestError(f"{where}: column 'class': expected {rows[0].class_name!r}, "
                                      f"the class of the rows before, got {rec['class']!r}")
                rows.append(SweepRow(rec["detector"], rec["class"], *cell, *scores))
    except csv.Error as e:
        raise IngestError(f"{path}: malformed CSV ({e})") from None
    return rows


def rankings_report(rows: Sequence[SweepRow], dist_limits: Sequence[float]) -> dict[str, Any]:
    """Per-configuration orders plus how each differs from the AP order."""
    per_config: list[dict[str, Any]] = []
    differing: dict[str, int] = {}
    for (distance_limit, d_max, r_max, t_max), cell in ranking_cells(rows).items():
        order_ap, order_crit = rank(cell, "ap"), rank(cell, "ap_crit")
        n_moved, max_displacement = ranking_diff(order_ap, order_crit)
        per_config.append(
            {
                "l": distance_limit,
                "d_max": d_max,
                "r_max": r_max,
                "t_max": t_max,
                "order_ap": order_ap,
                "order_ap_crit": order_crit,
                "n_moved": n_moved,
                "max_displacement": max_displacement,
            }
        )
        if n_moved:
            limit_key = repr(distance_limit)
            differing[limit_key] = differing.get(limit_key, 0) + 1
    return {
        "dist_limits": list(dist_limits),
        "n_configs": len({(c["d_max"], c["r_max"], c["t_max"]) for c in per_config}),
        "n_differing_by_l": differing,
        "per_config": per_config,
    }


def write_rankings_json(report: Mapping[str, Any], path: str | Path) -> None:
    """``model.dump_json(report, path)`` byte for byte for a ``rankings_report``, streamed."""
    texts: dict[str, str] = {}  # by repr: each distinct value is encoded once, its text shared

    def text(value: Any) -> str:  # a detector order's names sit 8 spaces deep
        return texts.get(key := repr(value)) or texts.setdefault(
            key, json.dumps(value, indent=2).replace("\n", "\n      "))

    entries = report["per_config"]
    model.dump_json({**report, "per_config": None}, path, "per_config",
                    [{k: [text(c[k]) for c in entries] for k in (entries[0] if entries else ())}])
