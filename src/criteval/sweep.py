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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .criticality import CriticalityConfig
from .metrics import DEFAULT_EVAL_RANGE, CurveAccumulator, ap_from_arrays, ap_function
from .model import Dataset, Detection, IngestError

SWEEP_CSV_HEADER = ["detector", "class", "l", "d_max", "r_max", "t_max", "ap", "ap_crit"]


@dataclass(frozen=True)
class ConfigGrid:
    d_values: tuple[float, ...]
    r_values: tuple[float, ...]
    t_values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, values in (
            ("d_values", self.d_values),
            ("r_values", self.r_values),
            ("t_values", self.t_values),
        ):
            if not values:
                raise ValueError(f"{name}: expected a nonempty list of values")
            for i, (low, value) in enumerate(zip((0.0, *values), values)):
                if not low < value < math.inf:
                    raise ValueError(f"{name}[{i}]: expected a finite value greater than "
                                     f"{low!r}, got {value!r}")

    def __len__(self) -> int:
        return len(self.d_values) * len(self.r_values) * len(self.t_values)

    def configs(self) -> list[CriticalityConfig]:
        return [
            CriticalityConfig(d, r, t)
            for d in self.d_values
            for r in self.r_values
            for t in self.t_values
        ]


def default_grid() -> ConfigGrid:
    """10 x 10 x 15 = 1500 configurations: caps at 5..50 m and 2..30 s."""
    return ConfigGrid(
        d_values=tuple(float(v) for v in range(5, 55, 5)),
        r_values=tuple(float(v) for v in range(5, 55, 5)),
        t_values=tuple(float(v) for v in range(2, 32, 2)),
    )


CellKey = tuple[float, float, float, float]


@dataclass(frozen=True)
class SweepRow:
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
    workers: int | None = None,
) -> list[SweepRow]:
    """Complete table, sorted by detector, limit, d_max, r_max, t_max.

    Each (d_max, r_max) slice of the grid is one batched reweighting over
    all its t_max values and all limits. Runs on one thread; ``workers`` is
    accepted for compatibility and ignored.
    """
    if not detections_by_detector:
        raise ValueError("at least one detector is required")
    ap_function(ap_style)  # rejects an unknown style before any work
    materialized = {name: list(dets) for name, dets in detections_by_detector.items()}
    # configs() varies t_max fastest, so every len(t_values)-th one starts a slice.
    slice_heads = grid.configs()[:: len(grid.t_values)]
    rows: list[SweepRow] = []
    for name in sorted(materialized):
        acc = CurveAccumulator(dataset, materialized[name], class_name, dist_limits, max_range)
        tables: dict[float, list[SweepRow]] = {limit: [] for limit in acc.dist_limits}
        for head in slice_heads:
            for (limit, table), (_, precision, recall, p_r, r_s) in zip(
                    tables.items(), acc.curve_arrays(head, t_values=grid.t_values)):
                # The classic AP is the same in every slice.
                ap = table[0].ap if table else ap_from_arrays(ap_style, recall, precision)
                table.extend(
                    SweepRow(name, class_name, limit, head.d_max, head.r_max, t_max,
                             ap, ap_from_arrays(ap_style, r_s_row, p_r_row))
                    for t_max, p_r_row, r_s_row in zip(grid.t_values, p_r, r_s)
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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.detector,
                    r.class_name,
                    repr(r.distance_limit),
                    repr(r.d_max),
                    repr(r.r_max),
                    repr(r.t_max),
                    repr(r.ap),
                    repr(r.ap_crit),
                ]
            )


def _finite_cell(rec: dict[str, str], column: str, where: str, positive: bool = False) -> float:
    text = rec[column]
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise IngestError(f"{where}: column '{column}': expected a finite number, got {text!r}")
    if positive and value <= 0:
        raise IngestError(f"{where}: column '{column}': expected a positive number, got {text!r}")
    return value


def read_sweep_csv(path: str | Path) -> list[SweepRow]:
    """Rows of a sweep table.

    A cap or AP cell that is not a finite number is an error, and so is a
    limit or cap (``l``, ``d_max``, ``r_max``, ``t_max``) that is not positive.
    """
    rows: list[SweepRow] = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        missing = set(SWEEP_CSV_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"{path}: missing sweep columns {sorted(missing)}")
        for rec in reader:
            where = f"{path}:line {reader.line_num}"
            cell = [_finite_cell(rec, c, where, positive=True) for c in SWEEP_CSV_HEADER[2:6]]
            scores = [_finite_cell(rec, c, where) for c in SWEEP_CSV_HEADER[6:]]
            rows.append(SweepRow(rec["detector"], rec["class"], *cell, *scores))
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
