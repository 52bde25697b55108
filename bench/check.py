"""Output checks: digests against a reference, and oracles that recompute outputs.

CSV outputs and ``rankings.json`` are compared byte for byte (by SHA-256).
``report.json`` is compared key by key on the keys the reference has, so a
report that gains a block stays correct while every recorded value must
still match exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import tempfile
from dataclasses import astuple
from pathlib import Path

from criteval import cli, metrics, model, sweep
from criteval.criticality import CriticalityConfig, criticality_components
from criteval.synthgen import SplitMix64

KEYED = "report.json"
CURVE_FIELDS = ("threshold", "precision", "recall", "p_r", "r_s")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_tree(value, depth: int = 0):
    """Hash leaves; descend into objects, and into lists of objects near the top."""
    if isinstance(value, dict):
        return {k: _digest_tree(v, depth + 1) for k, v in value.items()}
    if isinstance(value, list) and depth < 2 and value and all(isinstance(v, dict) for v in value):
        return [_digest_tree(v, depth + 1) for v in value]
    return _sha(json.dumps(value, sort_keys=True).encode())


def digest_outputs(out: Path) -> dict:
    """Reference form of an output directory."""
    digests: dict = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == KEYED:
            digests[path.name] = {"sha256": _sha(data), "keys": _digest_tree(json.loads(data))}
        else:
            digests[path.name] = _sha(data)
    return digests


def _compare_tree(ref, actual, where: str, errors: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(actual, dict):
            errors.append(f"{where}: expected an object")
            return
        for key, sub in ref.items():
            if key not in actual:
                errors.append(f"{where}.{key}: missing")
            else:
                _compare_tree(sub, actual[key], f"{where}.{key}", errors)
    elif isinstance(ref, list):
        if not isinstance(actual, list) or len(actual) != len(ref):
            errors.append(f"{where}: expected a list of {len(ref)}")
            return
        for i, (sub, item) in enumerate(zip(ref, actual)):
            _compare_tree(sub, item, f"{where}[{i}]", errors)
    elif _sha(json.dumps(actual, sort_keys=True).encode()) != ref:
        errors.append(f"{where}: value differs")


def compare_outputs(reference: dict, out: Path) -> list[str]:
    """Mismatches between ``out`` and a reference; empty when they agree."""
    errors: list[str] = []
    for name, ref in reference.items():
        path = out / name
        if not path.is_file():
            errors.append(f"{name}: not written")
            continue
        data = path.read_bytes()
        if name == KEYED:
            if _sha(data) != ref["sha256"]:
                _compare_tree(ref["keys"], json.loads(data), name, errors)
        elif _sha(data) != ref:
            errors.append(f"{name}: bytes differ")
    return errors


def _parse(cli_args: list[str]):
    return cli.build_parser().parse_args(cli_args)


def reference_curve(dataset, detections, class_name: str, distance_limit: float,
                    cfg: CriticalityConfig, max_range: float) -> list[tuple[float, ...]]:
    """``(threshold, precision, recall, p_r, r_s)`` per distinct confidence, from the rules.

    Written from the paper's definitions with none of the pipeline's array
    code: range and class filtering, greedy matching (descending confidence,
    input order on ties, nearest free ground truth, lowest index on ties) and
    the scalar ``criticality_components`` kappa, summed in plain Python.
    """
    by_frame: dict[str, list] = {}
    for det in detections:
        by_frame.setdefault(det.frame_id, []).append(det)
    n_gt, gt_weight, preds = 0, 0.0, []
    for frame in dataset.frames:
        ex, ey = frame.ego.center

        def kept(obj) -> bool:
            return (obj.class_name == class_name
                    and math.hypot(obj.center.x - ex, obj.center.y - ey) <= max_range)

        gts = [g for g in frame.ground_truth if kept(g)]
        dets = [d for d in by_frame.get(frame.frame_id, []) if kept(d.state)]
        k_gt = [criticality_components(frame.ego, g, cfg).kappa for g in gts]
        n_gt += len(gts)
        gt_weight += sum(k_gt)
        free = set(range(len(gts)))
        for i in sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i)):
            det = dets[i]
            near = [(math.hypot(gts[j].center.x - det.state.center.x,
                                gts[j].center.y - det.state.center.y), j) for j in free]
            hit = min((c for c in near if c[0] <= distance_limit), default=None)
            if hit is not None:
                free.discard(hit[1])
            k_pred = criticality_components(frame.ego, det.state, cfg).kappa
            preds.append((det.confidence, hit is not None, k_pred,
                          k_gt[hit[1]] if hit is not None else 0.0))
    preds.sort(key=lambda p: -p[0])
    curve = []
    tp = tp_gt = tp_pred = fp_pred = 0.0
    for i, (conf, is_tp, k_pred, k_gt_matched) in enumerate(preds):
        tp += is_tp
        tp_gt += k_gt_matched
        tp_pred += k_pred if is_tp else 0.0
        fp_pred += 0.0 if is_tp else k_pred
        if i + 1 < len(preds) and preds[i + 1][0] == conf:
            continue
        den = tp_pred + fp_pred
        curve.append((conf, tp / (i + 1), tp / n_gt if n_gt else 1.0,
                      1.0 if den == 0.0 else min(1.0, tp_gt / den),
                      1.0 if gt_weight == 0.0 else min(1.0, tp_pred / gt_weight)))
    return curve


def _compare_curve(reference: list[tuple[float, ...]], curve: list[tuple[float, ...]],
                   where: str) -> list[str]:
    """Thresholds exactly, the four rates to 1e-9 (summation order differs)."""
    if len(curve) != len(reference):
        return [f"{where}: {len(curve)} curve points, the reference has {len(reference)}"]
    for ref, got in zip(reference, curve):
        if ref[0] != got[0] or any(abs(a - b) > 1e-9 for a, b in zip(ref[1:], got[1:])):
            return [f"{where}: curve point {got} differs from the reference {ref}"]
    return []


def oracle_sweep(cli_args: list[str], out: Path, seed: int, n_cells: int) -> list[str]:
    """Check a sweep's outputs against independent computations.

    ``rankings.json`` must be what ``sweep.rankings_report`` makes of
    ``sweep.csv``, byte for byte. Sampled cells must equal
    ``metrics.evaluate_detector`` repr for repr, and the first sampled
    cell's curve must agree with ``reference_curve``.
    """
    args = _parse(cli_args)
    dataset = model.load_ground_truth(args.gt)
    detectors = {name: model.load_detections(path)
                 for name, _, path in (spec.partition("=") for spec in args.pred)}
    rows = sweep.read_sweep_csv(out / "sweep.csv")
    errors = []
    with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
        rankings = Path(tmp) / "rankings.json"
        model.dump_json(sweep.rankings_report(rows, args.dist_limits), rankings)
        if rankings.read_bytes() != (out / "rankings.json").read_bytes():
            errors.append("rankings.json differs from rankings_report of sweep.csv")
    rng = SplitMix64(seed)
    for i in range(n_cells):
        row = rows[int(rng.uniform() * len(rows))]
        cfg = CriticalityConfig(row.d_max, row.r_max, row.t_max)
        report = metrics.evaluate_detector(
            dataset, detectors[row.detector], args.class_name, [row.distance_limit], cfg,
            ap_style=args.ap_style, max_range=args.max_range, workers=1,
        )
        result = report.results[0]
        if (repr(result.ap), repr(result.ap_crit)) != (repr(row.ap), repr(row.ap_crit)):
            errors.append(f"sweep.csv cell {row}: evaluate_detector gives "
                          f"ap={result.ap!r} ap_crit={result.ap_crit!r}")
        if i == 0:
            reference = reference_curve(dataset, detectors[row.detector], args.class_name,
                                        row.distance_limit, cfg, args.max_range)
            errors += _compare_curve(reference, [astuple(pt) for pt in result.curve],
                                     f"sweep.csv cell {row}")
    return errors


def _curve_csv(curve: list[dict]) -> bytes:
    """A report curve in the curve CSV format: a header, then six decimals per value."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CURVE_FIELDS)
    for pt in curve:
        writer.writerow([f"{pt[k]:.6f}" for k in CURVE_FIELDS])
    return buf.getvalue().encode()


def oracle_evaluate(cli_args: list[str], out: Path, seed: int) -> list[str]:
    """Check an evaluation's outputs against independent computations.

    For every limit of report.json: ``ap``/``ap_crit`` and
    ``curve_recall_grid`` must be what the summary functions make of the
    report's own curve, repr for repr, and the curve CSV must be that curve
    with six decimals per value. One sampled limit's curve must agree with
    ``reference_curve``.
    """
    args = _parse(cli_args)
    report = json.loads((out / KEYED).read_text())
    ap_fn = metrics.ap_function(report["ap_style"])
    errors = []
    for res in report["results"]:
        where = f"report.json l={res['distance_limit']!r}"
        curve = [metrics.CurvePoint(**pt) for pt in res["curve"]]
        try:
            if (repr(ap_fn(curve, False)), repr(ap_fn(curve, True))) != (
                    repr(res["ap"]), repr(res["ap_crit"])):
                errors.append(f"{where}: ap/ap_crit differ from the summary of its curve")
            if metrics.resample_curve(curve) != res["curve_recall_grid"]:
                errors.append(f"{where}: curve_recall_grid differs from resample_curve")
        except ValueError as e:
            errors.append(f"{where}: its curve cannot be summarized: {e}")
        name = f"curve_{report['class']}_l{res['distance_limit']:g}.csv"
        if _curve_csv(res["curve"]) != (out / name).read_bytes():
            errors.append(f"{name}: differs from the curve in report.json")
    res = report["results"][int(SplitMix64(seed).uniform() * len(report["results"]))]
    cfg = CriticalityConfig(**report["criticality_config"])
    reference = reference_curve(
        model.load_ground_truth(args.gt), model.load_detections(args.pred), report["class"],
        res["distance_limit"], cfg, report["max_range"],
    )
    curve = [tuple(pt[k] for k in CURVE_FIELDS) for pt in res["curve"]]
    return errors + _compare_curve(reference, curve,
                                   f"report.json l={res['distance_limit']!r}")
