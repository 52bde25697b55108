"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The final test is an optional integration check against converted
nuScenes data; it skips automatically unless CRITEVAL_NUSCENES_DIR is set.
"""

import hashlib
import json
import math
import os
import re
import time
from pathlib import Path

import pytest

from criteval.cli import main
from criteval.criticality import (
    CASE_TRACKED,
    CriticalityConfig,
    classify,
    combine,
    criticality_components,
    parabolic_score,
)
from criteval.metrics import (
    CurveAccumulator,
    CurvePoint,
    average_precision,
    devkit_average_precision,
    evaluate_detector,
)
from criteval.model import (
    dataset_to_dict,
    detections_to_dict,
    dump_json,
    load_detections,
    load_ground_truth,
)
from criteval.render import render_birdview
from criteval.sweep import (
    default_grid,
    evaluate_sweep,
    rankings_report,
    ranking_cells,
    read_sweep_csv,
    write_sweep_csv,
)
from criteval.synthgen import (
    ErrorModel,
    SplitMix64,
    corrupt,
    gen_dataset,
)

from helpers import (
    WeightedCounts,
    approaching_pairs,
    brute_force_cpa,
    default_oracle_horizon,
    divergence_scenario,
    make_ego,
    make_state,
    random_scenario_spec,
    sweep_dataset_and_detectors,
    weighted_pr,
    without_velocities,
)

DATA = Path(__file__).parent / "data"


def _passed(name: str) -> None:
    print(f"[ACCEPTANCE] {name}: PASS")


def test_geometry_oracle_1000_scenarios():
    started = time.monotonic()
    for ego, obj in approaching_pairs(1000, seed=20240901):
        case, _, d_ego_c, delta_t = classify(ego.motion, obj.motion)
        assert case == CASE_TRACKED
        min_dist, t_min = brute_force_cpa(
            ego, obj, dt=1e-3, horizon=default_oracle_horizon(ego, obj)
        )
        assert abs(d_ego_c - min_dist) <= 1e-3
        assert abs(delta_t - t_min) <= 1e-2
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed(f"geometry oracle (1000 scenarios, {elapsed:.1f}s)")


def test_parabola_suite_10k():
    rng = SplitMix64(77)
    for _ in range(10_000):
        z = 0.1 + 99.9 * rng.uniform()
        x = rng.uniform() * 2.0 * z
        score = parabolic_score(x, z)
        assert 0.0 <= score <= 1.0
        if x >= z:
            assert score == 0.0
        assert parabolic_score(0.0, z) == 1.0
        assert parabolic_score(z, z) == 0.0
        x1, x2 = sorted((rng.uniform() * z, rng.uniform() * z))
        if x2 < z and (x2 * x2 - x1 * x1) / (z * z) > 1e-15:
            assert parabolic_score(x1, z) > parabolic_score(x2, z)
    _passed("parabola suite (10^4 random (x, Z))")


def test_combination_suite_10k():
    rng = SplitMix64(78)
    assert combine(0.0, 0.0, 0.0) == 0.0
    for _ in range(10_000):
        kd, kr, kt = rng.uniform(), rng.uniform(), rng.uniform()
        value = combine(kd, kr, kt)
        assert 0.0 <= value <= 1.0
        if (kd, kr, kt) != (0.0, 0.0, 0.0):
            assert value > 0.0  # zero iff all zero
        assert value < 1.0 or (kd, kr, kt) == (0.0, 0.0, 0.0) or max(kd, kr, kt) == 1.0
        # one iff any one
        slot = int(rng.uniform() * 3.0)
        forced = [kd, kr, kt]
        forced[slot] = 1.0
        assert combine(*forced) == 1.0
        # componentwise monotonicity
        bump = rng.uniform()
        assert combine(min(1.0, kd + bump), kr, kt) >= value
        assert combine(kd, min(1.0, kr + bump), kt) >= value
        assert combine(kd, kr, min(1.0, kt + bump)) >= value
    _passed("combination suite (10^4 random triples)")


CORNER_CFG = CriticalityConfig(30.0, 20.0, 8.0)


@pytest.mark.parametrize(
    "label,ego,obj,expected",
    [
        ("zero relative velocity",
         make_ego(velocity=(3.0, -1.0)),
         make_state(center=(12.0, 2.0), velocity=(3.0, -1.0)),
         (0.0, 0.0)),
        ("single zero velocity component",
         make_ego(velocity=(0.0, 0.0)),
         make_state(center=(3.0, 4.0), velocity=(0.0, -1.0)),
         None),  # no special case: scored from the geometry
        ("moving away from the closest point",
         make_ego(velocity=(0.0, 0.0)),
         make_state(center=(3.0, 4.0), velocity=(0.0, 1.0)),
         (0.0, 0.0)),
        ("non-finite time to closest approach",
         make_ego(velocity=(0.0, 0.0)),
         make_state(center=(1e300, 0.0), velocity=(-1e-300, 0.0)),
         ("geometry", 0.1)),
        ("velocity not available",
         make_ego(velocity=(0.0, 0.0)),
         make_state(center=(12.0, 2.0), velocity=None),
         (1.0, 1.0)),
    ],
)
def test_corner_case_table(label, ego, obj, expected):
    w = criticality_components(ego, obj, CORNER_CFG)
    if expected is None:
        # vertical relative motion resolves through the same formula
        assert w.kappa_r == parabolic_score(3.0, CORNER_CFG.r_max)
        assert w.kappa_t == parabolic_score(4.0, CORNER_CFG.t_max)
    elif expected[0] == "geometry":
        assert w.kappa_t == expected[1]
        assert 0.0 <= w.kappa_r <= 1.0
    else:
        assert (w.kappa_r, w.kappa_t) == expected
    _passed(f"corner case: {label}")


def test_unit_weight_reduction_20_datasets():
    cfg = CriticalityConfig(20.0, 20.0, 8.0)
    for seed in range(20):
        dataset = gen_dataset(random_scenario_spec(seed=9000 + seed, n_frames=6))
        detections = corrupt(
            dataset,
            ErrorModel(miss_prob_by_distance=0.2, center_noise_sigma=0.3,
                       velocity_noise_sigma=0.4, fp_rate_per_frame=1.0),
            seed=9100 + seed,
        )
        curve = CurveAccumulator(*without_velocities(dataset, detections), "car", [1.0]).curve(cfg)
        for pt in curve:
            assert (pt.p_r, pt.r_s) == (pt.precision, pt.recall)
        assert average_precision(curve, True) == average_precision(curve, False)
        assert devkit_average_precision(curve, True) == devkit_average_precision(curve, False)
    _passed("unit-weight reduction (20 seeded datasets)")


def test_clamp_property_randomized():
    rng = SplitMix64(79)
    for _ in range(10_000):
        counts = WeightedCounts(
            sum_tp_gt=rng.uniform() * 1e3,
            sum_tp_pred=rng.uniform() * 1e3,
            sum_fp_pred=rng.uniform() * 1e3,
            sum_fn_gt=rng.uniform() * 1e3,
            n_tp=int(rng.uniform() * 100),
            n_fp=int(rng.uniform() * 100),
            n_fn=int(rng.uniform() * 100),
        )
        p_r, r_s = weighted_pr(counts)
        assert 0.0 <= p_r <= 1.0
        assert 0.0 <= r_s <= 1.0
    _passed("clamp property (10^4 random weighted counts)")


def test_ap_hand_curve_exact():
    curve = [
        CurvePoint(0.9, 1.0, 0.2, 1.0, 0.2),
        CurvePoint(0.5, 0.8, 0.5, 0.8, 0.5),
        CurvePoint(0.1, 0.5, 1.0, 0.5, 1.0),
    ]
    assert average_precision(curve) == 0.69
    assert average_precision([CurvePoint(1.0, 1.0, 1.0, 1.0, 1.0)]) == 1.0
    _passed("AP hand curve (0.69 exact; perfect detector 1.0)")


def test_ranking_divergence_demonstration():
    started = time.monotonic()
    cfg = CriticalityConfig(20.0, 20.0, 8.0)
    limit = 1.0
    dataset, dets_a, dets_b = divergence_scenario()

    def scores(dets):
        curve = CurveAccumulator(dataset, dets, "car", [limit]).curve(cfg)
        return average_precision(curve, False), average_precision(curve, True)

    ap_a, ap_crit_a = scores(dets_a)
    ap_b, ap_crit_b = scores(dets_b)
    assert ap_b > ap_a, "detector B must win on raw counts"
    assert ap_crit_a > ap_crit_b, "detector A must win on criticality weighting"
    # Deterministic: a second evaluation reproduces the same numbers.
    assert (ap_a, ap_crit_a) == scores(dets_a)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed(
        "ranking divergence (AP: B>A "
        f"{ap_b:.4f}>{ap_a:.4f}; AP_crit: A>B {ap_crit_a:.4f}>{ap_crit_b:.4f}; "
        f"{elapsed:.1f}s)"
    )


# SHA-256 of sweep.csv and rankings.json for this corpus and the default grid,
# recorded before the batched reweighting kernel replaced the per-config path.
SWEEP_CSV_SHA256 = "6b334ff02b93f23fef60ec628590bee1950f32b7ae560a9cad57867009eb59b7"
RANKINGS_SHA256 = "731ab9bde9272708b530e0cc6f66e48f65a0dde7019ddd451a66fd4f51274a93"


def test_sweep_determinism_across_runs(tmp_path):
    dataset, detectors = sweep_dataset_and_detectors()
    assert len(dataset.frames) == 200
    grid = default_grid()
    outputs = []
    for run in (1, 2):
        started = time.monotonic()
        rows = evaluate_sweep(dataset, detectors, grid, [0.5, 1.0, 2.0, 4.0], "car")
        elapsed = time.monotonic() - started
        assert elapsed < 300.0
        csv_path = tmp_path / f"sweep_{run}.csv"
        json_path = tmp_path / f"rankings_{run}.json"
        write_sweep_csv(rows, csv_path)
        dump_json(rankings_report(rows, [0.5, 1.0, 2.0, 4.0]), json_path)
        outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert hashlib.sha256(outputs[0][0]).hexdigest() == SWEEP_CSV_SHA256
    assert hashlib.sha256(outputs[0][1]).hexdigest() == RANKINGS_SHA256
    assert len(rows) == 2 * 4 * 1500
    _passed("sweep determinism (1500 configs x 2 detectors, 2 runs, golden digests)")


# SHA-256 of every file `criteval evaluate` writes for this corpus at (20, 20, 8),
# recorded while report.json was still written by json.dump and the curve
# CSVs by csv.writer.
EVALUATE_SHA256 = {
    "farblind": {
        "curve_car_l0.5.csv": "9560b04c8ba6d3917725dd8f55d5c0de7dc965c02c63667d4dea4abc82103f8b",
        "curve_car_l1.csv": "b227eff701deee6cabf7e1e845a819401564f3fa866e853976ca78583dae3833",
        "curve_car_l2.csv": "c645f4b56461c47f69a86c9c73aa269292b2416897f3ac2cd71556108bebb0dd",
        "curve_car_l4.csv": "081c9a7bfe391f13d3989f3280f8c099b7ab717195adf471332429fa2d8f4b64",
        "report.json": "6e91e105bd4206633edd8a30af69428a2b97573800046ecee752e0d1147aeffb",
    },
    "nearblind": {
        "curve_car_l0.5.csv": "41b3aea694a47eca715b5dcb0482f6ed7ee890032e3d96b7ba71bc2daf21db66",
        "curve_car_l1.csv": "52bb2b3d3cac42e44b7b7753ecbfc53e927413ddc514bf4a771041e637fff567",
        "curve_car_l2.csv": "6b61cb6410b91a2f005150b406da899942e901a40290c9049233a1d666370cd8",
        "curve_car_l4.csv": "6b61cb6410b91a2f005150b406da899942e901a40290c9049233a1d666370cd8",
        "report.json": "d3df17db35d6b9ce99fa8518b156edb15b70698df942c29e76c490b319855782",
    },
}


def test_evaluate_golden_digests(tmp_path):
    dataset, detectors = sweep_dataset_and_detectors()
    gt = tmp_path / "gt.json"
    dump_json(dataset_to_dict(dataset), gt)
    for name, detections in detectors.items():
        pred = tmp_path / f"{name}.json"
        dump_json(detections_to_dict(detections), pred)
        out = tmp_path / f"out_{name}"
        assert main(["evaluate", "--gt", str(gt), "--pred", str(pred), "--dmax", "20",
                     "--rmax", "20", "--tmax", "8", "--out", str(out)]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == EVALUATE_SHA256[name]
    _passed("evaluate golden digests (report.json + 4 curve CSVs x 2 detectors)")


def test_birdview_snapshot_and_label_consistency():
    dataset = load_ground_truth(DATA / "headon_gt.json")
    detections = load_detections(DATA / "headon_pred.json")
    cfg = CriticalityConfig(30.0, 20.0, 8.0)
    frame = dataset.frame("f0")
    svg = render_birdview(frame, detections, cfg, "kappa")
    golden = (DATA / "birdview_golden_kappa.svg").read_text()
    assert svg == golden, "SVG must match the committed golden byte for byte"
    labels = re.findall(r">([01]\.\d{2})<", svg)
    expected = [
        f"{criticality_components(frame.ego, s, cfg).kappa:.2f}"
        for s in list(frame.ground_truth) + [d.state for d in detections]
    ]
    assert labels == expected, "labels must equal independently computed weights"
    _passed("bird-view snapshot (byte-identical; labels re-derivable)")


# --- optional integration against converted nuScenes data ------------------

NUSCENES_DIR = os.environ.get("CRITEVAL_NUSCENES_DIR")

# (distance limit, caps, {detector: published ap_crit})
TABLE2 = [
    (0.5, (20.0, 20.0, 8.0), {
        "FCOS": 0.1995, "PGD": 0.2711, "SEC": 0.7534, "FPN": 0.7618,
        "REG400": 0.7616, "SSN": 0.7717, "REGSEC": 0.7773, "SSNREG": 0.7903,
        "REG1.6": 0.7895,
    }),
    (1.0, (20.0, 25.0, 10.0), {
        "FCOS": 0.4857, "PGD": 0.5658, "SEC": 0.8486, "FPN": 0.8631,
        "SSN": 0.8628, "REGSEC": 0.8728, "REG400": 0.8703, "SSNREG": 0.8806,
        "REG1.6": 0.8769,
    }),
    (2.0, (10.0, 35.0, 8.0), {
        "FCOS": 0.7061, "PGD": 0.7382, "SEC": 0.8611, "FPN": 0.8748,
        "SSN": 0.8691, "REGSEC": 0.8838, "REG400": 0.8839, "SSNREG": 0.8912,
        "REG1.6": 0.8837,
    }),
    (4.0, (20.0, 25.0, 4.0), {
        "FCOS": 0.8695, "PGD": 0.8860, "SEC": 0.9057, "FPN": 0.9202,
        "REGSEC": 0.9205, "SSN": 0.9200, "REG400": 0.9267, "SSNREG": 0.9293,
        "REG1.6": 0.9264,
    }),
]


@pytest.mark.skipif(
    not NUSCENES_DIR,
    reason="CRITEVAL_NUSCENES_DIR not set; converted nuScenes data unavailable",
)
def test_nuscenes_published_table_reproduction():
    base = Path(NUSCENES_DIR)
    dataset = load_ground_truth(base / "gt.json")
    detectors = {name: load_detections(base / f"{name}.json") for name in TABLE2[0][2]}
    results = {}
    for limit, caps, published in TABLE2:
        cfg = CriticalityConfig(*caps)
        for name, expected in published.items():
            (res,) = evaluate_detector(dataset, detectors[name], "car", [limit], cfg,
                                       ap_style="devkit").results
            results[(limit, name)] = (res.ap, res.ap_crit)
            assert res.ap_crit == pytest.approx(expected, abs=0.005), (
                f"{name} at l={limit} caps={caps}"
            )
    # Bolded swaps at l=0.5, caps (20, 20, 8): the weighted ranking flips
    # FPN above REG400 and SSNREG above REG1.6 despite lower classic AP.
    assert results[(0.5, "FPN")][0] < results[(0.5, "REG400")][0]
    assert results[(0.5, "FPN")][1] > results[(0.5, "REG400")][1]
    assert results[(0.5, "SSNREG")][0] < results[(0.5, "REG1.6")][0]
    assert results[(0.5, "SSNREG")][1] > results[(0.5, "REG1.6")][1]
    _passed("nuScenes published-table reproduction")


# --- the paper's experiment on a synthetic corpus --------------------------

# SHA-256 of the outputs of the sweep below. Swaps depend on the spec's seed: with
# the profiles fixed, both assertions held for 6 of the seeds 0-9 (see CHANGES.md).
TABLE2_SWEEP_CSV_SHA256 = "44be93d44b3e24591a36a254d58496fc936f97e5e9b25d57a922fdaf8008ebc6"
TABLE2_RANKINGS_SHA256 = "bada6757a673113bd1155f1ebe5cfaa103cd7a44790f3f72189c5d560f5ee94d"


def test_synthetic_table2_rankings_diverge(tmp_path):
    """Nine generated detectors swept over Table 2's caps and limits: at each of Table 2's cells
    the AP and AP_crit orders differ, and at l=0.5, caps (20, 20, 8), some detector has the
    lower AP and the higher AP_crit of a pair."""
    started = time.monotonic()
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["generate", "--spec", str(DATA / "table2_synthetic_spec.json"),
                 "--out", str(data)]) == 0
    preds = [f"--pred={p}" for p in sorted(data.glob("*.json")) if p.name != "gt.json"]
    assert len(preds) == 9
    assert main(["sweep", "--gt", str(data / "gt.json"), *preds,
                 "--grid", str(DATA / "table2_grid.json"), "--dist-limits", "0.5,1,2,4",
                 "--ap-style", "devkit", "--out", str(out)]) == 0
    entries = {(e["l"], e["d_max"], e["r_max"], e["t_max"]): e
               for e in json.loads((out / "rankings.json").read_text())["per_config"]}
    assert len(entries) == 4 * 18
    for limit, caps, _ in TABLE2:
        assert entries[(limit, *caps)]["n_moved"] > 0, (limit, caps)
    cell = ranking_cells(read_sweep_csv(out / "sweep.csv"))[(0.5, 20.0, 20.0, 8.0)]
    swaps = [(a, b) for a in cell for b in cell
             if cell[a].ap < cell[b].ap and cell[a].ap_crit > cell[b].ap_crit]
    assert swaps
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == TABLE2_SWEEP_CSV_SHA256
    assert (hashlib.sha256((out / "rankings.json").read_bytes()).hexdigest()
            == TABLE2_RANKINGS_SHA256)
    elapsed = time.monotonic() - started
    _passed(f"synthetic Table 2 ({len(swaps)} swapped pair(s) at l=0.5, caps (20, 20, 8); "
            f"{elapsed:.1f}s)")
