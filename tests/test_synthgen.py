"""Deterministic generation, corruption models, simulation oracle."""

import hashlib
import json
import math

import pytest

from criteval.cli import main
from criteval.criticality import CriticalityConfig, criticality_components
from criteval.metrics import CurveAccumulator
from criteval.model import (
    Vec2,
    dataset_from_dict,
    dataset_to_dict,
    detections_from_dict,
    detections_to_dict,
)
from criteval.synthgen import (
    ErrorModel,
    ScenarioObject,
    ScenarioSpec,
    SplitMix64,
    corrupt,
    error_model_from_dict,
    gen_dataset,
    scenario_from_dict,
)

from helpers import (
    brute_force_cpa,
    make_ego,
    make_state,
    perfect_detections,
    random_scenario_spec,
)


def test_splitmix64_is_deterministic_and_bounded():
    a, b = SplitMix64(42), SplitMix64(42)
    seq_a = [a.next_u64() for _ in range(64)]
    seq_b = [b.next_u64() for _ in range(64)]
    assert seq_a == seq_b
    assert SplitMix64(43).next_u64() != seq_a[0]
    rng = SplitMix64(7)
    values = [rng.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert len(set(values)) > 990


def test_splitmix64_regression_pins():
    # Frozen outputs of the documented update rule; a change in constants or
    # shifts breaks cross-run reproducibility of every committed scenario.
    rng = SplitMix64(0)
    assert [hex(rng.next_u64()) for _ in range(3)] == [
        "0xe220a8397b1dcdaf",
        "0x6e789e6aa1b965f4",
        "0x6c45d188009454f",
    ]


def test_poisson_zero_rate_and_mean():
    rng = SplitMix64(5)
    assert rng.poisson(0.0) == 0
    draws = [rng.poisson(2.5) for _ in range(2000)]
    assert abs(sum(draws) / len(draws) - 2.5) < 0.15


@pytest.mark.parametrize("rate, draws, next_u64", [
    (140.0, [147, 128, 140, 125, 136, 167, 147, 128], 8792850694271807797),
    (500.0, [487, 526, 450, 532, 509, 480, 488, 490], 2818434367198376936),
])
def test_poisson_up_to_one_chunk_keeps_its_draw_sequence(rate, draws, next_u64):
    # Frozen draws of the single-product rule; the state after them pins the
    # number of uniforms consumed, so generated files stay byte-identical.
    rng = SplitMix64(3)
    assert [rng.poisson(rate) for _ in range(8)] == draws
    assert rng.next_u64() == next_u64


def test_poisson_large_rate_does_not_saturate():
    # A single product of uniforms underflowed near 745 whatever the rate.
    rng = SplitMix64(3)
    n, rate = 200, 2000.0
    mean = sum(rng.poisson(rate) for _ in range(n)) / n
    assert abs(mean - rate) < 5.0 * math.sqrt(rate / n)
    with pytest.raises(ValueError, match="finite"):
        rng.poisson(math.inf)


def test_static_object_stays_put():
    spec = ScenarioSpec(
        n_frames=3,
        ego_start=Vec2(0.0, 0.0),
        ego_velocity=Vec2(1.0, 0.0),
        objects=[ScenarioObject(start=Vec2(5.0, 5.0), velocity=Vec2(0.0, 0.0))],
    )
    dataset = gen_dataset(spec)
    centers = {f.ground_truth[0].center for f in dataset.frames}
    assert centers == {Vec2(5.0, 5.0)}
    assert [f.timestamp for f in dataset.frames] == [0.0, 0.5, 1.0]


def test_constant_velocity_kinematics():
    spec = ScenarioSpec(
        n_frames=3,
        ego_start=Vec2(0.0, 0.0),
        ego_velocity=Vec2(0.0, 0.0),
        objects=[ScenarioObject(start=Vec2(10.0, 0.0), velocity=Vec2(-2.0, 0.0))],
    )
    dataset = gen_dataset(spec)
    assert dataset.frames[2].timestamp == 1.0
    assert dataset.frames[2].ground_truth[0].center == Vec2(8.0, 0.0)


def test_same_spec_gives_byte_identical_json():
    spec = random_scenario_spec(seed=31)
    a = json.dumps(dataset_to_dict(gen_dataset(spec)), sort_keys=True)
    b = json.dumps(dataset_to_dict(gen_dataset(spec)), sort_keys=True)
    assert a == b


def test_missing_velocity_object_serializes_to_null():
    spec = ScenarioSpec(
        n_frames=2,
        ego_start=Vec2(0.0, 0.0),
        ego_velocity=Vec2(1.0, 0.0),
        objects=[ScenarioObject(start=Vec2(5.0, 5.0), velocity=None)],
    )
    doc = dataset_to_dict(gen_dataset(spec))
    assert doc["frames"][0]["objects"][0]["velocity"] is None
    reloaded = dataset_from_dict(doc)
    assert reloaded.frames[0].ground_truth[0].velocity is None


def test_generator_output_round_trips_through_loaders():
    dataset = gen_dataset(random_scenario_spec(seed=8))
    assert dataset_from_dict(dataset_to_dict(dataset)).frames == dataset.frames
    detections = corrupt(
        dataset,
        ErrorModel(miss_prob_by_distance=0.2, center_noise_sigma=0.2,
                   velocity_noise_sigma=0.2, fp_rate_per_frame=0.5),
        seed=9,
    )
    assert detections_from_dict(detections_to_dict(detections)) == detections


def test_zero_error_model_gives_perfect_detector():
    cfg = CriticalityConfig(20.0, 20.0, 8.0)
    dataset = gen_dataset(random_scenario_spec(seed=13))
    # Detections identical to ground truth but with sampled confidences:
    # weighted precision is 1 at every threshold, recall side reaches 1.
    detections = corrupt(dataset, ErrorModel(), seed=1)
    curve = CurveAccumulator(dataset, detections, "car", [0.5]).curve(cfg)
    assert all(pt.p_r == 1.0 and pt.precision == 1.0 for pt in curve)
    last = curve[-1]
    assert (last.recall, last.r_s) == (1.0, 1.0)
    # With a constant unit confidence the curve collapses to one perfect point.
    sure = corrupt(dataset, ErrorModel(confidence_model={
        "true": {"mean": 1.0, "std": 0.0}, "false": {"mean": 0.3, "std": 0.1}}), seed=1)
    assert CurveAccumulator(dataset, sure, "car", [0.5]).curve(cfg) == [
        type(curve[0])(1.0, 1.0, 1.0, 1.0, 1.0)
    ]


def test_certain_miss_model_detects_nothing():
    dataset = gen_dataset(random_scenario_spec(seed=13))
    assert corrupt(dataset, ErrorModel(miss_prob_by_distance=1.0), seed=1) == []


def test_corrupt_is_deterministic_per_seed():
    dataset = gen_dataset(random_scenario_spec(seed=13))
    model = ErrorModel(miss_prob_by_distance=0.4, center_noise_sigma=0.5,
                       velocity_noise_sigma=0.5, fp_rate_per_frame=2.0)
    assert corrupt(dataset, model, seed=77) == corrupt(dataset, model, seed=77)
    assert corrupt(dataset, model, seed=77) != corrupt(dataset, model, seed=78)


def test_targeted_miss_of_high_weight_objects_lowers_weighted_recall():
    cfg = CriticalityConfig(20.0, 20.0, 8.0)
    dataset = gen_dataset(random_scenario_spec(seed=41, n_frames=6))
    detections = []
    dropped = 0
    frames = {f.frame_id: f for f in dataset.frames}
    for det in perfect_detections(dataset, 0.9):
        ego = frames[det.frame_id].ego
        if criticality_components(ego, det.state, cfg).kappa > 0.8:
            dropped += 1
            continue
        detections.append(det)
    assert dropped > 0
    curve = CurveAccumulator(dataset, detections, "car", [1.0]).curve(cfg)
    for pt in curve:
        assert pt.r_s < pt.recall


def test_miss_probability_steps():
    model = ErrorModel(miss_prob_by_distance=[(10.0, 0.0), (30.0, 0.5), (50.0, 0.9)])
    assert model.miss_probability(5.0) == 0.0
    assert model.miss_probability(10.0) == 0.0
    assert model.miss_probability(10.1) == 0.5
    assert model.miss_probability(45.0) == 0.9
    assert model.miss_probability(80.0) == 0.9


def test_brute_force_head_on():
    ego = make_ego()
    obj = make_state(center=(10.0, 0.0), velocity=(-2.0, 0.0))
    min_dist, t_min = brute_force_cpa(ego, obj, dt=1e-3, horizon=20.0)
    assert min_dist == pytest.approx(0.0, abs=1e-3)
    assert t_min == pytest.approx(5.0, abs=1e-2)


def test_brute_force_receding_object():
    ego = make_ego()
    obj = make_state(center=(10.0, 0.0), velocity=(2.0, 0.0))
    min_dist, t_min = brute_force_cpa(ego, obj, dt=1e-2, horizon=5.0)
    assert min_dist == 10.0 and t_min == 0.0


def test_brute_force_zero_relative_velocity():
    ego = make_ego(velocity=(1.0, 1.0))
    obj = make_state(center=(6.0, 8.0), velocity=(1.0, 1.0))
    min_dist, t_min = brute_force_cpa(ego, obj, dt=1e-2, horizon=2.0)
    assert min_dist == 10.0 and t_min == 0.0


def test_brute_force_validates_arguments():
    ego = make_ego()
    with pytest.raises(ValueError):
        brute_force_cpa(ego, make_state(), dt=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        brute_force_cpa(ego, make_state(velocity=None), dt=0.1, horizon=1.0)


def test_scenario_and_error_model_json_forms():
    spec = scenario_from_dict(
        {
            "n_frames": 2,
            "seed": 5,
            "ego": {"start": [0, 0], "velocity": [0, 2]},
            "objects": [
                {"start": [10, 0], "velocity": [-2, 0]},
                {"start": [5, 5], "velocity": None, "class": "truck"},
            ],
        }
    )
    assert spec.n_frames == 2 and spec.seed == 5
    assert spec.objects[1].velocity is None
    assert spec.objects[1].class_name == "truck"

    model = error_model_from_dict(
        {"miss_prob_by_distance": [[10, 0.1], [50, 0.5]], "fp_rate_per_frame": 0.5}
    )
    assert model.miss_probability(5.0) == 0.1
    with pytest.raises(ValueError):
        error_model_from_dict({"miss_prob_by_distance": 1.5})
    with pytest.raises(ValueError):
        error_model_from_dict({"center_noise_sigma": -1.0})


_GENERATE_SPEC = {
    "scenario": {
        "n_frames": 4,
        "seed": 23,
        "ego": {"start": [0, 0], "velocity": [1, 3]},
        "objects": [
            {"start": [10, 5], "velocity": [-2, 0.5]},
            {"start": [-6, 18], "velocity": None, "class": "truck", "size": [2.5, 7], "id": "big"},
            {"start": [25, -30], "velocity": [0, 4]},
        ],
    },
    "detectors": {
        "noisy": {"miss_prob_by_distance": [[15, 0.1], [40, 0.6]], "center_noise_sigma": 0.4,
                  "velocity_noise_sigma": 0.3, "fp_rate_per_frame": 1.5, "fp_radius": 30},
        "shy": {"miss_prob_by_distance": 0.3, "fp_rate_per_frame": 0.5,
                "confidence_model": {"true": {"mean": 0.7, "std": 0.3},
                                     "false": {"mean": 0.2, "std": 0.3}}},
    },
}


def test_generate_writes_pinned_bytes(tmp_path):
    """Pins every field ``criteval generate`` writes, ids, sizes and yaws included,
    which the evaluate golden digests cannot see."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_GENERATE_SPEC))
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "g").iterdir())}
    assert digests == {
        "gt.json": "e48b0417f981443eb316d636be37fd05b2c7e9584e5eb7bbb2ba828e7efa9507",
        "noisy.json": "8282e744afa64a6595c1e4aadf8685d1967659afd530c334c359154b84cdb5ff",
        "shy.json": "492ad8ea8f0904aab018de200a5bc70062f2be4b90a59d8f7ec96418dbc43828",
    }
