"""Ingestion, validation, serialization round-trips and filtering views."""

import copy
import json
import math

import pytest

from criteval.criticality import CriticalityConfig
from criteval.metrics import build_curve
from criteval.model import (
    Dataset,
    Detection,
    IngestError,
    Vec2,
    dataset_from_dict,
    dataset_to_dict,
    detections_by_frame,
    detections_from_dict,
    detections_to_dict,
    filter_eval_range,
    ingest_summary,
    load_detections,
    load_ground_truth,
    select_class,
)

from helpers import make_ego, make_frame, make_state

MINIMAL_GT = {
    "frames": [
        {
            "frame_id": "f0",
            "timestamp": 0.0,
            "ego": {"center": [0.0, 0.0], "velocity": [0.0, 5.0]},
            "objects": [
                {
                    "id": "a",
                    "class": "car",
                    "center": [5.0, 5.0],
                    "velocity": [1.0, -1.0],
                    "size": [2.0, 4.5],
                    "yaw": 0.25,
                }
            ],
        }
    ],
    "meta": {"source": "unit-test"},
}


def test_minimal_ground_truth_round_trip():
    dataset = dataset_from_dict(MINIMAL_GT)
    assert len(dataset.frames) == 1
    frame = dataset.frames[0]
    assert frame.frame_id == "f0"
    assert len(frame.ground_truth) == 1
    obj = frame.ground_truth[0]
    assert obj.center == Vec2(5.0, 5.0)
    assert obj.velocity == Vec2(1.0, -1.0)
    assert dataset.meta == {"source": "unit-test"}
    # Serialization preserves every field bit-for-bit.
    round_tripped = dataset_from_dict(dataset_to_dict(dataset))
    assert round_tripped.frames == dataset.frames


def test_load_ground_truth_from_file(tmp_path):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(MINIMAL_GT))
    dataset = load_ground_truth(path)
    assert dataset.frames[0].ground_truth[0].object_id == "a"


def test_nan_velocity_loads_as_missing(tmp_path):
    path = tmp_path / "gt.json"
    path.write_text(
        '{"frames": [{"frame_id": "f0", "timestamp": 0.0, '
        '"ego": {"center": [0, 0], "velocity": [0, 0]}, '
        '"objects": [{"id": "a", "class": "car", "center": [1, 1], '
        '"velocity": [NaN, NaN], "size": [2, 4], "yaw": 0.0}]}]}'
    )
    dataset = load_ground_truth(path)
    assert dataset.frames[0].ground_truth[0].velocity is None


def test_partial_nonfinite_velocity_is_missing_as_a_whole():
    doc = copy.deepcopy(MINIMAL_GT)
    doc["frames"][0]["objects"][0]["velocity"] = [math.nan, 2.0]
    dataset = dataset_from_dict(doc)
    assert dataset.frames[0].ground_truth[0].velocity is None


def test_missing_velocity_round_trips_through_null():
    doc = copy.deepcopy(MINIMAL_GT)
    doc["frames"][0]["objects"][0]["velocity"] = None
    dataset = dataset_from_dict(doc)
    assert dataset.frames[0].ground_truth[0].velocity is None
    serialized = dataset_to_dict(dataset)
    assert serialized["frames"][0]["objects"][0]["velocity"] is None
    assert dataset_from_dict(serialized).frames[0].ground_truth[0].velocity is None


def test_duplicate_frame_id_rejected():
    doc = copy.deepcopy(MINIMAL_GT)
    doc["frames"].append(copy.deepcopy(doc["frames"][0]))
    with pytest.raises(IngestError, match="duplicate frame_id 'f0'"):
        dataset_from_dict(doc)


def test_duplicate_object_id_rejected():
    doc = copy.deepcopy(MINIMAL_GT)
    doc["frames"][0]["objects"].append(copy.deepcopy(doc["frames"][0]["objects"][0]))
    with pytest.raises(IngestError, match="duplicate object id"):
        dataset_from_dict(doc)


def test_nonpositive_size_rejected():
    doc = copy.deepcopy(MINIMAL_GT)
    doc["frames"][0]["objects"][0]["size"] = [0.0, 4.5]
    with pytest.raises(IngestError, match=r"objects\[0\].size"):
        dataset_from_dict(doc)


def test_missing_field_error_names_path():
    doc = copy.deepcopy(MINIMAL_GT)
    del doc["frames"][0]["objects"][0]["yaw"]
    with pytest.raises(IngestError, match=r"\$\.frames\[0\]\.objects\[0\]: missing required field 'yaw'"):
        dataset_from_dict(doc)


def test_ego_velocity_must_be_known():
    doc = copy.deepcopy(MINIMAL_GT)
    doc["frames"][0]["ego"]["velocity"] = None
    with pytest.raises(IngestError, match="ego velocity"):
        dataset_from_dict(doc)


def test_malformed_json_reports_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(IngestError, match="malformed JSON"):
        load_ground_truth(path)


def test_empty_results_map_gives_empty_list():
    assert detections_from_dict({"results": {}}) == []


def test_detection_round_trip():
    doc = {
        "results": {
            "f0": [
                {
                    "class": "car",
                    "center": [5.0, 5.0],
                    "velocity": [0.5, 0.25],
                    "size": [2.0, 4.5],
                    "yaw": 0.1,
                    "confidence": 0.73,
                }
            ]
        }
    }
    dets = detections_from_dict(doc)
    assert len(dets) == 1
    assert dets[0].confidence == 0.73
    assert dets[0].state.center == Vec2(5.0, 5.0)
    assert detections_from_dict(detections_to_dict(dets)) == dets


def test_confidence_out_of_bounds_rejected(tmp_path):
    doc = {
        "results": {
            "f0": [
                {
                    "class": "car",
                    "center": [5.0, 5.0],
                    "velocity": None,
                    "size": [2.0, 4.5],
                    "yaw": 0.0,
                    "confidence": 1.2,
                }
            ]
        }
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(IngestError, match=r"confidence: must be in \[0, 1\]"):
        load_detections(path)


def test_detection_order_preserved_within_frame():
    doc = {
        "results": {
            "f0": [
                {"class": "car", "center": [1.0, 0.0], "velocity": None,
                 "size": [2, 4], "yaw": 0.0, "confidence": 0.5},
                {"class": "car", "center": [2.0, 0.0], "velocity": None,
                 "size": [2, 4], "yaw": 0.0, "confidence": 0.5},
            ]
        }
    }
    grouped = detections_by_frame(detections_from_dict(doc))
    assert [d.state.center.x for d in grouped["f0"]] == [1.0, 2.0]


def test_ingest_summary_reports_unknown_frames():
    dataset = dataset_from_dict(MINIMAL_GT)
    dets = [Detection("ghost", make_state(), 0.5), Detection("f0", make_state(), 0.5)]
    summary = ingest_summary(dataset, dets)
    assert summary["unknown_frame_ids"] == ["ghost"]
    assert summary["n_detections"] == 2
    assert summary["n_gt_objects"] == 1


@pytest.mark.parametrize(
    "distance,kept", [(49.9, True), (50.0, True), (50.1, False)]
)
def test_filter_eval_range_boundaries(distance, kept):
    frame = make_frame(objects=[make_state(center=(distance, 0.0))])
    dets = [Detection("f0", make_state(object_id="d", center=(distance, 0.0)), 0.9)]
    out_frame, out_dets = filter_eval_range(frame, dets, 50.0)
    assert (len(out_frame.ground_truth) == 1) is kept
    assert (len(out_dets) == 1) is kept
    assert out_frame.ego == frame.ego


def test_filter_eval_range_requires_positive_range():
    with pytest.raises(ValueError):
        filter_eval_range(make_frame(), [], 0.0)


@pytest.mark.parametrize("max_range", [math.inf, math.nan])
def test_filter_eval_range_requires_finite_range(max_range):
    with pytest.raises(ValueError, match=f"max_range must be positive and finite, got {max_range!r}"):
        filter_eval_range(make_frame(), [], max_range)


def test_select_class_examples():
    frame = make_frame(
        objects=[
            make_state(object_id="c1", class_name="car"),
            make_state(object_id="p1", class_name="pedestrian"),
        ]
    )
    dets = [
        Detection("f0", make_state(object_id="d1", class_name="car"), 0.9),
        Detection("f0", make_state(object_id="d2", class_name="pedestrian"), 0.8),
    ]
    out_frame, out_dets = select_class(frame, dets, "car")
    assert [g.object_id for g in out_frame.ground_truth] == ["c1"]
    assert [d.state.object_id for d in out_dets] == ["d1"]

    empty_frame, empty_dets = select_class(frame, dets, "bicycle")
    assert empty_frame.ground_truth == [] and empty_dets == []

    all_car_frame = make_frame(objects=[make_state(object_id="c1")])
    same_frame, _ = select_class(all_car_frame, [], "car")
    assert same_frame.ground_truth == all_car_frame.ground_truth


def test_filter_idempotent_and_commutes_with_select_class():
    objects = [
        make_state(object_id=f"o{i}", class_name="car" if i % 2 else "truck",
                   center=(10.0 * i, 3.0 * i))
        for i in range(8)
    ]
    dets = [
        Detection("f0", make_state(object_id=f"d{i}", class_name="car",
                                   center=(7.0 * i, -2.0 * i)), 0.5)
        for i in range(8)
    ]
    frame = make_frame(objects=objects)

    once = filter_eval_range(frame, dets, 40.0)
    twice = filter_eval_range(once[0], once[1], 40.0)
    assert once == twice

    a = select_class(*filter_eval_range(frame, dets, 40.0), "car")
    b = filter_eval_range(*select_class(frame, dets, "car"), 40.0)
    assert a == b


def test_altitude_component_is_ignored(tmp_path):
    doc = copy.deepcopy(MINIMAL_GT)
    doc["frames"][0]["objects"][0]["center"] = [5.0, 5.0, 1.5]
    doc["frames"][0]["objects"][0]["velocity"] = [1.0, -1.0, 0.4]
    perturbed = copy.deepcopy(doc)
    perturbed["frames"][0]["objects"][0]["center"][2] = -9.0
    perturbed["frames"][0]["objects"][0]["velocity"][2] = 3.3

    det_doc = {
        "results": {
            "f0": [
                {"class": "car", "center": [5.2, 5.0, 2.0], "velocity": [1.0, -1.0, 1.0],
                 "size": [2.0, 4.5], "yaw": 0.0, "confidence": 0.9}
            ]
        }
    }
    cfg = CriticalityConfig(20.0, 20.0, 8.0)
    curves = [
        build_curve(dataset_from_dict(d), detections_from_dict(det_doc), "car", 2.0, cfg)
        for d in (doc, perturbed)
    ]
    assert curves[0] == curves[1]


def test_dataset_frame_lookup():
    dataset = dataset_from_dict(MINIMAL_GT)
    assert dataset.frame("f0").frame_id == "f0"
    with pytest.raises(KeyError):
        dataset.frame("nope")


DETECTION = {"class": "car", "center": [5.0, 5.0], "velocity": [0.5, 0.25],
             "size": [2.0, 4.5], "yaw": 0.1, "confidence": 0.73}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("center", ["1.5", 0.0], "$.results['f'][0].center[0]: expected a number, got '1.5'"),
        ("center", [1.5, True], "$.results['f'][0].center[1]: expected a number, got True"),
        ("size", [" 2 ", "4e0"], "$.results['f'][0].size[0]: expected a number, got ' 2 '"),
        ("yaw", "0", "$.results['f'][0].yaw: expected a number, got '0'"),
        ("yaw", False, "$.results['f'][0].yaw: expected a number, got False"),
        ("confidence", "0.5", "$.results['f'][0].confidence: expected a number, got '0.5'"),
        ("confidence", True, "$.results['f'][0].confidence: expected a number, got True"),
        ("velocity", ["nan", 1.0], "$.results['f'][0].velocity[0]: expected a number, got 'nan'"),
        ("velocity", [1.0, None], "$.results['f'][0].velocity[1]: expected a number, got None"),
        ("center", [10**400, 0.0], "$.results['f'][0].center[0]: expected a finite number, got inf"),
        ("confidence", -10**400, "$.results['f'][0].confidence: must be in [0, 1], got -inf"),
    ],
)
def test_detection_numbers_must_be_json_numbers(field, value, message):
    with pytest.raises(IngestError) as info:
        detections_from_dict({"results": {"f": [{**DETECTION, field: value}]}})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda fr: fr.update(timestamp="0"), "$.frames[0].timestamp: expected a number, got '0'"),
        (lambda fr: fr["ego"].update(velocity=[0.0, "5"]),
         "$.frames[0].ego.velocity[1]: expected a number, got '5'"),
        (lambda fr: fr["objects"][0].update(yaw=True),
         "$.frames[0].objects[0].yaw: expected a number, got True"),
    ],
)
def test_ground_truth_numbers_must_be_json_numbers(edit, message):
    doc = copy.deepcopy(MINIMAL_GT)
    edit(doc["frames"][0])
    with pytest.raises(IngestError) as info:
        dataset_from_dict(doc)
    assert str(info.value) == message


def test_huge_integer_velocity_loads_as_missing():
    doc = copy.deepcopy(MINIMAL_GT)
    doc["frames"][0]["objects"][0]["velocity"] = [10**400, 0]
    assert dataset_from_dict(doc).frames[0].ground_truth[0].velocity is None


@pytest.mark.parametrize("value", [None, 5, ""])
def test_class_must_be_a_nonempty_string(value):
    doc = copy.deepcopy(MINIMAL_GT)
    doc["frames"][0]["objects"][0]["class"] = value
    with pytest.raises(IngestError) as info:
        dataset_from_dict(doc)
    assert str(info.value) == f"$.frames[0].objects[0].class: expected a nonempty string, got {value!r}"
    with pytest.raises(IngestError) as info:
        detections_from_dict({"results": {"f0": [{**DETECTION, "class": value}]}})
    assert str(info.value) == f"$.results['f0'][0].class: expected a nonempty string, got {value!r}"


def test_detection_confidence_is_checked_before_class():
    entry = {**DETECTION, "class": None, "confidence": 1.5}
    with pytest.raises(IngestError) as info:
        detections_from_dict({"results": {"f0": [entry]}})
    assert str(info.value) == "$.results['f0'][0].confidence: must be in [0, 1], got 1.5"
