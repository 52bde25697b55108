"""Ingestion, validation, serialization round-trips and the evaluation scope."""

import copy
import itertools
import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criteval import model
from criteval.criticality import CriticalityConfig
from criteval.metrics import CurveAccumulator
from criteval.model import (
    Dataset,
    Detection,
    DetectionTable,
    IngestError,
    Vec2,
    dataset_from_dict,
    dataset_to_dict,
    detections_from_dict,
    detections_to_dict,
    ingest_summary,
    load_detections,
    load_ground_truth,
)
from criteval.synthgen import ErrorModel, corrupt, gen_dataset

from helpers import make_ego, make_frame, make_state, random_scenario_spec

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


def test_detection_built_in_code_checks_its_confidence():
    with pytest.raises(ValueError) as caught:
        Detection("f0", make_state(), 1.5)
    assert str(caught.value) == "confidence must be in [0, 1], got 1.5"


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
    assert [d.state.center.x for d in detections_from_dict(doc)] == [1.0, 2.0]


def test_ingest_summary_reports_unknown_frames():
    dataset = dataset_from_dict(MINIMAL_GT)
    dets = [Detection("ghost", make_state(), 0.5), Detection("f0", make_state(), 0.5)]
    summary = ingest_summary(dataset, dets)
    assert summary["unknown_frame_ids"] == ["ghost"]
    assert summary["n_detections"] == 2
    assert summary["n_gt_objects"] == 1


def scope(frames, dets, class_name="car", max_range=50.0):
    return CurveAccumulator(Dataset(frames=list(frames)), dets, class_name, [1.0], max_range)


@pytest.mark.parametrize("distance,kept", [(49.9, True), (50.0, True), (50.1, False)])
def test_eval_range_boundaries(distance, kept):
    frame = make_frame(objects=[make_state(center=(distance, 0.0))])
    det = Detection("f0", make_state(object_id="d", center=(0.0, distance)), 0.9)
    acc = scope([frame], [det])
    assert acc.n_gt == int(kept)
    assert len(acc._conf) == int(kept)


def test_eval_range_is_centered_on_ego():
    ego = make_ego(center=(100.0, 0.0))
    frame = make_frame(ego=ego, objects=[make_state(object_id="near", center=(140.0, 0.0)),
                                         make_state(object_id="origin", center=(0.0, 0.0))])
    dets = [Detection("f0", make_state(object_id="d1", center=(60.0, 0.0)), 0.9),
            Detection("f0", make_state(object_id="d2", center=(0.0, 0.0)), 0.8)]
    acc = scope([frame], dets)
    assert acc.n_gt == 1
    assert acc._conf.tolist() == [0.9]


@pytest.mark.parametrize("frames", [[], [make_frame()]], ids=["no-frames", "one-frame"])
@pytest.mark.parametrize(
    "kwargs, message",
    [({"max_range": v}, f"max_range must be positive and finite, got {v!r}")
     for v in (0.0, -1.0, math.inf, math.nan)] + [({"class_name": ""}, "class_name must be nonempty")],
)
def test_bad_range_or_class_is_rejected_with_or_without_frames(frames, kwargs, message):
    with pytest.raises(ValueError, match=message):
        scope(frames, [], **kwargs)


def test_class_selection():
    frame = make_frame(
        objects=[
            make_state(object_id="c1", class_name="car"),
            make_state(object_id="p1", class_name="pedestrian"),
            make_state(object_id="c2", class_name="car"),
        ]
    )
    dets = [
        Detection("f0", make_state(object_id="d1", class_name="car"), 0.9),
        Detection("f0", make_state(object_id="d2", class_name="pedestrian"), 0.8),
    ]
    car = scope([frame], dets, "car")
    assert (car.n_gt, car._conf.tolist()) == (2, [0.9])
    pedestrian = scope([frame], dets, "pedestrian")
    assert (pedestrian.n_gt, pedestrian._conf.tolist()) == (1, [0.8])
    bicycle = scope([frame], dets, "bicycle")
    assert (bicycle.n_gt, len(bicycle._conf)) == (0, 0)


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
    detections = detections_from_dict(det_doc)
    curves = [CurveAccumulator(dataset_from_dict(d), detections, "car", [2.0]).curve(cfg)
              for d in (doc, perturbed)]
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


def test_detection_table_builds_each_detection_on_demand(tmp_path):
    dataset = gen_dataset(random_scenario_spec(seed=4, n_frames=3))
    doc = detections_to_dict(corrupt(dataset, ErrorModel(fp_rate_per_frame=2.0), seed=5))
    want = detections_from_dict(doc)
    path = tmp_path / "pred.json"
    path.write_text(json.dumps(doc))
    table = load_detections(path)
    assert model._columns(doc) is not None and len(table) == len(want) > 3
    assert repr(list(table)) == repr(want)
    assert [repr(table[i]) for i in (0, 2, -1)] == [repr(want[i]) for i in (0, 2, -1)]
    assert repr(table[1:-1:2]) == repr(want[1:-1:2])
    frame = want[-1].frame_id
    assert repr(table.in_frame(frame)) == repr([d for d in want if d.frame_id == frame])
    assert table.in_frame("nope") == []
    with pytest.raises(IndexError):
        table[len(table)]
    with pytest.raises(ValueError):
        table.x[0] = 1.0
    adapted = DetectionTable.of(want)
    assert DetectionTable.of(adapted) is adapted and repr(list(adapted)) == repr(want)
    for column in ("offsets", "class_index", "x", "y", "vx", "vy", "velocity_known", "width",
                   "length", "yaw", "confidence"):
        assert np.array_equal(getattr(adapted, column), getattr(table, column), equal_nan=True)
    assert (adapted.frame_ids, adapted.classes) == (table.frame_ids, table.classes)
    # An integer is valid but no float: the file is read object by object.
    doc["results"][want[0].frame_id][0]["yaw"] = 0
    path.write_text(json.dumps(doc))
    assert model._columns(doc) is None
    assert repr(list(load_detections(path))) == repr(detections_from_dict(doc))


@pytest.mark.parametrize("loader", ["columns", "objects"])
def test_table_keeps_read_only_columns_across_a_pipe(loader):
    """A table pickled as a worker sends it loads back equal, with every column read-only."""
    dataset = gen_dataset(random_scenario_spec(seed=4, n_frames=3))
    doc = detections_to_dict(corrupt(dataset, ErrorModel(fp_rate_per_frame=2.0), seed=5))
    for entries in doc["results"].values():
        entries[0]["velocity"] = None
    table = (model._columns(doc) if loader == "columns"
             else DetectionTable.of(detections_from_dict(doc)))
    assert table is not None and np.isnan(table.vx).any() and len(table) > 3
    loaded = pickle.loads(pickle.dumps(table, pickle.HIGHEST_PROTOCOL))
    assert (loaded.frame_ids, loaded.classes) == (table.frame_ids, table.classes)
    for column in ("offsets", "class_index", "x", "y", "vx", "vy", "velocity_known", "width",
                   "length", "yaw", "confidence"):
        value = getattr(loaded, column)
        assert value.dtype == getattr(table, column).dtype
        assert np.array_equal(value, getattr(table, column), equal_nan=True), column
        assert not value.flags.writeable, column


# Valid results documents, then values a results file may hold in any place.
_FLOAT = st.sampled_from([0.0, -0.0, 0.5, 1.0, -3.25, 1e-300, 1e300]) | st.floats(-40.0, 40.0)
_PAIR = st.lists(_FLOAT, min_size=2, max_size=2)
_ENTRY = st.fixed_dictionaries({
    "class": st.sampled_from(["car", "pedestrian"]),
    "center": _PAIR,
    "velocity": st.none() | _PAIR,
    "size": st.lists(st.sampled_from([0.5, 2.0, 4.5]), min_size=2, max_size=2),
    "yaw": _FLOAT,
    "confidence": st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0),
})
# For a field or component: a float out of range, or no float at all.
ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, -2.0, 0.5, 1.5]
ODD_OTHERS = [None, True, False, 0, 1, -1, 10**400, -10**400, "", "car", "1.0", [], [1.0],
              [1.0, 2.0], [1.0, 2.0, 3.0], [1.0, math.nan], {}, {"x": 1.0}]
# For an entry, a frame's list or the results map.
SHAPES = [None, 0, 1.5, "", "car", [], [{}], [None], {}, {"x": 1.0}]
_ODD = st.sampled_from(ODD_FLOATS) | st.sampled_from(ODD_OTHERS)
_SHAPE = st.sampled_from(SHAPES)
_MUTATIONS = ["drop", "field", "component", "extend", "entry", "frame", "results"]


@st.composite
def results_documents(draw):
    doc = {"results": draw(st.dictionaries(st.sampled_from(["f0", "f1", "f'2", ""]),
                                           st.lists(_ENTRY, max_size=3), max_size=3))}
    for kind in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3)):
        value = copy.deepcopy(draw(_SHAPE if kind in ("entry", "frame", "results") else _ODD))
        results = doc["results"] if isinstance(doc["results"], dict) else {}
        frames = [k for k, entries in results.items() if isinstance(entries, list)]
        entries = [(results[k], j) for k in frames for j, e in enumerate(results[k])
                   if isinstance(e, dict) and e]
        if kind == "results":
            doc["results"] = value
        elif kind == "frame" and frames:
            results[draw(st.sampled_from(frames))] = value
        elif entries:
            found, j = draw(st.sampled_from(entries))
            key = draw(st.sampled_from(sorted(found[j])))
            if kind == "entry":
                found[j] = value
            elif kind == "drop":
                del found[j][key]
            elif kind == "field" or not isinstance(found[j][key], list):
                found[j][key] = value
            elif kind == "extend" or not found[j][key]:
                found[j][key].append(value)
            else:
                found[j][key][draw(st.integers(0, len(found[j][key]) - 1))] = value
    return doc


def assert_loaders_agree(doc):
    """``load_detections`` gives the detections of ``detections_from_dict``, or its error.

    Its column loader accepts only what the scalar validator accepts.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pred.json"
        path.write_text(json.dumps(doc))
        try:
            want = repr(detections_from_dict(doc))
        except IngestError as error:
            assert model._columns(doc) is None
            with pytest.raises(IngestError) as info:
                load_detections(path)
            assert str(info.value) == str(error)
            return
        table = load_detections(path)
    assert repr(list(table)) == want
    runs = [frame_id for frame_id, _ in itertools.groupby(d.frame_id for d in table)]
    assert list(table.frame_ids) == runs


def test_column_loader_agrees_after_any_one_change():
    for value in ODD_FLOATS + ODD_OTHERS + SHAPES:
        edits = [lambda doc: doc.update(results=value),
                 lambda doc: doc["results"].update(f1=value),
                 lambda doc: doc["results"]["f1"].__setitem__(1, value)]
        for key, field in DETECTION.items():
            edits += [lambda doc, key=key: doc["results"]["f1"][1].__setitem__(key, value),
                      lambda doc, key=key: doc["results"]["f1"][1].pop(key)]
            if isinstance(field, list):
                edits += [lambda doc, key=key: doc["results"]["f1"][1][key].append(value)]
                edits += [lambda doc, key=key, i=i: doc["results"]["f1"][1][key].__setitem__(i, value)
                          for i in range(len(field))]
        for edit in edits:
            doc = {"results": {"f0": [copy.deepcopy(DETECTION)],
                               "f1": [{**DETECTION, "velocity": None}, copy.deepcopy(DETECTION)]}}
            edit(doc)
            assert_loaders_agree(copy.deepcopy(doc))


@given(doc=results_documents())
@settings(max_examples=500)
def test_column_loader_agrees_on_mutated_documents(doc):
    assert_loaders_agree(doc)


# Streamed records: dump_json lays a fill's rows out as json.dumps(indent=2, sort_keys=True) would.
_RECORD_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16]),
    st.integers(min_value=-2**70, max_value=2**70),
    st.text(max_size=4) | st.sampled_from(['q"uote', "back\\slash", "tab\tnl\n", "é車", "\0"]),
    st.booleans(),
    st.none(),
)
_RECORD_FIELDS = st.text(max_size=4) | st.sampled_from(["p_r", "r_s", 'q"', "é", "%s", "\0"])
# Lists and objects nest to any depth, so their lines are indented at every depth.
_NESTED_VALUES = st.recursive(
    _RECORD_VALUES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_RECORD_FIELDS, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def record_columns(draw, n):
    """A column of ``n`` values: a list of JSON values, or a float64 array made of runs of one
    repeated value each, ``0.0`` next to ``-0.0`` among them."""
    if draw(st.booleans()):
        return draw(st.lists(_NESTED_VALUES, min_size=n, max_size=n))
    run_of = np.cumsum(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=np.intp)
    values = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(values, min_size=n + 1, max_size=n + 1)))[run_of]


def _placeholders(value, key):
    """The dicts whose ``key`` is None, in the order json.dumps(sort_keys=True) writes them."""
    if isinstance(value, dict):
        for k in sorted(value):
            if k == key and value[k] is None:
                yield value
            else:
                yield from _placeholders(value[k], key)
    elif isinstance(value, list):
        for item in value:
            yield from _placeholders(item, key)


@st.composite
def record_documents(draw):
    """A document with a ``"key": null`` at the top level, in a list of objects, or both,
    and one table of (fields, columns) per placeholder, its fields in any order."""
    key = draw(st.sampled_from(["curve", "per_config", "rows"]))
    others = st.dictionaries(_RECORD_FIELDS.filter(lambda k: k != key), _RECORD_VALUES, max_size=3)
    top, nested = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    doc = draw(others)
    if top:
        doc[key] = None
    if nested:
        items = [{**draw(others), key: None}, draw(others)]
        doc[draw(st.sampled_from(["items", "results", "a"]))] = draw(st.permutations(items))
    tables = []
    for _ in range(top + nested):
        fields = draw(st.lists(_RECORD_FIELDS, min_size=1, max_size=4, unique=True))
        held = [c for _, columns in tables for c in columns]
        shared = held and draw(st.booleans())  # this fill holds a column object of the one before
        n = len(held[0]) if shared else draw(st.integers(min_value=0, max_value=9))
        columns = [draw(record_columns(n)) for _ in fields]
        if shared:
            columns[draw(st.integers(0, len(columns) - 1))] = held[draw(st.integers(0, len(held) - 1))]
        tables.append((fields, columns))
    return key, doc, tables


@given(document=record_documents(), chunk_rows=st.integers(min_value=1, max_value=4))
@settings(max_examples=300, deadline=None)
def test_streamed_records_equal_json_dumps(document, chunk_rows):
    """Rows cross chunk boundaries; a table of no rows is an empty list."""
    key, doc, tables = document
    fills = [dict(zip(fields, columns)) for fields, columns in tables]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        saved, model._CHUNK_ROWS = model._CHUNK_ROWS, chunk_rows
        try:
            model.dump_json(doc, path, key, fills)
        finally:
            model._CHUNK_ROWS = saved
        written = path.read_bytes()
    placed = copy.deepcopy(doc)
    slots = list(_placeholders(placed, key))
    assert len(slots) == len(tables)
    for slot, (fields, columns) in zip(slots, tables):
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        slot[key] = [dict(zip(fields, row)) for row in zip(*values)]
    assert written == (json.dumps(placed, indent=2, sort_keys=True) + "\n").encode()
