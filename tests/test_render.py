"""Bird-view SVG rendering."""

import dataclasses
import re
from pathlib import Path
from xml.dom import minidom

import pytest

from criteval.cli import main
from criteval.criticality import CriticalityConfig, criticality_components
from criteval.model import Dataset, dataset_to_dict, dump_json, load_detections, load_ground_truth
from criteval.render import render_birdview

DATA = Path(__file__).parent / "data"
CFG = CriticalityConfig(30.0, 20.0, 8.0)


@pytest.fixture()
def headon():
    dataset = load_ground_truth(DATA / "headon_gt.json")
    detections = load_detections(DATA / "headon_pred.json")
    return dataset.frame("f0"), detections


def test_same_inputs_same_bytes(headon):
    frame, detections = headon
    assert render_birdview(frame, detections, CFG) == render_birdview(frame, detections, CFG)


def test_labels_match_direct_weight_computation(headon):
    frame, detections = headon
    for weight in ("kappa", "kappa_d", "kappa_r", "kappa_t"):
        svg = render_birdview(frame, detections, CFG, weight)
        labels = re.findall(r">([01]\.\d{2})<", svg)
        expected = [
            f"{getattr(criticality_components(frame.ego, s, CFG), weight):.2f}"
            for s in list(frame.ground_truth) + [d.state for d in detections]
        ]
        assert labels == expected


def test_headon_object_labeled_one(headon):
    frame, detections = headon
    svg = render_birdview(frame, [], CFG, "kappa")
    assert ">1.00<" in svg  # the approaching object
    assert ">0.00<" in svg  # the object at exactly the distance cap


def test_stationary_relative_object_has_zero_time_weight(headon):
    frame, _ = headon
    svg = render_birdview(frame, [], CFG, "kappa_t")
    labels = re.findall(r">([01]\.\d{2})<", svg)
    assert labels[1] == "0.00"  # zero relative velocity corner case


def test_distance_weight_zero_at_cap(headon):
    frame, _ = headon
    svg = render_birdview(frame, [], CFG, "kappa_d")
    labels = re.findall(r">([01]\.\d{2})<", svg)
    assert labels[1] == "0.00"  # parked object sits exactly at the 30 m cap


def test_gt_green_pred_blue(headon):
    frame, detections = headon
    svg = render_birdview(frame, detections, CFG)
    assert svg.count('stroke="green"') == 2 * len(frame.ground_truth)
    assert svg.count('stroke="blue"') == 2 * len(detections)


def test_unknown_weight_rejected(headon):
    frame, detections = headon
    with pytest.raises(ValueError, match="weight"):
        render_birdview(frame, detections, CFG, "kappa_x")


def test_matches_committed_golden(headon):
    frame, detections = headon
    golden = (DATA / "birdview_golden_kappa.svg").read_text()
    assert render_birdview(frame, detections, CFG, "kappa") == golden


# Frame ids and the header text they show. What XML 1.0 cannot hold shows as its backslash escape.
FRAME_IDS = [("f<0>&", "f<0>&"), ("a]]>b", "a]]>b"), ("'q\"", "'q\""),
             ("f\u0001", "f\\x01"), ("f\ud800", "f\\ud800"), ("f\ufffe", "f\\ufffe")]


@pytest.mark.parametrize("frame_id, shown", FRAME_IDS, ids=[frame_id for frame_id, _ in FRAME_IDS])
def test_frame_id_is_escaped_in_well_formed_svg(headon, tmp_path, frame_id, shown):
    frame, _ = headon
    gt = tmp_path / "gt.json"
    dump_json(dataset_to_dict(Dataset([dataclasses.replace(frame, frame_id=frame_id)])), gt)
    out = tmp_path / "view.svg"
    assert main(["birdview", "--gt", str(gt), "--frame", frame_id, "--dmax", "30", "--rmax", "20",
                 "--tmax", "8", "--out", str(out)]) == 0
    header = next(node for node in minidom.parse(str(out)).getElementsByTagName("text")
                  if node.getAttribute("font-size") == "11")
    assert header.firstChild.data.startswith(f"frame {shown} | weight kappa | ")
