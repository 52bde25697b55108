"""Bird-view SVG rendering."""

import dataclasses
import re
from pathlib import Path
from xml.dom import minidom

import pytest

from criteval.criticality import CriticalityConfig, criticality_components
from criteval.model import load_detections, load_ground_truth
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


@pytest.mark.parametrize("frame_id", ["f<0>&", "a]]>b", "'q\""])
def test_frame_id_is_escaped_in_well_formed_svg(headon, frame_id):
    frame, detections = headon
    svg = render_birdview(dataclasses.replace(frame, frame_id=frame_id), detections, CFG)
    header = next(node for node in minidom.parseString(svg).getElementsByTagName("text")
                  if node.getAttribute("font-size") == "11")
    assert header.firstChild.data.startswith(f"frame {frame_id} | weight kappa | ")
