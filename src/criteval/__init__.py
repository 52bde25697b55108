"""Criticality-weighted evaluation of object detections for driving tasks.

The package root holds the names of the README's Library example; every
other name is imported from its submodule.
"""

from .criticality import CriticalityConfig, criticality_components
from .metrics import average_precision, build_curve, evaluate_detector
from .model import load_detections, load_ground_truth

__version__ = "0.1.0"

__all__ = [
    "CriticalityConfig",
    "average_precision",
    "build_curve",
    "criticality_components",
    "evaluate_detector",
    "load_detections",
    "load_ground_truth",
]
