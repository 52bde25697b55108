"""Criticality-weighted evaluation of object detections for driving tasks.

The package root holds exactly the names that the README's Library example
imports from it; every other name, such as ``metrics.ap_from_arrays``, is
imported from its submodule.
"""

from .criticality import CriticalityConfig, criticality_components
from .metrics import evaluate_detector
from .model import load_detections, load_ground_truth

__version__ = "0.1.0"

__all__ = [
    "CriticalityConfig",
    "criticality_components",
    "evaluate_detector",
    "load_detections",
    "load_ground_truth",
]
