"""Criticality-weighted evaluation of object detections for driving tasks.

The package root holds exactly the names that the README's Library example
imports from it; every other name, such as ``metrics.ap_from_arrays``, is
imported from its submodule. ``metrics`` and ``model`` load on first use.
"""

from importlib import import_module

from .criticality import CriticalityConfig, criticality_components

__version__ = "0.1.0"

__all__ = [
    "CriticalityConfig",
    "criticality_components",
    "evaluate_detector",
    "load_detections",
    "load_ground_truth",
]
_HOMES = {"evaluate_detector": "metrics", "load_detections": "model", "load_ground_truth": "model",
          "matching": "matching", "metrics": "metrics", "model": "model"}


def __getattr__(name: str):  # PEP 562: ``import criteval`` loads no numpy, the first use does
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_HOMES[name]}", __name__)
    return module if name == _HOMES[name] else getattr(module, name)
