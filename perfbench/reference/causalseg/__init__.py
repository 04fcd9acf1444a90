"""Causally reweighted nucleus segmentation on a minimal autodiff core."""

__version__ = "0.1.0"
