"""Blind-threshold spectrum sensing: energy detection with noise estimation.

The package provides a complex-baseband signal model, an energy detector
with static and dynamically calibrated thresholds, a blind noise-power
estimator built on eigenvalue model-order selection and spectral-law
fitting, and a reproducible Monte Carlo harness with a command line
front end.  Its public names are those of the four modules below, each
declared once, in its module's ``__all__``.
"""
from . import detector, harness, noise_estimator, signal_model
from .detector import *  # noqa: F403
from .harness import *  # noqa: F403
from .noise_estimator import *  # noqa: F403
from .signal_model import *  # noqa: F403

__all__ = detector.__all__ + harness.__all__ + noise_estimator.__all__ + signal_model.__all__

__version__ = "0.1.0"
