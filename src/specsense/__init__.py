"""Blind-threshold spectrum sensing: energy detection with noise estimation.

The package provides a complex-baseband signal model, an energy detector
with static and dynamically calibrated thresholds, a blind noise-power
estimator built on eigenvalue model-order selection and spectral-law
fitting, and a reproducible Monte Carlo harness with a command line
front end.
"""
from .detector import (
    SensingDecision,
    ThresholdMode,
    Verdict,
    closed_form_pd,
    closed_form_pfa,
    decide,
    dynamic_threshold,
    energy_statistic,
    q_function,
    q_inverse,
    static_threshold,
)
from .harness import (
    PointResult,
    SweepResult,
    TrialPlan,
    run_point,
    sense_once,
    sweep_pfa,
    sweep_snr,
    sweep_threshold_factor,
    synthesize_pair,
    write_results,
)
from .noise_estimator import (
    CovarianceMatrix,
    EigenSpectrum,
    EstimationFailure,
    NoiseEstimate,
    eigenvalues_hermitian,
    estimate_noise,
    estimate_noise_batch,
    goodness_of_fit,
    mdl_signal_count,
    mp_cdf,
    sample_covariance,
    sigma_bounds,
)
from .signal_model import (
    Hypothesis,
    SampleFrame,
    add_awgn,
    derive_seed,
    frame,
    generate_qpsk,
    snr_db,
)

__all__ = [
    "CovarianceMatrix",
    "EigenSpectrum",
    "EstimationFailure",
    "Hypothesis",
    "NoiseEstimate",
    "PointResult",
    "SampleFrame",
    "SensingDecision",
    "SweepResult",
    "ThresholdMode",
    "TrialPlan",
    "Verdict",
    "add_awgn",
    "closed_form_pd",
    "closed_form_pfa",
    "decide",
    "derive_seed",
    "dynamic_threshold",
    "eigenvalues_hermitian",
    "energy_statistic",
    "estimate_noise",
    "estimate_noise_batch",
    "frame",
    "generate_qpsk",
    "goodness_of_fit",
    "mdl_signal_count",
    "mp_cdf",
    "q_function",
    "q_inverse",
    "run_point",
    "sample_covariance",
    "sense_once",
    "sigma_bounds",
    "snr_db",
    "static_threshold",
    "sweep_pfa",
    "sweep_snr",
    "sweep_threshold_factor",
    "synthesize_pair",
    "write_results",
]

__version__ = "0.1.0"
