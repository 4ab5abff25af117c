"""Tests of the package's public surface: names, their homes, sense_once."""
import pytest

import specsense
from specsense import detector, harness, noise_estimator, signal_model

_MODULES = (detector, harness, noise_estimator, signal_model)


def test_package_names_are_the_modules_names_joined():
    joined = [name for module in _MODULES for name in module.__all__]
    assert specsense.__all__ == joined
    assert len(set(joined)) == len(joined)


@pytest.mark.parametrize("module", _MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_is_its_home_modules_object(module):
    # perfbench's tracer rebinds a name wherever it is bound to the very
    # object of its home module.
    for name in module.__all__:
        assert getattr(specsense, name) is getattr(module, name), name


def test_failure_guard_error_is_exported():
    from specsense import FailureGuardError

    assert FailureGuardError is harness.FailureGuardError


def test_sense_once_senses_the_hypothesis_it_is_given():
    for mode in specsense.ThresholdMode:
        plan = specsense.TrialPlan(n_trials=1, mode=mode, master_seed=9, sigma_nominal2=1.7,
                                   target_pfa=0.03)
        h1, h0, _ = specsense.synthesize_pair(plan, 0)
        for hypothesis, stream in ((specsense.Hypothesis.H0, h0), (specsense.Hypothesis.H1, h1)):
            decision, estimate = specsense.sense_once(plan, hypothesis)
            assert decision.statistic == specsense.energy_statistic(stream[: plan.n])
            if mode is specsense.ThresholdMode.STATIC:
                assert estimate is None
                threshold = specsense.static_threshold(plan.sigma_nominal2, plan.target_pfa,
                                                       plan.n)
            else:
                assert estimate == specsense.estimate_noise(
                    specsense.frame(stream, plan.l, plan.n), plan.m_grid)
                threshold = specsense.dynamic_threshold(estimate.sigma_hat2, plan.target_pfa,
                                                        plan.n)
            # To the bit, and decided as decide() decides.
            assert decision == specsense.decide(decision.statistic, threshold)
        default, _ = specsense.sense_once(plan)
        assert default == specsense.sense_once(plan, specsense.Hypothesis.H1)[0]
