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
    plan = specsense.TrialPlan(n_trials=1, mode=specsense.ThresholdMode.STATIC, master_seed=9)
    h1, h0, _ = specsense.synthesize_pair(plan, 0)
    decision, estimate = specsense.sense_once(plan, specsense.Hypothesis.H0)
    assert estimate is None
    assert decision.statistic == specsense.energy_statistic(h0[: plan.n])
    default, _ = specsense.sense_once(plan)
    assert default == specsense.sense_once(plan, specsense.Hypothesis.H1)[0]
    assert default.statistic == specsense.energy_statistic(h1[: plan.n])
