"""Self-tests of the benchmark's own code: span arithmetic, the tail rule,
wrapper restoration, and a tiny run of every workload in both modes."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import measure
import run
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_direct_children_and_reports_unattributed():
    tracer = tracing.Tracer(clock=_fake_clock([0, 1, 3, 4, 7, 10]))
    inner = tracer.wrap(tracing.Target("m", "inner", "noise_estimator"), lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap(tracing.Target("m", "outer", "harness"), body)
    outer()
    bd = tracing.breakdown(tracer.spans, wall=12.0)
    assert bd.calls == {"harness.outer": 1, "noise_estimator.inner": 2}
    assert bd.busy["harness.outer"] == 10
    assert bd.self_time["harness.outer"] == 10 - (3 - 1) - (7 - 4)
    assert bd.self_time["noise_estimator.inner"] == 5
    assert bd.layer_self["harness"] + bd.layer_self["noise_estimator"] + bd.unattributed == 12
    assert bd.unattributed == 2
    assert [s.parent for s in tracer.spans] == [None, 0, 0]


def test_nested_spans_of_one_layer_count_once_in_layer_busy():
    tracer = tracing.Tracer(clock=_fake_clock([0, 1, 2, 5]))
    inner = tracer.wrap(tracing.Target("m", "dynamic", "detector"), lambda: None)
    outer = tracer.wrap(tracing.Target("m", "static", "detector"), inner)
    outer()
    bd = tracing.breakdown(tracer.spans, wall=5.0)
    assert bd.layer_busy["detector"] == 5
    assert bd.layer_self["detector"] == 5
    assert bd.unattributed == 0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert measure.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    value, pct = measure.tail([float(v) for v in range(11, 0, -1)])
    assert value == 1.0 and pct == pytest.approx(100.0 / 11.0)
    value, pct = measure.tail([5.0] * 20 + [9.0] * 10)
    assert value == 5.0 and pct == pytest.approx(100.0 * 20 / 30)
    with pytest.raises(ValueError):
        measure.tail([1.0] * 10)


def test_unit_reference_is_mean_of_the_references_beside_it():
    assert measure.bracketed([2.0, 4.0, 3.0]) == [2.0, 3.0, 3.5]
    assert measure.scaled([1.0, 2.0], [2.0, 4.0], nominal=1.0) == [0.5, 0.5]


def test_wrappers_are_restored_even_when_the_body_raises():
    specsense = run.checkout_specsense()
    from specsense import harness, noise_estimator

    names = [(harness, "estimate_noise"), (noise_estimator, "eigenvalues_hermitian"),
             (specsense, "estimate_noise"), (harness, "derive_seed")]
    before = [getattr(m, a) for m, a in names]
    frm = specsense.frame(specsense.add_awgn(np.zeros(8 * 32, dtype=complex), 1.0, 5), 8, 32)
    tracer = tracing.Tracer()
    with pytest.raises(KeyError):
        with tracer.installed():
            assert all(getattr(m, a) is not b for (m, a), b in zip(names, before))
            specsense.estimate_noise(frm, 10)
            raise KeyError("leave the block")
    assert [getattr(m, a) for m, a in names] == before
    keys = [s.key for s in tracer.spans]
    assert keys[0] == "noise_estimator.estimate_noise"
    eig = tracer.of("noise_estimator.eigenvalues_hermitian")[0]
    assert eig.parent == 0 and eig.info is not None


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


TINY = {
    "dynamic_point": {"trials": 4, "n": 32, "l": 6, "m_grid": 10},
    "static_sweep": {"trials": 8, "factors": (1.0, 2.0), "snr_db": (-4.0, 0.0)},
    "estimate_frames": {"frames": 4, "l": 8, "n": 64, "m_grid": 20},
    "cli_sweep": {"n": 16, "l": 6, "m_grid": 5},
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_its_checks_and_reports_every_metric(name, trace):
    record = run.run_workload(name, seed=3, seconds=0.01, trace=trace, sizes=TINY[name])
    assert record["correct"], record["checks"]
    assert record["failed"] == 0 and record["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(record["metrics"]) == list(expected)
    if not trace:
        assert all(v > 0 for v in record["metrics"].values())
