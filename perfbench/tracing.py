"""Span tracing at specsense's layer boundaries, from outside the package.

A traced run rebinds module-level names inside the specsense package, such
as ``harness.estimate_noise`` or ``noise_estimator.eigenvalues_hermitian``,
to wrappers that record one span per call, and restores every name on exit.
The package source is not touched.  Spans recorded inside forked worker
processes stay in those processes and are not seen here.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np


def _workers(args: tuple, kwargs: dict, _result: Any) -> int:
    return int(kwargs.get("workers", args[1] if len(args) > 1 else 1))


def _estimate(args: tuple, _kwargs: dict, est: Any) -> tuple[int, int, int, int, bool]:
    """(L, k_hat, grid size, argmin index, degenerate) of one estimate."""
    scores = est.fit_scores
    return (args[0].l, est.k_hat, len(scores), int(np.argmin(scores)), est.degenerate_grid)


def _eigs(args: tuple, _kwargs: dict, spectrum: Any) -> tuple[np.ndarray, tuple[float, ...]]:
    return args[0].entries, spectrum.values


@dataclass(frozen=True)
class Target:
    """A public function, by home module and name, and the layer it belongs to."""

    module: str
    attr: str
    layer: str
    capture: Callable[[tuple, dict, Any], Any] | None = None
    capture_limit: int | None = None  # bounds memory for captures that hold arrays

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.attr}"


# The write and chart steps live in harness and svg but are the CLI's output
# stage, so their spans count to the cli layer.
TARGETS = (
    Target("signal_model", "derive_seed", "signal_model"),
    Target("signal_model", "add_awgn", "signal_model"),
    Target("signal_model", "generate_qpsk", "signal_model"),
    Target("signal_model", "frame", "signal_model"),
    Target("noise_estimator", "estimate_noise", "noise_estimator", _estimate),
    Target("noise_estimator", "sample_covariance", "noise_estimator"),
    Target("noise_estimator", "eigenvalues_hermitian", "noise_estimator", _eigs, 2048),
    Target("noise_estimator", "mdl_signal_count", "noise_estimator"),
    Target("noise_estimator", "sigma_bounds", "noise_estimator"),
    Target("detector", "dynamic_threshold", "detector"),
    Target("detector", "static_threshold", "detector"),
    Target("harness", "run_point", "harness", _workers),
    Target("harness", "sweep_snr", "harness"),
    Target("harness", "sweep_threshold_factor", "harness"),
    Target("harness", "write_results", "cli"),
    Target("svg", "render_line_chart", "cli"),
    Target("cli", "main", "cli"),
)

LAYERS = ("signal_model", "noise_estimator", "detector", "harness", "cli")


@dataclass
class Span:
    key: str
    layer: str
    request: int
    parent: int | None
    start: float
    end: float = float("nan")
    error: str | None = None
    info: Any = None


class Tracer:
    """Records spans in memory; ``request`` tags the spans of one timed unit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._captured: dict[str, int] = {}

    def wrap(self, target: Target, fn: Callable) -> Callable:
        key, layer, capture, limit = target.key, target.layer, target.capture, target.capture_limit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(key, layer, self.request, self._stack[-1] if self._stack else None,
                        self.clock())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if capture is not None:
                count = self._captured.get(key, 0)
                if limit is None or count < limit:
                    self._captured[key] = count + 1
                    span.info = capture(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every name bound to a target in a loaded specsense module.

        Targets whose home module is not loaded are skipped.  All names are
        restored on exit, also when the body raises.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "specsense" or name.startswith("specsense."))]
        saved: list[tuple[object, str, object]] = []
        try:
            for t in TARGETS:
                home = sys.modules.get(f"specsense.{t.module}")
                if home is None:
                    continue
                original = getattr(home, t.attr)
                wrapper = self.wrap(t, original)
                for module in modules:
                    if getattr(module, t.attr, None) is original:
                        saved.append((module, t.attr, original))
                        setattr(module, t.attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def of(self, key: str) -> list[Span]:
        return [s for s in self.spans if s.key == key]


@dataclass(frozen=True)
class Breakdown:
    """Counts, busy and self time per span key and per layer."""

    calls: dict[str, int]
    busy: dict[str, float]
    self_time: dict[str, float]
    layer_busy: dict[str, float]
    layer_self: dict[str, float]
    wall: float
    unattributed: float


def breakdown(spans: list[Span], wall: float) -> Breakdown:
    """Aggregate spans recorded over ``wall`` seconds.

    A span's self time is its duration minus the durations of its direct
    children; in one thread those children never overlap, so that is the
    part of the span they cover.  A layer is busy for the spans whose parent
    lies in another layer, so nested calls within a layer count once.  The
    part of ``wall`` no top-level span covers is unattributed.
    """
    duration = [s.end - s.start for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            covered[s.parent] += duration[i]
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    layer_busy = dict.fromkeys(LAYERS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    top = 0.0
    for i, s in enumerate(spans):
        own = duration[i] - covered[i]
        calls[s.key] = calls.get(s.key, 0) + 1
        busy[s.key] = busy.get(s.key, 0.0) + duration[i]
        self_time[s.key] = self_time.get(s.key, 0.0) + own
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + own
        if s.parent is None or spans[s.parent].layer != s.layer:
            layer_busy[s.layer] = layer_busy.get(s.layer, 0.0) + duration[i]
        if s.parent is None:
            top += duration[i]
    return Breakdown(calls, busy, self_time, layer_busy, layer_self, wall, wall - top)


def layer_metrics(tracer: Tracer, bd: Breakdown) -> dict[str, float]:
    """Per-layer counts, busy and self times and estimator health of a traced run."""
    calls, busy, own = bd.calls, bd.busy, bd.self_time
    estimates = tracer.of("noise_estimator.estimate_noise")
    infos = [s.info for s in estimates if s.error is None]
    attempts = len(estimates)
    run_points = tracer.of("harness.run_point")
    out = {
        "signal_model.derive_seed_calls": calls.get("signal_model.derive_seed", 0),
        "signal_model.derive_seed_s": busy.get("signal_model.derive_seed", 0.0),
        "signal_model.synth_calls": calls.get("signal_model.add_awgn", 0)
        + calls.get("signal_model.generate_qpsk", 0),
        "signal_model.synth_s": busy.get("signal_model.add_awgn", 0.0)
        + busy.get("signal_model.generate_qpsk", 0.0),
        "signal_model.frame_s": busy.get("signal_model.frame", 0.0),
        "noise_estimator.estimate_calls": attempts,
        "noise_estimator.estimate_s": busy.get("noise_estimator.estimate_noise", 0.0),
        "noise_estimator.covariance_s": busy.get("noise_estimator.sample_covariance", 0.0),
        "noise_estimator.eigensolve_s": busy.get("noise_estimator.eigenvalues_hermitian", 0.0),
        "noise_estimator.mdl_s": busy.get("noise_estimator.mdl_signal_count", 0.0),
        "noise_estimator.bounds_s": busy.get("noise_estimator.sigma_bounds", 0.0),
        "noise_estimator.mp_fit_s": own.get("noise_estimator.estimate_noise", 0.0),
        "noise_estimator.failures": attempts - len(infos),
        "noise_estimator.useful_ratio": len(infos) / attempts if attempts else 0.0,
        "noise_estimator.grid_edge_hits": sum(
            1 for _, _, size, best, degenerate in infos
            if not degenerate and best in (0, size - 1)),
        "noise_estimator.degenerate_grids": sum(1 for info in infos if info[4]),
        "noise_estimator.k_hat_mean": (
            sum(info[1] for info in infos) / len(infos) if infos else 0.0),
        "noise_estimator.fit_cells": sum(size * (l - k) for l, k, size, _, _ in infos),
        "detector.threshold_calls": sum(
            1 for s in tracer.spans
            if s.layer == "detector" and (s.parent is None
                                          or tracer.spans[s.parent].layer != "detector")),
        "detector.threshold_s": bd.layer_busy["detector"],
        "harness.run_point_s": busy.get("harness.run_point", 0.0),
        "harness.dispatch_s": sum(
            s.end - s.start for s in run_points if s.info is not None and s.info > 1),
        "cli.output_s": busy.get("cli.write_results", 0.0)
        + busy.get("cli.render_line_chart", 0.0),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = bd.layer_self[layer]
    out["trace.spans"] = len(tracer.spans)
    out["trace.wall_s"] = bd.wall
    out["trace.unattributed_s"] = bd.unattributed
    return out
