"""specsense benchmark: one workload, end-to-end metrics or a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dynamic_point --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
Times of timed units are scaled to a nominal machine speed: a fixed
reference kernel (``measure.reference_s``) is timed right after each unit,
for about a tenth of its time (on every CPU in turn for the CLI, whose
processes run on any of them), and the unit's time is multiplied by the
nominal reference time over the mean of the references taken just before
and just after it.  This cancels most of the drift of a shared machine's
speed.  Fresh-interpreter imports are scaled the same way by a fresh import
of numpy alone on the same CPU (``measure.fresh_imports``).  In-process
set-ups are too short for a steady reference and are not scaled.  The
unscaled figures are printed and recorded as well.

With ``--trace 1`` the run makes an untraced pass for half the time, replays
the same number of units with spans recorded at every layer boundary, and
reports the per-layer metrics, unscaled.

Human-readable lines come first; the last line of standard output is one
JSON object.  A full record with the run manifest is written to
``perfbench/out/``.  The exit code is 0 when every correctness check passed,
1 when one failed, and 2 when the checkout has no specsense source to
measure.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import measure  # noqa: E402  (HERE is on sys.path when run as a script or by pytest)
import tracing  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

SETUP_IMPORTS = 8  # fresh-interpreter imports timed per run, each with a numpy import
SETUP_PREPARES = 3  # in-process set-ups timed per run

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "estimate_p50_us": "us",
    "estimate_tail_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "signal_model.derive_seed_calls": "count/op",
    "signal_model.derive_seed_s": "s/op",
    "signal_model.synth_calls": "count/op",
    "signal_model.synth_s": "s/op",
    "signal_model.frame_s": "s/op",
    "signal_model.self_s": "s/op",
    "noise_estimator.estimate_calls": "count/op",
    "noise_estimator.estimate_s": "s/op",
    "noise_estimator.covariance_s": "s/op",
    "noise_estimator.eigensolve_s": "s/op",
    "noise_estimator.mdl_s": "s/op",
    "noise_estimator.bounds_s": "s/op",
    "noise_estimator.mp_fit_s": "s/op",
    "noise_estimator.self_s": "s/op",
    "noise_estimator.failures": "count/op",
    "noise_estimator.useful_ratio": "fraction",
    "noise_estimator.grid_edge_hits": "count/op",
    "noise_estimator.degenerate_grids": "count/op",
    "noise_estimator.k_hat_mean": "count",
    "noise_estimator.fit_cells": "count/op",
    "detector.threshold_calls": "count/op",
    "detector.threshold_s": "s/op",
    "detector.self_s": "s/op",
    "harness.run_point_s": "s/op",
    "harness.self_s": "s/op",
    "harness.dispatch_s": "s/op",
    "harness.parallel_efficiency": "fraction",
    "cli.output_s": "s/op",
    "cli.self_s": "s/op",
    "trace.spans": "count/op",
    "trace.wall_s": "s/op",
    "trace.unattributed_s": "s/op",
    "trace.overhead_s": "s/op",
    "failed_frac": "fraction",
    "pfa_err": "fraction",
    "sigma_rel_err": "fraction",
}

# Per-layer values that are not normalised by the operations of the traced pass.
_NOT_PER_OP = {u for u, unit in PER_LAYER.items() if not unit.endswith("/op")}


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def manifest(args: dict, sizes: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "argv": sys.argv,
        "args": args,
        "sizes": {k: list(v) if isinstance(v, tuple) else v for k, v in sizes.items()},
        "traced": bool(args["trace"]),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def timed_pass(wl, seconds: float | None = None, units: int | None = None, tracer=None,
               reference: bool = False):
    """Run units until ``seconds`` passed and ``wl.min_units`` ran, or ``units`` ran.

    With ``reference`` the reference kernel is timed after every unit, on
    every CPU when the unit runs in child processes.
    """
    latencies, references, outputs = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        if units is not None and i >= units:
            break
        if units is None and i >= wl.min_units and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.request = i
        t = time.perf_counter()
        ops, bad, out = wl.call(i)
        latencies.append(time.perf_counter() - t)
        if reference:
            references.append(measure.reference_after(latencies[-1], wl.uses_children))
        attempted += ops
        failed += bad
        outputs.append(out)
        i += 1
    return {"wall": time.perf_counter() - start, "latencies": latencies,
            "references": references, "outputs": outputs, "attempted": attempted,
            "failed": failed}


def _timed_setup(wl) -> dict[str, list[float]]:
    """Fresh-interpreter imports, each with a numpy import beside it, then in-process set-ups."""
    imports, numpy_imports = measure.fresh_imports(SRC, wl.import_module, SETUP_IMPORTS)
    out = {"import_s": imports, "numpy_import_s": numpy_imports, "prepare_s": []}
    for _ in range(SETUP_PREPARES):
        t = time.perf_counter()
        wl.prepare()
        out["prepare_s"].append(time.perf_counter() - t)
    return out


def checkout_specsense():
    """Import specsense from this checkout's ``src``, ahead of any installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("specsense")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> dict:
    """Set up, measure and check one workload; returns the full result record."""
    ss = checkout_specsense()
    wl = WORKLOADS[name](ss, ROOT, seed, sizes)
    importlib.import_module(wl.import_module)  # loaded before any wrapper is installed
    try:
        setup = _timed_setup(wl)
        wl.before_timing()
        record = {"setup": setup}
        if trace:
            wl.in_process = True
            plain = timed_pass(wl, seconds=seconds / 2.0)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = timed_pass(wl, units=len(plain["outputs"]), tracer=tracer)
            bd = tracing.breakdown(tracer.spans, traced["wall"])
            checks = wl.checks(traced["outputs"], tracer) + [
                _identical(plain, traced), _accounted(bd)]
            passes = (plain, traced)
            metrics = _layer_metrics(wl, tracer, bd, plain, traced)
            record["breakdown"] = _span_table(bd)
            record["spans"] = _spans_json(tracer)
        else:
            plain = timed_pass(wl, seconds=seconds, reference=True)
            checks = wl.checks(plain["outputs"])
            passes = (plain,)
            completed = plain["attempted"] - plain["failed"]
            raw, refs = plain["latencies"], plain["references"]
            imports = measure.scaled(setup["import_s"], setup["numpy_import_s"],
                                     measure.NUMPY_IMPORT_NOMINAL_S)
            metrics = _end_to_end(imports, setup["prepare_s"],
                                  measure.scaled(raw, measure.bracketed(refs)), wl, completed)
            record["unscaled"] = _end_to_end(setup["import_s"], setup["prepare_s"], raw,
                                             wl, completed)
            record["latency"] = {
                "samples": len(raw), "tail_percentile": measure.tail(raw)[1],
                "unit_ops": plain["attempted"] / len(raw), "wall_s": plain["wall"],
                "speed_vs_nominal": statistics.median(
                    measure.REFERENCE_NOMINAL_S / r for r in refs),
                "values_s": raw, "reference_s": refs}
    finally:
        wl.close()
    failed_checks = [c for c in checks if not c.ok]
    record.update({
        "correct": not failed_checks,
        "attempted": sum(p["attempted"] for p in passes) + len(checks),
        "failed": sum(p["failed"] for p in passes) + len(failed_checks),
        "metrics": metrics,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "sizes": wl.z,
    })
    return record


def _end_to_end(imports: list[float], prepares: list[float], unit_times: list[float],
                wl, completed: int) -> dict[str, float]:
    per_call = [t / wl.calls_per_unit for t in unit_times]
    return {
        "setup_s": statistics.median(imports) + statistics.median(prepares),
        "trials_per_s": completed / sum(unit_times),
        "estimate_p50_us": statistics.median(per_call) * 1e6,
        "estimate_tail_us": measure.tail(per_call)[0] * 1e6,
        "peak_rss_mb": measure.peak_rss_mb(children=wl.uses_children),
    }


def _identical(plain: dict, traced: dict) -> Check:
    same = plain["outputs"] == traced["outputs"]
    return Check("trace.outputs_identical_to_untraced", same,
                 f"{len(traced['outputs'])} units compared")


def _accounted(bd: tracing.Breakdown) -> Check:
    """Layer self times plus the unattributed remainder add up to the traced wall time."""
    attributed = sum(bd.layer_self.values())
    return Check("trace.self_times_account_for_wall",
                 abs(attributed + bd.unattributed - bd.wall) <= 1e-9 * bd.wall
                 and bd.unattributed >= 0.0,
                 f"layer self times {attributed:.6f} s + unattributed {bd.unattributed:.6f} s"
                 f" against wall {bd.wall:.6f} s")


def _layer_metrics(wl, tracer, bd, plain: dict, traced: dict) -> dict[str, float]:
    raw = tracing.layer_metrics(tracer, bd)
    raw["trace.overhead_s"] = traced["wall"] - plain["wall"]
    ops = max(traced["attempted"], 1)
    out = {k: (v if k in _NOT_PER_OP else v / ops) for k, v in raw.items()}
    out["failed_frac"] = traced["failed"] / ops
    out.update(wl.accuracy(traced["outputs"]))
    out.update(wl.trace_extras())
    return {k: out[k] for k in PER_LAYER}


def _span_table(bd: tracing.Breakdown) -> list[dict]:
    rows = [{"span": k, "calls": bd.calls[k], "busy_s": bd.busy[k], "self_s": bd.self_time[k]}
            for k in bd.calls]
    return sorted(rows, key=lambda r: -r["self_s"])


_SPANS_WRITTEN = 20000  # spans kept in the record; the rest only enter the aggregates


def _spans_json(tracer) -> dict:
    spans = tracer.spans[:_SPANS_WRITTEN]
    return {"total": len(tracer.spans),
            "fields": ["key", "request", "parent", "start", "end", "error"],
            "rows": [[s.key, s.request, s.parent, s.start, s.end, s.error] for s in spans]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "specsense" / "__init__.py").is_file():
        print(f"perfbench: no specsense package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    ss = checkout_specsense()
    if Path(ss.__file__).resolve().parent != SRC / "specsense":
        print(f"perfbench: imported specsense from {ss.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record["manifest"] = manifest(vars(args), record["sizes"])
    units = END_TO_END if not args.trace else PER_LAYER
    metrics = {k: {"value": record["metrics"][k], "unit": units[k]} for k in units}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"manifest {json.dumps(record['manifest'], default=str)}")
    for c in record["checks"]:
        print(f"check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    if "latency" in record:
        lat = record["latency"]
        print(f"latency samples={lat['samples']} tail_percentile={lat['tail_percentile']:.2f}"
              f" ops_per_sample={lat['unit_ops']:g}"
              f" speed_vs_nominal={lat['speed_vs_nominal']:.3f}")
        for k, v in record["unscaled"].items():
            print(f"unscaled {k} = {v!r} {END_TO_END[k]}")
    for row in record.get("breakdown", []):
        print(f"span {row['span']:<40} calls={row['calls']:<8} busy_s={row['busy_s']:.4f}"
              f" self_s={row['self_s']:.4f}")
    for k, m in metrics.items():
        print(f"metric {k} = {m['value']!r} {m['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
