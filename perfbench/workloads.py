"""The four benchmark workloads.

Every workload calls only specsense's public API, looked up on the package
module at call time so that a traced run sees each call, or the specsense
command line.  Input sizes are fixed here; the seed comes from the command
line and is the only source of the inputs.

Why these four: ``dynamic_point`` is dominated by the blind estimator,
``static_sweep`` never calls it, ``estimate_frames`` feeds the estimator one
larger frame at a time, and ``cli_sweep`` is the only one that pays
interpreter start-up, process-pool dispatch and CSV/SVG output.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from measure import MIN_SAMPLES, child_env

# Half-width of the false-alarm-rate checks, in standard errors.  Each seed
# is one draw: a 99% interval (2.576) fails about 1.3% of seeds of a
# calibrated detector, and an acceptance runs dozens of seeds, so two such
# checks would often fail a correct program.  At 4.5 a correct program fails
# about one seed in 10 000.  Accuracy is judged on the first ``min_units``
# units, which every run makes, so it is fixed per seed: 1280 trials on
# dynamic_point and 1408 on static_sweep, where a rate off its target by
# more than 0.038 and 0.036 fails.
Z_CHECK = 4.5
CSV_HEADER = b"sweep_value,pd,pfa,pd_ci,pfa_ci,mean_sigma_hat2,failed_trials\n"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def pfa_check(name: str, pfa: float, target: float, n: int) -> Check:
    """Empirical false-alarm rate within the ``Z_CHECK`` interval around ``target``."""
    half = Z_CHECK * math.sqrt(target * (1.0 - target) / n)
    return Check(name, abs(pfa - target) <= half,
                 f"pfa={pfa!r} target={target!r} half_width={half:.4f} n={n}")


def unit_seed(seed: int, i: int) -> int:
    """Master seed of timed unit ``i``; distinct for every (seed, unit) pair in use."""
    return seed * 1_000_003 + i


class Workload:
    """One workload: set-up, the timed unit, and the checks on its outputs.

    ``call`` returns ``(operations attempted, operations failed, output)``.
    """

    name = ""
    import_module = "specsense"
    uses_children = False  # peak memory is that of child processes
    in_process = True  # runs the program in this process; traced runs need that
    calls_per_unit = 1  # latency metrics are per call: unit time over this
    min_units = MIN_SAMPLES  # every run times at least this many units
    sizes: dict[str, Any] = {}

    def __init__(self, ss, root: Path, seed: int, sizes: dict | None = None) -> None:
        self.ss = ss
        self.root = root
        self.seed = seed
        self.z = {**self.sizes, **(sizes or {})}

    def prepare(self) -> None:
        """Plan building, input generation and warm-up; timed as set-up."""

    def before_timing(self) -> None:
        """Untimed work the checks need, done once after set-up."""

    def call(self, i: int) -> tuple[int, int, Any]:
        raise NotImplementedError

    def checks(self, outputs: list, tracer=None) -> list[Check]:
        raise NotImplementedError

    def accuracy(self, outputs: list) -> dict[str, float]:
        return {"pfa_err": 0.0, "sigma_rel_err": 0.0}

    def trace_extras(self) -> dict[str, float]:
        return {"harness.parallel_efficiency": 0.0}

    def close(self) -> None:
        pass


class DynamicPoint(Workload):
    """Small dynamic-threshold points; the blind estimator does almost all the work.

    Unit ``i`` is one ``run_point`` with its own master seed, so units are
    independent points of equal size.
    """

    name = "dynamic_point"
    min_units = 40  # 1280 pooled trials for the false-alarm check
    sizes = {"trials": 32, "n": 128, "l": 8, "m_grid": 100, "mismatch_db": 3.0,
             "snr_db": -2.0, "target_pfa": 0.1}

    def prepare(self) -> None:
        ss, z = self.ss, self.z
        self.plan = ss.TrialPlan(
            n_trials=z["trials"], n=z["n"], l=z["l"], target_pfa=z["target_pfa"],
            mode=ss.ThresholdMode.DYNAMIC, sigma_s2=10.0 ** (z["snr_db"] / 10.0),
            master_seed=self.seed, m_grid=z["m_grid"], mismatch_db=z["mismatch_db"],
        )
        ss.run_point(dataclasses.replace(self.plan, n_trials=2), workers=1)

    def _plan(self, i: int):
        return dataclasses.replace(self.plan, master_seed=unit_seed(self.seed, i))

    def call(self, i: int):
        result = self.ss.run_point(self._plan(i), workers=1)
        return self.plan.n_trials, result.failed_trials, result

    def _pooled(self, outputs) -> tuple[float, int, int]:
        """(false-alarm rate, completed trials, failed trials) over the first units."""
        head = outputs[:self.min_units]
        completed = sum(r.n_effective for r in head)
        alarms = sum(round(r.pfa * r.n_effective) for r in head)
        return alarms / completed, completed, sum(r.failed_trials for r in head)

    def checks(self, outputs, tracer=None):
        pfa, completed, failed = self._pooled(outputs)
        again = self.ss.run_point(self._plan(0), workers=1)
        return [
            Check("dynamic_point.repeatable", again == outputs[0],
                  "unit 0 run again gives the same PointResult"),
            Check("dynamic_point.failed_le_1pct", failed <= 0.01 * (completed + failed),
                  f"failed_trials={failed} of {completed + failed}"),
            pfa_check("dynamic_point.pfa_in_ci", pfa, self.plan.target_pfa, completed),
        ]

    def accuracy(self, outputs):
        return {"pfa_err": abs(self._pooled(outputs)[0] - self.plan.target_pfa),
                "sigma_rel_err": 0.0}


class StaticSweep(Workload):
    """The static threshold-factor study; the estimator is never called.

    Unit ``i`` is one ``sweep_threshold_factor`` call with its own master
    seed, as in ``dynamic_point``.
    """

    name = "static_sweep"
    sizes = {"trials": 128, "n": 128, "l": 8, "factors": (1.0, 1.5, 2.0, 2.5),
             "snr_db": (-10.0, -8.0, -6.0, -4.0, -2.0, 0.0), "target_pfa": 0.1}

    def prepare(self) -> None:
        ss, z = self.ss, self.z
        self.plan = ss.TrialPlan(n_trials=z["trials"], n=z["n"], l=z["l"],
                                 target_pfa=z["target_pfa"], master_seed=self.seed)
        ss.sweep_threshold_factor(dataclasses.replace(self.plan, n_trials=2),
                                  z["factors"][:1], z["snr_db"][:1], workers=1)

    def _sweep(self, i: int):
        plan = dataclasses.replace(self.plan, master_seed=unit_seed(self.seed, i))
        return self.ss.sweep_threshold_factor(plan, self.z["factors"], self.z["snr_db"],
                                              workers=1)

    def call(self, i: int):
        curves = self._sweep(i)
        failed = sum(p.failed_trials for c in curves.values() for p in c.points)
        return len(self.z["factors"]) * len(self.z["snr_db"]) * self.plan.n_trials, failed, curves

    def _closed_form_pfa(self) -> float:
        ss, plan = self.ss, self.plan
        threshold = ss.static_threshold(1.0, plan.target_pfa, plan.n)
        return ss.closed_form_pfa(threshold, plan.n, plan.sigma_w2_true)

    def _pooled_pfa(self, outputs) -> tuple[float, int]:
        """False-alarm rate at factor 1 over the first ``min_units`` units."""
        head = [curves[1.0].points[0] for curves in outputs[:self.min_units]]
        completed = sum(p.n_effective for p in head)
        return sum(round(p.pfa * p.n_effective) for p in head) / completed, completed

    def checks(self, outputs, tracer=None):
        pfa, completed = self._pooled_pfa(outputs)
        monotone = all(
            curves[lo].points[j].pd >= curves[hi].points[j].pd
            for curves in outputs
            for lo, hi in zip(sorted(curves), sorted(curves)[1:])
            for j in range(len(curves[lo].points))
        )
        return [
            Check("static_sweep.repeatable", self._sweep(0) == outputs[0],
                  "unit 0 run again gives the same sweep"),
            pfa_check("static_sweep.pfa_matches_closed_form", pfa, self._closed_form_pfa(),
                      completed),
            Check("static_sweep.pd_nonincreasing_in_factor", monotone,
                  f"factors={list(self.z['factors'])} in {len(outputs)} sweeps"),
        ]

    def accuracy(self, outputs):
        return {"pfa_err": abs(self._pooled_pfa(outputs)[0] - self._closed_form_pfa()),
                "sigma_rel_err": 0.0}


class EstimateFrames(Workload):
    """One ``estimate_noise`` call per frame, on frames made during set-up.

    Frames rotate through noise only, -6 dB at one symbol per snapshot,
    0 dB at 2 samples per symbol and 6 dB at 4, which MDL resolves to
    k_hat = 0, 1, 8 and 4 signal eigenvalues at L=16.  Each frame's noise
    power wanders uniformly within +-3 dB of 1.
    """

    name = "estimate_frames"
    sizes = {"frames": 32, "l": 16, "n": 256, "m_grid": 200, "wander_db": 3.0}
    # Four rounds of the four frame kinds per timed unit.  Per-call samples
    # put the tail percentile at p98, where rare stalls of a shared machine
    # move it by a third between runs; a unit of 16 calls takes about as long
    # as the other workloads' units and keeps the tail steady.
    calls_per_unit = 16
    KINDS = ((None, None), (-6.0, "l"), (0.0, 2), (6.0, 4))  # (SNR dB, samples per symbol)

    def prepare(self) -> None:
        ss, z = self.ss, self.z
        l, n = z["l"], z["n"]
        rng = np.random.default_rng(self.seed)
        self.frames, self.noise_powers, self.is_h0 = [], [], []
        for f in range(z["frames"]):
            snr, sps = self.KINDS[f % len(self.KINDS)]
            sigma2 = 10.0 ** (rng.uniform(-z["wander_db"], z["wander_db"]) / 10.0)
            x = ss.add_awgn(np.zeros(l * n, dtype=np.complex128), sigma2,
                            ss.derive_seed(self.seed, f, 1))
            if snr is not None:
                x = x + ss.generate_qpsk(l * n, sigma2 * 10.0 ** (snr / 10.0),
                                         ss.derive_seed(self.seed, f, 0),
                                         samples_per_symbol=l if sps == "l" else sps)
            self.frames.append(ss.frame(x, l, n))
            self.noise_powers.append(sigma2)
            self.is_h0.append(snr is None)
        ss.estimate_noise(self.frames[0], z["m_grid"])

    def call(self, i: int):
        out = []
        for j in range(i * self.calls_per_unit, (i + 1) * self.calls_per_unit):
            f = j % len(self.frames)
            try:
                est = self.ss.estimate_noise(self.frames[f], self.z["m_grid"])
            except self.ss.EstimationFailure:
                out.append((f, None))
                continue
            # Kept small so memory does not grow with the number of calls;
            # the hash covers every field, fit scores included.
            out.append((f, (est.sigma_hat2, est.sigma_lo2, est.sigma_hi2, hash(est))))
        return len(out), sum(1 for _, e in out if e is None), tuple(out)

    def _eig_pairs(self, tracer):
        if tracer is not None:
            return [s.info for s in tracer.of("noise_estimator.eigenvalues_hermitian")
                    if s.info is not None]
        ss = self.ss
        pairs = []
        for fr in self.frames:
            cov = ss.sample_covariance(fr)
            pairs.append((cov.entries, ss.eigenvalues_hermitian(cov).values))
        return pairs

    def checks(self, outputs, tracer=None):
        outputs = [pair for unit in outputs for pair in unit]
        bad = [f for f, e in outputs if e is None or not (
            math.isfinite(e[0]) and e[1] <= e[0] <= e[2])]
        first: dict[int, Any] = {}
        drift = sum(1 for f, e in outputs if first.setdefault(f, e) != e)
        worst = 0.0
        pairs = self._eig_pairs(tracer)
        for entries, values in pairs:
            ref = np.linalg.eigvalsh(entries)[::-1]
            scale = max(float(np.max(np.abs(ref))), 1e-300)
            worst = max(worst, float(np.max(np.abs(np.asarray(values) - ref))) / scale)
        return [
            Check("estimate_frames.sigma_in_bounds", not bad,
                  f"{len(bad)} of {len(outputs)} estimates missing, non-finite or out of bounds"),
            Check("estimate_frames.repeatable", drift == 0,
                  f"{drift} estimates differ from the first estimate of their frame"),
            Check("estimate_frames.eigenvalues_match_eigvalsh", bool(pairs) and worst <= 1e-9,
                  f"max relative error {worst:.3g} over {len(pairs)} spectra"),
        ]

    def accuracy(self, outputs):
        first = {f: e for unit in reversed(outputs) for f, e in reversed(unit) if e is not None}
        errs = [abs(e[0] / self.noise_powers[f] - 1.0)
                for f, e in first.items() if self.is_h0[f]]
        return {"pfa_err": 0.0, "sigma_rel_err": sum(errs) / len(errs) if errs else 0.0}


class CliSweep(Workload):
    """``specsense sweep-snr --quick --plot --workers 2`` in a child process, both modes.

    One small point per mode, so start-up, pool dispatch and output weigh
    as much as the trials.  L=6 is the smallest snapshot length at which no
    estimate failed in 6000 trials at these sizes.  In a traced run the
    command runs in this process.
    """

    name = "cli_sweep"
    import_module = "specsense.cli"
    uses_children = True
    in_process = False
    sizes = {"trials": 1000, "n": 32, "l": 6, "m_grid": 20, "snr_min": 0.0,
             "snr_max": 0.0, "snr_step": 2.0, "workers": 2}

    def __init__(self, ss, root, seed, sizes=None):
        super().__init__(ss, root, seed, sizes)
        self.workdir = root / "perfbench" / "out" / f"cli-work-{os.getpid()}"

    def prepare(self) -> None:
        z = self.z
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.argv = [
            "sweep-snr", "--quick", "--plot", "--trials", str(z["trials"]),
            "--n", str(z["n"]), "--l", str(z["l"]), "--m-grid", str(z["m_grid"]),
            "--snr-min", repr(z["snr_min"]), "--snr-max", repr(z["snr_max"]),
            "--snr-step", repr(z["snr_step"]), "--seed", str(self.seed),
        ]
        points = int(math.floor((z["snr_max"] - z["snr_min"]) / z["snr_step"] + 1e-9)) + 1
        # --quick runs a tenth of --trials, but never fewer than 100.
        self.point_trials = max(100, z["trials"] // 10)
        self.ops = 2 * points * self.point_trials

    def _invoke(self, workers: int, tag: str) -> dict[str, Any]:
        stem = self.workdir / tag
        argv = self.argv + ["--workers", str(workers), "--out", str(stem)]
        if self.in_process:
            import specsense.cli as cli
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        else:
            rc = subprocess.run(
                [sys.executable, "-m", "specsense.cli", *argv],
                env=child_env(self.root / "src"), cwd=self.workdir,
                stdout=subprocess.DEVNULL, timeout=120,
            ).returncode
        out = {"rc": rc}
        for mode in ("static", "dynamic"):
            path = Path(f"{stem}_{mode}.csv")
            out[mode] = path.read_bytes() if path.exists() else b""
        svg = Path(f"{stem}.svg")
        out["svg"] = svg.exists() and svg.stat().st_size > 0
        for path in (Path(f"{stem}_static.csv"), Path(f"{stem}_dynamic.csv"), svg):
            path.unlink(missing_ok=True)
        return out

    def before_timing(self) -> None:
        self.reference = self._invoke(1, "reference")

    def call(self, i: int):
        out = self._invoke(self.z["workers"], f"run{i}")
        failed = self.ops if out["rc"] != 0 else sum(
            int(row.rsplit(b",", 1)[1]) for mode in ("static", "dynamic")
            for row in out[mode].splitlines()[1:])
        return self.ops, failed, out

    def checks(self, outputs, tracer=None):
        ref = self.reference
        differing = sum(1 for o in outputs
                        if (o["static"], o["dynamic"]) != (ref["static"], ref["dynamic"]))
        return [
            Check("cli_sweep.exit_zero", ref["rc"] == 0 and all(o["rc"] == 0 for o in outputs),
                  f"reference rc={ref['rc']}, rcs={sorted({o['rc'] for o in outputs})}"),
            Check("cli_sweep.csv_header",
                  all(o[m].startswith(CSV_HEADER)
                      for o in outputs + [ref] for m in ("static", "dynamic")),
                  CSV_HEADER.decode().strip()),
            Check("cli_sweep.svg_written", all(o["svg"] for o in outputs), "SVG chart present"),
            Check("cli_sweep.csv_equal_at_1_and_2_workers", differing == 0,
                  f"{differing} of {len(outputs)} runs at 2 workers differ from 1 worker"),
        ]

    def accuracy(self, outputs):
        rows = outputs[0]["dynamic"].splitlines()[1:]
        errs = [abs(float(r.split(b",")[2]) - 0.1) for r in rows]  # the CLI's default --pfa
        return {"pfa_err": sum(errs) / len(errs) if errs else 0.0, "sigma_rel_err": 0.0}

    def trace_extras(self):
        """Throughput at 2 workers over twice that at 1, for the first dynamic point."""
        ss, z = self.ss, self.z
        plan = ss.TrialPlan(
            n_trials=self.point_trials, n=z["n"], l=z["l"], mode=ss.ThresholdMode.DYNAMIC,
            sigma_s2=10.0 ** (z["snr_min"] / 10.0), master_seed=self.seed,
            m_grid=z["m_grid"], mismatch_db=3.0,  # the CLI's default --mismatch-db
        )
        walls = {}
        for workers in (1, 2):
            samples = []
            for _ in range(3):
                t = time.perf_counter()
                ss.run_point(plan, workers=workers)
                samples.append(time.perf_counter() - t)
            walls[workers] = sorted(samples)[1]
        return {"harness.parallel_efficiency": walls[1] / (2.0 * walls[2])}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DynamicPoint, StaticSweep, EstimateFrames, CliSweep)}
