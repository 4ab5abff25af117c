"""Command-line front end for sensing runs and Monte Carlo sweeps.

Output to stdout is line-oriented ``key=value`` pairs.  Exit codes:
0 success, 1 runtime failure, 2 usage or validation error.  Option
precedence: command-line flags override config-file keys, which override
the ``SPECSENSE_SEED`` environment fallback (seed only), which overrides
built-in defaults.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Sequence

from .detector import ThresholdMode, Verdict
from .harness import (
    SweepResult,
    TrialPlan,
    sense_once,
    sweep_pfa,
    sweep_snr,
    sweep_threshold_factor,
    synthesize_pair,
    write_results,
)
from .noise_estimator import EstimationFailure, estimate_noise
from .signal_model import Hypothesis, frame
from .svg import Series, render_line_chart

__all__ = ["main"]

_COMMANDS = ("sense", "sweep-snr", "sweep-pfa", "sweep-factor", "estimate-noise")
_FACTOR_LADDER = (1.0, 1.5, 2.0, 2.5)
_ENV_SEED = "SPECSENSE_SEED"

_DEFAULTS: dict[str, object] = {
    "n": 128,
    "l": 8,
    "pfa": 0.1,
    "snr": 0.0,
    "snr_min": -10.0,
    "snr_max": 10.0,
    "snr_step": 2.0,
    "trials": 10000,
    "mode": None,  # None: command-dependent (sweeps run both modes)
    "factor": None,
    "mismatch_db": 3.0,
    "m_grid": 100,
    "seed": 42,
    "out": None,  # None: derived from the command name
    "plot": False,
    "quick": False,
    "sigma_w2": 1.0,
    "nominal": None,  # None: equal to sigma_w2
    "sps": None,  # None: equal to l
    "workers": 1,
    "hypothesis": None,  # None: command-dependent
    "pfa_grid": "0.01,0.02,0.05,0.1,0.2,0.3,0.5",
}

_INT_KEYS = {"n", "l", "trials", "m_grid", "seed", "sps", "workers"}
_FLOAT_KEYS = {
    "snr", "pfa", "snr_min", "snr_max", "snr_step", "factor",
    "mismatch_db", "sigma_w2", "nominal",
}
_BOOL_KEYS = {"plot", "quick"}
_CHOICE_KEYS = {"mode": ("static", "dynamic"), "hypothesis": ("h0", "h1")}


class UsageError(Exception):
    """Invalid flag, config key, or value; maps to exit code 2."""


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"{key}: expected a boolean, got {raw!r}")


def _coerce(key: str, raw: str) -> object:
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError:
        kind = "an integer" if key in _INT_KEYS else "a number"
        raise UsageError(f"{key}: expected {kind}, got {raw!r}") from None
    if key in _BOOL_KEYS:
        return _parse_bool(key, raw)
    if key in _CHOICE_KEYS:
        value = raw.strip().lower()
        if value not in _CHOICE_KEYS[key]:
            raise UsageError(
                f"{key}: must be one of {', '.join(_CHOICE_KEYS[key])}, got {raw!r}"
            )
        return value
    return raw.strip()


def _read_config_file(path: str) -> dict[str, object]:
    """Parse a flat ``key = value`` config file with # comments."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc.strerror}") from None
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"config: line {lineno}: expected key = value")
        raw_key, raw_value = stripped.split("=", 1)
        key = raw_key.strip().lower().replace("-", "_")
        if key not in _DEFAULTS:
            raise UsageError(f"config: unknown key {raw_key.strip()!r} (line {lineno})")
        values[key] = _coerce(key, raw_value)
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsense",
        description=(
            "Energy-detection spectrum sensing with static or blind "
            "dynamically calibrated thresholds."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    descriptions = {
        "sense": "run one sensing decision on a single synthesized frame",
        "sweep-snr": "Monte Carlo Pd/Pfa versus SNR",
        "sweep-pfa": "Monte Carlo Pd/Pfa versus the target false-alarm rate",
        "sweep-factor": "static-threshold scale-factor study versus SNR",
        "estimate-noise": "blind noise-power estimate of one synthesized frame",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--n", type=int, default=None, help="detector window length")
        p.add_argument("--l", type=int, default=None, help="covariance snapshot length")
        p.add_argument("--pfa", type=float, default=None, help="target false-alarm probability")
        p.add_argument("--snr", type=float, default=None, help="SNR in dB for fixed-SNR commands")
        p.add_argument("--snr-min", type=float, default=None, help="sweep grid start (dB)")
        p.add_argument("--snr-max", type=float, default=None, help="sweep grid end (dB)")
        p.add_argument("--snr-step", type=float, default=None, help="sweep grid step (dB)")
        p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials per point")
        p.add_argument("--mode", choices=("static", "dynamic"), default=None,
                       help="threshold mode (sweeps default to both)")
        p.add_argument("--factor", type=float, default=None,
                       help="static threshold scale factor")
        p.add_argument("--mismatch-db", type=float, default=None,
                       help="half-width of per-trial noise wander (dB)")
        p.add_argument("--m-grid", type=int, default=None,
                       help="noise-estimator search grid size")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", type=str, default=None, help="output path stem or file")
        p.add_argument("--plot", action=argparse.BooleanOptionalAction, default=None,
                       help="also write an SVG chart (sweeps only)")
        p.add_argument("--config", type=str, default=None,
                       help="flat key = value config file")
        p.add_argument("--quick", action=argparse.BooleanOptionalAction, default=None,
                       help="reduce trials tenfold for a fast pass")
        p.add_argument("--sigma-w2", type=float, default=None,
                       help="true noise power (total complex variance)")
        p.add_argument("--nominal", type=float, default=None,
                       help="noise power assumed by the static threshold")
        p.add_argument("--sps", type=int, default=None,
                       help="samples per QPSK symbol (default: snapshot length)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for sweeps")
        p.add_argument("--hypothesis", choices=("h0", "h1"), default=None,
                       help="scenario for single-frame commands")
        p.add_argument("--pfa-grid", type=str, default=None,
                       help="comma-separated target-Pfa grid for sweep-pfa")
    return parser


@dataclass(frozen=True)
class _Resolved:
    """Fully merged and validated option set for one command."""

    command: str
    options: dict[str, object]

    def __getattr__(self, item: str) -> object:
        try:
            return self.options[item]
        except KeyError:
            raise AttributeError(item) from None


def _env_seed() -> int | None:
    raw = os.environ.get(_ENV_SEED)
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{_ENV_SEED}: expected an integer, got {raw!r}") from None


def _merge_options(args: argparse.Namespace) -> _Resolved:
    merged = dict(_DEFAULTS)
    env_seed = _env_seed()
    if env_seed is not None:
        merged["seed"] = env_seed
    if args.config is not None:
        merged.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return _Resolved(command=args.command, options=merged)


def _validate(res: _Resolved) -> None:
    o = res.options
    if o["l"] < 2:
        raise UsageError(f"l: must be at least 2 (got {o['l']})")
    if o["n"] < o["l"]:
        raise UsageError(f"n: must be at least l={o['l']} (got {o['n']})")
    if not 0.0 < o["pfa"] < 1.0:
        raise UsageError(
            f"pfa: must be strictly between 0 and 1 (got {o['pfa']})"
        )
    if o["trials"] < 1:
        raise UsageError(f"trials: must be positive (got {o['trials']})")
    if o["m_grid"] < 2:
        raise UsageError(f"m-grid: must be at least 2 (got {o['m_grid']})")
    if o["mismatch_db"] < 0.0:
        raise UsageError(f"mismatch-db: must be non-negative (got {o['mismatch_db']})")
    if o["sigma_w2"] <= 0.0:
        raise UsageError(f"sigma-w2: must be positive (got {o['sigma_w2']})")
    if o["nominal"] is not None and o["nominal"] <= 0.0:
        raise UsageError(f"nominal: must be positive (got {o['nominal']})")
    if o["factor"] is not None and o["factor"] <= 0.0:
        raise UsageError(f"factor: must be positive (got {o['factor']})")
    if o["snr_step"] <= 0.0:
        raise UsageError(f"snr-step: must be positive (got {o['snr_step']})")
    if o["snr_max"] < o["snr_min"]:
        raise UsageError(
            f"snr-max: must be at least snr-min={o['snr_min']} (got {o['snr_max']})"
        )
    if o["seed"] < 0:
        raise UsageError(f"seed: must be non-negative (got {o['seed']})")
    if o["sps"] is not None and o["sps"] < 1:
        raise UsageError(f"sps: must be at least 1 (got {o['sps']})")
    if o["workers"] < 1:
        raise UsageError(f"workers: must be at least 1 (got {o['workers']})")
    for raw in str(o["pfa_grid"]).split(","):
        try:
            v = float(raw)
        except ValueError:
            raise UsageError(f"pfa-grid: {raw.strip()!r} is not a number") from None
        if not 0.0 < v < 1.0:
            raise UsageError(
                f"pfa-grid: entries must be strictly between 0 and 1 (got {v})"
            )


def _effective_trials(res: _Resolved) -> int:
    trials = int(res.trials)
    if res.quick:
        trials = max(100, trials // 10)
    return trials


def _build_plan(res: _Resolved, hypothesis: Hypothesis) -> TrialPlan:
    sigma_w2 = float(res.sigma_w2)
    nominal = sigma_w2 if res.nominal is None else float(res.nominal)
    factor = 1.0 if res.factor is None else float(res.factor)
    return TrialPlan(
        n_trials=_effective_trials(res),
        n=int(res.n),
        l=int(res.l),
        target_pfa=float(res.pfa),
        mode=ThresholdMode.DYNAMIC if res.mode == "dynamic" else ThresholdMode.STATIC,
        sigma_w2_true=sigma_w2,
        sigma_nominal2=nominal * factor,
        sigma_s2=sigma_w2 * 10.0 ** (float(res.snr) / 10.0),
        hypothesis=hypothesis,
        master_seed=int(res.seed),
        m_grid=int(res.m_grid),
        mismatch_db=float(res.mismatch_db),
        samples_per_symbol=None if res.sps is None else int(res.sps),
    )


def _emit(key: str, value: object) -> None:
    if isinstance(value, bool):
        rendered = "true" if value else "false"
    elif isinstance(value, float):
        rendered = repr(value)
    else:
        rendered = str(value)
    print(f"{key}={rendered}")


def _single_plan(res: _Resolved, default_hypothesis: Hypothesis) -> TrialPlan:
    hyp = default_hypothesis
    if res.hypothesis is not None:
        hyp = Hypothesis.H1 if res.hypothesis == "h1" else Hypothesis.H0
    return _build_plan(res, hyp)


def _cmd_sense(res: _Resolved) -> int:
    decision, estimate = sense_once(_single_plan(res, Hypothesis.H1))
    _emit("statistic", decision.statistic)
    _emit("threshold", decision.threshold)
    if estimate is not None:
        _emit("sigma_hat2", estimate.sigma_hat2)
    _emit(
        "verdict",
        "present" if decision.verdict is Verdict.PRESENT_H1 else "absent",
    )
    return 0


def _cmd_estimate_noise(res: _Resolved) -> int:
    plan = _single_plan(res, Hypothesis.H0)
    y1, y0, _ = synthesize_pair(plan, 0)
    stream = y1 if plan.hypothesis is Hypothesis.H1 else y0
    estimate = estimate_noise(frame(stream, plan.l, plan.n), plan.m_grid)
    _emit("sigma_hat2", estimate.sigma_hat2)
    _emit("k_hat", estimate.k_hat)
    _emit("beta_hat", estimate.beta_hat)
    _emit("sigma_lo2", estimate.sigma_lo2)
    _emit("sigma_hi2", estimate.sigma_hi2)
    _emit("p_ratio", estimate.p_ratio)
    _emit("degenerate_grid", estimate.degenerate_grid)
    best = min(range(len(estimate.fit_scores)), key=estimate.fit_scores.__getitem__)
    _emit("fit_score_best", estimate.fit_scores[best])
    _emit("fit_index_best", best)
    return 0


def _snr_grid(res: _Resolved) -> list[float]:
    grid = []
    value = float(res.snr_min)
    stop = float(res.snr_max)
    step = float(res.snr_step)
    while value <= stop + 1e-9:
        grid.append(round(value, 12))
        value += step
    return grid


def _out_stem(res: _Resolved, fallback: str) -> str:
    stem = res.out if res.out is not None else fallback
    stem = str(stem)
    if stem.endswith(".csv"):
        stem = stem[: -len(".csv")]
    return stem


def _modes_for(res: _Resolved) -> tuple[ThresholdMode, ...]:
    if res.mode == "static":
        return (ThresholdMode.STATIC,)
    if res.mode == "dynamic":
        return (ThresholdMode.DYNAMIC,)
    return (ThresholdMode.STATIC, ThresholdMode.DYNAMIC)


def _mode_name(mode: ThresholdMode) -> str:
    return "static" if mode is ThresholdMode.STATIC else "dynamic"


def _write_mode_curves(
    curves: dict[ThresholdMode, SweepResult], stem: str
) -> dict[str, str]:
    paths = {}
    for mode, result in curves.items():
        path = f"{stem}_{_mode_name(mode)}.csv"
        write_results(result, path)
        paths[_mode_name(mode)] = path
    return paths


def _plot_curves(
    labeled: Sequence[tuple[str, SweepResult]],
    stem: str,
    title: str,
    x_label: str,
) -> str:
    series = [
        Series(
            label=label,
            x=result.values,
            y=tuple(point.pd for point in result.points),
        )
        for label, result in labeled
    ]
    path = f"{stem}.svg"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_line_chart(series, title, x_label, "probability of detection"))
    return path


def _cmd_sweep_snr(res: _Resolved) -> int:
    plan = _build_plan(res, Hypothesis.H1)
    grid = _snr_grid(res)
    curves = sweep_snr(plan, grid, modes=_modes_for(res), workers=int(res.workers))
    stem = _out_stem(res, "sweep_snr")
    for name, path in _write_mode_curves(curves, stem).items():
        _emit(f"output_csv_{name}", path)
    if res.plot:
        labeled = [(_mode_name(m), r) for m, r in curves.items()]
        _emit("output_svg", _plot_curves(labeled, stem, "Detection vs SNR", "SNR (dB)"))
    return 0


def _cmd_sweep_pfa(res: _Resolved) -> int:
    plan = _build_plan(res, Hypothesis.H1)
    grid = [float(v) for v in str(res.pfa_grid).split(",")]
    curves = sweep_pfa(plan, grid, modes=_modes_for(res), workers=int(res.workers))
    stem = _out_stem(res, "sweep_pfa")
    for name, path in _write_mode_curves(curves, stem).items():
        _emit(f"output_csv_{name}", path)
    if res.plot:
        labeled = [(_mode_name(m), r) for m, r in curves.items()]
        _emit(
            "output_svg",
            _plot_curves(labeled, stem, "Detection vs target Pfa", "target Pfa"),
        )
    return 0


def _cmd_sweep_factor(res: _Resolved) -> int:
    plan = _build_plan(res, Hypothesis.H1)
    factors = _FACTOR_LADDER if res.factor is None else (float(res.factor),)
    grid = _snr_grid(res)
    curves = sweep_threshold_factor(plan, factors, grid, workers=int(res.workers))
    stem = _out_stem(res, "sweep_factor")
    paths = {}
    for factor, result in curves.items():
        path = f"{stem}_factor_{factor:g}.csv"
        write_results(result, path)
        paths[factor] = path
        _emit(f"output_csv_factor_{factor:g}", path)
    if res.plot:
        labeled = [(f"factor {factor:g}", r) for factor, r in curves.items()]
        _emit(
            "output_svg",
            _plot_curves(labeled, stem, "Static threshold factor study", "SNR (dB)"),
        )
    return 0


_DISPATCH = {
    "sense": _cmd_sense,
    "sweep-snr": _cmd_sweep_snr,
    "sweep-pfa": _cmd_sweep_pfa,
    "sweep-factor": _cmd_sweep_factor,
    "estimate-noise": _cmd_estimate_noise,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("specsense: error: a command is required", file=sys.stderr)
        return 2
    try:
        resolved = _merge_options(args)
        _validate(resolved)
    except UsageError as exc:
        print(f"specsense: error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](resolved)
    except (EstimationFailure, RuntimeError, OSError, ValueError) as exc:
        print(f"specsense: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
