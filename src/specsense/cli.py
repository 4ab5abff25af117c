"""Command-line front end for sensing runs and Monte Carlo sweeps.

Output to stdout is line-oriented ``key=value`` pairs.  Exit codes:
0 success, 1 runtime failure, 2 usage or validation error.  Option
precedence: command-line flags override config-file keys, which override
the ``SPECSENSE_SEED`` environment fallback (seed only), which overrides
built-in defaults.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Sequence

from .detector import ThresholdMode, Verdict
from .harness import (
    TrialPlan,
    power_at_db,
    sense_once,
    sweep_pfa,
    sweep_snr,
    sweep_threshold_factor,
    write_results,
)
from .noise_estimator import EstimationFailure
from .signal_model import Hypothesis
from .svg import Series, render_line_chart

__all__ = ["main"]

_COMMANDS = {  # command -> its help line
    "sense": "run one sensing decision on a single synthesized frame",
    "sweep-snr": "Monte Carlo Pd/Pfa versus SNR",
    "sweep-pfa": "Monte Carlo Pd/Pfa versus the target false-alarm rate",
    "sweep-factor": "static-threshold scale-factor study versus SNR",
    "estimate-noise": "blind noise-power estimate of one synthesized frame",
}
_FACTOR_LADDER = (1.0, 1.5, 2.0, 2.5)
_CHART_LABELS = {  # (title, x-axis label) of each sweep's chart
    "sweep-snr": ("Detection vs SNR", "SNR (dB)"),
    "sweep-pfa": ("Detection vs target Pfa", "target Pfa"),
    "sweep-factor": ("Static threshold factor study", "SNR (dB)"),
}
_ENV_SEED = "SPECSENSE_SEED"

# Every option: key -> (type, or the tuple of its choices; default; help).
# The flag is ``--`` plus the key with ``-`` for ``_``, and a config file
# may set every key but ``config``.  A default of None is resolved by the
# command that reads the option.
_OPTIONS: dict[str, tuple[object, object, str]] = {
    "n": (int, 128, "detector window length"),
    "l": (int, 8, "covariance snapshot length"),
    "pfa": (float, 0.1, "target false-alarm probability"),
    "snr": (float, 0.0, "SNR in dB for fixed-SNR commands"),
    "snr_min": (float, -10.0, "sweep grid start (dB)"),
    "snr_max": (float, 10.0, "sweep grid end (dB)"),
    "snr_step": (float, 2.0, "sweep grid step (dB)"),
    "trials": (int, 10000, "Monte Carlo trials per point"),
    "mode": (("static", "dynamic"), None, "threshold mode (sweeps default to both)"),
    "factor": (float, None, "static threshold scale factor"),
    "mismatch_db": (float, 3.0, "half-width of per-trial noise wander (dB)"),
    "m_grid": (int, 100, "noise-estimator search grid size"),
    "seed": (int, 42, "master seed"),
    "out": (str, None, "output path stem or file"),
    "plot": (bool, False, "also write an SVG chart (sweeps only)"),
    "config": (str, None, "flat key = value config file"),
    "quick": (bool, False, "reduce trials tenfold for a fast pass"),
    "sigma_w2": (float, 1.0, "true noise power (total complex variance)"),
    "nominal": (float, None, "noise power assumed by the static threshold"),
    "sps": (int, None, "samples per QPSK symbol (default: snapshot length)"),
    "workers": (int, 1, "worker processes for sweeps"),
    "hypothesis": (("h0", "h1"), None, "scenario for single-frame commands"),
    "pfa_grid": (str, "0.01,0.02,0.05,0.1,0.2,0.3,0.5",
                 "comma-separated target-Pfa grid for sweep-pfa"),
}
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


class UsageError(Exception):
    """Invalid flag, config key, or value; maps to exit code 2."""


def _coerce(key: str, raw: str) -> object:
    """A config-file value as its option's type."""
    kind = _OPTIONS[key][0]
    value = raw.strip()
    if isinstance(kind, tuple):
        if value.lower() not in kind:
            raise UsageError(f"{key}: must be one of {', '.join(kind)}, got {raw!r}")
        return value.lower()
    try:
        if kind is bool:
            return _BOOL_WORDS[value.lower()]
        return kind(value)
    except (KeyError, ValueError):
        raise UsageError(f"{key}: expected {_KIND_NAMES[kind]}, got {raw!r}") from None


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
        if key not in _OPTIONS or key == "config":
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
    for name, help_line in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for key, (kind, _, help_text) in _OPTIONS.items():
            if kind is bool:
                spec = {"action": argparse.BooleanOptionalAction}
            elif isinstance(kind, tuple):
                spec = {"choices": kind}
            else:
                spec = {"type": kind}
            p.add_argument("--" + key.replace("_", "-"), default=None, help=help_text, **spec)
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
    merged = {key: default for key, (_, default, _) in _OPTIONS.items()}
    env_seed = _env_seed()
    if env_seed is not None:
        merged["seed"] = env_seed
    if args.config is not None:
        merged.update(_read_config_file(args.config))
    for key in _OPTIONS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return _Resolved(command=args.command, options=merged)


def _validate(res: _Resolved) -> None:
    o = res.options
    for key, (kind, _, _) in _OPTIONS.items():
        if kind is float and o[key] is not None and not math.isfinite(o[key]):
            raise UsageError(f"{key.replace('_', '-')}: must be finite (got {o[key]})")
    if o["l"] < 2:
        raise UsageError(f"l: must be at least 2 (got {o['l']})")
    if o["n"] < o["l"]:
        raise UsageError(f"n: must be at least l={o['l']} (got {o['n']})")
    # Whether the command runs the blind noise estimator; sweeps without
    # --mode run both modes, sense without it runs static.
    estimates = {"sense": o["mode"] == "dynamic", "sweep-factor": False,
                 "estimate-noise": True}.get(res.command, o["mode"] != "static")
    if estimates and o["n"] <= o["l"]:
        raise UsageError(
            f"n: must exceed l={o['l']} for a noise estimate (got {o['n']})"
        )
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
    if not math.isfinite(power_at_db(o["sigma_w2"], o["mismatch_db"])):
        raise UsageError(
            f"mismatch-db: too large, the wandering noise power "
            f"sigma-w2 * 10^(mismatch-db/10) is not finite (got {o['mismatch_db']})"
        )
    if o["nominal"] is not None and o["nominal"] <= 0.0:
        raise UsageError(f"nominal: must be positive (got {o['nominal']})")
    if o["factor"] is not None and o["factor"] <= 0.0:
        raise UsageError(f"factor: must be positive (got {o['factor']})")
    if o["snr_step"] <= 0.0:
        raise UsageError(f"snr-step: must be positive (got {o['snr_step']})")
    # No grid value has a wider float spacing than the end of larger
    # magnitude, so a step above half that spacing moves every value on.  A
    # smaller step can leave a value where it is, and the grid never ends.
    if o["snr_step"] <= math.ulp(max(abs(o["snr_min"]), abs(o["snr_max"]))) / 2.0:
        raise UsageError(
            f"snr-step: too small to advance the grid from snr-min={o['snr_min']} "
            f"to snr-max={o['snr_max']} (got {o['snr_step']})"
        )
    if o["snr_max"] < o["snr_min"]:
        raise UsageError(
            f"snr-max: must be at least snr-min={o['snr_min']} (got {o['snr_max']})"
        )
    for key in ("snr", "snr_min", "snr_max"):
        if not math.isfinite(power_at_db(o["sigma_w2"], o[key])):
            raise UsageError(
                f"{key.replace('_', '-')}: too large, the signal power "
                f"sigma-w2 * 10^(snr/10) is not finite (got {o[key]})"
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


def _build_plan(res: _Resolved, hypothesis: Hypothesis) -> TrialPlan:
    sigma_w2 = float(res.sigma_w2)
    nominal = sigma_w2 if res.nominal is None else float(res.nominal)
    factor = 1.0 if res.factor is None else float(res.factor)
    return TrialPlan(
        n_trials=max(100, int(res.trials) // 10) if res.quick else int(res.trials),
        n=int(res.n),
        l=int(res.l),
        target_pfa=float(res.pfa),
        mode=ThresholdMode.DYNAMIC if res.mode == "dynamic" else ThresholdMode.STATIC,
        sigma_w2_true=sigma_w2,
        sigma_nominal2=nominal * factor,
        sigma_s2=power_at_db(sigma_w2, float(res.snr)),
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
    _emit("verdict", "present" if decision.verdict is Verdict.PRESENT_H1 else "absent")
    return 0


def _cmd_estimate_noise(res: _Resolved) -> int:
    plan = _single_plan(res, Hypothesis.H0)
    _, estimate = sense_once(replace(plan, mode=ThresholdMode.DYNAMIC))
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


def _cmd_sweep(res: _Resolved) -> int:
    """sweep-snr, sweep-pfa or sweep-factor: one CSV per curve, then the chart."""
    plan = _build_plan(res, Hypothesis.H1)
    workers = int(res.workers)
    if res.command == "sweep-factor":
        factors = _FACTOR_LADDER if res.factor is None else (float(res.factor),)
        curves = sweep_threshold_factor(plan, factors, _snr_grid(res), workers=workers)
        named = {f"factor_{factor:g}": result for factor, result in curves.items()}
    else:
        if res.command == "sweep-snr":
            sweep, grid = sweep_snr, _snr_grid(res)
        else:
            sweep, grid = sweep_pfa, [float(v) for v in str(res.pfa_grid).split(",")]
        modes = (ThresholdMode.STATIC, ThresholdMode.DYNAMIC)
        if res.mode is not None:
            modes = (ThresholdMode(res.mode),)
        curves = sweep(plan, grid, modes=modes, workers=workers)
        named = {mode.value: result for mode, result in curves.items()}
    stem = str(res.out if res.out is not None else res.command.replace("-", "_"))
    stem = stem.removesuffix(".csv")
    for name, result in named.items():
        path = f"{stem}_{name}.csv"
        write_results(result, path)
        _emit(f"output_csv_{name}", path)
    if res.plot:
        series = [
            Series(label=name.replace("_", " "), x=result.values,
                   y=tuple(point.pd for point in result.points))
            for name, result in named.items()
        ]
        title, x_label = _CHART_LABELS[res.command]
        path = f"{stem}.svg"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_line_chart(series, title, x_label, "probability of detection"))
        _emit("output_svg", path)
    return 0


_DISPATCH = {
    "sense": _cmd_sense,
    "sweep-snr": _cmd_sweep,
    "sweep-pfa": _cmd_sweep,
    "sweep-factor": _cmd_sweep,
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
