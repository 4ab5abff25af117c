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
from typing import Sequence

from .detector import ThresholdMode, Verdict
from .harness import (
    FailureGuardError,
    PlanError,
    TrialPlan,
    power_at_db,
    sense_once,
    sweep_pfa,
    sweep_snr,
    sweep_threshold_factor,
    write_results,
)
from .signal_model import Hypothesis
from .svg import Series, render_line_chart

__all__ = ["main"]

_FACTOR_LADDER = (1.0, 1.5, 2.0, 2.5)
_ENV_SEED = "SPECSENSE_SEED"

# Every option: key -> (type, or the tuple of its choices; default; help).
# The flag is ``--`` plus the key with ``-`` for ``_``, and only the
# commands that read an option take its flag (``_COMMANDS``).  A config file
# may name every key but ``config``.  A default of None is resolved by the
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
    "factor": (float, None, "one static threshold scale factor instead of the ladder"),
    "mismatch_db": (float, 3.0, "half-width of per-trial noise wander (dB)"),
    "m_grid": (int, 100, "noise-estimator search grid size"),
    "seed": (int, 42, "master seed"),
    "out": (str, None, "output path stem or file"),
    "plot": (bool, False, "also write an SVG chart"),
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
# TrialPlan field -> the flag that sets it, where the two names differ.
_FLAGS = {"n_trials": "trials", "target_pfa": "pfa", "sigma_w2_true": "sigma-w2",
          "sigma_nominal2": "nominal", "sigma_s2": "snr", "master_seed": "seed",
          "m_grid": "m-grid", "mismatch_db": "mismatch-db", "samples_per_symbol": "sps"}
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
    for name, (help_line, _, _, reads) in _COMMANDS.items():
        # No abbreviations: sweep-pfa would take --pfa, which it does not read, as --pfa-grid.
        p = sub.add_parser(name, help=help_line, allow_abbrev=False)
        for key in reads:
            kind, _, help_text = _OPTIONS[key]
            if kind is bool:
                spec = {"action": argparse.BooleanOptionalAction}
            elif isinstance(kind, tuple):
                spec = {"choices": kind}
            else:
                spec = {"type": kind}
            p.add_argument("--" + key.replace("_", "-"), default=None, help=help_text, **spec)
    return parser


def _env_seed() -> int | None:
    raw = os.environ.get(_ENV_SEED)
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{_ENV_SEED}: expected an integer, got {raw!r}") from None


def _merge_options(args: argparse.Namespace) -> dict[str, object]:
    """Every option's value, from flag, config file, environment or default.  An
    option the command does not read keeps its default, even if the config sets it."""
    reads = _COMMANDS[args.command][3]
    merged = {key: default for key, (_, default, _) in _OPTIONS.items()}
    env_seed = _env_seed()
    if env_seed is not None:
        merged["seed"] = env_seed
    if args.config is not None:
        merged.update((key, value) for key, value in _read_config_file(args.config).items()
                      if key in reads)
    merged.update((key, value) for key, value in vars(args).items()
                  if key in reads and value is not None)
    return merged


def _validate(o: dict[str, object]) -> None:
    """The checks :class:`TrialPlan` cannot make: it sees no pool, and only
    the plan's powers, not the options they came from."""
    for key, (kind, _, _) in _OPTIONS.items():  # most reach a plan, if at all, in a product
        if kind is float and o[key] is not None and not math.isfinite(o[key]):
            raise UsageError(f"{key.replace('_', '-')}: must be finite (got {o[key]})")
    if o["trials"] < 1:  # --quick would turn 0 into 100
        raise UsageError(f"trials: must be positive (got {o['trials']})")
    if o["factor"] is not None and o["factor"] <= 0.0:  # the nominal times it hides two negatives
        raise UsageError(f"factor: must be positive (got {o['factor']})")
    if o["workers"] < 1:
        raise UsageError(f"workers: must be at least 1 (got {o['workers']})")


def _signal_power(o: dict[str, object], key: str) -> float:
    """The signal power at option ``key``'s SNR; a plan sees the power, not the dB value."""
    power = power_at_db(float(o["sigma_w2"]), float(o[key]))
    if not math.isfinite(power):
        raise UsageError(f"{key.replace('_', '-')}: too large, the signal power "
                         f"sigma-w2 * 10^(snr/10) is not finite (got {o[key]})")
    return power


def _build_plan(o: dict[str, object], snr: str = "snr") -> TrialPlan:
    """The plan of the options, at option ``snr``'s SNR, which a plan error
    on the signal power names."""
    sigma_w2, sigma_s2 = float(o["sigma_w2"]), _signal_power(o, snr)
    try:
        return TrialPlan(
            n_trials=max(100, int(o["trials"]) // 10) if o["quick"] else int(o["trials"]),
            n=int(o["n"]),
            l=int(o["l"]),
            target_pfa=float(o["pfa"]),
            mode=ThresholdMode.DYNAMIC if o["mode"] == "dynamic" else ThresholdMode.STATIC,
            sigma_w2_true=sigma_w2,
            sigma_nominal2=sigma_w2 if o["nominal"] is None else float(o["nominal"]),
            sigma_s2=sigma_s2,
            master_seed=int(o["seed"]),
            m_grid=int(o["m_grid"]),
            mismatch_db=float(o["mismatch_db"]),
            samples_per_symbol=None if o["sps"] is None else int(o["sps"]),
        )
    except PlanError as exc:
        if exc.field != "sigma_s2":
            raise
        rule = exc.message.rpartition(" (got ")[0]  # the value is the SNR, not its power
        raise UsageError(f"{snr.replace('_', '-')}: {rule} (got {float(o[snr])})") from None


def _emit(key: str, value: object) -> None:
    rendered = str(value)  # a float's str is its shortest round-trip repr
    if isinstance(value, bool):
        rendered = "true" if value else "false"
    print(f"{key}={rendered}")


def _cmd_sense(command: str, o: dict[str, object]) -> int:
    decision, estimate = sense_once(_build_plan(o), Hypothesis(o["hypothesis"] or "h1"))
    _emit("statistic", decision.statistic)
    _emit("threshold", decision.threshold)
    if estimate is not None:
        _emit("sigma_hat2", estimate.sigma_hat2)
    _emit("verdict", "present" if decision.verdict is Verdict.PRESENT_H1 else "absent")
    return 0


def _cmd_estimate_noise(command: str, o: dict[str, object]) -> int:
    _, estimate = sense_once(_build_plan({**o, "mode": "dynamic"}),
                             Hypothesis(o["hypothesis"] or "h0"))
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


def _snr_grid(o: dict[str, object]) -> list[float]:
    start, stop, step = float(o["snr_min"]), float(o["snr_max"]), float(o["snr_step"])
    if step <= 0.0:
        raise UsageError(f"snr-step: must be positive (got {o['snr_step']})")
    # No grid value has a wider float spacing than the end of larger
    # magnitude, so a step above half that spacing moves every value on.  A
    # smaller step can leave a value where it is, and the grid never ends.
    if step <= math.ulp(max(abs(start), abs(stop))) / 2.0:
        raise UsageError(f"snr-step: too small to advance the grid from snr-min={o['snr_min']} "
                         f"to snr-max={o['snr_max']} (got {o['snr_step']})")
    if stop < start:
        raise UsageError(f"snr-max: must be at least snr-min={o['snr_min']} (got {o['snr_max']})")
    for key in ("snr_min", "snr_max"):
        _signal_power(o, key)
    grid, value = [], start
    while value <= stop + 1e-9:
        grid.append(round(value, 12))
        value += step
    return grid


def _pfa_grid(o: dict[str, object]) -> list[float]:
    grid = []
    for raw in str(o["pfa_grid"]).split(","):
        try:
            grid.append(float(raw))
        except ValueError:
            raise UsageError(f"pfa-grid: {raw.strip()!r} is not a number") from None
    for value in grid:  # a plan would name --pfa, not --pfa-grid
        if not 0.0 < value < 1.0:
            raise UsageError(f"pfa-grid: entries must be strictly between 0 and 1 (got {value})")
    return grid


def _cmd_sweep(command: str, o: dict[str, object]) -> int:
    """sweep-snr, sweep-pfa or sweep-factor: one CSV per curve, then the chart."""
    workers = int(o["workers"])
    grid = _pfa_grid(o) if command == "sweep-pfa" else _snr_grid(o)
    # An SNR sweep's plan takes the grid's largest signal power: every row
    # passes the rules it passes, and a rule it breaks names --snr-max.
    plan = _build_plan(o, "snr" if command == "sweep-pfa" else "snr_max")
    failure = None
    try:
        if command == "sweep-factor":  # each factor scales the plan's nominal noise power
            factors = _FACTOR_LADDER if o["factor"] is None else (float(o["factor"]),)
            curves = sweep_threshold_factor(plan, factors, grid, workers=workers)
        else:
            sweep = sweep_snr if command == "sweep-snr" else sweep_pfa
            modes = tuple(ThresholdMode) if o["mode"] is None else (ThresholdMode(o["mode"]),)
            curves = sweep(plan, grid, modes=modes, workers=workers)
    except FailureGuardError as exc:  # write the completed rows, then fail
        curves, failure = exc.curves, exc
    named = {key.value if isinstance(key, ThresholdMode) else f"factor_{key:g}": result
             for key, result in curves.items()}
    stem = str(o["out"] if o["out"] is not None else command.replace("-", "_"))
    stem = stem.removesuffix(".csv")
    for name, result in named.items():
        path = f"{stem}_{name}.csv"
        write_results(result, path)
        _emit(f"output_csv_{name}", path)
    if failure is not None:
        raise failure
    if o["plot"]:
        series = [
            Series(label=name.replace("_", " "), x=result.values,
                   y=tuple(point.pd for point in result.points))
            for name, result in named.items()
        ]
        title, x_label = _COMMANDS[command][2]
        path = f"{stem}.svg"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_line_chart(series, title, x_label, "probability of detection"))
        _emit("output_svg", path)
    return 0


_SHARED = ("config", "seed", "n", "l", "sigma_w2", "mismatch_db", "sps")  # every command's
_SWEEPS = ("trials", "quick", "workers", "out", "plot", "nominal")  # every sweep's

# command -> (help line, handler, (chart title, x-axis label) of a sweep,
# the options it reads, which are the flags it takes)
_COMMANDS = {
    "sense": ("run one sensing decision on a single synthesized frame", _cmd_sense, None,
              _SHARED + ("snr", "pfa", "mode", "nominal", "m_grid", "hypothesis")),
    "sweep-snr": ("Monte Carlo Pd/Pfa versus SNR", _cmd_sweep, ("Detection vs SNR", "SNR (dB)"),
                  _SHARED + _SWEEPS + ("pfa", "mode", "m_grid", "snr_min", "snr_max", "snr_step")),
    "sweep-pfa": ("Monte Carlo Pd/Pfa versus the target false-alarm rate", _cmd_sweep,
                  ("Detection vs target Pfa", "target Pfa"),
                  _SHARED + _SWEEPS + ("snr", "mode", "m_grid", "pfa_grid")),
    "sweep-factor": ("static-threshold scale-factor study versus SNR", _cmd_sweep,
                     ("Static threshold factor study", "SNR (dB)"),
                     _SHARED + _SWEEPS + ("pfa", "factor", "snr_min", "snr_max", "snr_step")),
    "estimate-noise": ("blind noise-power estimate of one synthesized frame",
                       _cmd_estimate_noise, None, _SHARED + ("snr", "m_grid", "hypothesis")),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("specsense: error: a command is required", file=sys.stderr)
        return 2
    try:
        options = _merge_options(args)
        _validate(options)
        return _COMMANDS[args.command][1](args.command, options)
    # Every handler, and every sweep it calls, builds all its grids and plans
    # before it writes any output, so a usage or plan error leaves no file.
    except UsageError as exc:
        print(f"specsense: error: {exc}", file=sys.stderr)
        return 2
    except PlanError as exc:
        print(f"specsense: error: {_FLAGS.get(exc.field, exc.field)}: {exc.message}",
              file=sys.stderr)
        return 2
    except (RuntimeError, OSError, ValueError) as exc:  # EstimationFailure included
        print(f"specsense: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
