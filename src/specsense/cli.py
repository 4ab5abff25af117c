"""Command-line front end for sensing runs and Monte Carlo sweeps.

Output to stdout is line-oriented ``key=value`` pairs.  Exit codes:
0 success, 1 runtime failure, 2 usage or validation error.  Option
precedence: command-line flags override config-file keys, which override
the ``SPECSENSE_SEED`` environment fallback (seed only), which overrides
built-in defaults.  Every source's text is parsed alike (:func:`_coerce`),
and every error names the flag that sets the value, or ``SPECSENSE_SEED``.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Callable, Sequence

from .detector import ThresholdMode
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
# The most points an SNR grid may have.  A sweep builds the grid, a plan for
# each point of each curve and the work units before any trial runs, so a
# step that is merely small (1e-9 dB across 3 000 dB asks for 3e12 points)
# would exhaust memory instead of failing.  10 000 points still step 0.01 dB
# across 100 dB.
_SNR_POINTS_MAX = 10_000

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
# TrialPlan field -> the option that sets it, and that a plan error on it names.
_PLAN_OPTIONS = {"n_trials": "trials", "n": "n", "l": "l", "target_pfa": "pfa", "mode": "mode",
                 "sigma_w2_true": "sigma_w2", "sigma_nominal2": "nominal", "sigma_s2": "snr",
                 "master_seed": "seed", "m_grid": "m_grid", "mismatch_db": "mismatch_db",
                 "samples_per_symbol": "sps"}
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean"}
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


class UsageError(Exception):
    """Invalid flag, config key, or value; maps to exit code 2."""


def _coerce(key: str, text: str, name: str | None = None) -> object:
    """Option ``key``'s value from its text, whichever source gave it.  An
    error names ``name``, by default the flag (``m-grid`` for ``m_grid``)."""
    kind = _OPTIONS[key][0]
    name = name or key.replace("_", "-")
    if isinstance(kind, tuple):
        if text.lower() not in kind:
            raise UsageError(f"{name}: must be one of {', '.join(kind)}, got {text!r}")
        return text.lower()
    try:
        value = _BOOL_WORDS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise UsageError(f"{name}: expected {_KIND_NAMES[kind]}, got {text!r}") from None
    if kind is float and not math.isfinite(value):  # most reach a plan, if at all, in a product
        raise UsageError(f"{name}: must be finite (got {value})")
    return value


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
        values[key] = _coerce(key, raw_value.strip())
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
        for key in reads:  # every value but a bool's arrives as text, for _coerce
            kind, _, help_text = _OPTIONS[key]
            if kind is bool:
                spec = {"action": argparse.BooleanOptionalAction}
            else:
                spec = {"metavar": "{%s}" % ",".join(kind)} if isinstance(kind, tuple) else {}
            p.add_argument("--" + key.replace("_", "-"), default=None, help=help_text, **spec)
    return parser


def _merge_options(args: argparse.Namespace) -> tuple[dict[str, object], dict[str, str]]:
    """Every option's value, from flag, config file, environment or default, and
    the name that an error on an option the environment set names instead of its
    flag.  An option the command does not read keeps its default, even if the
    config sets it."""
    reads = _COMMANDS[args.command][3]
    merged = {key: default for key, (_, default, _) in _OPTIONS.items()}
    # A bool flag's True or False is a word of _BOOL_WORDS once lower-cased.
    flags = {key: _coerce(key, str(text)) for key, text in vars(args).items()
             if key in reads and text is not None}
    names = {}
    env_seed = os.environ.get(_ENV_SEED, "")
    if env_seed.strip():  # set but blank is unset
        merged["seed"] = _coerce("seed", env_seed, _ENV_SEED)
        names["seed"] = _ENV_SEED
    config = _read_config_file(flags["config"]) if "config" in flags else {}
    for key, value in [*config.items(), *flags.items()]:
        if key in reads:
            merged[key] = value
            names.pop(key, None)
    return merged, names


def _validate(o: dict[str, object]) -> None:
    """The check :class:`TrialPlan` cannot make, as it sees no pool.  :func:`_coerce` has
    refused, under its flag, any text not a finite value of its option's kind."""
    if o["workers"] < 1:
        raise UsageError(f"workers: must be at least 1 (got {o['workers']})")


def _signal_power(o: dict[str, object], key: str) -> float:
    """The signal power at option ``key``'s SNR; a plan sees the power, not the dB value."""
    power = power_at_db(o["sigma_w2"], o[key])
    if not math.isfinite(power):
        raise UsageError(f"{key.replace('_', '-')}: too large, the signal power "
                         f"sigma-w2 * 10^(snr/10) is not finite (got {o[key]})")
    return power


def _plan_of(flag: str, field: str, got: object, make: Callable[[], TrialPlan]) -> TrialPlan:
    """The plan ``make()`` builds, whose ``field`` the CLI derived from the value
    ``got`` of ``flag``: an error on that field names the flag and states ``got``."""
    try:
        return make()
    except PlanError as exc:
        if exc.field != field:
            raise
        raise UsageError(f"{flag}: {exc.message.rpartition(' (got ')[0]} (got {got})") from None


def _build_plan(o: dict[str, object], snr: str = "snr") -> TrialPlan:
    """The plan of the options, at option ``snr``'s SNR, which a plan error
    on the signal power names."""
    fields = {field: o[key] for field, key in _PLAN_OPTIONS.items()}
    fields.update(  # the fields not set by their option's value alone
        n_trials=max(100, o["trials"] // 10) if o["quick"] and o["trials"] > 0 else o["trials"],
        mode=ThresholdMode(o["mode"] or "static"),  # a sweep's curves set their own
        sigma_nominal2=o["sigma_w2"] if o["nominal"] is None else o["nominal"],
        sigma_s2=_signal_power(o, snr))
    return _plan_of(snr.replace("_", "-"), "sigma_s2", o[snr], lambda: TrialPlan(**fields))


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
    _emit("verdict", decision.verdict.value)
    return 0


def _cmd_estimate_noise(command: str, o: dict[str, object]) -> int:
    _, estimate = sense_once(_build_plan({**o, "mode": "dynamic"}),
                             Hypothesis(o["hypothesis"] or "h0"))
    for name in ("sigma_hat2", "k_hat", "beta_hat", "sigma_lo2", "sigma_hi2", "p_ratio",
                 "degenerate_grid"):
        _emit(name, getattr(estimate, name))
    best = min(range(len(estimate.fit_scores)), key=estimate.fit_scores.__getitem__)
    _emit("fit_score_best", estimate.fit_scores[best])
    _emit("fit_index_best", best)
    return 0


def _snr_grid(o: dict[str, object]) -> list[float]:
    """The points snr-min + i * snr-step, i = 0, 1, ..., none past snr-max."""
    start, stop, step = o["snr_min"], o["snr_max"], o["snr_step"]
    if step <= 0.0:
        raise UsageError(f"snr-step: must be positive (got {o['snr_step']})")
    # No grid value has a wider float spacing than the end of larger
    # magnitude, so a step above half that spacing moves every value on.  A
    # smaller step can leave a value where it is, and labels would repeat.
    if step <= math.ulp(max(abs(start), abs(stop))) / 2.0:
        raise UsageError(f"snr-step: too small to advance the grid from snr-min={o['snr_min']} "
                         f"to snr-max={o['snr_max']} (got {o['snr_step']})")
    if stop < start:
        raise UsageError(f"snr-max: must be at least snr-min={o['snr_min']} (got {o['snr_max']})")
    # The sweep's plan checks snr-max's power too, but only after the grid is
    # listed: an snr-max of 1e9 would first list 5e8 points.
    for key in ("snr_min", "snr_max"):
        _signal_power(o, key)
    points = math.floor((stop - start) / step + 1e-9) + 1
    if points > _SNR_POINTS_MAX:
        raise UsageError(f"snr-step: too small, the grid from snr-min={o['snr_min']} to "
                         f"snr-max={o['snr_max']} would have {points} points, more than "
                         f"{_SNR_POINTS_MAX} (got {o['snr_step']})")
    return [round(start + i * step, 12) + 0.0 for i in range(points)]  # + 0.0: never -0.0


def _pfa_grid(o: dict[str, object]) -> list[float]:
    return [_coerce("pfa", entry, "pfa-grid") for entry in o["pfa_grid"].split(",")]


def _cmd_sweep(command: str, o: dict[str, object]) -> int:
    """sweep-snr, sweep-pfa or sweep-factor: one CSV per curve, then the chart."""
    grid = _pfa_grid(o) if command == "sweep-pfa" else _snr_grid(o)
    # An SNR sweep's plan takes the grid's largest signal power: every row
    # passes the rules it passes, and a rule it breaks names --snr-max.
    plan = _build_plan(o, "snr" if command == "sweep-pfa" else "snr_max")
    # The plan passed, so a rule that a target or factor of the sweep breaks names it.
    if command == "sweep-pfa":
        for pfa in grid:
            _plan_of("pfa-grid", "target_pfa", pfa, lambda: replace(plan, target_pfa=pfa))
    elif command == "sweep-factor":  # each factor scales the plan's nominal noise power
        factors = _FACTOR_LADDER if o["factor"] is None else (o["factor"],)
        nominal = plan.sigma_nominal2
        for f in factors:
            _plan_of("factor", "sigma_nominal2", f"factor {f} * nominal {nominal} = {nominal * f}",
                     lambda: replace(plan, sigma_nominal2=nominal * f))
    failure = None
    try:
        if command == "sweep-factor":
            curves = sweep_threshold_factor(plan, factors, grid, workers=o["workers"])
        else:
            sweep = sweep_snr if command == "sweep-snr" else sweep_pfa
            modes = tuple(ThresholdMode) if o["mode"] is None else (plan.mode,)
            curves = sweep(plan, grid, modes=modes, workers=o["workers"])
    except FailureGuardError as exc:  # write the completed rows, then fail
        curves, failure = exc.curves, exc
    named = {key.value if isinstance(key, ThresholdMode) else f"factor_{key:g}": result
             for key, result in curves.items()}
    stem = o["out"] if o["out"] is not None else command.replace("-", "_")
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
    # argparse reads a token that begins with "-" as a flag unless it looks like
    # -1 or -.5, so one after a flag that takes a value (--snr -1e0) is joined to it.
    tokens = list(sys.argv[1:] if argv is None else argv)
    reads = _COMMANDS[tokens[0]][3] if tokens and tokens[0] in _COMMANDS else ()
    takes = {"--" + key.replace("_", "-") for key in reads if _OPTIONS[key][0] is not bool}
    joined: list[str] = []
    for token in tokens:
        if joined and joined[-1] in takes and token[:1] == "-" and token[:2] != "--":
            joined[-1] += "=" + token
        else:
            joined.append(token)
    args = parser.parse_args(joined)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("specsense: error: a command is required", file=sys.stderr)
        return 2
    names: dict[str, str] = {}
    try:
        options, names = _merge_options(args)
        _validate(options)
        return _COMMANDS[args.command][1](args.command, options)
    # Every handler, and every sweep it calls, builds all its grids and plans
    # before it writes any output, so a usage or plan error leaves no file.
    except UsageError as exc:
        print(f"specsense: error: {exc}", file=sys.stderr)
        return 2
    except PlanError as exc:
        key = _PLAN_OPTIONS[exc.field]
        flag = names.get(key, key.replace("_", "-"))
        print(f"specsense: error: {flag}: {exc.message}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, ValueError) as exc:  # EstimationFailure included
        print(f"specsense: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
