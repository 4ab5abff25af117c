"""Tests of the command-line front end: parsing, precedence, exit codes."""
import argparse
import multiprocessing
import runpy
import sys

import numpy as np
import pytest

import specsense.harness as harness
from specsense import cli
from specsense.cli import main
from specsense.detector import ThresholdMode
from specsense.harness import TrialPlan, run_point, sweep_snr, write_results


def _lines(capsys) -> dict[str, str]:
    out = capsys.readouterr().out
    pairs = [line.split("=", 1) for line in out.strip().splitlines() if "=" in line]
    return {k: v for k, v in pairs}


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    assert "command" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_module_runs_as_a_script(monkeypatch, capsys):
    # python -m specsense.cli: main's code becomes the exit status.
    monkeypatch.delitem(sys.modules, "specsense.cli")  # runpy warns on a module already imported
    monkeypatch.setattr("sys.argv", ["specsense", "sense", "--mode", "static"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("specsense.cli", run_name="__main__")
    assert exc.value.code == 0
    assert "verdict=" in capsys.readouterr().out


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sense", "--bogus", "1"])
    assert exc.value.code == 2


def test_invalid_pfa_names_flag(capsys):
    assert main(["sense", "--pfa", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "pfa" in err and "0" in err and "1" in err


def test_invalid_mode_choice_exits_two(capsys):
    # Flag text is parsed as config text is, so a bad choice is a usage
    # error that names its flag, not an argparse exit.
    assert main(["sense", "--mode", "sideways"]) == 2
    assert capsys.readouterr().err == (
        "specsense: error: mode: must be one of static, dynamic, got 'sideways'\n")


def test_sense_static_output_shape(capsys):
    assert main(["sense", "--mode", "static", "--seed", "3",
                 "--mismatch-db", "0"]) == 0
    kv = _lines(capsys)
    assert set(kv) == {"statistic", "threshold", "verdict"}
    assert kv["verdict"] in ("present", "absent")
    assert float(kv["threshold"]) == pytest.approx(148.5048250487136)


def test_sense_dynamic_reports_estimate(capsys):
    assert main(["sense", "--mode", "dynamic", "--snr", "-2",
                 "--seed", "1"]) == 0
    kv = _lines(capsys)
    assert set(kv) == {"statistic", "threshold", "sigma_hat2", "verdict"}


def test_sense_deterministic_across_reruns(capsys):
    argv = ["sense", "--mode", "dynamic", "--snr", "-2", "--seed", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_estimate_noise_prints_diagnostics(capsys):
    assert main(["estimate-noise", "--seed", "9", "--mismatch-db", "0"]) == 0
    kv = _lines(capsys)
    expected = {
        "sigma_hat2", "k_hat", "beta_hat", "sigma_lo2", "sigma_hi2",
        "p_ratio", "degenerate_grid", "fit_score_best", "fit_index_best",
    }
    assert set(kv) == expected
    assert 0.5 < float(kv["sigma_hat2"]) < 2.0
    assert kv["degenerate_grid"] in ("true", "false")


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("SPECSENSE_SEED", "9")
    assert main(["estimate-noise", "--mismatch-db", "0"]) == 0
    via_env = capsys.readouterr().out
    monkeypatch.delenv("SPECSENSE_SEED")
    assert main(["estimate-noise", "--seed", "9", "--mismatch-db", "0"]) == 0
    assert capsys.readouterr().out == via_env


def test_flag_overrides_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("SPECSENSE_SEED", "9")
    assert main(["estimate-noise", "--seed", "11", "--mismatch-db", "0"]) == 0
    with_flag = capsys.readouterr().out
    monkeypatch.setenv("SPECSENSE_SEED", "1234")
    assert main(["estimate-noise", "--seed", "11", "--mismatch-db", "0"]) == 0
    assert capsys.readouterr().out == with_flag


def test_invalid_env_seed_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("SPECSENSE_SEED", "not-a-number")
    assert main(["sense"]) == 2
    assert "SPECSENSE_SEED" in capsys.readouterr().err


def test_config_unknown_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("not_a_real_option = 5\n")
    assert main(["sense", "--config", str(cfg)]) == 2
    assert "not_a_real_option" in capsys.readouterr().err


def test_config_malformed_line_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("trials 500\n")
    assert main(["sense", "--config", str(cfg)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_config_missing_file_exits_two(tmp_path, capsys):
    assert main(["sense", "--config", str(tmp_path / "absent.txt")]) == 2
    assert "config" in capsys.readouterr().err


def test_flag_beats_config_value(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "trials = 150          # flag must win over this\n"
        "seed = 77\n"
        "mismatch-db = 0\n"
        "mode = static\n"
        "snr-min = -2\n"
        "snr-max = -2\n"
    )
    assert main(["sweep-snr", "--config", str(cfg), "--trials", "250",
                 "--out", "got"]) == 0
    capsys.readouterr()

    plan = TrialPlan(
        n_trials=250, mode=ThresholdMode.STATIC, master_seed=77,
        sigma_s2=10 ** (-0.2), mismatch_db=0.0,
    )
    expected = tmp_path / "expected.csv"
    curves = sweep_snr(plan, [-2.0], modes=(ThresholdMode.STATIC,))
    write_results(curves[ThresholdMode.STATIC], str(expected))
    assert (tmp_path / "got_static.csv").read_bytes() == expected.read_bytes()


def test_config_comments_and_hyphen_keys(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("# full-line comment\nm-grid = 64\nseed = 5  # trailing\n")
    assert main(["estimate-noise", "--config", str(cfg),
                 "--mismatch-db", "0"]) == 0
    kv = _lines(capsys)
    assert int(kv["fit_index_best"]) < 64


def test_sweep_snr_writes_both_modes_and_plot(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-snr", "--trials", "128", "--n", "64",
                 "--snr-min", "-2", "--snr-max", "0", "--snr-step", "2",
                 "--mismatch-db", "0", "--out", "curve.csv", "--plot"]) == 0
    kv = _lines(capsys)
    assert kv["output_csv_static"] == "curve_static.csv"
    assert kv["output_csv_dynamic"] == "curve_dynamic.csv"
    assert kv["output_svg"] == "curve.svg"
    static = (tmp_path / "curve_static.csv").read_text()
    assert static.splitlines()[0] == (
        "sweep_value,pd,pfa,pd_ci,pfa_ci,mean_sigma_hat2,failed_trials"
    )
    assert len(static.splitlines()) == 3  # header + two grid points
    svg = (tmp_path / "curve.svg").read_text()
    assert svg.startswith("<?xml") and "<polyline" in svg


@pytest.mark.parametrize("workers", [1, 2])
def test_tripped_failure_guard_keeps_the_finished_rows(tmp_path, capsys, monkeypatch, workers):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the stand-in estimator only when forked")
    monkeypatch.chdir(tmp_path)
    args = ["sweep-snr", "--trials", "256", "--n", "32", "--l", "4", "--snr-min", "-10",
            "--snr-max", "10", "--snr-step", "10", "--mismatch-db", "0", "--plot",
            "--workers", str(workers)]
    assert main(args + ["--out", "whole"]) == 0
    capsys.readouterr()
    real = harness.estimate_noise_batch

    def fails_at_10_db(frames, m_grid):
        # Only the H1 frames of the 10 dB point hold about 11 times the
        # noise power.
        sigma = real(frames, m_grid)
        sigma[np.mean(np.abs(frames) ** 2, axis=(1, 2)) > 5.0] = np.nan
        return sigma

    monkeypatch.setattr(harness, "estimate_noise_batch", fails_at_10_db)
    assert main(args + ["--out", "part"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "specsense: failure: noise estimation failed in 256/256 trials\n"
    assert captured.out.splitlines() == ["output_csv_static=part_static.csv",
                                         "output_csv_dynamic=part_dynamic.csv"]
    assert not (tmp_path / "part.svg").exists()
    static, dynamic = ((tmp_path / f"{stem}_static.csv").read_text() for stem in ("whole", "part"))
    assert dynamic == static  # the static curve never estimates, so it is whole
    whole, part = ((tmp_path / f"{stem}_dynamic.csv").read_text().splitlines()
                   for stem in ("whole", "part"))
    assert part == whole[:3]  # the header, -10 dB and 0 dB
    assert whole[3].startswith("10.0,")


def test_sweep_snr_single_mode(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-snr", "--trials", "128", "--mode", "static",
                 "--snr-min", "0", "--snr-max", "0",
                 "--mismatch-db", "0", "--out", "single"]) == 0
    kv = _lines(capsys)
    assert "output_csv_static" in kv
    assert "output_csv_dynamic" not in kv


def test_sweep_factor_default_ladder(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-factor", "--trials", "128",
                 "--snr-min", "-2", "--snr-max", "0",
                 "--mismatch-db", "0", "--out", "fac"]) == 0
    kv = _lines(capsys)
    assert sorted(kv) == [
        "output_csv_factor_1", "output_csv_factor_1.5",
        "output_csv_factor_2", "output_csv_factor_2.5",
    ]
    for path in kv.values():
        assert (tmp_path / path).exists()


def test_sweep_factor_scales_the_nominal_noise_power(tmp_path, capsys, monkeypatch):
    # --nominal once left sweep-factor's CSVs unchanged.
    monkeypatch.chdir(tmp_path)
    common = ["sweep-factor", "--trials", "128", "--snr-min", "-2", "--snr-max", "0"]
    assert main(common + ["--nominal", "2", "--factor", "1", "--out", "nominal"]) == 0
    assert main(common + ["--factor", "2", "--out", "factor"]) == 0
    capsys.readouterr()
    nominal = (tmp_path / "nominal_factor_1.csv").read_bytes()
    assert nominal == (tmp_path / "factor_factor_2.csv").read_bytes()


def test_sweep_pfa_grid_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-pfa", "--trials", "128", "--mode", "static",
                 "--pfa-grid", "0.1,0.3", "--mismatch-db", "0",
                 "--out", "roc"]) == 0
    text = (tmp_path / "roc_static.csv").read_text()
    rows = text.strip().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0.1", "0.3"]


def test_bad_pfa_grid_exits_two(capsys):
    assert main(["sweep-pfa", "--pfa-grid", "0.1,owl"]) == 2
    assert "pfa-grid" in capsys.readouterr().err
    assert main(["sweep-pfa", "--pfa-grid", "0.1,1.5"]) == 2


def test_an_snr_grid_through_zero_labels_it_zero(tmp_path, capsys):
    # -1 plus ten steps of 0.1 sums to -1.4e-16, which rounded to 12 places
    # once labelled its row -0.0.
    out = tmp_path / "z"
    assert main(["sweep-snr", "--quick", "--trials", "100", "--snr-min", "-1", "--snr-max", "1",
                 "--snr-step", "0.1", "--mode", "static", "--out", str(out)]) == 0
    capsys.readouterr()
    labels = [row.split(",")[0] for row in (tmp_path / "z_static.csv").read_text().splitlines()]
    assert labels[11] == "0.0" and not any(label.startswith("-0.0") for label in labels)


@pytest.mark.parametrize("grid", [("0", "0", "1e-10"), ("1", "1", "1e-13"), ("-10", "10", "3")],
                         ids=["step-below-slack", "step-far-below-slack", "stops-short"])
def test_an_snr_grid_never_passes_snr_max(grid, tmp_path, capsys):
    # Adding the step until snr-max + 1e-9 once wrote 11 rows, up to 1e-09,
    # for the first grid, and 10 009 rows of 1 001 labels for the second.
    start, stop, step = grid
    out = tmp_path / "g"
    assert main(["sweep-snr", "--quick", "--trials", "100", "--mode", "static", "--snr-min",
                 start, "--snr-max", stop, "--snr-step", step, "--out", str(out)]) == 0
    capsys.readouterr()
    labels = [float(row.split(",")[0]) for row
              in (tmp_path / "g_static.csv").read_text().splitlines()[1:]]
    points = int((float(stop) - float(start)) // float(step)) + 1
    assert labels == [float(start) + i * float(step) for i in range(points)]
    assert labels[-1] <= float(stop)


@pytest.mark.parametrize(("stop", "step", "points"),
                         [("3000", "1e-9", 3_000_000_000_001), ("1000", "0.1", 10_001)])
def test_an_snr_grid_of_too_many_points_exits_two(stop, step, points, tmp_path, capsys):
    # The first grid passed every check and listed labels until memory ran
    # out: a MemoryError traceback and exit 1 under a 1.2 GB address-space cap.
    assert main(["sweep-snr", "--quick", "--mode", "static", "--snr-min", "0", "--snr-max", stop,
                 "--snr-step", step, "--out", str(tmp_path / "never")]) == 2
    err = capsys.readouterr().err
    assert f"snr-step: too small, the grid from snr-min=0.0 to snr-max={float(stop)} would " \
           f"have {points} points, more than {cli._SNR_POINTS_MAX} (got {float(step)})" in err
    assert "Traceback" not in err and list(tmp_path.glob("never*")) == []


def test_an_snr_grid_may_have_the_most_points():
    grid = cli._snr_grid({"snr_min": 0.0, "snr_max": 999.9, "snr_step": 0.1, "sigma_w2": 1.0})
    assert len(grid) == cli._SNR_POINTS_MAX and grid[-1] == 999.9


def test_unwritable_output_exits_one(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out"
    assert main(["sweep-snr", "--trials", "128", "--mode", "static",
                 "--snr-min", "0", "--snr-max", "0", "--mismatch-db", "0",
                 "--out", str(missing_dir)]) == 1
    assert "failure" in capsys.readouterr().err


def test_quick_flag_reduces_work(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-snr", "--trials", "3000", "--quick", "--mode",
                 "static", "--snr-min", "0", "--snr-max", "0",
                 "--mismatch-db", "0", "--out", "q"]) == 0
    capsys.readouterr()
    row = (tmp_path / "q_static.csv").read_text().strip().splitlines()[1]
    pfa = float(row.split(",")[2])
    ci = float(row.split(",")[4])
    # CI halfwidth implies the trial count: 300, not 3000
    implied = 2.576 ** 2 * pfa * (1 - pfa) / ci**2
    assert 250 < implied < 350


def _sample(kind) -> tuple[str, object]:
    """A non-default value of an option kind, as config text and as parsed."""
    if isinstance(kind, tuple):
        return kind[-1], kind[-1]
    return {int: ("3", 3), float: ("0.25", 0.25), bool: ("yes", True), str: ("abc", "abc")}[kind]


def _sweep_out(argv: list[str], tmp_path) -> list[str]:
    """``--out`` into ``tmp_path`` for a sweep, the only commands that take it."""
    return ["--out", str(tmp_path / "never")] if argv[0].startswith("sweep") else []


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_option_resolves_alike_from_flag_and_config(command, tmp_path):
    keys = [key for key in cli._COMMANDS[command][3] if key != "config"]
    argv, lines = [command], []
    for key in keys:
        kind = cli._OPTIONS[key][0]
        text, _ = _sample(kind)
        flag = "--" + key.replace("_", "-")
        argv += [flag] if kind is bool else [flag, text]
        lines.append(f"{key} = {text}")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("\n".join(lines) + "\n")
    parser = cli._build_parser()
    from_flags, _ = cli._merge_options(parser.parse_args(argv))
    from_config, _ = cli._merge_options(parser.parse_args([command, "--config", str(cfg)]))
    for key in keys:
        want = _sample(cli._OPTIONS[key][0])[1]
        assert from_flags[key] == from_config[key] == want, key
        assert type(from_flags[key]) is type(from_config[key]) is type(want), key


# The flags each command takes: every command's, then its own.
_EVERY_COMMAND = "config seed n l sigma-w2 mismatch-db sps"
_OWN_FLAGS = {
    "sense": "snr pfa mode nominal m-grid hypothesis",
    "estimate-noise": "snr m-grid hypothesis",
    "sweep-snr": "trials quick workers out plot nominal pfa mode m-grid snr-min snr-max snr-step",
    "sweep-pfa": "trials quick workers out plot nominal snr mode m-grid pfa-grid",
    "sweep-factor": "trials quick workers out plot nominal pfa factor snr-min snr-max snr-step",
}
_TAKES = {command: set(f"{_EVERY_COMMAND} {own}".split()) for command, own in _OWN_FLAGS.items()}
_REFUSED = [(command, key.replace("_", "-")) for command in _TAKES for key in cli._OPTIONS
            if key.replace("_", "-") not in _TAKES[command]]


def test_each_command_takes_exactly_the_flags_it_reads():
    parser = cli._build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    taken = {name: {a.dest.replace("_", "-") for a in sub._actions if a.dest != "help"}
             for name, sub in commands.choices.items()}
    assert taken == _TAKES
    assert sum(len(flags) for flags in taken.values()) == 77
    assert len(_REFUSED) == 38


@pytest.mark.parametrize(("command", "flag"), _REFUSED, ids=[f"{c}-{f}" for c, f in _REFUSED])
def test_a_flag_its_command_does_not_read_exits_two(command, flag, capsys):
    # Each of these was once accepted and ignored.
    kind = cli._OPTIONS[flag.replace("-", "_")][0]
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{flag}"] + ([] if kind is bool else [_sample(kind)[0]]))
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_config_key_its_command_does_not_read_keeps_its_default(command, tmp_path):
    # One config file may serve several commands.
    keys = [key for key in cli._OPTIONS if key != "config"]
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{key} = {_sample(cli._OPTIONS[key][0])[0]}\n" for key in keys))
    got, _ = cli._merge_options(cli._build_parser().parse_args([command, "--config", str(cfg)]))
    for key in keys:
        kind, default, _ = cli._OPTIONS[key]
        assert got[key] == (_sample(kind)[1] if key.replace("_", "-") in _TAKES[command]
                            else default), key


@pytest.mark.parametrize(
    ("argv", "message"),
    [(["sense", "--l", "1"], "l: must be at least 2"),
     (["sense", "--n", "4", "--l", "8"], "n: must be at least l=8"),
     (["sweep-snr", "--trials", "0"], "trials: must be positive"),
     (["sweep-snr", "--quick", "--trials", "0"], "trials: must be positive (got 0)"),
     (["sweep-snr", "--quick", "--trials", "-5"], "trials: must be positive (got -5)"),
     (["sense", "--m-grid", "1"], "m-grid: must be at least 2"),
     (["sense", "--mismatch-db", "-1"], "mismatch-db: must be non-negative"),
     (["sense", "--sigma-w2", "0"], "sigma-w2: must be positive"),
     (["sense", "--nominal", "-1"], "nominal: must be positive"),
     (["sweep-factor", "--factor", "0"], "factor: must be positive"),
     (["sweep-snr", "--snr-step", "0"], "snr-step: must be positive"),
     (["sweep-snr", "--snr-min", "3", "--snr-max", "1"], "snr-max: must be at least snr-min"),
     (["sense", "--seed", "-1"], "seed: must be non-negative"),
     (["sense", "--sps", "0"], "sps: must be at least 1"),
     (["sweep-snr", "--workers", "0"], "workers: must be at least 1"),
     (["sweep-factor", "--nominal", "1e306", "--factor", "1e3"],
      "factor: must be finite (got factor 1000.0 * nominal 1e+306 = inf)"),
     (["sweep-factor", "--factor", "1e306", "--nominal", "10"],
      "factor: too large, the static threshold it sets is not finite "
      "(got factor 1e+306 * nominal 10.0 = 1e+307)"),
     (["sweep-factor", "--factor", "1e-320", "--nominal", "1e-10"],
      "factor: must be positive (got factor 1e-320 * nominal 1e-10 = 0.0)"),
     (["sweep-factor", "--nominal", "1e306"],
      "factor: too large, the static threshold it sets is not finite "
      "(got factor 1.5 * nominal 1e+306 = 1.5e+306)"),
     (["sweep-factor", "--quick", "--nominal", "1e308"],
      "nominal: too large, the static threshold it sets is not finite (got 1e+308)"),
     (["sense", "--nominal", "1e308", "--mode", "static"],
      "nominal: too large, the static threshold it sets is not finite (got 1e+308)"),
     (["sweep-snr", "--quick", "--mode", "static", "--nominal", "1e307", "--snr-min", "0",
       "--snr-max", "0"], "nominal: too large, the static threshold it sets is not finite"),
     ("mode = sideways", "mode: must be one of static, dynamic, got 'sideways'"),
     ("n = abc", "n: expected an integer, got 'abc'"),
     (["sense", "--mode", "static", "--n", "2", "--l", "2", "--pfa", "0.99", "--hypothesis",
       "h0"], "pfa: too large for n=2, the threshold it sets is not positive (got 0.99)"),
     (["sweep-pfa", "--quick", "--mode", "static", "--n", "2", "--l", "2", "--pfa-grid",
       "0.9,0.99"], "pfa-grid: too large for n=2, the threshold it sets is not positive"),
     (["sweep-pfa", "--pfa-grid", "0.1,1.5"],
      "pfa-grid: must be strictly between 0 and 1 (got 1.5)"),
     (["sweep-pfa", "--pfa-grid", "0.1,nan"], "pfa-grid: must be finite (got nan)")],
    ids=["l", "n-below-l", "trials", "trials-quick", "trials-quick-negative", "m-grid",
         "mismatch-db", "sigma-w2", "nominal", "factor", "snr-step", "snr-max", "seed", "sps",
         "workers", "nominal-times-factor",
         "factor-times-nominal-overflows", "factor-times-nominal-underflows",
         "factor-ladder-times-nominal", "factor-ladder", "static-threshold-sense", "static-threshold-sweep", "config-mode",
         "config-n", "threshold-not-positive-sense", "threshold-not-positive-sweep-pfa",
         "pfa-grid-above-one", "pfa-grid-nan"],
)
def test_every_usage_error_exits_two_and_names_its_flag(argv, message, tmp_path, capsys):
    if isinstance(argv, str):  # a config-file line
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(argv + "\n")
        argv = ["sweep-snr", "--config", str(cfg)]
    assert main(argv + _sweep_out(argv, tmp_path)) == 2
    assert f"specsense: error: {message}" in capsys.readouterr().err
    assert list(tmp_path.glob("never*")) == []


# One plan that breaks each TrialPlan rule, and the field the rule is on.
_PLAN_RULES = [
    ("n_trials", {"n_trials": 0}), ("l", {"l": 1}), ("n", {"n": 4}),
    ("n", {"n": 8, "mode": ThresholdMode.DYNAMIC}), ("target_pfa", {"target_pfa": 1.0}),
    ("sigma_w2_true", {"sigma_w2_true": np.inf}), ("sigma_w2_true", {"sigma_w2_true": 0.0}),
    ("sigma_nominal2", {"sigma_nominal2": np.nan}), ("sigma_nominal2", {"sigma_nominal2": -1.0}),
    ("sigma_s2", {"sigma_s2": np.inf}), ("sigma_s2", {"sigma_s2": -1.0}),
    ("master_seed", {"master_seed": -1}), ("m_grid", {"m_grid": 1}),
    ("mismatch_db", {"mismatch_db": np.nan}), ("mismatch_db", {"mismatch_db": -1.0}),
    ("mismatch_db", {"mismatch_db": 4000.0}), ("samples_per_symbol", {"samples_per_symbol": 0}),
    ("sigma_nominal2", {"sigma_nominal2": 1e307}),
    # numpy scalars: a rule's arithmetic must not overflow with a warning
    ("sigma_nominal2", {"sigma_nominal2": np.float64(1e307)}),
    ("sigma_w2_true", {"sigma_w2_true": np.float64(1e306)}),
    ("sigma_w2_true", {"sigma_w2_true": 1e-303}),
    ("mismatch_db", {"sigma_w2_true": 1e300, "mismatch_db": np.float64(30.0)}),
    ("mismatch_db", {"mismatch_db": 3020.0}),
    ("sigma_s2", {"sigma_s2": np.float64(1e303)}),
    ("n_trials", {"n_trials": 2**32 + 1}),
    # Q^-1(0.99) * sqrt(2n) + n < 0 at n = 2: a threshold below every statistic
    ("target_pfa", {"n": 2, "l": 2, "target_pfa": 0.99}),
    # Values of the wrong kind: a mode's text ran as DYNAMIC, a float count
    # failed inside numpy.
    ("mode", {"mode": "static"}), ("mode", {"mode": None}), ("n", {"n": 64.0}),
    ("l", {"l": 4.0}), ("n_trials", {"n_trials": 10.0}), ("m_grid", {"m_grid": 20.0}),
    ("samples_per_symbol", {"samples_per_symbol": 2.0}), ("master_seed", {"master_seed": 1.5}),
]


@pytest.mark.parametrize(("field", "broken"), _PLAN_RULES,
                         ids=[f"{field}-{i}" for i, (field, _) in enumerate(_PLAN_RULES)])
def test_every_plan_rule_names_a_field_that_has_a_flag(field, broken):
    # main reports a PlanError under the option _PLAN_OPTIONS gives its field;
    # a field with no option behind it would name a flag the user cannot set.
    with pytest.raises(harness.PlanError) as caught:
        TrialPlan(**{"n_trials": 10, "n": 128, "l": 8, "mode": ThresholdMode.STATIC, **broken})
    assert caught.value.field == field
    assert str(caught.value) == f"{field}: {caught.value.message}"
    assert cli._PLAN_OPTIONS[field] in cli._OPTIONS
    unflagged = [f for f in TrialPlan.__dataclass_fields__
                 if cli._PLAN_OPTIONS.get(f) not in cli._OPTIONS]
    assert unflagged == []


# A non-default value of every option a plan field is built from, and the field's value.
_PLAN_VALUES = {"trials": 300, "n": 64, "l": 4, "pfa": 0.05, "mode": "dynamic",
                "sigma_w2": 2.0, "nominal": 1.5, "snr": 3.0, "seed": 7, "m_grid": 50,
                "mismatch_db": 1.0, "sps": 2}
_PLAN_FIELDS = {"n_trials": 300, "n": 64, "l": 4, "target_pfa": 0.05,
                "mode": ThresholdMode.DYNAMIC, "sigma_w2_true": 2.0, "sigma_nominal2": 1.5,
                "sigma_s2": harness.power_at_db(2.0, 3.0), "master_seed": 7, "m_grid": 50,
                "mismatch_db": 1.0, "samples_per_symbol": 2}


def test_a_plan_carries_each_option_in_the_field_it_sets():
    defaults = {key: default for key, (_, default, _) in cli._OPTIONS.items()}
    assert set(_PLAN_VALUES) == set(cli._PLAN_OPTIONS.values())
    plan, default_plan = cli._build_plan({**defaults, **_PLAN_VALUES}), cli._build_plan(defaults)
    for field, want in _PLAN_FIELDS.items():
        assert getattr(plan, field) == want != getattr(default_plan, field), field
        assert type(getattr(plan, field)) is type(want), field
    # The derived values: --quick's tenth (at least 100), --nominal's fallback.
    assert cli._build_plan({**defaults, **_PLAN_VALUES, "quick": True}).n_trials == 100
    assert cli._build_plan({**defaults, **_PLAN_VALUES, "nominal": None}).sigma_nominal2 == 2.0


@pytest.mark.parametrize(
    ("argv", "flag"),
    [(["estimate-noise", "--sigma-w2", "1e307"], "sigma-w2: too large"),
     (["sense", "--mode", "dynamic", "--sigma-w2", "1e306"], "sigma-w2: too large"),
     (["sweep-snr", "--quick", "--mode", "dynamic", "--sigma-w2", "2e306", "--snr-min", "0",
       "--snr-max", "0", "--mismatch-db", "0"], "sigma-w2: too large"),
     (["sense", "--sigma-w2", "1e308"], "sigma-w2: too large"),
     (["sense", "--snr", "3070"], "snr: too large"),
     (["sweep-snr", "--snr-max", "3070"], "snr-max: too large"),
     (["sweep-factor", "--snr-min", "3070", "--snr-max", "3070"], "snr-max: too large"),
     (["sense", "--sigma-w2", "1e300", "--mismatch-db", "30"], "mismatch-db: too large"),
     (["sweep-snr", "--quick", "--mode", "dynamic", "--nominal", "1", "--snr-min", "-3",
       "--snr-max", "-3", "--sigma-w2", "1e-303"], "sigma-w2: too small"),
     (["estimate-noise", "--sigma-w2", "1e-290", "--mismatch-db", "120"],
      "mismatch-db: too large")],
    ids=["estimate-noise", "sense", "sweep-snr", "sense-default-nominal", "sense-snr",
         "sweep-snr-max", "sweep-factor-snr-max", "sense-wander-top", "sweep-snr-tiny-noise",
         "estimate-noise-wander-bottom"],
)
def test_a_power_out_of_the_plans_range_exits_two(argv, flag, tmp_path, capsys):
    # At such powers a trial's sums overflowed (a LAPACK failure, or a
    # statistic of inf with exit 0), or the blind estimate floored a noise
    # eigenvalue and changed its answer; a default --nominal took the blame
    # for --sigma-w2, and a sweep's grid end for --snr.
    assert main(argv + _sweep_out(argv, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert f"specsense: error: {flag}" in err and out == ""
    if flag.startswith("snr"):  # the dB value typed, not the power it sets
        assert err.endswith("(got 3070.0)\n")
    assert list(tmp_path.iterdir()) == []


_BAD_TEXT = [("m_grid", "abc", "m-grid: expected an integer, got 'abc'"),
             ("mismatch_db", "wide", "mismatch-db: expected a number, got 'wide'"),
             ("hypothesis", "h2", "hypothesis: must be one of h0, h1, got 'h2'")]
_BAD_SOURCES = [(source, *case) for source in ("flag", "config") for case in _BAD_TEXT] + [
    ("env", "seed", "abc", "SPECSENSE_SEED: expected an integer, got 'abc'")]


@pytest.mark.parametrize(("source", "key", "text", "message"), _BAD_SOURCES,
                         ids=[f"{source}-{key}" for source, key, _, _ in _BAD_SOURCES])
def test_bad_text_fails_alike_from_every_source_and_names_the_flag(
        source, key, text, message, tmp_path, capsys, monkeypatch):
    # A bad flag once left main() through argparse's SystemExit, and a bad
    # config line named the key (m_grid), not the flag.
    argv = ["sense"]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", text]
    elif source == "config":
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = {text}\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("SPECSENSE_SEED", text)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"specsense: error: {message}\n"


@pytest.mark.parametrize(("source", "name"), [("env", "SPECSENSE_SEED"), ("config", "seed"),
                                              ("flag", "seed")])
def test_a_seed_that_breaks_a_plan_rule_names_its_source(source, name, tmp_path, capsys,
                                                         monkeypatch):
    # An environment seed of -1 was blamed on a --seed flag nobody set.  A
    # config line or flag overrides a valid environment seed.
    monkeypatch.setenv("SPECSENSE_SEED", "-1" if source == "env" else "5")
    argv = ["sense"]
    if source == "config":
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = -1\n")
        argv += ["--config", str(cfg)]
    elif source == "flag":
        argv += ["--seed", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"specsense: error: {name}: must be non-negative (got -1)\n"


# Each command with a negative value after its flag, in forms argparse alone
# took for a flag (exponent, leading point), and the same with the value joined.
_DASH_VALUES = [
    (["sense", "--snr", "-1e0"], ["sense", "--snr=-1e0"]),
    (["sense", "--snr", "-.5e1", "--mismatch-db", "0"],
     ["sense", "--snr=-.5e1", "--mismatch-db=0"]),
    (["estimate-noise", "--hypothesis", "h1", "--snr", "-2E0"],
     ["estimate-noise", "--hypothesis", "h1", "--snr=-2E0"]),
    (["sweep-snr", "--quick", "--snr-min", "-1e1", "--snr-max", "-1e1"],
     ["sweep-snr", "--quick", "--snr-min=-1e1", "--snr-max=-1e1"]),
]


@pytest.mark.parametrize("source", ["argv", "sys.argv"])
@pytest.mark.parametrize(("split", "joined"), _DASH_VALUES,
                         ids=[" ".join(split) for split, _ in _DASH_VALUES])
def test_a_negative_value_may_follow_its_flag(split, joined, source, tmp_path, capsys,
                                              monkeypatch):
    # argparse read --snr -1e0 as two flags and left main() through SystemExit.
    def run(argv, name):
        out = tmp_path / name
        out.mkdir()
        monkeypatch.chdir(out)
        if source == "sys.argv":
            monkeypatch.setattr("sys.argv", ["specsense", *argv])
            assert main() == 0
        else:
            assert main(argv) == 0
        return capsys.readouterr(), {p.name: p.read_bytes() for p in out.iterdir()}

    assert run(split, "split") == run(joined, "joined")


@pytest.mark.parametrize(
    ("argv", "message"),
    [(["sense", "--snr", "-inf"], "snr: must be finite (got -inf)"),
     (["sense", "--seed", "-1e0"], "seed: expected an integer, got '-1e0'"),
     (["sense", "--snr", "-x"], "snr: expected a number, got '-x'")],
    ids=["non-finite", "not-an-integer", "not-a-number"],
)
def test_a_bad_negative_value_after_its_flag_names_the_flag(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"specsense: error: {message}\n"


def test_flag_text_keeps_its_spaces(tmp_path, capsys, monkeypatch):
    # Only a config line is trimmed; an --out path is used as typed.
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-snr", "--quick", "--mode", "static", "--snr-min", "0", "--snr-max", "0",
                 "--out", " spaced "]) == 0
    assert _lines(capsys)["output_csv_static"] == " spaced _static.csv"
    assert (tmp_path / " spaced _static.csv").exists()


def test_config_cannot_name_another_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("config = other.txt\n")
    assert main(["sense", "--config", str(cfg)]) == 2
    assert "unknown key 'config'" in capsys.readouterr().err


_FLOAT_KEYS = [key for key, (kind, _, _) in cli._OPTIONS.items() if kind is float]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_non_finite_float_option_exits_two(key, value, source, tmp_path, capsys):
    # An infinite --snr-max once made the SNR grid loop forever, a nan
    # --nominal gave Pd = 0 and a nan --mismatch-db switched the wander off.
    name = key.replace("_", "-")
    command = {"snr": "sweep-pfa", "factor": "sweep-factor"}.get(key, "sweep-snr")
    if source == "flag":
        argv = [command, f"--{name}={value}"]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = {value}\n")
        argv = [command, "--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "never")]) == 2
    assert f"{name}: must be finite" in capsys.readouterr().err
    assert list(tmp_path.glob("never*")) == []


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "grid",
    [{"snr_step": 1e-20}, {"snr_min": 1e16, "snr_max": 1e16, "snr_step": 1.0},
     {"snr_min": 2.0**53 + 2, "snr_max": 2.0**53 + 6, "snr_step": 1.0}],
    ids=["below_spacing_at_zero", "below_spacing_at_1e16", "ties_to_even_at_2e53"],
)
def test_snr_step_that_cannot_advance_the_grid_exits_two(grid, source, tmp_path, capsys):
    # Each of these left the grid value unchanged and the SNR grid grew
    # forever.  In the last, snr-min and snr-max each move on by one step,
    # but the first step lands on a value that ties back to itself.
    if source == "flag":
        argv = ["sweep-snr"] + [f"--{key.replace('_', '-')}={value!r}"
                                for key, value in grid.items()]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in grid.items()))
        argv = ["sweep-snr", "--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path / "never")]) == 2
    assert "snr-step: too small to advance the grid" in capsys.readouterr().err
    assert list(tmp_path.glob("never*")) == []


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command",
    [["sense", "--mode", "dynamic"], ["estimate-noise"], ["sweep-snr"], ["sweep-pfa"],
     ["sweep-snr", "--mode", "dynamic"]],
    ids=lambda argv: "-".join(argv).replace("--", ""),
)
def test_noise_estimate_needs_more_snapshots_than_rows(command, source, tmp_path, capsys):
    # At n == l these exited 1 from inside the estimator, and sweep-snr first
    # ran its static points and then wrote nothing.
    if source == "flag":
        argv = command + ["--n", "8", "--l", "8"]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 8\nl = 8\n")
        argv = command + ["--config", str(cfg)]
    trials = ["--trials", "100"] if command[0].startswith("sweep") else []
    assert main(argv + trials + _sweep_out(argv, tmp_path)) == 2
    assert "n: must exceed l=8 for a noise estimate (got 8)" in capsys.readouterr().err
    assert list(tmp_path.glob("never*")) == []


def test_static_commands_run_at_n_equal_to_l(tmp_path, capsys):
    square = ["--n", "8", "--l", "8"]
    assert main(["sense", *square]) == 0
    assert main(["sense", "--mode", "static", *square]) == 0
    assert main(["sweep-factor", *square, "--trials", "100", "--snr-min", "0", "--snr-max", "0",
                 "--out", str(tmp_path / "factor")]) == 0
    assert main(["sweep-snr", "--mode", "static", *square, "--trials", "100", "--snr-min", "0",
                 "--snr-max", "0", "--out", str(tmp_path / "snr")]) == 0
    assert sorted(path.name for path in tmp_path.glob("*.csv")) == [
        "factor_factor_1.5.csv", "factor_factor_1.csv", "factor_factor_2.5.csv",
        "factor_factor_2.csv", "snr_static.csv",
    ]


@pytest.mark.parametrize(
    ("argv", "flag"),
    [(["sense", "--snr", "4000"], "snr"),
     (["sweep-snr", "--snr-min", "4000", "--snr-max", "4000"], "snr-min"),
     (["sweep-snr", "--snr-max", "4000"], "snr-max"),
     (["sense", "--sigma-w2", "1e307", "--snr", "20"], "snr"),
     (["sense", "--mismatch-db", "4000"], "mismatch-db"),
     (["sweep-snr", "--quick", "--snr-min", "0", "--snr-max", "0", "--mismatch-db", "4000"],
      "mismatch-db")],
    ids=["sense", "sweep-snr-min", "sweep-snr-max", "sense-large-noise", "sense-mismatch",
         "sweep-snr-mismatch"],
)
def test_snr_whose_signal_power_overflows_exits_two(argv, flag, tmp_path, capsys):
    # These ended in an OverflowError traceback from 10 ** (snr / 10), or
    # from 10 ** (offset / 10) once a trial's noise wander passed about
    # 3 082 dB.
    assert main(argv + _sweep_out(argv, tmp_path)) == 2
    assert f"{flag}: too large" in capsys.readouterr().err
    assert list(tmp_path.glob("never*")) == []
