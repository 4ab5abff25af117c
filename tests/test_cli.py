"""Tests of the command-line front end: parsing, precedence, exit codes."""
import pytest

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


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sense", "--bogus", "1"])
    assert exc.value.code == 2


def test_invalid_pfa_names_flag(capsys):
    assert main(["sense", "--pfa", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "pfa" in err and "0" in err and "1" in err


def test_invalid_mode_choice_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["sense", "--mode", "sideways"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_every_option_resolves_alike_from_flag_and_config(command, tmp_path):
    keys = [key for key in cli._OPTIONS if key != "config"]
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
    from_flags = cli._merge_options(parser.parse_args(argv)).options
    from_config = cli._merge_options(parser.parse_args([command, "--config", str(cfg)])).options
    for key in keys:
        want = _sample(cli._OPTIONS[key][0])[1]
        assert from_flags[key] == from_config[key] == want, key
        assert type(from_flags[key]) is type(from_config[key]) is type(want), key


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
    if source == "flag":
        argv = ["sweep-snr", f"--{name}={value}"]
    else:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = {value}\n")
        argv = ["sweep-snr", "--config", str(cfg)]
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
    assert main(argv + ["--trials", "100", "--out", str(tmp_path / "never")]) == 2
    assert "n: must exceed l=8 for a noise estimate (got 8)" in capsys.readouterr().err
    assert list(tmp_path.glob("never*")) == []


def test_static_commands_run_at_n_equal_to_l(tmp_path, capsys):
    square = ["--n", "8", "--l", "8", "--trials", "100"]
    assert main(["sense", *square]) == 0
    assert main(["sense", "--mode", "static", *square]) == 0
    assert main(["sweep-factor", *square, "--snr-min", "0", "--snr-max", "0",
                 "--out", str(tmp_path / "factor")]) == 0
    assert main(["sweep-snr", "--mode", "static", *square, "--snr-min", "0", "--snr-max", "0",
                 "--out", str(tmp_path / "snr")]) == 0
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
    assert main(argv + ["--out", str(tmp_path / "never")]) == 2
    assert f"{flag}: too large" in capsys.readouterr().err
    assert list(tmp_path.glob("never*")) == []
