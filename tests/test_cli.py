"""Command-line interface: reports, determinism, exit codes, config files."""
import csv
import json
import math
import shlex
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from onofri import acceptance, axisym, cli, functional, planar, report, shooting, sphere
from onofri.errors import NonConvergenceError


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_minimize_report_shape_and_determinism(tmp_path):
    code1, rep1 = run(tmp_path, "minimize", "--alpha", "0.7", "--seed", "42")
    assert code1 == 0
    assert report.validate_report(rep1) == []
    assert list(rep1.keys()) == list(report.REPORT_KEYS)
    code2, rep2 = run(tmp_path, "minimize", "--alpha", "0.7", "--seed", "42")
    assert code2 == 0
    assert json.dumps(rep1["rows"]) == json.dumps(rep2["rows"])
    row = rep1["rows"][0]
    assert isinstance(row["backtracks"], int) and row["backtracks"] >= 0
    assert isinstance(row["newton_steps"], int) and row["newton_steps"] > 0


def test_shoot_anchor_row(tmp_path):
    code, rep = run(tmp_path, "shoot", "--l", "1", "--s", "2.4849", "--r-max", "100")
    assert code == 0
    assert rep["rows"][0]["beta"] == pytest.approx(6.0, abs=1e-4)


def test_shoot_csv_profile(tmp_path):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "profile.csv"
    code = cli.main(["shoot", "--l", "0", "--s", str(math.log(8.0)),
                     "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "r,v"
    assert len(lines) > 100
    r0, v0 = (float(tok) for tok in lines[1].split(","))
    assert v0 == pytest.approx(math.log(8.0), abs=1e-4)
    row = json.loads(out.read_text())["rows"][0]
    assert row["accepted_steps"] == len(lines) - 2          # header and the series start
    assert isinstance(row["rejected_steps"], int) and row["rejected_steps"] >= 0


# a cheap run of every subcommand
CHEAP_RUNS = {
    "minimize": ["--alpha", "0.7", "--L", "8"],
    "alpha-scan": ["--alphas", "0.8", "--trials", "1", "--L", "8"],
    "el-check": ["--alpha", "0.8", "--L", "8"],
    "bridge": ["--alpha", "0.8", "--L", "8"],
    "shoot": ["--l", "1", "--s", "2.4849", "--r-max", "100"],
    "beta-curve": ["--l", "1", "--n", "3"],
    "uniqueness": ["--l", "1", "--targets", "6.0", "--s-min", "-2", "--s-max", "6"],
    "axisym": ["--alpha", "0.45"],
    "bol-audit": ["--radii", "2.0,0.5"],
    "nodal": ["--field", "linear"],
    "second-variation": ["--L", "8"],
    "verify": ["--determinism", "off"],
}


@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_every_subcommand_writes_its_csv(tmp_path, command):
    """--csv writes the subcommand's own table, or its rows when it has none, with
    every row's columns in the order they first appear."""
    csv_path = tmp_path / "table.csv"
    code, rep = run(tmp_path, command, *CHEAP_RUNS[command], "--csv", str(csv_path))
    assert code == cli.EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert len(lines) >= 2
    if command not in ("shoot", "beta-curve", "bridge"):
        header = dict.fromkeys(key for row in rep["rows"] for key in row)
        assert lines[0] == ",".join(header) and len(lines) == 1 + len(rep["rows"])
    if command == "verify":     # criterion 1's rows carry neither column
        assert {"h1_norm", "roots"} <= set(lines[0].split(","))


def test_unknown_command_usage_error():
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
    assert cli.main([]) == cli.EXIT_USAGE


def test_exit_codes_are_the_documented_ones():
    """README: 0 pass or info, 1 runtime error, 2 fail, 3 usage error."""
    assert (cli.EXIT_OK, cli.EXIT_RUNTIME, cli.EXIT_MATH, cli.EXIT_USAGE) == (0, 1, 2, 3)


def test_inconsistent_alpha_rho():
    assert cli.main(["minimize", "--alpha", "0.5", "--rho", "1.9"]) == cli.EXIT_USAGE


def test_consistent_alpha_rho(tmp_path):
    code, rep = run(tmp_path, "el-check", "--alpha", "0.8", "--rho", "1.25", "--seed", "1")
    assert code == 0
    assert rep["rows"][0]["passed"]


def test_missing_parameter_usage_error():
    assert cli.main(["shoot", "--l", "1"]) == cli.EXIT_USAGE


def test_under_resolved_grid_usage_error():
    assert cli.main(["minimize", "--alpha", "0.7", "--n-mu", "4"]) == cli.EXIT_USAGE


# Each of these once ran and passed (or failed at run time) on no evidence.
VACUOUS_RUNS = {
    "alpha_scan_no_trials": ["alpha-scan", "--alphas", "0.8", "--trials", "0"],
    "axisym_no_trials": ["axisym", "--alpha", "0.6", "--trials", "0"],
    "beta_curve_one_sample": ["beta-curve", "--l", "1", "--n", "1"],
    "bol_audit_zero_mesh": ["bol-audit", "--h", "0"],
    "bol_audit_too_few_rings": ["bol-audit", "--radii", "0.1"],
    "uniqueness_reversed_bracket": ["uniqueness", "--l", "1", "--targets", "6.0,7.0",
                                    "--s-min", "6", "--s-max", "2"],
    "uniqueness_empty_bracket": ["uniqueness", "--l", "1", "--targets", "6.0",
                                 "--s-min", "5", "--s-max", "5"],
    "second_variation_L0": ["second-variation", "--L", "0"],
    "second_variation_L1": ["second-variation", "--L", "1"],
    "second_variation_degree1_L0": ["second-variation", "--mode", "degree1", "--L", "0"],
    "bol_audit_coarse_mesh": ["bol-audit", "--h", "1.0"],
    "axisym_negative_alpha": ["axisym", "--alpha", "-0.5"],
    "shoot_negative_tol": ["shoot", "--l", "1", "--s", "2", "--tol", "-1"],
    "minimize_zero_alpha": ["minimize", "--alpha", "0"],
    "minimize_zero_rho": ["minimize", "--rho", "0"],
    "minimize_nan_alpha": ["minimize", "--alpha", "nan"],
    "el_check_zero_alpha": ["el-check", "--alpha", "0"],
    "nodal_zero_rho": ["nodal", "--rho", "0"],
    "minimize_stiffness_overflow": ["minimize", "--alpha", "1e308", "--L", "8"],
    "axisym_stiffness_overflow": ["axisym", "--alpha", "1e308", "--trials", "1"],
    "shoot_nan_s": ["shoot", "--l", "1", "--s", "nan"],
    "shoot_inf_s": ["shoot", "--l", "1", "--s", "inf"],
    "shoot_overflowing_s": ["shoot", "--l", "1", "--s", "750"],
    "shoot_overflowing_series": ["shoot", "--l", "1", "--s", "700"],
    "shoot_overflowing_weight": ["shoot", "--l", "1e306", "--s", "10"],
    "beta_curve_overflowing_weight": ["beta-curve", "--l", "1024", "--n", "3"],
    "uniqueness_overflowing_weight": ["uniqueness", "--l", "1024"],
    "shoot_nan_r_max": ["shoot", "--l", "1", "--s", "2", "--r-max", "nan"],
    "shoot_inf_r_max": ["shoot", "--l", "1", "--s", "2", "--r-max", "inf"],
    "shoot_r_max_below_floor": ["shoot", "--l", "1", "--s", "2", "--r-max", "10"],
    "beta_curve_nan_s_min": ["beta-curve", "--l", "1", "--s-min", "nan", "--n", "3"],
    "uniqueness_inf_s_max": ["uniqueness", "--l", "1", "--s-max", "inf"],
    "axisym_nan_floor": ["axisym", "--alpha", "0.45", "--floor", "nan"],
    "uniqueness_nan_target": ["uniqueness", "--l", "1", "--targets", "nan"],
    "uniqueness_inf_target": ["uniqueness", "--l", "1", "--targets", "inf"],
    "alpha_scan_nan_alpha": ["alpha-scan", "--alphas", "nan", "--trials", "1"],
    "alpha_scan_stiffness_overflow": ["alpha-scan", "--alphas", "0.8,1e308", "--trials", "1"],
    "bol_audit_nan_radius": ["bol-audit", "--radii", "nan"],
    # a band limit of 0 has no degree-1 tilt onto the constraint
    "minimize_L0": ["minimize", "--alpha", "0.8", "--L", "0"],
    "el_check_L0": ["el-check", "--alpha", "0.8", "--L", "0"],
    "bridge_L0": ["bridge", "--alpha", "0.8", "--L", "0"],
    "alpha_scan_L0": ["alpha-scan", "--alphas", "0.8", "--trials", "1", "--L", "0"],
}


@pytest.mark.parametrize("case", sorted(VACUOUS_RUNS))
def test_vacuous_runs_are_usage_errors(tmp_path, capsys, case):
    code, rep = run(tmp_path, *VACUOUS_RUNS[case])
    assert code == cli.EXIT_USAGE and rep is None
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("minimize", "alpha"), ("axisym", "rho")])
def test_completed_alpha_or_rho_takes_the_flag_check(tmp_path, capsys, command, key):
    """1 / 1e-320 overflows to inf: the value the command completes is a usage
    error, whether the given one comes from a flag or from a config file."""
    other = "rho" if key == "alpha" else "alpha"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1e-320\n")
    for argv in ([command, f"--{key}", "1e-320"], [command, "--config", str(cfg)]):
        code, rep = run(tmp_path, *argv)
        assert code == cli.EXIT_USAGE and rep is None
        assert f"{other} = 1 / {key}: inf is not positive and finite" in capsys.readouterr().err


# the rows these runs gave while their first stationarity test warned of an overflow
HUGE_ALPHA_ROWS = {
    "minimize": (["minimize", "--alpha", "1e200", "--L", "8"], {
        "claim": "constrained minimisation of the sphere functional", "alpha": 1e200,
        "j_value": -3.0814879110195774e-32, "grad_norm": 2.92204308455622e-17,
        "com_norm": 4.0680583199965565e-17, "exp_mass": 1.0, "iterations": 3, "backtracks": 0,
        "newton_steps": 3, "status": "converged", "el_residual": 1.5361744987034497e-31,
        "h1_norm": 3.575059468694236e-32, "l2_norm": 2.982316628290714e-32, "passed": True}),
    "axisym": (["axisym", "--alpha", "1e200", "--trials", "1"], {
        "claim": "axisymmetric constrained minimum is zero", "alpha": 1e200, "trial": 0,
        "value": 0.0, "iterations": 3, "backtracks": 0, "newton_steps": 3,
        "status": "converged", "passed": True}),
}


@pytest.mark.parametrize("case", sorted(HUGE_ALPHA_ROWS))
def test_huge_alpha_runs_converge_without_warnings(tmp_path, case):
    """At alpha = 1e200 the first gradient's squared norm passes the float
    range; it reads inf, which is correctly not stationary, and says nothing
    else: the run converges with the same rows and no warning."""
    argv, row = HUGE_ALPHA_ROWS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(tmp_path, *argv)
    assert code == cli.EXIT_OK
    assert rep["rows"] == [pytest.approx(row, abs=1e-12)]


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def test_reports_are_strict_json(tmp_path, monkeypatch):
    """A far-field shot has no asymptote (c_asym NaN) and an alpha scan whose
    runs all fail has no minimum (infinity) nor mean iteration count (NaN):
    both reports hold null there, and the scan's CSV spells them inf and nan."""
    out = tmp_path / "shoot.json"
    assert cli.main(["shoot", "--l", "0", "--s", "-130", "--out", str(out)]) == cli.EXIT_OK
    row = _strict_json(out)["rows"][0]
    assert row["verdict"] == "unresolved" and row["c_asym"] is None

    def diverging(alphas, u0):
        raise NonConvergenceError("forced")

    monkeypatch.setattr(functional, "minimize_stack", diverging)
    out, table = tmp_path / "scan.json", tmp_path / "scan.csv"
    code = cli.main(["alpha-scan", "--alphas", "0.8", "--trials", "1", "--L", "8",
                     "--out", str(out), "--csv", str(table)])
    assert code == cli.EXIT_MATH
    row = _strict_json(out)["rows"][0]
    assert row["min_j"] is None and row["mean_iterations"] is None and row["n_failed"] == 1
    (line,) = csv.DictReader(table.read_text().splitlines())
    assert line["min_j"] == "inf" and line["mean_iterations"] == "nan" and line["n_failed"] == "1"


def test_math_violation_exit_code(monkeypatch, tmp_path):
    def failing(cfg):
        return [{"claim": "forced failure", "passed": False}], None

    monkeypatch.setitem(cli.HANDLERS, "minimize", failing)
    assert cli.main(["minimize", "--alpha", "0.7"]) == cli.EXIT_MATH


def test_runtime_error_exit_code(monkeypatch):
    def broken(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.HANDLERS, "minimize", broken)
    assert cli.main(["minimize", "--alpha", "0.7"]) == cli.EXIT_RUNTIME


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.8\nseed = 3   # stream seed\ntrials = 2\n")
    out = tmp_path / "rep.json"
    code = cli.main(["axisym", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["alpha"] == 0.8
    assert len(rep["rows"]) == 2
    assert all(isinstance(row["backtracks"], int) for row in rep["rows"])
    assert all(isinstance(row["newton_steps"], int) for row in rep["rows"])
    # explicit flag wins over the file
    code = cli.main(["axisym", "--config", str(cfg), "--trials", "1", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert len(rep["rows"]) == 1


def test_bad_config_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.8\n")
    assert cli.main(["axisym", "--config", str(cfg)]) == cli.EXIT_USAGE


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("alpah = 0.5\n")
    assert cli.main(["axisym", "--alpha", "0.5", "--config", str(cfg)]) == cli.EXIT_USAGE


# a subcommand that takes each key, so the bad value is what fails
KEY_COMMAND = {"seed": "axisym", "alpha": "axisym", "determinism": "verify",
               "mode": "second-variation"}


@pytest.mark.parametrize("line", ["seed = 1.5", "alpha = x", "alpha = 0", "determinism = maybe",
                                  "mode = degree3"])
def test_unparsable_config_value(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert cli.main([KEY_COMMAND[line.split()[0]], "--config", str(cfg)]) == cli.EXIT_USAGE
    assert "bad.cfg:1: argument --" in capsys.readouterr().err


def test_config_values_take_their_flag_types(tmp_path):
    """Each key is read by the flag of a subcommand that takes it."""
    cfg = tmp_path / "run.cfg"
    for command, line, value in [("beta-curve", "s-min = -2", -2.0), ("minimize", "n_mu = 24", 24),
                                 ("alpha-scan", "alphas = 0.7,0.8", "0.7,0.8"),
                                 ("verify", "determinism = off", "off")]:
        cfg.write_text(line + "\n")
        key = line.split()[0].replace("-", "_")
        read = cli.read_config_file(str(cfg), command)
        assert read == {key: value} and type(read[key]) is type(value)


def test_flags_of_another_subcommand_are_usage_errors(tmp_path):
    assert cli.main(["shoot", "--l", "1", "--s", "2", "--alpha", "0.7"]) == cli.EXIT_USAGE
    cfg = tmp_path / "shoot.cfg"
    cfg.write_text("l = 1\ns = 2\nalphas = 0.8\n")
    assert cli.main(["shoot", "--config", str(cfg)]) == cli.EXIT_USAGE


def test_settable_values_are_the_declared_flags():
    assert sum(len(flags) for flags in cli.COMMAND_FLAGS.values()) == 47
    parser = cli.build_parser()
    for name, sub in parser.commands.items():
        dests = {a.dest for a in sub._actions} - {"help", "config", "out", "csv", "verbose"}
        assert dests == set(cli.COMMAND_FLAGS[name])


def test_verify_reports_the_seed_it_ran(tmp_path, monkeypatch):
    ran = []

    def fake_verify(seed, determinism):
        ran.append((seed, determinism))
        return [{"criterion": 1, "claim": "stub", "passed": True}]

    monkeypatch.setattr(acceptance, "run_verify", fake_verify)
    code, rep = run(tmp_path, "verify", "--determinism", "off")
    assert code == 0
    assert ran == [(acceptance.DEFAULT_SEED, False)] and acceptance.DEFAULT_SEED == 20260808
    assert rep["seed"] == 20260808
    assert rep["config"] == {"seed": 20260808, "determinism": "off"}


def test_verify_prints_each_criterion_by_name(tmp_path, monkeypatch, capsys):
    rows = [{"criterion": 1, "passed": True}, {"criterion": 13, "passed": False}]
    monkeypatch.setattr(acceptance, "run_verify", lambda seed, determinism: rows)
    assert run(tmp_path, "verify")[0] == cli.EXIT_MATH
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["criterion  1 [spectral core]: PASS", "criterion 13 [determinism]: FAIL"]


def test_default_sphere_run_starts_from_stream_key_seed_0_0(tmp_path):
    """The sphere runs' default seed is 0, and minimize starts from the stream (seed, 0, 0)."""
    code, rep = run(tmp_path, "minimize", "--alpha", "0.7", "--L", "8")
    res = functional.minimize(0.7, functional.random_start(sphere.build_grid(8), (0, 0, 0)))
    assert rep["seed"] == 0 and rep["rows"][0]["j_value"] == res.j_value


def test_seedless_runs_report_a_null_seed(tmp_path):
    seedless = {name for name, flags in cli.COMMAND_FLAGS.items() if "seed" not in flags}
    assert seedless == {"shoot", "beta-curve", "uniqueness", "bol-audit", "nodal",
                        "second-variation"}
    for argv in (("nodal",), ("shoot", "--l", "1", "--s", "2.4849", "--r-max", "100")):
        code, rep = run(tmp_path, *argv)
        assert code == 0
        assert rep["seed"] is None
        assert report.validate_report(rep) == []
    code, rep = run(tmp_path, "axisym", "--alpha", "0.6", "--trials", "1", "--seed", "0")
    assert rep["seed"] == 0
    bad = report.build_report("x", {}, None, [], "pass", 0.0)
    bad["seed"] = "0"
    assert report.validate_report(bad) == ["key seed has type str"]


def test_report_config_holds_every_parameter_used(tmp_path):
    code, rep = run(tmp_path, "shoot", "--l", "1", "--s", "2.4849", "--r-max", "100")
    assert code == 0
    assert rep["config"] == {"l": 1.0, "s": 2.4849, "r_max": 100.0}
    code, rep = run(tmp_path, "second-variation", "--L", "8")
    assert rep["config"] == {"mode": "degree2", "L": 8, "n_mu": 16}
    code, rep = run(tmp_path, "el-check", "--rho", "1.9", "--L", "8")
    assert rep["config"]["rho"] == rep["rows"][0]["rho"] == 1.9     # 1 / (1 / 1.9) is not
    code, rep = run(tmp_path, "el-check", "--alpha", "0.8", "--L", "8")
    assert rep["config"]["rho"] == 1.25


def test_subcommand_help_shows_its_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["shoot", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--r-max R_MAX" in text and "(default: 1000000.0)" in text
    assert "--l L" in text and "(required)" in text
    assert "--alpha" not in text


def test_readme_examples_parse():
    """Every `onofri ...` line of the README parses under its subcommand's flags."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = [shlex.split(line, comments=True)[1:] for line in readme.splitlines()
                if line.strip().startswith("onofri ")]
    assert len(examples) >= len(cli.HANDLERS)
    parser = cli.build_parser()
    for argv in examples:
        args = parser.parse_args(argv)
        assert args.command in cli.HANDLERS


def test_uniqueness_rows(tmp_path):
    code, rep = run(tmp_path, "uniqueness", "--l", "1", "--targets", "6.0",
                    "--s-min", "-2", "--s-max", "6")
    assert code == 0
    row = rep["rows"][0]
    assert row["n_roots"] == 1
    assert row["roots"][0] == pytest.approx(math.log(12.0), abs=1e-5)
    assert row["beta_range"][0] < 6.0 < row["beta_range"][1]
    assert row["unresolved_samples"] == 0


def test_uniqueness_counts_two_profiles_at_l2(tmp_path):
    """beta = 7.5 lies between the l = 2 curve's minimum 7.352 and 4l = 8."""
    code, rep = run(tmp_path, "uniqueness", "--l", "2", "--targets", "7.2,7.5,9")
    assert code == 0
    assert [row["n_roots"] for row in rep["rows"]] == [0, 2, 1]
    assert all(row["passed"] and row["n_roots"] == row["predicted_roots"] for row in rep["rows"])
    assert all(row["near_tangent"] == [] and row["certificate"]["ok"] for row in rep["rows"])
    cert = rep["rows"][0]["certificate"]
    assert cert["nodes"] == sorted(cert["nodes"]) and cert["turning_points"][0][0] in cert["nodes"]


def test_bol_audit_no_violation(tmp_path):
    code, rep = run(tmp_path, "bol-audit", "--case", "perturbed", "--radii", "2.0,0.5")
    assert code == 0
    verdicts = {row["verdict"] for row in rep["rows"]}
    assert "violated" not in verdicts


def test_second_variation_row(tmp_path):
    code, rep = run(tmp_path, "second-variation", "--mode", "degree2")
    assert code == 0
    assert rep["rows"][0]["threshold_estimate"] == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_alpha_scan_open_region_info(tmp_path):
    """A scan whose alphas all lie below 2/3 asserts nothing: its verdict is info."""
    code, rep = run(tmp_path, "alpha-scan", "--alphas", "0.55,0.60", "--trials", "1", "--seed", "2")
    assert code == 0
    assert [row["passed"] for row in rep["rows"]] == [None, None]
    assert rep["verdict"] == "info"


def test_alpha_scan_fails_a_certified_row_with_failed_runs(tmp_path, monkeypatch):
    """A stalled run with J = 0 certifies nothing, so the row fails."""
    def stalled(alphas, u0):
        return [functional.MinimizeResult(u=u0, j_value=0.0, grad_norm=1.0, com_norm=0.0,
                                          exp_mass=1.0, iterations=800, backtracks=0,
                                          newton_steps=0, status="stalled") for _ in alphas]

    monkeypatch.setattr(functional, "minimize_stack", stalled)
    code, rep = run(tmp_path, "alpha-scan", "--alphas", "0.8", "--trials", "2", "--L", "8")
    assert code == cli.EXIT_MATH
    row = rep["rows"][0]
    assert row["min_j"] == 0.0 and row["n_failed"] == 2 and row["passed"] is False


def test_alpha_scan_steps_bounded_stacks(tmp_path, monkeypatch):
    """25 trials never reach minimize_stack as one stack: peak memory does not
    grow with --trials."""
    minimize_stack, lanes = functional.minimize_stack, []

    def spy(alphas, u0):
        lanes.append(len(alphas))
        return minimize_stack(alphas, u0)

    monkeypatch.setattr(functional, "minimize_stack", spy)
    code, rep = run(tmp_path, "alpha-scan", "--alphas", "0.8", "--trials", "25")
    assert code == 0 and rep["rows"][0]["n_failed"] == 0
    assert sum(lanes) == 25 and max(lanes) <= 10


def test_alpha_scan_fails_every_trial_of_a_stack_that_raises(tmp_path, monkeypatch):
    def diverging(alphas, u0):
        raise NonConvergenceError("forced")

    monkeypatch.setattr(functional, "minimize_stack", diverging)
    code, rep = run(tmp_path, "alpha-scan", "--alphas", "0.8", "--trials", "2", "--L", "8")
    assert code == cli.EXIT_MATH
    row = rep["rows"][0]
    assert row["n_failed"] == 2 and row["min_j"] is None and row["passed"] is False


def test_bridge_fails_the_mass_defect_criterion_5_fails(tmp_path, monkeypatch):
    """A plane mass 5e-7 off fails the bridge as it fails criterion 5's mass rows:
    both read acceptance.MASS_TOL."""
    beta_l = planar.beta_l
    monkeypatch.setattr(planar, "beta_l", lambda v: beta_l(v) + 5e-7 / (2.0 * math.pi))
    code, rep = run(tmp_path, "bridge", "--alpha", "0.8")
    assert code == cli.EXIT_MATH and rep["rows"][0]["passed"] is False
    assert abs(abs(rep["rows"][0]["mass_defect"]) - 5e-7) <= 1e-10
    rows = acceptance.criterion_5(acceptance.DEFAULT_SEED, acceptance.battery_grids())
    failed = {row["check"] for row in rows if not row["passed"]}
    assert {"mass_transfer_mixed_modes", "mass_transfer_conformal_factor",
            "mass_transfer_random_degree6"} <= failed


def test_validate_report_flags_problems():
    assert report.validate_report({}) != []
    bad = report.build_report("x", {}, 0, [], "pass", 0.0)
    bad["verdict"] = "maybe"
    assert any("verdict" in p for p in report.validate_report(bad))


def test_nodal_command(tmp_path):
    code, rep = run(tmp_path, "nodal", "--field", "quadrant", "--rho", "1.5")
    assert code == 0
    row = rep["rows"][0]
    assert row["m"] == 4
    assert row["ledger_verdict"] == "contradiction"
    assert row["partition_defect"] <= 1e-8


def test_axisym_below_half_reports_where_the_probe_stopped(tmp_path):
    code, rep = run(tmp_path, "axisym", "--alpha", "0.45")
    s_hit, trace = axisym.probe_two_bubble_1d(0.45, floor=rep["config"]["floor"])
    row = rep["rows"][0]
    assert (row["concentration_log"], row["value_at_stop"]) == trace[-1] and trace[-1][0] == s_hit


@pytest.mark.parametrize("alpha, beta", [("1", 4.0), ("1.25", 3.2)])
def test_bridge_passes_at_and_above_alpha_one(tmp_path, alpha, beta):
    """At alpha = 1 (l = 0) the minimiser is u = 0 with mass exactly 4, the empty
    window's edge; above 1, l < 0 and the mass 4 rho lies in (4(1 + l), 4)."""
    code, rep = run(tmp_path, "bridge", "--alpha", alpha)
    row = rep["rows"][0]
    assert code == cli.EXIT_OK and row["passed"] and row["inside"]
    assert row["beta"] == pytest.approx(beta, abs=1e-9)
    assert (row["beta_lower"], row["beta_upper"]) == shooting.mass_window(row["l"])


def test_axisym_steps_stacks_of_scan_lanes(tmp_path, monkeypatch):
    """130 trials run as stacks of 60, 60 and 10 lanes: peak memory does not grow
    with --trials."""
    minimize_axisym_stack, lanes = axisym.minimize_axisym_stack, []

    def spy(alphas, g0):
        lanes.append(len(alphas))
        return minimize_axisym_stack(alphas, g0)

    monkeypatch.setattr(axisym, "minimize_axisym_stack", spy)
    code, rep = run(tmp_path, "axisym", "--alpha", "0.6", "--trials", "130")
    assert code == cli.EXIT_OK and len(rep["rows"]) == 130
    assert lanes == [60, 60, 10]


def test_bridge_csv_samples_the_plane_grid(tmp_path):
    """bridge --csv holds the transferred field on the 41 x 41 grid of [-5, 5]^2,
    y1 the slow index."""
    csv_path = tmp_path / "plane.csv"
    code, _ = run(tmp_path, "bridge", "--alpha", "0.8", "--L", "8", "--csv", str(csv_path))
    with csv_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    axis = np.linspace(-5.0, 5.0, 41)
    assert code == cli.EXIT_OK and len(rows) == 41 * 41
    assert [float(r["y1"]) for r in rows] == pytest.approx(np.repeat(axis, 41).tolist(), abs=1e-12)
    assert [float(r["y2"]) for r in rows] == pytest.approx(np.tile(axis, 41).tolist(), abs=1e-12)


def test_help_describes_the_frontend(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    assert cli.__doc__.splitlines()[0] in capsys.readouterr().out


def test_main_reads_sys_argv(tmp_path, monkeypatch):
    """main() without argv parses sys.argv past the program name, as the installed
    console script calls it."""
    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", ["onofri", "shoot", "--l", "1", "--s", "2.4849",
                                      "--out", str(out)])
    assert cli.main() == cli.EXIT_OK
    assert json.loads(out.read_text())["command"] == "shoot"


def test_elapsed_is_the_wall_time_of_the_run(tmp_path):
    start = time.time()
    code, rep = run(tmp_path, "shoot", "--l", "1", "--s", "2.4849")
    wall = time.time() - start
    assert code == cli.EXIT_OK and 0.0 <= rep["elapsed_s"] <= wall
