"""Command-line frontend.

Subcommands run one experiment each and emit a JSON report with stable keys
(command, config, seed, version, rows, verdict, elapsed_s); --csv writes the
subcommand's own table, or its rows when it has none.  The verdict is fail when
a row's "passed" is false, else pass when one is true, else info.  Exit codes:
0 pass or info, 1 runtime error, 2 a mathematical check failed (Pohozaev
breach, audit violation, multi-root window, failed acceptance row), 3 usage
error.

Each subcommand declares its run flags and their defaults in COMMANDS; a value
comes from that default, then a flat `key = value` file given with --config,
then an explicit flag.  A flag or key of another subcommand is a usage error.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time

from . import acceptance, axisym, eigen, functional, planar, report, shooting, sphere
from .errors import GridConfigError

log = logging.getLogger("onofri")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_MATH = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_list(text: str, kind) -> list[float]:
    """The entries of a comma-separated list flag, each through the flag type kind."""
    try:
        values = [kind(tok) for tok in str(text).replace(";", ",").split(",") if tok.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"cannot parse list {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"empty list {text!r}")
    return values


def read_config_file(path: str, command: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment.  Each value is parsed by
    the command's flag of its key; a key the command does not take or a value
    the flag rejects is a usage error."""
    flags = _flag_parser(command)
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in COMMAND_FLAGS[command]:
                raise UsageError(f"{path}:{lineno}: {command} takes no key {key!r}")
            try:
                out[key] = getattr(flags.parse_args([f"--{key.replace('_', '-')}={value}"]), key)
            except UsageError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return out


def _run_config(args: argparse.Namespace) -> dict:
    """The run parameters of the command; --alpha and --rho complete each other
    under rho * alpha = 1 where the command takes both, and the completed value
    takes its own flag's check.  An alpha, or an --alphas entry, whose stiffness
    alpha/2 L(L+1) at the run's band limit (the 1-D degree for axisym) is not
    finite is refused too."""
    flags = COMMAND_FLAGS[args.command]
    cfg = {key: getattr(args, key) for key in flags}
    if "alpha" in flags and "rho" in flags:
        alpha, rho = cfg["alpha"], cfg["rho"]
        if alpha is not None and rho is not None:
            if abs(alpha * rho - 1.0) > 1e-12:
                raise UsageError(f"alpha = {alpha} and rho = {rho} violate rho * alpha = 1")
        elif alpha is not None or rho is not None:
            key, other = ("rho", "alpha") if alpha is not None else ("alpha", "rho")
            try:
                cfg[key] = FLAGS[key][0](1.0 / cfg[other])
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"{key} = 1 / {other}: {exc}") from exc
    for key, default in flags.items():
        if isinstance(default, Required) and cfg[key] is None:
            raise UsageError(f"missing required parameter --{key.replace('_', '-')}")
    degree = cfg.get("L", axisym.DEFAULT_DEGREE)
    for alpha in _parse_list(cfg["alphas"], _POSITIVE) if "alphas" in cfg else [cfg.get("alpha")]:
        if alpha is not None and not math.isfinite(alpha / 2.0 * degree * (degree + 1.0)):
            raise UsageError(f"alpha = {alpha}: alpha/2 L(L+1) is not finite at L = {degree}")
    return cfg


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (rows, table), table None if it has none
# ---------------------------------------------------------------------------


def _grid_for(cfg):
    """The sphere grid of --L and --n-mu; records the latitude count it used."""
    grid = sphere.build_grid(cfg["L"], n_mu=cfg["n_mu"])
    cfg["n_mu"] = grid.n_mu
    return grid


def _seeded_minimum(cfg):
    """The minimiser at --alpha from the random start (seed, 0, 0) on the run's grid."""
    grid = _grid_for(cfg)
    return functional.minimize(cfg["alpha"], functional.random_start(grid, (cfg["seed"], 0, 0)))


def cmd_minimize(cfg):
    alpha = cfg["alpha"]
    res = _seeded_minimum(cfg)
    row = {
        "claim": "constrained minimisation of the sphere functional",
        "alpha": alpha,
        "j_value": res.j_value,
        "grad_norm": res.grad_norm,
        "com_norm": res.com_norm,
        "exp_mass": res.exp_mass,
        "iterations": res.iterations,
        "backtracks": res.backtracks,
        "newton_steps": res.newton_steps,
        "status": res.status,
        "el_residual": functional.el_residual(res.u, cfg["rho"]),
        "h1_norm": sphere.h1_norm(res.u),
        "l2_norm": sphere.l2_norm(res.u),
        "passed": res.status in ("converged", "unbounded-descent"),
    }
    return [row], None


def cmd_alpha_scan(cfg):
    grid = _grid_for(cfg)
    rows = functional.alpha_scan(_parse_list(cfg["alphas"], _POSITIVE), cfg["trials"], cfg["seed"],
                                 grid=grid)
    out = []
    for row in rows:
        asserted = acceptance.certified(row["alpha"])
        # a run that failed certifies nothing
        passed = (row["min_j"] >= -acceptance.J_TOL and row["n_failed"] == 0) if asserted else None
        out.append({
            "claim": ("zero constrained infimum" if asserted
                      else "recorded minimum (open region, no assertion)"),
            **row,
            "passed": passed,
        })
    return out, None


def cmd_el_check(cfg):
    alpha = cfg["alpha"]
    res = _seeded_minimum(cfg)
    resid = functional.el_residual(res.u, cfg["rho"])
    row = {
        "claim": "stationary points solve the field equation at rho = 1/alpha",
        "alpha": alpha,
        "rho": cfg["rho"],
        "el_residual": resid,
        "grad_norm": res.grad_norm,
        "passed": bool(resid <= acceptance.EL_TOL and res.converged),
    }
    return [row], None


def cmd_bridge(cfg):
    alpha, rho = cfg["alpha"], cfg["rho"]
    u = functional.shift_to_unit_mass(_seeded_minimum(cfg).u)
    v = planar.to_planar(u, rho)
    beta = planar.beta_l(v)
    lower, upper = shooting.mass_window(v.l)
    inside = v.l == 0.0 or lower < beta < upper     # at l = 0 the mass defect checks beta = 4
    defect = 2.0 * math.pi * beta - 8.0 * math.pi * rho
    rows = [{
        "claim": "planar transfer of the minimiser stays in the mass window",
        "alpha": alpha, "rho": rho, "l": v.l,
        "beta": beta, "beta_lower": lower, "beta_upper": upper, "inside": inside,
        "mass_defect": defect, "passed": bool(inside and abs(defect) <= acceptance.MASS_TOL),
    }]
    return rows, planar.field_to_rows(v)


def cmd_shoot(cfg):
    l, s = cfg["l"], cfg["s"]
    sol = shooting.shoot(l, s, r_max=cfg["r_max"])
    rows = [{
        "claim": "radial profile mass and asymptote",
        "l": l, "s": s,
        "beta": sol.beta_mass, "beta_slope": sol.beta_slope,
        "c_asym": sol.c_asym, "verdict": sol.verdict,
        "accepted_steps": len(sol.r_grid) - 1, "rejected_steps": sol.rejected_steps,
    }]
    return rows, [{"r": float(r), "v": float(v)} for r, v in zip(sol.r_grid, sol.values)]


def cmd_beta_curve(cfg):
    l = cfg["l"]
    rows = shooting.beta_curve(l, cfg["s_min"], cfg["s_max"], cfg["n"], r_max=cfg["r_max"])
    out = [{"claim": "mass along the shooting family", "l": l, **row} for row in rows]
    return out, rows


def cmd_uniqueness(cfg):
    l = cfg["l"]
    targets = _parse_list(cfg["targets"], _FINITE)
    if not cfg["s_min"] < cfg["s_max"]:
        raise UsageError(f"--s-min {cfg['s_min']} must be below --s-max {cfg['s_max']}")
    search = shooting.solutions_at_beta(l, targets, (cfg["s_min"], cfg["s_max"]))
    cert = search.certificate
    rows = []
    for target, roots, slopes in zip(targets, search.roots, search.root_slopes):
        predicted, passed = acceptance.uniqueness_verdict(search, target, len(roots))
        rows.append({
            "claim": "root count equals the certified curve shape's count",
            "l": l, "beta_target": target,
            "n_roots": len(roots), "roots": roots, "predicted_roots": predicted,
            "near_tangent": [r for r, d in zip(roots, slopes) if abs(d) <= cert.slope_error],
            "passed": passed,
            "beta_range": list(search.beta_range),
            "unresolved_samples": search.unresolved_samples,
            "certificate": cert.summary(),
        })
    return rows, None


def cmd_axisym(cfg):
    alpha, seed, floor = cfg["alpha"], cfg["seed"], cfg["floor"]
    rows = []
    if alpha < 0.5 - 1e-12:
        s_hit, trace = axisym.probe_two_bubble_1d(alpha, floor=floor)
        rows.append({
            "claim": "concentrating family drives the 1-D functional below the floor",
            "alpha": alpha, "floor": floor,
            "value_at_stop": trace[-1][1], "concentration_log": trace[-1][0],
            "passed": bool(s_hit is not None),
        })
        return rows, None
    keys = [(seed, k) for k in range(cfg["trials"])]
    runs = axisym.minimize_starts([alpha] * len(keys), keys)
    for k, res in enumerate(runs):
        rows.append({
            "claim": "axisymmetric constrained minimum is zero",
            "alpha": alpha, "trial": k, "value": res.value,
            "iterations": res.iterations, "backtracks": res.backtracks,
            "newton_steps": res.newton_steps, "status": res.status,
            "passed": bool(res.value >= -acceptance.J_TOL and res.status == "converged"),
        })
    return rows, None


def cmd_bol_audit(cfg):
    case = cfg["case"]
    g_fn = planar.audit_fields()[case]
    audits = eigen.bol_audit(g_fn, eigen.Disk(3.0),
                             [eigen.Disk(r) for r in _parse_list(cfg["radii"], _POSITIVE)],
                             glap_fn=g_fn.lap_evaluator, h=cfg["h"])
    rows = [{
        "claim": "nonpositive first eigenvalue forces mass over 4 pi",
        "case": case, "domain": a.domain, "lambda1": a.lambda1, "mass": a.mass,
        "supersolution_margin": a.supersolution_margin, "total_mass": a.total_mass,
        "verdict": a.verdict, "passed": a.verdict != "violated",
    } for a in audits]
    return rows, None


def cmd_nodal(cfg):
    which, rho = cfg["field"], cfg["rho"]
    rep, expected = planar.analytic_nodal_count(which, rho)
    ledger = planar.nodal_ledger(rep.m, rho)
    rows = [{
        "claim": "nodal-domain count and mass ledger",
        "field": which, "rho": rho, "m": rep.m, "expected_m": expected,
        "masses": rep.masses, "total": rep.total,
        "partition_defect": abs(sum(rep.masses) - rep.total),
        "ledger_verdict": rep.ledger_verdict,
        "budget": ledger["total_budget"], "bound": ledger["total_exceeds"],
        "passed": bool(rep.m == expected),
    }]
    return rows, None


def cmd_second_variation(cfg):
    mode = cfg["mode"]
    grid = _grid_for(cfg)
    threshold, coefficient, target = functional.mode_threshold(grid, mode)
    rows = [{
        "claim": "sign change of the quadratic coefficient",
        "mode": mode, "threshold_estimate": threshold,
        "expected": target, "quadratic_coefficient": coefficient,
        "passed": bool(abs(threshold - target) <= acceptance.THRESHOLD_TOL),
    }]
    return rows, None


def cmd_verify(cfg):
    rows = acceptance.run_verify(cfg["seed"], determinism=cfg["determinism"] == "on")
    summary = acceptance.summarize(rows)
    for cid in sorted(summary):
        name = acceptance.CRITERIA.get(cid, (f"criterion {cid}",))[0] if cid != 13 else "determinism"
        print(f"criterion {cid:2d} [{name}]: {'PASS' if summary[cid] else 'FAIL'}")
    return rows, None


def _checked(kind, test, text: str):
    """A flag type: kind(value), a usage error unless test holds for it."""
    def number(value):                  # argparse names the type in its messages
        if test(out := kind(value)):
            return out
        raise argparse.ArgumentTypeError(f"{value!r} is not {text}")
    return number


_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "positive and finite")
_FINITE = _checked(float, math.isfinite, "finite")
_START = _checked(float, shooting.finite_start, "finite with e^s e^s / 4 finite")

# Every run flag: its type (or its choices) and what it sets.
FLAGS = {
    "alpha": (_POSITIVE, "weight of the Dirichlet energy in J_alpha, 1 / rho"),
    "rho": (_POSITIVE, "the planar equation's rho, 1 / alpha"),
    "seed": (int, "seed of the random streams"),
    "L": (int, "band limit of the sphere grid"),
    "n_mu": (int, "latitude nodes of the sphere grid, 2 L when not given"),
    "alphas": (str, "comma-separated alpha values"),
    "trials": (_checked(int, lambda k: k >= 1, "at least 1"), "random starts per alpha"),
    "l": (_checked(float, shooting.finite_weight, "nonnegative with 2^l finite"),
          "exponent of the weight (1+r^2)^l"),
    "s": (_START, "start value v(0) of the radial profile"),
    "s_min": (_START, "lowest start value"),
    "s_max": (_START, "highest start value"),
    "n": (_checked(int, lambda k: k >= 2, "at least 2"), "number of equally spaced start values"),
    "r_max": (_checked(float, lambda x: shooting.R_MAX_FLOOR <= x < math.inf,
                       f"finite and at least {shooting.R_MAX_FLOOR}"),
              "radius where the closed-form tail takes over"),
    "targets": (str, "comma-separated target masses beta"),
    "floor": (_FINITE, "level the two-bubble probe must cross when alpha < 1/2"),
    "case": (tuple(planar.audit_fields()), "audited field"),
    "radii": (str, "comma-separated radii of the audited disks"),
    "h": (_checked(float, lambda x: x > 0.0, "positive"), "mesh width of the eigenvalue scheme"),
    "field": (("quadrant", "linear"), "analytic nodal field"),
    "mode": (("degree1", "degree2"), "test mode of the second variation"),
    "determinism": (("on", "off"), "rerun the battery in reversed order and compare rows"),
}


class Required(str):
    """The default of a flag that must be given; its text is the flag's help note."""


REQUIRED = Required("required")
_ALPHA_OR_RHO = {"alpha": Required("required unless --rho is given"),
                 "rho": Required("required unless --alpha is given")}
_SPHERE_RUN = {**_ALPHA_OR_RHO, "seed": 0, "L": 16, "n_mu": None}

# One declaration per subcommand: its handler and the run flags it reads,
# with their defaults.
COMMANDS = {
    "minimize": (cmd_minimize, _SPHERE_RUN),
    "alpha-scan": (cmd_alpha_scan, {"alphas": REQUIRED, "trials": 5, "seed": 0, "L": 16,
                                    "n_mu": None}),
    "el-check": (cmd_el_check, _SPHERE_RUN),
    "bridge": (cmd_bridge, _SPHERE_RUN),
    "shoot": (cmd_shoot, {"l": REQUIRED, "s": REQUIRED, "r_max": 1e6}),
    "beta-curve": (cmd_beta_curve, {"l": REQUIRED, "s_min": -4.0, "s_max": 4.0, "n": 17,
                                    "r_max": 1e6}),
    "uniqueness": (cmd_uniqueness, {"l": REQUIRED, "targets": "4.5,5.0,5.5,6.0,6.5",
                                    "s_min": -6.0, "s_max": 10.0}),
    "axisym": (cmd_axisym, {**_ALPHA_OR_RHO, "seed": 0, "trials": 5, "floor": -10.0}),
    "bol-audit": (cmd_bol_audit, {"case": "perturbed", "radii": "2.0,1.0,0.5", "h": 0.02}),
    "nodal": (cmd_nodal, {"field": "quadrant", "rho": 1.5}),
    "second-variation": (cmd_second_variation, {"mode": "degree2", "L": 16, "n_mu": None}),
    "verify": (cmd_verify, {"seed": acceptance.DEFAULT_SEED, "determinism": "on"}),
}
HANDLERS = {name: handler for name, (handler, _) in COMMANDS.items()}
COMMAND_FLAGS = {name: flags for name, (_, flags) in COMMANDS.items()}


def _flag_parser(command: str) -> _Parser:
    """The run flags of one subcommand with their defaults; a config file may set
    exactly these."""
    p = _Parser(add_help=False)
    for key, default in COMMAND_FLAGS[command].items():
        kind, text = FLAGS[key]
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        required = isinstance(default, Required)
        p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                       default=None if required else default,
                       help=f"{text} ({default if required else f'default: {default}'})",
                       **typed)
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="onofri", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in HANDLERS:
        p = sub.add_parser(name, parents=[_flag_parser(name)])
        p.add_argument("--config", type=str, help="flat key = value file of run flags")
        p.add_argument("--out", type=str, help="path of the JSON report")
        p.add_argument("--csv", type=str, help="path of the CSV table")
        p.add_argument("--verbose", "-v", action="store_true")
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("missing subcommand")
        if args.config:
            # file values become the defaults, so explicit flags still win
            parser.commands[args.command].set_defaults(**read_config_file(args.config,
                                                                          args.command))
            args = parser.parse_args(argv)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(message)s")
        cfg = _run_config(args)
        t0 = time.time()
        rows, table = HANDLERS[args.command](cfg)
        marks = [row["passed"] for row in rows if row.get("passed") is not None]
        verdict = "fail" if not all(marks) else "pass" if marks else "info"
        rep = report.build_report(args.command, cfg, cfg.get("seed"), rows, verdict,
                                  time.time() - t0)
        problems = report.validate_report(rep)
        if problems:
            raise RuntimeError(f"internal: report failed validation: {problems}")
        if args.out:
            report.write_json(args.out, rep)
            log.info("wrote %s", args.out)
        if args.csv:
            report.write_csv(args.csv, rows if table is None else table)
            log.info("wrote %s", args.csv)
        print(f"{args.command}: verdict={verdict} rows={len(rows)} elapsed={rep['elapsed_s']:.2f}s")
        return EXIT_MATH if verdict == "fail" else EXIT_OK
    except (UsageError, GridConfigError) as exc:     # grids are set by flags
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
