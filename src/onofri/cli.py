"""Command-line frontend.

Subcommands run one experiment each and emit a JSON report with stable keys
(command, config, seed, version, rows, verdict, elapsed_s) plus optional CSV
tables.  Exit codes: 0 all checks pass, 1 runtime error, 2 a mathematical
check failed (Pohozaev breach, audit violation, multi-root window, failed
acceptance row), 3 usage error.

Configuration comes from defaults, then a flat `key = value` file given with
--config, then explicit flags, in that order.
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


def _parse_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in str(text).replace(";", ",").split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse list {text!r}") from exc
    if not values:
        raise UsageError(f"empty list {text!r}")
    return values


def read_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment.  Each value is parsed by
    the run flag of its key; an unknown key or a value the flag rejects is a
    usage error."""
    flags = _run_flags()
    options = {action.dest: action.option_strings[0] for action in flags._actions}
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
            if key not in options:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = getattr(flags.parse_args([f"{options[key]}={value}"]), key)
            except UsageError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return out


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in vars(args).items():
        if key in ("command", "config", "out", "csv", "verbose"):
            continue
        if value is not None:
            cfg[key] = value
    if cfg.get("alpha") is not None and cfg.get("rho") is not None:
        if abs(cfg["alpha"] * cfg["rho"] - 1.0) > 1e-12:
            raise UsageError(f"alpha = {cfg['alpha']} and rho = {cfg['rho']} violate rho * alpha = 1")
    elif cfg.get("alpha") is not None:
        cfg["rho"] = 1.0 / cfg["alpha"]
    elif cfg.get("rho") is not None:
        cfg["alpha"] = 1.0 / cfg["rho"]
    return cfg


def _need(cfg: dict, key: str, default=None):
    if cfg.get(key) is None:
        if default is None:
            raise UsageError(f"missing required parameter --{key.replace('_', '-')}")
        return default
    return cfg[key]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (rows, verdict, csv_rows)
# ---------------------------------------------------------------------------


def _grid_for(cfg):
    n_mu = cfg.get("n_mu")
    try:
        return sphere.build_grid(int(_need(cfg, "L", 16)),
                                 n_mu=int(n_mu) if n_mu is not None else None)
    except GridConfigError as exc:
        raise UsageError(str(exc)) from exc


def cmd_minimize(cfg):
    alpha = float(_need(cfg, "alpha"))
    seed = int(_need(cfg, "seed", 0))
    grid = _grid_for(cfg)
    u0 = functional.random_start(grid, (seed, 0, 0))
    res = functional.minimize(alpha, u0)
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
        "el_residual": functional.el_residual(res.u, 1.0 / alpha),
        "h1_norm": sphere.h1_norm(res.u),
        "l2_norm": sphere.l2_norm(res.u),
    }
    verdict = "pass" if res.status in ("converged", "unbounded-descent") else "fail"
    return [row], verdict, None


def cmd_alpha_scan(cfg):
    alphas = _parse_list(_need(cfg, "alphas"))
    trials = int(_need(cfg, "trials", 5))
    seed = int(_need(cfg, "seed", 0))
    grid = _grid_for(cfg)
    rows = functional.alpha_scan(alphas, trials, seed, grid=grid)
    out = []
    ok = True
    for row in rows:
        asserted = row["alpha"] >= 2.0 / 3.0 - 1e-12
        # a run that failed certifies nothing
        passed = (row["min_j"] >= -1e-6 and row["n_failed"] == 0) if asserted else None
        if asserted:
            ok = ok and passed
        out.append({
            "claim": ("zero constrained infimum" if asserted
                      else "recorded minimum (open region, no assertion)"),
            **row,
            "passed": passed,
        })
    return out, ("pass" if ok else "fail"), out


def cmd_el_check(cfg):
    alpha = float(_need(cfg, "alpha"))
    seed = int(_need(cfg, "seed", 0))
    grid = _grid_for(cfg)
    res = functional.minimize(alpha, functional.random_start(grid, (seed, 0, 0)))
    resid = functional.el_residual(res.u, 1.0 / alpha)
    row = {
        "claim": "stationary points solve the field equation at rho = 1/alpha",
        "alpha": alpha,
        "rho": 1.0 / alpha,
        "el_residual": resid,
        "grad_norm": res.grad_norm,
        "passed": bool(resid <= 1e-5 and res.converged),
    }
    return [row], ("pass" if row["passed"] else "fail"), None


def cmd_bridge(cfg):
    alpha = float(_need(cfg, "alpha"))
    seed = int(_need(cfg, "seed", 0))
    rho = 1.0 / alpha
    grid = _grid_for(cfg)
    res = functional.minimize(alpha, functional.random_start(grid, (seed, 0, 0)))
    u = functional.shift_to_unit_mass(res.u)
    v = planar.to_planar(u, rho)
    rep = planar.pohozaev_check(v)
    mass = 2.0 * math.pi * rep.beta
    rows = [{
        "claim": "planar transfer of the minimiser stays in the mass window",
        "alpha": alpha, "rho": rho, "l": v.l,
        "beta": rep.beta, "beta_lower": rep.lower, "beta_upper": rep.upper,
        "inside": rep.inside,
        "mass_defect": mass - 8.0 * math.pi * rho,
        "passed": bool(rep.inside and abs(mass - 8.0 * math.pi * rho) <= 1e-6),
    }]
    return rows, ("pass" if rows[0]["passed"] else "fail"), planar.field_to_rows(v)


def cmd_shoot(cfg):
    l = float(_need(cfg, "l"))
    s = float(_need(cfg, "s"))
    sol = shooting.shoot(l, s, r_max=float(_need(cfg, "r_max", 1e6)),
                         tol=float(_need(cfg, "tol", 1e-10)))
    rows = [{
        "claim": "radial profile mass and asymptote",
        "l": l, "s": s,
        "beta": sol.beta_mass, "beta_slope": sol.beta_slope,
        "c_asym": sol.c_asym, "verdict": sol.verdict,
        "accepted_steps": len(sol.r_grid) - 1, "rejected_steps": sol.rejected_steps,
    }]
    csv_rows = [{"r": float(r), "v": float(v)} for r, v in zip(sol.r_grid, sol.values)]
    return rows, "info", csv_rows


def cmd_beta_curve(cfg):
    l = float(_need(cfg, "l"))
    rows = shooting.beta_curve(l, float(_need(cfg, "s_min", -4.0)),
                               float(_need(cfg, "s_max", 4.0)), int(_need(cfg, "n", 17)),
                               r_max=float(_need(cfg, "r_max", 1e6)))
    out = [{"claim": "mass along the shooting family", "l": l, **row} for row in rows]
    return out, "info", rows


def cmd_uniqueness(cfg):
    l = float(_need(cfg, "l"))
    if cfg.get("targets") is None and cfg.get("beta") is not None:
        targets = [float(cfg["beta"])]
    else:
        targets = _parse_list(_need(cfg, "targets", "4.5,5.0,5.5,6.0,6.5"))
    bracket = (float(_need(cfg, "s_min", -6.0)), float(_need(cfg, "s_max", 10.0)))
    search = shooting.solutions_at_beta(l, targets, bracket)
    cert = search.certificate
    rows = []
    ok = True
    for target, roots, slopes in zip(targets, search.roots, search.root_slopes):
        predicted, passed = acceptance.uniqueness_verdict(search, target, len(roots))
        ok = ok and passed
        rows.append({
            "claim": "root count equals the certified curve shape's count",
            "l": l, "beta_target": target,
            "n_roots": len(roots), "roots": roots, "predicted_roots": predicted,
            "near_tangent": [r for r, d in zip(roots, slopes) if abs(d) <= cert.slope_error],
            "passed": passed,
            "beta_range": list(search.beta_range),
            "divergent_samples": search.divergent_samples,
            "unresolved_samples": search.unresolved_samples,
            "certificate": cert.summary(),
        })
    return rows, ("pass" if ok else "fail"), rows


def cmd_axisym(cfg):
    alpha = float(_need(cfg, "alpha"))
    seed = int(_need(cfg, "seed", 0))
    trials = int(_need(cfg, "trials", 5))
    rows = []
    if alpha < 0.5 - 1e-12:
        floor = float(_need(cfg, "floor", -10.0))
        s_hit, trace = axisym.probe_two_bubble_1d(alpha, floor=floor)
        rows.append({
            "claim": "concentrating family drives the 1-D functional below the floor",
            "alpha": alpha, "floor": floor,
            "value_at_stop": trace[-1][1], "concentration_log": trace[-1][0],
            "passed": bool(s_hit is not None),
        })
        return rows, ("pass" if rows[0]["passed"] else "fail"), None
    worst = -math.inf
    for k in range(trials):
        res = axisym.minimize_axisym(alpha, axisym.random_start_1d((seed, k)))
        worst = max(worst, res.value)
        rows.append({
            "claim": "axisymmetric constrained minimum is zero",
            "alpha": alpha, "trial": k, "value": res.value,
            "iterations": res.iterations, "backtracks": res.backtracks,
            "newton_steps": res.newton_steps, "status": res.status,
            "passed": bool(res.value >= -1e-6 and res.status == "converged"),
        })
    ok = all(r["passed"] for r in rows)
    return rows, ("pass" if ok else "fail"), rows


def cmd_bol_audit(cfg):
    case = str(_need(cfg, "case", "perturbed"))
    radii = _parse_list(_need(cfg, "radii", "2.0,1.0,0.5"))
    fields = planar.audit_fields()
    if case not in fields:
        raise UsageError(f"unknown audit case {case!r} ({', '.join(fields)})")
    g_fn = fields[case]
    audits = eigen.bol_audit(g_fn, eigen.Disk(3.0), [eigen.Disk(r) for r in radii],
                             glap_fn=g_fn.lap_evaluator, h=float(_need(cfg, "h", 0.02)))
    rows = [{
        "claim": "nonpositive first eigenvalue forces mass over 4 pi",
        "case": case, "domain": a.domain, "lambda1": a.lambda1, "mass": a.mass,
        "supersolution_margin": a.supersolution_margin, "total_mass": a.total_mass,
        "verdict": a.verdict, "passed": a.verdict != "violated",
    } for a in audits]
    ok = all(r["passed"] for r in rows)
    return rows, ("pass" if ok else "fail"), rows


def cmd_nodal(cfg):
    which = str(_need(cfg, "field", "quadrant"))
    rho = float(_need(cfg, "rho", 1.5))
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
    return rows, ("pass" if rows[0]["passed"] else "fail"), None


def cmd_second_variation(cfg):
    mode = str(_need(cfg, "mode", "degree2"))
    grid = _grid_for(cfg)
    rep, target = functional.mode_threshold(grid, mode)
    rows = [{
        "claim": "sign change of the quadratic coefficient",
        "mode": mode, "threshold_estimate": rep.threshold_estimate,
        "expected": target, "quadratic_coefficient": rep.quadratic_coefficient,
        "passed": bool(abs(rep.threshold_estimate - target) <= 1e-3),
    }]
    return rows, ("pass" if rows[0]["passed"] else "fail"), None


def cmd_verify(cfg):
    seed = int(_need(cfg, "seed", acceptance.DEFAULT_SEED))
    determinism = str(_need(cfg, "determinism", "on")) != "off"
    rows = acceptance.run_verify(seed, determinism=determinism)
    summary = acceptance.summarize(rows)
    for cid in sorted(summary):
        name = acceptance.CRITERIA.get(cid, (f"criterion {cid}",))[0] if cid != 13 else "determinism"
        print(f"criterion {cid:2d} [{name}]: {'PASS' if summary[cid] else 'FAIL'}")
    ok = all(summary.values())
    return rows, ("pass" if ok else "fail"), rows


HANDLERS = {
    "minimize": cmd_minimize,
    "alpha-scan": cmd_alpha_scan,
    "el-check": cmd_el_check,
    "bridge": cmd_bridge,
    "shoot": cmd_shoot,
    "beta-curve": cmd_beta_curve,
    "uniqueness": cmd_uniqueness,
    "axisym": cmd_axisym,
    "bol-audit": cmd_bol_audit,
    "nodal": cmd_nodal,
    "second-variation": cmd_second_variation,
    "verify": cmd_verify,
}


def _run_flags() -> _Parser:
    """The run parameters every subcommand takes; a config file may set exactly these."""
    p = _Parser(add_help=False)
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--l", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--s-min", dest="s_min", type=float)
    p.add_argument("--s-max", dest="s_max", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--L", type=int)
    p.add_argument("--n-mu", dest="n_mu", type=int)
    p.add_argument("--h", type=float)
    p.add_argument("--r-max", dest="r_max", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--alphas", type=str)
    p.add_argument("--targets", type=str)
    p.add_argument("--floor", type=float)
    p.add_argument("--case", type=str)
    p.add_argument("--field", choices=("quadrant", "linear"))
    p.add_argument("--mode", choices=("degree1", "degree2"))
    p.add_argument("--radii", type=str)
    p.add_argument("--determinism", choices=("on", "off"))
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="onofri", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    common = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter, parents=[_run_flags()])
    for name in HANDLERS:
        p = sub.add_parser(name, **common)
        p.add_argument("--config", type=str)
        p.add_argument("--out", type=str)
        p.add_argument("--csv", type=str)
        p.add_argument("--verbose", "-v", action="store_true")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("missing subcommand")
        logging.basicConfig(level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
                            format="%(levelname)s %(message)s")
        cfg = _merge_config(args)
        handler = HANDLERS[args.command]
        t0 = time.time()
        rows, verdict, csv_rows = handler(cfg)
        rep = report.build_report(args.command, cfg, int(cfg.get("seed", 0) or 0),
                                  rows, verdict, time.time() - t0)
        problems = report.validate_report(rep)
        if problems:
            raise RuntimeError(f"internal: report failed validation: {problems}")
        if args.out:
            report.write_json(args.out, rep)
            log.info("wrote %s", args.out)
        if args.csv and csv_rows:
            report.write_csv(args.csv, csv_rows)
            log.info("wrote %s", args.csv)
        print(f"{args.command}: verdict={verdict} rows={len(rows)} elapsed={rep['elapsed_s']:.2f}s")
        if verdict == "fail":
            return EXIT_MATH
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
