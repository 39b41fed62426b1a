"""Desk-scale acceptance battery.

Thirteen numbered checks cover the spectral core, the constrained minima of
the sphere functional, the unboundedness threshold, the stereographic mass
identities, radial shooting and its uniqueness windows, the eigenvalue/mass
audits, nodal-domain accounting, the second-variation threshold, the
axisymmetric inequality, and bit-for-bit determinism.  Each check returns
rows shaped for the JSON report; the same rows back the pytest suite and the
`verify` subcommand.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import axisym, conformal, eigen, functional, planar, shooting, sphere

DEFAULT_SEED = 20260808

# Pass rules that the battery and the CLI both apply.
J_TOL = 1e-6                # a constrained minimum at or above -J_TOL is zero
EL_TOL = 1e-5               # field-equation residual of a stationary point
MASS_TOL = 1e-7             # plane mass 2 pi beta against 8 pi rho
SHOT_TOL = 1e-6             # a radial shot's mass against its exact value or window edge
THRESHOLD_TOL = 1e-8        # second-variation threshold against its exact value
ALPHA_CERTIFIED = 2.0 / 3.0     # the paper's claim: J_alpha >= 0 on the constraint from here up


def certified(alpha) -> bool:
    """Whether alpha lies in the certified region, up to rounding of the given value."""
    return alpha >= ALPHA_CERTIFIED - 1e-12


def _row(criterion, check, claim, value, tolerance, passed, **extra):
    row = {
        "criterion": int(criterion),
        "check": str(check),
        "claim": str(claim),
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(passed),
    }
    row.update(extra)
    return row


# -- 1: spectral core -------------------------------------------------------


def criterion_1(seed, grids):
    g = grids["g32"]
    rows = []
    moment = sphere.integrate(sphere.field_of(g, lambda a, b, c: c**2))
    rows.append(_row(1, "moment_x3_sq", "integral of x3^2 equals 1/3",
                     abs(moment - 1.0 / 3.0), 1e-12, abs(moment - 1.0 / 3.0) <= 1e-12))
    x3 = sphere.field_of(g, lambda a, b, c: c)
    e1 = float(np.max(np.abs(sphere.laplacian(x3).values + 2.0 * x3.values)))
    rows.append(_row(1, "laplacian_degree1", "degree-1 eigenvalue 2", e1, 1e-10, e1 <= 1e-10))
    p2 = sphere.field_of(g, lambda a, b, c: 3.0 * c**2 - 1.0)
    e2 = float(np.max(np.abs(sphere.laplacian(p2).values + 6.0 * p2.values)))
    rows.append(_row(1, "laplacian_degree2", "degree-2 eigenvalue 6", e2, 1e-10, e2 <= 1e-10))
    return rows


# -- 2: unconstrained-infimum evidence at alpha = 1 -------------------------


def criterion_2(seed, grids):
    g = grids["g16"]
    runs = functional.minimize_starts([1.0] * 20, [(seed, 2, k) for k in range(20)], g)
    h1 = sphere.h1_norm(sphere.SphereField(g, np.stack([res.u.values for res in runs])))
    rows = []
    for k, res in enumerate(runs):
        ok = (-J_TOL <= res.j_value <= 1e-3) and h1[k] <= 1e-3 and res.converged
        rows.append(_row(2, f"start_{k:02d}", "alpha=1 minimum in [-1e-6, 1e-3], H1 <= 1e-3",
                         res.j_value, 1e-3, ok, h1_norm=float(h1[k]), iterations=res.iterations))
    return rows


# -- 3: zero infimum for alpha >= 2/3 ---------------------------------------


def criterion_3(seed, grids):
    g = grids["g16"]
    rows = []
    for ia, alpha in enumerate((ALPHA_CERTIFIED, 0.70, 0.75, 0.80, 0.90)):
        runs = functional.minimize_starts([alpha] * 10, [(seed, 3, ia, k) for k in range(10)], g)
        el = functional.el_residual(sphere.SphereField(g, np.stack([res.u.values for res in runs])),
                                    1.0 / alpha)
        min_j = min(res.j_value for res in runs)
        worst_el = max(0.0, *el)
        all_conv = all(res.converged for res in runs)
        ok = min_j >= -J_TOL and worst_el <= EL_TOL and all_conv
        rows.append(_row(3, f"alpha_{alpha:.4f}", "constrained minimum zero, stationary points solve the field equation",
                         min_j, J_TOL, ok, worst_el_residual=float(worst_el), alpha=float(alpha)))
    return rows


# -- 4: unboundedness below alpha = 1/2 --------------------------------------


def criterion_4(seed, grids):
    rows = []
    s_hit, trace = conformal.probe_two_bubble(0.45, floor=-10.0)
    j_hit = trace[-1][1]
    rows.append(_row(4, "two_bubble_sphere", "concentrating family drives the functional below -10",
                     j_hit, -10.0, s_hit is not None and j_hit < -10.0,
                     concentration_log=float(trace[-1][0])))
    s1, trace1 = axisym.probe_two_bubble_1d(0.45, floor=-10.0)
    i_hit = trace1[-1][1]
    rows.append(_row(4, "two_bubble_axisym", "axisymmetric family drives the functional below -10",
                     i_hit, -10.0, s1 is not None and i_hit < -10.0,
                     concentration_log=float(trace1[-1][0])))
    return rows


# -- 5: bridge identities ----------------------------------------------------


def bridge_fields(seed, g):
    """(name, planar transfer, rho) of the three unit-mass sphere fields whose
    plane mass criterion 5 checks."""
    x3 = sphere.field_of(g, lambda a, b, c: c)
    x1x2 = sphere.field_of(g, lambda a, b, c: a * b)
    pts3 = np.stack(g.points(), axis=-1)
    fields = [
        ("mixed_modes", functional.shift_to_unit_mass(0.3 * x3 + (0.2 * x1x2).values), 1.25),
        ("conformal_factor", sphere.SphereField(
            g, conformal.log_conformal_factor(pts3, np.array([0.0, 0.1, 0.38]))), 1.4),
        ("random_degree6", functional.shift_to_unit_mass(
            functional.random_start(g, (seed, 5, 0), degree=6)), 1.5),
    ]
    return [(name, planar.to_planar(u, rho), rho) for name, u, rho in fields]


def criterion_5(seed, grids):
    rows = []
    for l in (0.5, 1.0, 1.5):
        rho = 1.0 + l / 2.0
        beta = planar.beta_l(planar.v_star_field(rho))
        err = abs(beta - (4.0 + 2.0 * l))
        rows.append(_row(5, f"beta_vstar_l_{l}", "axial profile mass equals 4 + 2l",
                         err, 1e-8, err <= 1e-8, l=float(l)))
    vs = planar.v_star_field(1.5)
    x_axis = planar.grid_points(np.linspace(0.0, 20.0, 401), [0.0])
    res = float(np.max(np.abs(planar.planar_residual(vs, x_axis))))
    rows.append(_row(5, "vstar_residual", "axial profile solves the planar equation pointwise",
                     res, 1e-10, res <= 1e-10))

    for name, v, rho in bridge_fields(seed, grids["g32"]):
        mass = 2.0 * math.pi * planar.beta_l(v)
        err = abs(mass - 8.0 * math.pi * rho)
        rows.append(_row(5, f"mass_transfer_{name}", "plane mass equals 8 pi rho times unit sphere mass",
                         err, MASS_TOL, err <= MASS_TOL, rho=float(rho)))
    return rows


# -- 6: flat mass curve at l = 0 ---------------------------------------------


def criterion_6(seed, grids):
    rows = []
    for s in np.linspace(-4.0, 4.0, 17):
        sol = shooting.shoot(0.0, float(s))
        dev = abs(sol.beta_mass - 4.0)
        agree = abs(sol.beta_mass - sol.beta_slope)
        ok = dev <= SHOT_TOL and agree <= SHOT_TOL and sol.verdict == "converged"
        rows.append(_row(6, f"s_{s:+.2f}", "l=0 mass is 4 for every start; dual estimators agree",
                         dev, SHOT_TOL, ok, estimator_gap=float(agree)))
    return rows


# -- 7: Pohozaev window -------------------------------------------------------


def criterion_7(seed, grids):
    rows = []
    for l in (0.5, 1.0, 1.5, 2.0):
        s_anchor = math.log(8.0 * (1.0 + l / 2.0))
        for s in (-3.0, -1.0, 0.0, 1.0, 3.0, s_anchor):
            sol = shooting.shoot(l, float(s))
            if sol.verdict != "converged":
                rows.append(_row(7, f"l_{l}_s_{s:+.2f}", "finite-mass window", 0.0, 0.0, False,
                                 verdict=sol.verdict))
                continue
            lower, upper = shooting.mass_window(l)
            lo, hi = lower + SHOT_TOL, upper - SHOT_TOL
            ok = lo < sol.beta_mass < hi
            rows.append(_row(7, f"l_{l}_s_{s:+.2f}", "mass strictly inside (4, 4(1+l))",
                             sol.beta_mass, SHOT_TOL, ok, l=float(l), window_low=lo, window_high=hi))
        # the last shot starts the axial profile v* at rho = 1 + l/2, of mass 4 rho
        err = abs(sol.beta_mass - (4.0 + 2.0 * l))
        rows.append(_row(7, f"l_{l}_closed_form", "axial profile mass equals 4 + 2l",
                         err, 1e-8, sol.verdict == "converged" and err <= 1e-8, l=float(l)))
    return rows


# -- 8: uniqueness windows ----------------------------------------------------


# Claimed root counts on the bracket (-6, 10).  For l <= 1 the mass curve
# falls monotonically, one profile per mass it reaches.  For l > 1 it falls
# from 4(1+l) to a minimum beta_min (7.352 at l = 2) and rises back toward
# 4l: none below beta_min, two between beta_min and 4l, one above 4l.
UNIQUENESS_TARGETS = (
    (0.5, ((4.5, 1), (5.0, 1), (5.5, 1), (5.75, 1))),
    (1.0, ((4.5, 1), (5.0, 1), (5.5, 1), (6.0, 1), (6.5, 1))),
    (2.0, ((7.2, 0), (7.5, 2), (7.9, 2), (9.0, 1), (11.0, 1))),
)


def uniqueness_verdict(search, target, n_roots):
    """(predicted count, passed) for one target of a root search: the count
    the certified curve shape predicts, and whether the search found exactly
    that many roots under a valid certificate."""
    predicted = search.certificate.count(target)
    return predicted, predicted is not None and n_roots == predicted


def criterion_8(seed, grids):
    rows = []
    bracket = (-6.0, 10.0)
    roots_at = {}
    for l, claims in UNIQUENESS_TARGETS:
        targets = [target for target, _ in claims]
        search = shooting.solutions_at_beta(l, targets, bracket)
        certificate = search.certificate.summary()
        for (target, claimed), roots, slopes in zip(claims, search.roots, search.root_slopes):
            roots_at[(l, target)] = roots
            predicted, passed = uniqueness_verdict(search, target, len(roots))
            rows.append(_row(8, f"l_{l}_beta_{target}",
                             "root count equals the certified curve shape's count and the claim",
                             len(roots), claimed, passed and predicted == claimed,
                             roots=[float(r) for r in roots],
                             root_slopes=[float(d) for d in slopes], l=float(l),
                             predicted_roots=predicted, beta_range=list(search.beta_range),
                             unresolved_samples=search.unresolved_samples,
                             certificate=certificate))
    for l, target, s_star in ((0.5, 5.0, math.log(10.0)), (1.0, 6.0, math.log(12.0))):
        roots = roots_at[(l, target)]
        err = abs(roots[0] - s_star) if roots else math.inf
        rows.append(_row(8, f"anchor_l_{l}", "axial profile recovered as the unique root",
                         err, 1e-6, len(roots) == 1 and err <= 1e-6, l=float(l)))
    sol = shooting.shoot(2.0, math.log(16.0))
    err = abs(sol.beta_mass - 8.0)
    rows.append(_row(8, "anchor_l_2.0", "axial profile mass at l=2", err, SHOT_TOL, err <= SHOT_TOL))
    return rows


# -- 9: eigenvalue/mass oracles and audits ------------------------------------


def criterion_9(seed, grids):
    rows = []
    fields = planar.audit_fields()
    bubble, g_eps = fields["liouville"], fields["perturbed"]
    j01sq = 5.783185962946785
    lam = eigen.first_eigenvalue_extrapolated(None, eigen.Disk(1.0), 0.04)
    rows.append(_row(9, "dirichlet_disk", "unit-disk Dirichlet ground energy",
                     abs(lam - j01sq), 1e-3, abs(lam - j01sq) <= 1e-3))
    lam0 = eigen.first_eigenvalue_extrapolated(bubble, eigen.Disk(1.0), 0.04)
    rows.append(_row(9, "liouville_lambda1", "unit disk is neutral for the bubble profile",
                     abs(lam0), 1e-3, abs(lam0) <= 1e-3))
    mass = eigen.domain_mass(bubble, eigen.Disk(1.0))
    rows.append(_row(9, "liouville_mass", "unit-disk bubble mass is 4 pi",
                     abs(mass - eigen.FOUR_PI), 1e-6, abs(mass - eigen.FOUR_PI) <= 1e-6))

    audits = [("audit", a) for a in eigen.bol_audit(
        g_eps, eigen.Disk(3.0), [eigen.Disk(2.0), eigen.Disk(1.0), eigen.Disk(0.5)],
        glap_fn=g_eps.lap_evaluator)]
    audits += [("audit_liouville", a) for a in eigen.bol_audit(
        bubble, eigen.Disk(3.0), [eigen.Disk(1.0)], glap_fn=bubble.lap_evaluator)]
    for name, a in audits:
        rows.append(_row(9, f"{name}_{a.domain}", "eigenvalue hypothesis forces mass over 4 pi",
                         a.mass, eigen.FOUR_PI, a.verdict != "violated",
                         lambda1=a.lambda1, verdict=a.verdict,
                         margin=a.supersolution_margin))
    r_star = eigen.zero_eigenvalue_radius(g_eps, (0.7, 1.1))
    m_star = eigen.domain_mass(g_eps, eigen.Disk(r_star + 2e-3))
    rows.append(_row(9, "continuation_radius", "neutral radius carries mass over 4 pi",
                     m_star - eigen.FOUR_PI, 0.0, m_star > eigen.FOUR_PI, r_star=float(r_star)))
    return rows


# -- 10: nodal-domain accounting ----------------------------------------------


def criterion_10(seed, grids):
    rows = []
    rep, expected = planar.analytic_nodal_count("quadrant", 1.5)
    rows.append(_row(10, "quadrant_count", "degree-2 sign pattern has four domains",
                     rep.m, expected, rep.m == expected))
    gap = abs(sum(rep.masses) - rep.total)
    rows.append(_row(10, "partition_mass", "per-domain masses sum to the total",
                     gap, 1e-8, gap <= 1e-8))
    led3 = planar.nodal_ledger(3, 1.5)
    rows.append(_row(10, "ledger_m3", "three domains above 4 pi beat the budget 12 pi",
                     led3["total_budget"], led3["total_exceeds"], led3["contradiction"]))
    led4 = planar.nodal_ledger(4, 2.0)
    rows.append(_row(10, "ledger_m4", "four domains above 4 pi beat the budget 16 pi",
                     led4["total_budget"], led4["total_exceeds"], led4["contradiction"]))
    led_ctrl = planar.nodal_ledger(4, 2.2)
    rows.append(_row(10, "ledger_control", "no contradiction above the mass threshold",
                     led_ctrl["total_budget"], led_ctrl["total_exceeds"],
                     not led_ctrl["contradiction"]))
    return rows


# -- 11: second-variation thresholds -------------------------------------------


def criterion_11(seed, grids):
    rows = []
    for mode, claim in (("degree2", "quadratic coefficient changes sign at alpha = 1/3"),
                        ("degree1", "coordinate modes change sign at alpha = 1")):
        threshold, _, exact = functional.mode_threshold(grids["g16"], mode)
        err = abs(threshold - exact)
        rows.append(_row(11, f"{mode}_threshold", claim, threshold, THRESHOLD_TOL,
                         err <= THRESHOLD_TOL))
    return rows


# -- 12: axisymmetric evidence --------------------------------------------------


def criterion_12(seed, grids):
    alphas = (0.5, 0.55, 0.6)
    keys = [(seed, 12, ia, k) for ia in range(len(alphas)) for k in range(20)]
    runs = axisym.minimize_starts(np.repeat(alphas, 20), keys)
    rows = []
    for ia, alpha in enumerate(alphas):
        mine = runs[20 * ia: 20 * (ia + 1)]
        lowest = min(res.value for res in mine)     # the best start: no start may go below zero
        all_conv = all(res.status == "converged" for res in mine)
        rows.append(_row(12, f"alpha_{alpha}", "axisymmetric constrained minimum is zero",
                         lowest, J_TOL, lowest >= -J_TOL and all_conv, alpha=float(alpha)))
    g1d = axisym.random_start_1d((seed, 12, 99), degree=6)
    u = axisym.lift(g1d, grids["g32"])
    gap = abs(2.0 * functional.j_alpha(u, 0.77) - axisym.i_functional(g1d, 0.77))
    rows.append(_row(12, "lift_identity", "doubled sphere value matches the 1-D functional",
                     gap, 1e-10, gap <= 1e-10))
    return rows


CRITERIA = {
    1: ("spectral core", criterion_1),
    2: ("minimum at alpha = 1", criterion_2),
    3: ("zero infimum down to 2/3", criterion_3),
    4: ("unboundedness below 1/2", criterion_4),
    5: ("stereographic bridge", criterion_5),
    6: ("flat mass curve at l = 0", criterion_6),
    7: ("Pohozaev window", criterion_7),
    8: ("uniqueness windows", criterion_8),
    9: ("eigenvalue and mass audits", criterion_9),
    10: ("nodal accounting", criterion_10),
    11: ("second-variation threshold", criterion_11),
    12: ("axisymmetric inequality", criterion_12),
}


def battery_grids():
    return {"g16": sphere.build_grid(16), "g32": sphere.build_grid(32)}


def run_battery(seed: int, criteria=None) -> list[dict]:
    """Rows for criteria 1..12 (or a subset), deterministic given the seed.

    The criteria run in the order given (ascending by default); the rows come
    back in ascending criterion order either way.
    """
    grids = battery_grids()
    by_criterion = {cid: CRITERIA[cid][1](seed, grids) for cid in (criteria or sorted(CRITERIA))}
    return [row for cid in sorted(by_criterion) for row in by_criterion[cid]]


def determinism_row(seed: int, forward_rows: list[dict]) -> dict:
    """Criterion 13: a forward and a reversed battery with one seed serialise identically.

    forward_rows are the rows of a forward pass already run with this seed; the
    criteria they hold are rerun in reversed order.
    """
    from .report import to_builtin

    forward = sorted({row["criterion"] for row in forward_rows})
    first = json.dumps(to_builtin(forward_rows), sort_keys=True)
    second = json.dumps(to_builtin(run_battery(seed, forward[::-1])), sort_keys=True)
    same = first == second
    return _row(13, "rerun_bytes", "identical seed reproduces result rows byte for byte in any order",
                0.0 if same else 1.0, 0.0, same)


def run_verify(seed: int, determinism: bool = True) -> list[dict]:
    rows = run_battery(seed)
    if determinism:
        rows.append(determinism_row(seed, rows))
    return rows


def summarize(rows: list[dict]) -> dict:
    """Per-criterion pass/fail map."""
    out = {}
    for row in rows:
        cid = row["criterion"]
        out.setdefault(cid, True)
        out[cid] = out[cid] and bool(row["passed"])
    return out
