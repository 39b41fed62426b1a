"""Benchmark workloads: inputs drawn from the seed, tasks and their gates.

A workload turns (seed, repeat index) into a list of tasks.  A task calls into
the package and returns (passed, row): `passed` is its correctness gate, and
`row` is what it computed, hashed to compare repeats and traced reruns.  Inputs
are generated here, outside the timed region, and the package receives only
those inputs.  Every repeat has the same task slots (`Task.key`) and a slot
does the same amount of work in every repeat, so the runner can time a slot by
its fastest repeat.

Why these four:
* verify  - criteria 1-12 of the acceptance battery, the job users run; it mixes
            every layer, and its root search repeats (l, s) shots.
* descent - multi-start constrained minimisation at L = 16 (per-iteration
            overhead dominates) and L = 32 (the transform kernels dominate),
            plus the axisymmetric minimiser; no shooting or eigen work.
* curves  - fresh radial shots with no repeated (l, s): isolates the
            integrator, so a cache of shots must show no gain here.
* audits  - eigenvalue/mass audits on perturbed Liouville fields at a coarse and
            a fine mesh, plus nodal domains on a fine grid.  Run by hand: its
            times spread too widely between seeds to gate on (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from onofri import acceptance, axisym, eigen, functional, planar, shooting, sphere
from onofri.report import to_builtin

FOUR_PI = 4.0 * math.pi


@dataclass
class Task:
    key: tuple                                  # slot: same in every repeat, orders rows
    name: str                                   # root span name in a traced run
    run: Callable[[], tuple[bool, Any]]


@dataclass
class Workload:
    setup: Callable[[int], dict]
    tasks: Callable[[dict, int], list]
    repeat_s: float         # nominal cost of one repeat on a 2-core x86 box
    min_repeats: int
    order_check: bool = False   # repeats share inputs, so their rows must hash alike


def rng_for(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 63), *stream])


def repeats_for(workload: Workload, seconds: float) -> int:
    """Fixed work per run: whole repeats sized from the measuring budget."""
    return max(workload.min_repeats, round(seconds / workload.repeat_s))


def row_hash(tasks: list, rows: list) -> str:
    """Digest of the rows put back in canonical task order."""
    ordered = [row for _, row in sorted(zip((t.key for t in tasks), rows), key=lambda p: p[0])]
    text = json.dumps(to_builtin(ordered), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- verify -------------------------------------------------------------------


def verify_setup(seed: int) -> dict:
    return {"seed": seed, "grids": acceptance.battery_grids()}


def _criterion(cid: int, state: dict):
    rows = acceptance.CRITERIA[cid][1](state["seed"], state["grids"])
    return all(row["passed"] for row in rows), rows


def verify_tasks(state: dict, repeat: int) -> list:
    """Criteria 1-12 in an order drawn from the seed and the repeat index."""
    order = rng_for(state["seed"], 1, repeat).permutation(sorted(acceptance.CRITERIA))
    return [Task((int(cid),), f"acceptance.criterion_{cid}",
                 lambda cid=int(cid): _criterion(cid, state)) for cid in order]


# -- descent ------------------------------------------------------------------

# Fixed alpha grids: iteration counts depend mostly on alpha, so the seed moves
# the starts but not the amount of work.  The L = 16 starts outnumber the rest,
# which keeps the task median inside that class; the L = 32 start is about a
# third of a repeat's wall time.
ALPHAS = {16: tuple(np.linspace(0.55, 1.0, 8)), 32: (0.75,)}
AXISYM_ALPHAS = tuple(np.linspace(0.5, 0.6, 4))


def descent_setup(seed: int) -> dict:
    return {"seed": seed, "grids": {L: sphere.build_grid(L) for L in ALPHAS}}


def _sphere_start(rng, grid, degree: int = 8, amplitude: float = 0.4):
    spec = sphere.zero_spectrum(grid.lmax)
    for l in range(1, degree + 1):
        ms = np.arange(-l, l + 1)
        spec.coeffs[l, grid.lmax + ms] = amplitude / (1.0 + l) ** 1.5 * rng.normal(size=ms.size)
    return sphere.synthesize(spec, grid)


def _descend(alpha: float, u0):
    res = functional.minimize(alpha, u0)
    el = functional.el_residual(res.u, 1.0 / alpha)
    ok = res.converged and el <= 1e-5 and (alpha < 2.0 / 3.0 or res.j_value >= -1e-6)
    return ok, {"alpha": alpha, "j": res.j_value, "el_residual": el,
                "iterations": res.iterations, "status": res.status}


def _descend_axisym(alpha: float, g0):
    res = axisym.minimize_axisym(alpha, g0)
    ok = res.status == "converged" and res.value >= -1e-6
    return ok, {"alpha": alpha, "value": res.value, "iterations": res.iterations,
                "status": res.status}


def descent_tasks(state: dict, repeat: int) -> list:
    rng = rng_for(state["seed"], 2, repeat)
    tasks = []
    for L, alphas in ALPHAS.items():
        for k, alpha in enumerate(alphas):
            u0 = _sphere_start(rng, state["grids"][L])
            tasks.append(Task((0, L, k), f"descent.L{L}",
                              lambda a=float(alpha), u0=u0: _descend(a, u0)))
    for k, alpha in enumerate(AXISYM_ALPHAS):
        ks = np.arange(1, axisym.DEFAULT_DEGREE + 1)
        coeffs = np.zeros(axisym.DEFAULT_DEGREE + 1)
        coeffs[1:] = 0.4 * rng.normal(size=ks.size) / (1.0 + ks) ** 1.5
        g0 = axisym.LegendreFunction(coeffs)
        tasks.append(Task((1, k), "descent.axisym",
                          lambda a=float(alpha), g0=g0: _descend_axisym(a, g0)))
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


# -- curves -------------------------------------------------------------------

CURVE_LS = (0.0, 0.5, 1.0, 2.0)
CURVE_S_RANGE = (-5.0, 8.0)
CURVE_POINTS = 24


def _shot(l: float, s: float):
    sol = shooting.shoot(l, s)
    gap = abs(sol.beta_mass - sol.beta_slope)
    beta = sol.beta_mass
    inside = abs(beta - 4.0) <= 1e-6 if l == 0.0 else 4.0 < beta < 4.0 * (1.0 + l)
    ok = sol.verdict == "converged" and gap <= 1e-6 and inside
    return ok, {"l": l, "s": s, "beta_mass": beta, "beta_slope": sol.beta_slope,
                "verdict": sol.verdict, "steps": len(sol.r_grid)}


def curves_setup(seed: int) -> dict:
    return {"seed": seed}


def curve_points(state: dict, repeat: int) -> dict:
    """One jittered s per stratum of the range, per exponent; the jitter is
    continuous and fresh per repeat, so no (l, s) repeats within a run, while
    a stratum's shot costs about the same in every repeat."""
    rng = rng_for(state["seed"], 3, repeat)
    lo, hi = CURVE_S_RANGE
    return {l: lo + (hi - lo) * (np.arange(CURVE_POINTS) + rng.random(CURVE_POINTS)) / CURVE_POINTS
            for l in CURVE_LS}


def curves_tasks(state: dict, repeat: int) -> list:
    return [Task((l, k), "curves.shot", lambda l=l, s=float(s): _shot(l, s))
            for l, ss in curve_points(state, repeat).items() for k, s in enumerate(ss)]


# -- audits -------------------------------------------------------------------

AUDIT_MESHES = (0.04, 0.02)
AUDIT_DOMAINS = (eigen.Disk(1.5), eigen.Disk(1.05), eigen.Rect(-1.1, 1.1, -0.9, 0.9))
NODAL_POINTS = 401
NODAL_FIELDS = 2


def _perturbed_liouville(eps: float, delta: float):
    """g = log 8 - 2 log(1+|y|^2) + eps |y|^2 + delta (y1^2 - y2^2), delta <= eps.

    lap g + e^g >= 4 eps > 0, so g is a strict supersolution on every domain."""
    def g(y):
        y = np.asarray(y, dtype=float)
        r2 = np.sum(y * y, axis=-1)
        aniso = y[..., 0] ** 2 - y[..., 1] ** 2
        return np.log(8.0) - 2.0 * np.log1p(r2) + eps * r2 + delta * aniso

    def glap(y):
        r2 = np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)
        return -8.0 / (1.0 + r2) ** 2 + 4.0 * eps

    return g, glap


def _audit(g, glap, omega, h: float):
    (audit,) = eigen.bol_audit(g, eigen.Disk(3.0), [omega], glap_fn=glap, h=h)
    return audit.verdict == "confirmed", vars(audit)


def _neutral_radius(g):
    r_star = eigen.zero_eigenvalue_radius(g, (0.6, 1.2), h=0.04)
    mass = eigen.domain_mass(g, eigen.Disk(r_star + 2e-3))
    return mass > FOUR_PI, {"r_star": r_star, "mass": mass}


def _nodal(theta: float, xs: np.ndarray):
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    c, s = math.cos(theta), math.sin(theta)
    U, V = c * X + s * Y, -s * X + c * Y
    field = (U**2 - V**2) * np.exp(-(X**2 + Y**2))

    def density(y):
        r2 = np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)
        return (1.0 + r2) * np.exp(planar.v_star(y, 1.5))

    rep = planar.nodal_domains(field, xs, xs, disk_radius=3.0, mass_density=density, rho=1.5)
    gap = abs(sum(rep.masses) - rep.total)
    return rep.m == 4 and gap <= 1e-8, {"m": rep.m, "masses": rep.masses, "total": rep.total}


def audits_setup(seed: int) -> dict:
    return {"seed": seed, "xs": np.linspace(-3.0, 3.0, NODAL_POINTS)}


def audits_tasks(state: dict, repeat: int) -> list:
    """Fixed domains and meshes, so each slot costs the same in every repeat;
    the seed and repeat perturb the field and rotate the nodal patterns."""
    rng = rng_for(state["seed"], 4, repeat)
    eps = 0.03 + 0.02 * rng.random()
    g, glap = _perturbed_liouville(eps, eps * 0.25 * rng.random())
    tasks = [Task((0, i, h), "audits.bol_audit",
                  lambda omega=omega, h=h: _audit(g, glap, omega, h))
             for i, omega in enumerate(AUDIT_DOMAINS) for h in AUDIT_MESHES]
    tasks.append(Task((1,), "audits.neutral_radius", lambda: _neutral_radius(g)))
    tasks += [Task((2, k), "audits.nodal", lambda t=float(theta): _nodal(t, state["xs"]))
              for k, theta in enumerate(0.5 * math.pi * rng.random(NODAL_FIELDS))]
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


WORKLOADS = {
    "verify": Workload(verify_setup, verify_tasks, repeat_s=28.0, min_repeats=2,
                       order_check=True),
    "descent": Workload(descent_setup, descent_tasks, repeat_s=2.7, min_repeats=2),
    "curves": Workload(curves_setup, curves_tasks, repeat_s=0.6, min_repeats=2),
    "audits": Workload(audits_setup, audits_tasks, repeat_s=2.3, min_repeats=2),
}
