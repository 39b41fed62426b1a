"""Each criterion fails under a plausible defect of the code it checks.

A mutation is a monkeypatched defect; under it the criterion, run alone, must
fail exactly the rows that read the broken code, and without it pass again.
A criterion that no mutation can fail would be checking nothing.
"""
import dataclasses
import math

import numpy as np
import pytest

from onofri import acceptance, conformal, eigen, functional, planar, shooting, sphere


def _laplacian_with_l_squared(monkeypatch):
    """sphere.laplacian multiplies degree l by -l^2 in place of -l(l+1)."""
    def mutated(f):
        spec = sphere.analyze(f)
        l = np.arange(spec.lmax + 1, dtype=float)
        spec.coeffs *= -(l * l)[:, None]
        return sphere.synthesize(spec, f.grid)

    monkeypatch.setattr(sphere, "laplacian", mutated)


def _two_bubble_at_double_alpha(monkeypatch):
    """two_bubble_j_value weighs the Dirichlet energy by alpha / 4 in place of
    alpha / 8: at 0.45 the family acts as at 0.9, above 1/2, and stays bounded."""
    two_bubble_j_value = conformal.two_bubble_j_value
    monkeypatch.setattr(conformal, "two_bubble_j_value",
                        lambda alpha, s: two_bubble_j_value(2.0 * alpha, s))


def _to_planar_with_log_4rho(monkeypatch):
    """to_planar adds log(4 rho) in place of log(8 rho): every pulled-back mass halves."""
    to_planar = planar.to_planar

    def mutated(u, rho):
        v = to_planar(u, rho)
        shift = math.log(2.0)
        return dataclasses.replace(v, evaluator=lambda y: v.evaluator(y) - shift,
                                   ring_evaluator=lambda r, t: v.ring_evaluator(r, t) - shift)

    monkeypatch.setattr(planar, "to_planar", mutated)


def _middle_gauss_weight_off(monkeypatch):
    """The shot's three-point mass rule weighs its middle node by 8/18 (1 + 1e-5):
    every mass is off by about 1.8e-5, far above the estimators' agreement."""
    monkeypatch.setattr(shooting, "_GAUSS3_WEIGHTS",
                        np.array([5.0 / 18.0, 8.0 / 18.0 * (1.0 + 1e-5), 5.0 / 18.0]))


def _tilt_overshooting(monkeypatch):
    """tilt returns 2c: every retraction overshoots the constraint, so no
    descent lane of either minimiser converges.  The lanes would run to
    MAX_ITER = 800 (8.3, 21.2 and 2.5 s for criteria 2, 3 and 12 on a 2-core
    Xeon host), so the budget drops to 20 iterations: the same rows fail in
    0.17, 0.51 and 0.08 s, and unmutated lanes stop after 4 or 5."""
    tilt = functional.tilt

    def mutated(values, weights, points, second, start):
        c, mom, steps = tilt(values, weights, points, second, start)
        return 2.0 * c, mom, steps

    monkeypatch.setattr(functional, "tilt", mutated)
    monkeypatch.setattr(functional, "MAX_ITER", 20)


def _shot_with_flipped_exponent(monkeypatch):
    """shoot integrates the weight (1+r^2)^{-l}: the mass window (4, 4(1+l)) is
    missed, and so is every mass the root search and the anchors look for."""
    integrate = shooting._integrate
    monkeypatch.setattr(shooting, "shoot",
                        lambda l, s, r_max=1e6: integrate(-l, s, r_max))


def _shot_with_scaled_exponent(monkeypatch):
    """shoot integrates the weight (1+r^2)^{1.001 l}: each mass moves by 1e-3 to
    4e-3, inside every window but off the axial profile's closed form 4 + 2l."""
    integrate = shooting._integrate
    monkeypatch.setattr(shooting, "shoot",
                        lambda l, s, r_max=1e6: integrate(1.001 * l, s, r_max))


def _labels_dropping_a_cell(monkeypatch):
    """_component_labels leaves one classified cell unlabelled: its mass leaves
    the domains but not the total, and the four domains stay four."""
    labelling = planar._component_labels

    def mutated(signs):
        labels, m = labelling(signs)
        classified = np.argwhere(signs != 0)
        i, j = classified[len(classified) // 2]
        labels[i, j] = 0
        return labels, m

    monkeypatch.setattr(planar, "_component_labels", mutated)


def _half_dirichlet_face(monkeypatch):
    """_polar_grid gives the Dirichlet face at r = R half its weight 2 n_r dtheta."""
    polar_grid = eigen._polar_grid

    def mutated(R, n_r, n_theta):
        m_ring, w_rad, ring_diag, w_ang, pts = polar_grid(R, n_r, n_theta)
        ring_diag = ring_diag.copy()
        ring_diag[-1] -= n_r * (2.0 * math.pi / n_theta)
        return m_ring, w_rad, ring_diag, w_ang, pts

    monkeypatch.setattr(eigen, "_polar_grid", mutated)


def _double_dirichlet_weight(monkeypatch):
    """_j_value weighs the Dirichlet term by alpha / 2 in place of alpha / 4: every
    threshold halves."""
    j_value = functional._j_value
    monkeypatch.setattr(functional, "_j_value",
                        lambda coeffs, log_mass, alpha: j_value(coeffs, log_mass, 2.0 * alpha))


def _no_richardson(monkeypatch):
    """The second variation's quadratic coefficient is j_alpha(t v)/t^2 at
    t = QUADRATIC_STEP alone, without the Richardson sweep on its O(t^2) tail:
    the thresholds move by 1.6e-7 (degree 2) and 3.3e-6 (degree 1)."""
    j_alpha, t = functional.j_alpha, functional.QUADRATIC_STEP
    monkeypatch.setattr(functional, "_quadratic_coefficient",
                        lambda v, alpha: float(j_alpha(t * v, alpha) / t**2))


CLOSED_FORM_7 = {f"l_{l}_closed_form" for l in (0.5, 1.0, 1.5, 2.0)}

# criterion: (mutation, the checks it fails)
MUTATIONS = {
    1: (_laplacian_with_l_squared, {"laplacian_degree1", "laplacian_degree2"}),
    2: (_tilt_overshooting, {f"start_{k:02d}" for k in range(20)}),
    3: (_tilt_overshooting, {f"alpha_{a:.4f}" for a in (2.0 / 3.0, 0.70, 0.75, 0.80, 0.90)}),
    4: (_two_bubble_at_double_alpha, {"two_bubble_sphere", "two_bubble_axisym"}),
    5: (_to_planar_with_log_4rho, {"mass_transfer_mixed_modes", "mass_transfer_conformal_factor",
                                   "mass_transfer_random_degree6"}),
    6: (_middle_gauss_weight_off, {f"s_{s:+.2f}" for s in np.linspace(-4.0, 4.0, 17)}),
    7: (_shot_with_flipped_exponent, {f"l_{l}_s_{s:+.2f}" for l in (0.5, 1.0, 1.5, 2.0)
                                      for s in (-3.0, -1.0, 0.0, 1.0, 3.0,
                                                math.log(8.0 * (1.0 + l / 2.0)))}
        | CLOSED_FORM_7),
    8: (_shot_with_flipped_exponent,
        {"anchor_l_0.5", "anchor_l_1.0", "anchor_l_2.0"}
        | {f"l_0.5_beta_{b}" for b in (4.5, 5.0, 5.5, 5.75)}
        | {f"l_1.0_beta_{b}" for b in (4.5, 5.0, 5.5, 6.0, 6.5)}
        | {f"l_2.0_beta_{b}" for b in (7.2, 7.5, 7.9, 9.0, 11.0)}),
    9: (_half_dirichlet_face, {"dirichlet_disk", "liouville_lambda1"}),
    10: (_labels_dropping_a_cell, {"partition_mass"}),
    11: (_double_dirichlet_weight, {"degree2_threshold", "degree1_threshold"}),
    12: (_tilt_overshooting, {"alpha_0.5", "alpha_0.55", "alpha_0.6"}),
}


def _failed(cid):
    return {row["check"] for row in acceptance.run_battery(acceptance.DEFAULT_SEED, [cid])
            if not row["passed"]}


# further mutations a criterion catches, named "criterion-mutation"
MORE_MUTATIONS = {"7-scaled_exponent": (7, _shot_with_scaled_exponent, CLOSED_FORM_7),
                  "11-no_richardson": (11, _no_richardson, {"degree2_threshold", "degree1_threshold"})}


@pytest.mark.parametrize("cid, mutate, checks",
                         [pytest.param(cid, *MUTATIONS[cid], id=str(cid)) for cid in sorted(MUTATIONS)]
                         + [pytest.param(*case, id=name) for name, case in MORE_MUTATIONS.items()])
def test_criterion_fails_under_its_mutation(monkeypatch, cid, mutate, checks):
    mutate(monkeypatch)
    assert _failed(cid) == checks
    monkeypatch.undo()
    assert _failed(cid) == set()


def test_criterion_9_audits_read_violated_under_half_the_mass(monkeypatch):
    """eigen.domain_mass halved keeps every eigenvalue: the two audits whose
    hypotheses hold read "violated", and the unit-disk mass and the neutral
    radius's mass fall below 4 pi."""
    domain_mass = eigen.domain_mass
    monkeypatch.setattr(eigen, "domain_mass", lambda g_fn, omega: 0.5 * domain_mass(g_fn, omega))

    def failed():
        return {row["check"]: row.get("verdict")
                for row in acceptance.run_battery(acceptance.DEFAULT_SEED, [9])
                if not row["passed"]}

    assert failed() == {"liouville_mass": None, "audit_disk(R=2.0)": "violated",
                        "audit_disk(R=1.0)": "violated", "continuation_radius": None}
    monkeypatch.undo()
    assert failed() == {}
