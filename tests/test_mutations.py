"""Each criterion fails under a plausible defect of the code it checks.

A mutation is a monkeypatched defect; under it the criterion, run alone, must
fail exactly the rows that read the broken code, and without it pass again.
A criterion that no mutation can fail would be checking nothing.
"""
import dataclasses
import math

import pytest

from onofri import acceptance, eigen, planar


def _to_planar_with_log_4rho(monkeypatch):
    """to_planar adds log(4 rho) in place of log(8 rho): every pulled-back mass halves."""
    to_planar = planar.to_planar

    def mutated(u, rho):
        v = to_planar(u, rho)
        shift = math.log(2.0)
        return dataclasses.replace(v, evaluator=lambda y: v.evaluator(y) - shift,
                                   ring_evaluator=lambda r, t: v.ring_evaluator(r, t) - shift)

    monkeypatch.setattr(planar, "to_planar", mutated)


def _half_dirichlet_face(monkeypatch):
    """_polar_grid gives the Dirichlet face at r = R half its weight 2 n_r dtheta."""
    polar_grid = eigen._polar_grid

    def mutated(R, n_r, n_theta):
        m_ring, w_rad, ring_diag, w_ang, pts = polar_grid(R, n_r, n_theta)
        ring_diag = ring_diag.copy()
        ring_diag[-1] -= n_r * (2.0 * math.pi / n_theta)
        return m_ring, w_rad, ring_diag, w_ang, pts

    monkeypatch.setattr(eigen, "_polar_grid", mutated)


# criterion: (mutation, the checks it fails)
MUTATIONS = {
    5: (_to_planar_with_log_4rho, {"mass_transfer_mixed_modes", "mass_transfer_conformal_factor",
                                   "mass_transfer_random_degree6"}),
    9: (_half_dirichlet_face, {"dirichlet_disk", "liouville_lambda1"}),
}


def _failed(cid):
    return {row["check"] for row in acceptance.run_battery(acceptance.DEFAULT_SEED, [cid])
            if not row["passed"]}


@pytest.mark.parametrize("cid", sorted(MUTATIONS))
def test_criterion_fails_under_its_mutation(monkeypatch, cid):
    mutate, checks = MUTATIONS[cid]
    mutate(monkeypatch)
    assert _failed(cid) == checks
    monkeypatch.undo()
    assert _failed(cid) == set()
