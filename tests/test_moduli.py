"""The quadruple construction, relation kernels, incidence geometry, and the
round trip between sheaf data and relation planes."""

import random

import pytest

from bimodulus import moduli
from bimodulus.errors import DegenerateInstance, SpecialPosition
from bimodulus.curves import enumerate_points, make_kind, member_j, random_smooth_point
from bimodulus.exactmath import PrimeField
from bimodulus.exactmath import subspace_equal
from bimodulus.linebundles import Curve, LineBundle, isomorphic, section_space
from bimodulus.moduli import (
    Quadruple,
    ci_shadows,
    ci_smooth_j,
    incidence_points,
    phi,
    phi_inverse,
    point_representation,
    psi0,
    psi1,
    random_quadruple,
    random_sheaf_datum,
    recover_relations_from_ci,
    relations_to_ci,
    roundtrip0,
)
from bimodulus.quivers import generic_member_quiver, theta_stable


@pytest.fixture(scope="module")
def datum():
    rng = random.Random(20260814)
    F101 = PrimeField(101)
    while True:
        curve, U = random_sheaf_datum(F101, rng)
        try:
            quad = phi(U)
        except DegenerateInstance:
            continue  # the sheaf hit a ruling pullback; redraw
        rel = psi0(quad)
        c1, c2 = relations_to_ci(F101, rel)
        return F101, rng, curve, U, quad, rel, c1, c2


def test_random_sheaf_datum_shape(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    assert curve.kind == "I0"
    assert U.degree_total() == 2
    assert U.curve is curve


def test_quadruple_rejects_isomorphic_equal_degree_bundles(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    L0 = LineBundle(curve, 0, 1)
    L2 = LineBundle(curve, 1, 0)
    with pytest.raises(DegenerateInstance):
        Quadruple(curve, L0, L0, L2)


def test_quadruple_requires_smooth_member(F101, rng):
    bad = Curve(make_kind(F101, "I1", rng))
    with pytest.raises(Exception):
        Quadruple(bad, LineBundle(bad, 0, 1), LineBundle(bad, 1, 1), LineBundle(bad, 1, 0))


def test_phi_lands_in_component_zero(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    assert quad.component == 0
    assert [L.degree_total() for L in (quad.L0, quad.L1, quad.L2)] == [2, 2, 2]


def test_psi0_kernel_is_a_plane_vanishing_on_the_member(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    assert len(rel) == 2 and all(len(v) == 8 for v in rel)
    assert c1.degree == (1, 1, 1) and not c1.is_zero() and not c2.is_zero()
    # the relations vanish on the image of the member in (P^1)^3
    bases = [section_space(L) for L in (quad.L0, quad.L1, quad.L2)]
    hits = 0
    for _ in range(20):
        p = random_smooth_point(curve.f, rng)
        coords = []
        for S in bases:
            vals = tuple(S.form(i).eval_full(list(p)) for i in range(S.dim()))
            if not any(vals):
                coords = None
                break
            coords.append(vals)
        if coords is None:
            continue
        assert not c1.eval_full(coords)
        assert not c2.eval_full(coords)
        hits += 1
    assert hits >= 5


def test_shadows_are_smooth_with_the_member_j(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    shadows = ci_shadows(c1, c2)
    assert len(shadows) == 3
    assert ci_smooth_j(c1, c2) == member_j(curve.f)


def test_incidence_points_lie_on_both_relations(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    pts = incidence_points(c1, c2)
    assert len(pts) > 6
    for p in pts[:10]:
        assert not c1.eval_full(list(p))
        assert not c2.eval_full(list(p))
    rec = recover_relations_from_ci(c1, c2)
    assert subspace_equal(F101, rec, rel)


def test_point_representations_are_stable(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    q = generic_member_quiver()
    for p in incidence_points(c1, c2)[:5]:
        assert theta_stable(q, point_representation(p))


def test_psi1_kernel_dimension(F101, rng):
    for _ in range(8):
        try:
            quad = random_quadruple(F101, rng, component=1)
            rel = psi1(quad)
        except (DegenerateInstance, SpecialPosition):
            continue
        assert len(rel) == 3 and all(len(v) == 8 for v in rel)
        return
    pytest.skip("no middle-component quadruple found in the budget")


def test_phi_inverse_reconstructs_the_sheaf(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    curve2, sheaf, sections = phi_inverse(quad, rng)
    assert curve2.f.proportional(curve.f)
    back = LineBundle(curve, 1, 1, minus=sheaf.minus)
    assert isomorphic(back, U)


def test_roundtrip_report(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    out = roundtrip0(U, sample_reps=3)
    assert out["j"] == member_j(curve.f)
    assert out["points"] > 6
    assert out["stable_reps_checked"] == 3


def test_roundtrip_counts_the_points_of_the_member(datum):
    # the incidence curve is isomorphic to W, so both have as many points
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    assert roundtrip0(U)["points"] == len(enumerate_points(curve.f))


def test_roundtrip_enumerates_points_once(datum, monkeypatch):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    calls = []

    def counted(f):
        calls.append(f)
        return enumerate_points(f)

    monkeypatch.setattr(moduli, "enumerate_points", counted)
    roundtrip0(U)
    assert len(calls) == 1


def test_seeded_roundtrip_over_f1009():
    F1009 = PrimeField(1009)
    rng = random.Random(1009)
    for _ in range(20):
        try:
            curve, U = random_sheaf_datum(F1009, rng)
            rep = roundtrip0(U)
        except (DegenerateInstance, SpecialPosition):
            continue
        n = rep["points"]
        assert n == len(enumerate_points(curve.f))
        assert (n - 1010) ** 2 <= 4 * 1009
        assert rep["j"] == member_j(curve.f) and rep["stable_reps_checked"] == 4
        return
    pytest.fail("no round trip over F_1009 in 20 draws")
