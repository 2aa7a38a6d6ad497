"""The quadruple construction, relation kernels, incidence geometry, and the
round trip between sheaf data and relation planes."""

import itertools
import random
import tracemalloc

import pytest

from bimodulus import curves, linebundles, moduli, polyring
from bimodulus.errors import DegenerateInstance, SpecialPosition, ValidationError
from bimodulus.curves import enumerate_points, make_kind, member_j, random_p1_point, random_smooth_point
from bimodulus.exactmath import QQ, FpElt, PrimeField, QuadExtField, kernel_basis, rank, subspace_equal
from bimodulus.linebundles import (
    Curve,
    LineBundle,
    NormalForm,
    _raising,
    isomorphic,
    section_space,
    sections_through,
)
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
    relations_through_points,
    relations_to_ci,
    roundtrip0,
)
from bimodulus.polyring import MultiPoly
from bimodulus.quivers import generic_member_quiver, theta_stable
import oracles
from oracles import (
    listed_roundtrip,
    power_eval,
    psi0_by_forms,
    psi1_by_forms,
    reembedded_member,
    shadow_incidence_points,
    shadow_smooth_j,
    span_contains,
    vanishes_doubly,
)


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


@pytest.mark.parametrize("p", [11, 101])
def test_finite_field_sheaf_draws_are_the_unplanted_ones(p):
    # over F_p a member carries no planted fibers, and the datum is the one
    # drawn by hand from random_smooth_22 and random_line_bundle
    F = PrimeField(p)
    for seed in range(10):
        drawn, by_hand = random.Random(seed), random.Random(seed)
        curve, U = random_sheaf_datum(F, drawn)
        while True:
            hand = Curve(curves.random_smooth_22(F, by_hand), kind="I0")
            try:
                V = linebundles.random_line_bundle(hand, by_hand, deg_lo=2, deg_hi=2)
                break
            except (ValidationError, SpecialPosition):
                continue
        assert curve.fibers.planted == ()
        assert curve.f == hand.f
        assert (U.m, U.n, U.minus, U.plus) == (V.m, V.n, V.minus, V.plus)
        assert drawn.getstate() == by_hand.getstate()


@pytest.mark.parametrize("draw", [random_sheaf_datum, random_quadruple])
def test_each_drawn_member_is_classified_once(draw, monkeypatch):
    # the curve takes the type random_smooth_22 just found instead of
    # classifying the member again
    drawn, classified = [], []
    real_draw, real_classify = polyring.random_multipoly, curves.kodaira_classify

    def counted_draw(field, degree, rng):
        drawn.append(degree)
        return real_draw(field, degree, rng)

    def counted_classify(f):
        classified.append(f)
        return real_classify(f)

    for module in (polyring, curves):
        monkeypatch.setattr(module, "random_multipoly", counted_draw)
    for module in (curves, linebundles, moduli):
        monkeypatch.setattr(module, "kodaira_classify", counted_classify)
    rng = random.Random(7)
    for _ in range(20):
        draw(PrimeField(101), rng)
    assert drawn.count((2, 2)) >= 20
    assert len(classified) == drawn.count((2, 2))


def test_quadruple_rejects_isomorphic_equal_degree_bundles(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    L0 = LineBundle(curve, 0, 1)
    L2 = LineBundle(curve, 1, 0)
    with pytest.raises(DegenerateInstance):
        Quadruple(curve, L0, L0, L2)


def test_phi_tests_isomorphism_without_absorbing_a_point(monkeypatch):
    # U = O(m, n)(-Z) has no plus point, so each of phi's pairs has a
    # plus-free side of A (x) B^-1: O(m - 1, n)(-Z) for (L0, L1),
    # O(m - 2, n + 1)(-Z) for (L1, L2) and O(-1, 1) for (L0, L2)
    absorbed = []
    real = LineBundle._absorb_one
    monkeypatch.setattr(LineBundle, "_absorb_one",
                        lambda self, p: absorbed.append(p) or real(self, p))
    built = 0
    for seed in range(10):
        _, U = random_sheaf_datum(PrimeField(101), random.Random(seed))
        try:
            phi(U)
            built += 1
        except DegenerateInstance:
            pass
    assert built >= 5 and absorbed == []


def test_quadruple_requires_smooth_member(F101, rng):
    bad = Curve(make_kind(F101, "I1", rng))
    with pytest.raises(Exception):
        Quadruple(bad, LineBundle(bad, 0, 1), LineBundle(bad, 1, 1), LineBundle(bad, 1, 0))


def test_phi_lands_in_component_zero(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    assert quad.component == 0
    assert [L.degree_total() for L in (quad.L0, quad.L1, quad.L2)] == [2, 2, 2]


def test_psi_multiplies_sections_as_normal_forms(datum, monkeypatch):
    # over F_p every product of sections goes from normal forms to a normal
    # form, and no form is multiplied: psi0 takes one product per path,
    # psi1 one per path and per one-step product behind a skip arrow
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    quad1 = random_quadruple(F101, random.Random(3), component=1)
    rel1 = psi1(quad1)
    calls = {"form": 0, "normal form": 0}
    real_mul, real_product = MultiPoly.__mul__, NormalForm.product

    def counted_mul(self, other):
        calls["form"] += 1
        return real_mul(self, other)

    def counted_product(self, *factors):
        calls["normal form"] += 1
        return real_product(self, *factors)

    monkeypatch.setattr(MultiPoly, "__mul__", counted_mul)
    monkeypatch.setattr(NormalForm, "product", counted_product)
    assert psi0(quad) == rel
    assert calls == {"form": 0, "normal form": 8}
    assert psi1(quad1) == rel1
    assert calls == {"form": 0, "normal form": 8 + 12}


def test_psi0_kernel_is_a_plane_vanishing_on_the_member(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    assert len(rel) == 2 and all(len(v) == 8 for v in rel)
    assert c1.degree == (1, 1, 1) and not c1.is_zero() and not c2.is_zero()
    # the relations vanish on the image of the member in (P^1)^3
    bases = [section_space(L) for L in (quad.L0, quad.L1, quad.L2)]
    hits = 0
    for _ in range(20):
        p = random_smooth_point(curve.fibers, rng)
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


SHARED_FIELDS = {"F11": PrimeField(11), "F101": PrimeField(101), "F1009": PrimeField(1009),
                 "F25": QuadExtField(PrimeField(5)), "Q": QQ}


def shared_support_products(field, seeds):
    """(quadruple, bundles, section spaces, shared points) for each product
    behind `psi1`'s skip arrows whose canonical representatives share a
    point, over component-1 draws from the given seeds; products whose
    bidegree fails the Kunneth condition are left out."""
    for seed in seeds:
        try:
            quad = random_quadruple(field, random.Random(seed), component=1)
            spaces = [section_space(L) for L in (quad.L0, quad.L1, quad.L2)]
        except SpecialPosition:
            continue
        bundles = (quad.L0, quad.L1, quad.L2)
        for i in (0, 1):
            A, B = spaces[i], spaces[i + 1]
            shared = [p for p in A.rep.minus if p in B.rep.minus]
            if shared and _raising(A.rep.m + B.rep.m, A.rep.n + B.rep.n) == (0, 0):
                yield quad, bundles[i:i + 2], (A, B), shared


@pytest.mark.parametrize("name", SHARED_FIELDS)
def test_products_vanish_doubly_where_the_divisors_share_a_point(name):
    # the space `_outside_span` picks from: every normal form in it, and
    # every product of sections, vanishes at the points of both divisors
    # and to order two (gradient oracle) at the shared ones; its dimension
    # is h0 of the tensor product, wherever that has a canonical rep
    F = SHARED_FIELDS[name]
    seeds = range(12) if name == "Q" else range(40)
    found = dims = 0
    for quad, (La, Lb), (A, B), shared in shared_support_products(F, seeds):
        f = quad.curve.f
        nf = NormalForm(f, (A.rep.m + B.rep.m, A.rep.n + B.rep.n))
        basis = sections_through(nf, A.rep.minus + B.rep.minus, quad.curve.fibers)
        try:
            assert len(basis) == La.tensor(Lb).h0()
            dims += 1
        except SpecialPosition:
            pass  # the tensor product runs out of split fibers
        for g in [nf.form(w) for w in basis]:
            assert not any(power_eval(g, list(p)) for p in A.rep.minus + B.rep.minus)
            assert all(vanishes_doubly(f, g, p) for p in shared)
        for t in A.forms():
            for r in B.forms():
                assert all(vanishes_doubly(f, t * r, p) for p in shared)
                assert span_contains(F, basis, nf.vec(t * r))
        found += 1
    assert found >= 2 and dims >= 2


@pytest.mark.parametrize("name", ["F11", "F101", "F25", "Q"])
def test_psi1_takes_a_point_listed_four_times_in_a_skip_product(name):
    # L0 = O(1,1)(-2P) and L1 = O(1,1)(-2P-Q) are their own canonical reps,
    # so the product behind the first skip arrow is cut out by P four times
    # and Q once; its space has h0 = 3 and holds every product of sections.
    # L2 = O(1,0) keeps every isomorphism test free of raising over Q
    F = SHARED_FIELDS[name]
    rng = random.Random(5)
    curve = linebundles.random_smooth_curve(F, rng)
    P, Q = (random_smooth_point(curve.fibers, rng) for _ in range(2))
    assert P != Q
    L0, L1 = LineBundle(curve, 1, 1, [P, P]), LineBundle(curve, 1, 1, [P, P, Q])
    quad = Quadruple(curve, L0, L1, LineBundle(curve, 1, 0))
    relations = psi1(quad)
    assert len(relations) == 3
    assert relations == psi1_by_forms(quad)
    nf = NormalForm(curve.f, (2, 2))
    basis = sections_through(nf, [P] * 4 + [Q], curve.fibers)
    assert len(basis) == 3
    for t in section_space(L0).forms():
        for r in section_space(L1).forms():
            assert span_contains(F, basis, nf.vec(t * r))


def psi_outcome(psi, quad):
    """The relations, or the type and message of what `psi` raised."""
    try:
        return psi(quad)
    except (DegenerateInstance, SpecialPosition, ValidationError, AssertionError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("component", [0, 1])
@pytest.mark.parametrize("name", ["F5", "F11", "F101", "F1009", "F25"])
def test_psi_relations_are_those_of_products_of_forms(name, component):
    F = FIELDS[name]
    psi, oracle = (psi0, psi0_by_forms) if component == 0 else (psi1, psi1_by_forms)
    answered = 0
    for seed in range(50):
        try:
            quad = random_quadruple(F, random.Random(seed), component=component)
        except SpecialPosition:
            continue
        want = psi_outcome(oracle, quad)
        assert psi_outcome(psi, quad) == want
        answered += isinstance(want, list)
    assert answered >= 10


@pytest.mark.parametrize("p, most", [(101, 15), (11, 59)])
def test_psi1_redraws_only_for_geometry(p, most):
    # 300 distinct component-1 draws: representatives sharing a point are
    # no reason to redraw
    F = PrimeField(p)
    raised = []
    for seed in range(300):
        quad = random_quadruple(F, random.Random(seed), component=1)
        try:
            psi1(quad)
        except (DegenerateInstance, SpecialPosition) as e:
            raised.append(str(e))
    assert len(raised) <= most
    assert not [r for r in raised if "share a point" in r]


def test_phi_inverse_reconstructs_the_sheaf(datum):
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    curve2, sheaf, sections = phi_inverse(quad, rng)
    assert curve2.f.proportional(curve.f)
    back = LineBundle(curve, 1, 1, minus=sheaf.minus)
    assert isomorphic(back, U)


def phi_inverse_draw(F, seed):
    """phi_inverse on the seeded component-0 quadruple: (quadruple, result)."""
    quad = random_quadruple(F, random.Random(seed), component=0)
    return quad, phi_inverse(quad, random.Random(1000 + seed))


@pytest.mark.parametrize("name, seeds", [
    ("F11", (0, 1, 9, 10, 13, 18, 30)), ("F101", (68, 99)), ("F25", (5, 7, 18, 21, 29, 33))])
def test_phi_inverse_redraws_a_divisor_through_a_base_point(name, seeds, monkeypatch):
    # at these seeds the first section with reduced rational zeros vanishes
    # at a point where both sections of L2 (or of L0) vanish, a point with
    # no image in the re-embedding
    real = moduli.section_zero_points
    for seed in seeds:
        divisors = []
        monkeypatch.setattr(moduli, "section_zero_points",
                            lambda *args: divisors.append(real(*args)) or divisors[-1])
        quad, (curve, sheaf, _) = phi_inverse_draw(FIELDS[name], seed)
        base = section_space(quad.L2).rep.minus + section_space(quad.L0).rep.minus
        assert any(p in base for p in divisors[0]), seed
        assert curve.kind == "I0" and sheaf.degree_total() == 2
        assert len(set(sheaf.minus)) == 2


def test_phi_inverse_raises_only_redraw_errors_over_f11():
    # a valid quadruple is never invalid input; the remaining failures are
    # special positions that a caller redraws
    done = 0
    for seed in range(40):
        try:
            phi_inverse_draw(FIELDS["F11"], seed)
        except (DegenerateInstance, SpecialPosition):
            continue
        done += 1
    assert done >= 20


@pytest.mark.parametrize("name", ["F11", "F101", "F1009", "F25"])
def test_phi_inverse_member_is_the_product_reembedding(name):
    # the shadow of psi0's relations that forgets L1 is the one relation
    # among the nine symmetric products of the sections of L2 and L0
    compared = 0
    for seed in range(10):
        try:
            quad, (curve, _, _) = phi_inverse_draw(FIELDS[name], seed)
        except (DegenerateInstance, SpecialPosition):
            continue
        assert curve.f.proportional(reembedded_member(quad))
        compared += 1
    assert compared >= 4


# (prime, seeds) of the doubled census: the members random_smooth_22(F_p,
# Random(seed))
DOUBLED_CENSUS = ((7, range(4)), (11, range(4)), (13, range(3)), (101, range(1)))
PULLBACK = "equal-degree bundles must be non-isomorphic"
NO_SPLIT = "no usable split fiber found"


def test_doubled_census_fails_exactly_on_the_pullback_classes():
    # every U = O(1,1)(-2P), P a rational point of the member: the trip fails
    # exactly when U is O(1,0) or O(2,-1), for which phi makes L1 isomorphic
    # to L0 or L2, and then for that reason.  At F_7 a twist may find too
    # few split fibers (roadmap item 1), in the trip or in the isomorphism
    # test; the 8 such cells may only become fewer
    unsplit = 0
    for p, seeds in DOUBLED_CENSUS:
        F = PrimeField(p)
        for seed in seeds:
            curve = Curve(curves.random_smooth_22(F, random.Random(seed)), kind="I0")
            pullbacks = (LineBundle(curve, 1, 0), LineBundle(curve, 2, -1))
            for P in enumerate_points(curve.f):
                U = LineBundle(curve, 1, 1, [P, P])
                try:
                    want = PULLBACK if any(isomorphic(U, B) for B in pullbacks) else "passes"
                except SpecialPosition as e:
                    want = str(e)
                try:
                    roundtrip0(U)
                    got = "passes"
                except SpecialPosition as e:
                    got = str(e)
                if NO_SPLIT in (got, want):
                    assert (p, got) == (7, NO_SPLIT), (p, seed, P, want)
                    unsplit += 1
                else:
                    assert got == want, (p, seed, P)
    assert unsplit <= 8


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


def test_roundtrip_computes_the_shadows_once_and_evaluates_no_points(datum, monkeypatch):
    # over F_p the shadows' j come from the relation tensors on residues and
    # the incidence points from 2x2 contractions: no shadow is built as a
    # form and the relations are not evaluated (four eval_block calls per
    # point) on an enumerated shadow
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(moduli, "ci_shadows", counted("ci_shadows", moduli.ci_shadows))
    monkeypatch.setattr(moduli, "linear_resultant",
                        counted("linear_resultant", moduli.linear_resultant))
    monkeypatch.setattr(MultiPoly, "eval_block", counted("eval_block", MultiPoly.eval_block))
    roundtrip0(U)
    assert calls.count("ci_shadows") == calls.count("linear_resultant") == 0
    assert calls.count("eval_block") <= 40


@pytest.mark.parametrize("p", [11, 101, 1009])
def test_each_eliminating_order_gives_the_shadow_of_its_block(p, monkeypatch):
    # ci_smooth_j reads shadow `block` off the relation tensors permuted by
    # _ELIMINATING[block]: that grid must be, up to a nonzero factor, the
    # coefficients of linear_resultant(c1, c2, block), and it must be the
    # grid ci_smooth_j hands to grid_j for that shadow
    F = PrimeField(p)
    rng = random.Random(2528 + p)
    passed = []
    real_j = moduli.grid_j

    def recorded(field, grid):
        passed.append([[v % p for v in row] for row in grid])
        return real_j(field, grid)

    monkeypatch.setattr(moduli, "grid_j", recorded)
    pairs = 0
    while pairs < 6:
        try:
            _, U = random_sheaf_datum(F, rng)
            c1, c2 = relations_to_ci(F, psi0(phi(U)))
        except (DegenerateInstance, SpecialPosition):
            continue
        pairs += 1
        t1, t2 = moduli._tensor(c1), moduli._tensor(c2)
        grids = []
        for block, order in enumerate(moduli._ELIMINATING):
            grid = [[v % p for v in row] for row in moduli._fiber_coefficients(
                [t1[i] for i in order], [t2[i] for i in order])]
            want = curves.coefficient_grid(polyring.linear_resultant(c1, c2, block))
            flat, ref = sum(grid, []), sum(want, [])
            lead = next(i for i, v in enumerate(ref) if v)
            factor = flat[lead] * pow(ref[lead], -1, p) % p
            assert factor and all((a - factor * b) % p == 0 for a, b in zip(flat, ref)), block
            grids.append(grid)
        passed.clear()
        try:
            ci_smooth_j(c1, c2)
        except DegenerateInstance:
            pass  # a shadow that is not smooth; its grid was still read
        assert passed == grids


def test_roundtrip_decides_stability_once_for_every_point(datum, monkeypatch):
    # King stability reads only which arrows are nonzero, and every point of
    # (P1)^3 has a nonzero coordinate in each layer: one verdict, on the
    # representation with all six arrows nonzero, covers every point
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    patterns = []
    real = moduli.theta_stable

    def counted(quiver, maps):
        patterns.append(tuple(map(bool, maps.values())))
        return real(quiver, maps)

    monkeypatch.setattr(moduli, "theta_stable", counted)
    rep = roundtrip0(U, sample_reps=10 ** 9)
    assert rep["stable_reps_checked"] == rep["points"]
    assert patterns == [(True,) * 6]
    pts = incidence_points(c1, c2)
    assert all(real(generic_member_quiver(), point_representation(p)) for p in pts)
    assert {tuple(map(bool, point_representation(p).values())) for p in pts} != {(True,) * 6}


def test_every_pattern_with_nonzero_layers_has_the_all_nonzero_verdict():
    # a layer's coordinates are (a, b) with (a, b) != (0, 0): three zero
    # patterns per layer, 27 in all
    quiver = generic_member_quiver()
    layer = [(True, False), (False, True), (True, True)]
    labels = ["s1a", "s1b", "s2a", "s2b", "s3a", "s3b"]
    verdicts = {theta_stable(quiver, dict(zip(labels, x + y + z)))
                for x in layer for y in layer for z in layer}
    assert verdicts == {theta_stable(quiver, dict.fromkeys(labels, True))} == {True}


FIELDS = {
    "F5": PrimeField(5),
    "F7": PrimeField(7),
    "F11": PrimeField(11),
    "F13": PrimeField(13),
    "F25": QuadExtField(PrimeField(5)),
    "F101": PrimeField(101),
    "F103": PrimeField(103),
    "F1009": PrimeField(1009),
}


def outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateInstance:
        return DegenerateInstance


def random_pair(F, rng, density):
    while True:
        vecs = [[F.random(rng) if rng.random() < density else F.zero() for _ in range(8)]
                for _ in range(2)]
        if all(any(v) for v in vecs):
            return relations_to_ci(F, vecs)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_incidence_points_match_the_shadow_oracle(name):
    F = FIELDS[name]
    rng = random.Random(name)
    kinds = set()
    for n in range(6 if F.characteristic > 500 else 24):
        # sparse pairs often have a one-dimensional fiber or a shared factor
        c1, c2 = random_pair(F, rng, 1.0 if n % 2 else 0.4)
        expect = outcome(shadow_incidence_points, c1, c2)
        assert outcome(incidence_points, c1, c2) == expect
        kinds.add(expect is DegenerateInstance)
    assert kinds == {False, True}


def test_the_incidence_stage_runs_on_residues_over_a_prime_field(datum, monkeypatch):
    # over F_p the points and the relation plane come from int arithmetic;
    # field elements are only built for the output
    F101, rng, curve, U, quad, rel, c1, c2 = datum
    pts = incidence_points(c1, c2)
    ker = relations_through_points(F101, pts)
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"):
        real = getattr(FpElt, name)

        def counted(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(FpElt, name, counted)
    assert incidence_points(c1, c2) == pts
    assert relations_through_points(F101, pts) == ker
    assert calls == []


def factored_pair(F, rng, blocks):
    """Two (1,1,1)-forms sharing a factor of degree 1 in each of `blocks`,
    times independent cofactors of degree 1 in the other blocks."""
    rest = [b for b in range(3) if b not in blocks]
    shared = {k: F.random_nonzero(rng) for k in itertools.product((0, 1), repeat=len(blocks))}
    pair = []
    for _ in range(2):
        cofactor = {k: F.random_nonzero(rng) for k in itertools.product((0, 1), repeat=len(rest))}
        # path order 4i + 2j + k is the lexicographic order of (i, j, k)
        pair.append([shared[tuple(idx[b] for b in blocks)] * cofactor[tuple(idx[b] for b in rest)]
                     for idx in itertools.product((0, 1), repeat=3)])
    return relations_to_ci(F, pair)


@pytest.mark.parametrize("blocks", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("name", ["F7", "F25", "F101"])
def test_a_shared_factor_is_degenerate(name, blocks):
    F = FIELDS[name]
    rng = random.Random(f"{name}{blocks}")
    for _ in range(5):
        c1, c2 = factored_pair(F, rng, blocks)
        with pytest.raises(DegenerateInstance):
            shadow_incidence_points(c1, c2)
        with pytest.raises(DegenerateInstance):
            incidence_points(c1, c2)


def full_kernel(F, pts):
    rows = [[x[i] * y[j] * z[k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]
            for (x, y, z) in pts]
    return kernel_basis(F, rows, 8)


@pytest.mark.parametrize("name", ["F7", "F11", "F25", "F101", "F103"])
def test_relation_plane_is_the_full_kernel(name):
    F = FIELDS[name]
    rng = random.Random(name)
    seen = set()
    for _ in range(12):
        c1, c2 = random_pair(F, rng, 1.0)
        try:
            pts = incidence_points(c1, c2)
        except DegenerateInstance:
            continue
        extra = tuple(random_p1_point(F, rng) for _ in range(3))
        lists = [pts, pts[::-1], pts[:7]]
        if c1.eval_full(list(extra)) or c2.eval_full(list(extra)):
            # a point off the incidence curve at the front, middle and end
            lists += [[extra] + pts, pts[:4] + [extra] + pts[4:], pts + [extra]]
        for sample in lists:
            if len(sample) <= 6:
                continue
            ker = full_kernel(F, sample)
            seen.add(len(ker))
            if len(ker) == 2:
                assert relations_through_points(F, sample) == ker
            else:
                with pytest.raises(DegenerateInstance):
                    relations_through_points(F, sample)
    assert {1, 2} <= seen


@pytest.mark.parametrize("p,seed", [(101, 1), (101, 2), (1009, 3)])
def test_the_shift_embeds_the_incidence_points_in_the_shadows(p, seed):
    # each pair of coordinates of an incidence point lies on the shadow that
    # eliminates the third, and (x, y, z) -> (y, z) is injective on them
    F = PrimeField(p)
    rng = random.Random(seed)
    for _ in range(20):
        try:
            curve, U = random_sheaf_datum(F, rng)
            c1, c2 = relations_to_ci(F, psi0(phi(U)))
            shadows = ci_shadows(c1, c2)
            pts = incidence_points(c1, c2)
        except (DegenerateInstance, SpecialPosition):
            continue
        assert len(pts) > 6
        for (x, y, z) in pts:
            assert not shadows[0].eval_full([y, z])
            assert not shadows[1].eval_full([x, z])
            assert not shadows[2].eval_full([x, y])
        assert len({(y, z) for (_, y, z) in pts}) == len(pts)
        return
    pytest.fail(f"no relation pair over F_{p} in 20 draws")


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


def failure(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("name,seeds", [("F5", 100), ("F7", 100), ("F11", 100), ("F13", 100),
                                        ("F25", 30), ("F101", 40), ("F1009", 40)])
def test_the_streamed_roundtrip_is_the_listed_one(name, seeds):
    # the trip on the point stream and the element-wise one with its points
    # in a list give the same report or the same failure; over F_25 the
    # stream runs on field elements
    F = FIELDS[name]
    reports = 0
    for seed in range(seeds):
        try:
            _, U = random_sheaf_datum(F, random.Random(seed))
        except SpecialPosition:
            continue
        got = failure(roundtrip0, U)
        assert got == failure(listed_roundtrip, U), seed
        reports += isinstance(got, dict)
    assert reports >= seeds // 10


def streamed_datum(F, seed):
    rng = random.Random(seed)
    while True:
        _, U = random_sheaf_datum(F, rng)
        try:
            roundtrip0(U)
        except DegenerateInstance:
            continue
        return U


def off_curve(pt, p):
    """The point over the same (x, y) with the next z in the stream's grid
    coordinates (residues mod p, or field elements when p is 0): off the
    incidence curve, since a fiber of the curve meets the z-line once."""
    x, y, (z0, z1) = pt
    if not z1:
        return x, y, (z1, z0)
    return x, y, ((z0 + 1) % p if p else z0 + 1, z1)


def raising(pts):
    yield from pts
    raise DegenerateInstance("incidence curve has a one-dimensional fiber")


# edits of the point stream, and what the trip does on each: the first
# 16 points are read, and the rest of the stream is left unread
STREAM_EDITS = {
    "off the curve first": (lambda pts, p: [off_curve(pts[0], p)] + pts,
                            (DegenerateInstance, "point conditions did not cut the relation plane")),
    "off the curve sixteenth": (lambda pts, p: pts[:15] + [off_curve(pts[0], p)] + pts[15:],
                                (DegenerateInstance, "point conditions did not cut the relation plane")),
    "one point repeated": (lambda pts, p: pts[:1] * 40,
                           (DegenerateInstance, "point conditions did not cut the relation plane")),
    "six points": (lambda pts, p: pts[:6],
                   (AssertionError, "the incidence points ended before the point count")),
    "raising inside the first sixteen": (lambda pts, p: raising(pts[:8]),
                                         (DegenerateInstance, "incidence curve has a one-dimensional fiber")),
    "off the curve seventeenth": (lambda pts, p: pts[:16] + [off_curve(pts[0], p)] + pts[16:], None),
    "raising after sixteen points": (lambda pts, p: raising(pts[:16]), None),
}


@pytest.mark.parametrize("edit", sorted(STREAM_EDITS))
def test_the_roundtrip_reads_the_first_sixteen_incidence_points(edit, monkeypatch):
    p = 101
    U = streamed_datum(PrimeField(p), 11)
    report = roundtrip0(U, 10 ** 9)
    real = moduli._incidence_stream
    change, want = STREAM_EDITS[edit]
    monkeypatch.setattr(moduli, "_incidence_stream",
                        lambda field, c1, c2: change(list(real(field, c1, c2)), p))
    assert failure(roundtrip0, U, 10 ** 9) == (report if want is None else want)


def test_the_roundtrip_rejects_points_of_another_relation_pair(monkeypatch):
    # the stream gives the points of another trip's incidence curve: their
    # path rows cut a plane, but not the one of the trip's own relations
    F = PrimeField(101)
    U = streamed_datum(F, 11)
    other = relations_to_ci(F, psi0(phi(streamed_datum(F, 12))))
    pts = list(itertools.islice(moduli._incidence_stream(F, *other), 16))
    rows = [moduli._path_values(pt) for pt in pts]
    assert rank(F, rows) == 6
    assert not subspace_equal(F, kernel_basis(F, rows, 8), psi0(phi(U)))
    monkeypatch.setattr(moduli, "_incidence_stream", lambda field, c1, c2: iter(pts))
    assert failure(roundtrip0, U) == (
        AssertionError, "recovered relations differ from the computed ones")


@pytest.mark.parametrize("unstable", [False, True])
@pytest.mark.parametrize("edit", ["six points", "seven points"])
def test_the_streamed_roundtrip_defers_its_failures_as_the_listed_one(edit, unstable, monkeypatch):
    # the stability verdict waits behind the checks of the points: on the
    # whole stream the trip fails on an unstable verdict as the listed one
    # does, and on a stream that ends before the member's point count it
    # fails on the count whatever the verdict
    U = streamed_datum(PrimeField(101), 11)
    if unstable:
        monkeypatch.setattr(moduli, "theta_stable", lambda quiver, maps: False)
        monkeypatch.setattr(oracles, "theta_stable", lambda quiver, maps: False)
    whole = failure(roundtrip0, U, 10 ** 9)
    assert whole == failure(listed_roundtrip, U, 10 ** 9)
    if unstable:
        assert whole == (AssertionError, "incidence point carries an unstable representation")
    else:
        assert isinstance(whole, dict)
    real = moduli._incidence_stream
    kept = {"six points": 6, "seven points": 7}[edit]
    monkeypatch.setattr(moduli, "_incidence_stream",
                        lambda field, c1, c2: list(real(field, c1, c2))[:kept])
    assert failure(roundtrip0, U, 10 ** 9) == (
        AssertionError, "the incidence points ended before the point count")


@pytest.mark.parametrize("counts, message", [
    ((115, 116), "the last shadow and the member differ in point count"),
    ((123, 123), "point count outside the Hasse bound"),
    ((122, 122), None),
    ((81, 81), "point count outside the Hasse bound"),
])
def test_the_roundtrip_checks_its_point_counts(counts, message, monkeypatch):
    # point_count is called on the member, then on the last shadow; at
    # p = 101 the Hasse interval is [82, 122]
    U = streamed_datum(PrimeField(101), 11)
    given = iter(counts)
    monkeypatch.setattr(moduli, "point_count", lambda p, grid: next(given))
    got = failure(roundtrip0, U)
    if message is None:
        assert got["points"] == 122
    else:
        assert got == (AssertionError, message)


def edited_stream(edit):
    """A stand-in for `moduli._incidence_stream` that streams the edited list
    of the real stream's points."""
    real = moduli._incidence_stream
    return lambda field, c1, c2: iter(edit(list(real(field, c1, c2))))


def test_the_roundtrip_over_f25_reads_the_shared_stream(monkeypatch):
    # the trip over F_{p^2} takes its plane from the same stream as over
    # F_p: a first point moved off the curve leaves no plane
    U = streamed_datum(FIELDS["F25"], 0)
    monkeypatch.setattr(moduli, "_incidence_stream",
                        edited_stream(lambda pts: [off_curve(pts[0], 0)] + pts[1:]))
    assert failure(roundtrip0, U) == (
        DegenerateInstance, "point conditions did not cut the relation plane")


@pytest.mark.parametrize("total", [36, 37])
def test_the_roundtrip_over_f25_checks_the_hasse_bound(total, monkeypatch):
    # over F_{p^2} the count is the length of the stream, and at q = 25 the
    # Hasse interval is [16, 36]: a stream padded with repeats of its first
    # point to 36 points meets it, and to 37 points does not
    U = streamed_datum(FIELDS["F25"], 0)
    report = roundtrip0(U)
    assert report["points"] < 36
    monkeypatch.setattr(moduli, "_incidence_stream",
                        edited_stream(lambda pts: pts + pts[:1] * (total - len(pts))))
    got = failure(roundtrip0, U)
    if total == 36:
        assert got == dict(report, points=36)
    else:
        assert got == (AssertionError, "point count outside the Hasse bound")


@pytest.mark.parametrize("name", ["F7", "F25", "F101", "F1009"])
def test_an_unstable_all_nonzero_class_fails_every_trip(name, monkeypatch):
    F = FIELDS[name]
    monkeypatch.setattr(moduli, "theta_stable",
                        lambda quiver, maps: not all(maps.values()))
    trips = 0
    for seed in range(12):
        try:
            _, U = random_sheaf_datum(F, random.Random(seed))
        except SpecialPosition:
            continue
        got = failure(roundtrip0, U, 0)
        if got[0] not in (DegenerateInstance, SpecialPosition):
            assert got == (AssertionError, "incidence point carries an unstable representation")
            trips += 1
    assert trips >= 3


@pytest.mark.parametrize("name", ["F5", "F7", "F11", "F101", "F1009", "F25", "Q"])
def test_shadow_j_on_residues_is_the_shadow_forms_j(name):
    # the shadows' grids are residues over F_p and field elements over Q
    # and F_{p^2}; zero and singular shadows are built as forms to word the
    # failure, so it is the same as well
    F = QQ if name == "Q" else FIELDS[name]
    rng = random.Random(name)
    pairs = [factored_pair(F, rng, blocks) for blocks in [(0,), (1,), (2,), (0, 1), (1, 2)]]
    pairs += [random_pair(F, rng, density) for density in (0.3, 0.5, 1.0) for _ in range(20)]
    # entries in {0, 1, -1, 2}: over Q random entries rarely give a
    # singular shadow
    small = ([[rng.choice((0, 1, -1, 2)) for _ in range(8)] for _ in range(2)] for _ in range(40))
    pairs += [relations_to_ci(F, vecs) for vecs in small if all(any(v) for v in vecs)]
    seen = set()
    for c1, c2 in pairs:
        got = failure(ci_smooth_j, c1, c2)
        assert got == failure(shadow_smooth_j, c1, c2)
        seen.add(got[1].split(" type")[0] if isinstance(got, tuple) else "j")
    assert {"j", "relations share a linear factor", "shadow member has"} <= seen


def test_the_roundtrip_keeps_no_list_of_points():
    # about 10^4 incidence points at p = 10007: kept as field elements they
    # would hold about 4 MiB
    F = PrimeField(10007)
    _, U = random_sheaf_datum(F, random.Random(0))
    tracemalloc.start()
    try:
        rep = roundtrip0(U)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rep["points"] - 10008) ** 2 <= 4 * 10007
    assert peak < 2 ** 20
