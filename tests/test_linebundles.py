"""Invertible sheaves on members: exact section spaces and cohomology.

The plan of the model: work with a plus-free representative whose ambient
bidegree is large enough, cut sections by point conditions, quotient by the
member's ideal slice.  The genus-one numerology (chi = degree, trivial
canonical) then gives independent checks for every computation.
"""

import random
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodulus.errors import SpecialPosition, ValidationError
from bimodulus.exactmath import QQ, PrimeField, QuadExtField, reduce_modulo, rref
import bimodulus.curves as curves
import bimodulus.linebundles as linebundles
from bimodulus.curves import make_kind, make_nodal, p1_points, random_smooth_point
from bimodulus.jsonio import generate_instance, instance_from_json, instance_to_json
from bimodulus.polyring import MultiPoly, monomial_basis, random_multipoly
from bimodulus.linebundles import (
    Curve,
    LineBundle,
    NormalForm,
    _raising,
    is_twisted_v_pullback,
    is_v_pullback,
    isomorphic,
    random_line_bundle,
    section_space,
    section_zero_points,
    split_from_cohomology,
    split_from_h0,
    transport,
)

from oracles import (
    canonical_one_fiber_at_a_time,
    fiber_residual,
    form_to_vec,
    ideal_slice,
    is_multiple,
    scalar_product,
    split_fiber_scan,
    span_contains,
    split_h0_profile,
    value_rows,
    vanishes_doubly,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from cli_digest import lift_to_fp2  # noqa: E402


@pytest.fixture
def smooth_curve(F101, rng):
    return Curve(make_kind(F101, "I0", rng))


def test_curve_caches_kind_and_components(F101, rng):
    c = Curve(make_kind(F101, "I2", rng))
    assert c.kind == "I2"
    assert c.is_reducible()
    field_used, g, h = c.components()
    assert (g * h).coerce_to(field_used).proportional(c.f.coerce_to(field_used))


def test_curve_rejects_non_reduced(F101, rng):
    with pytest.raises(ValidationError):
        Curve(make_kind(F101, "NonReduced", rng))


def test_twisting_points_off_the_curve_or_singular_are_rejected():
    F11 = PrimeField(11)
    f, node = make_nodal(F11, random.Random(2))
    curve = Curve(f)
    off = next((x, y) for x in p1_points(F11) for y in p1_points(F11)
               if f.eval_full([x, y]))
    for _ in range(2):  # again, once the curve's memo holds the node
        with pytest.raises(ValidationError, match="twisting point is not on the curve"):
            LineBundle(curve, 1, 1, [off])
        with pytest.raises(ValidationError, match="twisting point is singular on the curve"):
            LineBundle(curve, 1, 1, [], [node])


def test_smoothness_is_tested_once_per_point_and_partials_once_per_curve(
        F101, rng, monkeypatch):
    calls = {"partial": 0, "eval_full": 0}

    def counted(name):
        real = getattr(MultiPoly, name)

        def wrapper(self, *args):
            calls[name] += 1
            return real(self, *args)
        return wrapper

    monkeypatch.setattr(MultiPoly, "partial", counted("partial"))
    monkeypatch.setattr(MultiPoly, "eval_full", counted("eval_full"))
    # a smooth member (I0) has no singular point, so its table computes no
    # partials; a reducible one (I2, III) computes its four partials once
    for kind in ("I0", "I0", "I0", "I2", "III"):
        curve = Curve(make_kind(F101, kind, rng))
        calls["partial"] = 0  # drawing a III member takes partials
        pts = []
        while len(pts) < 6:
            p = random_smooth_point(curve.fibers, rng)
            if p not in pts:
                pts.append(p)
        before = calls["eval_full"]
        L = LineBundle(curve, 2, 1, pts[:3], pts[3:])
        assert calls["eval_full"] == before
        for _ in range(4):
            L = random_line_bundle(curve, rng)
            L.h0()
        singular = [pair for pair in curves.enumerate_points(curve.f)
                    if not curve.fibers.is_smooth(pair)]
        off = next((x, y) for x in p1_points(F101) for y in p1_points(F101)
                   if curve.f.eval_full([x, y]))
        with pytest.raises(ValidationError, match="not on the curve"):
            curve.fibers.is_smooth(off)
        if kind == "I0":
            assert singular == [] and calls["partial"] == 0
        else:
            # the components meet twice (I2, perhaps at conjugate points) or
            # once, tangentially at a rational point (III)
            assert len(singular) <= 2 if kind == "I2" else len(singular) == 1
            assert 0 < calls["partial"] <= 4


def test_repeated_points_take_the_partials_once_per_member(F101, rng, monkeypatch):
    # the Taylor rows of a repeated point read the chart partials the
    # member's fiber table keeps: four partials, however many bundles,
    # points and multiplicities ask for them
    calls = []
    real = MultiPoly.partial
    monkeypatch.setattr(MultiPoly, "partial",
                        lambda self, *args: calls.append(args) or real(self, *args))
    curve = Curve(make_kind(F101, "I0", rng))
    pts = [random_smooth_point(curve.fibers, rng) for _ in range(3)]
    for P in pts:
        for k in (2, 3):
            assert LineBundle(curve, 1, 1, [P] * k).h0() == 4 - k
            assert section_space(LineBundle(curve, 2, 1, [P] * k)).dim() == 6 - k
    assert len(calls) == 4


def test_only_checked_constructions_normalize_their_points(monkeypatch):
    F = PrimeField(101)
    rng = random.Random(4)
    curve = Curve(make_kind(F, "I0", rng))
    pts = []
    while len(pts) < 5:
        p = random_smooth_point(curve.fibers, rng)
        if p not in pts:
            pts.append(p)
    three = F(3)
    scaled = [tuple(tuple(three * c for c in pt) for pt in pair) for pair in pts]
    L = LineBundle(curve, 2, 0, scaled[:3], scaled[3:])
    M = LineBundle(curve, 0, 1, pts[:1])
    assert (L.minus, L.plus) == (pts[:3], pts[3:])
    # solve every fiber the rewriting reads, so that only bundle
    # constructions could normalize below
    L.canonical(), L.h0(), L.tensor(M).h0()
    calls = []
    normalize = curves.normalize_point

    def counting(field, pt):
        calls.append(pt)
        return normalize(field, pt)

    monkeypatch.setattr(curves, "normalize_point", counting)
    assert not L.canonical().plus
    assert L.h0() == 2 * 2 - 3 + 2
    T = L.tensor(M)
    assert T.h0() == T.degree_total() == 4
    assert calls == []
    twisted = L.twist(0, 0)
    assert twisted.minus == L.minus and twisted.minus is not L.minus
    N = LineBundle(curve, 1, 1, scaled[:2])
    assert N.minus == pts[:2] and len(calls) == 4


def test_structure_sheaf_cohomology(smooth_curve):
    # genus one: one constant section and one unit of h1
    O = LineBundle(smooth_curve, 0, 0)
    assert (O.h0(), O.h1()) == (1, 1)
    assert O.degree_total() == 0


def test_restriction_of_ambient_bundles(smooth_curve):
    # h0(O(m,n)|_W) = 2(m+n) once both m,n >= 1
    for m, n in ((1, 1), (2, 2), (1, 2)):
        L = LineBundle(smooth_curve, m, n)
        assert L.h0() == 2 * (m + n)
        assert L.h1() == 0


def test_genus_one_section_counts(smooth_curve, rng):
    for _ in range(6):
        L = random_line_bundle(smooth_curve, rng, deg_lo=-3, deg_hi=5)
        d = L.degree_total()
        h0, h1 = L.h0(), L.h1()
        assert h0 - h1 == d
        if d > 0:
            assert h0 == d
        if d < 0:
            assert h0 == 0
        # omega_W is trivial (anticanonical member), so h1(L) = h0(L^-1)
        assert h1 == L.inverse().h0()


def test_degree_zero_sections_detect_triviality(smooth_curve, rng):
    O = LineBundle(smooth_curve, 0, 0)
    p = random_smooth_point(smooth_curve.fibers, rng)
    q = random_smooth_point(smooth_curve.fibers, rng)
    if p == q:
        pytest.skip("random points collided")
    L = LineBundle(smooth_curve, 0, 0, [p], [q])
    assert L.degree_total() == 0
    assert L.h0() in (0, 1)
    assert isomorphic(L, O) == (L.h0() == 1)


def h0_or_none(L):
    try:
        return L.h0()
    except SpecialPosition:
        return None


@pytest.mark.parametrize("name, draws", [("F11", 300), ("F101", 300), ("Q", 100)])
def test_isomorphic_answers_wherever_either_side_of_the_tensor_does(name, draws):
    # pairs of degree-2 bundles on seeded members: D = A (x) B^-1 has a
    # section exactly when D^-1 does, so `isomorphic` must give the answer
    # of each side that answers, and raise only where neither does; the
    # side with fewer plus points answers where D alone does not
    F = QQ if name == "Q" else PrimeField(int(name[1:]))
    unanswered = {"D": 0, "either": 0}
    for seed in range(draws):
        rng = random.Random(seed)
        curve = linebundles.random_smooth_curve(F, rng)
        A, B = (random_line_bundle(curve, rng, 2, 2) for _ in range(2))
        D = A.tensor(B.inverse())
        h, g = h0_or_none(D), h0_or_none(D.inverse())
        unanswered["D"] += h is None
        sides = [x for x in (h, g) if x is not None]
        if not sides:
            unanswered["either"] += 1
            with pytest.raises(SpecialPosition):
                isomorphic(A, B)
            continue
        assert all(isomorphic(A, B) == (x == 1) for x in sides), seed
    assert unanswered == {"F11": {"D": 38, "either": 16}, "F101": {"D": 1, "either": 0},
                          "Q": {"D": 39, "either": 23}}[name]


def test_tensor_and_inverse(smooth_curve, rng):
    L1 = random_line_bundle(smooth_curve, rng)
    L2 = random_line_bundle(smooth_curve, rng)
    t = L1.tensor(L2)
    assert t.degree_total() == L1.degree_total() + L2.degree_total()
    unit = L1.tensor(L1.inverse())
    assert unit.degree_total() == 0
    assert isomorphic(unit, LineBundle(smooth_curve, 0, 0))


def test_canonical_representative_preserves_cohomology(smooth_curve, rng):
    p = random_smooth_point(smooth_curve.fibers, rng)
    L = LineBundle(smooth_curve, 1, 0, [], [p])
    rep = L.canonical()
    assert not rep.plus
    assert rep.degree_total() == L.degree_total()
    assert (rep.h0(), rep.h1()) == (L.h0(), L.h1())


def test_section_space_matches_h0_and_vanishing(smooth_curve, rng):
    for _ in range(4):
        L = random_line_bundle(smooth_curve, rng, deg_lo=1, deg_hi=4)
        S = section_space(L)
        assert S.dim() == L.h0()
        for i in range(S.dim()):
            form = S.form(i)
            for p in S.rep.minus:
                assert not form.eval_full(list(p))


def test_ideal_slice_dimension(smooth_curve):
    f = smooth_curve.f
    rows = ideal_slice(f, 3, 2)
    assert len(rows) == 2 * 1
    assert ideal_slice(f, 1, 4) == []
    # the rows are the products of f with the monomials of bidegree (m-2, n-2)
    for m, n in ((3, 2), (4, 3), (2, 2)):
        products = [f * MultiPoly.monomial(f.field, (m - 2, n - 2), e)
                    for e in monomial_basis((m - 2, n - 2))]
        assert ideal_slice(f, m, n) == [form_to_vec(g, monomial_basis((m, n))) for g in products]


DIVISION_FIELDS = {"F5": PrimeField(5), "F101": PrimeField(101),
                   "F25": QuadExtField(PrimeField(5)), "Q": QQ}


@pytest.mark.parametrize("name", DIVISION_FIELDS)
def test_normal_form_is_reduction_modulo_the_ideal_slice(name):
    # division by f, leading monomial first, leaves what reducing modulo the
    # reduced echelon basis of the ideal slice leaves; the members drop
    # their first `skip` monomials, so LM(f) need not be x0^2 y0^2
    F = DIVISION_FIELDS[name]
    rng = random.Random(2021)
    for skip in (0, 1, 3):
        f = MultiPoly(F, (2, 2), {e: F.random_nonzero(rng) if i == skip else F.random(rng)
                                  for i, e in enumerate(monomial_basis((2, 2))) if i >= skip})
        for m in range(2, 7):
            for n in range(2, 7):
                nf = NormalForm(f, (m, n))
                monos = monomial_basis((m, n))
                red, piv = rref(F, ideal_slice(f, m, n))
                cols = [monos.index(e) for e in nf.monos]
                assert len(cols) == 2 * (m + n)
                assert sorted(set(range(len(monos))) - set(cols)) == piv
                g = random_multipoly(F, (m, n), rng)
                want = reduce_modulo(F, red, piv, form_to_vec(g, monos))
                assert nf.vec(g) == [want[c] for c in cols]
                assert not any(want[c] for c in piv)


# characteristics 2 and 3 are not fields of the package; the residue
# kernel is checked at p = 2 and 3 in test_polyring
PRODUCT_FIELDS = {"F5": PrimeField(5), "F7": PrimeField(7), "F101": PrimeField(101),
                  "F1009": PrimeField(1009), "F(2^61-1)": PrimeField(2**61 - 1),
                  "F25": QuadExtField(PrimeField(5)), "Q": QQ}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_normal_form_of_a_product_is_that_of_the_product_of_forms(data):
    # 1-3 factors of bidegree up to (3, 3), so the frame often has M or N
    # below 2 and no division step; each vector dense, zero or sparse
    F = PRODUCT_FIELDS[data.draw(st.sampled_from(sorted(PRODUCT_FIELDS)), label="field")]
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    f = MultiPoly(F, (2, 2), {e: F.random(rng) for e in monomial_basis((2, 2))})
    if f.is_zero():
        f = MultiPoly.monomial(F, (2, 2), (1, 1, 1, 1))
    degrees = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                 min_size=1, max_size=3), label="degrees")
    factors = []
    for d in degrees:
        nf = NormalForm(f, d)
        kind = data.draw(st.sampled_from(["dense", "zero", "sparse"]), label="vector")
        draw = {"dense": F.random_nonzero, "zero": lambda _: F.zero(), "sparse": F.random}[kind]
        factors.append((nf, [draw(rng) for _ in nf.monos]))
    frame = NormalForm(f, tuple(map(sum, zip(*degrees))))
    want = frame.vec(reduce(scalar_product, [nf.form(v) for nf, v in factors]))
    assert frame.product(*factors) == want
    if len(factors) > 1 and degrees[0] != (0, 0):
        with pytest.raises(ValidationError, match="wrong bidegree"):
            frame.product(*factors[1:])


def test_split_from_cohomology_trivial_bundle(smooth_curve):
    assert split_from_cohomology(LineBundle(smooth_curve, 0, 0)) == (-2, 0)


def test_split_profile_matches_direct_sum(smooth_curve, rng):
    for _ in range(3):
        L = random_line_bundle(smooth_curve, rng, deg_lo=-2, deg_hi=4)
        a, b = split_from_cohomology(L)
        assert a + b + 2 == L.degree_total()
        profile = split_h0_profile(a, b, 3)
        got = [L.twist(0, j).h0() for j in range(-3, 4)]
        assert got == profile


@pytest.mark.parametrize("a, b", [(-2, 0), (0, 7), (8, 8), (10, 10), (-5, 12), (14, 14),
                                  (-11, -11), (-14, -11), (-12, -11), (-20, 5)])
def test_split_scan_reaches_below_the_window(a, b):
    # b >= window: the twist at -window already has sections, so the scan
    # goes on down to the first twist without any; b < -window or
    # a < -window - 1: it goes on up to the twist where O(a) turns on; and
    # wherever the window is, b is read off the one twist -s - 1
    window = linebundles.SPLIT_WINDOW
    calls = []

    def h0(j):
        calls.append(j)
        return max(a + j + 1, 0) + max(b + j + 1, 0)

    assert split_from_h0(h0, a + b + 2) == (a, b)
    assert sorted(calls) == list(range(min(-window, -b - 1), max(window, -a - 1) + 1))


@pytest.mark.parametrize("chi, h0", [
    (1, lambda j: 0),  # would read (a, b) = (0, -1)
    (2, lambda j: max(j + 1, 0) + max(j + 2, 0)),  # would read (-1, 1)
], ids=["a-above-b", "not-a-split-profile"])
def test_split_scan_rejects_a_profile_of_no_split_pair(chi, h0):
    with pytest.raises(AssertionError, match="twist profile mismatch"):
        split_from_h0(h0, chi)


@pytest.mark.parametrize("window", [3, 8])
def test_split_scan_eliminates_once(smooth_curve, rng, monkeypatch, window):
    monkeypatch.setattr(linebundles, "SPLIT_WINDOW", window)
    # no twist is counted on its own: every twist the scan asks for, below,
    # inside and above the window, is read off one elimination
    counted, eliminations = [], []
    canonical_h0, ranks = linebundles._canonical_h0, linebundles.block_ranks

    def counting(rep):
        counted.append(rep)
        return canonical_h0(rep)

    def eliminated(*args):
        eliminations.append(args)
        return ranks(*args)

    monkeypatch.setattr(linebundles, "_canonical_h0", counting)
    monkeypatch.setattr(linebundles, "block_ranks", eliminated)
    bundles = [LineBundle(smooth_curve, 0, 0), random_line_bundle(smooth_curve, rng)]
    for L in bundles + [L.twist(dm, 0) for L in bundles for dm in (-3, 3)]:
        eliminations.clear()
        split_from_cohomology(L)
        assert len(eliminations) == 1
    assert counted == []


def _exhaust_split_fibers(scan, avoid):
    """Answers of scan(side, avoid) as avoid grows by each answer, the
    sides alternating, until both sides run out of fibers."""
    avoid, out, live = list(avoid), [], [0, 1]
    while live:
        for side in list(live):
            try:
                pts = scan(side, list(avoid))
            except SpecialPosition:
                live.remove(side)
                out.append((side, None))
                continue
            out.append((side, pts))
            avoid += pts
    return out


def _first_raising_fiber(L):
    """The first fiber `LineBundle._raising_fibers` yields for L's class
    with minus points `avoid`, as a scan(side, avoid) that raises like
    `split_fiber_scan` when there is none."""
    def scan(side, avoid):
        for pts in LineBundle(L.curve, L.m, L.n, avoid, check=False)._raising_fibers(side):
            return list(pts)
        raise SpecialPosition("no usable split fiber found")
    return scan


def _oracle_raising_fibers(L, side):
    """`split_fiber_scan` outside L's minus points and the fibers found so
    far, until it finds none."""
    avoid = list(L.minus)
    while True:
        try:
            pts = split_fiber_scan(L.curve.f, side, avoid)
        except SpecialPosition:
            return
        yield pts
        avoid += pts


def _rational_smooth_member():
    """A smooth member over Q; see test_rational_field_supported."""
    from bimodulus.polyring import MultiPoly, monomial_basis

    return MultiPoly(QQ, (2, 2), {
        (2, 0, 1, 1): 1,
        (0, 2, 2, 0): 1,
        (0, 2, 0, 2): -1,
        (1, 1, 2, 0): 1,
        (1, 1, 1, 1): 2,
        (1, 1, 0, 2): 3,
    })


@pytest.mark.parametrize("case", ["F11-found", "F11", "F101", "F101-I1", "Q", "Q-drawn"])
def test_cached_split_fibers_match_the_uncached_scan(case):
    rng = random.Random(7)
    if case == "F11-found":
        # smooth-bimodule-chi2 at p = 11, seed 2: its low twists run out of
        # split fibers of the second ruling
        L = generate_instance("smooth-bimodule-chi2", PrimeField(11), random.Random(2))
    elif case == "Q":
        L = LineBundle(Curve(_rational_smooth_member()), 0, 0)
    elif case == "Q-drawn":
        # the sampled points fill the fiber table before the scan reads it
        L = random_line_bundle(Curve(_rational_smooth_member()), rng, deg_lo=2, deg_hi=2)
        assert L.minus
    else:
        F = PrimeField(11 if case == "F11" else 101)
        kind = "I1" if case.endswith("I1") else "I0"
        L = random_line_bundle(Curve(make_kind(F, kind, rng)), rng)
    f = L.curve.f
    got = _exhaust_split_fibers(_first_raising_fiber(L), L.minus)
    want = _exhaust_split_fibers(lambda side, avoid: split_fiber_scan(f, side, avoid), L.minus)
    assert got == want
    assert any(pts for _, pts in got)
    # a second pass is served by the curve's cache and must not drift
    assert _exhaust_split_fibers(_first_raising_fiber(L), L.minus) == want
    # one scan of each ruling yields the fibers that searching afresh
    # outside the points taken so far finds one at a time
    for side in (0, 1):
        assert list(map(list, L._raising_fibers(side))) == list(_oracle_raising_fibers(L, side))


def test_random_line_bundle_restricts_each_fiber_once_per_curve(monkeypatch):
    restricted = []
    real = curves.fiber_quadratic

    def counted(f, side, pt):
        restricted.append((side, pt))
        return real(f, side, pt)

    monkeypatch.setattr(curves, "fiber_quadratic", counted)
    curve = Curve(_rational_smooth_member())
    rng = random.Random(3)
    drawn = [random_line_bundle(curve, rng, deg_lo=2, deg_hi=2) for _ in range(6)]
    assert sum(len(L.minus) for L in drawn) >= 6
    assert len(restricted) == len(set(restricted))


def test_split_with_the_uncached_scan_answers_alike_over_f11(monkeypatch):
    # the bundle whose second-ruling fibers once ran out before the scan
    # read its first twist
    L = generate_instance("smooth-bimodule-chi2", PrimeField(11), random.Random(2))
    got = split_from_cohomology(L)
    monkeypatch.setattr(LineBundle, "_raising_fibers", _oracle_raising_fibers)
    assert split_from_cohomology(L) == got == (0, 0)


ORACLE_FIELDS = {"F5": PrimeField(5), "F7": PrimeField(7), "F11": PrimeField(11),
                 "F101": PrimeField(101), "F25": QuadExtField(PrimeField(5)), "Q": QQ}


def _per_twist_split(L):
    """The splitting type from each twist's own h0, or the message of the
    SpecialPosition it raises."""
    return _outcome(lambda: split_from_h0(lambda j: L.twist(0, j).h0(), L.degree_total()))


@pytest.mark.parametrize("name", ORACLE_FIELDS)
def test_split_scan_answers_as_the_per_twist_oracle(name):
    # generated bundles of both smooth kinds and on I2 members, and bundles
    # on an I1 member twisted by O(2, 0), each twisted six ways: the scan
    # gives the per-twist answer wherever that answers, and over F_p, where
    # only the scan answers, the per-twist answer of the lift to F_{p^2}
    F = ORACLE_FIELDS[name]
    kinds = ("smooth-bimodule-chi2", "smooth-bimodule-chi1", "reducible")
    bundles = [generate_instance(k, F, random.Random(seed)) for k in kinds for seed in (0, 1)]
    rng = random.Random(5)
    nodal = Curve(make_kind(F, "I1", rng))
    bundles += [random_line_bundle(nodal, rng).twist(2, 0) for _ in range(2)]
    # the rep of first degree 1 of O(m, n), m >= 2, takes the second-ruling
    # residuals of split fibers' points, smooth on singular members too
    for curve in (nodal, bundles[4].curve):
        assert all(curve.fibers.is_smooth(curve.fibers.residual(1, p))
                   for pts in curve.split_fibers(0) for p in pts)
    lifted = 0
    for L in bundles:
        for dm, dn in [(0, 0), (-1, 0), (1, -1), (0, 2), (3, 0), (-3, 0)]:
            T = L.twist(dm, dn)
            got, want = _outcome(lambda: split_from_cohomology(T)), _per_twist_split(T)
            if want[0] != "SpecialPosition":
                assert got == want, (T, dm, dn)
            elif got[0] != "SpecialPosition" and F.modulus:
                lift = instance_from_json(lift_to_fp2(instance_to_json(T)))
                want = _per_twist_split(lift)
                if want[0] != "SpecialPosition":
                    assert got == want, (T, dm, dn)
                    lifted += 1
    assert lifted or name not in ("F5", "F7", "F11")


def _outcome(f):
    """What f() returns, or the message of the SpecialPosition it raises."""
    try:
        return f()
    except SpecialPosition as e:
        return ("SpecialPosition", str(e))


def _seeded_bundles(name):
    """Seeded bundles on a smooth member, each also twisted by O(2, 0) and
    O(4, 0), so that twists O(0, j) with low j are raised along the second
    ruling.  The last two list a point twice and three times."""
    rng = random.Random(7)
    if name == "Q":
        curve = Curve(_rational_smooth_member())
        drawn = [LineBundle(curve, 0, 0), LineBundle(curve, 1, 1, plus=[((1, 0), (1, 0))]),
                 random_line_bundle(curve, rng, deg_lo=2, deg_hi=2)]
    else:
        F = {"F11": PrimeField(11), "F101": PrimeField(101),
             "F25": QuadExtField(PrimeField(5))}[name]
        curve = Curve(make_kind(F, "I0", rng))
        drawn = [random_line_bundle(curve, rng) for _ in range(3)]
    P, Q = (random_smooth_point(curve.fibers, rng) for _ in range(2))
    drawn += [LineBundle(curve, 1, 1, [P, P]), LineBundle(curve, 1, 2, [P] * 3, [Q])]
    return [L.twist(dm, 0) for L in drawn for dm in (0, 2, 4)]


@pytest.mark.parametrize("name", ["F11", "F101", "F25", "Q"])
def test_split_reads_each_twist_h0_as_the_twist_computes_it(monkeypatch, name):
    monkeypatch.setattr(linebundles, "split_from_h0", lambda h0, chi: h0)
    raised = 0
    for L in _seeded_bundles(name):
        settled = _outcome(L._settled)
        for j in _scan_against_each_twist(L):
            if isinstance(settled[0], LineBundle):
                rep = settled[0]
                raised += rep.m >= 2 and rep.n + j <= 0
    assert raised


def _scan_against_each_twist(L):
    """The twists j in [-12, 12] where the scan of L (`split_from_h0`
    stubbed to hand back its h0) was checked against the twist's own h0,
    asked in both orders.  The scan raises only up front, where its one
    rep runs out of fibers, and then so does the per-twist scan; else it
    answers every twist, as the twist does wherever that answers."""
    checked = []
    for order in (1, -1):
        h0 = _outcome(lambda: split_from_cohomology(L))
        if not callable(h0):
            assert _per_twist_split(L)[0] == "SpecialPosition", L
            return checked
        for j in range(-12, 13)[::order]:
            got, want = h0(j), _outcome(L.twist(0, j).h0)
            assert type(got) is int
            if type(want) is int:
                assert got == want, (L, j)
                checked.append(j)
    return checked


@pytest.mark.parametrize("name", ["F11", "F101", "F25", "Q"])
def test_split_settles_the_bundle_once_per_scan(monkeypatch, name):
    calls = []
    settled = LineBundle._settled

    def counted(self):
        calls.append(self)
        return settled(self)

    monkeypatch.setattr(LineBundle, "_settled", counted)
    for L in _seeded_bundles(name):
        calls.clear()
        _outcome(lambda: split_from_cohomology(L))
        assert calls == [L]


def _bundles_with_a_point_at_infinity(name):
    """Bundles with a minus point P at y = (1, 0), on a smooth member over
    the field `name`, P once and twice, each also twisted by O(-1, 0) and
    O(2, 0): the one rep of first degree 1 each scan reads keeps P."""
    rng = random.Random(3)
    while True:
        if name == "Q":
            curve = Curve(_rational_smooth_member())
        else:
            F = MULTIPLICITY_FIELDS[name]
            curve = Curve(make_kind(F, "I0", rng))
        F = curve.field
        pts = curve.fibers.points(1, (F.one(), F.zero()))
        if pts:
            break
    P = pts[0]
    Q = random_smooth_point(curve.fibers, rng)
    drawn = [LineBundle(curve, 1, 1, [P, Q]), LineBundle(curve, 1, 1, [P, P]),
             LineBundle(curve, 0, 2, [P, P, Q])]
    return [L.twist(dm, 0) for L in drawn for dm in (-1, 0, 2)]


def _no_shear_clears_infinity(rep):
    """Whether y -> (y0, y1 + s y0) takes a point of rep.minus to y = (1, 0)
    for every s: its y-values hold (1, 0) and every (t, 1) with t != 0."""
    F = rep.field
    return {y for _, y in rep.minus} >= set(p1_points(F)) - {(F.zero(), F.one())}


@pytest.mark.parametrize("name", ["F11", "F101", "F25", "Q", "F5-no-shear"])
def test_split_reads_twists_whose_points_meet_the_second_ruling_at_infinity(monkeypatch, name):
    # the scan moves the points off y = (1, 0) before it eliminates, and
    # counts each twist on its own where no move does (at F_5, once the
    # first ruling's fibers are taken)
    if name == "F5-no-shear":
        L = generate_instance("reducible", PrimeField(5), random.Random(7)).twist(-1, 0)
        assert _no_shear_clears_infinity(linebundles._degree_one(*L._settled()))
        bundles = [L]
    else:
        bundles = _bundles_with_a_point_at_infinity(name)
    monkeypatch.setattr(linebundles, "split_from_h0", lambda h0, chi: h0)
    for L in bundles:
        assert _scan_against_each_twist(L)


def _presentation(f):
    """(m, n, minus, plus) of the rep f() returns, or the message of the
    SpecialPosition it raises."""
    def read():
        rep = f()
        return rep.m, rep.n, rep.minus, rep.plus
    return _outcome(read)


@pytest.mark.parametrize("name", ["F11", "F101", "F25", "Q"])
def test_canonical_takes_the_fibers_one_step_at_a_time_would(name):
    for L in _seeded_bundles(name):
        for dn in range(-12, 13, 3):
            for dm in (-4, 0):
                T = L.twist(dm, dn)
                want = _presentation(lambda: canonical_one_fiber_at_a_time(T))
                assert _presentation(T.canonical) == want, (T, dm, dn)


MULTIPLICITY_FIELDS = {"F11": PrimeField(11), "F101": PrimeField(101),
                       "F25": QuadExtField(PrimeField(5)), "Q": QQ}


@pytest.mark.parametrize("name", MULTIPLICITY_FIELDS)
def test_a_point_listed_k_times_is_a_point_of_multiplicity_k(name):
    # O(m, n)(-kP) with P listed k times: h0 is Riemann-Roch's on a grid of
    # twists, and the class is the one the spread presentation gives, each
    # extra copy of P moved to its residual on a fiber, the first ruling's
    # and the second's in turn (O(-P) = O(-1, 0)(P') = O(0, -1)(P'')).  Over
    # Q the member splits few fibers besides those through P, so only the
    # twists that need none are read there
    F = MULTIPLICITY_FIELDS[name]
    rng = random.Random(5)
    curve = linebundles.random_smooth_curve(F, rng)
    f = curve.f
    for _ in range(2):
        P = random_smooth_point(curve.fibers, rng)
        residuals = [fiber_residual(f, P, side) for side in (0, 1)]
        assert P not in residuals
        for k in (2, 3, 4):
            for m in range(-1, 4):
                for n in range(-1, 4):
                    if F is QQ and _raising(m, n) != (0, 0):
                        continue
                    L = LineBundle(curve, m, n, [P] * k)
                    d = L.degree_total()
                    if d:
                        assert L.h0() == max(d, 0), (P, k, m, n)
            moved = [residuals[i % 2] for i in range(k - 1)]
            dm, dn = len(moved[::2]), len(moved[1::2])
            spread = LineBundle(curve, 1 - dm, 1 - dn, [P], moved)
            assert isomorphic(LineBundle(curve, 1, 1, [P] * k), spread)
        S = section_space(LineBundle(curve, 2, 1, [P, P]))
        assert S.dim() == 4
        assert all(vanishes_doubly(f, g, P) for g in S.forms())
        # a product of sections vanishing to orders 2 and k - 2 at P lies
        # in the forms cut out by P listed k times, which are deg = 8 - k
        nf = NormalForm(f, (2, 2))
        for k in (3, 4):
            basis = linebundles.sections_through(nf, [P] * k, curve.fibers)
            assert len(basis) == 8 - k
            for a in section_space(LineBundle(curve, 1, 1, [P, P])).forms():
                for b in section_space(LineBundle(curve, 1, 1, [P] * (k - 2))).forms():
                    assert span_contains(F, basis, nf.vec(a * b))


@pytest.mark.parametrize("n, raises", [(-57, False), (-58, False), (-59, True), (-64, True)])
def test_canonical_gives_up_after_sixty_raised_fibers(n, raises):
    # O(2, n) raises 1 - n fibers of the second ruling; the last rewriting
    # step checks the result, so 59 raised fibers are the most it takes
    L = LineBundle(Curve(make_kind(PrimeField(1009), "I0", random.Random(3))), 2, n)
    want = _outcome(lambda: canonical_one_fiber_at_a_time(L))
    got = _outcome(L.canonical)
    if raises:
        assert got == want == ("SpecialPosition", "rewriting did not terminate")
    else:
        assert (got.m, got.n, got.minus) == (want.m, want.n, want.minus)
        assert len(got.minus) == 2 * (1 - n)


def test_split_scan_reads_twists_past_the_rewriting_budget(monkeypatch):
    # the canonical reps of the twists O(2, -50 + j) raise 51 - j fibers of
    # the second ruling, and from 60 on rewriting does not terminate; the
    # scan's one rep O(1, -48 + j)(-Z) takes a single fiber, and every
    # twist has negative degree, so h0 = 0 as Riemann-Roch gives
    monkeypatch.setattr(linebundles, "split_from_h0", lambda h0, chi: h0)
    L = LineBundle(Curve(make_kind(PrimeField(1009), "I0", random.Random(3))), 2, -50)
    h0 = split_from_cohomology(L)
    assert [h0(j) for j in range(-12, 13)] == [0] * 25
    assert [_outcome(L.twist(0, j).h0) for j in range(-12, -8)] == [
        ("SpecialPosition", "rewriting did not terminate")] * 4


def test_twist_shifts_split(smooth_curve, rng):
    L = random_line_bundle(smooth_curve, rng)
    a, b = split_from_cohomology(L)
    assert split_from_cohomology(L.twist(0, 1)) == (a + 1, b + 1)


def test_pullback_detection(smooth_curve, rng):
    assert is_v_pullback(LineBundle(smooth_curve, 0, 2))
    assert is_twisted_v_pullback(LineBundle(smooth_curve, 1, 1))
    p = random_smooth_point(smooth_curve.fibers, rng)
    q = random_smooth_point(smooth_curve.fibers, rng)
    if p == q:
        pytest.skip("random points collided")
    L = LineBundle(smooth_curve, 0, 1, [p, q])
    # degree 0 but generically not the trivial bundle
    assert is_v_pullback(L) == isomorphic(L, LineBundle(smooth_curve, 0, 0))


def test_section_zero_points_certificate(smooth_curve, rng):
    for _ in range(12):
        L = LineBundle(smooth_curve, 1, 0)
        S = section_space(L)
        coeffs = [L.field.random(rng) for _ in range(S.dim())]
        form = None
        for c, i in zip(coeffs, range(S.dim())):
            term = S.form(i).scale(c)
            form = term if form is None else form + term
        if form is None or form.is_zero():
            continue
        try:
            pts = section_zero_points(S.rep, form)
        except SpecialPosition:
            continue
        assert len(pts) == L.degree_total()
        for p in pts:
            assert not form.eval_full(list(p))
        return
    pytest.skip("no split section found in the budget")


def test_transport_preserves_everything(F101, rng):
    for kind in ("I0", "I2"):
        c = Curve(make_kind(F101, kind, rng))
        L = random_line_bundle(c, rng)
        while True:
            g = [[F101.random(rng) for _ in range(2)] for _ in range(2)]
            h = [[F101.random(rng) for _ in range(2)] for _ in range(2)]
            if (g[0][0] * g[1][1] - g[0][1] * g[1][0]) and (h[0][0] * h[1][1] - h[0][1] * h[1][0]):
                break
        L2 = transport(L, g, h)
        assert L2.curve.kind == kind
        assert L2.degree_total() == L.degree_total()
        assert split_from_cohomology(L2) == split_from_cohomology(L)


def test_transport_rejects_singular_matrices(smooth_curve, rng):
    L = random_line_bundle(smooth_curve, rng)
    one, zero = L.field.one(), L.field.zero()
    with pytest.raises(ValidationError):
        transport(L, [[one, one], [one, one]], [[one, zero], [zero, one]])


def test_component_degrees_on_reducible(F101, rng):
    c = Curve(make_kind(F101, "I2", rng))
    L = LineBundle(c, 1, 0)
    dd = L.degree_by_component()
    assert sum(dd) == L.degree_total() == 2
    assert sorted(dd) == [1, 1]


def test_rational_field_supported():
    # the section model needs fibers splitting over the base field, so a
    # random member over Q rarely works; this one splits at x=(1,0),(0,1)
    # and y=(1,0),(0,1) by construction
    c = Curve(_rational_smooth_member())
    assert c.kind == "I0"
    O = LineBundle(c, 0, 0)
    assert (O.h0(), O.h1()) == (1, 1)
    assert split_from_cohomology(O) == (-2, 0)


def test_point_rows_over_q_are_positive_multiples_of_the_value_rows():
    # a row taken at the point's integer coordinates is a positive multiple
    # of its row of values, made of ints, so ranks and reduced echelon
    # forms do not change; zero rows match
    rng = random.Random(2527)
    coords = [0, 1, -1, 3, Fraction(2, 3), Fraction(-5, 4), Fraction(7, -6), Fraction(1, 12)]
    for _ in range(60):
        monos = monomial_basis((rng.randint(0, 4), rng.randint(0, 4)))
        points = [tuple((QQ.coerce(rng.choice(coords)), QQ.coerce(rng.choice(coords)))
                        for _ in range(2)) for _ in range(rng.randint(1, 5))]
        got, want = linebundles._eval_rows(QQ, points, monos), value_rows(QQ, points, monos)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert all(type(v) is int for v in g)
            factor = is_multiple(g, w)
            assert factor is not None and factor > 0
        assert rref(QQ, got) == rref(QQ, want)
    # over F_{p^2} the coordinates are taken as they are
    F25 = QuadExtField(PrimeField(5))
    for _ in range(20):
        monos = monomial_basis((rng.randint(0, 4), rng.randint(0, 4)))
        points = [tuple((F25.random(rng), F25.random(rng)) for _ in range(2))
                  for _ in range(rng.randint(1, 5))]
        assert linebundles._eval_rows(F25, points, monos) == value_rows(F25, points, monos)
