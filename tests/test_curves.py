"""Classification of (2,2) members and point utilities."""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from bimodulus import curves
from bimodulus.errors import SpecialPosition, ValidationError
from bimodulus.exactmath import QQ, PrimeField, QEElt, QuadExtField
from bimodulus.curves import (
    KINDS,
    FiberTable,
    branch_quartic,
    coefficient_grid,
    coerce_pair,
    enumerate_points,
    factor_11,
    grid_j,
    kodaira_classify,
    make_cuspidal,
    make_kind,
    make_nodal,
    make_tangent_11,
    make_two_11,
    member_j,
    normalize_point,
    point_count,
    p1_points,
    plant_smooth_22,
    random_p1_point,
    random_smooth_22,
    random_smooth_point,
    validate_22,
)

from bimodulus.linebundles import Curve, _divisor_rows
from bimodulus.polyring import MultiPoly, monomial_basis, random_multipoly

from oracles import (
    brute_curve_order,
    brute_point_order,
    brute_member_kind,
    brute_point_count,
    brute_points,
    discriminant_form_is_smooth,
    discriminant_form_j,
    fiber_points,
    fiber_residual,
    is_smooth_point,
    local_derivatives,
    meeting_points,
    on_curve,
    pattern_member_j,
    pattern_member_kind,
    power_eval,
    power_rows,
    product_discriminant,
    quadratic_discriminant,
    random_smooth_point_scan,
    taylor_rows,
    validate_support,
)
from oracles import random_p1_point as oracle_p1_point


def test_kinds_are_the_expected_six():
    assert KINDS == ("I0", "I1", "I2", "II", "III", "NonReduced")


@pytest.mark.parametrize("kind", KINDS)
def test_make_kind_round_trips_through_classifier(kind, F101, rng):
    for _ in range(3):
        f = make_kind(F101, kind, rng)
        assert kodaira_classify(f) == kind


@pytest.mark.parametrize("kind", ["I0", "I1", "NonReduced"])
def test_classifier_over_the_rationals(kind, rng):
    f = make_kind(QQ, kind, rng)
    assert kodaira_classify(f) == kind


def test_classifier_agrees_with_brute_oracle_small_sample(F5, rng):
    for i in range(24):
        kind = KINDS[i % len(KINDS)]
        f = make_kind(F5, kind, rng)
        assert brute_member_kind(f) == kind


def _outcome(fn, *args):
    """fn's value, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (SpecialPosition, ValidationError) as e:
        return type(e), str(e)


def _members(field, rng):
    """Every kind the generators make, sparse random forms, members with a
    fiber of either ruling, and the zero form."""
    out = []
    for kind in KINDS:
        for _ in range(3):
            try:
                out.append(make_kind(field, kind, rng))
            except SpecialPosition:
                pass  # some kinds are rare over the smallest fields
    basis = monomial_basis((2, 2))
    for _ in range(40):
        picked = rng.sample(basis, rng.randint(1, len(basis)))
        out.append(MultiPoly(field, (2, 2), {e: field.random(rng) for e in picked}))
    for _ in range(5):
        x_fiber = random_multipoly(field, (1, 0), rng) * random_multipoly(field, (1, 2), rng)
        y_fiber = random_multipoly(field, (0, 1), rng) * random_multipoly(field, (2, 1), rng)
        out.extend([x_fiber, y_fiber])
    out.append(MultiPoly.zero(field, (2, 2)))
    return out


@pytest.mark.parametrize(
    "field",
    [PrimeField(5), PrimeField(7), PrimeField(11), PrimeField(101), QQ,
     QuadExtField(PrimeField(5))],
    ids=["F5", "F7", "F11", "F101", "Q", "F25"])
def test_quartic_test_agrees_with_the_pattern_path(field):
    # the type, smoothness and j are read off the grid in the field's ints;
    # they must agree with the branch quartic built as a form on field
    # elements, and the grid's quartic must be that form up to a factor
    rng = random.Random(1313)
    kinds = set()
    for f in _members(field, rng):
        kind = _outcome(kodaira_classify, f)
        assert kind == _outcome(pattern_member_kind, f)
        assert (kind == "I0") is (_outcome(discriminant_form_is_smooth, f) is True)
        kinds.add(kind if isinstance(kind, str) else kind[1])
        j = _outcome(member_j, f)
        if field == QQ and kind == "I0":
            assert type(j) is Fraction
        for block in (0, 1):
            assert j == _outcome(pattern_member_j, f, block) == _outcome(discriminant_form_j, f, block)
            disc = quadratic_discriminant(f, block)
            assert disc == product_discriminant(f, block)
            quartic = branch_quartic(coefficient_grid(f, block), field.modulus)
            assert _one_line(field, quartic, field.ints(disc))
    assert kinds == set(KINDS) | {"divisor contains a ruling fiber",
                                  "zero form does not define a divisor"}


def _one_line(field, a, b):
    """Whether two lists of the field's ints are multiples of each other
    by a nonzero factor, both zero included."""
    a, b = [field.coerce(x) for x in a], [field.coerce(x) for x in b]
    if not any(a) or not any(b):
        return not any(a) and not any(b)
    i = next(i for i, x in enumerate(a) if x)
    return all(x * b[i] == y * a[i] for x, y in zip(a, b))


def _moved(f, rng, digits=12):
    """f moved by an automorphism of each ruling whose matrix has entries
    of the given number of digits: the move changes no member's type."""
    for block in (0, 1):
        while True:
            m = [[rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
                  for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
                break
        f = f.substitute_block(block, m)
    return f


def test_members_with_large_coefficients_over_q():
    # the seeded member of each type and one with a fiber, each moved by
    # 12-digit ruling automorphisms, so that the grid's quartic has about
    # a hundred digits: the type is the oracle's, in a few milliseconds,
    # and the reducible members still split exactly
    rng = random.Random(12)
    members = [(kind, make_kind(QQ, kind, rng)) for kind in KINDS]
    fiber = MultiPoly.monomial(QQ, (1, 0), (1, 0, 0, 0)) * random_multipoly(QQ, (1, 2), rng)
    members.append(((ValidationError, "divisor contains a ruling fiber"), fiber))
    for want, f in members:
        f = _moved(f, rng)
        assert max(len(str(c)) for c in f.terms.values()) > 40
        start = time.process_time()
        kind = _outcome(kodaira_classify, f)
        assert time.process_time() - start < 0.05, want
        assert kind == want == _outcome(pattern_member_kind, f)
        if kind in ("I2", "III"):
            E, g, h = factor_11(f)
            assert E is QQ and g * h == f


def test_quadratic_discriminant_needs_two_blocks_and_degree_2(F101):
    # the element-wise discriminant the oracles build refuses what is not a
    # quadratic in the block, and on a (2,1) form is a quadratic in the other
    with pytest.raises(ValidationError):
        quadratic_discriminant(MultiPoly(F101, (2,), {(2, 0): 1}), 0)
    with pytest.raises(ValidationError):
        quadratic_discriminant(MultiPoly(F101, (2, 1), {(2, 0, 1, 0): 1}), 1)
    assert len(quadratic_discriminant(MultiPoly(F101, (2, 1), {(2, 0, 1, 0): 1}), 0)) == 3


def test_smooth_members_skip_the_fiber_check_and_the_pattern(monkeypatch, rng):
    smooth = [random_smooth_22(field, rng) for field in (PrimeField(101), QQ) for _ in range(3)]
    nodal = make_kind(PrimeField(101), "I1", rng)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(curves, "bf_gcd_degree", counted(curves.bf_gcd_degree))
    monkeypatch.setattr(curves, "bf_multiplicity_pattern",
                        counted(curves.bf_multiplicity_pattern))
    for f in smooth:
        assert kodaira_classify(f) == "I0" == pattern_member_kind(f)
    assert calls == []
    # the fiber check is one gcd of the grid's rows and one of its columns
    assert kodaira_classify(nodal) == "I1"
    assert calls == ["bf_gcd_degree", "bf_gcd_degree", "bf_multiplicity_pattern"]


@pytest.mark.parametrize("kind", KINDS[:-1])
def test_fiber_table_residual_is_the_division_oracle(kind):
    rng = random.Random(5)
    F = PrimeField(11)
    fibered = random_multipoly(F, (0, 1), rng) * random_multipoly(F, (2, 1), rng)
    for f in (make_kind(F, kind, rng), fibered):
        table = FiberTable(f)
        for pair in ((x, y) for x in p1_points(F) for y in p1_points(F)):
            for side in (0, 1):
                got = _outcome(table.residual, side, pair)
                want = _outcome(fiber_residual, f, pair, side)
                if isinstance(want, tuple) and want[0] is ValidationError:
                    assert isinstance(got, tuple) and got[0] is ValidationError
                else:
                    assert got == want


@pytest.mark.parametrize("q", [5, 7, 11, 101, 1009, 25])
def test_fiber_table_points_on_residues_are_the_roots_of_the_fiber_quadratic(q):
    # F_25 restricts on a grid of field elements and solves with
    # bf_rational_roots
    F = QuadExtField(PrimeField(5)) if q == 25 else PrimeField(q)
    inf = (F.one(), F.zero())
    fibers = p1_points(F)[:12] + [inf]
    seen = set()
    for f in _members(F, random.Random(q)):
        table = FiberTable(f)
        for side in (0, 1):
            for x in fibers:
                # a second representative of the same fiber point
                for rep in (x, tuple(F.coerce(3) * c for c in x)):
                    want = _outcome(fiber_points, f, side, rep)
                    if isinstance(want, tuple) and want[0] is ValidationError:
                        with pytest.raises(ValidationError):
                            table.points(side, rep)
                        seen.add("in member")
                        continue
                    assert table.points(side, rep) == want
                    if want is None:
                        seen.add("conjugate")
                    else:
                        seen.add(f"{len(want)} points")
                        if x == inf or any(pt[1 - side] == inf for pt in want):
                            seen.add("at infinity")
    assert seen == {"in member", "conjugate", "1 points", "2 points", "at infinity"}


def _swapped(f):
    """f with its two blocks exchanged."""
    return MultiPoly(f.field, f.degree[::-1], {e[2:] + e[:2]: c for e, c in f.terms.items()})


def _with_fiber_quadratic(x, quad, rng):
    """A member over Q whose fiber quadratic over the first-ruling point x
    is x0^2 + x1^2 at x times the binary quadratic `quad`: (x0^2 + x1^2)
    quad(y) plus a random multiple of the linear form vanishing at x."""
    a, b = x
    g = MultiPoly(QQ, (2, 0), {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1})
    q = MultiPoly(QQ, (0, 2), {(0, 0, 2 - i, i): c for i, c in enumerate(quad)})
    line = MultiPoly(QQ, (1, 0), {(1, 0, 0, 0): b, (0, 1, 0, 0): -a})
    return g * q + line * random_multipoly(QQ, (1, 2), rng)


_Q_FIBERS = [
    ("fiber at (1:0)", (1, 0), (1, -3, 2)),
    ("q0 = 0", (Fraction(2, 3), 1), (0, 5, -7)),
    ("q0 = q1 = 0", (Fraction(-5, 4), 1), (0, 0, 4)),
    ("zero discriminant", (Fraction(-5, 4), 1), (4, -12, 9)),
    ("negative discriminant", (3, 1), (1, 1, 1)),
    ("non-square discriminant", (Fraction(2, 3), 1), (1, 0, -2)),
    ("square discriminant", (0, 1), (6, -5, 1)),
    ("negative lead", (Fraction(7, 2), 1), (-6, 5, -1)),
    ("fiber in the member", (Fraction(2, 3), 1), (0, 0, 0)),
]


@pytest.mark.parametrize("case", _Q_FIBERS, ids=[c[0] for c in _Q_FIBERS])
def test_fiber_table_points_over_q_are_the_element_wise_roots(case):
    # the fiber quadratic on ints, from the member with its denominators
    # cleared and the fiber point scaled to integer coordinates, has the
    # roots `fiber_points` finds on the Fractions, in its order
    _, x, quad = case
    rng = random.Random(25)
    f = _with_fiber_quadratic(tuple(map(Fraction, x)), quad, rng)
    f = f.scale(Fraction(-3, 14))  # a negative factor with a denominator
    for side, g in ((0, f), (1, _swapped(f))):
        table = FiberTable(g)
        # representatives with negative and mixed denominators
        for k in (1, Fraction(-3, 7), Fraction(5, 6), -2):
            rep = tuple(k * c for c in x)
            got = _outcome(table.points, side, rep)
            assert got == _outcome(fiber_points, g, side, rep)
            if got and got[0] is not ValidationError:
                assert all(type(c) is Fraction for pt in got for y in pt for c in y)


def test_fiber_table_points_over_q_are_the_roots_on_random_members():
    # the F_p counterpart is the residue test above
    rng, field = random.Random(2525), QQ
    fibers = [(1, 0), (0, 1), (1, 1), (-1, 1), (Fraction(2, 3), 1), (Fraction(-5, 4), Fraction(7, 6)),
              (3, -7)]
    fibers = [tuple(field.coerce(c) for c in x) for x in fibers]
    seen = set()
    for f in _members(field, rng):
        table = FiberTable(f)
        for side in (0, 1):
            for x in fibers + [random_p1_point(field, rng) for _ in range(4)]:
                want = _outcome(fiber_points, f, side, x)
                assert _outcome(table.points, side, x) == want
                seen.add("conjugate" if want is None else
                         "in member" if want[0] is ValidationError else f"{len(want)} points")
    assert seen == {"in member", "conjugate", "1 points", "2 points"}


def test_classify_over_q_builds_no_discriminant_form(monkeypatch, rng):
    # over Q every member is classified on its grid of ints: the fiber
    # check and the pattern read ints, and no Fraction is made
    smooth = [random_smooth_22(QQ, rng) for _ in range(3)]
    nodal = make_kind(QQ, "I1", rng)
    read = []

    def recorded(fn):
        def wrapper(field, *forms):
            read.extend(x for form in forms for x in form)
            return fn(field, *forms)
        return wrapper

    monkeypatch.setattr(curves, "bf_gcd_degree", recorded(curves.bf_gcd_degree))
    monkeypatch.setattr(curves, "bf_multiplicity_pattern",
                        recorded(curves.bf_multiplicity_pattern))
    for f in smooth:
        assert kodaira_classify(f) == "I0"
        assert member_j(f) == grid_j(QQ, coefficient_grid(f, 0))
    assert read == []
    made = []
    monkeypatch.setattr(QQ, "coerce", lambda x: made.append(x) or Fraction(x))
    assert kodaira_classify(nodal) == "I1"
    assert made == [] and read and all(type(x) is int for x in read)


def test_validate_22_rejects_wrong_degree(F101):
    from bimodulus.polyring import MultiPoly

    with pytest.raises(ValidationError):
        validate_22(MultiPoly(F101, (1, 1), {(1, 0, 1, 0): 1}))


def test_validate_support_rejects_fiber_component(F101):
    from bimodulus.polyring import MultiPoly, random_multipoly

    rng = random.Random(0)
    g = random_multipoly(F101, (1, 2), rng)
    x0 = MultiPoly.monomial(F101, (1, 0), (1, 0, 0, 0))
    with pytest.raises(ValidationError):
        validate_support(x0 * g)
    with pytest.raises(ValidationError, match="ruling fiber"):
        kodaira_classify(x0 * g)


def test_enumerate_points_matches_on_curve(F5, rng):
    f = make_kind(F5, "I1", rng)
    pts = enumerate_points(f)
    seen = set()
    for x in p1_points(F5):
        for y in p1_points(F5):
            if on_curve(f, (x, y)):
                seen.add((x, y))
    assert set(pts) == seen
    # each returned pair is normalized
    for p in pts:
        assert p == (normalize_point(F5, p[0]), normalize_point(F5, p[1]))


@pytest.mark.parametrize("q", [5, 7, 25])
@pytest.mark.parametrize("kind", KINDS)
def test_enumerate_points_is_the_brute_scan(kind, q):
    # same list, order included; F_25 holds members drawn over F_5
    p = 5 if q == 25 else q
    F = PrimeField(p)
    f = make_kind(F, kind, random.Random(100 * q + KINDS.index(kind)))
    if q == 25:
        f = f.coerce_to(QuadExtField(F))
    assert enumerate_points(f) == brute_points(f)


def test_enumerate_points_is_the_brute_scan_over_f101(F101, rng):
    for kind in ("I0", "III"):
        f = make_kind(F101, kind, rng)
        assert enumerate_points(f) == brute_points(f)


def test_enumerate_points_takes_whole_fibers_in_the_locus(F5):
    # x1 * g contains the fiber x = (1, 0), which contributes every y
    from bimodulus.polyring import MultiPoly, random_multipoly

    g = random_multipoly(F5, (1, 2), random.Random(3))
    f = MultiPoly.monomial(F5, (1, 0), (0, 1, 0, 0)) * g
    pts = enumerate_points(f)
    assert pts == brute_points(f)
    inf = (F5.one(), F5.zero())
    assert [pt for pt in pts if pt[0] == inf] == [(inf, y) for y in p1_points(F5)]


@pytest.mark.parametrize("p", [101, 1009])
def test_smooth_members_satisfy_the_hasse_bound(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(3):
        n = len(enumerate_points(random_smooth_22(F, rng)))
        # |n - (p + 1)| <= 2 sqrt(p), squared to stay in the integers
        assert (n - (p + 1)) ** 2 <= 4 * p


# on both sides of the prime where the count leaves the character sum for
# the Jacobian (229)
@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 227, 229, 233, 1009, 10007])
def test_point_count_is_the_number_of_points(p):
    F = PrimeField(p)
    rng = random.Random(f"count{p}")
    for k in range(4 if p < 200 else 2):
        f = random_smooth_22(F, rng)
        n = len(enumerate_points(f))
        assert point_count(p, coefficient_grid(f, 0)) == point_count(p, coefficient_grid(f, 1)) == n
        assert (n - (p + 1)) ** 2 <= 4 * p
        if p <= 13 or (k == 0 and p <= 233):
            assert brute_point_count(p, coefficient_grid(f)) == n


@pytest.mark.parametrize("p", [5, 7])
def test_point_count_gives_the_count_of_the_lift_to_fp2(p):
    # over F_{p^2} the Frobenius trace is a_p^2 - 2p, a_p = p + 1 - #W(F_p)
    F = PrimeField(p)
    E = QuadExtField(F)
    rng = random.Random(f"lift{p}")
    for _ in range(4):
        f = random_smooth_22(F, rng)
        a_p = p + 1 - point_count(p, coefficient_grid(f))
        assert len(enumerate_points(f.coerce_to(E))) == p * p + 1 - (a_p * a_p - 2 * p)


def test_point_count_near_10_to_the_12_is_fast():
    p = 10 ** 12 + 39
    rng = random.Random(p)
    for _ in range(3):
        grid = coefficient_grid(random_smooth_22(PrimeField(p), rng))
        start = time.process_time()
        n = point_count(p, grid)
        assert time.process_time() - start < 0.1
        assert (n - (p + 1)) ** 2 <= 4 * p


@pytest.mark.parametrize("p", [101, 1009])
@pytest.mark.parametrize("make", [make_nodal, make_cuspidal])
def test_point_count_refuses_singular_members(make, p):
    f, _ = make(PrimeField(p), random.Random(p))
    with pytest.raises(ValidationError, match="not smooth"):
        point_count(p, coefficient_grid(f))


@pytest.mark.parametrize("p", [233, 239, 241, 1009])
def test_curve_order_is_the_character_sum(p):
    # j = 0 and j = 1728 curves, supersingular at some of these p, have the
    # groups of smallest exponent, where one point's order leaves several
    # candidates in the Hasse interval
    rng = random.Random(p)
    curves_ab = [(0, 1), (0, 2), (0, 5), (1, 0), (2, 0), (p - 1, 0)]
    curves_ab += [(rng.randrange(p), rng.randrange(p)) for _ in range(10)]
    for a, b in curves_ab:
        if (4 * a ** 3 + 27 * b * b) % p:
            assert curves._curve_order(p, a, b) == brute_curve_order(p, a, b)


@pytest.mark.parametrize("p", [233, 1009])
def test_baby_and_giant_steps_give_the_order_or_its_one_multiple(p):
    # points as `_curve_order` takes them, (cX, c^2) on the twist by c; on
    # j = 0 curves X = 0 gives a point of order 3, found in the baby steps
    s = isqrt(4 * p)
    lo, hi = p + 1 - s, p + 1 + s
    rng = random.Random(p)
    found = set()
    for a, b in [(0, 1), (0, 5), (1, 0), (p - 1, 0)] + [(rng.randrange(p), rng.randrange(p))
                                                        for _ in range(6)]:
        for x in range(16):
            c = (x ** 3 + a * x + b) % p
            if not c:
                continue
            ac, P = a * c * c % p, (c * x % p, c * c % p)
            want = brute_point_order(p, ac, P)
            order, n = curves._order_or_multiple(p, ac, P, lo, hi)
            if order is None:
                assert [m for m in range(lo, hi + 1) if m % want == 0] == [n]
            else:
                assert order == want
            found.add("multiple" if order is None else "small" if want <= 2 * isqrt(s) + 2
                      else "order")
    assert found == {"multiple", "small", "order"}


def test_smooth_points_and_off_curve_rejection(F101, rng):
    f = make_kind(F101, "I0", rng)
    p = random_smooth_point(FiberTable(f), rng)
    assert on_curve(f, p) and FiberTable(f).is_smooth(p) and is_smooth_point(f, p)
    off = next(
        (x, y)
        for x in p1_points(F101)
        for y in p1_points(F101)
        if not on_curve(f, (x, y))
    )
    with pytest.raises(ValidationError, match="not on the curve"):
        FiberTable(f).is_smooth(off)


@pytest.mark.parametrize("kind", ["I0", "I1", "I2", "II", "III"])
def test_fiber_table_smoothness_is_the_oracle_on_every_point(kind):
    F11 = PrimeField(11)
    rng = random.Random(5)
    f = make_kind(F11, kind, rng)
    table = FiberTable(f)
    pts = brute_points(f)
    expect = [is_smooth_point(f, p) for p in pts]
    assert [table.is_smooth(p) for p in pts] == expect
    assert [table.is_smooth(p) for p in pts] == expect  # read back from the memo
    assert all(expect) == (kind == "I0")
    # points first found on fibers are tested without evaluating f there
    solved = FiberTable(f)
    for x in p1_points(F11):
        solved.points(0, x)
    assert [solved.is_smooth(p) for p in pts] == expect
    off = next((x, y) for x in p1_points(F11) for y in p1_points(F11) if (x, y) not in pts)
    for _ in range(2):
        with pytest.raises(ValidationError, match="not on the curve"):
            table.is_smooth(off)


def test_fiber_table_finds_the_node_of_a_nodal_member():
    F11 = PrimeField(11)
    f, node = make_nodal(F11, random.Random(2))
    node = coerce_pair(F11, node)
    table = FiberTable(f)
    assert not table.is_smooth(node) and not is_smooth_point(f, node)


_GRID_FIELDS = {"F5": PrimeField(5), "F101": PrimeField(101), "Q": QQ,
                "F25": QuadExtField(PrimeField(5))}


def _members_and_points(field, rng):
    """(kind, f, singular points, smooth points) for one seeded member of
    each of KINDS: the node of I1, the cusp of II, both nodes of I2
    (redrawn until they are rational) and the tacnode of III, and up to
    six points of f found on fibers, two through (1:0), sorted by the
    oracle; a smooth member is drawn through two planted points, which
    are kept."""
    f, planted = plant_smooth_22(field, rng)
    members = [("I0", f, [], list(planted))]
    for kind, make in (("I1", make_nodal), ("II", make_cuspidal)):
        f, pair = make(field, rng)
        members.append((kind, f, [coerce_pair(field, pair)], []))
    while True:
        f, g, h = make_two_11(field, rng)
        nodes = meeting_points(g, h)
        if len(nodes) == 2:
            break
    members.append(("I2", f, nodes, []))
    f, g, h = make_tangent_11(field, rng)
    members.append(("III", f, meeting_points(g, h), []))
    members.append(("NonReduced", make_kind(field, "NonReduced", rng), [], []))
    infinity = (field.one(), field.zero())
    out = []
    for kind, f, singular, smooth in members:
        table = FiberTable(f)
        found = [pt for side in (0, 1) for x in [infinity] + [random_p1_point(field, rng)
                                                             for _ in range(2)]
                 for pt in table.points(side, x) or ()]
        found = [pt for pt in dict.fromkeys(found) if pt not in singular + smooth][:6]
        singular = singular + [pt for pt in found if not is_smooth_point(f, pt)]
        out.append((kind, f, singular, smooth + [pt for pt in found if is_smooth_point(f, pt)]))
    return out


def _to_infinity(f, pair, blocks):
    """(g, point): f moved so that the point's coordinate in each of
    `blocks` becomes (1:0), by the substitution x -> (a0 x0 + x1, a1 x0)
    that takes (1:0) to (a0:a1)."""
    F = f.field
    pair = list(pair)
    for block in blocks:
        a0, a1 = pair[block]
        if a1:
            f = f.substitute_block(block, [[a0, F.one()], [a1, F.zero()]])
            pair[block] = (F.one(), F.zero())
    return f, tuple(pair)


@pytest.mark.parametrize("name", _GRID_FIELDS)
def test_grid_point_tests_are_the_element_wise_oracle(name):
    # on-member, smoothness and the chart derivatives read off the fiber
    # table's grids, the Taylor rows of a repeated point built from those
    # derivatives and the component of a point, at nodes, cusps and
    # tacnodes, at points with a (1:0) coordinate in either block and at
    # points off the member; a doubled member is singular everywhere
    F = _GRID_FIELDS[name]
    rng = random.Random(38)
    candidates = [(F.one(), F.zero())] + [(F(i), F.one()) for i in range(4)]
    monos = monomial_basis((2, 1))
    tested = {True: 0, False: 0}
    for kind, f, singular, smooth in _members_and_points(F, rng):
        for P in singular + smooth:
            for blocks in ((), (0,), (1,), (0, 1)):
                g, Q = _to_infinity(f, P, blocks)
                want = P in smooth
                assert is_smooth_point(g, Q) == want
                # tested on the grid, and on a table that found Q on a fiber
                solved = FiberTable(g)
                assert Q in solved.points(0, Q[0])
                assert FiberTable(g).is_smooth(Q) == want == solved.is_smooth(Q)
                tested[want] += 1
                off = next((Q[0], y) for y in candidates if not on_curve(g, (Q[0], y)))
                with pytest.raises(ValidationError, match="point is not on the curve"):
                    FiberTable(g).is_smooth(off)
                if want:
                    # f's chart partials on the scale of its `ints`
                    vals = list(g.terms.values())
                    i = next(i for i, c in enumerate(vals) if c)
                    kappa = F.coerce(F.ints(vals)[i]) / vals[i]
                    got = [F.coerce(d) for d in FiberTable(g).chart_derivatives(Q)]
                    assert got == [kappa * d for d in local_derivatives(g, Q)]
                    # the value row up to a factor, the Taylor rows exactly
                    for k in (2, 3):
                        rows = [[F.coerce(v) for v in row]
                                for row in _divisor_rows(FiberTable(g), [Q] * k, monos)]
                        value = power_rows([Q], monos)[0]
                        j = next(j for j, v in enumerate(value) if v)
                        assert rows[0] == [rows[0][j] / value[j] * v for v in value]
                        assert rows[0][j] and rows[1:] == taylor_rows(g, Q, monos, k)
                if kind in ("I2", "III"):
                    curve = Curve(g, kind)
                    E, *components = curve.components()
                    QE = [tuple(E.coerce(c) for c in pt) for pt in Q]
                    on = [not power_eval(c, QE) for c in components]
                    if want:
                        assert curve.component_index(Q) == on.index(True)
                    else:
                        assert all(on)
                        with pytest.raises(ValidationError, match="on both components"):
                            curve.component_index(Q)
    assert min(tested.values()) >= 12, tested


def _draws(sample, f, seed):
    """Outcomes of 36 sample(f, rng, tries) calls on one generator,
    and its state afterwards; a try budget of 1 makes some calls give up."""
    rng = random.Random(seed)
    out = []
    for i in range(36):
        try:
            out.append(sample(f, rng, (1, 200, 4)[i % 3]))
        except SpecialPosition:
            out.append("gave up")
        except ValidationError:
            out.append("fiber in member")
    return out, rng.getstate()


def _on_a_fresh_table(f, rng, tries):
    """`random_smooth_point` on a table of f of its own, which no earlier
    call has filled."""
    return random_smooth_point(FiberTable(f), rng, tries)


_DRAW_FIELDS = [PrimeField(5), PrimeField(11), PrimeField(101), QQ, QuadExtField(PrimeField(5))]
_DRAW_IDS = ["F5", "F11", "F101", "Q", "F25"]


@pytest.mark.parametrize("field", _DRAW_FIELDS, ids=_DRAW_IDS)
def test_a_random_point_of_p1_is_the_point_of_its_key(field):
    # each draw is the keyless oracle's, from the same generator calls
    for seed in range(4):
        drawn, plain = random.Random(seed), random.Random(seed)
        at_infinity = set()
        for _ in range(60):
            pt = random_p1_point(field, drawn)
            at_infinity.add(not pt[1])
            assert pt == oracle_p1_point(field, plain)
            assert drawn.getstate() == plain.getstate()
        assert at_infinity == {True, False}


@pytest.mark.parametrize("field", _DRAW_FIELDS, ids=_DRAW_IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fiber_table_keeps_every_draw(field, seed):
    rng = random.Random(seed)
    smooth = random_smooth_22(field, rng)
    # x1 * g contains the fiber over (1:0), which one draw in nine hits
    x1 = MultiPoly.monomial(field, (1, 0), (0, 1, 0, 0))
    with_fiber = x1 * random_multipoly(field, (1, 2), rng)
    outcomes = set()
    for f in (smooth, with_fiber):
        table = FiberTable(f)
        shared = _draws(lambda f, rng, tries: random_smooth_point(table, rng, tries), f, seed)
        assert shared == _draws(_on_a_fresh_table, f, seed)
        assert shared == _draws(random_smooth_point_scan, f, seed)
        outcomes.update(o if isinstance(o, str) else "point" for o in shared[0])
    assert outcomes == {"point", "gave up", "fiber in member"}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fiber_table_keeps_every_draw_on_a_nodal_member(monkeypatch, seed):
    F11 = PrimeField(11)
    f, node = make_nodal(F11, random.Random(seed))
    tested = {}
    is_smooth = FiberTable.is_smooth

    def recording(table, pair):
        tested[pair] = is_smooth(table, pair)
        return tested[pair]

    monkeypatch.setattr(FiberTable, "is_smooth", recording)
    table = FiberTable(f)
    shared = _draws(lambda f, rng, tries: random_smooth_point(table, rng, tries), f, seed)
    assert shared == _draws(_on_a_fresh_table, f, seed)
    assert shared == _draws(random_smooth_point_scan, f, seed)
    # the node was drawn, found singular and never returned
    node = coerce_pair(F11, node)
    assert tested[node] is False and node not in shared[0]
    assert {"gave up"} < {o if isinstance(o, str) else "point" for o in shared[0]}


def test_a_planted_member_is_sampled_on_its_planted_fibers():
    for seed in range(10):
        rng = random.Random(seed)
        f, planted = plant_smooth_22(QQ, rng)
        assert kodaira_classify(f) == "I0" and all(on_curve(f, pair) for pair in planted)
        (x1, y1), (x2, y2) = planted
        assert x1 != x2 and y1 != y2
        table = FiberTable(f, smooth=True, planted=planted)
        # the fibers through P and Q, then through their second-ruling
        # residuals, each once
        residuals = [table.residual(1, pair)[0] for pair in planted]
        assert table.planted == tuple(dict.fromkeys([x1, residuals[0], x2, residuals[1]]))
        on_planted = {pt for x in table.planted for pt in table.points(0, x)}
        assert set(planted) <= on_planted and all(on_curve(f, pt) for pt in on_planted)
        for _ in range(20):
            state = rng.getstate()
            pt = random_smooth_point(table, rng)
            after = rng.getstate()
            # one draw for the fiber and one for its point
            rng.setstate(state)
            pts = table.points(0, table.planted[rng.randrange(len(table.planted))])
            assert pt == pts[rng.randrange(len(pts))] and rng.getstate() == after


def test_give_ups_solve_and_build_each_drawn_key_once(monkeypatch):
    # a smooth member over Q with no real points: every fiber's roots are
    # conjugate, so every call gives up after its 200 tries, and the table
    # restricts each distinct fiber drawn once
    f = MultiPoly(QQ, (2, 2), {(2, 0, 2, 0): 1, (2, 0, 0, 2): 1, (0, 2, 2, 0): 1,
                               (0, 2, 0, 2): 3, (1, 1, 1, 1): 1})
    assert kodaira_classify(f) == "I0"
    drawn, restricted = [], []
    draw, restrict = curves.random_p1_point, FiberTable._restrict

    def recording_draw(field, rng):
        drawn.append(draw(field, rng))
        return drawn[-1]

    def recording_restrict(table, side, x):
        restricted.append((side, x))
        return restrict(table, side, x)

    monkeypatch.setattr(curves, "random_p1_point", recording_draw)
    monkeypatch.setattr(FiberTable, "_restrict", recording_restrict)
    table, rng = FiberTable(f, smooth=True), random.Random(3)
    for _ in range(5):
        with pytest.raises(SpecialPosition):
            random_smooth_point(table, rng)
    distinct = set(drawn)
    assert len(drawn) == 1000 and len(distinct) <= 151
    assert sorted(restricted) == sorted((0, x) for x in distinct)


_FACTOR_FIELDS = {"F7": PrimeField(7), "F11": PrimeField(11), "F101": PrimeField(101),
                  "Q": QQ, "F25": QuadExtField(PrimeField(5))}


def _conjugate_pair_members(E, rng, count):
    """Members g * conj(g) over the base of a quadratic extension E, for
    (1,1) forms g over E: reducible, with components conjugate over the
    base, so never drawn by `make_kind`."""
    field, out = E.base, []
    while len(out) < count:
        g = MultiPoly(E, (1, 1), {e: E.random(rng) for e in monomial_basis((1, 1))})
        conj = MultiPoly(E, (1, 1), {e: QEElt(E, c.a, -c.b) for e, c in g.terms.items()})
        f = MultiPoly(field, (2, 2), {e: c.a for e, c in (g * conj).terms.items()})
        try:
            if kodaira_classify(f) in ("I2", "III") and not g.proportional(conj):
                out.append(f)
        except ValidationError:
            continue  # a fiber component
    return out


def _draw(field, n):
    """Draw n (from 0) of `random_multipoly(field, (2, 2), Random(0))`."""
    rng = random.Random(0)
    for _ in range(n):
        random_multipoly(field, (2, 2), rng)
    return random_multipoly(field, (2, 2), rng)


@pytest.mark.parametrize("name", _FACTOR_FIELDS)
def test_factor_11_reconstructs_reducible_members(name):
    F = _FACTOR_FIELDS[name]
    rng = random.Random(311)
    members = [make_kind(F, kind, rng) for kind in ("I2", "III") for _ in range(4)]
    # Q and F_25 have no default quadratic extension; see the test below
    conjugate = _conjugate_pair_members(QuadExtField(F), rng, 3) if isinstance(F, PrimeField) else []
    if name == "F7":
        conjugate.append(_draw(F, 372))  # a random draw of this kind
    for f in members + conjugate:
        field_used, g, h = factor_11(f)
        assert (field_used is not F) == (f in conjugate)
        assert g * h == f.coerce_to(field_used)


def test_factor_11_refuses_components_conjugate_over_q_or_f_p2():
    # the draw's components are conjugate over F_25 and would need F_625
    f = _draw(QuadExtField(PrimeField(5)), 641)
    assert kodaira_classify(f) == "I2"
    with pytest.raises(ValidationError):
        factor_11(f)
    f, = _conjugate_pair_members(QuadExtField(QQ, 2), random.Random(3), 1)
    with pytest.raises(ValidationError):
        factor_11(f)


def test_factor_11_refuses_irreducible(F101, rng):
    f = make_kind(F101, "I0", rng)
    with pytest.raises(ValidationError):
        factor_11(f)


def test_member_j_is_a_ruling_invariant(F101, rng):
    for _ in range(5):
        f = random_smooth_22(F101, rng)
        assert grid_j(F101, coefficient_grid(f, 1)) == grid_j(F101, coefficient_grid(f, 0)) \
            == member_j(f)


def test_member_j_constant_under_coordinate_moves(F101, rng):
    f = random_smooth_22(F101, rng)
    j = member_j(f)
    for _ in range(3):
        while True:
            m = [[F101.random(rng) for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
                break
        assert member_j(f.substitute_block(0, m)) == j


def test_member_j_rejects_singular_members(F101, rng):
    f = make_kind(F101, "I1", rng)
    with pytest.raises(SpecialPosition):
        member_j(f)


def test_normalize_point_scales_to_canonical_form(F101):
    one = F101.one()
    five = F101.coerce(5)
    assert normalize_point(F101, (five, five)) == (one, one)
    assert normalize_point(F101, (F101.zero(), five)) == (F101.zero(), one)
    with pytest.raises(ValidationError):
        normalize_point(F101, (F101.zero(), F101.zero()))


def test_p1_points_count(F5):
    pts = p1_points(F5)
    assert len(pts) == 6
    assert len(set(pts)) == 6
