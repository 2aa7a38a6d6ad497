"""Homogeneous multi-block polynomials and the binary-form toolkit."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodulus.errors import SpecialPosition, ValidationError
from bimodulus.exactmath import QQ, FpElt, PrimeField, QuadExtField
from bimodulus.linebundles import _eval_rows
from bimodulus.polyring import (
    MultiPoly,
    bf_divexact,
    bf_gcd,
    bf_gcd_chain,
    bf_gcd_degree,
    bf_mul,
    bf_multiplicity_pattern,
    bf_roots_small,
    bf_scale,
    j_from_quartic,
    linear_resultant,
    monomial_basis,
    quartic_invariants,
    random_multipoly,
    residue_product,
)

from oracles import (
    bf_eval,
    bf_root_linear,
    element_gcd,
    element_multiplicity_pattern,
    is_multiple,
    j_from_cross_ratio,
    power_eval,
    power_eval_block,
    power_rows,
    scalar_product,
)


def test_constructor_enforces_homogeneity(F101):
    with pytest.raises(ValidationError):
        MultiPoly(F101, (2, 2), {(1, 0, 2, 0): 1})
    f = MultiPoly(F101, (1, 1), {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    assert len(f.terms) == 2


def test_monomial_basis_count():
    assert len(monomial_basis((2, 2))) == 9
    assert len(monomial_basis((1, 1, 1))) == 8
    # descending order in the first variable of each block
    assert monomial_basis((2,))[0] == (2, 0)


def test_eval_matches_term_sum(any_field, rng):
    f = random_multipoly(any_field, (2, 2), rng)
    pt = [
        (any_field.random(rng), any_field.random_nonzero(rng)),
        (any_field.random(rng), any_field.random_nonzero(rng)),
    ]
    direct = any_field.zero()
    for (a, b, c, d), coef in f.terms.items():
        direct = direct + coef * pt[0][0] ** a * pt[0][1] ** b * pt[1][0] ** c * pt[1][1] ** d
    assert f.eval_full(pt) == direct


_EVAL_FIELDS = [PrimeField(101), QQ, QuadExtField(PrimeField(5))]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_monomial_table_evaluation_matches_the_power_formula(data):
    field = data.draw(st.sampled_from(_EVAL_FIELDS), label="field")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    degree = tuple(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3), label="degree"))

    def coordinate():
        kind = data.draw(st.sampled_from(["zero", "one", "random"]))
        if kind == "zero":
            return field.zero()
        return field.one() if kind == "one" else field.random(rng)

    def point():
        return (coordinate(), coordinate())

    # sparse forms too: each monomial kept with probability 3/4
    f = MultiPoly(field, degree, {e: field.random(rng) for e in monomial_basis(degree)
                                  if rng.randrange(4)})
    points = [point() for _ in degree]
    assert f.eval_full(points) == power_eval(f, points)
    if len(degree) > 1:
        for block, pt in enumerate(points):
            assert f.eval_block(block, pt) == power_eval_block(f, block, pt)
    m, n = data.draw(st.integers(-1, 3), label="m"), data.draw(st.integers(-1, 3), label="n")
    monos = monomial_basis((m, n))
    pairs = [(point(), point()) for _ in range(data.draw(st.integers(0, 3), label="rows"))]
    got, want = _eval_rows(field, pairs, monos), power_rows(pairs, monos)
    if field == QQ:
        # over Q a row is taken at the point's integer coordinates: each is
        # a nonzero multiple of the row of values, and zero rows match
        assert len(got) == len(want)
        assert all(is_multiple(g, w) is not None for g, w in zip(got, want))
    else:
        assert got == want


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_residue_product_is_the_integer_convolution(data):
    # slots of one variable, where a product of monomials adds exponents;
    # residues at p - 1 fill the slots up to the bound on their width, and
    # p = 2 and 3, which are not fields of the package, give the least width
    p = data.draw(st.sampled_from([2, 3, 5, 101, 2**61 - 1]), label="p")
    residue = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    factors = data.draw(st.lists(
        st.lists(st.tuples(st.integers(0, 6), residue), max_size=7, unique_by=lambda t: t[0]),
        min_size=1, max_size=3), label="factors")
    size = sum(max((slot for slot, _ in f), default=0) for f in factors) + 1
    want = [0] * size
    for terms in itertools.product(*factors):
        want[sum(slot for slot, _ in terms)] += math.prod(v for _, v in terms)
    assert residue_product(p, factors, size) == want


@pytest.mark.parametrize("p", [5, 7, 11, 101, 1009, 2**61 - 1])
def test_products_on_residues_are_the_scalar_products(p):
    F = PrimeField(p)
    rng = random.Random(p)
    x0y0 = MultiPoly.monomial(F, (1, 1), (1, 0, 1, 0))
    x1y1 = MultiPoly.monomial(F, (1, 1), (0, 1, 0, 1))
    x0, x1 = (MultiPoly.monomial(F, (1,), e) for e in ((1, 0), (0, 1)))
    pairs = [
        # the x0 x1 y0 y1 terms cancel over the integers
        (x0y0 + x1y1, x0y0 - x1y1),
        # the x0 x1 coefficient is (p - 1) + 1, which vanishes only mod p
        (x0 + x1, x0 + x1.scale(p - 1)),
        (MultiPoly.zero(F, (2, 2)), random_multipoly(F, (1, 2), rng)),
    ]
    for _ in range(12):
        degrees = [tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))]
        degrees.append(tuple(rng.randint(0, 2) for _ in degrees[0]))
        # sparse forms, each monomial kept with probability 1/2
        pairs.append(tuple(
            MultiPoly(F, d, {e: F.random(rng) for e in monomial_basis(d) if rng.randrange(2)})
            for d in degrees))
    for fill in (F.random_nonzero, lambda _: F.coerce(-1), lambda _: F.coerce(-1)):
        # dense forms up to degree 5 per block; all coefficients -1 give
        # the largest residue sums
        degrees = [tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 3)))]
        degrees.append(tuple(rng.randint(0, 5) for _ in degrees[0]))
        pairs.append(tuple(MultiPoly(F, d, {e: fill(rng) for e in monomial_basis(d)})
                           for d in degrees))
    for f, g in pairs:
        prod = f * g
        assert prod == scalar_product(f, g)
        assert prod.degree == tuple(a + b for a, b in zip(f.degree, g.degree))
        assert all(c.__class__ is FpElt and c.p == p and c.v for c in prod.terms.values())
    assert set(((x0 + x1) * (x0 + x1.scale(p - 1))).terms) == {(2, 0), (0, 2)}


def test_partial_is_a_derivation(any_field, rng):
    f = random_multipoly(any_field, (2, 1), rng)
    g = random_multipoly(any_field, (1, 2), rng)
    # d(fg) = df*g + f*dg in each chart variable
    for block, var in ((0, 0), (1, 1)):
        lhs = (f * g).partial(block, var)
        rhs = f.partial(block, var) * g + f * g.partial(block, var)
        assert lhs.terms == rhs.terms


def test_substitute_block_composes_with_eval(F101, rng):
    f = random_multipoly(F101, (2, 2), rng)
    m = [[F101.random(rng) for _ in range(2)] for _ in range(2)]
    g = f.substitute_block(0, m)
    x = (F101.random(rng), F101.random(rng))
    y = (F101.random(rng), F101.random(rng))
    mx = (m[0][0] * x[0] + m[0][1] * x[1], m[1][0] * x[0] + m[1][1] * x[1])
    assert g.eval_full([x, y]) == f.eval_full([mx, y])


def test_coeff_forms_reassemble(F101, rng):
    f = random_multipoly(F101, (2, 2), rng)
    A, B, C = f.coeff_forms(1)
    for _ in range(5):
        x = (F101.random(rng), F101.random(rng))
        y = (F101.random(rng), F101.random(rng))
        a, b, c = (g.eval_full([x]) for g in (A, B, C))
        expect = a * y[0] ** 2 + b * y[0] * y[1] + c * y[1] ** 2
        assert f.eval_full([x, y]) == expect


def test_json_round_trip(any_field, rng):
    f = random_multipoly(any_field, (2, 2), rng)
    g = MultiPoly.from_json(any_field, f.to_json())
    assert g.degree == f.degree and g.terms == f.terms


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), da=st.integers(1, 3), db=st.integers(1, 3))
def test_bf_mul_degree_and_gcd_of_shared_factor(seed, da, db):
    field = PrimeField(101) if seed % 2 else QQ
    rng = random.Random(seed)
    a = [field.random(rng) for _ in range(da + 1)]
    b = [field.random(rng) for _ in range(db + 1)]
    if not any(a) or not any(b):
        return
    prod = bf_mul(field, a, b)
    assert len(prod) == da + db + 1
    g = bf_gcd(field, prod, a)
    # a divides prod, so the gcd has a's degree (up to scale)
    assert len(g) == len(a)
    assert bf_divexact(field, prod, g) is not None


_GCD_FIELDS = {"F5": PrimeField(5), "F101": PrimeField(101), "Q": QQ,
               "F25": QuadExtField(PrimeField(5))}


def _random_form(field, rng, degree):
    """A random binary form of the degree, nonzero, and divisible by x1
    (a root at (1:0)) one time in three."""
    while True:
        c = [field.random(rng) for _ in range(degree + 1)]
        if degree and rng.randrange(3) == 0:
            c[0] = field.zero()
        if any(c):
            return c


@pytest.mark.parametrize("name", _GCD_FIELDS)
def test_gcd_on_the_ints_is_the_element_wise_gcd(name):
    # pairs of forms of degree <= 4 sharing a random factor, some with roots
    # at (1:0), and one argument zero in some: the gcd the field's
    # representation takes is the oracle's Euclid on field elements up to a
    # factor (both are scaled to lead with 1), whether the forms come as
    # field elements or in the field's ints; each form divides by it, and
    # a product has the oracle's multiplicity pattern
    field = _GCD_FIELDS[name]
    rng = random.Random(4 * 37 + len(name))
    seen = set()
    for _ in range(80):
        common = _random_form(field, rng, rng.randint(0, 2))
        a = bf_mul(field, common, _random_form(field, rng, rng.randint(0, 4 - len(common) + 1)))
        b = bf_mul(field, common, _random_form(field, rng, rng.randint(0, 4 - len(common) + 1)))
        if rng.randrange(6) == 0:
            b = [field.zero()] * len(b)
        g = bf_gcd(field, a, b)
        want = element_gcd(field, a, b)
        assert _proportional(g, want) and g == want
        assert bf_gcd(field, field.ints(a), field.ints(b)) == g
        assert bf_gcd_degree(field, a, b) == len(g) - 1
        for c in (a, b):
            if any(c):
                assert bf_mul(field, bf_divexact(field, c, g), g) == c
        if not field.characteristic or len(a) - 1 < field.characteristic:
            assert bf_multiplicity_pattern(field, a) == element_multiplicity_pattern(field, a)
        seen.add((not any(b), not a[0] and not b[0], len(g) - 1))
    assert {z for z, _, _ in seen} == {True, False}  # a zero argument occurs
    assert any(inf for _, inf, _ in seen)  # so does a common root at (1:0)
    for F in _GCD_FIELDS.values():
        with pytest.raises(ValidationError):
            bf_gcd(F, [F.zero()] * 3, [F.zero()] * 2)


def test_divexact_refuses_what_does_not_divide():
    for F in _GCD_FIELDS.values():
        one, zero = F.one(), F.zero()
        # x0^2 + x1^2 is not divisible by x0 + x1 on any of these fields,
        # nor x0 x1 by x1^2
        with pytest.raises(ValidationError):
            bf_divexact(F, [one, zero, one], [one, one])
        with pytest.raises(ValidationError):
            bf_divexact(F, [zero, one, zero], [zero, zero, one])
        assert bf_divexact(F, [one, zero, -one], [one, one]) == [one, -one]


def test_roots_of_a_built_split_quartic(F101):
    rng = random.Random(9)
    pts = []
    while len(pts) < 4:
        p = (F101.random(rng), F101.random(rng))
        if (p[0] or p[1]) and all(p[0] * q[1] != p[1] * q[0] for q in pts):
            pts.append(p)
    q = [F101.one()]
    for p in pts:
        q = bf_mul(F101, q, bf_root_linear(F101, p))
    from bimodulus.curves import p1_points

    roots = [r for r in p1_points(F101) if not bf_eval(F101, q, r)]
    assert len(roots) == 4
    assert bf_multiplicity_pattern(F101, q) == (1, 1, 1, 1)


def test_multiplicity_patterns(F101):
    one = F101.one()
    lin = bf_root_linear(F101, (one, one))
    lin2 = bf_root_linear(F101, (one, -one))
    sq = bf_mul(F101, lin, lin)
    assert bf_multiplicity_pattern(F101, bf_mul(F101, sq, sq)) == (4,)
    assert bf_multiplicity_pattern(F101, bf_mul(F101, sq, bf_mul(F101, lin2, lin2))) == (2, 2)
    cube = bf_mul(F101, sq, lin)
    assert bf_multiplicity_pattern(F101, bf_mul(F101, cube, lin2)) == (3, 1)
    # l^3 m, then l^2, l and a constant
    chain = bf_gcd_chain(F101, bf_mul(F101, cube, lin2))
    assert [len(g) - 1 for g in chain] == [4, 2, 1, 0]


def _proportional(a, b):
    """Two nonzero coefficient lists of one length differ by a scalar."""
    return (len(a) == len(b) and any(a) and any(b)
            and all(x * b[j] == y * a[i] for i, x in enumerate(a) for j, y in enumerate(b)))


def test_square_decomposition_detects_perfect_squares(F101, rng):
    # g_1 of c0 * s^2 is s up to a scalar when s is squarefree
    for _ in range(20):
        s = [F101.random(rng) for _ in range(3)]
        if not any(s) or bf_multiplicity_pattern(F101, s) != (1, 1):
            continue
        sq = bf_scale(F101, bf_mul(F101, s, s), F101.random_nonzero(rng))
        assert bf_multiplicity_pattern(F101, sq) == (2, 2)
        assert _proportional(bf_gcd_chain(F101, sq)[1], s)
        # a form with an odd-multiplicity factor is not a square
        odd = bf_mul(F101, sq, [F101.one(), F101.one()])
        assert any(m % 2 for m in bf_multiplicity_pattern(F101, odd))


_CHAIN_FIELDS = {"F101": PrimeField(101), "Q": QQ, "F25": QuadExtField(PrimeField(5))}
_MULTS = [(1,), (2,), (4,), (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1),
          (3, 2, 1), (1, 1, 1, 1, 1, 1), (5, 1)]


@pytest.mark.parametrize(
    "name,mults",
    [(name, m) for name, F in _CHAIN_FIELDS.items() for m in _MULTS
     if not F.characteristic or sum(m) < F.characteristic])
def test_gcd_chain_of_a_product_of_linear_forms(name, mults):
    field = _CHAIN_FIELDS[name]
    # prod l_i^m_i over distinct roots, the first at [1:0]: g_k has degree
    # sum max(m_i - k, 0), and the pattern is the sorted multiplicities
    rng = random.Random(len(mults) * 31 + sum(mults))
    roots = [(field.one(), field.zero())]
    while len(roots) < len(mults):
        r = (field.random(rng), field.one())
        if r not in roots:
            roots.append(r)
    c = [field.random_nonzero(rng)]
    for r, m in zip(roots, mults):
        for _ in range(m):
            c = bf_mul(field, c, bf_root_linear(field, r))
    degrees = [sum(max(m - k, 0) for m in mults) for k in range(max(mults) + 1)]
    assert [len(g) - 1 for g in bf_gcd_chain(field, c)] == degrees
    assert bf_multiplicity_pattern(field, c) == tuple(sorted(mults, reverse=True))


def test_gcd_chain_of_a_constant_is_the_constant(F101):
    assert bf_gcd_chain(F101, [F101(3)]) == [[F101(3)]]
    assert bf_multiplicity_pattern(F101, [F101(3)]) == ()


def test_multiplicities_need_a_nonzero_form_and_char_above_the_degree(F101):
    F5 = PrimeField(5)
    with pytest.raises(ValidationError):
        bf_multiplicity_pattern(F5, [F5(1), F5(0), F5(0), F5(0), F5(2), F5(1)])
    with pytest.raises(ValidationError):
        bf_multiplicity_pattern(F101, [F101.zero()] * 5)
    with pytest.raises(ValidationError):
        bf_gcd_chain(F101, [F101.zero()] * 3)


def test_bf_roots_small_extends_only_prime_fields():
    F7 = PrimeField(7)
    assert bf_roots_small(F7, [1, 0, -1])[0] is F7
    E, roots = bf_roots_small(F7, [1, 0, 1])  # -1 is not a square mod 7
    assert isinstance(E, QuadExtField) and E.base is F7 and len(roots) == 2
    assert all(m == 1 and not bf_eval(E, [1, 0, 1], r) for r, m in roots)
    # Q and F_25 have no default quadratic extension
    F25 = QuadExtField(PrimeField(5))
    d = next(e for e in F25.elements() if e and F25.sqrt(e) is None)
    for F, c in ((QQ, [1, 0, -2]), (F25, [F25.one(), F25.zero(), -d])):
        with pytest.raises(ValidationError):
            bf_roots_small(F, c)


def test_discriminant_vanishes_where_fibers_degenerate(F101, rng):
    # the y-quadratic of f degenerates exactly over roots of the discriminant
    from bimodulus.curves import branch_quartic, coefficient_grid, make_kind, p1_points

    f = make_kind(F101, "I0", rng)
    q = [F101(x) for x in branch_quartic(coefficient_grid(f), 101)]
    A, B, C = f.coeff_forms(1)
    for x in p1_points(F101):
        a, b, c = (g.eval_full([x]) for g in (A, B, C))
        assert (b * b - 4 * a * c == 0) == (bf_eval(F101, q, x) == 0)


def test_linear_resultant_detects_common_root(F101):
    one = F101.one()
    # two (1,1) forms through the common point x=(1,0), y=(0,1)
    f1 = MultiPoly(F101, (1, 1), {(1, 0, 1, 0): one, (0, 1, 0, 1): one})
    f2 = MultiPoly(F101, (1, 1), {(1, 0, 1, 0): 2 * one, (0, 1, 1, 0): one})
    res = linear_resultant(f1, f2, 1).to_binary()
    assert not bf_eval(F101, res, (one, F101.zero()))
    # and a point with no common y-solution is not a root
    assert bf_eval(F101, res, (one, one))


def test_j_from_quartic_matches_cross_ratio(F101):
    rng = random.Random(11)
    for _ in range(10):
        pts = []
        while len(pts) < 4:
            p = (F101.random(rng), F101.one())
            if all(p[0] * q[1] != p[1] * q[0] for q in pts):
                pts.append(p)
        q = [F101.one()]
        for p in pts:
            q = bf_mul(F101, q, bf_root_linear(F101, p))
        assert j_from_quartic(F101, q) == j_from_cross_ratio(F101, pts)


def test_j_harmonic_configuration_is_1728():
    zero, one = QQ.zero(), QQ.one()
    pts = [(zero, one), (one, zero), (one, one), (-one, one)]
    q = [one]
    for p in pts:
        q = bf_mul(QQ, q, bf_root_linear(QQ, p))
    assert j_from_quartic(QQ, q) == 1728
    assert j_from_cross_ratio(QQ, pts) == 1728


def test_j_rejects_repeated_roots(F101):
    one = F101.one()
    lin = bf_root_linear(F101, (one, one))
    other = bf_mul(F101, bf_root_linear(F101, (one, -one)), bf_root_linear(F101, (one, 2 * one)))
    q = bf_mul(F101, bf_mul(F101, lin, lin), other)
    with pytest.raises(SpecialPosition):
        j_from_quartic(F101, q)


def test_quartic_invariants_scale_correctly(F101, rng):
    q = [F101.random(rng) for _ in range(5)]
    if not any(q):
        q[2] = F101.one()
    I, J = quartic_invariants(F101, q)
    s = F101.random_nonzero(rng)
    I2, J2 = quartic_invariants(F101, [s * c for c in q])
    assert I2 == s * s * I and J2 == s * s * s * J
