"""Divisors of bidegree (2,2) on P1 x P1.

Members of the anticanonical class with no ruling-fiber component fall into
exactly six types, detected here from the multiplicity pattern of the
discriminant of the projection to the first factor: smooth (I0), irreducible
with a node (I1) or a cusp (II), two (1,1) components meeting transversally
(I2) or tangentially (III), and a doubled (1,1) curve (NonReduced).

Also provides the pointwise utilities (fibers, residual intersection points,
smoothness tests, random instances of each type) that the sheaf machinery in
the rest of the package is built on.
"""

from __future__ import annotations

from .errors import SpecialPosition, ValidationError
from .exactmath import kernel_basis
from .polyring import (
    MultiPoly,
    bf_divexact,
    bf_eval,
    bf_gcd,
    bf_is_zero,
    bf_multiplicity_pattern,
    bf_rational_roots,
    bf_root_deflate,
    bf_roots_small,
    bf_scale,
    bf_square_decomp,
    bf_squarefree_decomposition,
    j_from_quartic,
    monomial_basis,
    quadratic_discriminant,
)

KINDS = ("I0", "I1", "I2", "II", "III", "NonReduced")

_PATTERN_TO_KIND = {
    (1, 1, 1, 1): "I0",
    (2, 1, 1): "I1",
    (2, 2): "I2",
    (3, 1): "II",
    (4,): "III",
}


def validate_22(f):
    if f.nblocks() != 2 or f.degree != (2, 2):
        raise ValidationError(f"expected bidegree (2,2), got {f.degree}")
    if f.is_zero():
        raise ValidationError("zero form does not define a divisor")


def validate_support(f):
    """Reject members containing a fiber of either ruling.

    A common factor of the three coefficient forms with respect to one block
    is exactly a product of fibers of the other ruling.
    """
    validate_22(f)
    for block in (0, 1):
        coeffs = [c.to_binary() for c in f.coeff_forms(block)]
        nonzero = [c for c in coeffs if not bf_is_zero(c)]
        g = nonzero[0]
        for c in nonzero[1:]:
            g = bf_gcd(f.field, g, c)
        if len(g) > 1:
            raise ValidationError("divisor contains a ruling fiber")


def kodaira_classify(f):
    """Type of the divisor, one of KINDS.

    The discriminant of f as a quadratic over the first P1 is a binary
    quartic whose root multiplicities grow with the singularities downstairs:
    a reduced member is smooth over simple roots, nodal over double roots,
    cuspidal over triple ones; multiplicity four forces two tangent (1,1)
    components, and identically-zero discriminant a doubled (1,1).
    """
    validate_support(f)
    disc = quadratic_discriminant(f, 1).to_binary()
    if bf_is_zero(disc):
        return "NonReduced"
    return _PATTERN_TO_KIND[bf_multiplicity_pattern(f.field, disc)]


def member_j(f, block=1):
    """j-invariant of a smooth member: the branch quartic of either ruling
    projection has four distinct roots, and j is taken from that quartic."""
    validate_22(f)
    disc = quadratic_discriminant(f, block).to_binary()
    return j_from_quartic(f.field, disc)


# ---------------------------------------------------------------------------
# points


def normalize_point(field, pt):
    a, b = field.coerce(pt[0]), field.coerce(pt[1])
    if b:
        return (a / b, field.one())
    if not a:
        raise ValidationError("(0, 0) is not a projective point")
    return (field.one(), field.zero())


def coerce_pair(field, pair):
    return (normalize_point(field, pair[0]), normalize_point(field, pair[1]))


def point_key(field, pt):
    return tuple(field.format(c) for c in pt)


def pair_key(field, pair):
    return point_key(field, pair[0]) + point_key(field, pair[1])


def p1_points(field):
    if not field.characteristic:
        raise ValidationError("cannot enumerate points over an infinite field")
    pts = [(e, field.one()) for e in field.elements()]
    pts.append((field.one(), field.zero()))
    return pts


def on_curve(f, pair):
    return not f.eval_full(list(pair))


def enumerate_points(f):
    """All rational points of the zero locus of a bidegree-(2,2) form over a
    finite field, x-major with y in `p1_points` order.

    One pass over the first ruling: each fiber's restriction is a binary
    quadratic whose rational roots are the points above x, and a fiber
    lying inside the zero locus contributes every y."""
    F = f.field
    line = p1_points(F)
    position = {pt: i for i, pt in enumerate(line)}
    pts = []
    for x in line:
        q = fiber_quadratic(f, 0, x)
        if bf_is_zero(q):
            pts.extend((x, y) for y in line)
            continue
        roots = bf_rational_roots(F, q)
        if roots:
            found = {position[normalize_point(F, r)] for r, _ in roots}
            pts.extend((x, line[i]) for i in sorted(found))
    return pts


def _chart_var(pt):
    # the coordinate free to move in the standard affine chart at pt
    return 0 if pt[1] else 1


def local_derivatives(f, pair):
    """Values at a point of the two affine-chart partials (one per block)."""
    out = []
    for block in (0, 1):
        d = f.partial(block, _chart_var(pair[block]))
        out.append(d.eval_full(list(pair)))
    return tuple(out)


def is_smooth_point(f, pair):
    if not on_curve(f, pair):
        raise ValidationError("point is not on the curve")
    du, dv = local_derivatives(f, pair)
    return bool(du) or bool(dv)


def fiber_quadratic(f, side, pt):
    """Restriction of f to the fiber through pt of the chosen ruling
    (side 0 fixes the first block), as a binary form on the other block."""
    return f.eval_block(side, pt).to_binary()


def fiber_residual_point(f, pair, side):
    """Second intersection of the fiber through a curve point with the curve.

    May coincide with the point itself when the fiber is tangent there.
    """
    F = f.field
    q = fiber_quadratic(f, side, pair[side])
    if bf_is_zero(q):
        raise ValidationError("fiber is contained in the divisor")
    lin = bf_root_deflate(F, q, pair[1 - side])
    return normalize_point(F, (lin[1], -lin[0]))


# ---------------------------------------------------------------------------
# singular locus and component splitting


def singular_points(f):
    """Singular points of a reduced member, over at most one quadratic
    extension of the base field.  Returns (field_used, sorted pairs)."""
    F = f.field
    disc = quadratic_discriminant(f, 1).to_binary()
    if bf_is_zero(disc):
        raise ValidationError("member is non-reduced")
    _, factors = bf_squarefree_decomposition(F, disc)
    ext = None
    raw = []
    for g, mult in factors:
        if mult < 2:
            continue
        if ext is None:
            ext = F.quadratic_extension() if F.characteristic else None
        used, roots = bf_roots_small(F, g, ext=ext)
        for xpt, _ in roots:
            raw.append((used, xpt))
    if not raw:
        return F, []
    field_used = F
    for used, _ in raw:
        if used is not F:
            field_used = used
    A, B, C = (c.to_binary() for c in f.coeff_forms(1))
    pairs = []
    for used, xpt in raw:
        E = field_used
        x = (E.coerce(xpt[0]), E.coerce(xpt[1])) if used is F or used is E else None
        if x is None:
            raise AssertionError("mixed quadratic extensions")
        a = bf_eval(E, [E.coerce(c) for c in A], x)
        b = bf_eval(E, [E.coerce(c) for c in B], x)
        if a:
            y = normalize_point(E, (-b, 2 * a))
        else:
            y = (E.one(), E.zero())
        pairs.append((normalize_point(E, x), y))
    pairs.sort(key=lambda pr: pair_key(field_used, pr))
    return field_used, pairs


def _mp_from_y_coeffs(field, a, b):
    """(1,1) form with y0-coefficient a and y1-coefficient b (binary in x)."""
    terms = {}
    for i, c in enumerate(a):
        terms[(1 - i, i, 1, 0)] = c
    for i, c in enumerate(b):
        terms[(1 - i, i, 0, 1)] = terms.get((1 - i, i, 0, 1), field.zero()) + c
    return MultiPoly(field, (1, 1), terms)


def factor_11(f):
    """Split a reducible member (types I2, III) into two (1,1) components.

    Returns (field_used, g, h) with g*h equal to f exactly; the pair is
    rational when the components are individually defined over the base
    field, and lives over the default quadratic extension otherwise.
    """
    F = f.field
    kind = kodaira_classify(f)
    if kind not in ("I2", "III"):
        raise ValidationError(f"member of type {kind} is not a product of two (1,1) forms")
    disc = quadratic_discriminant(f, 1).to_binary()
    sq = bf_square_decomp(F, disc)
    if sq is None:
        raise AssertionError("reducible member with non-square discriminant")
    c0, s = sq
    root = F.sqrt(c0)
    if root is not None:
        E = F
    else:
        E = F.quadratic_extension()
        root = E.sqrt(E.coerce(c0))
        s = [E.coerce(x) for x in s]
    fE = f if E is F else f.coerce_to(E)
    A, B, _ = (x.to_binary() for x in fE.coeff_forms(1))
    base_r = [root * x for x in s]
    half = E.one() / E.coerce(2)
    for sign in (E.one(), -E.one()):
        r = [sign * x for x in base_r]
        plus = [half * (b + x) for b, x in zip(B, r)]   # (B + R)/2 = g0*h1
        minus = [half * (b - x) for b, x in zip(B, r)]  # (B - R)/2 = g1*h0
        try:
            g0 = bf_gcd(E, A, plus)
            h0 = bf_divexact(E, A, g0)
            g1 = bf_divexact(E, minus, h0)
            h1 = bf_divexact(E, plus, g0)
        except ValidationError:
            continue
        g = _mp_from_y_coeffs(E, g0, g1)
        h = _mp_from_y_coeffs(E, h0, h1)
        prod = g * h
        if prod.is_zero() or not prod.proportional(fE):
            continue
        exp = min(prod.terms)
        ratio = fE.terms[exp] / prod.terms[exp]
        g = g.scale(ratio)
        if (g * h) == fE:
            return E, g, h
    raise AssertionError("component splitting failed verification")


def nonreduced_sqrt(f):
    """Write a non-reduced member as c * g**2 with g of bidegree (1,1)."""
    F = f.field
    if kodaira_classify(f) != "NonReduced":
        raise ValidationError("member is not a doubled (1,1) curve")
    A, B, _ = (x.to_binary() for x in f.coeff_forms(1))
    sq = bf_square_decomp(F, A)
    if sq is None:
        raise AssertionError("doubled curve whose leading coefficient is not square")
    c, a = sq
    b = bf_divexact(F, bf_scale(F, B, F.one() / F.coerce(2)), bf_scale(F, a, c))
    g = _mp_from_y_coeffs(F, a, b)
    if not (g * g).scale(c) == f:
        raise AssertionError("square-root verification failed")
    return c, g


# ---------------------------------------------------------------------------
# random instances


def random_p1_point(field, rng):
    if rng.randrange(9) == 0:
        return (field.one(), field.zero())
    return (field.random(rng), field.one())


def _functional_row(field, degree, func):
    return [func(MultiPoly.monomial(field, degree, e)) for e in monomial_basis(degree)]


def _deriv_at(pair, derivs):
    def L(m):
        g = m
        for block, var in derivs:
            g = g.partial(block, var)
        return g.eval_full(list(pair))

    return L


def _random_kernel_element(field, rows, ncols, rng, tries=20):
    ker = kernel_basis(field, rows, ncols)
    if not ker:
        raise SpecialPosition("linear conditions admit no solution")
    for _ in range(tries):
        vec = [field.zero()] * ncols
        for b in ker:
            s = field.random(rng)
            vec = [v + s * x for v, x in zip(vec, b)]
        if any(vec):
            return vec
    raise SpecialPosition("kernel sampling kept drawing zero")


def _from_coeff_vec(field, degree, vec):
    basis = monomial_basis(degree)
    return MultiPoly(field, degree, dict(zip(basis, vec)))


def random_smooth_22(field, rng, tries=200):
    from .polyring import random_multipoly

    for _ in range(tries):
        f = random_multipoly(field, (2, 2), rng)
        try:
            if kodaira_classify(f) == "I0":
                return f
        except ValidationError:
            continue
    raise SpecialPosition("could not draw a smooth member")


def _node_rows(field, pair):
    u = (0, _chart_var(pair[0]))
    v = (1, _chart_var(pair[1]))
    return [
        _functional_row(field, (2, 2), _deriv_at(pair, [])),
        _functional_row(field, (2, 2), _deriv_at(pair, [u])),
        _functional_row(field, (2, 2), _deriv_at(pair, [v])),
    ], u, v


def make_nodal(field, rng, tries=200):
    """Irreducible member with one node at a rational point (type I1)."""
    for _ in range(tries):
        pair = (random_p1_point(field, rng), random_p1_point(field, rng))
        rows, _, _ = _node_rows(field, pair)
        try:
            vec = _random_kernel_element(field, rows, 9, rng)
            f = _from_coeff_vec(field, (2, 2), vec)
            if kodaira_classify(f) == "I1":
                return f, pair
        except (SpecialPosition, ValidationError):
            continue
    raise SpecialPosition("could not draw a nodal member")


def make_cuspidal(field, rng, tries=400):
    """Irreducible member with one cusp at a rational point (type II)."""
    for _ in range(tries):
        pair = (random_p1_point(field, rng), random_p1_point(field, rng))
        rows, u, v = _node_rows(field, pair)
        alpha, beta = field.random(rng), field.random(rng)
        if not alpha and not beta:
            continue
        # quadratic part proportional to (alpha*u + beta*v)^2: both partials
        # of the quadratic part vanish at its root (-beta, alpha)
        fuu = _functional_row(field, (2, 2), _deriv_at(pair, [u, u]))
        fuv = _functional_row(field, (2, 2), _deriv_at(pair, [u, v]))
        fvv = _functional_row(field, (2, 2), _deriv_at(pair, [v, v]))
        rows = rows + [
            [-beta * a + alpha * b for a, b in zip(fuu, fuv)],
            [-beta * a + alpha * b for a, b in zip(fuv, fvv)],
        ]
        try:
            vec = _random_kernel_element(field, rows, 9, rng)
            f = _from_coeff_vec(field, (2, 2), vec)
            if kodaira_classify(f) == "II":
                return f, pair
        except (SpecialPosition, ValidationError):
            continue
    raise SpecialPosition("could not draw a cuspidal member")


def random_11(field, rng, tries=100):
    """Random irreducible (1,1) form: its 2x2 coefficient matrix is
    nondegenerate exactly when the curve has no fiber component."""
    basis = monomial_basis((1, 1))
    for _ in range(tries):
        vals = [field.random(rng) for _ in basis]
        a, b, c, d = vals  # x0y0, x0y1, x1y0, x1y1
        if a * d - b * c:
            return MultiPoly(field, (1, 1), dict(zip(basis, vals)))
    raise SpecialPosition("could not draw an irreducible (1,1) form")


def make_two_11(field, rng, tries=200):
    """Two (1,1) components meeting transversally (type I2)."""
    for _ in range(tries):
        g = random_11(field, rng)
        h = random_11(field, rng)
        f = g * h
        try:
            if kodaira_classify(f) == "I2":
                return f, g, h
        except ValidationError:
            continue
    raise SpecialPosition("could not draw a transversal pair")


def point_on_11(g, rng, tries=50):
    F = g.field
    for _ in range(tries):
        x = random_p1_point(F, rng)
        lin = g.eval_block(0, x).to_binary()
        if bf_is_zero(lin):
            break  # fiber component: caller redraws g
        y = normalize_point(F, (lin[1], -lin[0]))
        return (normalize_point(F, x), y)
    raise SpecialPosition("could not find a point on the (1,1) form")


def make_tangent_11(field, rng, tries=400):
    """Two (1,1) components tangent at one point (type III)."""
    basis = monomial_basis((1, 1))
    for _ in range(tries):
        g = random_11(field, rng)
        try:
            pair = point_on_11(g, rng)
        except SpecialPosition:
            continue
        dug, dvg = local_derivatives(g, pair)
        u = (0, _chart_var(pair[0]))
        v = (1, _chart_var(pair[1]))
        row_val = _functional_row(field, (1, 1), _deriv_at(pair, []))
        row_du = _functional_row(field, (1, 1), _deriv_at(pair, [u]))
        row_dv = _functional_row(field, (1, 1), _deriv_at(pair, [v]))
        row_tan = [dvg * a - dug * b for a, b in zip(row_du, row_dv)]
        try:
            vec = _random_kernel_element(field, [row_val, row_tan], 4, rng)
            h = MultiPoly(field, (1, 1), dict(zip(basis, vec)))
            if h.proportional(g):
                continue
            f = g * h
            if kodaira_classify(f) == "III":
                return f, g, h
        except (SpecialPosition, ValidationError):
            continue
    raise SpecialPosition("could not draw a tangent pair")


def make_nonreduced(field, rng, tries=100):
    """Doubled (1,1) curve: c * g**2."""
    for _ in range(tries):
        g = random_11(field, rng)
        c = field.random(rng)
        if not c:
            continue
        f = (g * g).scale(c)
        try:
            if kodaira_classify(f) == "NonReduced":
                return f, c, g
        except ValidationError:
            continue
    raise SpecialPosition("could not draw a doubled curve")


def make_kind(field, kind, rng):
    if kind == "I0":
        return random_smooth_22(field, rng)
    if kind == "I1":
        return make_nodal(field, rng)[0]
    if kind == "I2":
        return make_two_11(field, rng)[0]
    if kind == "II":
        return make_cuspidal(field, rng)[0]
    if kind == "III":
        return make_tangent_11(field, rng)[0]
    if kind == "NonReduced":
        return make_nonreduced(field, rng)[0]
    raise ValidationError(f"unknown member type {kind!r}")


def random_smooth_point(f, rng, tries=200):
    """A rational point of the curve that is smooth on it, by fiber sampling."""
    F = f.field
    for _ in range(tries):
        x = random_p1_point(F, rng)
        q = fiber_quadratic(f, 0, x)
        if bf_is_zero(q):
            raise ValidationError("divisor contains a ruling fiber")
        roots = bf_rational_roots(F, q)
        if roots is None:
            continue  # conjugate roots: try another fiber
        roots = [r for r, _ in roots]
        y = roots[rng.randrange(len(roots))]
        pair = (normalize_point(F, x), normalize_point(F, y))
        if is_smooth_point(f, pair):
            return pair
    raise SpecialPosition("could not find a rational smooth point")
