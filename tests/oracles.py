"""Independent reference computations used to freeze expected values.

Deliberately naive and local: points of a member by evaluating the form
at every point of P1 x P1, incidence points by evaluating both relations
at each point of their enumerated last shadow, split fibers and sampled
smooth points by solving every fiber afresh on each call, canonical
representatives raised one fiber per rewriting step, point counts of a
member's coefficient grid by evaluating it at every point of P1 x P1 and
of an elliptic curve by the character sum over every X, the order of a
point by adding it to itself until infinity, random field
elements and points of P1 drawn straight from the generator, the member
of `phi_inverse` as the relation among nine products of sections,
residual points of fibers by division by a linear form, j through
cross-ratios of actual branch points, member classification through
exhaustive singular-point inspection over a quadratic extension and
through the multiplicity pattern of a product-built branch quartic, with
the fiber check and the gcds of that pattern by Euclid on field elements,
smoothness and j from the branch quartic built as a form on field
elements, point rows from the monomial value tables of the point's
coordinates, the divisor rows of the doubled member by the remainder
recurrence on field elements, forms and binary forms evaluated term by
term with powers, whether a point is on a member and its smoothness from
the form and its partials evaluated that way, the Taylor rows of a
repeated point by implicit differentiation with those partials, the
points where two (1,1) forms meet from the determinant of their
coefficients, the round
trip with its points kept in a list and every j from a shadow built as a
form, vanishing to order two at a point of the member by the rank of the
two gradients there, reduction modulo the member against the echelon
form of its ideal slice, elimination, reduction modulo an echelon basis
and products of forms through the field's own scalar arithmetic, one
scalar operation per entry, the relations of `psi0` and `psi1` from
those products of forms rather than from normal forms, the points of a
fiber from the roots of its restricted quadratic, square roots in a
quadratic extension by squaring every element, and the doubled member's
Cech counts from a separate elimination at each window.  The package
must agree with these wherever both apply.
"""

from fractions import Fraction
from functools import reduce

from bimodulus.bimodules import _cech_rows, _columns, _dcond_rows
from bimodulus.curves import (
    _PATTERN_TO_KIND,
    enumerate_points,
    fiber_quadratic,
    kodaira_classify,
    normalize_point,
    p1_points,
    validate_22,
)
from bimodulus.errors import DegenerateInstance, SpecialPosition, ValidationError
from bimodulus.exactmath import (
    FpElt,
    QEElt,
    QuadExtField,
    block_ranks,
    kernel_basis,
    reduce_modulo,
    rref,
    subspace_equal,
)
from bimodulus.linebundles import LineBundle, _fiber_scan, section_space
from bimodulus.moduli import (
    _frame,
    _left_kernel,
    _outside_span,
    ci_shadows,
    incidence_points,
    phi,
    point_representation,
    psi0,
    relations_to_ci,
)
from bimodulus.polyring import (
    MultiPoly,
    bf_divexact,
    bf_is_zero,
    bf_mul,
    bf_rational_roots,
    j_from_quartic,
    monomial_basis,
    monomial_values,
    quartic_invariants,
    uv_trim,
)
from bimodulus.quivers import generic_member_quiver, middle_member_quiver, theta_stable


def power_eval(poly, points):
    """Value of a multihomogeneous form at one (a0, a1) pair per block,
    term by term: each monomial as a product of powers of the coordinates."""
    acc = poly.field.zero()
    for e, c in poly.terms.items():
        term = c
        for b, (a0, a1) in enumerate(points):
            term = term * a0 ** e[2 * b] * a1 ** e[2 * b + 1]
        acc = acc + term
    return acc


def power_eval_block(poly, block, point):
    """The form with one block's variables set to `point`, term by term
    with powers; a form on the remaining blocks."""
    a0, a1 = point
    deg = tuple(d for b, d in enumerate(poly.degree) if b != block)
    terms = {}
    for e, c in poly.terms.items():
        rest = e[: 2 * block] + e[2 * block + 2:]
        val = c * a0 ** e[2 * block] * a1 ** e[2 * block + 1]
        terms[rest] = terms.get(rest, poly.field.zero()) + val
    return MultiPoly(poly.field, deg, terms)


def power_rows(points, monos):
    """Values of the bidegree monomials `monos` at each point, with powers."""
    return [[x0 ** e[0] * x1 ** e[1] * y0 ** e[2] * y1 ** e[3] for e in monos]
            for (x0, x1), (y0, y1) in points]


def local_derivatives(f, pair):
    """Values at a point of the two affine-chart partials, one per block:
    the partial in the coordinate that moves in the standard chart there,
    evaluated with powers."""
    out = []
    for block in (0, 1):
        var = 0 if pair[block][1] else 1
        out.append(power_eval(f.partial(block, var), list(pair)))
    return tuple(out)


def vanishes_doubly(f, g, pair):
    """Whether the form g vanishes to order two at a smooth point of the
    member f on it: g is zero there and its bihomogeneous gradient (the
    four partials, evaluated with powers) is proportional to f's, so the
    2 x 4 matrix of the two gradients has rank at most one."""
    if power_eval(g, list(pair)):
        return False
    grads = [[power_eval(h.partial(block, var), list(pair)) for block in (0, 1) for var in (0, 1)]
             for h in (g, f)]
    return all(not (grads[0][i] * grads[1][j] - grads[0][j] * grads[1][i])
               for i in range(4) for j in range(i + 1, 4))


def on_curve(f, pair):
    """Whether the form vanishes at the point, evaluated with powers."""
    return not power_eval(f, list(pair))


def is_smooth_point(f, pair):
    """Whether a point of the member has a nonzero chart partial; raises
    ValidationError when it is off the member."""
    if not on_curve(f, pair):
        raise ValidationError("point is not on the curve")
    du, dv = local_derivatives(f, pair)
    return bool(du) or bool(dv)


def taylor_rows(f, pair, monos, k):
    """The coefficients of t, ..., t^(k-1), k <= 3, of the monomials `monos`
    along the member f at its smooth normalized point `pair`, by implicit
    differentiation: one block's chart coordinate moves by t, and the
    other's, the second block's when its chart partial
    (`local_derivatives`) is nonzero, follows as w1 t + w2 t^2.  Every
    derivative is a partial evaluated with powers; in the chart the other
    coordinate stays 1, so chart derivatives are the homogeneous ones."""
    F = f.field
    d = local_derivatives(f, pair)
    lead = 1 if d[1] else 0
    s, w = ((b, 0 if pair[b][1] else 1) for b in (1 - lead, lead))

    def D(g, *moves):
        for block, var in moves:
            if not g.degree[block]:
                return F.zero()
            g = g.partial(block, var)
        return power_eval(g, list(pair))

    forms = [MultiPoly.monomial(F, (e[0] + e[1], e[2] + e[3]), e) for e in monos]
    w1 = -D(f, s) / D(f, w)
    rows = [[D(m, s) + D(m, w) * w1 for m in forms]]
    if k == 3:
        two = F.coerce(2)

        def second(g):
            return (D(g, s, s) + two * D(g, s, w) * w1 + D(g, w, w) * w1 * w1) / two

        w2 = -second(f) / D(f, w)
        rows.append([second(m) + D(m, w) * w2 for m in forms])
    return rows[:k - 1]


def meeting_points(g, h):
    """The rational points where two (1,1) forms meet: the roots y of the
    determinant of their coefficients of x0 and x1, linear forms in y,
    each with the x at which g, or h where g vanishes on that fiber,
    vanishes there."""
    F = g.field
    ends = ((F.one(), F.zero()), (F.zero(), F.one()))
    (a, b), (c, e) = ([power_eval_block(k, 0, x).to_binary() for x in ends] for k in (g, h))
    det = [u - v for u, v in zip(bf_mul(F, a, e), bf_mul(F, b, c))]
    out = []
    for y, _ in bf_rational_roots(F, det) or []:
        lin = power_eval_block(g, 1, y).to_binary()
        if bf_is_zero(lin):
            lin = power_eval_block(h, 1, y).to_binary()
        out.append((normalize_point(F, (lin[1], -lin[0])), normalize_point(F, y)))
    return out


def bf_root_linear(field, pt):
    """A linear form vanishing at the projective point pt."""
    a0, a1 = field.coerce(pt[0]), field.coerce(pt[1])
    return [a1, -a0]


def bf_eval(field, c, pt):
    """Value of the binary form c (coefficients of x0^d, ..., x1^d) at pt."""
    a0, a1 = field.coerce(pt[0]), field.coerce(pt[1])
    d = len(c) - 1
    acc = field.zero()
    for i, x in enumerate(c):
        if x:
            acc = acc + x * a0 ** (d - i) * a1 ** i
    return acc


def brute_points(f):
    """Zeros of a (2,2)-form among all q^2 + 2q + 1 points of P1 x P1 over
    a finite field, x-major with y in `p1_points` order."""
    line = p1_points(f.field)
    return [(x, y) for x in line for y in line if not power_eval(f, [x, y])]


def brute_point_count(p, grid):
    """Zeros mod p of the (2,2)-form whose coefficient of
    u0^(2-a) u1^a v0^(2-b) v1^b is grid[a][b], among all (p + 1)^2 points
    of P1 x P1 over F_p."""
    line = [(i, 1) for i in range(p)] + [(1, 0)]
    squares = [(t0 * t0, t0 * t1, t1 * t1) for t0, t1 in line]
    return sum(1 for u in squares for v in squares
               if not sum(grid[a][b] * u[a] * v[b] for a in range(3) for b in range(3)) % p)


def brute_curve_order(p, a, b):
    """#E(F_p) for Y^2 = X^3 + aX + b: the point at infinity, and 1 +
    (c | p) points over each X, c = X^3 + aX + b, by Euler's criterion."""
    n = 1
    for x in range(p):
        c = (x * x * x + a * x + b) % p
        n += 1 if not c else 2 if pow(c, (p - 1) // 2, p) == 1 else 0
    return n


def brute_point_order(p, a, P):
    """Order of the point P on Y^2 = X^3 + aX + b over F_p, by adding P
    to its multiples one at a time until the point at infinity."""
    x0, y0 = P
    Q, n = P, 1
    while Q is not None:
        x, y = Q
        if x == x0 and (y + y0) % p == 0:
            Q = None
        else:
            if x == x0:
                lam = (3 * x * x + a) * pow(2 * y, p - 2, p) % p
            else:
                lam = (y - y0) * pow(x - x0, p - 2, p) % p
            x3 = (lam * lam - x - x0) % p
            Q = (x3, (lam * (x0 - x3) - y0) % p)
        n += 1
    return n


def shadow_incidence_points(c1, c2):
    """Rational points of the incidence curve of a relation pair, x-major
    with y in `p1_points` order: the points of the last shadow, each with
    the common zero z of both relations there, read off by evaluating the
    relations at (x, y).  Raises DegenerateInstance on a shared linear
    factor or a one-dimensional fiber."""
    field = c1.field
    if not field.characteristic:
        raise ValidationError("point enumeration needs a finite field")
    shadow = ci_shadows(c1, c2)[2]
    pts = []
    for (x, y) in enumerate_points(shadow):
        lin1 = power_eval_block(power_eval_block(c1, 0, x), 0, y)
        lin2 = power_eval_block(power_eval_block(c2, 0, x), 0, y)
        v1 = [lin1.terms.get((1, 0)), lin1.terms.get((0, 1))]
        v2 = [lin2.terms.get((1, 0)), lin2.terms.get((0, 1))]
        v1 = [a if a is not None else field.zero() for a in v1]
        v2 = [a if a is not None else field.zero() for a in v2]
        if not any(v1) and not any(v2):
            raise DegenerateInstance("incidence curve has a one-dimensional fiber")
        # common zero of a0 z0 + a1 z1: direction (a1, -a0)
        a = v1 if any(v1) else v2
        z = normalize_point(field, (a[1], -a[0]))
        if any(v2) and (v2[0] * z[0] + v2[1] * z[1]):
            raise AssertionError("shadow point without a common third coordinate")
        pts.append((x, y, z))
    return pts


def ideal_slice(f, m, n):
    """Coefficient vectors of f * H0(O(m-2, n-2)) inside O(m,n)."""
    if m - 2 < 0 or n - 2 < 0:
        return []
    monos = monomial_basis((m, n))
    index = {e: i for i, e in enumerate(monos)}
    out = []
    for e in monomial_basis((m - 2, n - 2)):
        # f times a monomial: f's coefficients at shifted exponents
        vec = [f.field.zero()] * len(monos)
        for ee, c in f.terms.items():
            vec[index[tuple(a + b for a, b in zip(e, ee))]] = c
        out.append(vec)
    return out


def form_to_vec(form, monos):
    """The coefficients of a form on the monomials `monos`."""
    vec = [form.field.zero()] * len(monos)
    index = {e: i for i, e in enumerate(monos)}
    for e, c in form.terms.items():
        vec[index[e]] = c
    return vec


def reembedded_member(quad):
    """The member of a component-0 quadruple re-embedded through the
    section bases s of L2 and t of L0: the unique linear relation among the
    nine products s_i s_j t_k t_l of symmetric pairs modulo the member,
    read as a (2,2)-form in (s, t).  Raises DegenerateInstance when the
    relation is not unique."""
    field = quad.curve.field
    s, t = section_space(quad.L2).forms(), section_space(quad.L0).forms()
    sym = ((0, 0), (0, 1), (1, 1))
    products = [s[i] * s[j] * t[k] * t[l] for (i, j) in sym for (k, l) in sym]
    degree = products[0].degree
    monos = monomial_basis(degree)
    ideal = ideal_slice(quad.curve.f, *degree)
    red, piv = rref(field, ideal) if ideal else ([], [])
    vecs = [reduce_modulo(field, red, piv, form_to_vec(g, monos)) for g in products]
    ker = kernel_basis(field, [list(col) for col in zip(*vecs)], len(vecs))
    if len(ker) != 1:
        raise DegenerateInstance(f"re-embedding products: {len(ker)} relations")
    terms = {(2 - a, a, 2 - b, b): ker[0][3 * a + b] for a in range(3) for b in range(3)}
    return MultiPoly(field, (2, 2), {e: c for e, c in terms.items() if c})


def split_fiber_scan(f, side, avoid):
    """First fiber of the chosen ruling, in `_fiber_scan` order, meeting
    the member in two distinct rational smooth points outside `avoid`;
    every fiber is restricted and solved afresh on each call."""
    F = f.field
    for x in _fiber_scan(F):
        q = fiber_quadratic(f, side, x)
        if bf_is_zero(q):
            continue
        roots = bf_rational_roots(F, q)
        if roots is None or len(roots) != 2:
            continue
        xn = normalize_point(F, x)
        pairs = []
        for r, _ in roots:
            rn = normalize_point(F, r)
            pairs.append((xn, rn) if side == 0 else (rn, xn))
        if any(p in avoid for p in pairs):
            continue
        if not all(is_smooth_point(f, p) for p in pairs):
            continue
        return pairs
    raise SpecialPosition("no usable split fiber found")


def canonical_one_fiber_at_a_time(L):
    """`LineBundle.canonical` one rewriting move per step, 60 steps at
    most: absorb a plus point, or raise by one fiber found by
    `split_fiber_scan` outside the minus points so far, until the Kunneth
    condition holds.  Minus points keep their multiplicity."""
    rep = L
    for _ in range(60):
        if rep.plus:
            rep = rep._absorb_one(rep.plus[0])
            continue
        a, b = rep.m - 2, rep.n - 2
        if a <= -2 and b >= 0:
            pts = split_fiber_scan(rep.curve.f, 0, rep.minus)
            rep = LineBundle(rep.curve, rep.m + 1, rep.n, rep.minus + pts, [], check=False)
            continue
        if a >= 0 and b <= -2:
            pts = split_fiber_scan(rep.curve.f, 1, rep.minus)
            rep = LineBundle(rep.curve, rep.m, rep.n + 1, rep.minus + pts, [], check=False)
            continue
        return rep
    raise SpecialPosition("rewriting did not terminate")


def random_element(field, rng):
    """A random element of the field, with no draw keys: n/d with n in
    [-12, 12] and d in [1, 6] over Q, a residue over F_p, and a + b sqrt(d)
    with a drawn before b over a quadratic extension."""
    if isinstance(field, QuadExtField):
        a = random_element(field.base, rng)
        return QEElt(field, a, random_element(field.base, rng))
    if field.characteristic:
        return FpElt(field.p, rng.randrange(field.p))
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def random_p1_point(field, rng):
    """A random point of P1: (1:0) one draw in nine, else (x:1) for a
    random element x."""
    if rng.randrange(9) == 0:
        return (field.one(), field.zero())
    return (random_element(field, rng), field.one())


def random_smooth_point_scan(f, rng, tries=200):
    """`random_smooth_point` with every drawn fiber restricted and solved
    afresh, and drawn as field elements: the same generator calls, in the
    same order."""
    F = f.field
    for _ in range(tries):
        x = random_p1_point(F, rng)
        q = fiber_quadratic(f, 0, x)
        if bf_is_zero(q):
            raise ValidationError("divisor contains a ruling fiber")
        roots = bf_rational_roots(F, q)
        if roots is None:
            continue
        y = roots[rng.randrange(len(roots))][0]
        pair = (normalize_point(F, x), normalize_point(F, y))
        if is_smooth_point(f, pair):
            return pair
    raise SpecialPosition("could not find a rational smooth point")


def j_from_cross_ratio(field, roots):
    """j of the double cover branched at four distinct points of the line,
    via the cross-ratio computed with projective determinants."""

    def det(p, q):
        return p[0] * q[1] - p[1] * q[0]

    x1, x2, x3, x4 = roots
    num = det(x3, x1) * det(x4, x2)
    den = det(x3, x2) * det(x4, x1)
    lam = num / den
    one = field.one()
    t = lam * lam - lam + one
    return 256 * t * t * t / (lam * lam * (lam - one) * (lam - one))


def quartic_roots_in_extension(field, quartic):
    """Projective roots of a binary quartic over the quadratic extension of
    a prime field."""
    ext = QuadExtField(field)
    coeffs = [ext.coerce(c) for c in quartic]
    return ext, [pt for pt in p1_points(ext) if not bf_eval(ext, coeffs, pt)]


def brute_member_kind(f):
    """Member type by singular-point inspection over the quadratic
    extension.

    Every singular point of a valid member is rational there (single
    singular points are Galois-fixed, and the two nodes of a transversal
    pair come from a quadratic elimination).  A single point is classified
    by the rank of the quadratic part of the recentered form and, in rank
    one, by whether the cubic part is divisible by the tangent line: a cusp
    keeps the cubic off the line, a tangential pair puts it on.  Genus
    forces reduced members to carry at most two singular points, each at
    worst a node when there are two.
    """
    field = f.field
    ext = QuadExtField(field)
    fe = f.coerce_to(ext)
    pts = enumerate_points(fe)  # cross-checked against brute_points in the tests
    sing = [p for p in pts if _is_singular(fe, p)]
    if pts and len(sing) == len(pts):
        return "NonReduced"
    if not sing:
        return "I0"
    if len(sing) == 2:
        for p in sing:
            rank, _ = _local_data(fe, p)
            if rank != 2:
                raise AssertionError("two singular points must both be nodes")
        return "I2"
    if len(sing) == 1:
        rank, cubic_off_line = _local_data(fe, sing[0])
        if rank == 2:
            return "I1"
        return "II" if cubic_off_line else "III"
    raise AssertionError(f"{len(sing)} singular points fit no member type")


def fiber_residual(f, pair, side):
    """Second point of the member on the fiber through `pair` of the chosen
    ruling, by dividing the fiber's quadratic by the linear form of pair's
    root; raises ValidationError when the fiber lies in the member or pair
    is not on it."""
    F = f.field
    q = power_eval_block(f, side, pair[side]).to_binary()
    if bf_is_zero(q):
        raise ValidationError("fiber is contained in the divisor")
    lin = bf_divexact(F, q, bf_root_linear(F, pair[1 - side]))
    res = normalize_point(F, (lin[1], -lin[0]))
    return (pair[0], res) if side == 0 else (res, pair[1])


def product_discriminant(f, block):
    """B^2 - 4AC of f = A*z0^2 + B*z0*z1 + C*z1^2 in the chosen block,
    through products of its coefficient forms, as a binary list."""
    if f.degree[block] != 2:
        raise ValidationError("quadratic discriminant needs degree 2 in the block")
    A, B, C = f.coeff_forms(block)
    return (B * B - (A * C).scale(4)).to_binary()


def quadratic_discriminant(f, block):
    """B^2 - 4AC for a two-block form f = A*z0^2 + B*z0*z1 + C*z1^2 of
    degree 2 in the chosen block, as a binary coefficient list on the other
    block, from A, B and C read off the terms as binary lists and
    multiplied coefficient by coefficient."""
    if f.nblocks() != 2 or f.degree[block] != 2:
        raise ValidationError("quadratic discriminant needs two blocks and degree 2 in the block")
    F = f.field
    other = 1 - block
    n = f.degree[other] + 1
    abc = [[F.zero()] * n for _ in range(3)]
    for e, c in f.terms.items():
        abc[e[2 * block + 1]][e[2 * other + 1]] = c
    A, B, C = abc
    out = [F.zero()] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            out[i + j] = out[i + j] + B[i] * B[j] - 4 * A[i] * C[j]
    return out


def _dehomogenized(c):
    """A nonzero binary form at x1 = 1, low degree first and trimmed, and
    the multiplicity of its root (1:0)."""
    k = next(i for i, x in enumerate(c) if x)
    return list(reversed(c[k:])), k


def element_gcd(field, a, b):
    """The gcd of two binary forms, not both zero, with first nonzero
    coefficient 1: Euclid on field elements, one scalar operation at a
    time, on the forms at x1 = 1, times the least power of x1 dividing
    both."""
    forms = [c for c in (a, b) if any(c)]
    if not forms:
        raise ValidationError("gcd(0, 0)")
    (u, k), *rest = [_dehomogenized(c) for c in forms]
    for v, kv in rest:
        k = min(k, kv)
        while v:
            r = list(u)
            while len(r) >= len(v):
                f = r[-1] / v[-1]
                shift = len(r) - len(v)
                for i, x in enumerate(v):
                    r[shift + i] = r[shift + i] - f * x
                r.pop()
                while r and not r[-1]:
                    r.pop()
            u, v = v, r
    lead = u[-1]
    return [field.zero()] * k + [x / lead for x in reversed(u)]


def element_multiplicity_pattern(field, c):
    """Root multiplicities of a nonzero binary form over the closure, in
    descending order, from the degrees of the chain of `element_gcd`s of
    partial derivatives: deg g_k - deg g_{k+1} roots have multiplicity
    above k."""
    degrees = [len(c) - 1]
    while len(c) > 1:
        d = len(c) - 1
        c = element_gcd(field, [(d - i) * c[i] for i in range(d)],
                        [(i + 1) * c[i + 1] for i in range(d)])
        degrees.append(len(c) - 1)
    above = [a - b for a, b in zip(degrees, degrees[1:])]
    return tuple(sum(1 for n in above if n > j) for j in range(max(above, default=0)))


def validate_support(f):
    """Reject members containing a fiber of either ruling, on field
    elements: a common factor of the three coefficient forms with respect
    to one block is a product of fibers of the other ruling."""
    validate_22(f)
    for block in (0, 1):
        forms = [c for c in (c.to_binary() for c in f.coeff_forms(block)) if any(c)]
        if len(reduce(lambda g, c: element_gcd(f.field, g, c), forms)) > 1:
            raise ValidationError("divisor contains a ruling fiber")


def pattern_member_kind(f):
    """Member type from the fiber check and the root multiplicity pattern
    of the product-built branch quartic, whatever the member, on field
    elements."""
    validate_support(f)
    disc = product_discriminant(f, 1)
    if bf_is_zero(disc):
        return "NonReduced"
    return _PATTERN_TO_KIND[element_multiplicity_pattern(f.field, disc)]


def pattern_member_j(f, block=1):
    """j of a member from the product-built branch quartic."""
    validate_22(f)
    return j_from_quartic(f.field, product_discriminant(f, block))


def discriminant_form_is_smooth(f):
    """Whether the member is smooth, decided on field elements: the branch
    quartic as the form `quadratic_discriminant` builds, nonzero, with
    4I^3 - J^2 of its `quartic_invariants` nonzero."""
    validate_22(f)
    disc = quadratic_discriminant(f, 1)
    if not any(disc):
        return False
    I, J = quartic_invariants(f.field, disc)
    return bool(4 * I * I * I - J * J)


def discriminant_form_j(f, block=1):
    """j of a member from the branch quartic built as a form on field
    elements (`quadratic_discriminant`), by `j_from_quartic`."""
    validate_22(f)
    return j_from_quartic(f.field, quadratic_discriminant(f, block))


def value_rows(field, points, monos):
    """Values of the bidegree monomials `monos` at each point, one row per
    point, from the tables `monomial_values` makes of the point's
    coordinates, on field elements."""
    if not monos:
        return [[] for _ in points]
    dx, dy = monos[0][0] + monos[0][1], monos[0][2] + monos[0][3]
    rows = []
    for x, y in points:
        tx, ty = monomial_values(field, x, dx), monomial_values(field, y, dy)
        rows.append([tx[e[1]] * ty[e[3]] for e in monos])
    return rows


def field_dcond_rows(field, dfin, dinf, N, M):
    """The rows of `bimodules._dcond_rows` on field elements: row j holds,
    in the P columns of `_columns(N, M)`, the z^j coefficients of z^i mod
    dfin for i <= M, by the recurrence z^(i+1) = z * z^i reduced by dfin
    over its leading coefficient; then one row per vanishing coefficient
    of Pt at infinity."""
    P, _, Pt, _ = _columns(N, M)
    dfin = uv_trim([field.coerce(x) for x in dfin]) if dfin else []
    degf = len(dfin) - 1 if dfin else 0
    rows = []
    if degf > 0:
        lead_inv = field.one() / dfin[-1]
        rows = [{} for _ in range(degf)]
        cur = [field.one()] + [field.zero()] * (degf - 1)
        for i in range(M + 1):
            for row, v in zip(rows, cur):
                if v:
                    row[P[i]] = v
            top = cur[-1]
            cur = [field.zero()] + cur[:-1]
            if top:
                f = top * lead_inv
                cur = [a - f * b for a, b in zip(cur, dfin)]
    for j in range(int(dinf)):
        rows.append({Pt[j]: field.one()})
    return rows


def is_multiple(row, ref):
    """Whether the sparse or dense row `row` is a nonzero multiple of `ref`
    (both zero included), returning the factor, or None."""
    if isinstance(row, list):
        row, ref = dict(enumerate(row)), dict(enumerate(ref))
    row = {c: v for c, v in row.items() if v}
    ref = {c: v for c, v in ref.items() if v}
    if row.keys() != ref.keys():
        return None
    if not row:
        return 1
    c0 = min(row)
    factor = Fraction(row[c0]) / Fraction(ref[c0])
    return factor if all(row[c] == factor * ref[c] for c in row) else None


def _is_singular(f, pair):
    du, dv = local_derivatives(f, pair)
    return not du and not dv


def _recenter(f, pair):
    """Coordinate change moving the point to ((0,1),(0,1))."""
    g = f
    for block, (a, b) in enumerate(pair):
        if b:
            m = [[f.field.one(), a], [f.field.zero(), b]]
        else:
            m = [[f.field.zero(), a], [f.field.one(), b]]
        g = g.substitute_block(block, m)
    return g


def _local_data(f, pair):
    """(rank of the quadratic part, cubic part not divisible by the tangent
    line) at a singular point; the second entry only means anything in rank
    one.  Exponent keys follow (x0, x1, y0, y1) with the affine chart
    u = x0, v = y0 after recentering."""
    field = f.field
    g = _recenter(f, pair)
    z = field.zero()
    if g.terms.get((0, 2, 0, 2), z) or g.terms.get((1, 1, 0, 2), z) \
            or g.terms.get((0, 2, 1, 1), z):
        raise AssertionError("recentered point is not singular")
    q20 = g.terms.get((2, 0, 0, 2), z)
    q11 = g.terms.get((1, 1, 1, 1), z)
    q02 = g.terms.get((0, 2, 2, 0), z)
    if not q20 and not q11 and not q02:
        raise AssertionError("triple point on a member with valid support")
    disc = q11 * q11 - 4 * q20 * q02
    if disc:
        return 2, False
    c21 = g.terms.get((2, 0, 1, 1), z)
    c12 = g.terms.get((1, 1, 2, 0), z)
    if not q20:
        raise AssertionError("tangent along a ruling traps the fiber in the member")
    # tangent line u + t v with t = q11 / (2 q20); cubic off it iff
    # c21 t^2 - c12 t is nonzero
    t = q11 / (2 * q20)
    if not t:
        raise AssertionError("tangent along a ruling traps the fiber in the member")
    return 1, bool(c21 * t * t - c12 * t)


def split_h0_profile(a, b, window):
    """h0 of twists of a split pair (a, b) across a symmetric window."""
    return [max(a + j + 1, 0) + max(b + j + 1, 0) for j in range(-window, window + 1)]


def generic_rref(field, rows):
    """Reduced row echelon form by scalar arithmetic on the entries (each
    read through field.coerce), with the library's pivot rule: the first
    row with a nonzero entry in the current column.  Returns (rows,
    pivot_columns)."""
    m = [[field.coerce(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        sel = None
        for i in range(r, len(m)):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = field.one() / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def generic_sparse_rank(field, rows):
    """Rank of {column: value} rows by scalar arithmetic on the entries
    (each read through field.coerce), each row reduced against the pivot
    rows found so far, keyed by leading column."""
    one, zero = field.one(), field.zero()
    pivots = {}
    for row in rows:
        r = {c: v for c, v in ((c, field.coerce(x)) for c, x in row.items()) if v}
        while r:
            c = min(r)
            piv = pivots.get(c)
            if piv is None:
                inv = one / r[c]
                pivots[c] = {col: v * inv for col, v in r.items()}
                break
            f = r[c]
            for col, v in piv.items():
                nv = r.get(col, zero) - f * v
                if nv:
                    r[col] = nv
                else:
                    r.pop(col, None)
    return len(pivots)


def nr_counts(field, k, c, N, dfin, dinf):
    """(h0, h1) of the doubled member's Cech complex truncated at window N
    and h0 of its sections vanishing on D, from an elimination of window N
    alone: the outer rows (|e| > N - |k| - 4) first, whose rank h1 needs,
    then the inner rows, which complete the rank h0 needs, and last the D
    rows."""
    Nsm = N - (abs(k) + 4)
    if Nsm < 1:
        raise AssertionError("window too small for the outer projection")
    outer, inner = [], []
    for (_, e), r in _cech_rows(field, k, c, N, N).items():
        (outer if abs(e) > Nsm else inner).append(r.items())
    dcond = [r.items() for r in _dcond_rows(field, dfin, dinf, N, N)]
    rank_out, rank_full, rank_d = block_ranks(field, (outer, inner, dcond))
    c1_small = 2 * (2 * Nsm + 1)
    return 4 * (N + 1) - rank_full, c1_small - (rank_full - rank_out), 4 * (N + 1) - rank_d


def nr_cohomology_per_window(field, k, c, N, dfin=(), dinf=0):
    """The counts of `nr_counts`, made at the windows N and N + 4 by one
    elimination each, with the checks `bimodules._nr_cohomology` makes, in
    its order: they must agree, be nonnegative, and h0 - h1 must be 2k."""
    a = nr_counts(field, k, c, N, dfin, dinf)
    b = nr_counts(field, k, c, N + 4, dfin, dinf)
    if a != b:
        raise AssertionError(f"Cech window did not stabilize: {a} vs {b}")
    if min(a) < 0:
        raise AssertionError("negative cohomology dimension")
    if a[0] - a[1] != 2 * k:
        raise AssertionError("Euler characteristic mismatch in the Cech computation")
    return a


def quad_ext_sqrt_table(ext):
    """Square roots in the quadratic extension of a prime field, tabulated:
    each square, keyed by the residues of its coordinates, maps to the
    first of its roots in `elements()` order."""
    table = {}
    for e in ext.elements():
        s = e * e
        table.setdefault((s.a.v, s.b.v), e)
    return table


def span_contains(field, basis, vec):
    """Whether vec lies in the span of the rows of basis."""
    if not basis:
        return not any(vec)
    return not any(reduce_modulo(field, *rref(field, basis), vec))


def scalar_reduce_modulo(field, red, pivots, vec):
    """vec, its entries read through field.coerce, minus its components
    along the rows of a reduced echelon basis, by the field's own scalar
    arithmetic."""
    w = [field.coerce(x) for x in vec]
    for r, pc in zip(red, pivots):
        c = w[pc]
        if c:
            w = [a - c * b for a, b in zip(w, r)]
    return w


def scalar_product(f, g):
    """The product of two forms, term by term in the field's own
    arithmetic, zero sums dropped."""
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, f.field.zero()) + c1 * c2
    degree = tuple(a + b for a, b in zip(f.degree, g.degree))
    return MultiPoly(f.field, degree, {e: c for e, c in terms.items() if c})


def psi0_by_forms(quad):
    """`psi0` with every product of sections made as a form, term by term in
    the field's own arithmetic (`scalar_product`), and taken to its normal
    form by `NormalForm.vec`; the same checks in the same order."""
    if quad.component != 0:
        raise ValidationError("the two-relation presentation needs component 0")
    spaces = [section_space(L) for L in (quad.L0, quad.L1, quad.L2)]
    if any(S.dim() != 2 for S in spaces):
        raise AssertionError("degree-2 bundle with unexpected section count")
    frame = _frame(quad.curve, spaces)
    s0, s1, s2 = (S.forms() for S in spaces)
    vecs = [frame.vec(scalar_product(scalar_product(a, b), c))
            for a in s0 for b in s1 for c in s2]
    return _left_kernel(quad.curve.field, vecs, expect=2)


def psi1_by_forms(quad):
    """`psi1` with every product of sections made as a form, as in
    `psi0_by_forms`; the skip arrows are the forms of `_outside_span`'s
    picks."""
    if quad.component != 1:
        raise ValidationError("the three-relation presentation needs component 1")
    curve = quad.curve
    S0, S1, S2 = (section_space(L) for L in (quad.L0, quad.L1, quad.L2))
    if S0.dim() != 2 or S1.dim() != 1 or S2.dim() != 2:
        raise AssertionError("unexpected section counts for a component-1 quadruple")
    t, r, s = S0.forms(), S1.form(0), S2.forms()
    frame01, frame12 = _frame(curve, [S0, S1]), _frame(curve, [S1, S2])
    _, w3 = _outside_span(frame01, [S0, S1], [frame01.vec(scalar_product(ti, r)) for ti in t],
                          "first skip arrow")
    _, w6 = _outside_span(frame12, [S1, S2], [frame12.vec(scalar_product(r, si)) for si in s],
                          "second skip arrow")
    forms = {"a1": t[0], "a2": t[1], "a3": frame01.form(w3), "a7": r,
             "a6": frame12.form(w6), "a4": s[0], "a5": s[1]}
    frame = _frame(curve, [S0, S1, S2])
    vecs = [frame.vec(reduce(scalar_product, [forms[lab] for lab in path]))
            for path in middle_member_quiver().path_basis(1, 4)]
    return _left_kernel(curve.field, vecs, expect=3)


def fiber_points(f, side, x):
    """The normalized points of a (2,2) member on the fiber through x of
    the chosen ruling, one per root of `bf_rational_roots` of the fiber
    quadratic, in its order; None when the roots are conjugate.  Raises
    ValidationError when the fiber lies in the member."""
    F = f.field
    q = fiber_quadratic(f, side, x)
    if bf_is_zero(q):
        raise ValidationError("divisor contains a ruling fiber")
    roots = bf_rational_roots(F, q)
    if roots is None:
        return None
    xn = normalize_point(F, x)
    return tuple((xn, normalize_point(F, r)) if side == 0 else (normalize_point(F, r), xn)
                 for r, _ in roots)


def shadow_smooth_j(c1, c2):
    """`ci_smooth_j` through the three shadows built as forms
    (`ci_shadows`), each classified by `kodaira_classify` and its j taken
    from the product-built branch quartic; the same checks in the same
    order."""
    js = []
    for res in ci_shadows(c1, c2):
        kind = kodaira_classify(res)
        if kind != "I0":
            raise DegenerateInstance(f"shadow member has type {kind}")
        js.append(pattern_member_j(res))
    if js[0] != js[1] or js[0] != js[2]:
        raise AssertionError("shadow members disagree about j")
    return js[0]


def listed_roundtrip(U, sample_reps=4):
    """`roundtrip0` element-wise: every j from a form's branch quartic, the
    incidence points as a list of field elements (`shadow_incidence_points`),
    the relation plane as the kernel of the path values at all of them, and
    stability decided point by point; the same checks in the same order."""
    field = U.curve.field
    relations = psi0(phi(U))
    c1, c2 = relations_to_ci(field, relations)
    j_member = pattern_member_j(U.curve.f)
    if shadow_smooth_j(c1, c2) != j_member:
        raise AssertionError("shadow j differs from the member j")
    pts = incidence_points(c1, c2)
    if len(pts) <= 6:
        raise DegenerateInstance("too few rational points to pin the ideal down")
    rows = [[x[i] * y[j] * z[k] for i in (0, 1) for j in (0, 1) for k in (0, 1)]
            for (x, y, z) in pts]
    recovered = kernel_basis(field, rows, 8)
    if len(recovered) != 2:
        raise DegenerateInstance("point conditions did not cut the relation plane")
    if not subspace_equal(field, recovered, relations):
        raise AssertionError("recovered relations differ from the computed ones")
    quiver = generic_member_quiver()
    for pt in pts[:sample_reps]:
        if not theta_stable(quiver, point_representation(pt)):
            raise AssertionError("incidence point carries an unstable representation")
    return {"j": j_member, "points": len(pts), "stable_reps_checked": min(len(pts), sample_reps)}
