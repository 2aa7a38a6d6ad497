"""Divisors of bidegree (2,2) on P1 x P1.

Members of the anticanonical class with no ruling-fiber component fall into
exactly six types, detected here from the discriminant of the projection to
the first factor, a binary quartic: smooth (I0) when the quartic's own
discriminant 4I^3 - J^2 is nonzero, and otherwise from its multiplicity
pattern: irreducible with a node (I1) or a cusp (II), two (1,1) components
meeting transversally (I2) or tangentially (III), and a doubled (1,1) curve
(NonReduced).

Also provides the pointwise utilities (fibers, residual intersection points,
smoothness tests, random instances of each type) that the sheaf machinery in
the rest of the package is built on.  A `FiberTable` restricts each fiber
once, on the member's grid, and solves it once, with the roots in
`bf_rational_roots` order, and tests each point's smoothness once: on a
member its caller knows to be smooth only whether the point is on it,
otherwise through the member's four chart partials, computed once per
table.  Rational-point sampling draws a point x of P1 and reads its
first-ruling fiber from the table, so a fiber drawn again is not solved
again.  Over Q a smooth member is drawn through two points
(`plant_smooth_22`), whose fibers and residuals its table keeps, so a
point is drawn among known ones without a search.  On every field a
member is read through its coefficient grid (`coefficient_grid`), its
coefficients in the field's representation (`ints`, see `exactmath`);
over Q that scales the branch quartic's I^3 and 4I^3 - J^2 alike.  A smooth member is recognized, and its j taken,
from the grid's branch quartic (`grid_invariants`), and a fiber is
restricted on the grid.  The same quartic counts a smooth member's
points over F_p without visiting them (`point_count`): a character sum
over the line up to p = 229, and above it the order of the Jacobian by
baby-step giant-step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import mul

from .errors import SpecialPosition, ValidationError
from .exactmath import QQ, QuadExtField, kernel_basis
from .polyring import (
    MultiPoly,
    _quartic_ij,
    bf_divexact,
    bf_gcd,
    bf_gcd_chain,
    bf_is_zero,
    bf_multiplicity_pattern,
    bf_mul,
    bf_rational_roots,
    bf_scale,
    monomial_basis,
    monomial_values,
    quadratic_discriminant,
    random_multipoly,
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

    Four simple roots are exactly 4I^3 - J^2 != 0 (27 times the quartic's
    discriminant, in characteristic 0 or at least 5), and a member with a
    fiber component has a square factor in its quartic, so a smooth member
    is recognized from I and J alone, on every field from the grid of f
    (`coefficient_grid`, `grid_invariants`); only the others are checked
    for fibers and have the quartic's multiplicity pattern read off the
    degrees of its `bf_gcd_chain`.
    """
    validate_22(f)
    if grid_invariants(coefficient_grid(f), f.field.modulus)[1]:
        return "I0"
    disc = quadratic_discriminant(f, 1)
    validate_support(f)
    if bf_is_zero(disc):
        return "NonReduced"
    return _PATTERN_TO_KIND[bf_multiplicity_pattern(f.field, disc)]


def member_j(f):
    """j-invariant of a smooth member: the branch quartic of either ruling
    projection has four distinct roots and gives the same j, which is
    taken from the projection to the first factor, on the grid of f
    (`grid_j`).  Raises SpecialPosition on a member that is not smooth."""
    validate_22(f)
    j = grid_j(f.field, coefficient_grid(f))
    if j is None:
        raise SpecialPosition("repeated branch point: j undefined")
    return j


def coefficient_grid(f, block=1):
    """The (2,2)-form f as a 3x3 grid, grid[a][b] its coefficient of
    u0^(2-a) u1^a v0^(2-b) v1^b, where v is the chosen block and u the
    other, in the field's representation (`ints`): over Q the grid is f
    times a positive factor, and reduced mod `modulus` where it is
    nonzero."""
    zero, *coeffs = f.field.ints([0, *f.terms.values()])
    grid = [[zero] * 3 for _ in range(3)]
    for e, c in zip(f.terms, coeffs):
        grid[e[3 - 2 * block]][e[2 * block + 1]] = c
    return grid


def branch_quartic(grid, p=0):
    """The branch quartic B^2 - 4AC of the projection to the u-line of the
    (2,2)-form whose coefficient of u0^(2-a) u1^a v0^(2-b) v1^b is
    grid[a][b]: its coefficients of u0^(4-k) u1^k, k = 0..4, on ints,
    reduced mod p when p is nonzero (and on field elements for a grid of
    them).  Over each point u of the line the form is the binary quadratic
    A(u) v0^2 + B(u) v0 v1 + C(u) v1^2, whose discriminant is the
    quartic's value at u."""
    A, B, C = zip(*grid)
    q = [sum(B[i] * B[k - i] - 4 * A[i] * C[k - i] for i in range(max(0, k - 2), min(k, 2) + 1))
         for k in range(5)]
    return [a % p for a in q] if p else q


def grid_invariants(grid, p=0):
    """(I^3, 4I^3 - J^2) of the (2,2)-form whose coefficient of
    u0^(2-a) u1^a v0^(2-b) v1^b is grid[a][b], in the ring of the grid,
    reduced mod p when p is nonzero: I and J are the invariants of its
    `branch_quartic`.  4I^3 - J^2 vanishes exactly when `kodaira_classify`
    finds the form not smooth (a zero quartic included)."""
    I, J = _quartic_ij(branch_quartic(grid, p))
    if p:
        cube = I * I * I % p
        return cube, (4 * cube - J * J) % p
    cube = I * I * I
    return cube, 4 * cube - J * J


def grid_j(field, grid):
    """j in `field` of the (2,2)-form whose grid over `field` is `grid`
    (the `coefficient_grid` layout, in the field's `ints`): 6912 I^3 over
    4I^3 - J^2 (`grid_invariants`), as `j_from_quartic` takes them.
    Scaling the form by t scales both by t^12, so j does not change.  None
    when 4I^3 - J^2 vanishes."""
    cube, den = grid_invariants(grid, field.modulus)
    if not den:
        return None
    return field.coerce(6912 * cube) / field.coerce(den)


# up to this prime the count is a character sum over the line; above it a
# point of the Jacobian or of its quadratic twist has an order with only one
# multiple in the Hasse interval (Mestre; Cohen, A Course in Computational
# Algebraic Number Theory, 7.4.3)
_SUM_CUTOFF = 229


def point_count(p, grid):
    """Number of F_p-points of the smooth (2,2)-form whose coefficient of
    u0^(2-a) u1^a v0^(2-b) v1^b is grid[a][b] (the `coefficient_grid`
    layout, any ints), p a prime that `PrimeField` takes.  Raises
    ValidationError when 4I^3 - J^2 vanishes mod p.

    The fiber over a point u of the u-line holds 1 + chi(D(u)) points, D
    the `branch_quartic` and chi the quadratic character, so the member
    has as many points as the genus-one curve w^2 = D(u).  That curve has
    a point, so it is its own Jacobian Y^2 = X^3 - 27I X - 27J (An, Kim,
    Marshall, Marshall, McCallum and Perlis, J. Number Theory 90, 2001).
    Up to p = 229 the sum over the p + 1 points u is taken, with chi read
    from a table; above, the Jacobian's order by baby-step giant-step
    (`_curve_order`), in about p^(1/4) group operations."""
    q = branch_quartic(grid, p)
    I, J = (v % p for v in _quartic_ij(q))
    if not (4 * I * I * I - J * J) % p:
        raise ValidationError("member is not smooth")
    if p > _SUM_CUTOFF:
        return _curve_order(p, -27 * I % p, -27 * J % p)
    chi = _characters(p)
    a0, a1, a2, a3, a4 = q
    # D is a0 at u = (1:0) and D(x) at u = (x:1)
    return p + 1 + chi[a0] + sum(chi[((((a0 * x + a1) * x + a2) * x + a3) * x + a4) % p]
                                 for x in range(p))


@lru_cache(maxsize=None)
def _characters(p):
    """The quadratic character mod p as a table: chi[v] for v in [0, p)."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p + 1) // 2):
        chi[x * x % p] = 1
    return chi


def _curve_order(p, a, b):
    """#E(F_p) for the elliptic curve E: Y^2 = X^3 + aX + b, p > 229.

    #E and the order #E' of its quadratic twist lie in the Hasse interval
    [p + 1 - s, p + 1 + s], s = isqrt(4p), and add up to 2p + 2.  The
    points come from X = 0, 1, 2, ...: where c = X^3 + aX + b is nonzero,
    (cX, c^2) lies on Y^2 = X^3 + ac^2 X + bc^3, which is E when c is a
    square and E' when it is not, so E and E' take turns as the characters
    of c fall.  A point whose order has one multiple in the interval gives
    its curve's order; a point whose order is found confines #E to a
    residue class, and the count is found once one member of the class is
    left in the interval.  For p > 229 one of E and E' has a point whose
    order has one multiple in the interval (Mestre), so the loop ends."""
    s = isqrt(4 * p)
    lo, hi = p + 1 - s, p + 1 + s
    r, m = 0, 1  # #E = r mod m
    for x in range(p):
        c = (x * x * x + a * x + b) % p
        if not c:
            continue
        twist = pow(c, (p - 1) // 2, p) != 1
        order, n = _order_or_multiple(p, a * c * c % p, (c * x % p, c * c % p), lo, hi)
        if order is None:
            return 2 * p + 2 - n if twist else n
        # #E = 0, or #E' = 2p + 2 - #E = 0, mod the order
        r, m = _crt(r, m, (2 * p + 2) % order if twist else 0, order)
        first = lo + (r - lo) % m
        if first > hi:
            raise AssertionError("no group order left in the Hasse interval")
        if first + m > hi:
            return first
    raise AssertionError("point count undecided")


def _crt(r, m, r2, m2):
    """(r', lcm(m, m2)) with n = r' mod lcm exactly when n = r mod m and
    n = r2 mod m2."""
    g = gcd(m, m2)
    if (r2 - r) % g:
        raise AssertionError("point orders disagree about the group order")
    t = (r2 - r) // g * pow(m // g, -1, m2 // g) % (m2 // g)
    return (r + m * t) % (m // g * m2), m // g * m2


def _ec_add(p, a, P, Q):
    """P + Q on Y^2 = X^3 + aX + b over F_p, points as residue pairs and
    None for the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if not (y1 + y2) % p:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(p, a, k, P):
    out = None
    while k:
        if k & 1:
            out = _ec_add(p, a, out, P)
        P = _ec_add(p, a, P, P)
        k >>= 1
    return out


def _ec_progression(p, a, start, step, count):
    """start, start + step, ..., count points, one `_ec_add` each."""
    out = [start]
    for _ in range(count - 1):
        out.append(_ec_add(p, a, out[-1], step))
    return out


def _ec_add_all(p, a, points, D):
    """[P + D for P in points], with one inversion for every P off the
    vertical line through D (Montgomery's simultaneous inversion); the
    others, and D = None, go through `_ec_add`."""
    if D is None:
        return list(points)
    xd, yd = D
    chord = [P is not None and P[0] != xd for P in points]
    # before[i]: the product of the chord denominators X - xd before i
    before, acc = [], 1
    for P, c in zip(points, chord):
        before.append(acc)
        if c:
            acc = acc * (P[0] - xd) % p
    inv = pow(acc, -1, p)  # of the product up to i, from the last i down
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        P = points[i]
        if not chord[i]:
            out[i] = _ec_add(p, a, P, D)
            continue
        lam = (P[1] - yd) * inv * before[i] % p
        inv = inv * (P[0] - xd) % p
        x3 = (lam * lam - P[0] - xd) % p
        out[i] = x3, (lam * (xd - x3) - yd) % p
    return out


def _order_or_multiple(p, a, P, lo, hi):
    """(order, None) when baby-step giant-step finds the order of P, else
    (None, n) for the one multiple n of it in [lo, hi].

    Baby steps jP, j = 1..k, k about sqrt((hi - lo) / 2), find an order
    up to 2k exactly: the first jP that has Y = 0 (order 2j) or shares its
    X with an earlier iP (jP = -iP, order i + j; a point of order j is
    caught at j - 1, as (j - 1)P = -P, so no jP is zero).  Otherwise
    the order exceeds 2k, and giant steps nP, n = lo + k, lo + 3k + 1, ...,
    find every multiple in the interval, one at most in each window
    [n - k, n + k]: nP = O, or nP = jP (n - j), or nP = -jP (n + j).  Two
    consecutive multiples differ by the order.  Both kinds of step advance
    about sqrt(k) points at a time, with one inversion per advance
    (`_ec_add_all`)."""
    k = isqrt((hi - lo) // 2) + 1
    width = isqrt(k) + 1
    baby = {}
    row = _ec_progression(p, a, P, P, width)
    shift = row[-1]  # width P
    j = 0
    while j < k:
        for x, y in row:
            j += 1
            if not y:
                return 2 * j, None
            if x in baby:
                return baby[x][0] + j, None
            baby[x] = (j, y)
        row = _ec_add_all(p, a, row, shift)
    k = j
    stride = 2 * k + 1
    n = lo + k
    row = _ec_progression(p, a, _ec_mul(p, a, n, P), _ec_mul(p, a, stride, P), width)
    shift = _ec_mul(p, a, width * stride, P)
    found = []
    while n - k <= hi:
        for G in row:
            if G is None:
                found.append(n)
            elif G[0] in baby:
                j, y = baby[G[0]]
                found.append(n - j if G[1] == y else n + j)
            n += stride
        row = _ec_add_all(p, a, row, shift)
    found = [v for v in found if v <= hi]
    if not found:
        raise AssertionError("no multiple of a point order in the Hasse interval")
    if len(found) == 1:
        return None, found[0]
    return found[1] - found[0], None


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
            ys = line
        else:
            roots = bf_rational_roots(F, q) or []
            ys = [line[i] for i in sorted({position[normalize_point(F, r)] for r, _ in roots})]
        pts.extend((x, y) for y in ys)
    return pts


def _eval_rows(field, points, monos):
    """Values of the bidegree monomials `monos` at each point, one row per
    point, from the point's two tables of binary monomial values.  They
    are taken at the point's coordinates in the field's `ints`, so over Q
    a row is a positive multiple of the point's row of values and cuts
    out the same condition."""
    if not monos:
        return [[] for _ in points]
    dx, dy = monos[0][0] + monos[0][1], monos[0][2] + monos[0][3]
    rows = []
    p = field.modulus
    if p:
        # rows of residues, which the echelon loop reads as they are
        for x, y in points:
            x0, x1, y0, y1 = field.ints((*x, *y))
            tx = [pow(x0, dx - i, p) * pow(x1, i, p) % p for i in range(dx + 1)]
            ty = [pow(y0, dy - i, p) * pow(y1, i, p) % p for i in range(dy + 1)]
            rows.append([tx[e[1]] * ty[e[3]] % p for e in monos])
        return rows
    for x, y in points:
        # over Q the tables are of ints, so the one monomial of degree 0
        # takes the int 1
        tx, ty = (monomial_values(field, field.ints(pt), d) if d else [1]
                  for pt, d in ((x, dx), (y, dy)))
        rows.append([tx[e[1]] * ty[e[3]] for e in monos])
    return rows


def _chart_var(pt):
    # the coordinate free to move in the standard affine chart at pt
    return 0 if pt[1] else 1


def chart_partials(f):
    """The four partials of f, [block][var]: the affine-chart partial of a
    block at a point is the one in the variable its chart frees."""
    return tuple(tuple(f.partial(block, var) for var in (0, 1)) for block in (0, 1))


def local_derivatives(partials, pair):
    """Values at a point of the two affine-chart partials (one per block),
    read off the form's `chart_partials`."""
    return tuple(partials[block][_chart_var(pair[block])].eval_full(list(pair))
                 for block in (0, 1))


def residue_roots(field, q):
    """Rational roots of a nonzero binary quadratic [q0, q1, q2] of
    residues over F_p, each once, in `bf_rational_roots` order, as
    `p1_points` indices (i < p for (i, 1), p for (1, 0)); None when they
    are conjugate."""
    p = field.p
    q0, q1, q2 = q
    if not q0:
        return [p, -q2 * pow(q1, -1, p) % p] if q1 else [p]
    inv = pow(2 * q0, -1, p)
    disc = (q1 * q1 - 4 * q0 * q2) % p
    if not disc:
        return [-q1 * inv % p]
    r = field.residue_sqrt(disc)
    if r is None:
        return None
    return [(-q1 + r) * inv % p, (-q1 - r) * inv % p]


def integer_roots(q):
    """`bf_rational_roots` of a nonzero binary quadratic [q0, q1, q2] of
    ints over Q, each root once and normalized as `normalize_point` makes
    it, in that order; None when they are conjugate.  Scaling q by a
    positive factor changes neither the roots nor their order."""
    one, zero = Fraction(1), Fraction(0)
    q0, q1, q2 = q
    if not q0:
        return [(one, zero), (Fraction(-q2, q1), one)] if q1 else [(one, zero)]
    disc = q1 * q1 - 4 * q0 * q2
    if not disc:
        return [(Fraction(-q1, 2 * q0), one)]
    r = isqrt(disc) if disc > 0 else -1
    if r * r != disc:
        return None
    return [(Fraction(-q1 + r, 2 * q0), one), (Fraction(-q1 - r, 2 * q0), one)]


def fiber_quadratic(f, side, pt):
    """Restriction of f to the fiber through pt of the chosen ruling
    (side 0 fixes the first block), as a binary form on the other block."""
    return f.eval_block(side, pt).to_binary()


_IN_MEMBER = object()  # FiberTable's record of a fiber lying in the member
_UNSOLVED = object()  # a fiber the FiberTable has not restricted


class FiberTable:
    """The fibers of a (2,2) form, each restricted and solved at most once,
    and the smoothness of its points, each tested at most once.

    Keyed by ruling (side 0 fixes the first block) and fiber point, it
    records the fiber's rational points on the member, or that its two
    roots are conjugate, or that the fiber lies in the member.  A fiber is
    restricted on the grid of f (`coefficient_grid`) at the fiber point's
    coordinates in the field's `ints`, one way on every field, and solved
    by the field's own solver: on residues over F_p, on ints with `isqrt`
    over Q, and on field elements over F_{p^2}.  When the caller knows the member to be smooth
    (`smooth`, as a Curve of type I0 does), every point on it is smooth,
    and a test only checks that the point is on the member.  Otherwise
    smoothness is read off the four chart partials of the form
    (`partials`), which are computed at their first use, here or for the
    Taylor rows of a repeated divisor point, and kept with the table.  f
    is evaluated only at points that no fiber restriction has found on the
    member.  Given rational points of a smooth f, the table keeps as
    `planted` the first-ruling fibers through them and through their
    second-ruling residuals, whose points are all rational."""

    __slots__ = ("f", "planted", "_grids", "_points", "_smooth", "_partials", "_member_smooth")

    def __init__(self, f, smooth=False, planted=()):
        self.f = f
        # for each ruling, f's grid with the block that ruling fixes as the
        # second
        self._grids = (coefficient_grid(f, 0), coefficient_grid(f, 1))
        self._points = {}
        self._smooth = {}
        self._partials = None
        self._member_smooth = smooth
        xs = []
        for pair in planted:
            for x in (pair[0], self.residual(1, pair)[0]):
                if x not in xs:
                    xs.append(x)
        self.planted = tuple(xs)

    def points(self, side, x):
        """Normalized points of the member on the fiber through x, one per
        rational root in `bf_rational_roots` order; None when the roots are
        conjugate.  Raises ValidationError when the fiber lies in the member."""
        key = (side, x)
        pts = self._points.get(key, _UNSOLVED)
        if pts is _UNSOLVED:
            pts = self._points[key] = self._restrict(side, x)
        if pts is _IN_MEMBER:
            raise ValidationError("divisor contains a ruling fiber")
        return pts

    def _restrict(self, side, x):
        F = self.f.field
        p = F.modulus
        # the fiber quadratic on the grid: the block fixed by x has degree
        # 2, so each term takes one of x0^2, x0 x1, x1^2 of x's grid
        # coordinates, a nonzero multiple of the quadratic of x
        x0, x1 = F.ints(x)
        t = (x0 * x0, x0 * x1, x1 * x1)
        q = [sum(map(mul, row, t)) for row in self._grids[side]]
        if p:
            q = [a % p for a in q]
        if not any(q):
            return _IN_MEMBER
        if p:
            roots = residue_roots(F, q)
            one = F.one()
            ys = None if roots is None else [(F(i), one) if i < p else (one, F.zero())
                                             for i in roots]
        elif F == QQ:
            ys = integer_roots(q)
        else:
            roots = bf_rational_roots(F, q)
            ys = None if roots is None else [normalize_point(F, r) for r, _ in roots]
        if ys is None:
            return None
        xn = normalize_point(F, x)
        pts = tuple((xn, y) if side == 0 else (y, xn) for y in ys)
        for pt in pts:
            self._smooth.setdefault(pt, None)  # on the member, smoothness untested
        return pts

    def residual(self, side, pair):
        """Second point of the member on the fiber through the normalized
        point `pair` of the chosen ruling: the fiber's other point, or
        `pair` itself where the fiber is tangent.  Raises ValidationError
        when the fiber lies in the member or `pair` is not on it."""
        pts = self.points(side, pair[side])
        if pts is None or pair not in pts:
            raise ValidationError("point is not on the fiber")
        return pts[len(pts) - 1 - pts.index(pair)]

    def partials(self):
        """f's `chart_partials`, computed at the first call and kept."""
        if self._partials is None:
            self._partials = chart_partials(self.f)
        return self._partials

    def is_smooth(self, pair):
        """Whether the normalized point `pair` of the member is smooth on
        it: the member is smooth, or some affine-chart partial is nonzero
        there.  Raises ValidationError when the point is not on the
        member."""
        smooth = self._smooth.get(pair)
        if smooth is None:
            # a point found on a fiber is on the member without evaluating f
            if pair not in self._smooth and not on_curve(self.f, pair):
                raise ValidationError("point is not on the curve")
            if self._member_smooth:
                smooth = True
            else:
                partials = self.partials()
                smooth = any(partials[block][_chart_var(pair[block])].eval_full(pair)
                             for block in (0, 1))
            self._smooth[pair] = smooth
        return smooth


# ---------------------------------------------------------------------------
# component splitting


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

    The branch quartic is c0*s^2, where s is g_1 of its `bf_gcd_chain` for
    I2 (two double roots) and g_2 for III (one quadruple root), scaled so
    that its first nonzero coefficient is 1.  Returns (field_used, g, h)
    with g*h equal to f exactly; the pair is rational when c0 is a square,
    so that the components are individually defined over the base field,
    and otherwise lives over the default quadratic extension of a prime
    field.  Over Q and F_{p^2}, which have no default extension (the
    package builds no F_{p^4}), conjugate components raise ValidationError.
    """
    F = f.field
    kind = kodaira_classify(f)
    if kind not in ("I2", "III"):
        raise ValidationError(f"member of type {kind} is not a product of two (1,1) forms")
    disc = quadratic_discriminant(f, 1)
    s = bf_gcd_chain(F, disc)[1 if kind == "I2" else 2]
    s = bf_scale(F, s, F.one() / next(x for x in s if x))
    c0 = next(x for x in disc if x)  # s^2 also starts with 1
    if bf_scale(F, bf_mul(F, s, s), c0) != disc:
        raise AssertionError("reducible member with non-square discriminant")
    root = F.sqrt(c0)
    if root is not None:
        E = F
    else:
        E = QuadExtField(F)  # raises ValidationError unless F is a prime field
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


# ---------------------------------------------------------------------------
# random instances


def random_p1_point(field, rng):
    """A random point of P1: (1:0) one draw in nine, otherwise (x:1) for a
    random x."""
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


def _random_kernel_element(field, rows, ncols, rng):
    ker = kernel_basis(field, rows, ncols)
    if not ker:
        raise SpecialPosition("linear conditions admit no solution")
    for _ in range(20):
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


def random_smooth_22(field, rng):
    """A random smooth member: over a finite field a random form, redrawn
    until smooth; in characteristic 0 the member `plant_smooth_22` draws
    through two points."""
    if not field.characteristic:
        return plant_smooth_22(field, rng)[0]
    for _ in range(200):
        f = random_multipoly(field, (2, 2), rng)
        try:
            if kodaira_classify(f) == "I0":
                return f
        except ValidationError:
            continue
    raise SpecialPosition("could not draw a smooth member")


def plant_smooth_22(field, rng):
    """(f, (P, Q)): a random smooth member f through two random points P
    and Q with distinct x and distinct y, a random form vanishing at both,
    redrawn until smooth.  A fiber through a rational point of f meets it
    again in a rational point, so f has rational points by construction."""
    monos = monomial_basis((2, 2))
    for _ in range(200):
        planted = [(random_p1_point(field, rng), random_p1_point(field, rng)) for _ in range(2)]
        if planted[0][0] == planted[1][0] or planted[0][1] == planted[1][1]:
            continue
        try:
            vec = _random_kernel_element(field, _eval_rows(field, planted, monos), 9, rng)
            f = _from_coeff_vec(field, (2, 2), vec)
            if kodaira_classify(f) == "I0":
                return f, tuple(planted)
        except (SpecialPosition, ValidationError):
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


def make_nodal(field, rng):
    """Irreducible member with one node at a rational point (type I1)."""
    for _ in range(200):
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


def make_cuspidal(field, rng):
    """Irreducible member with one cusp at a rational point (type II)."""
    for _ in range(400):
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


def random_11(field, rng):
    """Random irreducible (1,1) form: its 2x2 coefficient matrix is
    nondegenerate exactly when the curve has no fiber component."""
    basis = monomial_basis((1, 1))
    for _ in range(100):
        vals = [field.random(rng) for _ in basis]
        a, b, c, d = vals  # x0y0, x0y1, x1y0, x1y1
        if a * d - b * c:
            return MultiPoly(field, (1, 1), dict(zip(basis, vals)))
    raise SpecialPosition("could not draw an irreducible (1,1) form")


def make_two_11(field, rng):
    """Two (1,1) components meeting transversally (type I2)."""
    for _ in range(200):
        g = random_11(field, rng)
        h = random_11(field, rng)
        f = g * h
        try:
            if kodaira_classify(f) == "I2":
                return f, g, h
        except ValidationError:
            continue
    raise SpecialPosition("could not draw a transversal pair")


def point_on_11(g, rng):
    F = g.field
    for _ in range(50):
        x = random_p1_point(F, rng)
        lin = g.eval_block(0, x).to_binary()
        if bf_is_zero(lin):
            break  # fiber component: caller redraws g
        y = normalize_point(F, (lin[1], -lin[0]))
        return (normalize_point(F, x), y)
    raise SpecialPosition("could not find a point on the (1,1) form")


def make_tangent_11(field, rng):
    """Two (1,1) components tangent at one point (type III)."""
    basis = monomial_basis((1, 1))
    for _ in range(400):
        g = random_11(field, rng)
        try:
            pair = point_on_11(g, rng)
        except SpecialPosition:
            continue
        dug, dvg = local_derivatives(chart_partials(g), pair)
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


def make_nonreduced(field, rng):
    """Doubled (1,1) curve: c * g**2."""
    for _ in range(100):
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


def random_smooth_point(fibers, rng, tries=200):
    """A rational point of the member `fibers.f` that is smooth on it, by
    fiber sampling on its FiberTable `fibers`.

    With planted fibers, one draw picks one of them and one its point.
    Otherwise each try draws a point x of P1 (`random_p1_point`), picks one
    of the rational points on the first-ruling fiber through x, if any,
    and keeps it when it is smooth.  The table keeps each fiber solved, so
    a fiber drawn again, in this call or a later one, is not solved
    again."""
    if fibers.planted:
        pts = fibers.points(0, fibers.planted[rng.randrange(len(fibers.planted))])
        return pts[rng.randrange(len(pts))]
    F = fibers.f.field
    for _ in range(tries):
        pts = fibers.points(0, random_p1_point(F, rng))
        if pts is None:
            continue  # conjugate roots: try another fiber
        pair = pts[rng.randrange(len(pts))]
        if fibers.is_smooth(pair):
            return pair
    raise SpecialPosition("could not find a rational smooth point")
