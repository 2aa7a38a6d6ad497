"""Independent reference computations used to freeze expected values.

Deliberately naive and local: points of a member by evaluating the form
at every point of P1 x P1, j through cross-ratios of actual branch points,
member classification through exhaustive singular-point inspection over a
quadratic extension, doubled-member cohomology through closed forms.  The
package must agree with these wherever both apply.
"""

from bimodulus.curves import enumerate_points, local_derivatives, p1_points
from bimodulus.polyring import bf_eval


def brute_points(f):
    """Zeros of a (2,2)-form among all q^2 + 2q + 1 points of P1 x P1 over
    a finite field, x-major with y in `p1_points` order."""
    line = p1_points(f.field)
    return [(x, y) for x in line for y in line if not f.eval_full([x, y])]


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
    ext = field.quadratic_extension()
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
    ext = field.quadratic_extension()
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


def nr_closed_form(k, c_nonzero):
    """(h0, h1) of the doubled-member bundle of class (k, c)."""
    if k >= 1:
        h0 = 2 * k
    elif k == 0:
        h0 = 0 if c_nonzero else 1
    else:
        h0 = 0
    return (h0, h0 - 2 * k)


def split_h0_profile(a, b, window):
    """h0 of twists of a split pair (a, b) across a symmetric window."""
    return [max(a + j + 1, 0) + max(b + j + 1, 0) for j in range(-window, window + 1)]
