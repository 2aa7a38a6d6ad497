"""Exact cohomology of invertible sheaves on reduced (2,2) divisors.

A bundle is presented as O(m,n)|_W(-Z_minus + Z_plus) with Z_* lists of
distinct rational smooth points of W.  Two rewriting moves keep computations
exact:

* absorption: a plus point P satisfies O(P) = O(1,0)(-P') on W, where P' is
  the residual intersection of the fiber through P, so plus points can always
  be traded for minus points at the cost of raising (m,n);
* raising: tensoring with O(F)(-P-Q) for a fiber F meeting W in two distinct
  rational smooth points changes nothing but increases (m,n).

Once (m,n) is large enough that the ambient restriction
H0(O(m,n)) -> H0(O(m,n)|_W) is onto (a Kunneth condition on O(m-2,n-2)),
global sections are exactly the ambient forms vanishing on Z_minus, taken
modulo the ideal slice f*H0(O(m-2,n-2)).  All ranks, bases and products are
computed from that model.
"""

from __future__ import annotations

from .curves import (
    coerce_pair,
    factor_11,
    fiber_quadratic,
    fiber_residual_point,
    is_smooth_point,
    kodaira_classify,
    normalize_point,
    on_curve,
    pair_key,
    random_smooth_point,
)
from .errors import SpecialPosition, ValidationError
from .exactmath import kernel_basis, rank, rref
from .polyring import MultiPoly, bf_is_zero, bf_rational_roots, monomial_basis


class Curve:
    """A reduced (2,2) divisor with cached classification and components."""

    __slots__ = ("f", "kind", "_components")

    def __init__(self, f):
        self.f = f
        self.kind = kodaira_classify(f)
        if self.kind == "NonReduced":
            raise ValidationError("doubled curves use the thickened-diagonal model")
        self._components = None

    @property
    def field(self):
        return self.f.field

    def is_reducible(self):
        return self.kind in ("I2", "III")

    def components(self):
        """(field_used, g, h) for reducible members; cached."""
        if not self.is_reducible():
            raise ValidationError("integral member has a single component")
        if self._components is None:
            self._components = factor_11(self.f)
        return self._components

    def component_index(self, pair):
        """0 or 1: which (1,1) component a smooth point lies on."""
        E, g, h = self.components()
        x = tuple(E.coerce(c) for c in pair[0])
        y = tuple(E.coerce(c) for c in pair[1])
        gv = g.eval_full([x, y])
        hv = h.eval_full([x, y])
        if not gv and not hv:
            raise ValidationError("point lies on both components")
        return 0 if not gv else 1


def eval_monomial(field, exp, pair):
    (x0, x1), (y0, y1) = pair
    return x0 ** exp[0] * x1 ** exp[1] * y0 ** exp[2] * y1 ** exp[3]


class LineBundle:
    """O(m,n)|_W(-minus + plus); points are normalized smooth rational pairs."""

    __slots__ = ("curve", "m", "n", "minus", "plus")

    def __init__(self, curve, m, n, minus=(), plus=(), check=True):
        if isinstance(curve, MultiPoly):
            curve = Curve(curve)
        self.curve = curve
        self.m = int(m)
        self.n = int(n)
        F = curve.field
        minus = [coerce_pair(F, p) for p in minus]
        plus = [coerce_pair(F, p) for p in plus]
        # cancel common points of opposite sign
        for p in list(plus):
            if p in minus:
                minus.remove(p)
                plus.remove(p)
        self.minus = minus
        self.plus = plus
        if check:
            for p in minus + plus:
                if not on_curve(curve.f, p):
                    raise ValidationError("twisting point is not on the curve")
                if not is_smooth_point(curve.f, p):
                    raise ValidationError("twisting point is singular on the curve")

    @property
    def field(self):
        return self.curve.field

    def degree_total(self):
        return 2 * (self.m + self.n) - len(self.minus) + len(self.plus)

    def degree_by_component(self):
        """Per-component degrees for reducible members, else (total,)."""
        if not self.curve.is_reducible():
            return (self.degree_total(),)
        d = [self.m + self.n, self.m + self.n]
        for p in self.minus:
            d[self.curve.component_index(p)] -= 1
        for p in self.plus:
            d[self.curve.component_index(p)] += 1
        return tuple(d)

    def twist(self, dm, dn):
        return LineBundle(self.curve, self.m + dm, self.n + dn, self.minus, self.plus, check=False)

    def inverse(self):
        return LineBundle(self.curve, -self.m, -self.n, self.plus, self.minus, check=False)

    def tensor(self, other):
        if other.curve is not self.curve:
            raise ValidationError("tensor product needs bundles on the same curve object")
        return LineBundle(
            self.curve,
            self.m + other.m,
            self.n + other.n,
            self.minus + other.minus,
            self.plus + other.plus,
            check=False,
        )

    def __repr__(self):
        return f"LineBundle(({self.m},{self.n}), -{len(self.minus)}pt, +{len(self.plus)}pt)"

    # -- rewriting ----------------------------------------------------------

    def _absorb_one(self, p):
        """Trade the plus point p for a residual minus point."""
        f = self.curve.f
        for side in (0, 1):
            try:
                res = fiber_residual_point(f, p, side)
            except ValidationError:
                continue
            pair = (p[0], res) if side == 0 else (res, p[1])
            if not is_smooth_point(f, pair) or pair in self.minus:
                continue
            dm, dn = (1, 0) if side == 0 else (0, 1)
            rest = list(self.plus)
            rest.remove(p)
            return LineBundle(
                self.curve, self.m + dm, self.n + dn,
                self.minus + [pair], rest, check=False,
            )
        raise SpecialPosition("both fibers through a plus point are unusable")

    def _spread_duplicate(self, p):
        """Rewrite one copy of a duplicated minus point as a plus point of a
        neighbouring fiber (to be re-absorbed along the other ruling)."""
        f = self.curve.f
        for side in (0, 1):
            try:
                res = fiber_residual_point(f, p, side)
            except ValidationError:
                continue
            pair = (p[0], res) if side == 0 else (res, p[1])
            if not is_smooth_point(f, pair):
                continue
            dm, dn = (-1, 0) if side == 0 else (0, -1)
            rest = list(self.minus)
            rest.remove(p)
            return LineBundle(
                self.curve, self.m + dm, self.n + dn,
                rest, self.plus + [pair], check=False,
            )
        raise SpecialPosition("duplicated point cannot be moved off its fibers")

    def _split_fiber(self, side, avoid):
        """A fiber of the chosen ruling meeting the curve in two distinct
        rational smooth points outside `avoid`; deterministic scan."""
        F = self.field
        f = self.curve.f
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

    def canonical(self, max_steps=60):
        """Equivalent plus-free representative satisfying the Kunneth
        condition, so that section computations below are exact."""
        rep = self
        for _ in range(max_steps):
            if rep.plus:
                rep = rep._absorb_one(rep.plus[0])
                continue
            dup = _first_duplicate(rep.minus)
            if dup is not None:
                rep = rep._spread_duplicate(dup)
                continue
            a, b = rep.m - 2, rep.n - 2
            if a <= -2 and b >= 0:
                pts = rep._split_fiber(0, rep.minus)
                rep = LineBundle(rep.curve, rep.m + 1, rep.n,
                                 rep.minus + pts, [], check=False)
                continue
            if a >= 0 and b <= -2:
                pts = rep._split_fiber(1, rep.minus)
                rep = LineBundle(rep.curve, rep.m, rep.n + 1,
                                 rep.minus + pts, [], check=False)
                continue
            if rep.degree_total() != self.degree_total():
                raise AssertionError("rewriting changed the degree")
            return rep
        raise SpecialPosition("rewriting did not terminate")

    # -- cohomology ----------------------------------------------------------

    def _eval_rows(self, monos):
        F = self.field
        return [[eval_monomial(F, e, p) for e in monos] for p in self.minus]

    def h0(self):
        rep = self.canonical()
        monos = monomial_basis((rep.m, rep.n))
        r = rank(rep.field, rep._eval_rows(monos))
        ideal = max(rep.m - 1, 0) * max(rep.n - 1, 0)
        h0 = len(monos) - r - ideal
        if h0 < 0:
            raise AssertionError("negative section count")
        return h0

    def h1(self):
        # chi(O_W) = 0, so chi(L) = deg(L)
        h = self.h0() - self.degree_total()
        if h < 0:
            raise AssertionError("negative h1")
        return h

    def h1_serre(self):
        # omega_W is trivial (anticanonical member), so h1(L) = h0(L^-1)
        return self.inverse().h0()


def _first_duplicate(points):
    seen = set()
    for p in points:
        k = p[0] + p[1]
        if k in seen:
            return p
        seen.add(k)
    return None


def _fiber_scan(field):
    if field.characteristic:
        for e in field.elements():
            yield (e, field.one())
        yield (field.one(), field.zero())
    else:
        yield (field.zero(), field.one())
        for k in range(1, 40):
            yield (field.coerce(k), field.one())
            yield (field.coerce(-k), field.one())
        yield (field.one(), field.zero())


# ---------------------------------------------------------------------------
# section spaces


class SectionSpace:
    """Concrete model of H0(L): ambient forms of bidegree `ambient`, modulo
    the ideal slice; `basis` holds quotient representatives (still vanishing
    on the rep's minus points)."""

    __slots__ = ("rep", "ambient", "monos", "basis", "ideal")

    def __init__(self, rep, monos, basis, ideal):
        self.rep = rep
        self.ambient = (rep.m, rep.n)
        self.monos = monos
        self.basis = basis
        self.ideal = ideal

    def dim(self):
        return len(self.basis)

    def form(self, i):
        F = self.rep.field
        return MultiPoly(F, self.ambient, dict(zip(self.monos, self.basis[i])))

    def forms(self):
        return [self.form(i) for i in range(self.dim())]


def section_space(bundle):
    rep = bundle.canonical()
    F = rep.field
    monos = monomial_basis((rep.m, rep.n))
    rows = rep._eval_rows(monos)
    V = kernel_basis(F, rows, len(monos))
    ideal = ideal_slice(rep.curve.f, rep.m, rep.n)
    red_u, piv_u = rref(F, ideal) if ideal else ([], [])
    reduced = []
    for v in V:
        w = list(v)
        for r, pc in zip(red_u, piv_u):
            if w[pc]:
                c = w[pc]
                w = [a - c * b for a, b in zip(w, r)]
        if any(w):
            reduced.append(w)
    basis, _ = rref(F, reduced)
    if len(basis) != len(V) - len(ideal):
        raise AssertionError("ideal slice escaped the section kernel")
    return SectionSpace(rep, monos, basis, ideal)


def ideal_slice(f, m, n):
    """Coefficient vectors of f * H0(O(m-2, n-2)) inside O(m,n)."""
    if m - 2 < 0 or n - 2 < 0:
        return []
    monos = monomial_basis((m, n))
    index = {e: i for i, e in enumerate(monos)}
    F = f.field
    out = []
    for e in monomial_basis((m - 2, n - 2)):
        g = f * MultiPoly.monomial(F, (m - 2, n - 2), e)
        vec = [F.zero()] * len(monos)
        for ee, c in g.terms.items():
            vec[index[ee]] = c
        out.append(vec)
    return out


def form_to_vec(form, monos):
    F = form.field
    index = {e: i for i, e in enumerate(monos)}
    vec = [F.zero()] * len(monos)
    for e, c in form.terms.items():
        vec[index[e]] = c
    return vec


# ---------------------------------------------------------------------------
# isomorphism, pullbacks, splitting type


def isomorphic(L1, L2):
    """Exact isomorphism test for bundles presented on the same curve object."""
    if L1.curve is not L2.curve:
        raise ValidationError("isomorphism test needs a shared curve object")
    if L1.degree_by_component() != L2.degree_by_component():
        return False
    h = L1.tensor(L2.inverse()).h0()
    if h > 1:
        raise AssertionError("degree-zero bundle with several sections")
    return h == 1


def is_v_pullback(L):
    """Whether L is pulled back from the second factor, i.e. O(0,k)|_W."""
    d = L.degree_total()
    if d % 2:
        return False
    if L.curve.is_reducible():
        dd = L.degree_by_component()
        if dd[0] != dd[1]:
            return False
    return isomorphic(L, LineBundle(L.curve, 0, d // 2))


def is_twisted_v_pullback(L):
    """Whether O(-1,0)|_W tensor L is a v-pullback."""
    return is_v_pullback(L.twist(-1, 0))


def split_from_cohomology(L, window=8):
    """Splitting type (a, b), a <= b, of the direct image on the second
    factor, located by the vanishing pattern of h0 of twists and then
    verified against the full twist profile."""
    chi = L.degree_total()  # chi(O_W) = 0
    j0 = None
    for j in range(-window, window + 1):
        if L.twist(0, j).h0() > 0:
            j0 = j
            break
    if j0 is None:
        raise ValidationError("splitting type outside the scanned window")
    b = -j0
    a = chi - 2 - b
    if a > b:
        raise AssertionError("splitting detection produced a > b")
    for j in range(-window, window + 1):
        want = max(a + j + 1, 0) + max(b + j + 1, 0)
        got = L.twist(0, j).h0()
        if got != want:
            raise AssertionError(
                f"twist profile mismatch at j={j}: got {got}, expected {want}")
    return (a, b)


# ---------------------------------------------------------------------------
# divisors of sections, random instances


def section_zero_points(bundle, form):
    """Zero divisor on W of the section represented by `form`, when it is
    reduced, rational, smooth and disjoint from the rep's minus points;
    raises SpecialPosition otherwise.  Finite fields only.

    The certificate is exact: the leftover zeros C satisfy |C| = deg(L) and
    the form lies in H0(L(-C)), so div - C is effective of degree zero.
    """
    rep = bundle if not bundle.plus else bundle.canonical()
    F = rep.field
    if not F.characteristic:
        raise ValidationError("zero-divisor search needs a finite field")
    f = rep.curve.f
    from .curves import enumerate_points

    zeros = [p for p in enumerate_points(f) if not form.eval_full(list(p))]
    minus = set((pair_key(F, p)) for p in rep.minus)
    left = [p for p in zeros if pair_key(F, p) not in minus]
    if len(zeros) - len(left) != len(rep.minus):
        raise SpecialPosition("section vanishes beyond the prescribed points")
    deg = rep.degree_total()
    if len(left) != deg:
        raise SpecialPosition("zero divisor is not reduced and rational")
    for p in left:
        if not is_smooth_point(f, p):
            raise SpecialPosition("section vanishes at a singular point")
    left.sort(key=lambda p: pair_key(F, p))
    return left


def random_line_bundle(curve, rng, deg_lo=-2, deg_hi=4, tries=100):
    """Random invertible sheaf on the curve with total degree in the range."""
    for _ in range(tries):
        d = rng.randint(deg_lo, deg_hi)
        m = rng.randint(-1, 2)
        n = rng.randint(-1, 2)
        r = 2 * (m + n) - d
        if r < 0 or r > 6:
            continue
        pts = []
        try:
            for _ in range(r):
                for _ in range(30):
                    p = random_smooth_point(curve.f, rng)
                    if p not in pts:
                        pts.append(p)
                        break
                else:
                    raise SpecialPosition("not enough distinct smooth points")
            return LineBundle(curve, m, n, pts, [])
        except SpecialPosition:
            continue
    raise SpecialPosition("could not draw a line bundle in the degree range")


def _inverse_2x2(field, m):
    (a, b), (c, d) = m
    det = a * d - b * c
    if not det:
        raise ValidationError("coordinate change is not invertible")
    return [[d / det, -b / det], [-c / det, a / det]]


def _apply_2x2(field, m, pt):
    a, b = pt
    return normalize_point(
        field, (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b)
    )


def transport(bundle, g, h):
    """Push the bundle forward along the ruling-preserving automorphism
    (g, h) of the ambient surface.

    The member moves by substituting the inverse matrices into its form,
    and every marked point moves by direct matrix action, so classification,
    degrees and splitting data are all preserved.
    """
    field = bundle.field
    g = [[field.coerce(x) for x in row] for row in g]
    h = [[field.coerce(x) for x in row] for row in h]
    f2 = bundle.curve.f.substitute_block(0, _inverse_2x2(field, g))
    f2 = f2.substitute_block(1, _inverse_2x2(field, h))
    curve2 = Curve(f2)
    def move(p):
        return (_apply_2x2(field, g, p[0]), _apply_2x2(field, h, p[1]))

    return LineBundle(
        curve2,
        bundle.m,
        bundle.n,
        [move(p) for p in bundle.minus],
        [move(p) for p in bundle.plus],
    )
