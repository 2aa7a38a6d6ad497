"""Exact cohomology of invertible sheaves on reduced (2,2) divisors.

A bundle is presented as O(m,n)|_W(-Z_minus + Z_plus) with Z_* lists of
rational smooth points of W, a point listed k times counted k times.  Two
rewriting moves keep computations exact:

* absorption: a plus point P satisfies O(P) = O(1,0)(-P') on W, where P' is
  the residual intersection of the fiber through P, so plus points can always
  be traded for minus points at the cost of raising (m,n);
* raising: tensoring with O(F)(-P-Q) for a fiber F meeting W in two distinct
  rational smooth points changes nothing but increases (m,n).  A rep is
  raised along one ruling only, by every fiber it needs at once: the first
  split fibers of that ruling missing its minus points, in scan order, from
  one scan; each fiber counts as one of the 60 rewriting steps.

Once (m,n) is large enough that the ambient restriction
H0(O(m,n)) -> H0(O(m,n)|_W) is onto (a Kunneth condition on O(m-2,n-2)),
global sections are exactly the ambient forms vanishing on Z_minus, taken
modulo the ideal slice f*H0(O(m-2,n-2)).  All ranks, bases and products are
computed from that model.  A class modulo the slice is kept as its normal
form, the remainder of division by f (`NormalForm`), so sections are the
normal forms vanishing on Z_minus: the point rows are eliminated on the
2(m+n) normal-form columns.  One builder (`_divisor_rows`) makes the rows
of a divisor for h0, section bases and products of sections alike: a
point's value row, and for a point listed k times the first k - 1 Taylor
coefficients along W there.  The point rows and the division run in the
field's representation (`ints`, see `exactmath`), so over Q a point row
is defined up to a positive factor, as the condition it states is.  A
Curve of type I0 tells its fiber table that the member is smooth, so a
smoothness test only checks that the point is on it.  A split scan reads
the splitting type (a, b) off h0 of one twist, O(0, -s-1) with
s = (chi-2)//2, where only O(b) has sections, and verifies it on the
twists O(0, j) of a fixed window widened to where each summand turns on.
It reads every twist off one rep O(1, N)(-Z') of first degree 1, made
with split fibers of the first ruling (`_degree_one`), for which the
Kunneth condition holds in every N: the twists differ only in N, by more
monomials and the same rows.  The conditions of Z' are eliminated once,
transposed, one block of monomials x^a y0^i y1^(N-i) for each i, which
off y = (1:0) take the same values in every degree N >= i.  Points on
y = (1:0) are first moved by the shear y -> (y0, y1 + s*y0) that clears
them, and where no shear does, each twist is counted on its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import count, islice
from operator import mul

from .curves import (
    FiberTable,
    _eval_rows,
    coerce_pair,
    enumerate_points,
    factor_11,
    kodaira_classify,
    normalize_point,
    pair_key,
    plant_smooth_22,
    random_smooth_22,
    random_smooth_point,
)
from .errors import SpecialPosition, ValidationError
from .exactmath import block_ranks, kernel_basis, rank
from .polyring import MultiPoly, monomial_basis, residue_product

# rewriting moves `canonical` makes before it gives up; each raised fiber is one
REWRITING_STEPS = 60
# the twists O(j), |j| <= SPLIT_WINDOW, whose h0 `split_from_h0` verifies
SPLIT_WINDOW = 8


class Curve:
    """A reduced (2,2) divisor with cached classification, components and
    fiber table.  `kind` is the Kodaira type of f when the caller has just
    classified it, else f is classified here; `planted` goes to the table."""

    __slots__ = ("f", "kind", "_components", "fibers")

    def __init__(self, f, kind=None, planted=()):
        self.f = f
        self.kind = kodaira_classify(f) if kind is None else kind
        if self.kind == "NonReduced":
            raise ValidationError("doubled curves use the thickened-diagonal model")
        self._components = None
        self.fibers = FiberTable(f, smooth=self.kind == "I0", planted=planted)

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
            self._components = factor_11(self.f, self.kind)
        return self._components

    def component_index(self, pair):
        """0 or 1: which (1,1) component a smooth point lies on, each
        component evaluated on the point's coordinates in the `ints` of
        the field the components are defined over."""
        E, g, h = self.components()
        p = E.modulus
        x0, x1, y0, y1 = E.ints((*pair[0], *pair[1]))
        on = []
        for form in (g, h):
            # a (1,1) monomial is one x coordinate times one y coordinate
            v = sum(c * (x1 if e[1] else x0) * (y1 if e[3] else y0)
                    for e, c in zip(form.terms, E.ints(form.terms.values())))
            on.append(not (v % p if p else v))
        if all(on):
            raise ValidationError("point lies on both components")
        return 0 if on[0] else 1

    def split_fibers(self, side):
        """Fibers of the chosen ruling meeting the curve in two distinct
        rational smooth points, in `_fiber_scan` order, each as its two
        points; the scan is lazy and reads the curve's fiber table."""
        for x in _fiber_scan(self.field):
            # a Curve has no fiber components, so `points` does not raise
            pts = self.fibers.points(side, x)
            if pts is not None and len(pts) == 2 and all(map(self.fibers.is_smooth, pts)):
                yield pts


class LineBundle:
    """O(m,n)|_W(-minus + plus); points are normalized smooth rational pairs,
    and a point may be listed more than once: it counts with multiplicity."""

    __slots__ = ("curve", "m", "n", "minus", "plus")

    def __init__(self, curve, m, n, minus=(), plus=(), check=True):
        if isinstance(curve, MultiPoly):
            curve = Curve(curve)
        self.curve = curve
        self.m = int(m)
        self.n = int(n)
        if check:
            F = curve.field
            minus = [coerce_pair(F, p) for p in minus]
            plus = [coerce_pair(F, p) for p in plus]
            # every listed point, a cancelling one too
            for p in minus + plus:
                try:
                    smooth = curve.fibers.is_smooth(p)
                except ValidationError:
                    raise ValidationError("twisting point is not on the curve") from None
                if not smooth:
                    raise ValidationError("twisting point is singular on the curve")
        else:
            # points of another bundle or of the fiber table, already
            # normalized; copied so that no two bundles share a list
            minus, plus = list(minus), list(plus)
        # cancel common points of opposite sign
        for p in list(plus):
            if p in minus:
                minus.remove(p)
                plus.remove(p)
        self.minus = minus
        self.plus = plus

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
        for side in (0, 1):
            try:
                pair = self.curve.fibers.residual(side, p)
            except ValidationError:
                continue
            if not self.curve.fibers.is_smooth(pair) or pair in self.minus:
                continue
            dm, dn = (1, 0) if side == 0 else (0, 1)
            rest = list(self.plus)
            rest.remove(p)
            return LineBundle(
                self.curve, self.m + dm, self.n + dn,
                self.minus + [pair], rest, check=False,
            )
        raise SpecialPosition("both fibers through a plus point are unusable")

    def _settled(self):
        """(rep, steps): an equivalent representative with no plus points,
        each absorbed in turn, and the rewriting steps it took; the minus
        points keep their multiplicity.  The moves read only the points, so
        a twist of self settles to the same twist of rep in as many steps."""
        rep = self
        for steps in range(REWRITING_STEPS):
            if not rep.plus:
                return rep, steps
            rep = rep._absorb_one(rep.plus[0])
        raise SpecialPosition("rewriting did not terminate")

    def _raising_fibers(self, side):
        """The fibers raising takes, in one lazy scan: the split fibers of
        the ruling (`Curve.split_fibers`) that miss the minus points, each
        as its two points.  Fibers of one ruling are disjoint, so the points
        of the fibers taken never meet a later one."""
        for pts in self.curve.split_fibers(side):
            if not any(p in self.minus for p in pts):
                yield pts

    def canonical(self):
        """Equivalent plus-free representative satisfying the Kunneth
        condition, so that section computations below are exact: the plus
        points absorbed, then raised by fibers, a repeated minus point left
        as it is; gives up after 60 rewriting steps, each raised fiber
        counting as one."""
        rep = _kunneth(*self._settled())
        if rep.degree_total() != self.degree_total():
            raise AssertionError("rewriting changed the degree")
        return rep

    # -- cohomology ----------------------------------------------------------

    def h0(self):
        return _canonical_h0(self.canonical())

    def h1(self):
        # chi(O_W) = 0, so chi(L) = deg(L)
        h = self.h0() - self.degree_total()
        if h < 0:
            raise AssertionError("negative h1")
        return h


def _kunneth(rep, steps):
    """The canonical rep of a settled rep that took `steps` rewriting
    steps: raised by the fibers the Kunneth condition asks for, taken from
    one scan, within the steps left of the 60."""
    side, t = _raising(rep.m, rep.n)
    if not t:
        return rep
    pts = _take_fibers(rep._raising_fibers(side), t, steps)
    dm, dn = (t, 0) if side == 0 else (0, t)
    return LineBundle(rep.curve, rep.m + dm, rep.n + dn, rep.minus + pts, [], check=False)


def _take_fibers(fibers, t, steps):
    """The points of the first t of `fibers`, each fiber one rewriting step
    after the `steps` taken: raises when they run out, or when t reaches
    the steps left."""
    budget = REWRITING_STEPS - steps
    taken = list(islice(fibers, min(t, budget)))
    if len(taken) < min(t, budget):
        raise SpecialPosition("no usable split fiber found")
    if t >= budget:
        raise SpecialPosition("rewriting did not terminate")
    return [p for fiber in taken for p in fiber]


def _canonical_h0(rep):
    """h0 of a canonical rep: the forms of its class modulo the ideal
    slice that vanish on its minus divisor (`_divisor_rows`)."""
    monos = monomial_basis((rep.m, rep.n))
    r = rank(rep.field, _divisor_rows(rep.curve.fibers, rep.minus, monos))
    ideal = max(rep.m - 1, 0) * max(rep.n - 1, 0)
    h0 = len(monos) - r - ideal
    if h0 < 0:
        raise AssertionError("negative section count")
    return h0


def _divisor_rows(fibers, points, monos):
    """The conditions on forms in the monomials `monos` to vanish on the
    divisor of `points` on the member f of the fiber table `fibers`, a
    point listed k times to order k on W: its value row (`_eval_rows`)
    and, for k >= 2, the coefficients of t, ..., t^(k-1) of the monomials
    along a local parametrization of W at P.  The points are normalized,
    so each block's chart coordinate (`X` below) moves and the other stays
    1.  W is smooth at P, so the chart partial of some block is nonzero
    (`FiberTable.chart_derivatives`, read off the table's grids); the
    other block's coordinate is moved by t, and this one is solved for as
    a power series, from the tangent line on, so k = 2 needs no iteration.
    The series reads f's coefficients in the field's `ints`, on the scale
    of those partials.  Another parametrization or chart multiplies the
    rows of P by an invertible matrix, so the conditions are those of the
    divisor.  Over F_p the series are of residues, reduced only where the
    iteration divides, and the rows are left for the echelon loop to
    reduce."""
    f = fibers.f
    field = f.field
    distinct = list(dict.fromkeys(points))
    rows = _eval_rows(field, distinct, monos)
    if len(distinct) == len(points) or not monos:
        return rows
    p = field.modulus
    read = field.ints if p else list
    degs = (monos[0][0] + monos[0][1], monos[0][2] + monos[0][3])
    for P in distinct:
        k = points.count(P)
        if k < 2:
            continue
        # each block's chart coordinate, and its column in a monomial
        free = [0 if x[1] else 1 for x in P]
        cols = (free[0], 2 + free[1])
        d = fibers.chart_derivatives(P)
        lead = 1 if d[1] else 0
        inv = pow(d[lead], -1, p) if p else 1 / d[lead]
        X = [[c] + [0] * (k - 1) for c in read(x[i] for x, i in zip(P, free))]
        X[1 - lead][1] = 1
        X[lead][1] = -d[1 - lead] * inv
        for j in range(2, k):
            # f along the series so far: its t^j coefficient moves by
            # d[lead] times that of X[lead]
            fw = [_series_powers(x, 2) for x in X]
            v = sum(_series_mul(fw[0][e[cols[0]]], fw[1][e[cols[1]]])[j] * c
                    for e, c in zip(f.terms, field.ints(f.terms.values())))
            X[lead][j] = read([-inv * v])[0]
        pw = [_series_powers(x, dg) for x, dg in zip(X, degs)]
        values = [_series_mul(pw[0][e[cols[0]]], pw[1][e[cols[1]]]) for e in monos]
        rows += [[v[j] for v in values] for j in range(1, k)]
    return rows


def _series_mul(a, b):
    """The product of two power series of the same length, truncated."""
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(len(a))]


def _series_powers(x, d):
    """The powers x^0, ..., x^d of a truncated power series."""
    pw = [[1] + [0] * (len(x) - 1)]
    for _ in range(d):
        pw.append(_series_mul(pw[-1], x))
    return pw


def _raising(m, n):
    """(side, t) for a settled rep of class O(m, n): the Kunneth condition
    asks it to be raised by t fibers of the ruling `side`, until m - 2 (or
    n - 2) reaches -1; t = 0 when the condition holds."""
    a, b = m - 2, n - 2
    if a <= -2 and b >= 0:
        return 0, -1 - a
    if a >= 0 and b <= -2:
        return 1, -1 - b
    return 0, 0


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


class NormalForm:
    """Normal forms of the forms of bidegree `degree` = (M, N) modulo the
    member f: each class of forms as its coefficient vector on `monos`, the
    2(M+N) monomials off the pivots of the ideal slice f * H0(O(M-2, N-2))
    (all monomials when M < 2 or N < 2).

    `monomial_basis` order is a monomial order (lex, x0 and y0 first), so
    the reduced echelon basis of the ideal slice has its pivots exactly at
    LM(f) times the monomials of bidegree (M-2, N-2), and reducing modulo it
    is division by f, leading monomial first: each pivot in turn is cleared
    by a multiple of f times its monomial, which touches only later
    columns.  Both leave the one vector of the class that is zero at every
    pivot, so the normal form is the vector `reduce_modulo` makes.  The
    division steps are read off f once, on residues (`ints`) over F_p, and
    there a normal form comes out as residues in [0, p): its readers
    (`kernel_basis`, `rref`, `reduce_modulo`) take the field's `ints`.

    A product of classes (`product`) is taken from their normal forms
    straight to this one: over F_p the factors' vectors are packed as ints
    with one slot per column here and multiplied (`residue_product`), and
    the product's dense coefficients go through the same division as
    `vec`'s, so no form is built."""

    __slots__ = ("f", "field", "degree", "monos", "_size", "_cols", "_steps")

    def __init__(self, f, degree):
        self.f = f
        F = self.field = f.field
        M, N = self.degree = tuple(degree)
        width = N + 1
        full = monomial_basis(self.degree)
        self._size = len(full)
        self._steps = []  # (pivot column, [(column, multiplier), ...])
        if M >= 2 and N >= 2:
            # f's terms as column offsets, the leading term first
            terms = sorted((e[1] * width + e[3], c) for e, c in f.terms.items())
            (lead, lc), rest = terms[0], terms[1:]
            p = F.modulus
            if p:
                lc, *ks = F.ints([lc, *(c for _, c in rest)])
                inv = pow(lc, -1, p)
                ks = [-c * inv % p for c in ks]
            else:
                ks = [-c / lc for _, c in rest]
            rest = list(zip((off for off, _ in rest), ks))
            for _, i, _, j in monomial_basis((M - 2, N - 2)):
                base = i * width + j
                self._steps.append((base + lead, [(base + off, k) for off, k in rest]))
        pivots = {pc for pc, _ in self._steps}
        self._cols = [c for c in range(self._size) if c not in pivots]
        self.monos = [full[c] for c in self._cols]

    def vec(self, form):
        """The normal form of a form of bidegree `degree`."""
        if form.degree != self.degree:
            raise ValidationError("product form has the wrong bidegree")
        F, width, coeffs = self.field, self.degree[1] + 1, form.terms.values()
        w = [0 if F.modulus else F.zero()] * self._size
        for e, c in zip(form.terms, F.ints(coeffs) if F.modulus else coeffs):
            w[e[1] * width + e[3]] = c
        return self._divide(w)

    def product(self, *factors):
        """The normal form of the product of the classes given by the
        (nf, vec) pairs of `factors`, normal-form coefficients `vec` on
        `nf.monos`, whose bidegrees sum to `degree`.

        Over F_p the product is one product of ints (`residue_product`)
        made straight from the vectors: monomial e takes the slot of its
        column e[1](N+1) + e[3] here, and column indices add as exponents
        do.  Over other fields the forms are multiplied left to right."""
        if tuple(map(sum, zip(*(nf.degree for nf, _ in factors)))) != self.degree:
            raise ValidationError("product form has the wrong bidegree")
        F = self.field
        if not F.modulus:
            return self.vec(reduce(mul, (nf.form(v) for nf, v in factors)))
        width = self.degree[1] + 1
        slotted = [[(e[1] * width + e[3], c) for e, c in zip(nf.monos, F.ints(v)) if c]
                   for nf, v in factors]
        return self._divide(residue_product(F.modulus, slotted, self._size))

    def _divide(self, w):
        """Division by f of the dense coefficients `w`, indexed by column
        (over F_p residues, not necessarily reduced), read off at the
        normal-form columns, over F_p as residues in [0, p); `w` is
        overwritten."""
        F = self.field
        p = F.modulus
        if p:
            for pc, step in self._steps:
                a = w[pc] % p
                if a:
                    for col, k in step:
                        w[col] += a * k
            return [w[c] % p for c in self._cols]
        for pc, step in self._steps:
            a = w[pc]
            if a:
                for col, k in step:
                    w[col] = w[col] + a * k
        return [w[c] for c in self._cols]

    def form(self, vec):
        """The form with normal-form coefficients `vec`."""
        return MultiPoly(self.field, self.degree, dict(zip(self.monos, vec)))


class SectionSpace:
    """Concrete model of H0(L): the normal forms `nf` in the bidegree of the
    rep that vanish on its minus points; `basis` is their reduced echelon
    basis."""

    __slots__ = ("rep", "nf", "basis")

    def __init__(self, rep, nf, basis):
        self.rep = rep
        self.nf = nf
        self.basis = basis

    def dim(self):
        return len(self.basis)

    def form(self, i):
        return self.nf.form(self.basis[i])

    def forms(self):
        return [self.form(i) for i in range(self.dim())]


def sections_through(nf, points, fibers):
    """Reduced echelon basis of the normal forms in `nf` that vanish on the
    divisor of `points` counted with multiplicity, to order k on W at a
    point listed k times (`_divisor_rows`, on `fibers`, the fiber table of
    nf's member).  A normal form vanishes to an order at a point of W
    exactly when its class does, so the rows are eliminated on the
    normal-form columns alone."""
    field = nf.field
    rows = _divisor_rows(fibers, points, nf.monos)
    # a kernel vector of `kernel_basis` is 1 at its free column, 0 at the
    # others and nonzero only before it; so with the columns reversed, and
    # read back, the kernel basis is the reduced echelon basis
    ker = kernel_basis(field, [row[::-1] for row in rows], len(nf.monos))
    return [v[::-1] for v in reversed(ker)]


def section_space(bundle):
    rep = bundle.canonical()
    nf = NormalForm(rep.curve.f, (rep.m, rep.n))
    return SectionSpace(rep, nf, sections_through(nf, rep.minus, rep.curve.fibers))


# ---------------------------------------------------------------------------
# isomorphism, pullbacks, splitting type


def isomorphic(L1, L2):
    """Exact isomorphism test for bundles presented on the same curve object.

    Bundles of equal multidegree are isomorphic exactly when D = L1 (x)
    L2^-1 has a section: the member is connected and reduced, so a bundle
    of multidegree 0 with a section is trivial, and then so is its inverse.
    h0 is taken on whichever of D and D^-1 has fewer plus points, D on a
    tie, since each plus point is absorbed and raises the rep; where that
    side's `canonical` raises SpecialPosition, on the other side."""
    if L1.curve is not L2.curve:
        raise ValidationError("isomorphism test needs a shared curve object")
    if L1.degree_by_component() != L2.degree_by_component():
        return False
    D = L1.tensor(L2.inverse())
    first, second = sorted((D, D.inverse()), key=lambda L: len(L.plus))
    try:
        h = first.h0()
    except SpecialPosition:
        h = second.h0()
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


def split_from_h0(h0_of_twist, chi):
    """Splitting type (a, b), a <= b, of a rank-2 direct image with Euler
    characteristic chi, from h0 of its twists by O(j).  As a + b = chi - 2,
    a <= s <= b for s = (chi - 2) // 2, so at the twist j = -s - 1 only O(b)
    has sections, and b = s + h0(-s - 1).  The type is then verified against
    the whole twist profile over [-SPLIT_WINDOW, SPLIT_WINDOW], widened to
    the twists -b - 1 and -a - 1 where each summand turns on.  Each twist is
    evaluated once, and the profile lowest first, so a caller may answer
    the twists from one incremental computation: `split_from_cohomology`
    answers them all from one elimination on one rep of first degree 1,
    extended as higher twists are asked for."""
    h0 = cache(h0_of_twist)
    s = (chi - 2) // 2
    b = s + h0(-s - 1)
    a = chi - 2 - b
    for j in range(min(-SPLIT_WINDOW, -b - 1), max(SPLIT_WINDOW, -a - 1) + 1):
        want = max(a + j + 1, 0) + max(b + j + 1, 0)
        got = h0(j)
        if got != want:
            raise AssertionError(
                f"twist profile mismatch at j={j}: got {got}, expected {want}")
    return (a, b)


def split_from_cohomology(L):
    """Splitting type (a, b), a <= b, of the direct image on the second
    factor: read off h0 of the one twist O(0, -s - 1), s = (chi - 2) // 2,
    and verified against the h0 profile of the twists O(0, j)
    (`split_from_h0`).

    L settles once (`LineBundle._settled`), and the settled rep moves to
    one rep O(1, N)(-Z') of first degree 1 (`_degree_one`).  Its twists
    O(1, N + j)(-Z') need no raising, and all are read off one
    elimination (`_twists_h0`).  The scan raises SpecialPosition up front,
    where that rep's fibers run out or take more than the rewriting steps
    left."""
    return split_from_h0(_twists_h0(_degree_one(*L._settled())), L.degree_total())


def _degree_one(rep, steps):
    """A rep O(1, N)(-Z') of the class of a settled rep O(m, n)(-Z) that
    took `steps` rewriting steps.  For m <= 0 it is raised by 1 - m fibers
    of the first ruling, as `_kunneth` raises it.  For m >= 2 each of m - 1
    such fibers, F with F . W = P + P', lowers m by one: O(1, 0) = O(P + P')
    = O(0, 2)(-iP - iP') on W, where iP is P's residual on its fiber of the
    second ruling, so N = n + 2(m - 1) and Z' adds the residuals.  They are
    smooth: a fiber meets W twice, so one through a singular point meets W
    there only.  Either way the fibers come from one `_raising_fibers`
    scan, within the steps left of the 60.  On first degree 1 the Kunneth
    condition holds on every twist O(0, j), as H1(O(-1, k)) = 0 for every
    k."""
    fibers, n = rep._raising_fibers(0), rep.n
    if rep.m >= 2:
        fibers = ([rep.curve.fibers.residual(1, p) for p in pts] for pts in fibers)
        n += 2 * (rep.m - 1)
    pts = _take_fibers(fibers, abs(rep.m - 1), steps)
    return LineBundle(rep.curve, 1, n, rep.minus + pts, [], check=False)


def _twists_h0(rep):
    """h0 of the twists O(0, j) of a rep O(1, n)(-Z), as a function of j;
    none needs raising, and none with N = n + j < 0 has a form.

    When no point of Z has y = (1, 0), the monomial x^a y0^i y1^(N-i)
    takes the value x^a t^i at a point (x, (t, 1)), and so do its Taylor
    coefficients there; so the forms of degree N are those of degree N + 1
    with i <= N.  The conditions of Z (`_divisor_rows`) are eliminated
    transposed, one row per monomial, in blocks of equal i, and the rank
    after block N is the rank of the conditions in degree N.  Otherwise
    the points are first moved by y -> (y0, y1 + s y0) for the first s of
    `_fiber_scan` order that takes no point of Z to y = (1, 0), which
    leaves h0 as it is.  Where there is none, each twist is counted on
    its own (`_canonical_h0`); over a finite field the y-values of Z then
    hold (1, 0) and every (t, 1) with t != 0, so |Z| >= |F|, and over Q
    Z has a distinct y-value barring each of the 79 candidates."""
    curve, points = rep.curve, rep.minus
    F = curve.field
    s = next((s for s, one in _fiber_scan(F)
              if one and all(s * y0 + y1 for _, (y0, y1) in points)), None)
    if s is None:
        return lambda j: _canonical_h0(rep.twist(0, j))
    if s:
        curve, move = _moved(curve, ((1, 0), (0, 1)), ((1, 0), (s, 1)), kind=curve.kind)
        points = [move(p) for p in points]
    # over Q a value row is taken at the point's ints (`_eval_rows`), y =
    # (c t, c) for y = (t, 1): in block i it is c^i times the row at (t, 1);
    # the value rows of `_divisor_rows` come first, one per distinct point
    scale = [F.ints(y)[1] for _, y in dict.fromkeys(points)] if not F.characteristic else []

    def block(i):
        rows = _divisor_rows(curve.fibers, points, [(1, 0, i, 0), (0, 1, i, 0)])
        for k, c in enumerate(scale):
            if c != 1:
                rows[k] = [Fraction(v, c ** i) for v in rows[k]]
        return map(enumerate, zip(*rows))

    ranks = block_ranks(F, map(block, count()))
    prefix = []  # prefix[i]: the rank of the conditions on blocks 0, ..., i

    def h0(j):
        N = rep.n + j
        if N < 0:
            return 0
        while len(prefix) <= N:
            # once the conditions are independent, later blocks add no rank
            prefix.append(prefix[-1] if prefix and prefix[-1] == len(points) else next(ranks))
        h = 2 * (N + 1) - prefix[N]
        if h < 0:
            raise AssertionError("negative section count")
        return h

    return h0


# ---------------------------------------------------------------------------
# divisors of sections, random instances


def section_zero_points(bundle, form):
    """Zero divisor on W of the section represented by `form`, when it is
    reduced, rational, smooth and disjoint from the rep's minus points;
    raises SpecialPosition otherwise.  Finite fields only.

    The certificate is exact: the form's divisor is D + E, with D the minus
    points counted with multiplicity and deg E = deg(L).  The zeros met are
    the distinct points of D and the leftover zeros C, which lie on E; so
    |C| = deg(L) forces E = C.
    """
    rep = bundle if not bundle.plus else bundle.canonical()
    F = rep.field
    if not F.characteristic:
        raise ValidationError("zero-divisor search needs a finite field")
    f = rep.curve.f
    zeros = [p for p in enumerate_points(f) if not form.eval_full(list(p))]
    minus = set((pair_key(F, p)) for p in rep.minus)
    left = [p for p in zeros if pair_key(F, p) not in minus]
    if len(zeros) - len(left) != len(minus):
        raise SpecialPosition("section vanishes beyond the prescribed points")
    deg = rep.degree_total()
    if len(left) != deg:
        raise SpecialPosition("zero divisor is not reduced and rational")
    for p in left:
        if not rep.curve.fibers.is_smooth(p):
            raise SpecialPosition("section vanishes at a singular point")
    left.sort(key=lambda p: pair_key(F, p))
    return left


def random_smooth_curve(field, rng):
    """A Curve on a random smooth member: `random_smooth_22`'s over a finite
    field, else `plant_smooth_22`'s, its table planted through the points."""
    if field.characteristic:
        return Curve(random_smooth_22(field, rng), kind="I0")
    f, planted = plant_smooth_22(field, rng)
    return Curve(f, kind="I0", planted=planted)


def random_line_bundle(curve, rng, deg_lo=-2, deg_hi=4):
    """Random invertible sheaf on the curve with total degree in the range."""
    for _ in range(100):
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
                    p = random_smooth_point(curve.fibers, rng)
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
    curve, move = _moved(bundle.curve, g, h)
    return LineBundle(
        curve,
        bundle.m,
        bundle.n,
        [move(p) for p in bundle.minus],
        [move(p) for p in bundle.plus],
    )


def _moved(curve, g, h, kind=None):
    """(curve2, move): the member moved by the ruling-preserving
    automorphism (g, h), as a Curve of Kodaira type `kind` (classified
    when None), and the map taking its points to curve2's."""
    field = curve.field
    g = [[field.coerce(x) for x in row] for row in g]
    h = [[field.coerce(x) for x in row] for row in h]
    f2 = curve.f.substitute_block(0, _inverse_2x2(field, g))
    f2 = f2.substitute_block(1, _inverse_2x2(field, h))

    def move(p):
        return (_apply_2x2(field, g, p[0]), _apply_2x2(field, h, p[1]))

    return Curve(f2, kind), move
