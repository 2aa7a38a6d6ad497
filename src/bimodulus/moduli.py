"""The three moduli descriptions and the maps between them.

A smooth anticanonical member W with an invertible sheaf of degree 2 (or 1)
determines a quadruple (W, L0, L1, L2) of line bundles of degrees (2, 2, 2)
(resp. (2, 1, 2)); a quadruple determines a pair (resp. triple) of quiver
relations through multiplication of sections; and a relation pair cuts an
incidence curve in a triple product of lines whose three coordinate shadows
all recover W.  This module makes each arrow computable and exactly
checkable on random instances:

  phi           sheaf datum -> quadruple
  psi0 / psi1   quadruple   -> relation coefficients on the 8 end-to-end paths
  relations_to_ci, incidence curves, and the j-matching checks
  recover_relations_from_ci   point enumeration inverse (finite fields)
  phi_inverse   quadruple -> re-embedded member plus sheaf, inverse to phi

Degenerate configurations (isomorphic bundle pairs, products failing to
span, irrational section divisors) raise DegenerateInstance or
SpecialPosition; callers redraw.  Everything else is exact.
"""

from __future__ import annotations

from .curves import enumerate_points, kodaira_classify, member_j, normalize_point, random_smooth_22
from .errors import DegenerateInstance, SpecialPosition, ValidationError
from .exactmath import kernel_basis, rref, span_contains, subspace_equal
from .linebundles import (
    Curve,
    LineBundle,
    SectionSpace,
    form_to_vec,
    ideal_slice,
    isomorphic,
    random_line_bundle,
    section_space,
    section_zero_points,
)
from .polyring import MultiPoly, linear_resultant, monomial_basis
from .quivers import generic_member_quiver, middle_member_quiver, theta_stable


class Quadruple:
    """Smooth member with three line bundles of degrees (2, d1, 2), d1 in
    {2, 1}; the component index of the moduli space is 0 for d1 = 2 and 1
    for d1 = 1.  Bundles of equal degree must be pairwise non-isomorphic."""

    __slots__ = ("curve", "L0", "L1", "L2", "component")

    def __init__(self, curve, L0, L1, L2):
        if isinstance(curve, MultiPoly):
            curve = Curve(curve)
        if curve.kind != "I0":
            raise ValidationError("quadruples live over a smooth member")
        for L in (L0, L1, L2):
            if L.curve is not curve:
                raise ValidationError("bundles must live on the given curve object")
        if L0.degree_total() != 2 or L2.degree_total() != 2:
            raise ValidationError("outer bundles must have degree 2")
        d1 = L1.degree_total()
        if d1 not in (2, 1):
            raise ValidationError("middle bundle must have degree 2 or 1")
        self.curve = curve
        self.L0, self.L1, self.L2 = L0, L1, L2
        self.component = 0 if d1 == 2 else 1
        pairs = [(L0, L2)] + ([(L0, L1), (L1, L2)] if d1 == 2 else [])
        for A, B in pairs:
            if isomorphic(A, B):
                raise DegenerateInstance("equal-degree bundles must be non-isomorphic")

    def __repr__(self):
        return f"Quadruple(component={self.component})"


def phi(U):
    """Quadruple attached to an invertible sheaf U on a smooth member: the
    two ruling pullbacks around a middle bundle twisted so that degree 2
    lands in component 0 and degree 1 in component 1."""
    curve = U.curve
    L0 = LineBundle(curve, 0, 1)
    L2 = LineBundle(curve, 1, 0)
    L1 = LineBundle(curve, -1, 1).tensor(U)
    return Quadruple(curve, L0, L1, L2)


# ---------------------------------------------------------------------------
# products of sections, modulo the member


class _ProductFrame:
    """Shared ambient for products of sections: bidegree the sum of the
    canonical representatives, reduced modulo the ideal slice of the
    member."""

    __slots__ = ("field", "monos", "red", "piv", "ambient")

    def __init__(self, curve, spaces):
        M = sum(S.rep.m for S in spaces)
        N = sum(S.rep.n for S in spaces)
        self.field = curve.field
        self.ambient = (M, N)
        self.monos = monomial_basis((M, N))
        ideal = ideal_slice(curve.f, M, N)
        self.red, self.piv = rref(self.field, ideal) if ideal else ([], [])

    def vec(self, form):
        if form.degree != self.ambient:
            raise ValidationError("product form has the wrong bidegree")
        w = form_to_vec(form, self.monos)
        for r, pc in zip(self.red, self.piv):
            if w[pc]:
                c = w[pc]
                w = [a - c * b for a, b in zip(w, r)]
        return w


def _left_kernel(field, vecs, expect=None, what="products"):
    rows = [list(col) for col in zip(*vecs)]
    ker = kernel_basis(field, rows, len(vecs))
    if expect is not None and len(ker) != expect:
        raise DegenerateInstance(
            f"{what}: relation space has dimension {len(ker)}, expected {expect}")
    return ker


def psi0(quad):
    """Coefficients on the 8 three-step paths of the two relations cutting
    the section algebra of a component-0 quadruple.  Path order is the
    lexicographic path basis; the plane coordinates at each layer are the
    section bases of L0, L1, L2 in that order."""
    if quad.component != 0:
        raise ValidationError("the two-relation presentation needs component 0")
    spaces = [section_space(L) for L in (quad.L0, quad.L1, quad.L2)]
    for S in spaces:
        if S.dim() != 2:
            raise AssertionError("degree-2 bundle with unexpected section count")
    frame = _ProductFrame(quad.curve, spaces)
    vecs = []
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                form = spaces[0].form(i) * spaces[1].form(j) * spaces[2].form(k)
                vecs.append(frame.vec(form))
    return _left_kernel(quad.curve.field, vecs, expect=2)


def _outside_span(field, frame, curve, spaces, span_vecs, what):
    """Deterministic section of the product of two bundles outside the span
    of the given product vectors: first quotient-basis vector that escapes.

    The product space is modelled in the shared ambient by vanishing
    conditions at the (necessarily distinct) minus points of the canonical
    representatives."""
    pts = [p for S in spaces for p in S.rep.minus]
    keys = set()
    for p in pts:
        k = (tuple(p[0]), tuple(p[1]))
        if k in keys:
            raise DegenerateInstance("representative divisors share a point")
        keys.add(k)
    helper = LineBundle(curve, *frame.ambient, minus=pts, check=False)
    rows = helper._eval_rows(frame.monos)
    V = kernel_basis(field, rows, len(frame.monos))
    reduced = []
    for v in V:
        w = list(v)
        for r, pc in zip(frame.red, frame.piv):
            if w[pc]:
                c = w[pc]
                w = [a - c * b for a, b in zip(w, r)]
        if any(w):
            reduced.append(w)
    basis, _ = rref(field, reduced)
    expect = sum(S.rep.degree_total() for S in spaces)
    if len(basis) != expect:
        raise DegenerateInstance(f"{what}: section count off the expected {expect}")
    span, _ = rref(field, [list(v) for v in span_vecs])
    if len(span) != len(span_vecs):
        raise DegenerateInstance(f"{what}: products are linearly dependent")
    for w in basis:
        if not span_contains(field, span, w):
            return MultiPoly(field, frame.ambient, dict(zip(frame.monos, w)))
    raise DegenerateInstance(f"{what}: no complement vector found")


def psi1(quad):
    """Coefficients on the 8 paths of the three relations of a component-1
    quadruple.  Arrows across consecutive layers carry the section bases of
    L0, L1, L2; the two skip arrows carry deterministic sections of the
    two-step products outside the image of the one-step ones.  Path order is
    the lexicographic path basis of the seven-arrow quiver."""
    if quad.component != 1:
        raise ValidationError("the three-relation presentation needs component 1")
    curve = quad.curve
    field = curve.field
    S0, S1, S2 = (section_space(L) for L in (quad.L0, quad.L1, quad.L2))
    if S0.dim() != 2 or S1.dim() != 1 or S2.dim() != 2:
        raise AssertionError("unexpected section counts for a component-1 quadruple")
    t = S0.forms()
    r = S1.form(0)
    s = S2.forms()

    frame01 = _ProductFrame(curve, [S0, S1])
    a3 = _outside_span(field, frame01, curve, [S0, S1],
                       [frame01.vec(ti * r) for ti in t], "first skip arrow")
    frame12 = _ProductFrame(curve, [S1, S2])
    a6 = _outside_span(field, frame12, curve, [S1, S2],
                       [frame12.vec(r * si) for si in s], "second skip arrow")

    frame = _ProductFrame(curve, [S0, S1, S2])
    arrow_forms = {
        "a1": t[0], "a2": t[1], "a3": a3, "a7": r,
        "a6": a6, "a4": s[0], "a5": s[1],
    }
    vecs = []
    for path in middle_member_quiver().path_basis(1, 4):
        form = arrow_forms[path[0]]
        for lab in path[1:]:
            form = form * arrow_forms[lab]
        vecs.append(frame.vec(form))
    return _left_kernel(field, vecs, expect=3)


# ---------------------------------------------------------------------------
# relations as trilinear forms and their incidence curve


def relations_to_ci(field, relations):
    """Path-coefficient vectors as (1,1,1)-forms on a triple product of
    lines: coefficient 4i+2j+k multiplies x_i y_j z_k."""
    out = []
    for c in relations:
        if len(c) != 8:
            raise ValidationError("a relation has one coefficient per path")
        terms = {}
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    v = field.coerce(c[4 * i + 2 * j + k])
                    if v:
                        terms[(1 - i, i, 1 - j, j, 1 - k, k)] = v
        out.append(MultiPoly(field, (1, 1, 1), terms))
    return out


def ci_shadows(c1, c2):
    """The three (2,2)-forms obtained by eliminating each line factor from
    the relation pair."""
    shadows = []
    for block in (0, 1, 2):
        res = linear_resultant(c1, c2, block)
        if res.is_zero():
            raise DegenerateInstance("relations share a linear factor")
        shadows.append(res)
    return shadows


def ci_smooth_j(c1, c2):
    """Common j-invariant of the three shadows; every shadow must be a
    smooth member."""
    js = []
    for res in ci_shadows(c1, c2):
        kind = kodaira_classify(res)
        if kind != "I0":
            raise DegenerateInstance(f"shadow member has type {kind}")
        js.append(member_j(res))
    if js[0] != js[1] or js[0] != js[2]:
        raise AssertionError("shadow members disagree about j")
    return js[0]


def incidence_points(c1, c2):
    """Rational points of the incidence curve in the triple product,
    enumerated through the last shadow and a linear solve for the third
    coordinate.  Finite fields only."""
    field = c1.field
    if not field.characteristic:
        raise ValidationError("point enumeration needs a finite field")
    shadow = ci_shadows(c1, c2)[2]
    pts = []
    for (x, y) in enumerate_points(shadow):
        lin1 = c1.eval_block(0, list(x)).eval_block(0, list(y))
        lin2 = c2.eval_block(0, list(x)).eval_block(0, list(y))
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


def recover_relations_from_ci(c1, c2):
    """Relation plane recovered from the rational incidence points alone."""
    return relations_through_points(c1.field, incidence_points(c1, c2))


def relations_through_points(field, pts):
    """Left kernel of the 8 path monomials evaluated at the given incidence
    points; equals the span of the relations once the point count exceeds
    the zero bound for trilinear sections."""
    # a trilinear form off the relation plane restricts to a nonzero section
    # of a degree-6 bundle on the incidence curve: at most 6 zeros
    if len(pts) <= 6:
        raise DegenerateInstance("too few rational points to pin the ideal down")
    rows = []
    for (x, y, z) in pts:
        row = []
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    row.append(x[i] * y[j] * z[k])
        rows.append(row)
    ker = kernel_basis(field, rows, 8)
    if len(ker) != 2:
        raise DegenerateInstance("point conditions did not cut the relation plane")
    return ker


def point_representation(point):
    """(1,1,1,1)-representation of the three-layer quiver carried by an
    incidence point: each layer map is the corresponding coordinate."""
    (x, y, z) = point
    return {
        "s1a": x[0], "s1b": x[1],
        "s2a": y[0], "s2b": y[1],
        "s3a": z[0], "s3b": z[1],
    }


# ---------------------------------------------------------------------------
# the inverse direction


def phi_inverse(quad, rng, tries=40):
    """Member-plus-sheaf datum reconstructed from a component-0 quadruple.

    The member is re-embedded through the section bases of L2 and L0 (its
    equation is the unique relation among the nine products of symmetric
    pairs); the sheaf is the (1,1)-restriction minus the transported zero
    divisor of a section of L0^2 (x) L1^(-1) with reduced rational zeros.
    Returns (curve, sheaf, (s_basis, t_basis))."""
    if quad.component != 0:
        raise ValidationError("the reconstruction needs component 0")
    curve = quad.curve
    field = curve.field
    S2, S0 = section_space(quad.L2), section_space(quad.L0)
    s, t = S2.forms(), S0.forms()
    frame = _ProductFrame(curve, [S2, S2, S0, S0])
    sym = ((0, 0), (0, 1), (1, 1))
    vecs = []
    for (i, j) in sym:
        for (k, l) in sym:
            vecs.append(frame.vec(s[i] * s[j] * t[k] * t[l]))
    ker = _left_kernel(field, vecs, expect=1, what="re-embedding products")
    terms = {}
    for a in range(3):
        for b in range(3):
            v = ker[0][3 * a + b]
            if v:
                terms[(2 - a, a, 2 - b, b)] = v
    fprime = MultiPoly(field, (2, 2), terms)
    if kodaira_classify(fprime) != "I0":
        raise DegenerateInstance("re-embedded member is not smooth")
    new_curve = Curve(fprime)

    B = quad.L0.tensor(quad.L0).tensor(quad.L1.inverse())
    SB = section_space(B)
    if SB.dim() != 2:
        raise AssertionError("twisting bundle with unexpected section count")
    divisor = None
    for _ in range(tries):
        form = SB.form(0).scale(field.random(rng)) + SB.form(1).scale(field.random(rng))
        if form.is_zero():
            continue
        try:
            divisor = section_zero_points(SB.rep, form)
            break
        except SpecialPosition:
            continue
    if divisor is None:
        raise DegenerateInstance("no section with reduced rational zeros found")

    def transport(p):
        sv = (s[0].eval_full(list(p)), s[1].eval_full(list(p)))
        tv = (t[0].eval_full(list(p)), t[1].eval_full(list(p)))
        return (normalize_point(field, sv), normalize_point(field, tv))

    pts = [transport(p) for p in divisor]
    sheaf = LineBundle(new_curve, 1, 1, minus=pts)
    if sheaf.degree_total() != 2:
        raise AssertionError("reconstructed sheaf has the wrong degree")
    return new_curve, sheaf, (s, t)


# ---------------------------------------------------------------------------
# random instances and the end-to-end check


def random_sheaf_datum(field, rng, degree=2, tries=60):
    """Random (curve, sheaf) with a smooth member and the given sheaf
    degree."""
    for _ in range(tries):
        f = random_smooth_22(field, rng)
        curve = Curve(f)
        try:
            U = random_line_bundle(curve, rng, deg_lo=degree, deg_hi=degree)
        except (ValidationError, SpecialPosition):
            continue
        return curve, U
    raise SpecialPosition("no smooth datum found in the allotted tries")


def random_quadruple(field, rng, component=0, tries=60):
    d1 = 2 if component == 0 else 1
    for _ in range(tries):
        f = random_smooth_22(field, rng)
        curve = Curve(f)
        try:
            L0 = random_line_bundle(curve, rng, deg_lo=2, deg_hi=2)
            L1 = random_line_bundle(curve, rng, deg_lo=d1, deg_hi=d1)
            L2 = random_line_bundle(curve, rng, deg_lo=2, deg_hi=2)
            return Quadruple(curve, L0, L1, L2)
        except (DegenerateInstance, SpecialPosition, ValidationError):
            continue
    raise SpecialPosition("no quadruple found in the allotted tries")


def roundtrip0(U, sample_reps=4):
    """End-to-end check for a degree-2 sheaf on a smooth member: through the
    quadruple and the relation pair to the incidence curve and back.

    Verifies that the three shadows are smooth with the member's own j, that
    the enumerated points recover exactly the relation plane, and that the
    point representations are stable.  Returns a small report."""
    curve = U.curve
    field = curve.field
    quad = phi(U)
    relations = psi0(quad)
    c1, c2 = relations_to_ci(field, relations)
    j_member = member_j(curve.f)
    j_shadows = ci_smooth_j(c1, c2)
    if j_shadows != j_member:
        raise AssertionError("shadow j differs from the member j")
    pts = incidence_points(c1, c2)
    recovered = relations_through_points(field, pts)
    if not subspace_equal(field, recovered, relations):
        raise AssertionError("recovered relations differ from the computed ones")
    quiver = generic_member_quiver()
    checked = 0
    for p in pts[:sample_reps]:
        if not theta_stable(quiver, point_representation(p)):
            raise AssertionError("incidence point carries an unstable representation")
        checked += 1
    return {
        "j": j_member,
        "points": len(pts),
        "stable_reps_checked": checked,
    }
