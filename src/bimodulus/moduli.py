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
  phi_inverse   quadruple -> re-embedded member plus sheaf, inverse to phi

A relation pair is a pair of 2x2x2 tensors, and each of its three
shadows (the resultant that eliminates one line factor) is the member
again.  The incidence points are the points (x, y) of the last shadow,
each with the common zero z of the two relations there, and the relation
plane is the left kernel of the path monomials at those points, one
`kernel_basis`.  `incidence_points` lists those points over a finite
field and `relations_through_points` takes the plane back from them;
only tests and the tracer call the two, also through
`recover_relations_from_ci`.  Points and tensors are read in the field's
representation (`ints`, see `exactmath`).  One stream serves every
finite field (`_incidence_stream`): one pass over x with 2x2
contractions, over F_p on residues, building field elements only for
`incidence_points`.  The round trip checks the plane on the
first 16 of these points with one `rank` and no kernel: the path rows
must have rank 6, and the relations must annihilate every row.  It
counts them over F_p with `curves.point_count` of the member, checked
against the count of the last shadow, and over F_{p^2} by reading the
rest of the stream; on both the count must meet the Hasse bound.  Every
j it compares is read off a grid (`curves.grid_j`), the member's from
its terms and each shadow's from the relation tensors (`_shadow_grids`,
made once a trip), so no smooth shadow is built as a form.  The
re-embedded member of `phi_inverse` is the shadow that forgets the
middle line.

The products of sections behind `psi0`/`psi1` are kept as normal forms
modulo the member, remainders of division by the member leading monomial
first (`NormalForm`), and taken from the sections' normal forms straight
to the product's (`NormalForm.product`): over F_p each path product is
one product of ints by Kronecker substitution, divided by the member on
residues, and no form is built.  The sections of a product of
two bundles, from which `psi1` picks its skip arrows, are the normal forms
vanishing on the sum of the two representatives' divisors, each point with
the sum of its multiplicities (`sections_through`).  The round trip
decides the stability of the point representations with one call: King
stability of a (1,1,1,1)-representation reads only which arrows are
nonzero, and every point has a nonzero arrow in each layer.

Degenerate configurations (isomorphic bundle pairs, products failing to
span, irrational section divisors) raise DegenerateInstance or
SpecialPosition; callers redraw.  Everything else is exact.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from operator import mul

from .curves import (
    coefficient_grid,
    grid_j,
    kodaira_classify,
    member_j,
    normalize_point,
    p1_points,
    point_count,
    residue_roots,
)
from .errors import DegenerateInstance, SpecialPosition, ValidationError
from .exactmath import kernel_basis, rank, reduce_modulo, rref
from .linebundles import (
    Curve,
    LineBundle,
    NormalForm,
    isomorphic,
    random_line_bundle,
    random_smooth_curve,
    section_space,
    section_zero_points,
    sections_through,
)
from .polyring import MultiPoly, bf_rational_roots, linear_resultant
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


def _frame(curve, spaces):
    """Normal forms modulo the member in the bidegree of the products of
    sections of `spaces`: the sum of their canonical representatives'."""
    return NormalForm(curve.f, (sum(S.rep.m for S in spaces), sum(S.rep.n for S in spaces)))


def _left_kernel(field, vecs, expect):
    rows = [list(col) for col in zip(*vecs)]
    ker = kernel_basis(field, rows, len(vecs))
    if len(ker) != expect:
        raise DegenerateInstance(
            f"products: relation space has dimension {len(ker)}, expected {expect}")
    return ker


def _path_relations(curve, spaces, quiver, arrows, expect):
    """The relations among the products of sections along the quiver's
    paths 1 -> 4, in `path_basis` order, each arrow's section a (normal
    forms, vector) pair in `arrows`."""
    frame = _frame(curve, spaces)
    vecs = [frame.product(*(arrows[lab] for lab in path)) for path in quiver.path_basis(1, 4)]
    return _left_kernel(curve.field, vecs, expect)


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
    arrows = {f"s{i}{ab}": (S.nf, v)
              for i, S in enumerate(spaces, 1) for ab, v in zip("ab", S.basis)}
    return _path_relations(quad.curve, spaces, generic_member_quiver(), arrows, expect=2)


def _outside_span(frame, spaces, span_vecs, what):
    """Deterministic section of the product of two bundles outside the span
    of the given product vectors: first quotient-basis vector that escapes,
    as the pair (frame, vector) that `NormalForm.product` takes.

    The product space is modelled in the shared ambient by vanishing on the
    sum of the minus divisors of the canonical representatives, a point
    counted as often as the two list it (`sections_through`)."""
    basis = sections_through(frame, [p for S in spaces for p in S.rep.minus],
                             spaces[0].rep.curve.fibers)
    expect = sum(S.rep.degree_total() for S in spaces)
    if len(basis) != expect:
        raise DegenerateInstance(f"{what}: section count off the expected {expect}")
    span, span_piv = rref(frame.field, span_vecs)
    if len(span) != len(span_vecs):
        raise DegenerateInstance(f"{what}: products are linearly dependent")
    for w in basis:
        if any(reduce_modulo(frame.field, span, span_piv, w)):
            return frame, w
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
    S0, S1, S2 = (section_space(L) for L in (quad.L0, quad.L1, quad.L2))
    if S0.dim() != 2 or S1.dim() != 1 or S2.dim() != 2:
        raise AssertionError("unexpected section counts for a component-1 quadruple")
    # each arrow's section as a (normal forms, vector) pair
    t = [(S0.nf, v) for v in S0.basis]
    r = (S1.nf, S1.basis[0])
    s = [(S2.nf, v) for v in S2.basis]

    frame01 = _frame(curve, [S0, S1])
    a3 = _outside_span(frame01, [S0, S1], [frame01.product(ti, r) for ti in t],
                       "first skip arrow")
    frame12 = _frame(curve, [S1, S2])
    a6 = _outside_span(frame12, [S1, S2], [frame12.product(r, si) for si in s],
                       "second skip arrow")

    arrows = {"a1": t[0], "a2": t[1], "a3": a3, "a7": r, "a6": a6, "a4": s[0], "a5": s[1]}
    return _path_relations(curve, [S0, S1, S2], middle_member_quiver(), arrows, expect=3)


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


def ci_smooth_j(c1, c2, grids=None):
    """Common j-invariant of the three shadows; every shadow must be a
    smooth member.

    Each shadow's j is read off its grid (`grid_j`): `grids`, when given,
    are the three that `_shadow_grids` makes of the pair.  A shadow that is
    zero or not smooth has no j there; the shadows are then built as forms
    only to say which (`ci_shadows`, `kodaira_classify`)."""
    field = c1.field
    js = [grid_j(field, grid) for grid in grids or _shadow_grids(c1, c2)]
    if None in js:
        for res in ci_shadows(c1, c2):
            kind = kodaira_classify(res)
            if kind != "I0":
                raise DegenerateInstance(f"shadow member has type {kind}")
    if js[0] != js[1] or js[0] != js[2]:
        raise AssertionError("shadow members disagree about j")
    return js[0]


def _tensor(c):
    """A (1,1,1)-form as its 2x2x2 coefficient tensor, flattened in path
    order: entry 4i+2j+k multiplies x_i y_j z_k.  Entries 4i..4i+3 are the
    2x2 matrix T_i (rows y, columns z) with c = x_0 T_0 + x_1 T_1.  The
    entries are in the field's `ints`, so over Q the tensor is c times a
    positive factor."""
    if c.degree != (1, 1, 1):
        raise ValidationError("a relation is a (1,1,1)-form")
    return c.field.ints([c.terms.get((1 - i, i, 1 - j, j, 1 - k, k), 0)
                         for i in (0, 1) for j in (0, 1) for k in (0, 1)])


# for x, y and z, the tensor's entries in path order once that line factor
# is moved last and the other two keep their order: (y, z, x), (x, z, y)
# and (x, y, z)
_ELIMINATING = ([0, 4, 1, 5, 2, 6, 3, 7], [0, 2, 1, 3, 4, 6, 5, 7], list(range(8)))


def _shadow_grids(c1, c2):
    """The grids of the three shadows, eliminating x, y and z in turn:
    `_fiber_coefficients` on the relation tensors (`_tensor`) with the
    eliminated line factor moved last.  The last is the grid of the shadow
    whose points `_incidence_stream` lifts."""
    t1, t2 = _tensor(c1), _tensor(c2)
    return [_fiber_coefficients([t1[i] for i in order], [t2[i] for i in order])
            for order in _ELIMINATING]


def _det_quadratic(m, n):
    """det[y^T M; y^T N] as a binary quadratic in y, for 2x2 matrices given
    by their entries in row-major order."""
    a, b, c, d = m
    e, f, g, h = n
    return [a * f - b * e, a * h + c * f - b * g - d * e, c * h - d * g]


def _fiber_coefficients(t1, t2):
    """(s00, s01, s11) with det[y^T M_1(x); y^T M_2(x)] equal to
    x_0^2 s00 + x_0 x_1 s01 + x_1^2 s11, coefficientwise in y: the
    determinant is bilinear in (M_1, M_2)."""
    s01 = [u + v for u, v in zip(_det_quadratic(t1[:4], t2[4:]), _det_quadratic(t1[4:], t2[:4]))]
    return _det_quadratic(t1[:4], t2[:4]), s01, _det_quadratic(t1[4:], t2[4:])


def incidence_points(c1, c2):
    """Rational points of the incidence curve in the triple product, x-major
    with y in `p1_points` order, as field elements.  Finite fields only: the
    points of `_incidence_stream`."""
    field = c1.field
    return [tuple(tuple(map(field.coerce, c)) for c in pt)
            for pt in _incidence_stream(field, c1, c2)]


def _line(field):
    """The points of P1 in `p1_points` order, in the field's `ints`: over
    F_p a lazy stream of residue pairs (i, 1), then (1, 0)."""
    p = field.modulus
    return chain(zip(range(p), repeat(1)), [(1, 0)]) if p else p1_points(field)


def _incidence_stream(field, c1, c2):
    """The rational points of the incidence curve as a stream of coordinate
    triples in the field's `ints` (residues over F_p, field elements over
    F_{p^2}), each coordinate normalized as in `p1_points`,
    x-major with y in `p1_points` order.

    The points (x, y) of the last shadow, which eliminates z, each with the
    common zero z of the two relations there, in one pass over x.
    Contracting relation i with x leaves the 2x2 matrix
    M_i(x) = x_0 T_i0 + x_1 T_i1, the shadow's fiber over x is the binary
    quadratic det[y^T M_1(x); y^T M_2(x)], whose three coefficients in x are
    computed once, and a fiber is contracted only when it carries points.
    A shadow zero on three x-fibers is zero: the relations share a linear
    factor.  Over F_p the line is streamed too, so nothing grows with p."""
    if not field.characteristic:
        raise ValidationError("point enumeration needs a finite field")
    p = field.modulus
    one, zero = field.ints([1, 0])
    if not p:
        position = {pt: i for i, pt in enumerate(_line(field))}
    t1, t2 = _tensor(c1), _tensor(c2)
    s00, s01, s11 = _fiber_coefficients(t1, t2)
    zero_fibers = 0
    for x0, x1 in _line(field):
        w0, w1, w2 = x0 * x0, x0 * x1, x1 * x1
        q = [w0 * u + w1 * v + w2 * w for u, v, w in zip(s00, s01, s11)]
        if p:
            q = [c % p for c in q]
        if not any(q):
            zero_fibers += 1
            if zero_fibers == 3:
                raise DegenerateInstance("relations share a linear factor")
            ys = _line(field)
        elif p:
            ys = [(i, one) if i < p else (one, zero) for i in sorted(residue_roots(field, q) or ())]
        else:
            roots = {normalize_point(field, r) for r, _ in bf_rational_roots(field, q) or ()}
            ys = sorted(roots, key=position.get)
        if not ys:
            continue
        a, b, c, d = [x0 * u + x1 * v for u, v in zip(t1[:4], t1[4:])]
        e, f, g, h = [x0 * u + x1 * v for u, v in zip(t2[:4], t2[4:])]
        for y0, y1 in ys:
            # the relations at (x, y): u0 z0 + u1 z1 and v0 z0 + v1 z1
            u0, u1 = a * y0 + c * y1, b * y0 + d * y1
            v0, v1 = e * y0 + g * y1, f * y0 + h * y1
            if p:
                u0, u1, v0, v1 = u0 % p, u1 % p, v0 % p, v1 % p
            if not (u0 or u1):
                if not (v0 or v1):
                    raise DegenerateInstance("incidence curve has a one-dimensional fiber")
                u0, u1 = v0, v1
            # common zero of u0 z0 + u1 z1: direction (u1, -u0)
            if not u0:
                z0, z1 = one, zero
            elif p:
                z0, z1 = -u1 * pow(u0, -1, p) % p, one
            else:
                z0, z1 = -u1 / u0, one
            w = v0 * z0 + v1 * z1
            if w % p if p else w:
                raise AssertionError("shadow point without a common third coordinate")
            yield (x0, x1), (y0, y1), (z0, z1)


def recover_relations_from_ci(c1, c2):
    """Relation plane recovered from the rational incidence points alone."""
    return relations_through_points(c1.field, incidence_points(c1, c2))


def _path_values(point):
    """The 8 path monomials x_i y_j z_k at a point, in path order."""
    (x, y, z) = point
    z0, z1 = z
    out = []
    for xi in x:
        for yj in y:
            xy = xi * yj
            out += (xy * z0, xy * z1)
    return out


def relations_through_points(field, pts):
    """Left kernel of the 8 path monomials evaluated at the given incidence
    points; equals the span of the relations once the point count exceeds
    the zero bound for trilinear sections.

    The monomials are taken at the points' coordinates in the field's
    `ints`, which scales each row by a nonzero factor and leaves the kernel
    alone."""
    _require_enough_points(len(pts))
    ker = kernel_basis(field, [_path_values([field.ints(c) for c in pt]) for pt in pts], 8)
    if len(ker) != 2:
        raise DegenerateInstance("point conditions did not cut the relation plane")
    return ker


def _require_enough_points(count):
    # a trilinear form off the relation plane restricts to a nonzero section
    # of a degree-6 bundle on the incidence curve: at most 6 zeros
    if count <= 6:
        raise DegenerateInstance("too few rational points to pin the ideal down")


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


def phi_inverse(quad, rng):
    """Member-plus-sheaf datum reconstructed from a component-0 quadruple.

    The member is re-embedded through the section bases s of L2 and t of
    L0: the shadow of `psi0`'s relation pair that forgets L1 is the image
    of W under (t, s), so with its two blocks swapped it is the member in
    (s, t).  The sheaf is the (1,1)-restriction minus the transported zero
    divisor of a section of L0^2 (x) L1^(-1) with reduced rational zeros,
    redrawn while the divisor meets a point where s or t vanishes.
    Returns (curve, sheaf, (s_basis, t_basis))."""
    if quad.component != 0:
        raise ValidationError("the reconstruction needs component 0")
    curve = quad.curve
    field = curve.field
    c1, c2 = relations_to_ci(field, psi0(quad))
    shadow = linear_resultant(c1, c2, 1)
    fprime = MultiPoly(field, (2, 2), {e[2:] + e[:2]: c for e, c in shadow.terms.items()})
    if kodaira_classify(fprime) != "I0":
        raise DegenerateInstance("re-embedded member is not smooth")
    new_curve = Curve(fprime, kind="I0")

    S2, S0 = section_space(quad.L2), section_space(quad.L0)
    s, t = S2.forms(), S0.forms()
    # the section bases vanish together exactly at their reps' minus points
    base = S2.rep.minus + S0.rep.minus
    B = quad.L0.tensor(quad.L0).tensor(quad.L1.inverse())
    SB = section_space(B)
    if SB.dim() != 2:
        raise AssertionError("twisting bundle with unexpected section count")
    for _ in range(40):
        form = SB.form(0).scale(field.random(rng)) + SB.form(1).scale(field.random(rng))
        if form.is_zero():
            continue
        try:
            divisor = section_zero_points(SB.rep, form)
        except SpecialPosition:
            continue
        if not any(p in base for p in divisor):
            break
    else:
        raise DegenerateInstance("no section with reduced rational zeros found")

    def transport(p):
        sv = (s[0].eval_full(list(p)), s[1].eval_full(list(p)))
        tv = (t[0].eval_full(list(p)), t[1].eval_full(list(p)))
        return (normalize_point(field, sv), normalize_point(field, tv))

    sheaf = LineBundle(new_curve, 1, 1, minus=[transport(p) for p in divisor])
    if sheaf.degree_total() != 2:
        raise AssertionError("reconstructed sheaf has the wrong degree")
    return new_curve, sheaf, (s, t)


# ---------------------------------------------------------------------------
# random instances and the end-to-end check


def random_sheaf_datum(field, rng, degree=2):
    """Random (curve, sheaf) with a smooth member and the given sheaf
    degree."""
    for _ in range(60):
        curve = random_smooth_curve(field, rng)
        try:
            U = random_line_bundle(curve, rng, deg_lo=degree, deg_hi=degree)
        except (ValidationError, SpecialPosition):
            continue
        return curve, U
    raise SpecialPosition("no smooth datum found in the allotted tries")


def random_quadruple(field, rng, component=0):
    d1 = 2 if component == 0 else 1
    for _ in range(60):
        curve = random_smooth_curve(field, rng)
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
    incidence points recover exactly the relation plane, and that the point
    representations are stable.  Returns a small report: j, the number of
    points and min(points, `sample_reps`), the representations the report
    vouches for; one verdict covers them all.

    The plane is checked on the path rows of the first `_PREFIX` points
    of `_incidence_stream`, in the field's `ints`: their rank must be 6,
    so that their left kernel is a plane, and psi0's two independent
    relations must annihilate every row, so that they span it.  The shadow
    grids are made once (`_shadow_grids`).  Over F_p the points are
    counted without being visited: `point_count` of the member, which must
    equal that of the last shadow (the incidence curve's isomorphic image);
    over F_{p^2} the count is the length of the stream.  On every field the
    count must meet the Hasse bound, and a stream that ends before
    `_PREFIX` points must have given all of them.  The stream's own checks
    (three zero fibers, a one-dimensional fiber, no common z) can fire only
    on a last shadow that is zero or singular, and `ci_smooth_j` refuses
    those first."""
    curve = U.curve
    field = curve.field
    quad = phi(U)
    relations = psi0(quad)
    c1, c2 = relations_to_ci(field, relations)
    j_member = member_j(curve.f)
    grids = _shadow_grids(c1, c2)
    j_shadows = ci_smooth_j(c1, c2, grids)
    if j_shadows != j_member:
        raise AssertionError("shadow j differs from the member j")
    stream = _incidence_stream(field, c1, c2)
    pts = list(islice(stream, _PREFIX))
    p = field.modulus
    if p:
        count = point_count(p, coefficient_grid(curve.f))
        # the grid of the last shadow, which eliminates z
        if point_count(p, grids[2]) != count:
            raise AssertionError("the last shadow and the member differ in point count")
    else:
        count = len(pts) + sum(1 for _ in stream)
    # F_p and F_{p^2} are the finite fields built here
    q = p or field.characteristic ** 2
    if (count - q - 1) ** 2 > 4 * q:
        raise AssertionError("point count outside the Hasse bound")
    _require_enough_points(count)
    if len(pts) < _PREFIX and len(pts) != count:
        raise AssertionError("the incidence points ended before the point count")
    rows = [_path_values(pt) for pt in pts]
    if rank(field, rows) != 6:
        raise DegenerateInstance("point conditions did not cut the relation plane")
    for c in map(field.ints, relations):
        for row in rows:
            v = sum(map(mul, c, row))
            if v % p if p else v:
                raise AssertionError("recovered relations differ from the computed ones")
    # King stability reads only which arrows are nonzero, the two arrows of
    # each layer join the same two vertices, and every point of (P1)^3 has
    # a nonzero coordinate in each layer: every incidence point has the
    # verdict of the representation with all six arrows nonzero
    one = field.one()
    if not theta_stable(generic_member_quiver(), point_representation([(one, one)] * 3)):
        raise AssertionError("incidence point carries an unstable representation")
    return {
        "j": j_member,
        "points": count,
        "stable_reps_checked": min(count, sample_reps),
    }


# incidence points that `roundtrip0` reads: seven distinct points pin the
# relation plane (`_require_enough_points`)
_PREFIX = 16
