"""Multihomogeneous polynomials on products of projective lines.

A ``MultiPoly`` is homogeneous of a fixed degree in each of 1--3 blocks of two
variables.  Exponent tuples concatenate the per-block exponents, so a
bidegree-(2,2) form on P1 x P1 stores keys like (2,0,1,1).

Binary forms (one block) double as plain coefficient lists
``[c0, ..., cd]`` meaning ``sum c[i] * x0^(d-i) * x1^i``; the ``bf_*`` /
``uv_*`` helpers below implement exact gcds, square detection and squarefree
decomposition for them.  Everything is valid over Q and over F_p with p > deg.
"""

from __future__ import annotations

from .errors import SpecialPosition, ValidationError
from .exactmath import scalar_from_json, scalar_to_json


def monomial_basis(degree):
    """Exponent tuples of the given multidegree, in the fixed order used
    everywhere: first block outermost, exponents of each block's first
    variable descending."""
    blocks = [[(d - i, i) for i in range(d + 1)] for d in degree]
    out = [()]
    for b in blocks:
        out = [e + be for e in out for be in b]
    return out


class MultiPoly:
    __slots__ = ("field", "degree", "terms")

    def __init__(self, field, degree, terms=None):
        degree = tuple(int(d) for d in degree)
        if not 1 <= len(degree) <= 3 or any(d < 0 for d in degree):
            raise ValidationError(f"bad multidegree {degree}")
        self.field = field
        self.degree = degree
        clean = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != 2 * len(degree) or any(e < 0 for e in exp):
                raise ValidationError(f"bad exponent {exp} for degree {degree}")
            for b, d in enumerate(degree):
                if exp[2 * b] + exp[2 * b + 1] != d:
                    raise ValidationError(f"exponent {exp} is not homogeneous of degree {degree}")
            c = field.coerce(c)
            if c:
                clean[exp] = clean[exp] + c if exp in clean else c
                if not clean[exp]:
                    del clean[exp]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, degree):
        return cls(field, degree, {})

    @classmethod
    def monomial(cls, field, degree, exp, coef=1):
        return cls(field, degree, {tuple(exp): coef})

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def nblocks(self):
        return len(self.degree)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("MultiPoly is not hashable")

    def proportional(self, other):
        if self.degree != other.degree:
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if set(self.terms) != set(other.terms):
            return False
        exp = min(self.terms)
        ratio = other.terms[exp] / self.terms[exp]
        return all(other.terms[e] == ratio * c for e, c in self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValidationError("degree mismatch in addition")
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t[e] + c if e in t else c
            if not t[e]:
                del t[e]
        out = MultiPoly.zero(self.field, self.degree)
        out.terms = t
        return out

    def __neg__(self):
        out = MultiPoly.zero(self.field, self.degree)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = self.field.coerce(s)
        out = MultiPoly.zero(self.field, self.degree)
        if s:
            out.terms = {e: s * c for e, c in self.terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            if self.nblocks() != other.nblocks():
                raise ValidationError("block-count mismatch in product")
            deg = tuple(a + b for a, b in zip(self.degree, other.degree))
            t = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    c = c1 * c2
                    t[e] = t[e] + c if e in t else c
            out = MultiPoly.zero(self.field, deg)
            out.terms = {e: c for e, c in t.items() if c}
            return out
        return self.scale(other)

    __rmul__ = __mul__

    # -- evaluation and substitution ----------------------------------------

    def eval_full(self, points):
        """points: one (a0, a1) pair per block."""
        if len(points) != self.nblocks():
            raise ValidationError("wrong number of evaluation points")
        acc = None
        for e, c in self.terms.items():
            term = c
            for b, (a0, a1) in enumerate(points):
                term = term * a0 ** e[2 * b] * a1 ** e[2 * b + 1]
            acc = term if acc is None else acc + term
        return self.field.zero() if acc is None else acc

    def eval_block(self, block, point):
        """Substitute a point into one block; result lives on the rest."""
        a0, a1 = point
        deg = tuple(d for b, d in enumerate(self.degree) if b != block)
        t = {}
        for e, c in self.terms.items():
            val = c * a0 ** e[2 * block] * a1 ** e[2 * block + 1]
            rest = e[: 2 * block] + e[2 * block + 2:]
            t[rest] = t[rest] + val if rest in t else val
        out = MultiPoly.zero(self.field, deg)
        out.terms = {e: c for e, c in t.items() if c}
        return out

    def partial(self, block, var):
        """d/d(x_{block,var}); block degree drops by one."""
        d = self.degree[block]
        if d == 0:
            raise ValidationError("derivative in a degree-0 block")
        deg = tuple(dd - 1 if b == block else dd for b, dd in enumerate(self.degree))
        t = {}
        for e, c in self.terms.items():
            k = e[2 * block + var]
            if k == 0:
                continue
            ne = list(e)
            ne[2 * block + var] = k - 1
            ne = tuple(ne)
            val = k * c
            if val:
                t[ne] = t[ne] + val if ne in t else val
        out = MultiPoly.zero(self.field, deg)
        out.terms = {e: c for e, c in t.items() if c}
        return out

    def substitute_block(self, block, m):
        """Linear substitution x_i -> m[i][0]*x0 + m[i][1]*x1 in one block."""
        F = self.field
        rows = [[F.coerce(m[i][j]) for j in range(2)] for i in range(2)]
        out = MultiPoly.zero(F, self.degree)
        for e, c in self.terms.items():
            e0, e1 = e[2 * block], e[2 * block + 1]
            expanded = _binary_pow(F, rows[0], e0)
            expanded = _binary_conv(F, expanded, _binary_pow(F, rows[1], e1))
            for j, coef in enumerate(expanded):
                if not coef:
                    continue
                ne = list(e)
                ne[2 * block] = len(expanded) - 1 - j
                ne[2 * block + 1] = j
                out = out + MultiPoly.monomial(F, self.degree, tuple(ne), c * coef)
        return out

    def swap_blocks(self, order):
        """Permute the blocks (order[i] = source block of new block i)."""
        deg = tuple(self.degree[b] for b in order)
        t = {}
        for e, c in self.terms.items():
            ne = ()
            for b in order:
                ne += (e[2 * b], e[2 * b + 1])
            t[ne] = c
        out = MultiPoly.zero(self.field, deg)
        out.terms = t
        return out

    # -- views -------------------------------------------------------------

    def coeff_forms(self, block):
        """Coefficients with respect to one block, as polynomials on the rest.

        Returns the list indexed by the block exponent (d,0), (d-1,1), ...,
        (0,d); for a bidegree-(2,2) form and block=1 this is (A, B, C) with
        f = A*y0^2 + B*y0*y1 + C*y1^2.
        """
        d = self.degree[block]
        deg_rest = tuple(dd for b, dd in enumerate(self.degree) if b != block)
        out = [MultiPoly.zero(self.field, deg_rest) for _ in range(d + 1)]
        for e, c in self.terms.items():
            i = e[2 * block + 1]
            rest = e[: 2 * block] + e[2 * block + 2:]
            out[i] = out[i] + MultiPoly.monomial(self.field, deg_rest, rest, c)
        return out

    def to_binary(self):
        if self.nblocks() != 1:
            raise ValidationError("to_binary needs a single block")
        d = self.degree[0]
        c = [self.field.zero()] * (d + 1)
        for e, v in self.terms.items():
            c[e[1]] = v
        return c

    def coerce_to(self, field):
        """Re-coerce coefficients into a (bigger) field."""
        return MultiPoly(field, self.degree, {e: field.coerce(c) for e, c in self.terms.items()})

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda ec: ec[0], reverse=True)
        return {
            "blocks": self.nblocks(),
            "degree": list(self.degree),
            "terms": [{"exp": list(e), "coef": scalar_to_json(self.field, c)} for e, c in items],
        }

    @classmethod
    def from_json(cls, field, obj):
        if not isinstance(obj, dict) or "degree" not in obj or "terms" not in obj:
            raise ValidationError("polynomial object needs 'degree' and 'terms'")
        terms = {}
        for t in obj["terms"]:
            exp = tuple(t["exp"])
            c = scalar_from_json(field, t["coef"])
            terms[exp] = terms.get(exp, field.zero()) + c
        return cls(field, obj["degree"], terms)

    def __repr__(self):
        return f"MultiPoly{self.degree}<{len(self.terms)} terms>"


def mp_from_binary(field, coeffs):
    d = len(coeffs) - 1
    return MultiPoly(field, (d,), {(d - i, i): c for i, c in enumerate(coeffs)})


def random_multipoly(field, degree, rng):
    t = {e: field.random(rng) for e in monomial_basis(degree)}
    return MultiPoly(field, degree, t)


def _binary_pow(field, lin, e):
    """(lin[0]*x0 + lin[1]*x1)^e as coefficient list [x0^e, ..., x1^e]."""
    out = [field.one()]
    for _ in range(e):
        out = _binary_conv(field, out, [lin[0], lin[1]])
    return out


def _binary_conv(field, a, b):
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


# ---------------------------------------------------------------------------
# univariate helpers (dense lists, low degree first, trimmed)


def uv_trim(u):
    while u and not u[-1]:
        u.pop()
    return u


def uv_degree(u):
    return len(u) - 1


def uv_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return uv_trim(out)


def uv_add(field, a, b):
    n = max(len(a), len(b))
    out = [field.zero()] * n
    for i, x in enumerate(a):
        out[i] = out[i] + x
    for i, x in enumerate(b):
        out[i] = out[i] + x
    return uv_trim(out)


def uv_scale(field, a, s):
    return uv_trim([s * x for x in a])


def uv_divmod(field, a, b):
    b = uv_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = uv_trim(list(a))
    q = [field.zero()] * max(len(r) - len(b) + 1, 0)
    inv = field.one() / b[-1]
    while len(r) >= len(b):
        if not r[-1]:
            r.pop()
            continue
        k = len(r) - len(b)
        f = r[-1] * inv
        q[k] = q[k] + f
        for i, x in enumerate(b):
            r[k + i] = r[k + i] - f * x
        r.pop()
    return uv_trim(q), uv_trim(r)


def uv_divexact(field, a, b):
    q, r = uv_divmod(field, a, b)
    if r:
        raise ValidationError("inexact polynomial division")
    return q


def uv_gcd(field, a, b):
    a, b = uv_trim(list(a)), uv_trim(list(b))
    while b:
        a, b = b, uv_divmod(field, a, b)[1]
    if a:
        a = uv_scale(field, a, field.one() / a[-1])
    return a


def uv_derivative(field, a):
    return uv_trim([i * a[i] for i in range(1, len(a))])


def uv_monic_yun(field, u):
    """Squarefree decomposition of a monic squarefree-factorizable poly.

    Requires char 0 or char > deg(u).  Returns [(g_i, i)] with u = prod g_i^i,
    g_i monic squarefree pairwise coprime (degree-0 g_i omitted).
    """
    p = field.characteristic
    if p and p <= uv_degree(u):
        raise ValidationError("squarefree decomposition needs char 0 or char > deg")
    du = uv_derivative(field, u)
    g = uv_gcd(field, u, du)
    w = uv_divexact(field, u, g)
    y = uv_divexact(field, du, g)
    z = uv_add(field, y, uv_scale(field, uv_derivative(field, w), field.coerce(-1)))
    out = []
    i = 1
    while uv_degree(w) > 0:
        gi = uv_gcd(field, w, z)
        if uv_degree(gi) > 0:
            out.append((gi, i))
        w = uv_divexact(field, w, gi)
        y = uv_divexact(field, z, gi)
        z = uv_add(field, y, uv_scale(field, uv_derivative(field, w), field.coerce(-1)))
        i += 1
    return out


# ---------------------------------------------------------------------------
# binary forms


def bf_is_zero(c):
    return not any(c)


def bf_eval(field, c, pt):
    a0, a1 = field.coerce(pt[0]), field.coerce(pt[1])
    d = len(c) - 1
    acc = field.zero()
    for i, x in enumerate(c):
        if x:
            acc = acc + x * a0 ** (d - i) * a1 ** i
    return acc


def bf_mul(field, a, b):
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def bf_scale(field, a, s):
    s = field.coerce(s)
    return [s * x for x in a]


def bf_sub(field, a, b):
    if len(a) != len(b):
        raise ValidationError("degree mismatch")
    return [x - y for x, y in zip(a, b)]


def bf_derivative(field, c, var):
    d = len(c) - 1
    if d == 0:
        return [field.zero()]
    if var == 0:
        return [(d - i) * c[i] for i in range(d)]
    return [(i + 1) * c[i + 1] for i in range(d)]


def _bf_dehom(c):
    """f(s, 1) as a low-first list; drops the multiplicity at [1:0]."""
    return uv_trim(list(reversed(c)))


def _bf_inf_mult(c):
    k = 0
    for x in c:
        if x:
            break
        k += 1
    return k


def _bf_homog(field, u, extra_inf=0):
    """Homogenize a univariate (root multiplicities preserved), then multiply
    by x1^extra_inf."""
    if not u:
        raise ValidationError("cannot homogenize zero")
    c = list(reversed(u))
    return [field.zero()] * extra_inf + c


def bf_gcd(field, a, b):
    if bf_is_zero(a) and bf_is_zero(b):
        raise ValidationError("gcd(0, 0)")
    if bf_is_zero(a):
        a, b = b, a
    if bf_is_zero(b):
        ua = _bf_dehom(a)
        g = uv_scale(field, ua, field.one() / ua[-1]) if ua else []
        return _bf_homog(field, g or [field.one()], _bf_inf_mult(a))
    g = uv_gcd(field, _bf_dehom(a), _bf_dehom(b))
    if not g:
        g = [field.one()]
    return _bf_homog(field, g, min(_bf_inf_mult(a), _bf_inf_mult(b)))


def bf_divexact(field, a, b):
    ka, kb = _bf_inf_mult(a), _bf_inf_mult(b)
    if bf_is_zero(a):
        return [field.zero()] * (len(a) - len(b) + 1)
    if kb > ka:
        raise ValidationError("inexact binary-form division")
    q = uv_divexact(field, _bf_dehom(a), _bf_dehom(b))
    out = _bf_homog(field, q, ka - kb)
    want = len(a) - len(b) + 1
    if len(out) != want:
        out = [field.zero()] * (want - len(out)) + out
    return out


def bf_root_linear(field, pt):
    """A linear form vanishing at the projective point pt."""
    a0, a1 = field.coerce(pt[0]), field.coerce(pt[1])
    return [a1, -a0]


def bf_root_deflate(field, c, pt):
    return bf_divexact(field, c, bf_root_linear(field, pt))


def bf_shear(field, c, t):
    """f(x0, x1 + t*x0)."""
    t = field.coerce(t)
    d = len(c) - 1
    out = [field.zero()] * (d + 1)
    for i, x in enumerate(c):
        if not x:
            continue
        row = _binary_pow(field, [t, field.one()], i)  # (t x0 + x1)^i, coeffs by x1-degree
        for j, coef in enumerate(row):
            out[j] = out[j] + x * coef
    return out


def _shear_candidates(field):
    if field.characteristic:
        for e in field.elements():
            yield e
    else:
        yield field.zero()
        k = 1
        while True:
            yield field.coerce(k)
            yield field.coerce(-k)
            k += 1


def bf_squarefree_decomposition(field, c):
    """unit, [(factor, multiplicity)] with c = unit * prod factor^mult.

    Factors are binary forms, normalized so that the dehomogenized part is
    monic; roots at [1:0] are handled by a deterministic shear.
    """
    if bf_is_zero(c):
        raise ValidationError("decomposition of the zero form")
    d = len(c) - 1
    if d == 0:
        return c[0], []
    t_used = None
    for t in _shear_candidates(field):
        if bf_shear(field, c, t)[0]:
            t_used = t
            break
    if t_used is None:
        raise ValidationError("form vanishes on the whole line; char too small")
    sheared = bf_shear(field, c, t_used)
    u = _bf_dehom(sheared)
    lc = u[-1]
    u = uv_scale(field, u, field.one() / lc)
    factors = []
    for g, mult in uv_monic_yun(field, u):
        gb = _bf_homog(field, g)
        gb = bf_shear(field, gb, -t_used)
        # renormalize: first nonzero coefficient 1
        lead = next(x for x in gb if x)
        gb = bf_scale(field, gb, field.one() / lead)
        factors.append((gb, mult))
    prod = [field.one()]
    for g, m in factors:
        for _ in range(m):
            prod = bf_mul(field, prod, g)
    idx = next(i for i, x in enumerate(c) if x)
    if not prod[idx]:
        raise AssertionError("squarefree decomposition lost a factor")
    unit = c[idx] / prod[idx]
    if any(bf_sub(field, c, bf_scale(field, prod, unit))):
        raise AssertionError("squarefree decomposition failed verification")
    return unit, factors


def bf_multiplicity_pattern(field, c):
    """Sorted (descending) multiset of root multiplicities over the closure."""
    _, factors = bf_squarefree_decomposition(field, c)
    pat = []
    for g, m in factors:
        pat.extend([m] * (len(g) - 1))
    return tuple(sorted(pat, reverse=True))


def bf_square_decomp(field, c):
    """(c0, s) with c = c0 * s^2, or None if c is not a square up to scalar."""
    if bf_is_zero(c):
        return None
    unit, factors = bf_squarefree_decomposition(field, c)
    if any(m % 2 for _, m in factors):
        return None
    s = [field.one()]
    for g, m in factors:
        for _ in range(m // 2):
            s = bf_mul(field, s, g)
    return unit, s


def bf_rational_roots(field, c):
    """Projective roots with multiplicity of a nonzero form of degree <= 2,
    as [((a0, a1), mult)] with coordinates in `field`; None when the two
    roots are conjugate over it."""
    c = [field.coerce(x) for x in c]
    d = len(c) - 1
    if bf_is_zero(c):
        raise ValidationError("roots of the zero form")
    if d == 0:
        return []
    if d == 1:
        # c0 x0 + c1 x1 vanishes at (c1, -c0)
        return [((c[1], -c[0]), 1)]
    if d != 2:
        raise ValidationError("bf_rational_roots handles degree <= 2 only")
    q0, q1, q2 = c
    if not q0:
        if q1:
            return [((field.one(), field.zero()), 1), ((-q2 / q1, field.one()), 1)]
        return [((field.one(), field.zero()), 2)]
    disc = q1 * q1 - 4 * q0 * q2
    if not disc:
        return [((-q1 / (2 * q0), field.one()), 2)]
    r = field.sqrt(disc)
    if r is None:
        return None
    t1 = (-q1 + r) / (2 * q0)
    t2 = (-q1 - r) / (2 * q0)
    return [((t1, field.one()), 1), ((t2, field.one()), 1)]


def bf_roots_small(field, c, ext=None):
    """All projective roots with multiplicity, for deg(c) <= 2.

    Returns (field_used, [((a0, a1), mult)]); coordinates live in `field` when
    the form splits there and otherwise in a quadratic extension (``ext`` if
    given, else the default one).
    """
    roots = bf_rational_roots(field, c)
    if roots is not None:
        return field, roots
    q0, q1, q2 = (field.coerce(x) for x in c)
    E = ext if ext is not None else field.quadratic_extension()
    rr = E.sqrt(E.coerce(q1 * q1 - 4 * q0 * q2))
    if rr is None:
        raise AssertionError("discriminant has no square root in the quadratic extension")
    t1 = (E.coerce(-q1) + rr) / E.coerce(2 * q0)
    t2 = (E.coerce(-q1) - rr) / E.coerce(2 * q0)
    return E, [((t1, E.one()), 1), ((t2, E.one()), 1)]


# ---------------------------------------------------------------------------
# discriminants, resultants and the quartic j-invariant


def quadratic_discriminant(f, block):
    """B^2 - 4AC for a form of degree 2 in the chosen block."""
    if f.degree[block] != 2:
        raise ValidationError("quadratic discriminant needs degree 2 in the block")
    A, B, C = f.coeff_forms(block)
    return B * B - (A * C).scale(4)


def linear_resultant(f1, f2, block):
    """A1*B2 - A2*B1 for two forms of degree 1 in the chosen block; its zero
    locus is the image of the incidence under forgetting that block."""
    if f1.degree[block] != 1 or f2.degree[block] != 1:
        raise ValidationError("linear resultant needs degree 1 in the block")
    A1, B1 = f1.coeff_forms(block)
    A2, B2 = f2.coeff_forms(block)
    return A1 * B2 - A2 * B1


def quartic_invariants(field, q):
    if len(q) != 5:
        raise ValidationError("need a binary quartic")
    a0, a1, a2, a3, a4 = (field.coerce(x) for x in q)
    i_inv = 12 * a0 * a4 - 3 * a1 * a3 + a2 * a2
    j_inv = (
        72 * a0 * a2 * a4
        - 27 * a0 * a3 * a3
        - 27 * a1 * a1 * a4
        + 9 * a1 * a2 * a3
        - 2 * a2 * a2 * a2
    )
    return i_inv, j_inv


def j_from_quartic(field, q):
    """j-invariant of the double cover branched at the quartic's roots.

    Normalized so that a quartic with harmonic roots gives 1728.  Undefined
    (raises SpecialPosition) when the quartic has a repeated root.
    """
    I, J = quartic_invariants(field, q)
    den = 4 * I * I * I - J * J
    if not den:
        raise SpecialPosition("repeated branch point: j undefined")
    return 6912 * I * I * I / den
