"""Multihomogeneous polynomials on products of projective lines.

A ``MultiPoly`` is homogeneous of a fixed degree in each of 1--3 blocks of two
variables.  Exponent tuples concatenate the per-block exponents, so a
bidegree-(2,2) form on P1 x P1 stores keys like (2,0,1,1).  The product of
two forms is the schoolbook sum over pairs of terms on every field.  Over
F_p, a product of polynomials given by residues can be one product of
integers (Kronecker substitution, `residue_product`), which the products
of sections modulo a member use (`linebundles.NormalForm.product`).

Binary forms (one block) double as plain coefficient lists
``[c0, ..., cd]`` meaning ``sum c[i] * x0^(d-i) * x1^i``; the ``bf_*`` /
``uv_*`` helpers below implement exact gcds and division for them, and read
root multiplicities off the chain of gcds of partial derivatives.  Everything
is valid over Q and over F_p with p > deg.
"""

from __future__ import annotations

from math import prod
from operator import add

from .errors import SpecialPosition, ValidationError
from .exactmath import QuadExtField, scalar_from_json, scalar_to_json


def monomial_basis(degree):
    """Exponent tuples of the given multidegree, in the fixed order used
    everywhere: first block outermost, exponents of each block's first
    variable descending."""
    blocks = [[(d - i, i) for i in range(d + 1)] for d in degree]
    out = [()]
    for b in blocks:
        out = [e + be for e in out for be in b]
    return out


def monomial_values(field, point, d):
    """Values at point = (a0, a1) of the binary monomials of degree d,
    [a0^d, a0^(d-1)*a1, ..., a1^d], indexed by the exponent of a1: built
    from the powers of a0 and a1 by products, without exponentiation."""
    if d == 0:
        return [field.one()]
    a0, a1 = point
    p0, p1 = [a0], [a1]  # p0[i] = a0^(i+1)
    for _ in range(d - 1):
        p0.append(p0[-1] * a0)
        p1.append(p1[-1] * a1)
    return [p0[-1]] + [p0[d - 1 - i] * p1[i - 1] for i in range(1, d)] + [p1[-1]]


def residue_product(p, factors, size):
    """Coefficients of a product of polynomials over F_p by Kronecker
    substitution, as `size` nonnegative ints, not reduced mod p.

    Each factor is a list of (slot, residue) pairs with residues in [0, p),
    its monomials numbered so that the slot of a product of monomials is the
    sum of theirs, below `size`.  A factor becomes the one int
    sum(residue << slot * bits), and the factors are multiplied as ints.  A
    coefficient of the product is a sum of at most prod(len(factor)) terms,
    each at most (p - 1)^len(factors), so with `bits` one more than the bit
    length of prod(len(factor) * (p - 1)) no slot overflows into the next
    and each coefficient is read off its own slot."""
    bits = prod(len(f) * (p - 1) for f in factors).bit_length() + 1
    acc = 1
    for f in factors:
        x = 0
        for slot, v in f:
            x |= v << slot * bits
        acc *= x
    mask = (1 << bits) - 1
    return [acc >> shift & mask for shift in range(0, size * bits, bits)]


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
            F = self.field
            deg = tuple(map(add, self.degree, other.degree))
            t = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(map(add, e1, e2))
                    c = c1 * c2
                    t[e] = t[e] + c if e in t else c
            t = {e: c for e, c in t.items() if c}
            out = MultiPoly.zero(F, deg)
            out.terms = t
            return out
        return self.scale(other)

    __rmul__ = __mul__

    # -- evaluation and substitution ----------------------------------------

    def eval_full(self, points):
        """points: one (a0, a1) pair per block."""
        if len(points) != self.nblocks():
            raise ValidationError("wrong number of evaluation points")
        F = self.field
        tables = [monomial_values(F, pt, d) for pt, d in zip(points, self.degree)]
        acc = None
        for e, c in self.terms.items():
            for t, k in zip(tables, e[1::2]):
                c = c * t[k]
            acc = c if acc is None else acc + c
        return F.zero() if acc is None else acc

    def eval_block(self, block, point):
        """Substitute a point into one block; result lives on the rest."""
        table = monomial_values(self.field, point, self.degree[block])
        deg = tuple(d for b, d in enumerate(self.degree) if b != block)
        t = {}
        for e, c in self.terms.items():
            val = c * table[e[2 * block + 1]]
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
            expanded = bf_mul(F, expanded, _binary_pow(F, rows[1], e1))
            for j, coef in enumerate(expanded):
                if not coef:
                    continue
                ne = list(e)
                ne[2 * block] = len(expanded) - 1 - j
                ne[2 * block + 1] = j
                out = out + MultiPoly.monomial(F, self.degree, tuple(ne), c * coef)
        return out

    # -- views -------------------------------------------------------------

    def coeff_forms(self, block):
        """Coefficients with respect to one block, as polynomials on the rest.

        Returns the list indexed by the block exponent (d,0), (d-1,1), ...,
        (0,d); for a bidegree-(2,2) form and block=1 this is (A, B, C) with
        f = A*y0^2 + B*y0*y1 + C*y1^2.
        """
        deg_rest = tuple(dd for b, dd in enumerate(self.degree) if b != block)
        # distinct exponents have distinct (block exponent, rest) pairs
        parts = [{} for _ in range(self.degree[block] + 1)]
        for e, c in self.terms.items():
            parts[e[2 * block + 1]][e[: 2 * block] + e[2 * block + 2:]] = c
        out = []
        for t in parts:
            form = MultiPoly.zero(self.field, deg_rest)
            form.terms = t
            out.append(form)
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
        if not _int_list(obj["degree"]) or not isinstance(obj["terms"], list):
            raise ValidationError("'degree' is a list of integers and 'terms' a list")
        terms = {}
        for t in obj["terms"]:
            if not isinstance(t, dict) or not _int_list(t.get("exp")) or "coef" not in t:
                raise ValidationError(f"a term is an integer list 'exp' and a 'coef', got {t!r}")
            exp = tuple(t["exp"])
            c = scalar_from_json(field, t["coef"])
            terms[exp] = terms.get(exp, field.zero()) + c
        return cls(field, obj["degree"], terms)

    def __repr__(self):
        return f"MultiPoly{self.degree}<{len(self.terms)} terms>"


def _int_list(v):
    return isinstance(v, list) and all(type(e) is int for e in v)


def random_multipoly(field, degree, rng):
    t = {e: field.random(rng) for e in monomial_basis(degree)}
    return MultiPoly(field, degree, t)


def _binary_pow(field, lin, e):
    """(lin[0]*x0 + lin[1]*x1)^e as coefficient list [x0^e, ..., x1^e]."""
    out = [field.one()]
    for _ in range(e):
        out = bf_mul(field, out, [lin[0], lin[1]])
    return out


# ---------------------------------------------------------------------------
# univariate helpers (dense lists, low degree first, trimmed)


def uv_trim(u):
    while u and not u[-1]:
        u.pop()
    return u


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


# ---------------------------------------------------------------------------
# binary forms


def bf_is_zero(c):
    return not any(c)


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


def bf_gcd_chain(field, c):
    """[g_0, g_1, ..., g_K] with g_0 = c, g_{k+1} the gcd of the two partial
    derivatives of g_k, and g_K the first constant.

    Over the closure c = prod l_i^m_i; when char = 0 or char > deg c, Euler's
    identity d*g = x0*dg/dx0 + x1*dg/dx1 makes the gcd of the partials
    prod l_i^(m_i - 1), so g_k = prod l_i^max(m_i - k, 0) up to a scalar and
    deg g_k - deg g_{k+1} roots of c have multiplicity above k.
    """
    if bf_is_zero(c):
        raise ValidationError("root multiplicities of the zero form")
    p = field.characteristic
    if p and p <= len(c) - 1:
        raise ValidationError("root multiplicities need char 0 or char > deg")
    chain = [c]
    while len(c) > 1:
        d = len(c) - 1
        c = bf_gcd(field, [(d - i) * c[i] for i in range(d)],
                   [(i + 1) * c[i + 1] for i in range(d)])
        chain.append(c)
    return chain


def bf_multiplicity_pattern(field, c):
    """Sorted (descending) multiset of root multiplicities over the closure:
    the conjugate of the partition whose k-th part, deg g_k - deg g_{k+1}
    along `bf_gcd_chain`, counts the roots of multiplicity above k."""
    degrees = [len(g) - 1 for g in bf_gcd_chain(field, c)]
    above = [a - b for a, b in zip(degrees, degrees[1:])]
    return tuple(sum(1 for n in above if n > j) for j in range(max(above, default=0)))


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


def bf_roots_small(field, c):
    """All projective roots with multiplicity, for deg(c) <= 2.

    Returns (field_used, [((a0, a1), mult)]); coordinates live in `field` when
    the form splits there and otherwise in the default quadratic extension of
    a prime field.  Over Q and F_{p^2}, which have none, conjugate roots raise
    ValidationError.
    """
    roots = bf_rational_roots(field, c)
    if roots is not None:
        return field, roots
    E = QuadExtField(field)
    return E, bf_rational_roots(E, [E.coerce(x) for x in c])


# ---------------------------------------------------------------------------
# discriminants, resultants and the quartic j-invariant


def quadratic_discriminant(f, block):
    """B^2 - 4AC for a two-block form f = A*z0^2 + B*z0*z1 + C*z1^2 of
    degree 2 in the chosen block, as a binary coefficient list on the other
    block: A, B and C are read off the terms as binary lists in one pass."""
    if f.nblocks() != 2 or f.degree[block] != 2:
        raise ValidationError("quadratic discriminant needs two blocks and degree 2 in the block")
    F = f.field
    other = 1 - block
    abc = [[F.zero()] * (f.degree[other] + 1) for _ in range(3)]
    for e, c in f.terms.items():
        abc[e[2 * block + 1]][e[2 * other + 1]] = c
    A, B, C = abc
    return bf_sub(F, bf_mul(F, B, B), bf_scale(F, bf_mul(F, A, C), 4))


def linear_resultant(f1, f2, block):
    """A1*B2 - A2*B1 for two forms of degree 1 in the chosen block; its zero
    locus is the image of the incidence under forgetting that block."""
    if f1.degree[block] != 1 or f2.degree[block] != 1:
        raise ValidationError("linear resultant needs degree 1 in the block")
    A1, B1 = f1.coeff_forms(block)
    A2, B2 = f2.coeff_forms(block)
    return A1 * B2 - A2 * B1


def _quartic_ij(q):
    """The invariants I and J of the binary quartic [a0, ..., a4], in the
    ring of its coefficients: field elements, or ints, which a caller may
    reduce mod p."""
    a0, a1, a2, a3, a4 = q
    I = 12 * a0 * a4 - 3 * a1 * a3 + a2 * a2
    J = (72 * a0 * a2 * a4 - 27 * a0 * a3 * a3 - 27 * a1 * a1 * a4
         + 9 * a1 * a2 * a3 - 2 * a2 * a2 * a2)
    return I, J


def quartic_invariants(field, q):
    if len(q) != 5:
        raise ValidationError("need a binary quartic")
    return _quartic_ij([field.coerce(x) for x in q])


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
