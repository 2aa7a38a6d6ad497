"""Differential tests against sympy, an implementation written apart from
this package: ranks over GF(p), root-multiplicity patterns of binary
forms and the factorization of members.  Skipped where sympy is not
installed; it is never a runtime dependency."""

import itertools
import random

import pytest

from bimodulus.curves import KINDS, factor_11, kodaira_classify, make_kind
from bimodulus.errors import ValidationError
from bimodulus.exactmath import PrimeField, rank, sparse_rank
from bimodulus.polyring import bf_is_zero, bf_mul, bf_multiplicity_pattern, random_multipoly

sympy = pytest.importorskip("sympy")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix


@pytest.mark.parametrize("p", [5, 7, 101])
def test_ranks_match_sympy_over_gf_p(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice([0.2, 0.5, 1.0])
        vals = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if rng.random() < 0.3:
            vals.append(list(vals[0]))
        want = DomainMatrix.from_list(vals, sympy.GF(p)).rank()
        rows = [[F(v) for v in row] for row in vals]
        assert rank(F, rows) == want
        assert sparse_rank(F, [{j: x for j, x in enumerate(r) if x} for r in rows]) == want


def _sympy_pattern(p, c):
    """Root multiplicities of the binary form c[0] x0^d + ... + c[d] x1^d
    over the closure of GF(p), from sympy's squarefree factorization of
    f(s, 1); the root at [1:0] has the multiplicity of the leading zeros."""
    s = sympy.symbols("s")
    vals = [x.v for x in c]
    inf = next(i for i, v in enumerate(vals) if v)
    pat = [inf] if inf else []
    poly = sympy.Poly(vals[inf:], s, modulus=p)
    for g, m in poly.sqf_list()[1]:
        pat.extend([m] * g.degree())
    return tuple(sorted(pat, reverse=True))


@pytest.mark.parametrize("p", [7, 11, 101])
def test_multiplicity_patterns_match_sympy_sqf_list(p):
    F = PrimeField(p)
    rng = random.Random(1000 + p)
    for _ in range(60):
        if rng.random() < 0.5:
            d = rng.randint(1, 6)
            c = [F(rng.randrange(p)) for _ in range(d + 1)]
        else:
            # products of linear forms with repeats, [1:0] included
            lins = [[F(rng.randrange(p)), F(1)] if rng.random() < 0.8 else [F(0), F(1)]
                    for _ in range(rng.randint(1, 3))]
            c = [F(1)]
            for _ in range(rng.randint(1, 6)):
                c = bf_mul(F, c, rng.choice(lins))
        if bf_is_zero(c):
            continue
        assert bf_multiplicity_pattern(F, c) == _sympy_pattern(p, c)


S, T, Z = sympy.symbols("s t z")


def _least_factor(g, p):
    """A nonconstant divisor of g(s, t), deg_s g and deg_t g <= 2, of least
    degree after the Kronecker substitution s = z, t = z^3, found among
    the sub-products of sympy's factors of g(z, z^3) over GF(p); the
    substitution is a ring map, so that divisor is irreducible.  Exact:
    z^k has the single preimage s^(k mod 3) t^(k div 3) in degree <= 8."""
    K = sympy.Poly(g.as_expr().subs({S: Z, T: Z**3}), Z, modulus=p)
    pool = [h for h, m in K.factor_list()[1] for _ in range(m)]
    subsets = (c for r in range(1, len(pool) + 1)
               for c in itertools.combinations(pool, r))
    for prod in sorted((sympy.prod(c) for c in subsets), key=lambda P: P.degree()):
        lift = sum(c * S ** (k % 3) * T ** (k // 3) for (k,), c in prod.as_dict().items())
        d = sympy.Poly(lift, S, T, modulus=p)
        if g.rem(d).is_zero:
            return d
    raise AssertionError("no divisor found")


def _sympy_factors(f, p):
    """Irreducible factors over GF(p), with multiplicity, of the affine chart
    x1 = y1 = 1 of a member without fiber components, as (bidegree, mult)."""
    g = sympy.Poly(sum(c.v * S ** e[0] * T ** e[2] for e, c in f.terms.items()),
                   S, T, modulus=p)
    out = []
    while g.total_degree() > 0:
        d = _least_factor(g, p)
        m = 0
        while g.rem(d).is_zero:
            g = g.quo(d)
            m += 1
        out.append(((d.degree(S), d.degree(T)), m))
    return sorted(out)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_kodaira_classify_matches_sympy_factorization(p):
    F = PrimeField(p)
    rng = random.Random(2000 + p)
    members = [make_kind(F, kind, rng) for kind in KINDS for _ in range(3)]
    members += [random_multipoly(F, (2, 2), rng) for _ in range(30)]
    seen = set()
    for f in members:
        try:
            kind = kodaira_classify(f)
        except ValidationError:
            continue  # a fiber component: off the affine chart
        factors = _sympy_factors(f, p)
        if kind in ("I0", "I1", "II"):
            assert factors == [((2, 2), 1)]
        elif kind == "NonReduced":
            assert factors == [((1, 1), 2)]
        elif factors == [((2, 2), 1)]:
            # two (1,1) components conjugate over GF(p)
            assert factor_11(f)[0] is not F
        else:
            assert factors == [((1, 1), 1), ((1, 1), 1)]
        seen.add(kind)
    assert seen == set(KINDS)
