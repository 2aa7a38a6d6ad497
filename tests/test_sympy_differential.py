"""Differential tests against sympy, an implementation written apart from
this package: ranks over GF(p) and root-multiplicity patterns of binary
forms.  Skipped where sympy is not installed; it is never a runtime
dependency."""

import random

import pytest

from bimodulus.exactmath import PrimeField, rank, sparse_rank
from bimodulus.polyring import bf_is_zero, bf_mul, bf_multiplicity_pattern

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
