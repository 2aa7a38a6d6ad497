"""Quiver presentations of the surface and their moduli bookkeeping.

Three quivers on four ordered vertices present the derived category in the
cases we compute with: a three-layer quiver with doubled arrows (the generic
member), a seven-arrow quiver with a long diagonal (the middle member), and
an eight-arrow quiver mixing doubled layers with two skip arrows (the
quotient-singularity model).  Paths are tuples of arrow labels in traversal
order; every basis here is sorted lexicographically by those labels so that
coefficient vectors mean the same thing everywhere.

Stability of a four-dimensional representation (one dimension per vertex)
uses the weight (-3, 1, 1, 1): a subrepresentation is supported on a vertex
subset closed under arrows with nonzero maps, and the representation is
stable when every proper nonzero such subset has positive weight.

The strong-generation question for the pushed-forward four-term collection
reduces to line-bundle cohomology on the projective line; the matrix
builders below encode that, with the one entry pair fixed by the surface
rather than the line.
"""

from __future__ import annotations

from .bimodules import Descriptor, split_ab, split_ab_prime
from .errors import ValidationError
from .exactmath import QQ, mat_mul, rank


class Quiver:
    """Finite quiver on vertices 1..n whose arrows strictly increase the
    vertex index (so path enumeration terminates and bases are finite)."""

    __slots__ = ("n", "arrows", "_by_src")

    def __init__(self, n, arrows):
        self.n = int(n)
        labels = [lab for _, _, lab in arrows]
        if len(set(labels)) != len(labels):
            raise ValidationError("arrow labels must be distinct")
        cleaned = []
        for u, v, lab in arrows:
            u, v = int(u), int(v)
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValidationError("arrow endpoint outside the vertex range")
            if u >= v:
                raise ValidationError("arrows must strictly increase the vertex index")
            cleaned.append((u, v, str(lab)))
        self.arrows = tuple(cleaned)
        by = {}
        for u, v, lab in self.arrows:
            by.setdefault(u, []).append((v, lab))
        self._by_src = by

    def labels(self):
        return tuple(lab for _, _, lab in self.arrows)

    def path_basis(self, src, dst):
        """All directed paths src -> dst as label tuples, sorted."""
        if src == dst:
            return [()]
        out = []
        stack = [(src, ())]
        while stack:
            v, acc = stack.pop()
            for w, lab in self._by_src.get(v, ()):
                if w == dst:
                    out.append(acc + (lab,))
                elif w < dst:
                    stack.append((w, acc + (lab,)))
        return sorted(out)

    def __repr__(self):
        return f"Quiver(n={self.n}, arrows={len(self.arrows)})"


def generic_member_quiver():
    """Three doubled layers; 2*2*2 = 8 paths end to end, cut by two
    relations."""
    return Quiver(4, [
        (1, 2, "s1a"), (1, 2, "s1b"),
        (2, 3, "s2a"), (2, 3, "s2b"),
        (3, 4, "s3a"), (3, 4, "s3b"),
    ])


def middle_member_quiver():
    """Seven arrows with one diagonal through each triangle; 8 paths end to
    end (2 + 4 + 2), cut by three relations."""
    return Quiver(4, [
        (1, 2, "a1"), (1, 2, "a2"),
        (1, 3, "a3"),
        (2, 3, "a7"),
        (2, 4, "a6"),
        (3, 4, "a4"), (3, 4, "a5"),
    ])


def quotient_model_quiver():
    """Three doubled layers plus two skip arrows; 12 paths end to end
    (8 + 2 + 2), cut by a six-dimensional relation space."""
    return Quiver(4, [
        (1, 2, "a1"), (1, 2, "b1"),
        (1, 3, "c1"),
        (2, 3, "a2"), (2, 3, "b2"),
        (2, 4, "c2"),
        (3, 4, "a3"), (3, 4, "b3"),
    ])


# ---------------------------------------------------------------------------
# stability of (1,1,1,1)-representations

THETA = (-3, 1, 1, 1)


def theta_stable(quiver, maps):
    """King stability for the weight THETA of a representation with a
    one-dimensional space at each vertex, given as {arrow label: scalar}."""
    if set(maps) != set(quiver.labels()):
        raise ValidationError("representation must assign a scalar to every arrow")
    if quiver.n != len(THETA):
        raise ValidationError("the weight has one entry per vertex")
    full = (1 << quiver.n) - 1
    for mask in range(1, full):
        # support {v : bit v-1 set}; subrep <=> closed under nonzero arrows
        closed = True
        for u, v, lab in quiver.arrows:
            if mask >> (u - 1) & 1 and not mask >> (v - 1) & 1 and maps[lab]:
                closed = False
                break
        if not closed:
            continue
        if sum(THETA[v] for v in range(quiver.n) if mask >> v & 1) <= 0:
            return False
    return True


# ---------------------------------------------------------------------------
# the pushed-forward four-term collection

def p1_hom(s, t):
    """hom between degree-s and degree-t line bundles on the line."""
    return max(t - s + 1, 0)


def p1_ext(s, t):
    return max(s - t - 1, 0)


def collection_degrees(m, ab, ab_prime):
    """Line-bundle degrees of the four pushed-forward terms, first to last."""
    a, b = ab
    ap, bp = ab_prime
    if a > b or ap > bp:
        raise ValidationError("splitting types must be ordered pairs")
    return ((-m - 1,), (-m,), (ap, bp), (a, b))


def hom_ext_matrix(m, ab, ab_prime):
    """4x4 matrix of (hom, ext) pairs for the collection.  Entries above the
    diagonal are cohomology sums on the line, except the pair between the
    two split terms, which the surface fixes at (2, 0) regardless of the
    splitting types."""
    degs = collection_degrees(m, ab, ab_prime)
    M = [[(0, 0)] * 4 for _ in range(4)]
    for i in range(4):
        M[i][i] = (1, 0)
        for j in range(i + 1, 4):
            if (i, j) == (2, 3):
                M[i][j] = (2, 0)
                continue
            h = sum(p1_hom(s, t) for s in degs[i] for t in degs[j])
            e = sum(p1_ext(s, t) for s in degs[i] for t in degs[j])
            M[i][j] = (h, e)
    return M


def is_strong_matrix(M):
    return all(M[i][j][1] == 0 for i in range(4) for j in range(4))


def strong_threshold(m):
    """The collection is strong exactly when the smaller primed degree
    reaches this bound."""
    return -m - 1


def descriptor_grid():
    """Every valid descriptor with Euler characteristic 1 or 2 and all
    degree parameters in [-5, 5] (non-reduced co-support degree in
    [0, 5]).  Twist flags enumerated where the descriptor carries them;
    the returned pairs are (descriptor, shifted_flag) with the flag
    meaningful only where the primed table takes it as an argument."""
    out = []
    chis = (1, 2)
    lo, hi = -5, 5
    for a in range(lo, hi + 1):
        for b in range(a, hi + 1):
            if a + b + 2 in chis:
                out.append((Descriptor("split-pair", a=a, b=b), False))
                out.append((Descriptor("two-lines", p=a, q=b), False))
    for chi in chis:
        for degd in range(0, 6):
            if (chi + degd) % 2:
                continue
            if degd == 0:
                for vp, sv in ((True, False), (False, True), (False, False)):
                    out.append((Descriptor(
                        "non-reduced", chi=chi, degd=0,
                        v_pullback=vp, shifted_v_pullback=sv), False))
            else:
                out.append((Descriptor("non-reduced", chi=chi, degd=degd), False))
        if chi % 2 == 0:
            for vp, tw in ((True, False), (False, True), (False, False)):
                out.append((Descriptor("integral", chi=chi, invertible=True,
                                       v_pullback=vp), tw))
        else:
            out.append((Descriptor("integral", chi=chi, invertible=True), False))
        out.append((Descriptor("integral", chi=chi, invertible=False), False))
    for p in range(lo, hi + 1):
        for q in range(p, hi + 1):
            for inv in (True, False):
                chi = p + q + (0 if inv else 1)
                if chi not in chis:
                    continue
                if inv and p == q:
                    for vp, tw in ((True, False), (False, True), (False, False)):
                        out.append((Descriptor("reducible", p=p, q=q,
                                               invertible=True, v_pullback=vp), tw))
                else:
                    out.append((Descriptor("reducible", p=p, q=q, invertible=inv), False))
    return out


def strong_m1_table():
    """For every descriptor in the grid: the splitting types, the hom/ext
    matrix of the m=1 collection, and whether it is strong."""
    rows = []
    for desc, flag in descriptor_grid():
        ab = split_ab(desc)
        abp = split_ab_prime(desc, shifted_v_pullback=flag)
        M = hom_ext_matrix(1, ab, abp)
        rows.append({
            "kind": desc.kind,
            "params": dict(desc.params),
            "shifted_flag": flag,
            "ab": ab,
            "ab_prime": abp,
            "strong": is_strong_matrix(M),
        })
    return rows


# ---------------------------------------------------------------------------
# torus weights on the middle-member quiver

def toric_weight_matrix():
    """Weights of the vertex torus (modulo the global scalar) on the seven
    arrows, columns in arrow order a1..a7."""
    return [
        [1, 1, 0, 0, 0, -1, -1],
        [0, 0, 1, -1, -1, 0, 1],
        [0, 0, 0, 1, 1, 1, 0],
    ]


def toric_kernel_matrix():
    """Integer kernel of the weight matrix: coordinates on the torus
    quotient of the arrow space, rows in arrow order a1..a7."""
    return [
        [-1, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, -1, -1],
        [0, 0, 0, 1],
        [0, -1, 0, -1],
    ]


def toric_check():
    W = toric_weight_matrix()
    K = toric_kernel_matrix()
    WQ = [[QQ.coerce(x) for x in row] for row in W]
    KQ = [[QQ.coerce(x) for x in row] for row in K]
    prod = mat_mul(WQ, KQ)
    zero = all(not x for row in prod for x in row)
    return {
        "product_zero": zero,
        "weight_rank": rank(QQ, WQ),
        "kernel_rank": rank(QQ, [list(r) for r in KQ]),
        "arrows": 7,
        "quotient_dim": 7 - rank(QQ, WQ),
    }


# ---------------------------------------------------------------------------
# dimension bookkeeping for relation pairs on the three-layer quiver

def relation_pair_action_rank(field, r1, r2):
    """Rank of the infinitesimal symmetry action at a concrete relation
    pair.  The path space end to end is a triple tensor product of planes;
    a 2x2 matrix algebra acts on each layer and a fourth mixes the pair.
    16 minus this rank is the stabilizer dimension (>= 3: the three scalar
    redundancies among the four identity directions)."""
    if len(r1) != 8 or len(r2) != 8:
        raise ValidationError("relations must be coefficient vectors on the 8 paths")
    R = [[field.coerce(x) for x in r1], [field.coerce(x) for x in r2]]
    cols = []

    def idx(i, j, k):
        return 4 * i + 2 * j + 1 * k

    for layer in range(3):
        for p in (0, 1):
            for q in (0, 1):
                img = [[field.zero()] * 8 for _ in range(2)]
                for row in (0, 1):
                    for i in (0, 1):
                        for j in (0, 1):
                            for k in (0, 1):
                                src = [i, j, k]
                                if src[layer] != q:
                                    continue
                                dst = list(src)
                                dst[layer] = p
                                img[row][idx(*dst)] = (
                                    img[row][idx(*dst)] + R[row][idx(i, j, k)]
                                )
                cols.append(img[0] + img[1])
    for p in (0, 1):
        for q in (0, 1):
            img = [[field.zero()] * 8 for _ in range(2)]
            img[p] = list(R[q])
            cols.append(img[0] + img[1])
    return rank(field, [list(col) for col in zip(*cols)])


def relation_moduli_dims():
    """Static count: a pair of relations in the eight-dimensional path
    space has 16 coefficients; the symmetry group (three layer matrix
    algebras plus the pair-mixing one) has dimension 16 with a generic
    three-dimensional stabilizer."""
    out = {
        "relation_parameters": 16,
        "symmetry_dim": 16,
        "generic_stabilizer": 3,
    }
    out["moduli_dim"] = out["relation_parameters"] - out["symmetry_dim"] + out["generic_stabilizer"]
    return out
