"""The quotient-singularity model: graded algebra, quiver relations, and
the matrix model that ties them together.

The algebra has three generators of weights (1, 1, d) with the two weight-1
generators commuting, the heavy generator q-commuting past the first and
commuting with the second.  Its graded dimensions match the weighted count
of monomials, and for d = 2 the eight-arrow quiver with two skip arrows
presents the same algebra: the two-sided closure of the four quadratic
relations leaves exactly the graded dimension between any two collection
degrees.

The matrix model sends each arrow to a homomorphism between direct sums of
line bundles on the line; evaluating the twelve end-to-end paths there gives
a linear map whose kernel must coincide with the relation closure, for every
nonzero deformation parameter.  That equality is the computable content of
the derived equivalence here.
"""

from __future__ import annotations

from .errors import ValidationError
from .exactmath import kernel_basis, rank, subspace_equal
from .polyring import bf_mul, bf_scale
from .quivers import quotient_model_quiver


# ---------------------------------------------------------------------------
# graded dimensions


def s_graded_dim(d, n):
    """Number of monomials x^i y^j z^k of weight i + j + d*k = n."""
    if d < 1:
        raise ValidationError("the heavy weight must be positive")
    if n < 0:
        return 0
    return sum(n - d * k + 1 for k in range(n // d + 1))


def s_hilbert_coeffs(d, upto=20):
    """Power-series coefficients of 1/((1-t)^2 (1-t^d)) through t^upto."""
    return [s_graded_dim(d, n) for n in range(upto + 1)]


def collection_degrees_quotient(d):
    """Grading degrees of the four-term collection presenting the degree-d
    quotient model."""
    if d < 2:
        raise ValidationError("the quotient model needs weight at least 2")
    return (0, 1, d, d + 1)


# ---------------------------------------------------------------------------
# the d = 2 quiver relations and their closure


def qweyl_relations(field, lam):
    """The four quadratic relations of the eight-arrow quiver, as lists of
    (coefficient, path) pairs keyed by their endpoints.

    Written with composition right to left: crossing the two doubled layers
    commutes, the long skip arrow q-commutes past the first layer with
    parameter lam and commutes plainly past the second.
    """
    lam = field.coerce(lam)
    if not lam:
        raise ValidationError("the deformation parameter must be invertible")
    one = field.one()
    return {
        (1, 3): [[(one, ("a1", "b2")), (-one, ("b1", "a2"))]],
        (2, 4): [[(one, ("a2", "b3")), (-one, ("b2", "a3"))]],
        (1, 4): [
            [(one, ("a1", "c2")), (-lam, ("c1", "a3"))],
            [(one, ("b1", "c2")), (-one, ("c1", "b3"))],
        ],
    }


def _relation_vectors(field, quiver, relations, src, dst):
    """Two-sided closure of the relations inside the path space src -> dst,
    as coefficient vectors over the sorted path basis."""
    paths = quiver.path_basis(src, dst)
    index = {p: i for i, p in enumerate(paths)}
    vecs = []
    for (u, v), rels in relations.items():
        for rel in rels:
            for left in quiver.path_basis(src, u):
                for right in quiver.path_basis(v, dst):
                    vec = [field.zero()] * len(paths)
                    for coeff, mid in rel:
                        vec[index[left + mid + right]] = coeff
                    vecs.append(vec)
    return paths, vecs


def closure_dim(field, lam, src, dst):
    """Dimension of the two-sided relation closure inside the paths
    src -> dst."""
    quiver = quotient_model_quiver()
    _, vecs = _relation_vectors(field, quiver, qweyl_relations(field, lam), src, dst)
    return rank(field, vecs)


def collection_hom_dims(field, lam):
    """4x4 matrix of hom dimensions of the weight-2 presentation, computed
    as path counts modulo the relation closure; must reproduce the graded
    dimensions of the algebra."""
    quiver = quotient_model_quiver()
    out = [[0] * 4 for _ in range(4)]
    for i in range(1, 5):
        for j in range(i, 5):
            out[i - 1][j - 1] = len(quiver.path_basis(i, j)) - closure_dim(field, lam, i, j)
    return out


# ---------------------------------------------------------------------------
# matrix model over the line


def _arrow_matrices(field, lam):
    """Each arrow as a matrix of binary forms between sums of line bundles
    of degrees (-1), (0), (1, -1), (2, 0); an entry from degree s to degree
    t is a form of degree t - s, or None when t < s."""
    lam = field.coerce(lam)
    if not lam:
        raise ValidationError("the deformation parameter must be invertible")
    z, o = field.zero(), field.one()
    x = [o, z]
    y = [z, o]
    return {
        "a1": [[x]], "b1": [[y]],
        "a2": [[x], [None]], "b2": [[y], [None]],
        "c1": [[None], [[o]]],
        "a3": [[x, None], [None, bf_scale(field, x, o / lam)]],
        "b3": [[y, None], [None, y]],
        "c2": [[None], [[o]]],
    }


def _mat_compose(field, A, B):
    """Composite A after B for matrices of binary forms (None = zero in a
    negative-degree slot)."""
    rows, mids, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(rows):
        row = []
        for k in range(cols):
            acc = None
            for j in range(mids):
                a, b = A[i][j], B[j][k]
                if a is None or b is None:
                    continue
                term = bf_mul(field, a, b)
                acc = term if acc is None else [p + q for p, q in zip(acc, term)]
            row.append(acc)
        out.append(row)
    return out


def path_evaluations(field, lam):
    """Flattened evaluation of the twelve end-to-end paths in the matrix
    model: a degree-3 form stacked on a degree-1 form, six coordinates."""
    quiver = quotient_model_quiver()
    mats = _arrow_matrices(field, lam)
    vecs = []
    for path in quiver.path_basis(1, 4):
        M = mats[path[0]]
        for lab in path[1:]:
            M = _mat_compose(field, mats[lab], M)
        top = M[0][0] if M[0][0] is not None else [field.zero()] * 4
        bot = M[1][0] if M[1][0] is not None else [field.zero()] * 2
        if len(top) != 4 or len(bot) != 2:
            raise AssertionError("composite has unexpected degrees")
        vecs.append(list(top) + list(bot))
    return vecs


def matrix_model_kernel(field, lam):
    """Left kernel of the path evaluations: coefficient vectors of path
    combinations acting as zero in the matrix model."""
    vecs = path_evaluations(field, lam)
    rows = [list(col) for col in zip(*vecs)]
    return kernel_basis(field, rows, len(vecs))


def closure_equals_model_kernel(field, lam):
    """The computable equivalence statement: the two-sided relation closure
    inside the twelve paths coincides with the matrix-model kernel."""
    quiver = quotient_model_quiver()
    _, vecs = _relation_vectors(field, quiver, qweyl_relations(field, lam), 1, 4)
    ker = matrix_model_kernel(field, lam)
    dim = rank(field, vecs)
    return {
        "closure_dim": dim,
        "kernel_dim": len(ker),
        "equal": subspace_equal(field, vecs, ker),
        "paths": 12,
        "quotient_dim": 12 - dim,
        "graded_dim_3": s_graded_dim(2, 3),
    }


# ---------------------------------------------------------------------------
# word rewriting for the graded algebra (any weight)


def qweyl_normal_form(field, lam, word):
    """Normal form of a word in the generators {x, y, z} under the ordered
    rewriting yx -> xy, zx -> lam xz, zy -> yz; returns {normal word:
    coefficient}.  Terminates because every step removes an inversion."""
    lam = field.coerce(lam)
    if not lam:
        raise ValidationError("the deformation parameter must be invertible")
    order = {"x": 0, "y": 1, "z": 2}
    for ch in word:
        if ch not in order:
            raise ValidationError("words use the generators x, y, z")
    out = {}
    stack = [(tuple(word), field.one())]
    while stack:
        w, c = stack.pop()
        for i in range(len(w) - 1):
            if order[w[i]] > order[w[i + 1]]:
                swapped = w[:i] + (w[i + 1], w[i]) + (w[i + 2:])
                factor = lam if (w[i], w[i + 1]) == ("z", "x") else field.one()
                stack.append((swapped, c * factor))
                break
        else:
            key = "".join(w)
            out[key] = out.get(key, field.zero()) + c
    return {k: v for k, v in out.items() if v}


def overlap_confluence(field, lam):
    """Resolve the single critical overlap zyx two ways; both must reach
    lam * xyz."""
    lam = field.coerce(lam)
    # reduce the left pair first: (zy)x -> yzx -> lam yxz -> lam xyz
    left = qweyl_normal_form(field, lam, "yzx")
    # reduce the right pair first: z(yx) -> zxy -> lam xzy -> lam xyz
    right = qweyl_normal_form(field, lam, "zxy")
    expected = {"xyz": lam}
    return left == expected and right == expected
