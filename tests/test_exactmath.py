"""Field plumbing and the exact linear algebra kernel.

Everything downstream trusts rref/rank/kernel blindly, so the properties
here are checked over both Q and a prime field with randomized matrices.
"""

import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimodulus import exactmath
from bimodulus.errors import ValidationError
from bimodulus.exactmath import (
    PRIME_BOUND,
    QQ,
    FpElt,
    PrimeField,
    QEElt,
    QuadExtField,
    _is_prime,
    block_ranks,
    field_from_json,
    kernel_basis,
    mat_mul,
    rank,
    reduce_modulo,
    rref,
    scalar_from_json,
    scalar_to_json,
    sparse_rank,
    subspace_equal,
    sum_prod,
)
from oracles import (
    generic_rref,
    generic_sparse_rank,
    quad_ext_sqrt_table,
    random_element,
    scalar_reduce_modulo,
    span_contains,
)


def test_prime_field_rejects_characteristic_2_and_3():
    for p in (2, 3):
        with pytest.raises(ValidationError):
            PrimeField(p)
    assert PrimeField(5).characteristic == 5


def test_prime_field_rejects_composites():
    with pytest.raises(ValidationError):
        PrimeField(91)


def test_primality_agrees_with_trial_division_below_10_5():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(10 ** 5) if _is_prime(n)] == [n for n in range(10 ** 5) if trial(n)]


def test_strong_pseudoprimes_are_composite():
    # 2047 fools base 2, 3215031751 the bases 2, 3, 5 and 7, and the last
    # one every prime base up to 37
    for n in (2047, 3215031751, 318665857834031151167461):
        assert not _is_prime(n)
        with pytest.raises(ValidationError):
            PrimeField(n)
    for p in (10 ** 14 + 31, 2 ** 61 - 1, 2 ** 79 - 67):
        assert _is_prime(p) and PrimeField(p).p == p


def test_primes_beyond_the_bound_are_rejected_at_once():
    start = time.process_time()
    for p in (PRIME_BOUND, 10 ** 30 + 57, 10 ** 40 + 3):
        with pytest.raises(ValidationError):
            PrimeField(p)
    assert time.process_time() - start < 0.5


def test_fraction_square_roots_are_exact_on_huge_rationals():
    rng = random.Random(5)
    start = time.process_time()
    for digits in (1, 20, 48, 155, 200, 400):
        for _ in range(5):
            n = rng.randrange(10 ** (digits - 1), 10 ** digits)
            d = rng.randrange(1, 10 ** digits)
            root = Fraction(n, d)
            assert QQ.sqrt(root * root) == root and QQ.is_square(root * root)
            assert QQ.sqrt(-root * root) is None
            # n^2 + 1 is never a square
            assert QQ.sqrt(Fraction(n * n + 1, d * d)) is None
            assert not QQ.is_square(Fraction(n * n, d * d + 2 * d))
    assert time.process_time() - start < 0.5


def test_fp_format_parse_roundtrip(F101):
    rng = random.Random(1)
    for _ in range(20):
        x = F101.random(rng)
        assert F101.parse(F101.format(x)) == x


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(101), QuadExtField(PrimeField(5))],
                         ids=["Q", "F5", "F101", "F25"])
def test_a_random_element_is_the_element_of_its_key(field):
    # each draw is the keyless oracle's, from the same generator calls
    for seed in range(4):
        drawn, plain = random.Random(seed), random.Random(seed)
        for _ in range(60):
            x = field.random(drawn)
            assert x == random_element(field, plain)
            assert type(x) is type(random_element(field, random.Random(0)))
            assert drawn.getstate() == plain.getstate()


_E5, _Q2 = QuadExtField(PrimeField(5)), QuadExtField(QQ, 2)
# values no field of the contract below takes: an element of another prime
# field, a float, and an element of another extension
_FOREIGN = (FpElt(13, 3), 1.5, QEElt(QuadExtField(QQ, 3), Fraction(1), Fraction(1)))


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(101), PrimeField(2 ** 61 - 1),
                                   QQ, _E5, _Q2],
                         ids=["F5", "F101", "F2^61-1", "Q", "F25", "Q(sqrt2)"])
def test_ints_give_the_values_in_the_field_representation(field):
    rng = random.Random(5)
    values = [field.random(rng) for _ in range(12)] + [field.zero(), 0, 7, -3, Fraction(2, 3)]
    got = field.ints(values)
    if isinstance(field, PrimeField):
        assert field.modulus == field.p
        assert got == [field.coerce(x).v for x in values]
    elif field == QQ:
        assert field.modulus == 0
        assert all(type(v) is int for v in got)
        # one positive factor for all the values, the lcm of their
        # denominators, and the zeros kept
        factor = got[values.index(7)] // 7
        assert factor > 0 and factor % 3 == 0
        assert [Fraction(v) for v in got] == [factor * x for x in values]
    else:
        assert field.modulus == 0
        assert got == [field.coerce(x) for x in values]
        assert all(type(v) is QEElt and v.fld == field for v in got)
    assert field.ints([]) == []
    for bad in _FOREIGN:
        with pytest.raises(ValidationError):
            field.ints([1, bad])


def test_scalar_json_roundtrip(any_field):
    rng = random.Random(2)
    for _ in range(10):
        x = any_field.random(rng)
        s = scalar_to_json(any_field, x)
        assert isinstance(s, str)
        assert scalar_from_json(any_field, s) == x


@pytest.mark.parametrize(
    "obj,char",
    [({"kind": "Q"}, 0), ({"kind": "Fp", "p": 101}, 101),
     ({"kind": "quad-ext", "base": {"kind": "Fp", "p": 7}, "d": 3}, 7),
     ({"kind": "quad-ext", "base": {"kind": "Q"}, "d": "2"}, 0)],
)
def test_field_from_json(obj, char):
    f = field_from_json(obj)
    assert f.characteristic == char
    assert field_from_json(f.to_json()) == f


@pytest.mark.parametrize("obj", [
    None, {}, {"kind": "Fp"}, {"kind": "Fp", "p": "7"}, {"kind": "Fp", "p": 7.0},
    {"kind": "quad-ext"}, {"kind": "quad-ext", "base": 7},
    {"kind": "quad-ext", "base": {"kind": "Fp", "p": 7}, "d": 2.5},
    {"kind": "quad-ext", "base": {"kind": "Fp", "p": 7}, "d": [3]},
    {"kind": "quad-ext", "base": {"kind": "Q"}, "d": "two"},
    {"kind": "F4"},
])
def test_field_from_json_rejects_malformed_descriptors(obj):
    with pytest.raises(ValidationError):
        field_from_json(obj)


def test_quadratic_extension_generator_squares_to_nonresidue(F101):
    ext = QuadExtField(F101)
    g = QEElt(ext, F101.zero(), F101.one())
    assert g * g == ext.coerce(F101.smallest_nonresidue())
    # every base element acquires a square root upstairs
    rng = random.Random(3)
    for _ in range(10):
        x = ext.coerce(F101.random(rng))
        assert ext.is_square(x)
        r = ext.sqrt(x)
        assert r * r == x


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 41, 101, 1009])
def test_prime_field_square_roots_match_the_table_of_squares(p):
    # 17, 41 and 1009 are 1 mod 8 and 1009 is 1 mod 16, so Tonelli-Shanks
    # takes several rounds there
    F = PrimeField(p)
    table = {}
    for r in range(p):
        table.setdefault(r * r % p, r)
    for v in range(p):
        root = F.sqrt(v)
        assert F.is_square(v) == (v in table)
        assert (None if root is None else root.v) == table.get(v)
    assert F.smallest_nonresidue().v == min(v for v in range(2, p) if v not in table)


@pytest.mark.parametrize("field", [PrimeField(101), QQ, QuadExtField(PrimeField(5))],
                         ids=["F101", "Q", "F25"])
@pytest.mark.parametrize("rows", [[], [[]], [[], [], []]], ids=["no rows", "one", "three"])
def test_empty_matrices_need_no_elimination(field, rows):
    ncols = 0 if rows else 3
    with mock.patch.object(exactmath, "_representation", side_effect=AssertionError):
        assert rref(field, rows) == ([], [])
        assert rank(field, rows) == 0
        basis = kernel_basis(field, rows, ncols)
    one, zero = field.one(), field.zero()
    assert basis == [[one if i == j else zero for j in range(ncols)] for i in range(ncols)]


def test_prime_field_searches_for_its_nonresidue_once():
    # 1009 is 1 mod 16 and its smallest non-residue is 11, so the search
    # makes ten Euler tests; each square root makes one more
    F = PrimeField(1009)
    calls = []
    euler = PrimeField._is_residue

    def counted(self, v):
        calls.append(v)
        return euler(self, v)

    with mock.patch.object(PrimeField, "_is_residue", counted):
        for v in range(1, 50):
            assert F.sqrt(v * v).v == min(v, F.p - v)
    assert len(calls) == 49 + 10


def test_prime_field_square_roots_need_no_table():
    tracemalloc.start()
    try:
        F = PrimeField(1000003)
        for v in (4, 10, 12345, 999_999):
            r = F.sqrt(v)
            assert r is None or (r * r == v and r.v <= F.p - r.v)
        assert F.sqrt(F.smallest_nonresidue()) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101])
def test_extension_square_roots_match_the_table_of_squares(p):
    E = QuadExtField(PrimeField(p))
    table = quad_ext_sqrt_table(E)
    for x in E.elements():
        want = table.get((x.a.v, x.b.v))
        assert E.sqrt(x) == want and E.is_square(x) == (want is not None)


def test_extension_of_q_has_square_roots_off_the_base_field():
    E = QuadExtField(QQ, 2)
    for a, b in ((3, 2), (Fraction(9, 4), 1), (2, 0), (4, 0), (0, 0)):
        x = QEElt(E, Fraction(a), Fraction(b))
        r = E.sqrt(x)
        assert E.is_square(x) and r * r == x
        # the root whose first nonzero coordinate is positive
        assert (r.a or r.b) >= 0
    assert E.sqrt(QEElt(E, Fraction(3), Fraction(2))) == QEElt(E, Fraction(1), Fraction(1))
    for a, b in ((3, 0), (-1, 0), (1, 1)):
        x = QEElt(E, Fraction(a), Fraction(b))
        assert E.sqrt(x) is None and not E.is_square(x)


def test_extension_square_roots_need_no_table():
    tracemalloc.start()
    try:
        F = PrimeField(1009)
        E = QuadExtField(F)
        r = E.sqrt(E.coerce(F.smallest_nonresidue()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r * r == E.coerce(F.smallest_nonresidue())
    assert peak < 1 << 20


def _random_rows(field, rng, nrows, ncols):
    return [[field.random(rng) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), nrows=st.integers(1, 5), ncols=st.integers(1, 5))
def test_rref_is_idempotent_and_rank_shuffle_invariant(seed, nrows, ncols):
    rng = random.Random(seed)
    field = QQ if seed % 2 else PrimeField(101)
    rows = _random_rows(field, rng, nrows, ncols)
    red, piv = rref(field, rows)
    red2, piv2 = rref(field, red)
    assert red2 == red and piv2 == piv
    assert len(piv) == rank(field, rows)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rank(field, shuffled) == len(piv)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), nrows=st.integers(1, 4), ncols=st.integers(1, 5))
def test_kernel_vectors_annihilate_and_count(seed, nrows, ncols):
    rng = random.Random(seed)
    field = QQ if seed % 2 else PrimeField(101)
    rows = _random_rows(field, rng, nrows, ncols)
    ker = kernel_basis(field, rows, ncols)
    assert len(ker) == ncols - rank(field, rows)
    for v in ker:
        for row in rows:
            assert not sum_prod(row, v)
    # kernel vectors are independent
    assert rank(field, ker) == len(ker) if ker else True


def test_span_contains_and_coords(F101):
    rng = random.Random(4)
    basis = _random_rows(F101, rng, 3, 5)
    coeffs = [F101.random(rng) for _ in range(3)]
    combo = [sum_prod(coeffs, [basis[i][j] for i in range(3)]) for j in range(5)]
    assert span_contains(F101, basis, combo)


def test_subspace_equal_ignores_presentation():
    field = QQ
    a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    b = [[Fraction(2), Fraction(3)], [Fraction(5), Fraction(1)]]
    assert subspace_equal(field, a, b)
    assert not subspace_equal(field, [a[0]], b)


def test_sparse_rank_matches_dense(F101):
    rng = random.Random(5)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        dense = _random_rows(F101, rng, nrows, ncols)
        # knock out a random sprinkling of entries
        for row in dense:
            for j in range(ncols):
                if rng.random() < 0.5:
                    row[j] = F101.zero()
        sparse = [
            {j: v for j, v in enumerate(row) if v} for row in dense
        ]
        assert sparse_rank(F101, sparse) == rank(F101, dense)


_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, 3, 7, Fraction(1, 3)])


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sparse_rank_is_the_dense_rank(data):
    field = data.draw(st.sampled_from([PrimeField(5), PrimeField(101), QQ]))
    nrows = data.draw(st.integers(0, 20))
    ncols = data.draw(st.integers(0, 20))
    rows = [[field.coerce(data.draw(_ENTRIES)) for _ in range(ncols)] for _ in range(nrows)]
    if rows:
        # duplicated rows and zero rows
        picks = data.draw(st.lists(st.integers(0, nrows - 1), max_size=4))
        rows += [list(rows[i]) for i in picks]
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, len(rows))), [field.zero()] * ncols)
    sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
    assert sparse_rank(field, sparse) == rank(field, rows)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_ranks_are_the_ranks_of_every_prefix(data):
    field = data.draw(st.sampled_from([PrimeField(5), PrimeField(101), QQ, QuadExtField(PrimeField(5))]))
    ncols = data.draw(st.integers(1, 16))
    blocks = data.draw(st.lists(st.lists(st.dictionaries(
        st.integers(0, ncols - 1), _ENTRIES, max_size=5), max_size=6), max_size=6))
    got = list(block_ranks(field, ([r.items() for r in block] for block in blocks)))
    prefixes = [sum(blocks[:i + 1], []) for i in range(len(blocks))]
    assert got == [generic_sparse_rank(field, rows) for rows in prefixes]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_ranks_count_the_pivots_among_the_leading_columns(data):
    # after each block, the pivots below `lead` are the rank of the rows so
    # far restricted to those columns
    field = data.draw(st.sampled_from([PrimeField(5), PrimeField(101), QQ, QuadExtField(PrimeField(5))]))
    ncols = data.draw(st.integers(1, 16))
    lead = data.draw(st.integers(0, ncols))
    blocks = data.draw(st.lists(st.lists(st.dictionaries(
        st.integers(0, ncols - 1), _ENTRIES, max_size=5), max_size=6), max_size=6))
    got = list(block_ranks(field, ([r.items() for r in block] for block in blocks), lead=lead))
    zero = field.zero()
    want = []
    for i in range(len(blocks)):
        rows = sum(blocks[:i + 1], [])
        dense = [[field.coerce(r.get(j, zero)) for j in range(ncols)] for r in rows]
        want.append((rank(field, dense), rank(field, [row[:lead] for row in dense])))
    assert got == want


def test_block_ranks_read_a_block_only_when_asked():
    read = []

    def block(i):
        read.append(i)
        return [{i: 1}.items()]

    ranks = block_ranks(PrimeField(7), (block(i) for i in range(5)))
    assert next(ranks) == 1 and read == [0]
    assert next(ranks) == 2 and read == [0, 1]


def test_mat_mul_shapes():
    A = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    B = [[Fraction(3)], [Fraction(4)]]
    assert mat_mul(A, B) == [[Fraction(11)], [Fraction(4)]]


def _entry(p):
    """An entry of F_p as an FpElt, an int or a Fraction; the ints and
    Fractions are nonzero mod p unless zero, as the scalar loops need."""
    return st.one_of(
        st.integers(0, p - 1).map(lambda v: FpElt(p, v)),
        st.sampled_from([0, 0, 1, -1, 2, -3, 4]),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_prime_field_elimination_matches_the_scalar_loops(data):
    p = data.draw(st.sampled_from([5, 101, 1009]))
    field = PrimeField(p)
    nrows = data.draw(st.integers(0, 20))
    ncols = data.draw(st.integers(0, 20))
    entry = _entry(p)
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if rows:
        picks = data.draw(st.lists(st.integers(0, nrows - 1), max_size=4))
        rows += [list(rows[i]) for i in picks]
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, len(rows))), [0] * ncols)
        data.draw(st.randoms()).shuffle(rows)
    red, piv = rref(field, rows)
    assert (red, piv) == generic_rref(field, rows)
    assert all(x.__class__ is FpElt and x.p == p for row in red for x in row)
    assert rank(field, rows) == len(piv)
    with mock.patch.object(exactmath, "rref", generic_rref):
        want = kernel_basis(field, rows, ncols)
    assert kernel_basis(field, rows, ncols) == want
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert sparse_rank(field, sparse) == generic_sparse_rank(field, sparse) == len(piv)


_RESIDUE_PRIMES = [5, 7, 11, 101, 1009]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_reduction_modulo_an_echelon_basis_on_residues_is_the_scalar_loop(data):
    p = data.draw(st.sampled_from(_RESIDUE_PRIMES))
    field = PrimeField(p)
    ncols = data.draw(st.integers(0, 12))
    entry = _entry(p)
    basis = [[data.draw(entry) for _ in range(ncols)] for _ in range(data.draw(st.integers(0, 8)))]
    red, piv = rref(field, basis)  # an empty basis too
    vecs = [[data.draw(entry) for _ in range(ncols)], [0] * ncols, [field.zero()] * ncols]
    if red:
        # a combination of the basis rows, in their span
        coef = [data.draw(entry) for _ in red]
        vecs.append([sum((field.coerce(c) * r[j] for c, r in zip(coef, red)), field.zero())
                     for j in range(ncols)])
    for vec in vecs:
        got = reduce_modulo(field, red, piv, vec)
        assert got == scalar_reduce_modulo(field, red, piv, vec)
        assert all(x.__class__ is FpElt and x.p == p for x in got)
        assert any(got) == (not span_contains(field, red, vec))
    if ncols:
        with pytest.raises(ValidationError):
            reduce_modulo(field, red, piv, [Fraction(1, p)] + [0] * (ncols - 1))


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(1009), QQ, QuadExtField(PrimeField(7))],
                         ids=["F5", "F1009", "Q", "F49"])
@pytest.mark.parametrize("seed", range(4))
def test_rank_counts_the_pivots_of_rref(field, seed):
    rng = random.Random(seed)
    cases = [[], [[]], [[], [], []], [[0, 0, 0]], [[field.zero()] * 4] * 3]
    for _ in range(6):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[field.random(rng) if rng.randrange(3) else field.zero() for _ in range(ncols)]
                for _ in range(nrows)]
        # repeated rows make the rank fall short of the row count
        rows += [list(rng.choice(rows)) for _ in range(rng.randint(0, 3))]
        cases.append(rows)
    for rows in cases:
        assert rank(field, rows) == len(rref(field, rows)[0])


@pytest.mark.parametrize(
    "field,bad",
    [(PrimeField(101), FpElt(5, 2)), (PrimeField(101), Fraction(3, 101)), (QQ, 0.5), (QQ, FpElt(5, 2))],
    ids=["mixed-prime", "denominator", "Q-float", "Q-prime-field-element"],
)
def test_both_eliminations_reject_foreign_entries(field, bad):
    dense = [[1, 2, 0], [0, bad, 1]]
    sparse = [{0: 1, 1: 2}, {1: bad, 2: 1}]
    for fn, rows in ((rref, dense), (generic_rref, dense), (sparse_rank, sparse),
                     (generic_sparse_rank, sparse), (rank, dense)):
        with pytest.raises(ValidationError):
            fn(field, rows)
    with pytest.raises(ValidationError):
        kernel_basis(field, dense, 3)


_BIG = 10 ** 6
_Q_ENTRY = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]),
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_elimination_matches_the_scalar_loops(data):
    nrows = data.draw(st.integers(0, 10))
    ncols = data.draw(st.integers(0, 10))
    rows = [[data.draw(_Q_ENTRY) for _ in range(ncols)] for _ in range(nrows)]
    if rows:
        # repeated rows, rational multiples of rows and zero rows
        picks = data.draw(st.lists(st.integers(0, nrows - 1), max_size=4))
        rows += [list(rows[i]) for i in picks]
        for i in data.draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
            f = data.draw(st.builds(Fraction, st.integers(1, _BIG), st.integers(1, _BIG)))
            rows.append([f * x for x in rows[i]])
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, len(rows))), [0] * ncols)
        data.draw(st.randoms()).shuffle(rows)
    red, piv = rref(QQ, rows)
    assert (red, piv) == generic_rref(QQ, rows)
    assert all(x.__class__ is Fraction for row in red for x in row)
    assert rank(QQ, rows) == len(piv)
    with mock.patch.object(exactmath, "rref", generic_rref):
        want = kernel_basis(QQ, rows, ncols)
    assert kernel_basis(QQ, rows, ncols) == want
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert sparse_rank(QQ, sparse) == generic_sparse_rank(QQ, sparse) == len(piv)


def test_quadratic_extension_eliminations_read_multiples_of_p_as_zero():
    # over F_25 the int 5 is 0, so the rows are [0, 1] and [1, 1]
    F5 = PrimeField(5)
    E = QuadExtField(F5)
    rows = [[5, 1], [1, 1]]
    assert rank(E, rows) == rank(F5, rows) == 2
    assert sparse_rank(E, [{0: 5, 1: 1}]) == sparse_rank(F5, [{0: 5, 1: 1}]) == 1
    assert rref(E, [[10, 2]]) == ([[E.zero(), E.one()]], [1])
    assert generic_rref(E, rows) == rref(E, rows)


_EXTENSIONS = [QuadExtField(PrimeField(5)), QuadExtField(QQ, 2)]


def _extension_entry(E):
    """An entry of E as a QEElt, an int or a Fraction, zero often."""
    coord = st.sampled_from([0, 0, 1, -1, 2, 3]) if E.characteristic else _ENTRIES
    return st.one_of(
        st.sampled_from([0, 0, 1, -1, 2]),
        st.builds(lambda a, b: QEElt(E, E.base.coerce(a), E.base.coerce(b)), coord, coord),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extension_elimination_matches_the_scalar_oracles(data):
    E = data.draw(st.sampled_from(_EXTENSIONS), label="field")
    nrows = data.draw(st.integers(0, 6))
    ncols = data.draw(st.integers(0, 6))
    entry = _extension_entry(E)
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if rows:
        # repeated rows, multiples of rows by 2 + sqrt(d), zero rows
        picks = data.draw(st.lists(st.integers(0, nrows - 1), max_size=3))
        rows += [list(rows[i]) for i in picks]
        f = QEElt(E, E.base.coerce(2), E.base.one())
        for i in data.draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
            rows.append([f * x for x in rows[i]])
        if data.draw(st.booleans()):
            rows.insert(data.draw(st.integers(0, len(rows))), [0] * ncols)
        data.draw(st.randoms()).shuffle(rows)
    red, piv = rref(E, rows)
    assert (red, piv) == generic_rref(E, rows)
    assert all(x.__class__ is QEElt for row in red for x in row)
    assert rank(E, rows) == len(piv)
    with mock.patch.object(exactmath, "rref", generic_rref):
        want = kernel_basis(E, rows, ncols)
    assert kernel_basis(E, rows, ncols) == want
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert sparse_rank(E, sparse) == generic_sparse_rank(E, sparse) == len(piv)
