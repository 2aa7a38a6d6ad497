"""Doubled-member cohomology, descriptor tables, stability and numerology."""

import json
import pathlib
from fractions import Fraction

import pytest

import bimodulus.bimodules as bimodules
import bimodulus.linebundles as linebundles
from bimodulus.errors import ValidationError
from bimodulus.exactmath import QQ, PrimeField, QuadExtField, block_ranks, rank, sparse_rank
from bimodulus.curves import make_kind
from bimodulus.linebundles import Curve, random_line_bundle
from bimodulus.bimodules import (
    Descriptor,
    NRSheaf,
    _cech_rows,
    _dcond_rows,
    descriptor_of_line_bundle,
    descriptor_of_nr_sheaf,
    endo_ext_dims_nr,
    endo_ext_dims_reduced,
    gieseker_p,
    hilbert_polynomial,
    hochschild_dims,
    moduli_dim_check,
    nr_closed_form,
    nr_invertible_cohomology,
    nr_split_u,
    nr_split_v,
    reduced_hilbert,
    split_ab,
    split_ab_prime,
    split_of_concrete,
    split_prime_of_concrete,
    stability_classify,
)
from bimodulus.quivers import descriptor_grid

from oracles import (
    field_dcond_rows,
    generic_sparse_rank,
    is_multiple,
    nr_cohomology_per_window,
    split_h0_profile,
)

DATA = pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Cech cohomology on the doubled member


def test_invertible_cohomology_grid_against_closed_form(F101):
    for k in range(-3, 5):
        for c in (0, 1, 7):
            got = nr_invertible_cohomology(F101, k, c)
            assert got == nr_closed_form(k, c != 0), (k, c, got)


def test_invertible_cohomology_over_the_rationals():
    for k in (-1, 0, 1, 2):
        for c in (0, 1):
            got = nr_invertible_cohomology(QQ, k, c)
            assert got == nr_closed_form(k, c != 0)


def test_window_enlargement_is_stable(F101):
    base = nr_invertible_cohomology(F101, 3, 2)
    assert bimodules._nr_cohomology(F101, 3, 2, 30)[:2] == base


def test_nr_sheaf_window_grows_with_k_and_deg_d_only(F101):
    # the Cech complex sees the class through k = ku + kv alone, so the
    # window max(2|k|, deg D) + 8 gives the counts of a much larger one
    for ku, kv in ((5, -5), (-6, 2), (3, 3), (0, -4)):
        for dfin, dinf in (([], 0), ([1, 0, 1], 1), ([2, 1], 3), ([], 5)):
            s = NRSheaf(F101, ku, kv, apic=3, dfin=dfin, dinf=dinf)
            N = 2 * (abs(ku) + abs(kv)) + s.degd() + 20
            h0l, h1l, h0 = bimodules._nr_cohomology(F101, s.k, s.c, N, s.dfin, s.dinf)
            assert s.cohomology() == (h0, h1l + s.degd() - h0l + h0)


def test_nr_sheaf_euler_characteristic(F101):
    s = NRSheaf(F101, 2, 1, apic=5)
    assert s.chi() == 2 * s.k
    h0, h1 = s.cohomology()
    assert h0 == s.h0() and h0 - h1 == s.chi()
    t = NRSheaf(F101, 1, 0, apic=0, dfin=(1, 0, 2), dinf=1)
    assert t.degd() == 3
    assert t.chi() == 2 * t.k - 3
    h0, h1 = t.cohomology()
    assert h0 == t.h0() and h0 - h1 == t.chi()


def test_nr_twists_shift_classes(F101):
    s = NRSheaf(F101, 1, 1, apic=4)
    up = s.twist_u(2)
    assert (up.ku, up.kv) == (3, 1)
    vp = s.twist_v(-1)
    assert (vp.ku, vp.kv) == (1, 0)
    # pic coordinate of a u-twist moves opposite to the v-twist
    assert s.twist_v(1).pic_coordinate() == s.pic_coordinate()


def test_nr_swap_is_an_involution(F101):
    s = NRSheaf(F101, 2, -1, apic=3, dfin=(1,), dinf=1)
    d = s.swap().swap()
    assert (d.ku, d.kv, d.apic) == (s.ku, s.kv, s.apic)
    assert s.swap().chi() == s.chi()


def test_nr_split_profile_matches_direct_sum(F101):
    for (ku, kv, apic) in ((0, 0, 0), (0, 0, 3), (1, 1, 0), (2, -1, 1)):
        s = NRSheaf(F101, ku, kv, apic=apic)
        a, b = nr_split_v(s)
        assert a + b + 2 == s.chi()
        window = 4
        profile = split_h0_profile(a, b, window)
        got = [s.twist_v(j).h0() for j in range(-window, window + 1)]
        assert got == profile


@pytest.mark.parametrize("window", [3, 8])
def test_nr_split_scan_computes_each_twist_once(F101, monkeypatch, window):
    monkeypatch.setattr(linebundles, "SPLIT_WINDOW", window)
    calls = []
    h0 = NRSheaf.h0

    def counted(self):
        calls.append(self.kv)
        return h0(self)

    monkeypatch.setattr(NRSheaf, "h0", counted)
    for s in (NRSheaf(F101, 0, 0), NRSheaf(F101, 1, -1, apic=2, dfin=[1, 0, 1])):
        calls.clear()
        nr_split_v(s)
        assert len(calls) == len(set(calls)) == 2 * window + 1


def test_nr_h0_with_a_divisor_eliminates_once_per_window(F101, monkeypatch):
    # the bundle's counts and the D rows share one elimination, and it
    # gives both windows, so cohomology() of a non-invertible sheaf makes 1
    calls = []

    def counted(field, blocks, **kw):
        calls.append(field)
        return block_ranks(field, blocks, **kw)

    monkeypatch.setattr(bimodules, "block_ranks", counted)
    s = NRSheaf(F101, 1, -1, apic=2, dfin=[1, 0, 1])
    for compute in (s.h0, s.cohomology):
        calls.clear()
        compute()
        assert len(calls) == 1


def test_nr_split_runs_one_elimination_per_twist(F101, monkeypatch):
    eliminations, twists = [], []
    h0 = NRSheaf.h0

    def counted_h0(self):
        twists.append(self.kv)
        return h0(self)

    def counted_ranks(field, blocks, **kw):
        eliminations.append(field)
        return block_ranks(field, blocks, **kw)

    monkeypatch.setattr(NRSheaf, "h0", counted_h0)
    monkeypatch.setattr(bimodules, "block_ranks", counted_ranks)
    for s in (NRSheaf(F101, 0, 0), NRSheaf(F101, 4, 2, apic=3, dfin=[1, 0, 1], dinf=1),
              NRSheaf(QQ, 3, -1, apic=Fraction(1, 3), dfin=[2, 1])):
        eliminations.clear()
        twists.clear()
        nr_split_v(s)
        assert twists and len(eliminations) == len(twists)


def _outcome(f):
    """What f() returns, or the message of the AssertionError it raises."""
    try:
        return f()
    except AssertionError as e:
        return ("AssertionError", str(e))


# divisors D as (dfin, dinf): empty, a finite part of degree 1-3, a part at
# infinity of multiplicity 1-3, and both
_DIVISORS = [([], 0), ([2, 1], 0), ([1, 0, 1], 0), ([1, 2, 0, 1], 0),
             ([], 1), ([], 2), ([], 3), ([2, 1], 3), ([1, 2, 0, 1], 2)]


@pytest.mark.parametrize("field", [
    PrimeField(5), PrimeField(7), PrimeField(101), QuadExtField(PrimeField(5)), QQ,
], ids=["F5", "F7", "F101", "F25", "Q"])
def test_one_elimination_gives_the_counts_of_both_windows(field):
    # _nr_cohomology reads windows N and N + 4 off one elimination; the
    # oracle eliminates each window on its own
    cs = (0, 1, 3) + ((Fraction(1, 3),) if field is QQ else ())
    raised = set()
    for k in range(-12, 13):
        for c in cs:
            for dfin, dinf in _DIVISORS:
                N = max(2 * abs(k), len(dfin) - 1 + dinf if dfin else dinf) + 8
                got = _outcome(lambda: bimodules._nr_cohomology(field, k, c, N, dfin, dinf))
                assert got == _outcome(lambda: nr_cohomology_per_window(field, k, c, N, dfin, dinf))
            # windows forced too small: both sides raise alike
            for window in range(abs(k) + 2, abs(k) + 12):
                got = _outcome(lambda: bimodules._nr_cohomology(field, k, c, window)[:2])
                want = _outcome(lambda: nr_cohomology_per_window(field, k, c, window))
                assert got == (want if want[0] == "AssertionError" else want[:2])
                if got[0] == "AssertionError":
                    raised.add(got[1].split(":")[0])
    assert raised == {"window too small for the outer projection", "Cech window did not stabilize"}


@pytest.mark.parametrize("k", range(-6, 7))
def test_sparse_rank_of_cech_matrices_is_the_dense_rank(F101, k):
    zero = F101.zero()
    for c in (0, 1, 5):
        N0 = 2 * abs(k) + 8  # the window nr_invertible_cohomology starts from
        # window N0 alone, and window N0 + 4 with N0's columns first
        for N in (N0, N0 + 4):
            rows = list(_cech_rows(F101, k, c, N0, N).values())
            for extra in ([], _dcond_rows(F101, [1, 0, 1], 1, N0, N)):
                sparse = rows + extra
                dense = [[r.get(j, zero) for j in range(4 * (N + 1))] for r in sparse]
                assert sparse_rank(F101, sparse) == rank(F101, dense)


def test_rational_cech_ranks_match_the_scalar_loop():
    for k in (-3, 0, 2, 5):
        for c in (Fraction(1, 3), Fraction(-7, 2)):
            N = 2 * abs(k) + 8
            rows = _cech_rows(QQ, k, c, N, N + 4)
            Nsm = N - (abs(k) + 4)
            for sparse in (
                list(rows.values()),
                [r for (_, e), r in rows.items() if abs(e) > Nsm],
                list(rows.values()) + _dcond_rows(QQ, [Fraction(2, 5), 0, 3], 1, N, N + 4),
            ):
                assert sparse_rank(QQ, sparse) == generic_sparse_rank(QQ, sparse)


def test_prime_field_cech_ranks_match_the_scalar_loop(F101):
    for k in (-4, 0, 3, 6):
        for c in (0, 5, -2):
            N = 2 * abs(k) + 8
            rows = list(_cech_rows(F101, k, c, N, N + 4).values())
            for sparse in (rows, rows[::-1], rows + _dcond_rows(F101, [1, 0, 1], 1, N, N + 4)):
                assert sparse_rank(F101, sparse) == generic_sparse_rank(F101, sparse)


@pytest.mark.parametrize("field, c, dfin", [
    (PrimeField(101), 5, [1, 0, 1]),
    (QQ, Fraction(-7, 2), [Fraction(2, 5), 0, 3]),
    (QuadExtField(PrimeField(5)), 2, [1, 1]),
], ids=["F101", "Q", "F25"])
def test_block_ranks_of_cech_matrices_are_the_ranks_of_every_prefix(field, c, dfin):
    # the blocks `_nr_cohomology` eliminates at window N + 4, with window
    # N's columns first: its outer rows, the rows outer at N only, the inner
    # rows, then the D rows; restricted to the leading columns, the first
    # two are window N's outer rows, the others its inner rows and D rows
    def restricted(rows):
        return [{j: v for j, v in r.items() if j < lead} for r in rows]

    def same_rows(xs, ys):
        # over Q a row is defined up to a nonzero factor (a D row's grows
        # with the window), so rows are compared divided by their leading
        # entry; zero rows match
        def key(r):
            if field == QQ:
                lead = Fraction(r[min(r)])
                r = {j: v / lead for j, v in r.items()}
            return sorted((j, repr(v)) for j, v in r.items())
        return sorted(key(r) for r in xs if r) == sorted(key(r) for r in ys if r)

    for k in (-3, 0, 2, 5):
        N = 2 * abs(k) + 8
        Nsm = N - (abs(k) + 4)
        lead = 4 * (N + 1)
        rows = _cech_rows(field, k, c, N, N + 4)
        blocks = [[r for (_, e), r in rows.items() if abs(e) > Nsm + 4],
                  [r for (_, e), r in rows.items() if Nsm < abs(e) <= Nsm + 4],
                  [r for (_, e), r in rows.items() if abs(e) <= Nsm],
                  _dcond_rows(field, dfin, 2, N, N + 4)]
        got = list(block_ranks(field, ([r.items() for r in b] for b in blocks), lead=lead))
        prefixes = [sum(blocks[:i + 1], []) for i in range(4)]
        assert got == [(generic_sparse_rank(field, rows), generic_sparse_rank(field, restricted(rows)))
                       for rows in prefixes]
        small = _cech_rows(field, k, c, N, N)
        assert same_rows(restricted(blocks[0] + blocks[1]),
                         [r for (_, e), r in small.items() if abs(e) > Nsm])
        assert same_rows(restricted(blocks[2]), [r for (_, e), r in small.items() if abs(e) <= Nsm])
        assert same_rows(restricted(blocks[3]), _dcond_rows(field, dfin, 2, N, N))


def test_divisor_rows_over_fp_are_residues_of_z_to_the_i_modulo_dfin(F101):
    # dfin = (z - 3)(z - 5)(z - 7)(z - 10), so z^i mod dfin takes the value
    # r^i at each root r
    roots = [3, 5, 7, 10]
    dfin = [1]
    for r in roots:
        dfin = [(a - r * b) % 101 for a, b in zip([0] + dfin, dfin + [0])]
    N = 20
    rows = _dcond_rows(F101, dfin, 2, N, N)
    assert rows[4:] == [{2 * (N + 1): 1}, {2 * (N + 1) + 1: 1}]
    assert all(type(v) is int and 0 < v < 101 for row in rows for v in row.values())
    for r in roots:
        for i in range(N + 1):
            assert sum(row.get(i, 0) * r ** j for j, row in enumerate(rows[:4])) % 101 == pow(r, i, 101)


@pytest.mark.parametrize("field", [QQ, PrimeField(101), QuadExtField(PrimeField(5))],
                         ids=["Q", "F101", "F25"])
def test_divisor_rows_are_the_remainder_recurrence_on_field_elements(field):
    # over Q each row of z^i mod dfin is made of ints, from pseudo-remainders
    # by the primitive dfin, and is a positive multiple of the row the
    # recurrence on Fractions gives; elsewhere the rows are those rows
    dfins = [[1, 1], [Fraction(2, 5), 0, 3], [Fraction(-1, 3), Fraction(4, 9), -1],
             [Fraction(1, 3), Fraction(-4, 9), 1, Fraction(2, 11)], [6, -5, 1], [0, 0, -7],
             [Fraction(5, 2), 1, Fraction(-3, 4), 0, Fraction(9, 8)]]
    for dfin in dfins:
        p = field.characteristic
        if p and any(Fraction(x).denominator % p == 0 for x in dfin):
            continue  # not a polynomial over F_p
        for N, M, dinf in ((8, 8, 0), (14, 18, 2), (21, 25, 1)):
            got, want = _dcond_rows(field, dfin, dinf, N, M), field_dcond_rows(field, dfin, dinf, N, M)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                if field == QQ:
                    assert all(type(v) is int for v in g.values())
                    factor = is_multiple(g, w)
                    assert factor is not None and factor > 0
                else:
                    assert g == w


def test_cech_rows_over_q_are_ints_up_to_the_denominator_of_c():
    # the u-rows are multiplied by the denominator of c, the f-rows are
    # left as they are
    for c in (Fraction(-7, 2), Fraction(5, 3), 4, 0):
        for k in (-3, 0, 2):
            rows = _cech_rows(QQ, k, c, 12, 16)
            den = Fraction(c).denominator
            for (kind, _), r in rows.items():
                assert all(type(v) is int for v in r.values())
                unit = den if kind == "u" else 1
                assert set(r.values()) <= {unit, -unit, -Fraction(c) * den}


def test_nr_split_u_is_split_v_after_swap(F101):
    s = NRSheaf(F101, 1, 2, apic=2)
    assert nr_split_u(s) == nr_split_v(s.swap())


def test_nr_trivial_class_splits_with_gap(F101):
    assert nr_split_v(NRSheaf(F101, 0, 0, apic=0)) == (-2, 0)
    assert nr_split_v(NRSheaf(F101, 0, 0, apic=5)) == (-1, -1)


# ---------------------------------------------------------------------------
# descriptors and tables


def test_descriptor_validates_parameter_sets():
    Descriptor("split-pair", a=0, b=1)
    with pytest.raises(ValidationError):
        Descriptor("split-pair", a=1, b=0)  # must be sorted
    with pytest.raises(ValidationError):
        Descriptor("split-pair", a=0)
    with pytest.raises(ValidationError):
        Descriptor("non-reduced", chi=1, degd=2)  # parity mismatch
    with pytest.raises(ValidationError):
        Descriptor("non-reduced", chi=2, degd=0)  # needs pullback flags
    with pytest.raises(ValidationError):
        Descriptor("unheard-of", a=1)
    d = Descriptor("non-reduced", chi=2, degd=0, v_pullback=True,
                   shifted_v_pullback=False)
    assert d.chi() == 2


def test_descriptor_flag_exclusivity():
    with pytest.raises(ValidationError):
        Descriptor("non-reduced", chi=2, degd=0, v_pullback=True,
                    shifted_v_pullback=True)


def test_split_tables_satisfy_global_invariants():
    for desc, shifted in descriptor_grid():
        chi = desc.chi()
        a, b = split_ab(desc)
        ap, bp = split_ab_prime(desc, shifted_v_pullback=shifted)
        assert a <= b and ap <= bp
        assert a + b + 2 == chi
        assert ap + bp + 4 == chi
        assert a >= ap
        # a wide gap forces non-irreducible support among the (2,2) kinds
        if desc.kind != "split-pair" and b - a >= 3:
            assert desc.kind != "integral"


def test_split_prime_rejects_flag_on_internal_kinds():
    d = Descriptor("non-reduced", chi=2, degd=0, v_pullback=False,
                   shifted_v_pullback=True)
    with pytest.raises(ValidationError, match="determined by the descriptor"):
        split_ab_prime(d, shifted_v_pullback=True)


@pytest.mark.parametrize("kind,params", [
    ("integral", dict(chi=2, invertible=True, v_pullback=True)),
    ("reducible", dict(p=1, q=1, invertible=True, v_pullback=True)),
])
def test_split_prime_rejects_a_pullback_both_ways(kind, params):
    # a v-pullback whose (-1,0)-twist is a v-pullback too
    with pytest.raises(ValidationError, match="pullback both ways"):
        split_ab_prime(Descriptor(kind, **params), shifted_v_pullback=True)


# expect: (ab, ab_prime, ab_prime when the twist is declared a v-pullback,
# or None where the descriptor refuses that flag)
@pytest.mark.parametrize(
    "kind,params,expect",
    [
        ("non-reduced", dict(chi=2, degd=0, v_pullback=True, shifted_v_pullback=False),
         ((-1, 1), (-1, -1), None)),
        ("non-reduced", dict(chi=2, degd=0, v_pullback=False, shifted_v_pullback=False),
         ((0, 0), (-1, -1), None)),
        ("non-reduced", dict(chi=2, degd=2), ((0, 0), (-1, -1), None)),
        ("non-reduced", dict(chi=1, degd=3), ((-1, 0), (-2, -1), None)),
        ("reducible", dict(p=1, q=1, invertible=True, v_pullback=True), ((-1, 1), (-1, -1), None)),
        ("reducible", dict(p=1, q=3, invertible=True), ((1, 1), (0, 0), None)),
        ("two-lines", dict(p=0, q=1), ((0, 1), (-1, 0), None)),
        ("split-pair", dict(a=-1, b=2), ((-1, 2), (-2, 1), None)),
        ("non-reduced", dict(chi=2, degd=0, v_pullback=False, shifted_v_pullback=True),
         ((0, 0), (-2, 0), None)),
        ("integral", dict(chi=2, invertible=True, v_pullback=False), ((0, 0), (-1, -1), (-2, 0))),
        ("integral", dict(chi=2, invertible=True, v_pullback=True), ((-1, 1), (-1, -1), None)),
        ("integral", dict(chi=1, invertible=True), ((-1, 0), (-2, -1), None)),
        ("integral", dict(chi=2, invertible=False), ((0, 0), (-1, -1), None)),
        ("reducible", dict(p=1, q=1, invertible=True, v_pullback=False),
         ((0, 0), (-1, -1), (-2, 0))),
    ],
)
def test_split_table_fixtures(kind, params, expect):
    ab, ab_prime, ab_prime_flagged = expect
    desc = Descriptor(kind, **params)
    assert split_ab(desc) == ab
    assert split_ab_prime(desc) == ab_prime
    if ab_prime_flagged is None:
        with pytest.raises(ValidationError):
            split_ab_prime(desc, shifted_v_pullback=True)
    else:
        assert split_ab_prime(desc, shifted_v_pullback=True) == ab_prime_flagged


def test_stability_matches_golden_table():
    rows = json.loads((DATA / "stability_table.json").read_text())
    assert len(rows) >= 20
    for row in rows:
        d = Descriptor(row["kind"], **row["params"])
        assert stability_classify(d) == row["stability"], row


def test_hilbert_and_reduced_polynomials():
    from fractions import Fraction

    d = Descriptor("non-reduced", chi=2, degd=2)
    assert hilbert_polynomial(d) == (8, 2)
    assert gieseker_p(d) == (1, Fraction(1, 4))
    assert reduced_hilbert(4, -1) == (1, Fraction(-1, 4))
    with pytest.raises(ValidationError):
        reduced_hilbert(0, 1)


# ---------------------------------------------------------------------------
# table vs engine on concrete sheaves


def test_concrete_line_bundle_tables_agree(F101, rng):
    for kind in ("I0", "I1", "I2", "III"):
        curve = Curve(make_kind(F101, kind, rng))
        L = random_line_bundle(curve, rng)
        desc, tw = descriptor_of_line_bundle(L)
        assert split_ab(desc) == split_of_concrete(L)
        assert split_ab_prime(desc, shifted_v_pullback=tw) == split_prime_of_concrete(L)


def test_concrete_nr_sheaf_tables_agree(F101):
    for s in (
        NRSheaf(F101, 1, 0, apic=0),
        NRSheaf(F101, 1, 0, apic=2),
        NRSheaf(F101, 1, 1, apic=0, dfin=(3, 1), dinf=0),
        NRSheaf(F101, 0, 1, apic=1, dfin=(), dinf=1),
    ):
        desc = descriptor_of_nr_sheaf(s)
        assert split_ab(desc) == split_of_concrete(s)
        assert split_ab_prime(desc) == split_prime_of_concrete(s)


# ---------------------------------------------------------------------------
# endomorphism numerology


def test_endo_ext_dims_on_a_smooth_member(F101, rng):
    curve = Curve(make_kind(F101, "I0", rng))
    dims = endo_ext_dims_reduced(curve)
    assert dims == (1, 9, 0)
    e0, e1, e2 = dims
    assert e0 - e1 + e2 == -8


def test_endo_ext_dims_on_the_doubled_member(F101):
    assert endo_ext_dims_nr(F101) == (1, 9, 0)


@pytest.mark.parametrize("d,expect", [(0, (6, 9, 0, 3)), (2, (7, 10, 0, 3)), (4, (9, 13, 1, 3))])
def test_hochschild_fixtures(d, expect):
    assert hochschild_dims(d) == expect


def test_hochschild_alternating_sum_constant():
    for d in range(0, 9):
        assert hochschild_dims(d)[3] == 3
    with pytest.raises(ValidationError):
        hochschild_dims(-1)


def test_moduli_dim_check_consistency():
    out = moduli_dim_check((1, 9, 0))
    assert out["smooth_locus_dim"] == 9
    assert out["quotient_dim"] == 3
    assert out["hochschild_euler"] == 3
    assert out["consistent"]
