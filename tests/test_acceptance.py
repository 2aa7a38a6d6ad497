"""The acceptance gate: one test per shipped guarantee, each printing a
single pass/fail line under `pytest -v`.  Random checks are seeded, exact,
and timed against their stated budgets."""

import random
import time
from fractions import Fraction

import pytest

from bimodulus.bimodules import (
    Descriptor,
    NRSheaf,
    descriptor_of_line_bundle,
    endo_ext_dims_reduced,
    gieseker_p,
    hochschild_dims,
    moduli_dim_check,
    nr_split_v,
    reduced_hilbert,
    split_ab,
    split_ab_prime,
    split_of_concrete,
    split_prime_of_concrete,
    stability_classify,
)
from bimodulus.curves import kodaira_classify, make_kind
from bimodulus.errors import DegenerateInstance, SpecialPosition, ValidationError
from bimodulus.exactmath import QQ, PrimeField
from bimodulus.linebundles import Curve, random_line_bundle
from bimodulus.mckay import closure_equals_model_kernel, s_graded_dim
from bimodulus.moduli import psi0, psi1, random_quadruple, random_sheaf_datum, roundtrip0
from bimodulus.polyring import MultiPoly, bf_mul, j_from_quartic, monomial_basis
from bimodulus.quivers import (
    THETA,
    generic_member_quiver,
    hom_ext_matrix,
    middle_member_quiver,
    strong_m1_table,
    strong_threshold,
    toric_check,
)

from oracles import bf_root_linear, brute_member_kind, j_from_cross_ratio, validate_support

F101 = PrimeField(101)
F5 = PrimeField(5)


def test_criterion_01_degree_zero_cech_cohomology():
    start = time.monotonic()
    for field in (F101, QQ):
        trivial = NRSheaf(field, 0, 0, apic=0)
        assert trivial.h0() == 1 and trivial.cohomology() == (1, 1)
        for a in (1, 3, -2):
            twisted = NRSheaf(field, 0, 0, apic=a)
            assert twisted.h0() == 0 and twisted.cohomology() == (0, 0)
    assert time.monotonic() - start < 1.0


def test_criterion_02_pushforward_splitting_on_the_doubled_member():
    for field in (F101, QQ):
        assert nr_split_v(NRSheaf(field, 0, 0, apic=0)) == (-2, 0)
        for a in (1, 5, -1):
            assert nr_split_v(NRSheaf(field, 0, 0, apic=a)) == (-1, -1)


def test_criterion_03_split_tables_agree_with_cohomology():
    start = time.monotonic()
    rng = random.Random(101)
    kinds = ("I0", "I1", "I2", "III")
    degrees = range(-2, 5)
    checked = 0
    seen = set()
    for rounds in range(2):
        for kind in kinds:
            for deg in degrees:
                for _ in range(30):
                    try:
                        curve = Curve(make_kind(F101, kind, rng))
                        L = random_line_bundle(curve, rng, deg_lo=deg, deg_hi=deg)
                        break
                    except (SpecialPosition, ValidationError):
                        continue
                else:
                    raise AssertionError(f"no bundle of degree {deg} drawn on {kind}")
                desc, flag = descriptor_of_line_bundle(L)
                assert split_ab(desc) == split_of_concrete(L)
                assert split_ab_prime(desc, shifted_v_pullback=flag) == \
                    split_prime_of_concrete(L)
                checked += 1
                seen.add((kind, deg))
    assert checked >= 50
    assert seen == {(k, d) for k in kinds for d in degrees}
    assert time.monotonic() - start < 60.0


def test_criterion_04_self_extension_dimensions():
    rng = random.Random(4)
    for _ in range(10):
        curve = Curve(make_kind(F101, "I0", rng))
        dims = endo_ext_dims_reduced(curve)
        assert dims == (1, 9, 0)
        assert dims[0] - dims[1] + dims[2] == -8


def test_criterion_05_hochschild_numerology():
    for d in range(7):
        hh1, hh2, hh3, alt = hochschild_dims(d)
        assert -hh1 + hh2 - hh3 == 3 == alt
    rep = moduli_dim_check((1, 9, 0))
    assert rep["consistent"]
    assert (rep["smooth_locus_dim"], rep["quotient_dim"]) == (9, 3)


def test_criterion_06_relation_space_dimensions():
    rng = random.Random(6)
    for component, expect, fn in ((0, 2, psi0), (1, 3, psi1)):
        done = 0
        redraws = 0
        while done < 20:
            try:
                quad = random_quadruple(F101, rng, component=component)
                rel = fn(quad)
            except (DegenerateInstance, SpecialPosition):
                redraws += 1
                assert redraws < 40, "relation dimensions keep coming out wrong"
                continue
            assert len(rel) == expect
            assert all(len(v) == 8 for v in rel)  # rank 8 - expect by rank-nullity
            done += 1


def test_criterion_07_moduli_round_trip():
    start = time.monotonic()
    rng = random.Random(7)
    assert THETA == (-3, 1, 1, 1)
    done = 0
    redraws = 0
    while done < 10:
        try:
            curve, U = random_sheaf_datum(F101, rng, degree=2)
            rep = roundtrip0(U, sample_reps=10 ** 9)
        except (DegenerateInstance, SpecialPosition):
            redraws += 1
            assert redraws < 40, "round trip keeps failing to draw"
            continue
        # roundtrip0 itself raises unless the shadows are smooth with the
        # member's j and the recovered plane equals the relation plane
        assert rep["stable_reps_checked"] == rep["points"] > 0
        done += 1
    assert time.monotonic() - start < 300.0


def test_criterion_08_strongness_matches_the_threshold():
    rows = strong_m1_table()
    thr = strong_threshold(1)
    assert thr == -2
    assert {r["kind"] for r in rows} == {
        "split-pair", "non-reduced", "integral", "reducible", "two-lines"}
    for r in rows:
        assert r["strong"] == (r["ab_prime"][0] >= thr), r
    assert any(not r["strong"] for r in rows)
    assert any(r["strong"] for r in rows)


def test_criterion_09_stability_tables_and_reduced_hilbert():
    import json
    import pathlib

    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "stability_table.json").read_text())
    assert len(golden) == 26
    for row in golden:
        desc = Descriptor(row["kind"], **row["params"])
        assert stability_classify(desc) == row["stability"], row
    # reduced Hilbert polynomial spot checks: m - degD/8, and m - 1/4 for
    # the half-support subsheaf with P(t) = 4t - 1
    for degd in (1, 2, 3, 4):
        desc = Descriptor("non-reduced", chi=-degd, degd=degd)
        assert gieseker_p(desc) == (Fraction(1), Fraction(-degd, 8))
    assert reduced_hilbert(4, -1) == (Fraction(1), Fraction(-1, 4))


def test_criterion_10_toric_weight_and_kernel_matrices():
    rep = toric_check()
    assert rep["product_zero"]
    assert rep["weight_rank"] == 3
    assert rep["kernel_rank"] == 4


def test_criterion_11_mckay_closure_equals_model_kernel():
    rng = random.Random(11)
    lams = [F101.random_nonzero(rng) for _ in range(10)]
    for field, values in ((F101, lams), (QQ, [Fraction(1), Fraction(-2), Fraction(3, 7)])):
        for lam in values:
            rep = closure_equals_model_kernel(field, lam)
            assert rep["equal"]
            assert rep["closure_dim"] == rep["kernel_dim"] == 6
            assert rep["paths"] - rep["closure_dim"] == 6 == s_graded_dim(2, 3)


def test_criterion_12_worked_hom_ext_matrices():
    eight = len(generic_member_quiver().path_basis(1, 4))
    assert eight == len(middle_member_quiver().path_basis(1, 4)) == 8
    first = hom_ext_matrix(1, (0, 0), (-1, -1))
    assert [first[0][j][0] for j in range(4)] == [1, 2, 4, 6]
    assert first[0][3] == (6, 0) and first[0][3][0] == eight - 2
    second = hom_ext_matrix(1, (-1, 0), (-2, -1))
    assert second[0][3] == (5, 0) and second[0][3][0] == eight - 3
    for M in (first, second):
        assert all(M[i][j][1] == 0 for i in range(4) for j in range(4))


def test_criterion_13_j_invariant_against_the_cross_ratio_oracle():
    rng = random.Random(13)
    for _ in range(100):
        pts = []
        while len(pts) < 4:
            p = (F101.random(rng), F101.one()) if rng.random() < 0.95 \
                else (F101.one(), F101.zero())
            if all(p[0] * q[1] != p[1] * q[0] for q in pts):
                pts.append(p)
        q = [F101.one()]
        for p in pts:
            q = bf_mul(F101, q, bf_root_linear(F101, p))
        assert j_from_quartic(F101, q) == j_from_cross_ratio(F101, pts)
    for field in (F101, QQ):
        zero, one = field.zero(), field.one()
        harmonic = [(zero, one), (one, zero), (one, one), (-one, one)]
        q = [one]
        for p in harmonic:
            q = bf_mul(field, q, bf_root_linear(field, p))
        assert j_from_quartic(field, q) == field.coerce(1728)
        assert j_from_cross_ratio(field, harmonic) == field.coerce(1728)


def test_criterion_14_classifier_against_brute_force():
    start = time.monotonic()
    rng = random.Random(14)
    monos = monomial_basis((2, 2))
    compared = 0
    tally = {}
    while compared < 200:
        coeffs = {m: F5.random(rng) for m in monos}
        coeffs = {m: c for m, c in coeffs.items() if c}
        if not coeffs:
            continue
        f = MultiPoly(F5, (2, 2), coeffs)
        try:
            validate_support(f)
        except ValidationError:
            continue
        kind = kodaira_classify(f)
        assert kind == brute_member_kind(f)
        tally[kind] = tally.get(kind, 0) + 1
        compared += 1
    assert compared == 200
    assert tally.get("I0", 0) > 0 and tally.get("I1", 0) > 0
    assert time.monotonic() - start < 60.0
