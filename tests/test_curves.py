"""Classification of (2,2) members and point utilities."""

import random

import pytest

from bimodulus.errors import SpecialPosition, ValidationError
from bimodulus.exactmath import QQ, PrimeField
from bimodulus.curves import (
    KINDS,
    enumerate_points,
    factor_11,
    is_smooth_point,
    kodaira_classify,
    make_kind,
    member_j,
    normalize_point,
    on_curve,
    p1_points,
    random_smooth_22,
    random_smooth_point,
    validate_22,
    validate_support,
)

from oracles import brute_member_kind, brute_points


def test_kinds_are_the_expected_six():
    assert KINDS == ("I0", "I1", "I2", "II", "III", "NonReduced")


@pytest.mark.parametrize("kind", KINDS)
def test_make_kind_round_trips_through_classifier(kind, F101, rng):
    for _ in range(3):
        f = make_kind(F101, kind, rng)
        assert kodaira_classify(f) == kind


@pytest.mark.parametrize("kind", ["I0", "I1", "NonReduced"])
def test_classifier_over_the_rationals(kind, rng):
    f = make_kind(QQ, kind, rng)
    assert kodaira_classify(f) == kind


def test_classifier_agrees_with_brute_oracle_small_sample(F5, rng):
    for i in range(12):
        kind = KINDS[i % len(KINDS)]
        f = make_kind(F5, kind, rng)
        assert brute_member_kind(f) == kind


def test_validate_22_rejects_wrong_degree(F101):
    from bimodulus.polyring import MultiPoly

    with pytest.raises(ValidationError):
        validate_22(MultiPoly(F101, (1, 1), {(1, 0, 1, 0): 1}))


def test_validate_support_rejects_fiber_component(F101):
    from bimodulus.polyring import MultiPoly, random_multipoly

    rng = random.Random(0)
    g = random_multipoly(F101, (1, 2), rng)
    x0 = MultiPoly.monomial(F101, (1, 0), (1, 0, 0, 0))
    with pytest.raises(ValidationError):
        validate_support(x0 * g)


def test_enumerate_points_matches_on_curve(F5, rng):
    f = make_kind(F5, "I1", rng)
    pts = enumerate_points(f)
    seen = set()
    for x in p1_points(F5):
        for y in p1_points(F5):
            if on_curve(f, (x, y)):
                seen.add((x, y))
    assert set(pts) == seen
    # each returned pair is normalized
    for p in pts:
        assert p == (normalize_point(F5, p[0]), normalize_point(F5, p[1]))


@pytest.mark.parametrize("q", [5, 7, 25])
@pytest.mark.parametrize("kind", KINDS)
def test_enumerate_points_is_the_brute_scan(kind, q):
    # same list, order included; F_25 holds members drawn over F_5
    p = 5 if q == 25 else q
    F = PrimeField(p)
    f = make_kind(F, kind, random.Random(100 * q + KINDS.index(kind)))
    if q == 25:
        f = f.coerce_to(F.quadratic_extension())
    assert enumerate_points(f) == brute_points(f)


def test_enumerate_points_is_the_brute_scan_over_f101(F101, rng):
    for kind in ("I0", "III"):
        f = make_kind(F101, kind, rng)
        assert enumerate_points(f) == brute_points(f)


def test_enumerate_points_takes_whole_fibers_in_the_locus(F5):
    # x1 * g contains the fiber x = (1, 0), which contributes every y
    from bimodulus.polyring import MultiPoly, random_multipoly

    g = random_multipoly(F5, (1, 2), random.Random(3))
    f = MultiPoly.monomial(F5, (1, 0), (0, 1, 0, 0)) * g
    pts = enumerate_points(f)
    assert pts == brute_points(f)
    inf = (F5.one(), F5.zero())
    assert [pt for pt in pts if pt[0] == inf] == [(inf, y) for y in p1_points(F5)]


@pytest.mark.parametrize("p", [101, 1009])
def test_smooth_members_satisfy_the_hasse_bound(p):
    F = PrimeField(p)
    rng = random.Random(p)
    for _ in range(3):
        n = len(enumerate_points(random_smooth_22(F, rng)))
        # |n - (p + 1)| <= 2 sqrt(p), squared to stay in the integers
        assert (n - (p + 1)) ** 2 <= 4 * p


def test_smooth_points_and_off_curve_rejection(F101, rng):
    f = make_kind(F101, "I0", rng)
    p = random_smooth_point(f, rng)
    assert on_curve(f, p) and is_smooth_point(f, p)
    off = next(
        (x, y)
        for x in p1_points(F101)
        for y in p1_points(F101)
        if not on_curve(f, (x, y))
    )
    with pytest.raises(ValidationError):
        is_smooth_point(f, off)


def test_factor_11_reconstructs_reducible_members(F101, rng):
    for kind in ("I2", "III"):
        f = make_kind(F101, kind, rng)
        field_used, g, h = factor_11(f)
        prod = g * h
        # equality up to a scalar
        assert prod.coerce_to(field_used).proportional(f.coerce_to(field_used))


def test_factor_11_refuses_irreducible(F101, rng):
    f = make_kind(F101, "I0", rng)
    with pytest.raises(ValidationError):
        factor_11(f)


def test_member_j_is_a_ruling_invariant(F101, rng):
    for _ in range(5):
        f = random_smooth_22(F101, rng)
        assert member_j(f, block=1) == member_j(f, block=0)


def test_member_j_constant_under_coordinate_moves(F101, rng):
    f = random_smooth_22(F101, rng)
    j = member_j(f)
    for _ in range(3):
        while True:
            m = [[F101.random(rng) for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0]:
                break
        assert member_j(f.substitute_block(0, m)) == j


def test_member_j_rejects_singular_members(F101, rng):
    f = make_kind(F101, "I1", rng)
    with pytest.raises(SpecialPosition):
        member_j(f)


def test_normalize_point_scales_to_canonical_form(F101):
    one = F101.one()
    five = F101.coerce(5)
    assert normalize_point(F101, (five, five)) == (one, one)
    assert normalize_point(F101, (F101.zero(), five)) == (F101.zero(), one)
    with pytest.raises(ValidationError):
        normalize_point(F101, (F101.zero(), F101.zero()))


def test_p1_points_count(F5):
    pts = p1_points(F5)
    assert len(pts) == 6
    assert len(set(pts)) == 6
