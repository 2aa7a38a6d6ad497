"""Tests of the benchmark's own checkers.

    python3 -m pytest bench/test_checks.py -q

The independent point counter must agree with a brute count, and each
checker must reject a deliberately corrupted result.
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

EXPS = [(a, 2 - a, b, 2 - b) for a in (2, 1, 0) for b in (2, 1, 0)]


def random_form(rng, p):
    return {e: rng.randrange(p) for e in EXPS}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_point_count_matches_brute_count(p):
    rng = random.Random(p)
    for _ in range(20):
        form = random_form(rng, p)
        n = checks.brute_count(form, p)
        assert checks.count_points(form, p) == n
        assert len(checks.points_of(form, p)) == n
        assert all(not checks.eval_form(form, pt, p) for pt in checks.points_of(form, p))


def test_point_count_of_a_fiber_component():
    # x1 * (anything of degree (1,2)) contains the fiber x1 = 0
    p = 7
    form = {(1, 1, 2, 0): 1, (0, 2, 1, 1): 3}
    assert checks.count_points(form, p) == checks.brute_count(form, p)
    assert len(checks.points_of(form, p)) == checks.brute_count(form, p)


def _drawn_member(p, seed=3):
    from bimodulus.curves import random_smooth_22
    from bimodulus.exactmath import PrimeField

    f = random_smooth_22(PrimeField(p), random.Random(seed))
    return f, checks.form_from_terms(f.terms, p)


def test_trip_check_rejects_a_wrong_point_count():
    p = 101
    _, member = _drawn_member(p)
    n = checks.count_points(member, p)
    good = {"points": n, "stable_reps_checked": n, "j": checks.j_of(member, 1, p)}
    assert checks.check_trip(member, good, p) == []
    assert checks.check_trip(member, dict(good, points=n + 1, stable_reps_checked=n + 1), p)
    assert checks.check_trip(member, dict(good, stable_reps_checked=4), p)
    assert checks.check_trip(member, dict(good, j=(good["j"] + 1) % p), p)


def test_j_agrees_with_the_library_and_across_rulings():
    from fractions import Fraction

    from bimodulus.curves import member_j, random_smooth_22
    from bimodulus.exactmath import QQ

    f = random_smooth_22(QQ, random.Random(5))
    form = {e: Fraction(c) for e, c in f.terms.items()}
    assert checks.j_of(form, 0, 0) == checks.j_of(form, 1, 0) == member_j(f)
    g, member = _drawn_member(101)
    assert checks.j_of(member, 1, 101) == member_j(g).v


def _component0_relations(seed=2):
    from bimodulus.exactmath import PrimeField
    from bimodulus.linebundles import section_space
    from bimodulus.moduli import psi0, random_quadruple

    p = 101
    quad = random_quadruple(PrimeField(p), random.Random(seed), component=0)
    rels = [[c.v for c in r] for r in psi0(quad)]
    forms = [[checks.form_from_terms(s.form(i).terms, p) for i in range(s.dim())]
             for s in (section_space(L) for L in (quad.L0, quad.L1, quad.L2))]
    return rels, forms, checks.form_from_terms(quad.curve.f.terms, p)


def test_relation_check_rejects_a_changed_coefficient():
    p = 101
    rels, forms, member = _component0_relations()
    assert checks.check_relations(rels, 2, p) == []
    assert checks.check_annihilation(rels, forms, member, p) == []
    bad = [list(rels[0]), rels[1]]
    bad[0][3] = (bad[0][3] + 1) % p
    assert checks.check_annihilation(bad, forms, member, p)
    assert checks.check_relations([rels[0], rels[0]], 2, p)
    assert checks.check_relations(rels[:1], 2, p)


def test_split_check_rejects_an_off_sum():
    good = {"agree": True, "table": {"ab": [0, 0], "ab_prime": [-1, -1]},
            "computed": {"ab": [0, 0], "ab_prime": [-1, -1]}}
    assert checks.check_split(good, 2) == []
    off = {"ab": [0, 1], "ab_prime": [-1, -1]}
    assert checks.check_split(dict(good, table=off, computed=off), 2)
    unordered = {"ab": [1, -1], "ab_prime": [-1, -1]}
    assert checks.check_split(dict(good, table=unordered, computed=unordered), 2)
    assert checks.check_split(dict(good, agree=False), 2)


def test_cech_check_rejects_a_wrong_closed_form():
    inst = {"type": "nr-sheaf", "ku": 1, "kv": 0, "apic": "0 mod 101", "dfin": [], "dinf": 0}
    assert checks.check_cech({"h0": 2, "h1": 0}, inst, 101) == []
    assert checks.check_cech({"h0": 3, "h1": 1}, inst, 101)
    trivial = dict(inst, ku=0, apic="5 mod 101")
    assert checks.check_cech({"h0": 0, "h1": 0}, trivial, 101) == []
    assert checks.check_cech({"h0": 1, "h1": 1}, trivial, 101)


def test_shifted_flag_is_picard_coordinate_minus_one():
    base = {"type": "nr-sheaf", "ku": 1, "kv": 0, "dfin": [], "dinf": 0}
    assert checks.nr_shifted_flag(dict(base, apic="0 mod 101"), 101)  # c - k = -1
    assert not checks.nr_shifted_flag(dict(base, apic="1 mod 101"), 101)
    assert checks.nr_shifted_flag(dict(base, apic="0"), 0)
    assert not checks.nr_shifted_flag(dict(base, apic="0 mod 101", dinf=1), 101)


def test_points_on_member_check_rejects_a_moved_point():
    inst = {"curve": {"terms": [{"exp": [1, 1, 1, 1], "coef": "1"}]},
            "minus": [[["0", "1"], ["1", "1"]]], "plus": []}
    assert checks.check_points_on_member(inst, 0) == []
    inst["minus"] = [[["1", "1"], ["1", "1"]]]
    assert checks.check_points_on_member(inst, 0)


def test_hom_ext_matrix_matches_the_library():
    from bimodulus.quivers import hom_ext_matrix

    for ab, abp in (((0, 0), (-1, -1)), ((-1, 1), (-2, 0)), ((0, 2), (-1, 1))):
        want = [[list(e) for e in row] for row in hom_ext_matrix(1, ab, abp)]
        assert workloads.hom_ext(1, ab, abp) == want


def test_measure_takes_out_samples_and_rescaled_scales_to_the_nominal_speed():
    import speed

    sampler = speed.Sampler()
    nominal = speed.NOMINAL_S
    # a machine at half the nominal speed: every sample takes twice NOMINAL_S
    sampler.samples = [(0.1 * k, 2 * nominal) for k in range(40)]
    # 1.0 s of wall time holding ten samples: 1.0 - 10 * 2 * NOMINAL_S of work
    work, speed_s = sampler.measure(1.05, 2.05)
    assert work == pytest.approx(1.0 - 20 * nominal)
    assert speed.rescaled(work, speed_s) == pytest.approx((1.0 - 20 * nominal) / 2)
    # a stretch between two samples is scaled by its neighbours alone
    assert speed.rescaled(*sampler.measure(1.01, 1.02)) == pytest.approx(0.005)
    with pytest.raises(RuntimeError):
        speed.Sampler().measure(0.0, 1.0)


def test_sampler_times_the_reference_on_processor_time_ticks():
    import time

    import speed

    sampler = speed.Sampler()
    sampler.start(0.005)
    try:
        end = time.process_time() + 0.1
        while time.process_time() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5
    assert all(d > 0 for _, d in sampler.samples)
