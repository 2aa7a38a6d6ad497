"""Checkers for the benchmark's outputs, written apart from the library.

Everything here works on plain integers modulo p or on `fractions.Fraction`,
reading forms and points from the JSON the library prints or from the raw
term dictionaries of its polynomials.  Nothing imports `bimodulus`, so a
fault in the library cannot hide itself in the check.

Each `check_*` function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# scalars and forms


def parse_scalar(s, p):
    """A scalar as the library prints it: "v mod p" over F_p, "a/b" over Q."""
    if p:
        v, q = s.split("mod")
        if int(q) != p:
            raise ValueError(f"scalar {s!r} is not in F_{p}")
        return int(v) % p
    return Fraction(s.strip())


def form_from_json(obj, p):
    """{exponent tuple: coefficient} of a polynomial in the library's JSON."""
    return {tuple(t["exp"]): parse_scalar(t["coef"], p) for t in obj["terms"]}


def form_from_terms(terms, p):
    """{exponent tuple: int} from a live polynomial's term dictionary."""
    return {tuple(e): c.v % p for e, c in terms.items()}


def eval_form(form, point, p):
    """Value of a multihomogeneous form at one (x0, x1) pair per block."""
    acc = 0
    for e, c in form.items():
        term = c
        for b, (a0, a1) in enumerate(point):
            term = term * a0 ** e[2 * b] * a1 ** e[2 * b + 1]
        acc += term
    return acc % p if p else acc


# ---------------------------------------------------------------------------
# points of a (2,2) member over F_p


def legendre(a, p):
    a %= p
    if not a:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def p1_points(p):
    return [(x, 1) for x in range(p)] + [(1, 0)]


def fiber_quadratic(form, x, p):
    """(A, B, C) with f(x, y) = A y0^2 + B y0 y1 + C y1^2 over the fiber x."""
    abc = [0, 0, 0]
    for (a0, a1, b0, b1), c in form.items():
        abc[b1] += c * pow(x[0], a0, p) * pow(x[1], a1, p)
    return [v % p for v in abc]


def count_points(form, p):
    """#W(F_p) for a (2,2) form, one Legendre symbol per fiber: a binary
    quadratic with discriminant D has 1 + (D/p) projective roots, and a
    fiber inside the curve contributes all p + 1 points."""
    total = 0
    for x in p1_points(p):
        A, B, C = fiber_quadratic(form, x, p)
        if not (A or B or C):
            total += p + 1
        else:
            total += 1 + legendre(B * B - 4 * A * C, p)
    return total


def brute_count(form, p):
    """#W(F_p) by evaluating the form on every point of P1 x P1."""
    pts = p1_points(p)
    return sum(1 for x in pts for y in pts if not eval_form(form, (x, y), p))


def points_of(form, p):
    """Every F_p-point of the member, solving each fiber's quadratic."""
    roots = {}
    for r in range(p):
        roots.setdefault(r * r % p, []).append(r)
    out = []
    inv2 = pow(2, p - 2, p)
    for x in p1_points(p):
        A, B, C = fiber_quadratic(form, x, p)
        if not (A or B or C):
            ys = p1_points(p)
        elif not A:
            # y = (1, 0) is a root; the other root solves B y0 + C y1 = 0
            ys = [(1, 0)] + ([((-C) * pow(B, p - 2, p) % p, 1)] if B else [])
        else:
            ia = pow(A, p - 2, p)
            ys = [((-B + s) * inv2 * ia % p, 1) for s in roots.get((B * B - 4 * A * C) % p, [])]
        out.extend((x, y) for y in dict.fromkeys(ys))
    return out


def hasse_ok(n, p):
    """|n - (p + 1)| <= 2 sqrt(p), in integers."""
    return (n - p - 1) ** 2 <= 4 * p


# ---------------------------------------------------------------------------
# j-invariant of a member, from the branch quartic of either ruling


def branch_quartic(form, block, p):
    """Coefficients (x0^4 ... x1^4) of B^2 - 4AC, where A, B, C are the
    coefficients of f as a quadratic in the chosen block."""
    other = 1 - block
    abc = [[0, 0, 0] for _ in range(3)]
    for e, c in form.items():
        abc[e[2 * block + 1]][e[2 * other + 1]] += c
    A, B, C = abc

    def mul(u, v):
        w = [0] * 5
        for i, a in enumerate(u):
            for k, b in enumerate(v):
                w[i + k] += a * b
        return w

    q = [b - 4 * ac for b, ac in zip(mul(B, B), mul(A, C))]
    return [v % p for v in q] if p else q


def j_of(form, block, p):
    """6912 I^3 / (4 I^3 - J^2) from the invariants of the branch quartic;
    None when the quartic has a repeated root."""
    a0, a1, a2, a3, a4 = branch_quartic(form, block, p)
    i_inv = 12 * a0 * a4 - 3 * a1 * a3 + a2 * a2
    j_inv = (72 * a0 * a2 * a4 - 27 * a0 * a3 * a3 - 27 * a1 * a1 * a4
             + 9 * a1 * a2 * a3 - 2 * a2 ** 3)
    num, den = 6912 * i_inv ** 3, 4 * i_inv ** 3 - j_inv ** 2
    if p:
        den %= p
        return num * pow(den, p - 2, p) % p if den else None
    return Fraction(num) / den if den else None


# ---------------------------------------------------------------------------
# linear algebra


def rank_mod(rows, p):
    """Rank of an integer matrix modulo p."""
    m = [[v % p for v in r] for r in rows]
    rk = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        inv = pow(m[rk][c], p - 2, p)
        m[rk] = [v * inv % p for v in m[rk]]
        for i in range(len(m)):
            if i != rk and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


# ---------------------------------------------------------------------------
# per-workload checkers


def check_trip(member, report, p):
    """A round trip: its point count is #W(F_p) (the incidence curve is
    isomorphic to the member), within the Hasse bound, every incidence point
    was checked theta-stable, and j is the member's."""
    problems = []
    n = count_points(member, p)
    if report["points"] != n:
        problems.append(f"trip counted {report['points']} points, the member has {n}")
    if not hasse_ok(report["points"], p):
        problems.append(f"{report['points']} points break the Hasse bound at p={p}")
    if report["stable_reps_checked"] != report["points"]:
        problems.append(f"{report['stable_reps_checked']} of {report['points']} "
                        "incidence points checked stable")
    if report["j"] != j_of(member, 1, p):
        problems.append(f"trip j {report['j']} is not the member's j")
    return problems


def check_relations(relations, expect_dim, p):
    """Relation space of a quadruple: the expected dimension, eight path
    coefficients per relation, independent vectors."""
    problems = []
    if len(relations) != expect_dim:
        problems.append(f"relation space has dimension {len(relations)}, expected {expect_dim}")
    if any(len(r) != 8 for r in relations):
        problems.append("a relation does not have one coefficient per path")
    elif rank_mod(relations, p) != len(relations):
        problems.append("relation vectors are dependent")
    return problems


def check_annihilation(relations, section_forms, member, p):
    """Every relation vanishes on the eight path products s0_i s1_j s2_k of
    the three section bases (coefficient 4i + 2j + k), evaluated at every
    F_p-point of the member."""
    problems = []
    pts = points_of(member, p)
    for pt in pts:
        vals = [[eval_form(s, pt, p) for s in layer] for layer in section_forms]
        prods = [vals[0][i] * vals[1][j] * vals[2][k]
                 for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        for r in relations:
            if sum(c * v for c, v in zip(r, prods)) % p:
                problems.append(f"a relation does not vanish at {pt}")
                return problems
    return problems


def check_split(report, chi):
    """A `split` report: a <= b, a + b = chi - 2 and a' + b' = chi - 4, with
    the table and the cohomology agreeing."""
    problems = []
    if report.get("agree") is not True or report["table"] != report["computed"]:
        problems.append("table and cohomology disagree")
    (a, b), (ap, bp) = report["computed"]["ab"], report["computed"]["ab_prime"]
    if a > b or ap > bp:
        problems.append(f"unordered splitting pair {(a, b)}, {(ap, bp)}")
    if a + b != chi - 2:
        problems.append(f"a + b = {a + b}, expected chi - 2 = {chi - 2}")
    if ap + bp != chi - 4:
        problems.append(f"a' + b' = {ap + bp}, expected chi - 4 = {chi - 4}")
    return problems


def bundle_degree(inst):
    """Total degree 2(m + n) - #minus + #plus of a line-bundle instance."""
    return 2 * (inst["m"] + inst["n"]) - len(inst["minus"]) + len(inst["plus"])


def nr_class(inst, p):
    """(k, c, degd, chi) of a doubled-member sheaf instance: k = ku + kv,
    c = kv + apic, degd the co-support degree."""
    dfin = [parse_scalar(s, p) for s in inst["dfin"]]
    while dfin and not dfin[-1]:
        dfin.pop()
    degd = (len(dfin) - 1 if len(dfin) > 1 else 0) + inst["dinf"]
    k = inst["ku"] + inst["kv"]
    c = inst["kv"] + parse_scalar(inst["apic"], p)
    return k, (c % p if p else c), degd, 2 * k - degd


def instance_chi(inst, p):
    if inst["type"] == "nr-sheaf":
        return nr_class(inst, p)[3]
    return bundle_degree(inst)


def check_cech(report, inst, p):
    """h0 - h1 = chi, and for an invertible sheaf the closed form
    h0 = 2k (k >= 1), [c = 0] (k = 0), 0 (k < 0) with h1 = h0 - 2k."""
    problems = []
    k, c, degd, chi = nr_class(inst, p)
    if report["h0"] - report["h1"] != chi:
        problems.append(f"h0 - h1 = {report['h0'] - report['h1']}, chi = {chi}")
    if degd == 0:
        h0 = 2 * k if k >= 1 else (1 if k == 0 and not c else 0)
        if (report["h0"], report["h1"]) != (h0, h0 - 2 * k):
            problems.append(f"cech gave {(report['h0'], report['h1'])}, "
                            f"closed form {(h0, h0 - 2 * k)}")
    return problems


def nr_shifted_flag(inst, p):
    """Whether an invertible doubled-member sheaf has Picard coordinate
    c - k = -1, the case `split` refuses on the command line."""
    k, c, degd, _ = nr_class(inst, p)
    shift = c - k + 1
    return degd == 0 and not (shift % p if p else shift)


def check_points_on_member(inst, p):
    """Every twisting point of a line-bundle instance lies on its member."""
    member = form_from_json(inst["curve"], p)
    problems = []
    for pt in inst["minus"] + inst["plus"]:
        xy = tuple(tuple(parse_scalar(s, p) for s in h) for h in pt)
        if eval_form(member, xy, p):
            problems.append(f"twisting point {pt} is off the member")
    return problems


def check_classify_smooth(report, member, p):
    """A smooth member: kind I0, the same j from both rulings, and that j
    is the one reported."""
    problems = []
    if report.get("kind") != "I0":
        problems.append(f"smooth member classified as {report.get('kind')}")
        return problems
    j0, j1 = j_of(member, 0, p), j_of(member, 1, p)
    if j0 != j1:
        problems.append(f"the rulings give different j: {j0} and {j1}")
    if parse_scalar(report["j"], p) != j1:
        problems.append(f"reported j {report['j']} differs from {j1}")
    return problems
