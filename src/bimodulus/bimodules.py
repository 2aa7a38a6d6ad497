"""Direct-image splitting types, stability and deformation numbers.

Two layers live here.

The concrete layer computes cohomology on the doubled-(1,1) member ("the
thickened diagonal"): its Picard group is Z x G_a, a bundle is presented by
pullback data (ku, kv, apic), and cohomology comes from an exact two-chart
Cech complex truncated at a window N, whose counts must agree with those
at N + 4.  One elimination of window N + 4 gives every count at both: its
columns of degree <= N come first, so window N is its restriction to those
leading columns, and the rank of window N after each block of rows is the
number of pivots there.  The outer rows go in first, and the rank after
them is what h1 needs, then the inner rows, and the rank after them is what
h0 needs.  The rows are in the field's representation (`ints`, see
`exactmath`): over F_p residues, over Q ints, each row up to a positive
factor, which leaves every rank as it is.  Rank-1
torsion-free but non-invertible sheaves are kernels of a surjection onto
the structure sheaf of a divisor D of the reduced locus; their
Taylor-vanishing rows go last into the same elimination, in a window that
grows with deg D, and the rank after them gives the sheaf's h0.  So a sheaf's cohomology costs one
elimination, and h1 follows from the long exact sequence.

The combinatorial layer encodes the classification tables: a descriptor names
the member type and the discrete invariants, and pure functions return the
splitting type (a, b) of the direct image, the twisted splitting type
(a', b'), the Gieseker stability class, and the deformation-theoretic
dimension counts.  The engine above (plus the reduced-member engine in
linebundles) exists so the tables can be checked against honest cohomology.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .exactmath import block_ranks
from .linebundles import (
    LineBundle,
    is_twisted_v_pullback,
    is_v_pullback,
    split_from_cohomology,
    split_from_h0,
)
from .polyring import uv_trim

DESCRIPTOR_KINDS = ("split-pair", "non-reduced", "integral", "reducible", "two-lines")


# ---------------------------------------------------------------------------
# thickened-diagonal Cech cohomology


def _columns(N, M):
    """Column of each coefficient of the unknowns of degree <= M, as four
    lists [P, Q, Pt, Qt] indexed by degree: the degree-<= N coefficients of
    all four blocks come first, in the layout of window N, and the degrees
    N + 1..M after them, block by block."""
    n1, extra = N + 1, M - N
    return [[b * n1 + d if d <= N else 4 * n1 + b * extra + d - n1 for d in range(M + 1)]
            for b in range(4)]


def _cech_rows(field, k, c, N, M):
    """Sparse rows of the Cech differential truncated at window M >= N,
    keyed by output coefficient, in the columns of `_columns(N, M)`.

    Unknowns: chart-0 section P + uQ and chart-1 section Pt + vQt, all of
    degree <= M.  On the overlap (w = 1/z, v = u/z^2, transition
    z^k(1 + c*u/z)):

        plain part of d:  P(z) - z^k Pt(1/z)
        u part of d:      Q(z) - z^(k-2) Qt(1/z) - c z^(k-1) Pt(1/z)

    Returns {('f', e): row} for plain coefficients of z^e and ('u', e) rows.
    On its leading 4(N + 1) columns each row is the row of window N with
    that key, or zero where window N has none.  The u-rows take 1 and -c
    in the field's `ints` (over Q both times the denominator of c), the
    f-rows the ints 1 and -1.
    """
    unit, neg_c = field.ints([1, -field.coerce(c)])
    P, Q, Pt, Qt = _columns(N, M)
    NE = M + abs(k) + 4
    rows = {}
    # the columns of a row never coincide: f-rows meet P and Pt, u-rows
    # meet Q, Qt and Pt
    for e in range(-NE, NE + 1):
        r = {}
        if 0 <= e <= M:
            r[P[e]] = 1
        j = k - e
        if 0 <= j <= M:
            r[Pt[j]] = -1
        if r:
            rows[("f", e)] = r
        r = {}
        if 0 <= e <= M:
            r[Q[e]] = unit
        j = k - 2 - e
        if 0 <= j <= M:
            r[Qt[j]] = -unit
        j = k - 1 - e
        if neg_c and 0 <= j <= M:
            r[Pt[j]] = neg_c
        if r:
            rows[("u", e)] = r
    return rows


def _dcond_rows(field, dfin, dinf, N, M):
    """Taylor-vanishing rows along the divisor D of the reduced locus, at
    window M in the columns of `_columns(N, M)`: the plain part P must be
    divisible by dfin(z), and the first dinf coefficients of Pt must vanish
    (multiplicity of D at infinity).  Row j of the first kind holds the z^j
    coefficients of z^i mod dfin for i <= M, up to a nonzero factor.  The
    recurrence runs on dfin made monic, in the field's `ints`.  Over Q that
    is the primitive integer polynomial with leading coefficient a > 0, and
    each step that reduces by it multiplies by a (a pseudo-remainder), so
    column i holds a^s_i (z^i mod dfin) after s_i such steps, and is
    multiplied by a^(s_M - s_i), which makes row j a^s_M times its row of
    rationals.  Restricted to the leading 4(N + 1) columns, these are the
    rows of window N, over Q up to a factor."""
    P, _, Pt, _ = _columns(N, M)
    rows = []
    dfin = uv_trim([field.coerce(x) for x in dfin]) if dfin else []
    degf = len(dfin) - 1 if dfin else 0
    if degf > 0:
        p = field.modulus
        inv = field.one() / dfin[-1]
        dfin = field.ints([x * inv for x in dfin])
        lead = dfin[-1]
        cols, steps = [], []
        cur = [1] + [0] * (degf - 1)  # z^0 mod dfin
        s = 0
        for _ in range(M + 1):
            cols.append(cur)
            steps.append(s)
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [lead * a - top * b for a, b in zip(cur, dfin)]
                if p:
                    cur = [a % p for a in cur]
                s += 1
        if lead != 1:
            cols = [[lead ** (steps[-1] - si) * v for v in col] for col, si in zip(cols, steps)]
        rows = [{} for _ in range(degf)]
        for i, col in enumerate(cols):
            for row, v in zip(rows, col):
                if v:
                    row[P[i]] = v
    for j in range(int(dinf)):
        rows.append({Pt[j]: 1})
    return rows


def _nr_cohomology(field, k, c, N, dfin=(), dinf=0):
    """(h0, h1) of the Cech complex truncated at window N and h0 of its
    sections vanishing on D, made at the windows N and N + 4, which must
    agree; the bundle's h0 - h1 must be 2k.

    One elimination of window N + 4 gives both windows.  Its rows go in by
    blocks, |e| > Nsm + 4, then Nsm < |e| <= Nsm + 4, then |e| <= Nsm, then
    the D rows, where Nsm = N - |k| - 4.  Window N is window N + 4
    restricted to the leading 4(N + 1) columns of `_columns`, so after each
    block the rank of window N is the pivot count there (`block_ranks`).
    At a window, the rank after the outer rows (|e| > Nsm) is what h1
    needs, after the inner rows what h0 needs, and after the D rows what
    the sheaf's h0 needs."""
    M = N + 4
    Nsm = N - (abs(k) + 4)
    if Nsm < 1:
        raise AssertionError("window too small for the outer projection")
    blocks = ([], [], [])
    for (_, e), r in _cech_rows(field, k, c, N, M).items():
        blocks[(abs(e) <= Nsm + 4) + (abs(e) <= Nsm)].append(r.items())
    dcond = [r.items() for r in _dcond_rows(field, dfin, dinf, N, M)]
    (out_b, _), (_, out_a), (full_b, full_a), (d_b, d_a) = block_ranks(
        field, (*blocks, dcond), lead=4 * (N + 1))

    def counts(n, nsm, rank_out, rank_full, rank_d):
        return (4 * (n + 1) - rank_full, 2 * (2 * nsm + 1) - (rank_full - rank_out),
                4 * (n + 1) - rank_d)

    a = counts(N, Nsm, out_a, full_a, d_a)
    b = counts(M, Nsm + 4, out_b, full_b, d_b)
    if a != b:
        raise AssertionError(f"Cech window did not stabilize: {a} vs {b}")
    if min(a) < 0:
        raise AssertionError("negative cohomology dimension")
    if a[0] - a[1] != 2 * k:
        raise AssertionError("Euler characteristic mismatch in the Cech computation")
    return a


def nr_closed_form(k, c_nonzero):
    """(h0, h1) of the doubled-member bundle of class (k, c): h0 is 2k for
    k >= 1, 1 for the trivial class and 0 otherwise, and h1 = h0 - 2k."""
    if k >= 1:
        h0 = 2 * k
    elif k == 0:
        h0 = 0 if c_nonzero else 1
    else:
        h0 = 0
    return (h0, h0 - 2 * k)


def nr_invertible_cohomology(field, k, c):
    """(h0, h1) of the bundle with transition z^k(1 + c*u/z); the truncated
    computation at window 2|k| + 8 is repeated with a larger window and
    must agree."""
    return _nr_cohomology(field, k, c, 2 * abs(k) + 8)[:2]


class NRSheaf:
    """Rank-1 sheaf on the doubled member: pullback bundle data plus an
    optional co-support divisor D on the reduced locus.

    ku, kv: pullback twists from the two factors; apic: the G_a coordinate
    of the Picard class relative to u-pullbacks.  dfin is a polynomial in
    the affine chart coordinate cutting the finite part of D (low degree
    first), dinf the multiplicity of D at infinity.  D empty <=> invertible.
    """

    __slots__ = ("field", "ku", "kv", "apic", "dfin", "dinf")

    def __init__(self, field, ku, kv, apic=0, dfin=(), dinf=0):
        self.field = field
        self.ku = int(ku)
        self.kv = int(kv)
        self.apic = field.coerce(apic)
        dfin = uv_trim([field.coerce(x) for x in dfin])
        if dfin and len(dfin) == 1:
            dfin = []  # nonzero constant cuts nothing
        self.dfin = dfin
        self.dinf = int(dinf)
        if self.dinf < 0:
            raise ValidationError("negative multiplicity at infinity")

    # Picard coordinates of the underlying bundle
    @property
    def k(self):
        return self.ku + self.kv

    @property
    def c(self):
        # kv + apic; the G_a part is additive and u-pullbacks sit at c = 0
        return self.field.coerce(self.kv) + self.apic

    def pic_coordinate(self):
        """c - k: vanishes exactly on v-pullbacks."""
        return self.c - self.field.coerce(self.k)

    def degd(self):
        return (len(self.dfin) - 1 if self.dfin else 0) + self.dinf

    def is_invertible(self):
        return self.degd() == 0

    def chi(self):
        return 2 * self.k - self.degd()

    def twist_u(self, j):
        return NRSheaf(self.field, self.ku + j, self.kv, self.apic, self.dfin, self.dinf)

    def twist_v(self, j):
        return NRSheaf(self.field, self.ku, self.kv + j, self.apic, self.dfin, self.dinf)

    def swap(self):
        """Exchange the two ruling pullbacks (the involution fixes the
        reduced locus pointwise, so D is unchanged)."""
        return NRSheaf(self.field, self.kv, self.ku, -self.apic, self.dfin, self.dinf)

    def h0(self):
        return self.cohomology()[0]

    def cohomology(self):
        """(h0, h1), from one elimination for both Cech windows; h1 of a
        non-invertible sheaf follows from the long exact sequence."""
        # the D rows reach column 2(N + 1) + dinf - 1, inside the Pt block
        N = max(2 * abs(self.k), self.degd()) + 8
        h0l, h1l, h0 = _nr_cohomology(self.field, self.k, self.c, N, self.dfin, self.dinf)
        h1 = h1l + self.degd() - h0l + h0
        if h1 < 0:
            raise AssertionError("negative h1 from the long exact sequence")
        return h0, h1

    def __repr__(self):
        return (f"NRSheaf(ku={self.ku}, kv={self.kv}, apic={self.apic!r}, "
                f"degd={self.degd()})")


def nr_split_v(sheaf):
    """Splitting type of the direct image on the second factor, from the h0
    profile of v-twists (`split_from_h0`)."""
    return split_from_h0(lambda j: sheaf.twist_v(j).h0(), sheaf.chi())


def nr_split_u(sheaf):
    return nr_split_v(sheaf.swap())


# ---------------------------------------------------------------------------
# descriptors


class Descriptor:
    """Discrete invariants of a rank-1 sheaf on an anticanonical member,
    sufficient to evaluate the classification tables."""

    __slots__ = ("kind", "params")

    def __init__(self, kind, **params):
        if kind not in DESCRIPTOR_KINDS:
            raise ValidationError(f"unknown descriptor kind {kind!r}")
        self.kind = kind
        self.params = params
        getattr(self, "_check_" + kind.replace("-", "_"))()

    def _int(self, name):
        v = self.params.get(name)
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"descriptor field {name!r} must be an integer")
        return v

    def _bool(self, name):
        v = self.params.get(name)
        if not isinstance(v, bool):
            raise ValidationError(f"descriptor field {name!r} must be a boolean")
        return v

    def _check_split_pair(self):
        a, b = self._int("a"), self._int("b")
        if a > b:
            raise ValidationError("split pair must be ordered a <= b")
        self._allow({"a", "b"})

    def _check_non_reduced(self):
        chi, degd = self._int("chi"), self._int("degd")
        if degd < 0:
            raise ValidationError("degd must be nonnegative")
        if (chi + degd) % 2:
            raise ValidationError("chi and degd must have equal parity")
        if degd == 0:
            self._bool("v_pullback")
            self._bool("shifted_v_pullback")
            if self.params["v_pullback"] and self.params["shifted_v_pullback"]:
                raise ValidationError("the two pullback flags exclude each other")
            self._allow({"chi", "degd", "v_pullback", "shifted_v_pullback"})
        else:
            self._allow({"chi", "degd"})

    def _check_integral(self):
        chi = self._int("chi")
        inv = self._bool("invertible")
        if inv and chi % 2 == 0:
            self._bool("v_pullback")
            self._allow({"chi", "invertible", "v_pullback"})
        else:
            self._allow({"chi", "invertible"})

    def _check_reducible(self):
        p, q = self._int("p"), self._int("q")
        if p > q:
            raise ValidationError("component degrees must be ordered p <= q")
        self._bool("invertible")
        if self.params["invertible"] and p == q:
            self._bool("v_pullback")
            self._allow({"p", "q", "invertible", "v_pullback"})
        else:
            self._allow({"p", "q", "invertible"})

    def _check_two_lines(self):
        p, q = self._int("p"), self._int("q")
        if p > q:
            raise ValidationError("line degrees must be ordered p <= q")
        self._allow({"p", "q"})

    def _allow(self, names):
        extra = set(self.params) - names
        if extra:
            raise ValidationError(f"unexpected descriptor fields {sorted(extra)}")
        missing = names - set(self.params)
        if missing:
            raise ValidationError(f"missing descriptor fields {sorted(missing)}")

    def chi(self):
        k, p = self.kind, self.params
        if k == "split-pair":
            return p["a"] + p["b"] + 2
        if k in ("non-reduced", "integral"):
            return p["chi"]
        if k == "reducible":
            return p["p"] + p["q"] + (0 if p["invertible"] else 1)
        return p["p"] + p["q"] + 2

    def __eq__(self, other):
        return (
            isinstance(other, Descriptor)
            and self.kind == other.kind
            and self.params == other.params
        )

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"Descriptor({self.kind}, {inner})"


def _sorted_pair(a, b):
    return (a, b) if a <= b else (b, a)


def split_ab(desc):
    """Splitting type (a, b), a <= b, of the direct image on the second
    factor, read off the classification tables."""
    k, p = desc.kind, desc.params
    chi = desc.chi()
    if "v_pullback" in p:
        # the descriptor carries this flag exactly when the sheaf could be
        # the v-pullback O(0, chi/2): if it is, the direct image splits with
        # a gap of 2, otherwise evenly
        half = chi // 2
        return (half - 2, half) if p["v_pullback"] else (half - 1, half - 1)
    if k == "split-pair":
        return (p["a"], p["b"])
    if k == "non-reduced":
        return _sorted_pair((chi - p["degd"]) // 2, (chi + p["degd"]) // 2 - 2)
    if k == "integral":
        if p["invertible"]:
            return ((chi - 3) // 2, (chi - 1) // 2)
        i = chi - 1
        return (i // 2 - 1, i // 2) if i % 2 == 0 else ((i - 1) // 2, (i - 1) // 2)
    if k == "reducible":
        pp, q = p["p"], p["q"]
        if p["invertible"]:
            if q - pp == 1:
                return (pp - 1, pp)
            return (pp, q - 2)
        return (pp - 1, pp) if pp == q else (pp, q - 1)
    return (p["p"], p["q"])


def _twisted(desc, flag):
    """Descriptor of the twist by the (-1,0)-pullback: a, b, p, q each drop
    by 1 and chi by 2, and `flag` (whether the twist is a v-pullback) is its
    v_pullback field.  A doubled member carries that flag as its own
    shifted_v_pullback; split_ab does not read the twist's shifted flag, so
    it is set False."""
    shift = {"a": 1, "b": 1, "p": 1, "q": 1, "chi": 2}
    params = {name: v - shift[name] if name in shift else v
              for name, v in desc.params.items()}
    if "shifted_v_pullback" in params:
        params["v_pullback"], params["shifted_v_pullback"] = params["shifted_v_pullback"], False
    elif "v_pullback" in params:
        params["v_pullback"] = bool(flag)
    return Descriptor(desc.kind, **params)


def split_ab_prime(desc, shifted_v_pullback=False):
    """Splitting type (a', b') of the direct image of the twist by the
    (-1,0)-pullback: the table of split_ab read on the twisted descriptor.
    The flag states whether that twist is itself a v-pullback; kinds that
    determine it internally reject an explicit True."""
    p = desc.params
    if shifted_v_pullback and (desc.kind == "non-reduced" or "v_pullback" not in p):
        raise ValidationError("twist flag is determined by the descriptor here")
    if shifted_v_pullback and p["v_pullback"]:
        raise ValidationError("a sheaf cannot be a pullback both ways")
    return split_ab(_twisted(desc, shifted_v_pullback))


def stability_classify(desc):
    """Gieseker stability class of the sheaf named by the descriptor."""
    k, p = desc.kind, desc.params
    if k == "split-pair":
        return "StrictlySemistable" if p["a"] == p["b"] else "Unstable"
    if k == "non-reduced":
        d = p["degd"]
        if d <= 1:
            return "Stable"
        return "StrictlySemistable" if d == 2 else "Unstable"
    if k == "integral":
        return "Stable"
    if k == "reducible":
        gap = p["q"] - p["p"]
        if p["invertible"]:
            if gap <= 1:
                return "Stable"
            return "StrictlySemistable" if gap == 2 else "Unstable"
        if gap == 0:
            return "Stable"
        return "StrictlySemistable" if gap == 1 else "Unstable"
    return "StrictlySemistable" if p["p"] == p["q"] else "Unstable"


def hilbert_polynomial(desc):
    """(leading, constant) of P(t) = 8t + chi."""
    return (8, desc.chi())


def reduced_hilbert(leading, chi):
    """Normalize P(t) = leading*t + chi to monic: (1, chi/leading).

    Used both for rank-2 sheaves on the anticanonical member (leading 8)
    and for comparison subsheaves supported on a reduced component
    (leading 4)."""
    if leading <= 0:
        raise ValidationError("the support degree must be positive")
    return (Fraction(1), Fraction(chi, leading))


def gieseker_p(desc):
    """Reduced Hilbert polynomial p(t) = t + chi/8 as (1, Fraction)."""
    return reduced_hilbert(*hilbert_polynomial(desc))


# ---------------------------------------------------------------------------
# descriptors of concrete sheaves


def descriptor_of_line_bundle(L):
    """Descriptor (and the twist flag for the primed table) of an invertible
    sheaf on a reduced member."""
    chi = L.degree_total()
    if L.curve.is_reducible():
        dd = sorted(L.degree_by_component())
        p, q = dd[0], dd[1]
        if p == q:
            vp = is_v_pullback(L)
            tw = is_twisted_v_pullback(L)
            return Descriptor("reducible", p=p, q=q, invertible=True, v_pullback=vp), tw
        return Descriptor("reducible", p=p, q=q, invertible=True), False
    if chi % 2 == 0:
        vp = is_v_pullback(L)
        tw = is_twisted_v_pullback(L)
        return Descriptor("integral", chi=chi, invertible=True, v_pullback=vp), tw
    return Descriptor("integral", chi=chi, invertible=True), False


def descriptor_of_nr_sheaf(sheaf):
    degd = sheaf.degd()
    if degd == 0:
        astar = sheaf.pic_coordinate()
        return Descriptor(
            "non-reduced", chi=sheaf.chi(), degd=0,
            v_pullback=not astar,
            shifted_v_pullback=astar == sheaf.field.coerce(-1),
        )
    return Descriptor("non-reduced", chi=sheaf.chi(), degd=degd)


def split_of_concrete(obj):
    """Cohomology-computed splitting type of a concrete sheaf (reduced
    invertible or doubled-member)."""
    if isinstance(obj, LineBundle):
        return split_from_cohomology(obj)
    if isinstance(obj, NRSheaf):
        return nr_split_v(obj)
    raise ValidationError("splitting is computed for line bundles and doubled-member sheaves")


def split_prime_of_concrete(obj):
    if isinstance(obj, LineBundle):
        return split_from_cohomology(obj.twist(-1, 0))
    if isinstance(obj, NRSheaf):
        return nr_split_v(obj.twist_u(-1))
    raise ValidationError("splitting is computed for line bundles and doubled-member sheaves")


# ---------------------------------------------------------------------------
# deformation numbers


def endo_ext_dims_reduced(curve):
    """(ext0, ext1, ext2) of a rank-1 sheaf against itself on a reduced
    member; the values depend only on the member, through h*(O_W) and
    h*(O(2,2)|_W)."""
    O = LineBundle(curve, 0, 0)
    A = LineBundle(curve, 2, 2)
    return (O.h0(), O.h1() + A.h0(), A.h1())


def endo_ext_dims_nr(field):
    h0o, h1o = nr_invertible_cohomology(field, 0, 0)
    h0a, h1a = nr_invertible_cohomology(field, 4, 2)
    return (h0o, h1o + h0a, h1a)


def hochschild_dims(d):
    """(hh1, hh2, hh3, hh2 - hh1 - hh3) for the degree-d noncommutative
    surface; the alternating sum is 3 for every d."""
    if not isinstance(d, int) or d < 0:
        raise ValidationError("the surface parameter must be a nonnegative integer")
    hh1 = max(d - 1, 0) + 6
    hh2 = max(d - 3, 0) + 9 + max(d - 1, 0)
    hh3 = max(d - 3, 0)
    return (hh1, hh2, hh3, hh2 - hh1 - hh3)


def moduli_dim_check(ext_dims):
    """Consistency of the two dimension counts: the smooth locus is
    1 - chi(End) = ext1 when (ext0, ext2) = (1, 0), and the quotient
    dimension is that minus the hh1 symmetries, which must equal the
    Hochschild Euler number hh2 - hh1 - hh3 of the d = 0 surface."""
    e0, e1, e2 = ext_dims
    chi = e0 - e1 + e2
    smooth = 1 - chi
    hh1, hh2, hh3, _ = hochschild_dims(0)
    out = {
        "ext_dims": list(ext_dims),
        "chi_end": chi,
        "smooth_locus_dim": smooth,
        "first_order_symmetries": hh1,
        "quotient_dim": smooth - hh1,
        "hochschild_euler": hh2 - hh1 - hh3,
    }
    out["consistent"] = (
        smooth == e1 and out["quotient_dim"] == out["hochschild_euler"]
    )
    return out
