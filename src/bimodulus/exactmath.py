"""Exact scalars and deterministic dense linear algebra.

Three scalar kinds interoperate through the usual arithmetic dunders:

* ``fractions.Fraction`` for the rationals,
* ``FpElt`` for a prime field F_p with p >= 5,
* ``QEElt`` for a quadratic extension F(sqrt(d)) of either.

Field handles (``QQ``, ``PrimeField``, ``QuadExtField``) build constants,
parse/format the JSON scalar strings, and provide square roots without
tables: Tonelli-Shanks over F_p (on an int residue, ``residue_sqrt``,
with the field's non-residue power found once), and in a quadratic
extension of either base one root taken through the norm.  Finite fields
stream their elements.  A random element is drawn directly: n/d with
n in [-12, 12] and d in [1, 6] over Q, a residue over F_p, and a + b
sqrt(d) from two base draws over an extension.

Each field has one representation, the form the hot loops compute on:
``ints(values)`` reads values through ``coerce``, so a foreign value
raises ValidationError, as residues in [0, p) over F_p, over Q as ints,
each value times the lcm of all their denominators (one positive
factor), and as field elements over a quadratic extension.  ``modulus``
is p over F_p and 0 on the others.

All linear algebra is exact, and reduced forms, kernels and ranks are
bit-reproducible across runs.  Elimination reads each entry once into
the field's representation, with one row-echelon loop each (over Q on
fraction-free primitive integer rows).  The loop clears each row at its
leading column against the pivot rows keyed there; `sparse_rank` and
`rank` count the pivot rows, and `rref` also runs its back substitution
through the loop and builds field elements once, at exit.  Over F_p,
ints are read as residues without `coerce`, and `reduce_modulo` reduces
a vector against an echelon basis on residues, making field elements
only of its result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import ValidationError


# The first thirteen primes are a complete set of Miller-Rabin witnesses
# below the least strong pseudoprime to all of them.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin test, exact for n < PRIME_BOUND; larger n
    raise ValidationError."""
    if n >= PRIME_BOUND:
        raise ValidationError(f"primality of {n} is decided only below {PRIME_BOUND}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _fraction_sqrt(x):
    """Exact square root of a Fraction, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class RationalField:
    """The field Q, backed by fractions.Fraction."""

    characteristic = 0
    modulus = 0

    def __call__(self, n=0, d=1):
        return Fraction(n, d)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise ValidationError(f"cannot coerce {x!r} into Q")

    def ints(self, values):
        """The values as ints, times the lcm of their denominators."""
        pairs = [(x if x.__class__ in (Fraction, int) else self.coerce(x)).as_integer_ratio()
                 for x in values]
        den = lcm(*[d for _, d in pairs])
        return [n * (den // d) for n, d in pairs]

    def random(self, rng):
        return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

    def random_nonzero(self, rng):
        while True:
            x = self.random(rng)
            if x:
                return x

    def is_square(self, x):
        return _fraction_sqrt(self.coerce(x)) is not None

    def sqrt(self, x):
        return _fraction_sqrt(self.coerce(x))

    def format(self, x):
        x = self.coerce(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def parse(self, s):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as e:
            raise ValidationError(f"bad rational scalar {s!r}") from e

    def to_json(self):
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElt:
    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _co(self, other):
        if isinstance(other, FpElt):
            if other.p != self.p:
                raise ValidationError("mixed prime fields")
            return other
        if isinstance(other, int):
            return FpElt(self.p, other)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise ValidationError(f"denominator divisible by {self.p}")
            return FpElt(self.p, other.numerator * pow(other.denominator, -1, self.p))
        return None

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return FpElt(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return FpElt(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return FpElt(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return FpElt(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElt(self.p, self.v * pow(o.v, self.p - 2, self.p))

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElt(self.p, o.v * pow(self.v, self.p - 2, self.p))

    def __neg__(self):
        return FpElt(self.p, -self.v)

    def __pow__(self, e):
        if e < 0:
            return (FpElt(self.p, 1) / self) ** (-e)
        return FpElt(self.p, pow(self.v, e, self.p))

    def __eq__(self, other):
        if isinstance(other, FpElt):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return (self.v - other) % self.p == 0
        return NotImplemented

    def __hash__(self):
        # equal elements have equal residues
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}m{self.p}"


class PrimeField:
    """F_p for an odd prime p >= 5 (characteristics 2 and 3 are rejected:
    the discriminant and local-expansion formulas divide by 2 and 3)."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValidationError(f"{p!r} is not prime")
        if p in (2, 3):
            raise ValidationError(f"characteristic {p} is not supported")
        self.p = self.modulus = self.characteristic = p
        self._nonresidue = None
        self._tonelli = None  # (q, s, c^q) with p - 1 = q 2^s, c a non-residue

    def __call__(self, n=0):
        if n.__class__ is int:
            return FpElt(self.p, n)
        if isinstance(n, FpElt):
            if n.p != self.p:
                raise ValidationError("mixed prime fields")
            return n
        if isinstance(n, (int, Fraction)):
            return FpElt(self.p, 0)._co(n)
        raise ValidationError(f"cannot coerce {n!r} into F_{self.p}")

    coerce = __call__

    def zero(self):
        return FpElt(self.p, 0)

    def one(self):
        return FpElt(self.p, 1)

    def ints(self, values):
        """The residues of the values in [0, p)."""
        p = self.p
        return [x.v if x.__class__ is FpElt and x.p == p
                else x % p if x.__class__ is int else self.coerce(x).v
                for x in values]

    def elements(self):
        return (FpElt(self.p, v) for v in range(self.p))

    def random(self, rng):
        return FpElt(self.p, rng.randrange(self.p))

    def random_nonzero(self, rng):
        return FpElt(self.p, rng.randrange(1, self.p))

    def _is_residue(self, v):
        """Euler's criterion for an int in [0, p)."""
        return v == 0 or pow(v, (self.p - 1) // 2, self.p) == 1

    def is_square(self, x):
        return self._is_residue(self.coerce(x).v)

    def sqrt(self, x):
        """The smaller of the two square roots, or None."""
        r = self.residue_sqrt(self.coerce(x).v)
        return None if r is None else FpElt(self.p, r)

    def residue_sqrt(self, v):
        """`sqrt` of an int in [0, p), as an int in [0, p) (Tonelli-Shanks)."""
        p = self.p
        if not self._is_residue(v):
            return None
        if self._tonelli is None:
            q, s = p - 1, 0
            while not q % 2:
                q, s = q // 2, s + 1
            c = pow(self.smallest_nonresidue().v, q, p) if s > 1 else p - 1
            self._tonelli = (q, s, c)
        q, m, c = self._tonelli
        # invariant: r^2 = v t, with t of order dividing 2^m and c of order
        # 2^m; v = 0 starts and ends at t = r = 0
        t, r = pow(v, q, p), pow(v, (q + 1) // 2, p)
        while t > 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return min(r, p - r)

    def smallest_nonresidue(self):
        # searched once per field, by the first square root when p = 1 mod 4
        if self._nonresidue is None:
            self._nonresidue = next(v for v in range(2, self.p) if not self._is_residue(v))
        return FpElt(self.p, self._nonresidue)

    def format(self, x):
        return f"{self.coerce(x).v} mod {self.p}"

    def parse(self, s):
        parts = s.split("mod")
        if len(parts) != 2:
            raise ValidationError(f"bad prime-field scalar {s!r}")
        try:
            v, p = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise ValidationError(f"bad prime-field scalar {s!r}") from e
        if p != self.p:
            raise ValidationError(f"scalar {s!r} is not in F_{self.p}")
        return FpElt(self.p, v)

    def to_json(self):
        return {"kind": "Fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class QEElt:
    """a + b*sqrt(d) over a base field; d a fixed non-square of the base."""

    __slots__ = ("fld", "a", "b")

    def __init__(self, fld, a, b):
        self.fld = fld
        self.a = a
        self.b = b

    def _co(self, other):
        if isinstance(other, QEElt):
            if other.fld is not self.fld and other.fld != self.fld:
                raise ValidationError("mixed quadratic extensions")
            return other
        try:
            base = self.fld.base.coerce(other)
        except (ValidationError, TypeError):
            return None
        return QEElt(self.fld, base, self.fld.base.zero())

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return QEElt(self.fld, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return QEElt(self.fld, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return QEElt(self.fld, o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        d = self.fld.d
        return QEElt(self.fld, self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def norm(self):
        return self.a * self.a - self.fld.d * self.b * self.b

    def inv(self):
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero in quadratic extension")
        return QEElt(self.fld, self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __neg__(self):
        return QEElt(self.fld, -self.a, -self.b)

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        out = self.fld.one()
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash(("QE", self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"({self.a!r}+{self.b!r}r)"


class QuadExtField:
    """F(sqrt(d)); by default d is the smallest non-residue of a prime base."""

    modulus = 0

    def __init__(self, base, d=None):
        self.base = base
        if d is None:
            if not isinstance(base, PrimeField):
                raise ValidationError("default non-residue only for prime bases")
            d = base.smallest_nonresidue()
        d = base.coerce(d)
        if base.is_square(d):
            raise ValidationError("adjoined element must be a non-square")
        self.d = d
        self.characteristic = base.characteristic

    def __call__(self, x=0):
        if isinstance(x, QEElt):
            if x.fld != self:
                raise ValidationError("mixed quadratic extensions")
            return x
        return QEElt(self, self.base.coerce(x), self.base.zero())

    coerce = __call__

    def zero(self):
        return self(0)

    def one(self):
        return self(1)

    def ints(self, values):
        """The values as elements of the extension."""
        return [self.coerce(x) for x in values]

    def elements(self):
        return (QEElt(self, a, b) for a in self.base.elements() for b in self.base.elements())

    def random(self, rng):
        return QEElt(self, self.base.random(rng), self.base.random(rng))

    def random_nonzero(self, rng):
        while True:
            x = self.random(rng)
            if x:
                return x

    def is_square(self, x):
        return self.sqrt(x) is not None

    def sqrt(self, x):
        """A square root through the norm, or None.

        If (c + e sqrt(d))^2 = a + b sqrt(d), then a = c^2 + d e^2, b = 2ce
        and n = c^2 - d e^2 is a square root of the norm a^2 - d b^2, so c^2
        is (a + n)/2 or (a - n)/2.  Of the two roots, the one returned has
        its first nonzero coordinate l equal to the base's root of l^2: over
        F_p the root first in `elements()` order, over Q the one whose first
        nonzero coordinate is positive.
        """
        x = self.coerce(x)
        base, a, b = self.base, x.a, x.b
        n = base.sqrt(x.norm())
        if n is None:
            return None
        for c2 in ((a + n) / 2, (a - n) / 2):
            c = base.sqrt(c2)
            if c is None:
                continue
            e = b / (2 * c) if c else base.sqrt(a / self.d)
            if e is None:
                continue
            r = QEElt(self, c, e)
            if r * r == x:
                lead = c or e
                return r if base.sqrt(lead * lead) == lead else -r
        return None

    def format(self, x):
        x = self.coerce(x)
        if isinstance(self.base, PrimeField):
            return f"[{x.a.v},{x.b.v}] mod {self.base.p} adjoin sqrt({self.d.v})"
        return f"[{self.base.format(x.a)},{self.base.format(x.b)}] adjoin sqrt({self.base.format(self.d)})"

    def parse(self, s):
        txt = s.strip()
        if not txt.startswith("["):
            raise ValidationError(f"bad extension scalar {s!r}")
        close = txt.index("]")
        a_s, b_s = txt[1:close].split(",")
        if isinstance(self.base, PrimeField):
            a = self.base.parse(f"{a_s} mod {self.base.p}")
            b = self.base.parse(f"{b_s} mod {self.base.p}")
        else:
            a, b = self.base.parse(a_s), self.base.parse(b_s)
        return QEElt(self, a, b)

    def to_json(self):
        base = self.base.to_json()
        d = self.d.v if isinstance(self.base, PrimeField) else self.base.format(self.d)
        return {"kind": "quad-ext", "base": base, "d": d}

    def __eq__(self, other):
        return isinstance(other, QuadExtField) and other.base == self.base and other.d == self.d

    def __hash__(self):
        return hash(("QuadExt", self.base, repr(self.d)))

    def __repr__(self):
        return f"{self.base!r}(sqrt({self.d!r}))"


def field_from_json(obj):
    """The field of a descriptor written by `to_json`; a missing or
    ill-typed key raises ValidationError."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("field descriptor must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "Q":
        return QQ
    if kind == "Fp":
        return PrimeField(obj.get("p"))
    if kind == "quad-ext":
        base = field_from_json(obj.get("base"))
        d = obj.get("d")
        # `to_json` writes an adjoined rational as a scalar string
        return QuadExtField(base, base.parse(d) if isinstance(d, str) else d)
    raise ValidationError(f"unknown field kind {kind!r}")


def scalar_to_json(field, x):
    return field.format(x)


def scalar_from_json(field, s):
    if not isinstance(s, str):
        raise ValidationError(f"scalar must be a string, got {s!r}")
    return field.parse(s)


# ---------------------------------------------------------------------------
# deterministic linear algebra (rows = equations unless noted)


def rref(field, rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns).

    The rows go through the field's echelon loop (`_representation`), and
    so does back substitution: with the pivot columns negated, the pivot
    rows, fed in last pivot first, are each cleared at the later pivots,
    last one first, by rows already reduced, and then lead at their own
    pivot again.  Field elements are built once, at exit.  The reduced form
    is unique, so it does not depend on the order of the rows.  With no
    rows, or rows of no columns, there is nothing to eliminate.
    """
    if not rows or not rows[0]:
        return [], []
    read, echelon, finish = _representation(field)
    pivots = echelon(field, read(field, map(enumerate, rows)), {})
    cols = sorted(pivots)
    back = []
    for c in reversed(cols):
        lead, rest = pivots[c]
        r = {-j if j in pivots else j: v for j, v in rest.items()}
        r[-c] = lead
        back.append(r)
    reduced = echelon(field, back, {})
    return [finish(field, *reduced[-c], c, len(rows[0])) for c in cols], cols


def rank(field, rows):
    """The number of pivot rows of the field's echelon loop: no back
    substitution, and no row is written out.  With no rows, or rows of no
    columns, there is nothing to eliminate."""
    if not rows or not rows[0]:
        return 0
    return next(block_ranks(field, [map(enumerate, rows)]))


def kernel_basis(field, rows, ncols):
    """Deterministic basis of {x : A x = 0}; rows of A are the equations."""
    red, pivots = rref(field, rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc]
        basis.append(v)
    return basis


def reduce_modulo(field, red, pivots, vec):
    """vec minus its components along the rows of a reduced row echelon
    basis (as returned by rref); zero exactly when vec lies in their span.
    Rows built up one at a time also do, if each is 1 at its pivot and 0 at
    the pivots of the rows before it.  Over F_p the entries of vec are read
    once, as the field's `ints`, and reduced as residues, and the result is
    made of field elements at exit."""
    if isinstance(field, PrimeField):
        p = field.p
        w = field.ints(vec)
        for r, pc in zip(red, pivots):
            c = w[pc] % p
            if c:
                w = [a - c * b.v for a, b in zip(w, r)]
        return [FpElt(p, a) for a in w]
    w = list(vec)
    for r, pc in zip(red, pivots):
        if w[pc]:
            c = w[pc]
            w = [a - c * b for a, b in zip(w, r)]
    return w


def subspace_equal(field, basis1, basis2):
    r1, p1 = rref(field, basis1)
    r2, p2 = rref(field, basis2)
    return p1 == p2 and r1 == r2


def sparse_rank(field, rows):
    """Rank of a matrix given as sparse rows ({column: value} dicts): the
    number of pivot rows of the field's echelon loop.  The loop touches
    only nonzero entries and never reduces a pivot row again, so banded
    systems (Cech matrices) fill in little."""
    return next(block_ranks(field, [map(dict.items, rows)]))


def block_ranks(field, blocks, lead=None):
    """The rank of a matrix growing by blocks of rows, after each block.

    A row is an iterable of (column, value) pairs.  One run of the field's
    echelon loop takes every block: each row is reduced once, against the
    pivot rows kept so far, so the ranks of all the prefixes cost one
    elimination of the whole.  Lazy: a block is read only when the rank
    after it is asked for.

    Given `lead`, each rank comes as a pair (rank, rank of the same rows
    restricted to the columns below `lead`).  Every pivot row leads at its
    smallest column, so the pivot rows leading below `lead` stay independent
    there, the others vanish there, and the second rank is their number."""
    read, echelon, _ = _representation(field)
    pivots = {}
    for block in blocks:
        echelon(field, read(field, block), pivots)
        if lead is None:
            yield len(pivots)
        else:
            yield len(pivots), sum(c < lead for c in pivots)


def _representation(field):
    """How a field eliminates: (read, echelon, finish).

    `read` takes rows of (column, value) pairs, reads each value once
    through `field.coerce` (foreign entries raise ValidationError), and
    yields rows {column: entry} of the nonzero entries: residues in [0, p)
    over F_p, primitive rows of ints over Q, field elements otherwise.
    `echelon` clears each row at its leading column by the pivot row kept
    there, until it vanishes or leads in a new column, where it is kept;
    it adds to the pivot rows it is given, {leading column: (leading entry,
    rest of the row)}, and returns them.
    `finish` writes a reduced pivot row out as a dense row of field
    elements.
    """
    if isinstance(field, PrimeField):
        return _read_mod_p, _echelon_mod_p, _finish_mod_p
    if isinstance(field, RationalField):
        return _read_q, _echelon_q, _finish_q
    return _read_scalar, _echelon_scalar, _finish_scalar


def _read_mod_p(field, rows):
    p, coerce = field.p, field.coerce
    # ints are reduced as they are; anything but an int or an FpElt of this
    # field goes through coerce, which rejects other primes and denominators
    # divisible by p
    return ({c: v for c, x in row
             if (v := x.v if x.__class__ is FpElt and x.p == p
                 else x % p if x.__class__ is int else coerce(x).v)}
            for row in rows)


def _echelon_mod_p(field, rows, pivots):
    """Pivot rows of residues, each scaled to 1 at its lead."""
    p = field.p
    for r in rows:
        while r:
            c = min(r)
            f = r.pop(c)
            piv = pivots.get(c)
            if piv is None:
                if f != 1:
                    inv = pow(f, -1, p)
                    r = {col: v * inv % p for col, v in r.items()}
                pivots[c] = (1, r)
                break
            for col, v in piv[1].items():
                nv = (r.get(col, 0) - f * v) % p
                if nv:
                    r[col] = nv
                else:
                    # only a nonzero entry cancels f * v
                    del r[col]
    return pivots


def _finish_mod_p(field, lead, rest, c, ncols):
    p = field.p
    row = [FpElt(p, 0)] * ncols
    row[c] = FpElt(p, lead)
    for j, v in rest.items():
        row[j] = FpElt(p, v)
    return row


def _read_q(field, rows):
    """Each row of rationals as a primitive row of ints spanning the same
    line: its `QQ.ints`, divided by their gcd.  A row of ints (one `gcd`
    takes) is only divided.  `QQ.ints` rejects floats and the elements of
    other fields."""
    for row in rows:
        r = {c: x for c, x in row if x or x.__class__ is not int}
        try:
            g = gcd(*r.values())
        except TypeError:
            r = {c: v for c, v in zip(r, QQ.ints(r.values())) if v}
            g = gcd(*r.values())
        yield {c: v // g for c, v in r.items()} if g > 1 else r


def _echelon_q(field, rows, pivots):
    """Primitive pivot rows of ints, fraction-free (Bareiss 1968): a row is
    cleared at a pivot column by cross-multiplying it with the pivot row,
    then divided by the gcd of its entries."""
    for r in rows:
        while r:
            c = min(r)
            f = r.pop(c)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = (f, r)
                break
            a, rest = piv
            g = gcd(a, f)
            s, t = a // g, f // g
            if s != 1:
                r = {col: s * v for col, v in r.items()}
            for col, v in rest.items():
                nv = r.get(col, 0) - t * v
                if nv:
                    r[col] = nv
                else:
                    del r[col]
            g = gcd(*r.values())
            if g > 1:
                r = {col: v // g for col, v in r.items()}
    return pivots


def _finish_q(field, lead, rest, c, ncols):
    row = [Fraction(0)] * ncols
    row[c] = Fraction(1)
    for j, v in rest.items():
        row[j] = Fraction(v, lead)
    return row


def _read_scalar(field, rows):
    coerce = field.coerce
    return ({c: v for c, x in row if (v := coerce(x))} for row in rows)


def _echelon_scalar(field, rows, pivots):
    """Pivot rows in the field's own arithmetic, each scaled to one at its
    lead."""
    one, zero = field.one(), field.zero()
    for r in rows:
        while r:
            c = min(r)
            f = r.pop(c)
            piv = pivots.get(c)
            if piv is None:
                if f != one:
                    inv = one / f
                    r = {col: v * inv for col, v in r.items()}
                pivots[c] = (one, r)
                break
            for col, v in piv[1].items():
                nv = r.get(col, zero) - f * v
                if nv:
                    r[col] = nv
                else:
                    del r[col]
    return pivots


def _finish_scalar(field, lead, rest, c, ncols):
    row = [field.zero()] * ncols
    row[c] = lead
    for j, v in rest.items():
        row[j] = v
    return row


def mat_mul(A, B):
    if not A or not B:
        return []
    return [[sum_prod(row, col) for col in zip(*B)] for row in A]


def sum_prod(xs, ys):
    it = iter(zip(xs, ys))
    x0, y0 = next(it)
    acc = x0 * y0
    for x, y in it:
        acc = acc + x * y
    return acc
