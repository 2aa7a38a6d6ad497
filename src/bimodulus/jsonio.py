"""JSON schemas for instances and deterministic report assembly.

Every scalar travels as a string in the field's own format, every object
carries its field descriptor, and parsers re-validate everything on the way
in, so a file produced on one machine means the same exact objects on
another.  The instance types:

  member         a bidegree-(2,2) form (classification input)
  line-bundle    reduced member plus twisting data
  nr-sheaf       doubled-member sheaf: pullback twists, Picard coordinate,
                 co-support divisor
  quadruple      smooth member with three bundles
  descriptor     discrete invariants only (table evaluation input)

`generate_instance` draws random valid instances of each kind for a seeded
generator; degenerate draws retry within a bounded budget.
"""

from __future__ import annotations

from .bimodules import Descriptor, NRSheaf
from .curves import kodaira_classify, make_kind
from .errors import SpecialPosition, ValidationError
from .exactmath import field_from_json, scalar_from_json, scalar_to_json
from .linebundles import Curve, LineBundle, random_line_bundle
from .moduli import Quadruple, random_quadruple, random_sheaf_datum
from .polyring import MultiPoly

GENERATE_KINDS = (
    "smooth-bimodule-chi2",
    "smooth-bimodule-chi1",
    "non-reduced",
    "reducible",
    "quadruple",
)


def _point_to_json(field, pair):
    return [[scalar_to_json(field, c) for c in pair[0]],
            [scalar_to_json(field, c) for c in pair[1]]]


def _point_from_json(field, obj):
    if (not isinstance(obj, list) or len(obj) != 2
            or any(not isinstance(h, list) or len(h) != 2 for h in obj)):
        raise ValidationError("a point is a pair of coordinate pairs")
    return (tuple(scalar_from_json(field, c) for c in obj[0]),
            tuple(scalar_from_json(field, c) for c in obj[1]))


def _bundle_body(L):
    field = L.field
    return {
        "m": L.m,
        "n": L.n,
        "minus": [_point_to_json(field, p) for p in L.minus],
        "plus": [_point_to_json(field, p) for p in L.plus],
    }


# Bound on the presentation integers (twists m, n, ku, kv and dinf): the
# cost of `split` and `cech` grows with them, to 1 s near the bound.
INTEGER_BOUND = 64


def _integer(obj, key):
    v = obj.get(key, 0)
    if type(v) is not int:
        raise ValidationError(f"'{key}' must be an integer, got {v!r}")
    if abs(v) > INTEGER_BOUND:
        raise ValidationError(f"'{key}' must lie in [-{INTEGER_BOUND}, {INTEGER_BOUND}], got {v}")
    return v


def _list(obj, key):
    v = obj.get(key, [])
    if not isinstance(v, list):
        raise ValidationError(f"'{key}' must be a list, got {v!r}")
    return v


def _bundle_from_body(curve, obj):
    if not isinstance(obj, dict):
        raise ValidationError("a bundle is an object")
    field = curve.field
    return LineBundle(
        curve,
        _integer(obj, "m"),
        _integer(obj, "n"),
        [_point_from_json(field, p) for p in _list(obj, "minus")],
        [_point_from_json(field, p) for p in _list(obj, "plus")],
    )


def instance_to_json(obj):
    """Serialize a member form, bundle, doubled-member sheaf, quadruple or
    descriptor."""
    if isinstance(obj, MultiPoly):
        return {"type": "member", "field": obj.field.to_json(), "f": obj.to_json()}
    if isinstance(obj, LineBundle):
        out = {"type": "line-bundle", "field": obj.field.to_json(),
               "curve": obj.curve.f.to_json()}
        out.update(_bundle_body(obj))
        return out
    if isinstance(obj, NRSheaf):
        return {
            "type": "nr-sheaf",
            "field": obj.field.to_json(),
            "ku": obj.ku,
            "kv": obj.kv,
            "apic": scalar_to_json(obj.field, obj.apic),
            "dfin": [scalar_to_json(obj.field, c) for c in obj.dfin],
            "dinf": obj.dinf,
        }
    if isinstance(obj, Quadruple):
        return {
            "type": "quadruple",
            "field": obj.curve.field.to_json(),
            "curve": obj.curve.f.to_json(),
            "bundles": [_bundle_body(L) for L in (obj.L0, obj.L1, obj.L2)],
        }
    if isinstance(obj, Descriptor):
        return {"type": "descriptor", "kind": obj.kind, "params": dict(obj.params)}
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def instance_from_json(data):
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError("instance must be an object with a 'type'")
    t = data["type"]
    if t == "descriptor":
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError("descriptor params must be an object")
        return Descriptor(data.get("kind"), **params)
    field = field_from_json(data.get("field"))
    if t == "member":
        return MultiPoly.from_json(field, data.get("f"))
    if t == "line-bundle":
        curve = Curve(MultiPoly.from_json(field, data.get("curve")))
        return _bundle_from_body(curve, data)
    if t == "nr-sheaf":
        return NRSheaf(
            field,
            _integer(data, "ku"),
            _integer(data, "kv"),
            scalar_from_json(field, data.get("apic", field.format(field.zero()))),
            [scalar_from_json(field, c) for c in _list(data, "dfin")],
            _integer(data, "dinf"),
        )
    if t == "quadruple":
        curve = Curve(MultiPoly.from_json(field, data.get("curve")))
        bundles = data.get("bundles")
        if not isinstance(bundles, list) or len(bundles) != 3:
            raise ValidationError("a quadruple carries exactly three bundles")
        L0, L1, L2 = (_bundle_from_body(curve, b) for b in bundles)
        return Quadruple(curve, L0, L1, L2)
    raise ValidationError(f"unknown instance type {t!r}")


# ---------------------------------------------------------------------------
# random generation


def generate_instance(kind, field, rng):
    """One random valid instance of the requested kind."""
    if kind == "smooth-bimodule-chi2":
        return random_sheaf_datum(field, rng, degree=2)[1]
    if kind == "smooth-bimodule-chi1":
        return random_sheaf_datum(field, rng, degree=1)[1]
    if kind == "non-reduced":
        ku = rng.randint(-1, 2)
        kv = rng.randint(-1, 2)
        apic = field.random(rng)
        if rng.random() < 0.5:
            deg = rng.randint(1, 2)
            dfin = [field.random(rng) for _ in range(deg)] + [field.one()]
            dinf = rng.randint(0, 1)
        else:
            dfin, dinf = [], 0
        return NRSheaf(field, ku, kv, apic, dfin, dinf)
    if kind == "reducible":
        for _ in range(60):
            try:
                curve = Curve(make_kind(field, "I2", rng), kind="I2")
                return random_line_bundle(curve, rng, deg_lo=-2, deg_hi=4)
            except (ValidationError, SpecialPosition):
                continue
        raise SpecialPosition("no reducible-member bundle drawn")
    if kind == "quadruple":
        return random_quadruple(field, rng, component=rng.randint(0, 1))
    raise ValidationError(
        f"unknown instance kind {kind!r}; choose one of {', '.join(GENERATE_KINDS)}")


def validate_instance(obj):
    """Re-derive the defining checks of a parsed instance; returns a small
    description.  Raises on anything inconsistent."""
    if isinstance(obj, MultiPoly):
        return {"type": "member", "kind": kodaira_classify(obj)}
    if isinstance(obj, LineBundle):
        return {
            "type": "line-bundle",
            "member_kind": obj.curve.kind,
            "degree": obj.degree_total(),
        }
    if isinstance(obj, NRSheaf):
        return {
            "type": "nr-sheaf",
            "chi": obj.chi(),
            "degd": obj.degd(),
            "invertible": obj.is_invertible(),
        }
    if isinstance(obj, Quadruple):
        return {"type": "quadruple", "component": obj.component}
    if isinstance(obj, Descriptor):
        return {"type": "descriptor", "kind": obj.kind, "chi": obj.chi()}
    raise ValidationError(f"cannot validate {type(obj).__name__}")
