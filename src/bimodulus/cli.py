"""Command-line front end.

    bimodulus <command> [kind] [--in FILE] [--prime P] [--seed S]
                        [--count N] [--out FILE]

Reports are JSON with sorted keys and exact scalars rendered as strings;
every report that states a table answer also carries the independently
computed answer next to it.  Exit codes: 0 on success, 2 on invalid input
or a degenerate configuration, 3 on an internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .bimodules import (
    Descriptor,
    NRSheaf,
    descriptor_of_line_bundle,
    descriptor_of_nr_sheaf,
    endo_ext_dims_nr,
    endo_ext_dims_reduced,
    gieseker_p,
    hilbert_polynomial,
    hochschild_dims,
    moduli_dim_check,
    nr_closed_form,
    split_ab,
    split_ab_prime,
    split_of_concrete,
    split_prime_of_concrete,
    stability_classify,
)
from .curves import kodaira_classify, member_j
from .errors import SpecialPosition, ValidationError
from .exactmath import QQ, PrimeField, scalar_to_json
from .jsonio import GENERATE_KINDS, generate_instance, instance_from_json, instance_to_json, validate_instance
from .linebundles import Curve, LineBundle
from .mckay import (
    closure_equals_model_kernel,
    collection_degrees_quotient,
    collection_hom_dims,
    overlap_confluence,
    s_graded_dim,
    s_hilbert_coeffs,
)
from .moduli import Quadruple, phi, psi0, psi1, random_sheaf_datum, roundtrip0
from .polyring import MultiPoly
from .quivers import (
    hom_ext_matrix,
    is_strong_matrix,
    relation_moduli_dims,
    relation_pair_action_rank,
    strong_m1_table,
    strong_threshold,
    toric_check,
)

# the largest --count each command takes: a trip costs milliseconds at
# small p and under a second at p = 2^61 - 1, a McKay draw about a
# millisecond, a generated instance about 10 ms (50 quadruples over Q
# take about 0.6 s of wall time on 2 vCPUs, start-up included), a
# Hochschild row nothing
COUNT_CEILINGS = {"roundtrip": 100, "hochschild": 10_000, "mckay": 1000, "generate": 50}


def _field_for(args):
    return QQ if args.prime == 0 else PrimeField(args.prime)


def _load(args, required=True):
    if args.input is None:
        if required:
            raise ValidationError("this command needs --in FILE")
        return None
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read {args.input}: {e}") from e
    except json.JSONDecodeError as e:
        raise ValidationError(f"{args.input} is not valid JSON: {e}") from e
    except (ValueError, RecursionError) as e:
        # not UTF-8, nested past the recursion limit, or an integer past the
        # digit limit of int
        raise ValidationError(f"cannot parse {args.input}: {e}") from e


def _descriptor_and_flag(obj):
    if isinstance(obj, LineBundle):
        desc, flag = descriptor_of_line_bundle(obj)
    elif isinstance(obj, NRSheaf):
        desc = descriptor_of_nr_sheaf(obj)
        flag = bool(desc.params.get("shifted_v_pullback", False))
    else:
        raise ValidationError("expected a concrete sheaf instance")
    return desc, flag


def cmd_classify(args):
    obj = instance_from_json(_load(args))
    if isinstance(obj, LineBundle):
        f = obj.curve.f
    elif isinstance(obj, MultiPoly):
        f = obj
    elif isinstance(obj, NRSheaf):
        return {"command": "classify", "kind": "NonReduced"}
    else:
        raise ValidationError("classification takes a member or a sheaf on one")
    kind = kodaira_classify(f)
    out = {"command": "classify", "kind": kind}
    if kind == "I0":
        out["j"] = scalar_to_json(f.field, member_j(f))
    return out


def cmd_split(args):
    obj = instance_from_json(_load(args))
    desc, flag = _descriptor_and_flag(obj)
    # a doubled-member descriptor carries its own twist flag in its params
    explicit = flag and not isinstance(obj, NRSheaf)
    table = {"ab": list(split_ab(desc)),
             "ab_prime": list(split_ab_prime(desc, shifted_v_pullback=explicit))}
    computed = {"ab": list(split_of_concrete(obj)),
                "ab_prime": list(split_prime_of_concrete(obj))}
    if table != computed:
        raise AssertionError(f"table {table} disagrees with cohomology {computed}")
    return {
        "command": "split",
        "descriptor": instance_to_json(desc),
        "shifted_flag": flag,
        "table": table,
        "computed": computed,
        "agree": True,
    }


def cmd_stability(args):
    obj = instance_from_json(_load(args))
    if isinstance(obj, Descriptor):
        desc = obj
    else:
        desc, _ = _descriptor_and_flag(obj)
    lead, const = hilbert_polynomial(desc)
    pl, pc = gieseker_p(desc)
    return {
        "command": "stability",
        "descriptor": instance_to_json(desc),
        "class": stability_classify(desc),
        "hilbert": {"leading": lead, "constant": const},
        "reduced_p": {"leading": str(pl), "constant": str(pc)},
    }


def cmd_ext(args):
    obj = instance_from_json(_load(args))
    if isinstance(obj, MultiPoly):
        dims = endo_ext_dims_reduced(Curve(obj))
    elif isinstance(obj, LineBundle):
        dims = endo_ext_dims_reduced(obj.curve)
    elif isinstance(obj, NRSheaf):
        dims = endo_ext_dims_nr(obj.field)
    else:
        raise ValidationError("self-extension dims take a member or a sheaf on one")
    chk = moduli_dim_check(dims)
    if not chk["consistent"]:
        raise AssertionError(f"dimension bookkeeping inconsistent: {chk}")
    return {"command": "ext", **chk}


def cmd_hochschild(args):
    top = 6 if args.count is None else args.count
    rows = []
    for d in range(top + 1):
        h1, h2, h3, alt = hochschild_dims(d)
        rows.append({"d": d, "hh1": h1, "hh2": h2, "hh3": h3, "euler": alt})
    if any(r["euler"] != 3 for r in rows):
        raise AssertionError("alternating sum drifted from 3")
    return {"command": "hochschild", "rows": rows, "euler_constant": 3}


def cmd_strong(args):
    rows = strong_m1_table()
    thr = strong_threshold(1)
    out_rows = [{**r, "threshold_agree": r["strong"] == (r["ab_prime"][0] >= thr)}
                for r in rows]
    if not all(r["threshold_agree"] for r in out_rows):
        raise AssertionError("matrix criterion disagrees with the threshold")
    return {"command": "strong", "threshold": thr, "rows": out_rows,
            "all_match_threshold": True}


def _int_pair(data, key):
    v = data.get(key)
    if not (isinstance(v, list) and len(v) == 2 and all(type(e) is int for e in v)):
        raise ValidationError(f"need '{key}' as a list of two integers, or a descriptor")
    return tuple(v)


def cmd_hom_matrix(args):
    data = _load(args)
    if not isinstance(data, dict):
        raise ValidationError("hom-matrix input must be a JSON object")
    m = data.get("m", 1)
    if type(m) is not int:
        raise ValidationError(f"'m' must be an integer, got {m!r}")
    if "descriptor" in data:
        desc = instance_from_json(data["descriptor"])
        if not isinstance(desc, Descriptor):
            raise ValidationError("'descriptor' must be a descriptor instance")
        flag = data.get("shifted_flag", False)
        if not isinstance(flag, bool):
            raise ValidationError(f"'shifted_flag' must be a boolean, got {flag!r}")
        ab = split_ab(desc)
        abp = split_ab_prime(desc, shifted_v_pullback=flag)
    else:
        ab, abp = _int_pair(data, "ab"), _int_pair(data, "ab_prime")
    M = hom_ext_matrix(m, ab, abp)
    return {
        "command": "hom-matrix",
        "m": m,
        "ab": list(ab),
        "ab_prime": list(abp),
        "matrix": [[list(e) for e in row] for row in M],
        "strong": is_strong_matrix(M),
    }


def cmd_psi(args):
    quad = instance_from_json(_load(args))
    if not isinstance(quad, Quadruple):
        raise ValidationError("this command takes a quadruple instance")
    field = quad.curve.field
    rels = psi0(quad) if quad.component == 0 else psi1(quad)
    return {
        "command": "psi",
        "component": quad.component,
        "relation_dim": len(rels),
        "expected_dim": 2 if quad.component == 0 else 3,
        "relations": [[scalar_to_json(field, c) for c in r] for r in rels],
    }


def cmd_roundtrip(args):
    data = _load(args, required=False)
    if data is not None:
        U = instance_from_json(data)
        if not isinstance(U, LineBundle) or U.degree_total() != 2:
            raise ValidationError("roundtrip input must be a degree-2 bundle on a member")
    field = _field_for(args) if data is None else U.field
    if not field.characteristic:
        raise ValidationError("the roundtrip needs a finite field")
    # over F_p its point counts grow as p^(1/4): 0.6 s of process time at
    # 2^61 - 1, a second at 2^64 + 13; over F_{p^2} it streams all p^2 + 1
    # fibers of the last shadow: 3 s at p = 101, 7 s at 151
    if field.modulus >= 2 ** 64:
        raise ValidationError(f"the roundtrip takes primes below the ceiling of 2^64, "
                              f"got {field.characteristic}")
    if not field.modulus and (q := field.characteristic ** 2) > 10_000:
        raise ValidationError(f"the roundtrip takes extension fields of at most the ceiling "
                              f"of 10000 elements, got {q}")
    rng = random.Random(args.seed)
    trips = []
    redraws = 0
    want = 1 if args.count is None else args.count

    def trip(U):
        # j is written in the bundle's own field
        rep = roundtrip0(U)
        return {"j": scalar_to_json(U.field, rep["j"]),
                "points": rep["points"],
                "stable_reps_checked": rep["stable_reps_checked"]}

    if data is not None:
        trips.append(trip(U))
    else:
        while len(trips) < want:
            try:
                _, U = random_sheaf_datum(field, rng, degree=2)
                trips.append(trip(U))
            except SpecialPosition:
                redraws += 1
                if redraws > 20 * want + 20:
                    raise
    return {"command": "roundtrip", "trips": trips, "redraws": redraws}


def cmd_cech(args):
    obj = instance_from_json(_load(args))
    if not isinstance(obj, NRSheaf):
        raise ValidationError("this command takes a doubled-member sheaf")
    h0, h1 = obj.cohomology()
    out = {
        "command": "cech",
        "h0": h0,
        "h1": h1,
        "chi": obj.chi(),
        "degd": obj.degd(),
    }
    if obj.is_invertible():
        e0, e1 = nr_closed_form(obj.k, bool(obj.c))
        out["closed_form"] = {"h0": e0, "h1": e1}
        if (h0, h1) != (e0, e1):
            raise AssertionError("computation disagrees with the closed form")
    return out


def cmd_toric_check(args):
    rep = toric_check()
    ok = rep["product_zero"] and rep["weight_rank"] == 3 and rep["kernel_rank"] == 4
    if not ok:
        raise AssertionError(f"torus data inconsistent: {rep}")
    return {"command": "toric-check", **rep, "pass": True}


def cmd_mckay(args):
    field = _field_for(args)
    rng = random.Random(args.seed)
    n = 10 if args.count is None else args.count
    draws = []
    for _ in range(max(n, 1)):
        lam = field.random_nonzero(rng)
        rep = closure_equals_model_kernel(field, lam)
        draws.append({"lambda": scalar_to_json(field, lam), **{
            k: rep[k] for k in ("closure_dim", "kernel_dim", "equal")}})
    if not all(d["equal"] for d in draws):
        raise AssertionError("matrix-model kernel drifted from the relation closure")
    degs = collection_degrees_quotient(2)
    lam = field.random_nonzero(rng)
    H = collection_hom_dims(field, lam)
    graded_ok = all(
        H[i][j] == s_graded_dim(2, degs[j] - degs[i])
        for i in range(4) for j in range(i, 4))
    if not graded_ok or not overlap_confluence(field, lam):
        raise AssertionError("presentation disagrees with the graded algebra")
    return {
        "command": "mckay",
        "draws": draws,
        "hom_dims": H,
        "hilbert_prefix": s_hilbert_coeffs(2, 8),
        "confluent": True,
        "graded_match": True,
    }


def cmd_mrel_dim(args):
    data = _load(args, required=False)
    if data is not None:
        quad = instance_from_json(data)
        if not isinstance(quad, Quadruple) or quad.component != 0:
            raise ValidationError("need a component-0 quadruple")
        field = quad.curve.field
    else:
        field = _field_for(args)
        if not field.characteristic:
            raise ValidationError("random drawing here uses a finite field")
        rng = random.Random(args.seed)
        for _ in range(40):
            try:
                _, U = random_sheaf_datum(field, rng, degree=2)
                quad = phi(U)
                break
            except SpecialPosition:
                continue
        else:
            raise SpecialPosition("no quadruple drawn")
    r1, r2 = psi0(quad)
    rank = relation_pair_action_rank(field, r1, r2)
    static = relation_moduli_dims()
    stab = 16 - rank
    out = {
        "command": "mrel-dim",
        "static": static,
        "action_rank": rank,
        "stabilizer": stab,
        "moduli_dim": static["relation_parameters"] - rank,
        "agree": stab == static["generic_stabilizer"],
    }
    if not out["agree"]:
        raise AssertionError("concrete stabilizer differs from the generic count")
    return out


def cmd_generate(args):
    kind = args.kind
    data = _load(args, required=False)
    if kind is None and isinstance(data, dict):
        kind = data.get("kind")
    if kind is None:
        raise ValidationError(
            f"give an instance kind (positional or --in); one of {', '.join(GENERATE_KINDS)}")
    field = _field_for(args)
    rng = random.Random(args.seed)
    n = 1 if args.count is None else args.count
    instances = []
    valid = 0
    failures = 0
    for _ in range(n):
        try:
            obj = generate_instance(kind, field, rng)
        except (SpecialPosition, ValidationError) as e:
            failures += 1
            instances.append({"error": str(e)})
            continue
        body = instance_to_json(obj)
        body["validation"] = validate_instance(instance_from_json(body))
        instances.append(body)
        valid += 1
    return {
        "command": "generate",
        "kind": kind,
        "requested": n,
        "valid": valid,
        "failed": failures,
        "instances": instances,
    }


_HANDLERS = {
    "classify": cmd_classify,
    "split": cmd_split,
    "stability": cmd_stability,
    "ext": cmd_ext,
    "hochschild": cmd_hochschild,
    "strong": cmd_strong,
    "hom-matrix": cmd_hom_matrix,
    "psi": cmd_psi,
    "roundtrip": cmd_roundtrip,
    "cech": cmd_cech,
    "toric-check": cmd_toric_check,
    "mckay": cmd_mckay,
    "mrel-dim": cmd_mrel_dim,
    "generate": cmd_generate,
}

COMMANDS = tuple(_HANDLERS)


def _usage_error(message):
    """The parser's `error`: a usage error is reported like any other
    invalid input, exit 2 and a JSON error object on stdout."""
    raise ValidationError(message)


def _command(name):
    # argparse words an unknown choice differently across Python versions
    if name not in _HANDLERS:
        raise argparse.ArgumentTypeError(f"unknown command {name!r}")
    return name


def build_parser():
    p = argparse.ArgumentParser(
        prog="bimodulus",
        description="exact computations for sheaves on anticanonical members, "
                    "their splitting tables, quiver presentations and moduli",
    )
    p.add_argument("command", type=_command, choices=COMMANDS)
    p.add_argument("kind", nargs="?", default=None,
                   help="instance kind (generate only)")
    p.add_argument("--in", dest="input", default=None, metavar="FILE",
                   help="JSON instance file")
    p.add_argument("--prime", type=int, default=101,
                   help="field characteristic; 0 for the rationals (default 101)")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--count", type=int, default=None, help="repetition count")
    p.add_argument("--out", dest="output", default=None, metavar="FILE",
                   help="also write the report to this file")
    p.error = _usage_error
    return p


# built once: parsing leaves the parser as it was
PARSER = build_parser()


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
        _field_for(args)  # reject unusable characteristics up front
        if args.count is not None and args.count < 0:
            raise ValidationError("--count must be nonnegative")
        limit = COUNT_CEILINGS.get(args.command)
        if limit is not None and args.count is not None and args.count > limit:
            raise ValidationError(f"--count {args.count} is above the ceiling of {limit} "
                                  f"for {args.command}")
        report = _HANDLERS[args.command](args)
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as e:
                raise ValidationError(f"cannot write {args.output}: {e}") from e
    except (ValidationError, SpecialPosition) as e:
        kind = "special-position" if isinstance(e, SpecialPosition) else "validation"
        print(json.dumps({"error": str(e), "type": kind}, sort_keys=True))
        return 2
    except AssertionError as e:
        print(json.dumps({"error": str(e), "type": "assertion"}, sort_keys=True))
        return 3
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
