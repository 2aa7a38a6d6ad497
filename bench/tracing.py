"""Spans around the library's public functions, installed from outside.

`Tracer.install` wraps each function in `TARGETS` and puts the wrapper in
place of the original under every name any loaded module holds for it (for
example `moduli` imports `enumerate_points` and `rref` by name), so the
library's source is not edited.  A span is (name, parent, start, end),
in processor seconds of the worker's one thread, kept in flat arrays in
memory and written out once, at the end of a run.  Self time is a span's
length minus the length of its traced children.

Spans are recorded only while `Tracer.on` is true; the benchmark switches
it on around each timed operation, so checks and set-up stay untraced.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# metric prefix, module, class (or None), attribute
TARGETS = [
    ("exactmath.rref", "exactmath", None, "rref"),
    ("exactmath.kernel_basis", "exactmath", None, "kernel_basis"),
    ("exactmath.rank", "exactmath", None, "rank"),
    ("exactmath.sparse_rank", "exactmath", None, "sparse_rank"),
    ("polyring.MultiPoly.eval_full", "polyring", "MultiPoly", "eval_full"),
    ("polyring.MultiPoly.eval_block", "polyring", "MultiPoly", "eval_block"),
    ("polyring.MultiPoly.mul", "polyring", "MultiPoly", "__mul__"),
    ("polyring.bf_roots_small", "polyring", None, "bf_roots_small"),
    ("polyring.bf_multiplicity_pattern", "polyring", None, "bf_multiplicity_pattern"),
    ("polyring.linear_resultant", "polyring", None, "linear_resultant"),
    ("polyring.j_from_quartic", "polyring", None, "j_from_quartic"),
    ("curves.enumerate_points", "curves", None, "enumerate_points"),
    ("curves.kodaira_classify", "curves", None, "kodaira_classify"),
    ("curves.member_j", "curves", None, "member_j"),
    ("curves.random_smooth_point", "curves", None, "random_smooth_point"),
    ("curves.random_smooth_22", "curves", None, "random_smooth_22"),
    ("linebundles.LineBundle.canonical", "linebundles", "LineBundle", "canonical"),
    ("linebundles.LineBundle.h0", "linebundles", "LineBundle", "h0"),
    ("linebundles.section_space", "linebundles", None, "section_space"),
    ("linebundles.split_from_cohomology", "linebundles", None, "split_from_cohomology"),
    ("linebundles.isomorphic", "linebundles", None, "isomorphic"),
    ("linebundles.random_line_bundle", "linebundles", None, "random_line_bundle"),
    ("bimodules.nr_split_v", "bimodules", None, "nr_split_v"),
    ("bimodules.nr_split_u", "bimodules", None, "nr_split_u"),
    ("bimodules.NRSheaf.h0", "bimodules", "NRSheaf", "h0"),
    ("bimodules.split_of_concrete", "bimodules", None, "split_of_concrete"),
    ("bimodules.split_prime_of_concrete", "bimodules", None, "split_prime_of_concrete"),
    ("bimodules.descriptor_of_line_bundle", "bimodules", None, "descriptor_of_line_bundle"),
    ("quivers.theta_stable", "quivers", None, "theta_stable"),
    ("quivers.strong_m1_table", "quivers", None, "strong_m1_table"),
    ("quivers.relation_pair_action_rank", "quivers", None, "relation_pair_action_rank"),
    ("moduli.roundtrip0", "moduli", None, "roundtrip0"),
    ("moduli.psi0", "moduli", None, "psi0"),
    ("moduli.psi1", "moduli", None, "psi1"),
    ("moduli.incidence_points", "moduli", None, "incidence_points"),
    ("moduli.recover_relations_from_ci", "moduli", None, "recover_relations_from_ci"),
    ("moduli.ci_smooth_j", "moduli", None, "ci_smooth_j"),
    ("moduli.random_sheaf_datum", "moduli", None, "random_sheaf_datum"),
    ("moduli.random_quadruple", "moduli", None, "random_quadruple"),
    ("mckay.closure_equals_model_kernel", "mckay", None, "closure_equals_model_kernel"),
    ("mckay.overlap_confluence", "mckay", None, "overlap_confluence"),
    ("mckay.collection_hom_dims", "mckay", None, "collection_hom_dims"),
    ("jsonio.generate_instance", "jsonio", None, "generate_instance"),
    ("jsonio.instance_from_json", "jsonio", None, "instance_from_json"),
    ("jsonio.instance_to_json", "jsonio", None, "instance_to_json"),
    ("jsonio.validate_instance", "jsonio", None, "validate_instance"),
    ("cli.main", "cli", None, "main"),
]

# functions whose escaping exceptions are counted as `<name>.raised`
RAISED = (
    "moduli.psi1",
    "linebundles.LineBundle.canonical",
    "linebundles.random_line_bundle",
    "curves.random_smooth_point",
)

# counters recorded beside the spans
COUNTERS = ("exactmath.cells", "curves.enumerate_points.points", "ops.redraws")

OP = len(TARGETS)  # name index of the root span of one operation


def metric_names():
    """(name, unit) of every per-layer metric, all per operation."""
    out = []
    for name, *_ in TARGETS:
        out.append((f"{name}.calls", "1/op"))
        out.append((f"{name}.self_s", "s/op"))
    out.append(("exactmath.cells", "cells/op"))
    out.append(("curves.enumerate_points.points", "points/op"))
    out.extend((f"{name}.raised", "1/op") for name in RAISED)
    out.append(("ops.redraws", "1/op"))
    out.append(("trace.overhead_pct", "%"))
    return out


def _cells_dense(tr, args, out):
    rows = args[1]
    if rows:
        tr.counts["exactmath.cells"] += len(rows) * len(rows[0])


def _cells_sparse(tr, args, out):
    rows = args[1]
    if rows:
        tr.counts["exactmath.cells"] += len(rows) * len(set().union(*rows))


def _points(tr, args, out):
    tr.counts["curves.enumerate_points.points"] += len(out)


# rref does the elimination for rank and kernel_basis, so cells are counted
# there and in sparse_rank only
_COUNTING = {
    "exactmath.rref": _cells_dense,
    "exactmath.sparse_rank": _cells_sparse,
    "curves.enumerate_points": _points,
}


class Tracer:
    def __init__(self):
        self.on = False
        self.names = [t[0] for t in TARGETS] + ["op"]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.raised = [0] * len(self.names)
        self.counts = dict.fromkeys(COUNTERS, 0)

    def open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.thread_time())
        return i

    def close(self, i):
        self.end[i] = time.thread_time()
        self.stack.pop()

    def _wrap(self, nid, fn, count):
        tr = self

        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            i = tr.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tr.raised[nid] += 1
                raise
            finally:
                tr.close(i)
            if count is not None:
                count(tr, args, out)
            return out

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Replace every target in its module or class, and under every name
        a module of the package holds for it."""
        for _, mod, _, _ in TARGETS:
            importlib.import_module(f"bimodulus.{mod}")
        holders = [m for n, m in list(sys.modules.items())
                   if n == "bimodulus" or n.startswith("bimodulus.")]
        for nid, (name, mod, cls, attr) in enumerate(TARGETS):
            module = sys.modules[f"bimodulus.{mod}"]
            if cls is not None:
                owner = getattr(module, cls)
                setattr(owner, attr, self._wrap(nid, vars(owner)[attr], _COUNTING.get(name)))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(nid, orig, _COUNTING.get(name))
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapper)

    def self_times(self):
        """(calls, self seconds) per name index."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            own[nid] += self.end[i] - self.start[i] - child[i]
        return calls, own

    def layer_metrics(self, ops, redraws):
        """Every per-layer metric, divided by the operations completed."""
        calls, own = self.self_times()
        out = {}
        for nid, (name, *_) in enumerate(TARGETS):
            out[f"{name}.calls"] = calls[nid] / ops
            out[f"{name}.self_s"] = own[nid] / ops
        self.counts["ops.redraws"] = redraws
        for name in COUNTERS:
            out[name] = self.counts[name] / ops
        for name in RAISED:
            out[f"{name}.raised"] = self.raised[self.names.index(name)] / ops
        return out

    def layer_shares(self):
        """Share of all traced self time per module; time in an operation
        outside every traced function is reported as `other`."""
        _, own = self.self_times()
        total = sum(own) or 1.0
        shares = {}
        for nid, seconds in enumerate(own):
            layer = "other" if nid == OP else self.names[nid].split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + seconds / total
        return shares

    def write(self, path):
        """All spans as tab-separated lines: index, parent, name, start and
        end in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
