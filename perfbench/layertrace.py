"""Outside-in layer tracer: wraps the public entry points of parres layers.

Nothing in parres is edited.  A module-level function is wrapped by
rebinding every attribute of every loaded `parres.*` module that refers to
it, because the modules import each other's functions by name; a method is
wrapped on its class.  Each wrapped call is a span with a name, start, end
and parent.  Spans are kept in memory and written out by `write_spans`,
except for the hot reducer-level entry points (HOT), which are called
hundreds of thousands of times per run and are aggregated (calls, total and
self time) without keeping each span.

Self time of a span is its duration minus the time covered by its traced
child spans.  Total time of a name counts only its outermost active span, so
a layer that re-enters itself (a resolution inside a Koszul complex inside a
resolution) is not counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute or "Class.method")
ENTRY_POINTS = (
    ("harness.parse_ring_spec", "harness", "parse_ring_spec"),
    ("groebner.ring_setup", "groebner", "QuotientRingSpec.__init__"),
    ("groebner.reduce", "groebner", "QuotientRingSpec.reduce"),
    ("groebner.solver_build", "groebner", "ExtendedSolver.__init__"),
    ("groebner.syzygy_readoff", "groebner", "ExtendedSolver.syzygy_matrix"),
    ("groebner.syzygies", "groebner", "syzygies"),
    ("groebner.module_leads", "groebner",
     "FinitelyPresentedModule._initial_leads"),
    ("kernel.reducer_factory", "kernel", "reducer_factory"),
    ("engine.groebner_basis", "engine", "groebner_basis"),
    ("engine.interreduce", "engine", "interreduce"),
    ("engine.normal_form", "engine", "PyReducer.normal_form"),
    ("complexes.homology_presentation", "complexes", "homology_presentation"),
    ("complexes.minimize", "complexes", "minimize_with_tracking"),
    ("koszul.koszul_complex", "koszul", "koszul_complex"),
    ("resolutions.minimal_free_resolution", "resolutions",
     "minimal_free_resolution"),
    ("invariants.depth", "invariants", "depth"),
    ("invariants.flc_check", "invariants", "flc_check"),
    ("invariants.find_standard_power", "invariants", "find_standard_power"),
    ("oracle.matrix_slice", "oracle", "matrix_slice"),
    ("oracle.gf_rank", "oracle", "gf_rank"),
)
HOT = frozenset(("groebner.reduce", "kernel.reducer_factory",
                 "engine.normal_form"))

# (metric name, unit, better); see layer_metrics for definitions
PER_LAYER = (
    ("groebner.reduce.calls", "count", "lower"),
    ("groebner.reduce.self_s", "s", "lower"),
    ("groebner.reduce.zero_in_frac", "ratio", "lower"),
    ("kernel.reducer_builds", "count", "lower"),
    ("kernel.builds_per_nf", "ratio", "lower"),
    ("engine.interreduce.self_s", "s", "lower"),
    ("engine.gb_in", "count", "lower"),
    ("engine.gb_out", "count", "lower"),
    ("engine.normal_form.calls", "count", "lower"),
    ("engine.normal_form.self_s", "s", "lower"),
    ("engine.spair_zero_frac", "ratio", "lower"),
    ("groebner.solver_build.calls", "count", "lower"),
    ("groebner.solver_build.total_s", "s", "lower"),
    ("groebner.solver_build.cols", "count", "lower"),
    ("groebner.syzygy_readoff.self_s", "s", "lower"),
    ("algebra.polynomials", "count", "lower"),
    ("resolutions.minimal_free_resolution.total_s", "s", "lower"),
    ("resolutions.syzygy_steps", "count", "lower"),
    ("resolutions.useful_rank_frac", "ratio", "higher"),
    ("complexes.minimize.self_s", "s", "lower"),
    ("complexes.kept_frac", "ratio", "higher"),
    ("complexes.homology_presentation.calls", "count", "lower"),
    ("complexes.homology_presentation.total_s", "s", "lower"),
    ("groebner.module_leads.calls", "count", "lower"),
    ("koszul.koszul_complex.total_s", "s", "lower"),
    ("invariants.flc_check.calls", "count", "lower"),
    ("invariants.flc_check.total_s", "s", "lower"),
    ("invariants.find_standard_power.total_s", "s", "lower"),
    ("invariants.depth.total_s", "s", "lower"),
    ("oracle.gf_rank.calls", "count", "lower"),
    ("oracle.gf_rank.self_s", "s", "lower"),
    ("oracle.cells", "count", "lower"),
    ("oracle.matrix_slice.self_s", "s", "lower"),
    ("harness.parse_ring_spec.self_s", "s", "lower"),
    ("groebner.ring_setup.total_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def _cap_arg(args, kwargs):
    return kwargs["cap"] if "cap" in kwargs else args[1]


class Tracer:
    """Span recorder; `install` wraps the entry points of one parres import."""

    def __init__(self):
        self.stack = []          # open frames: [name, start, child_s, args, kwargs]
        self.spans = []          # (name, start, end, parent span index or -1)
        self.open_index = []     # span index of each open frame, -1 if HOT
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.replaced = []       # (object, attribute, original value)

    # -- counters computed from a finished call and its parent frame

    def _on_exit(self, name, args, kwargs, result, parent):
        c = self.counts
        pname = parent[0] if parent else None
        if name == "groebner.reduce":
            if not args[1].terms:
                c["reduce_zero_in"] += 1
        elif name == "engine.normal_form":
            if pname == "engine.groebner_basis":
                c["gb_nf"] += 1
                if not result:
                    c["gb_nf_zero"] += 1
        elif name == "engine.groebner_basis":
            c["gb_in"] += sum(1 for v in args[0] if v)
            c["gb_out"] += len(result)
        elif name == "groebner.solver_build":
            c["solver_cols"] += args[1].ncols
        elif name == "groebner.syzygies":
            if pname == "resolutions.minimal_free_resolution":
                c["syzygy_steps"] += 1
        elif name == "complexes.minimize":
            ranks = {n: len(d) for n, d in args[0].modules.items()}
            fed = sum(ranks.values())
            c["minimize_in"] += fed
            c["minimize_kept"] += sum(len(v) for v in result[1].values())
            if pname == "resolutions.minimal_free_resolution":
                cap = _cap_arg(parent[3], parent[4])
                c["res_ranks"] += fed
                c["res_ranks_to_cap"] += sum(r for n, r in ranks.items()
                                             if n <= cap)
        elif name == "oracle.gf_rank":
            c["cells"] += np.asarray(args[0]).size

    def wrap(self, name, fn):
        stack, spans, open_index = self.stack, self.spans, self.open_index
        calls, total, self_s, active = (self.calls, self.total, self.self_s,
                                        self.active)
        on_exit = self._on_exit
        keep = name not in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep:
                open_index.append(len(spans))
                spans.append(None)
            else:
                open_index.append(-1)
            active[name] += 1
            frame = [name, clock(), 0.0, args, kwargs]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                idx = open_index.pop()
                dur = end - frame[1]
                calls[name] += 1
                self_s[name] += dur - frame[2]
                active[name] -= 1
                if not active[name]:
                    total[name] += dur
                if parent is not None:
                    parent[2] += dur
                if keep:
                    pidx = -1
                    for j in range(len(open_index) - 1, -1, -1):
                        if open_index[j] >= 0:
                            pidx = open_index[j]
                            break
                    spans[idx] = (name, frame[1], end, pidx)
            on_exit(name, args, kwargs, result, parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, api):
        """Wrap every entry point of the parres modules in `api`."""
        modules = [m for k, m in sys.modules.items()
                   if k == "parres" or k.startswith("parres.")]
        for name, modname, attr in ENTRY_POINTS:
            mod = getattr(api, modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            fn = getattr(mod, attr)
            wrapper = self.wrap(name, fn)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._replace(m, key, wrapper)
        self._count_polynomials(api.algebra.Polynomial)

    def uninstall(self):
        """Put back every original; later calls are not traced."""
        for obj, attr, original in reversed(self.replaced):
            setattr(obj, attr, original)
        self.replaced.clear()

    def _replace(self, obj, attr, value):
        self.replaced.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _count_polynomials(self, cls):
        init = cls.__init__
        counts = self.counts

        def counted(obj, *args, **kwargs):
            counts["polynomials"] += 1
            init(obj, *args, **kwargs)

        self._replace(cls, "__init__", counted)

    def layer_metrics(self, traced_wall_s, factor):
        """Values of every PER_LAYER metric; span times are scaled by factor
        (the speed probe's), `traced_wall_s` is already normalized."""
        c, calls = self.counts, self.calls
        nf = calls["engine.normal_form"]
        values = {
            "groebner.reduce.calls": calls["groebner.reduce"],
            "groebner.reduce.self_s": self.self_s["groebner.reduce"],
            "groebner.reduce.zero_in_frac":
                _ratio(c["reduce_zero_in"], calls["groebner.reduce"]),
            "kernel.reducer_builds": calls["kernel.reducer_factory"],
            "kernel.builds_per_nf":
                _ratio(calls["kernel.reducer_factory"], nf),
            "engine.interreduce.self_s": self.self_s["engine.interreduce"],
            "engine.gb_in": c["gb_in"],
            "engine.gb_out": c["gb_out"],
            "engine.normal_form.calls": nf,
            "engine.normal_form.self_s": self.self_s["engine.normal_form"],
            "engine.spair_zero_frac": _ratio(c["gb_nf_zero"], c["gb_nf"]),
            "groebner.solver_build.calls": calls["groebner.solver_build"],
            "groebner.solver_build.total_s":
                self.total["groebner.solver_build"],
            "groebner.solver_build.cols": c["solver_cols"],
            "groebner.syzygy_readoff.self_s":
                self.self_s["groebner.syzygy_readoff"],
            "algebra.polynomials": c["polynomials"],
            "resolutions.minimal_free_resolution.total_s":
                self.total["resolutions.minimal_free_resolution"],
            "resolutions.syzygy_steps": c["syzygy_steps"],
            "resolutions.useful_rank_frac":
                _ratio(c["res_ranks_to_cap"], c["res_ranks"]),
            "complexes.minimize.self_s": self.self_s["complexes.minimize"],
            "complexes.kept_frac":
                _ratio(c["minimize_kept"], c["minimize_in"]),
            "complexes.homology_presentation.calls":
                calls["complexes.homology_presentation"],
            "complexes.homology_presentation.total_s":
                self.total["complexes.homology_presentation"],
            "groebner.module_leads.calls": calls["groebner.module_leads"],
            "koszul.koszul_complex.total_s":
                self.total["koszul.koszul_complex"],
            "invariants.flc_check.calls": calls["invariants.flc_check"],
            "invariants.flc_check.total_s": self.total["invariants.flc_check"],
            "invariants.find_standard_power.total_s":
                self.total["invariants.find_standard_power"],
            "invariants.depth.total_s": self.total["invariants.depth"],
            "oracle.gf_rank.calls": calls["oracle.gf_rank"],
            "oracle.gf_rank.self_s": self.self_s["oracle.gf_rank"],
            "oracle.cells": c["cells"],
            "oracle.matrix_slice.self_s": self.self_s["oracle.matrix_slice"],
            "harness.parse_ring_spec.self_s":
                self.self_s["harness.parse_ring_spec"],
            "groebner.ring_setup.total_s": self.total["groebner.ring_setup"],
            "trace.wall_s": traced_wall_s,
            "trace.spans": len(self.spans),
        }
        for name, unit, _ in PER_LAYER:
            if unit == "s" and name != "trace.wall_s":
                values[name] *= factor
        return values

    def write_spans(self, path):
        """Spans as JSON: names once, then [name index, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p]
                for n, a, b, p in self.spans]
        aggregated = {n: {"calls": self.calls[n], "total_s": self.total[n],
                          "self_s": self.self_s[n]} for n in sorted(HOT)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows,
                       "aggregated": aggregated}, fh)


def _ratio(num, den):
    return num / den if den else 0.0
