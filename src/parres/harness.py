"""Ring-spec files, experiment orchestration, and report generation.

A ring-spec file is line-oriented text with sections [field], [vars],
[ideal], [sop <name>], [caps]; polynomials use the infix syntax of the
parser.  EXPERIMENTS maps each subcommand to its experiment, and
run_experiment builds and times the ExperimentReport the experiment fills.
A report renders either as human-readable text (with timings) or as a
deterministic structured JSON document (without timings, so repeated runs
are byte-identical).
"""

from __future__ import annotations

import json
import time
from math import comb

from .algebra import (IDENTIFIER, AlgebraError, NotHomogeneousError,
                      PolyParseError, PolynomialRingSpec, check_degree,
                      parse_packed)
from .groebner import INFINITE, QuotientRingSpec
from .koszul import ParameterSequence
from .resolutions import betti_table
from .invariants import (NOT_FOUND, check_sop, cohen_macaulay_defect,
                         find_standard_power, invariant_report,
                         standardness_witness)


# homological: resolution length; power: largest sequence power scanned
CAP_KEYS = ("homological", "power")


class RingSpecFile:
    """Parsed ring-spec file: the quotient ring, named sops, and caps."""

    def __init__(self, ring, sops, caps, name):
        self.ring = ring
        self.sops = sops
        self.caps = caps
        self.name = name

    def sop(self, name=None):
        if name is None:
            if len(self.sops) == 1:
                return next(iter(self.sops.values()))
            raise AlgebraError(
                f"ring spec has sops {sorted(self.sops)}; pick one")
        try:
            return self.sops[name]
        except KeyError:
            raise AlgebraError(f"no sop named {name!r}; available: "
                               f"{sorted(self.sops)}") from None

    def cap(self, key, default):
        return self.caps.get(key, default)


def parse_ring_spec(text, name=None):
    """Parse ring-spec text into a RingSpecFile.  Errors carry line numbers."""
    characteristic = None
    variables = None
    ideal_lines = []
    sop_lines = {}
    caps = {}
    section = None
    sop_name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise PolyParseError("unterminated section header", line=lineno)
            header = line[1:-1].strip()
            parts = header.split()
            if header in ("field", "vars", "ideal", "caps"):
                section = header
            elif parts[:1] == ["sop"]:
                if len(parts) != 2:
                    raise PolyParseError("sop section needs a name",
                                         line=lineno)
                section = "sop"
                sop_name = parts[1]
                if sop_name in sop_lines:
                    raise PolyParseError(f"repeated sop {sop_name!r}",
                                         line=lineno)
                sop_lines[sop_name] = []
            else:
                raise PolyParseError(f"unknown section {header!r}",
                                     line=lineno)
            continue
        if section == "field":
            if characteristic is not None:
                raise PolyParseError(
                    f"repeated characteristic {line!r}; the field is "
                    f"already GF({characteristic})", line=lineno)
            try:
                characteristic = int(line)
            except ValueError:
                raise PolyParseError(f"bad characteristic {line!r}",
                                     line=lineno) from None
        elif section == "vars":
            names = line.replace(",", " ").split()
            for name in names:
                if not IDENTIFIER.fullmatch(name):
                    raise PolyParseError(f"bad variable name {name!r}",
                                         line=lineno)
            variables = (variables or []) + names
        elif section == "ideal":
            ideal_lines.append((lineno, line))
        elif section == "sop":
            sop_lines[sop_name].append((lineno, line))
        elif section == "caps":
            if "=" not in line:
                raise PolyParseError("caps entries are key = value",
                                     line=lineno)
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in CAP_KEYS:
                raise PolyParseError(
                    f"unknown cap {key!r}; caps are "
                    + ", ".join(CAP_KEYS), line=lineno)
            if key in caps:
                raise PolyParseError(f"repeated cap {key!r}", line=lineno)
            try:
                caps[key] = int(val.strip())
            except ValueError:
                raise PolyParseError(f"bad cap value {val.strip()!r}",
                                     line=lineno) from None
        else:
            raise PolyParseError("content before any section header",
                                 line=lineno)
    if characteristic is None:
        raise AlgebraError("ring spec missing [field]")
    if not variables:
        raise AlgebraError("ring spec missing [vars]")
    ambient = PolynomialRingSpec(characteristic, variables)
    mono_degree = ambient._ctx.mono_degree
    gens = []
    for lineno, line in ideal_lines:
        vec = parse_packed(ambient, line, lineno)
        if len({mono_degree(k) for k in vec}) > 1:
            raise NotHomogeneousError(
                f"ideal generator {line!r} (line {lineno}) is inhomogeneous")
        gens.append(vec)
    ring = QuotientRingSpec(ambient, gens)
    sops = {}
    for sname, lines in sop_lines.items():
        elems = [parse_packed(ambient, line, lineno) for lineno, line in lines]
        sops[sname] = ParameterSequence(ring, elems, name=sname)
    return RingSpecFile(ring, sops, caps, name=name)


def load_ring_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ring_spec(fh.read(), name=str(path))


# ---------------------------------------------------------------------------
# reports


class ExperimentReport:
    """Inputs, computed data, and per-claim verdicts for one experiment.

    A sentinel such as NOT_FOUND is recorded as it is and spelled by its
    name: through repr in the structured form, through str in the text
    form.  A verdict passes a bool, or None for an informational one.
    """

    def __init__(self, experiment, inputs):
        self.experiment = experiment
        self.inputs = dict(inputs)
        self.data = {}
        self.verdicts = []
        self.timings = {}

    def record(self, key, value):
        self.data[key] = value

    def verdict(self, claim, passed, left, right):
        self.verdicts.append({
            "claim": claim,
            "pass": passed,
            "left": left,
            "right": right,
        })

    def passed(self):
        return all(v["pass"] for v in self.verdicts if v["pass"] is not None)

    def to_structured(self):
        return {
            "experiment": self.experiment,
            "inputs": self.inputs,
            "data": self.data,
            "verdicts": self.verdicts,
        }

    def to_json(self):
        return json.dumps(self.to_structured(), sort_keys=True, indent=2,
                          default=repr) + "\n"

    def to_text(self):
        lines = [f"experiment: {self.experiment}"]
        for k, v in self.inputs.items():
            lines.append(f"  input {k}: {v}")
        for k, v in self.data.items():
            if isinstance(v, str) and "\n" in v:
                lines.append(f"  {k}:")
                lines.extend("    " + row for row in v.splitlines())
            else:
                lines.append(f"  {k}: {v}")
        for v in self.verdicts:
            mark = {True: "PASS", False: "FAIL", None: "INFO"}[v["pass"]]
            lines.append(f"  [{mark}] {v['claim']}: {v['left']} vs {v['right']}")
        for k, v in self.timings.items():
            lines.append(f"  time {k}: {v:.2f}s")
        status = "PASS" if self.passed() else "FAIL"
        lines.append(f"result: {status}")
        return "\n".join(lines) + "\n"

    def render(self, fmt):
        if fmt == "structured":
            return self.to_json()
        return self.to_text()


def _cone_series(d, h_series, cap):
    """(1+t)^d + sum_i t^(i+1) P_{H_i}, truncated at t^cap.

    h_series: dict i -> coefficients of P_{H_i}.
    """
    out = [comb(d, i) for i in range(cap + 1)]
    for i, ph in h_series.items():
        for j, c in enumerate(ph):
            if i + 1 + j <= cap:
                out[i + 1 + j] += c
    return out


def _series_leq(left, right):
    """(holds, first strict index or None) for coefficientwise comparison."""
    strict = None
    for i, (a, b) in enumerate(zip(left, right)):
        if a > b:
            return False, i
        if a < b and strict is None:
            strict = i
    return True, strict


# ---------------------------------------------------------------------------
# experiments: each fills the report run_experiment made for it from the
# ring, the sop x, the homological cap and the largest power nmax


def verify_inequality(report, ring, x, cap, nmax):
    """Coefficientwise bound P_{R/(x)} <= (1+t)^d + sum t^(i+1) P_{H_i}."""
    d = ring.dimension()
    lhs = betti_table(x.quotient_module(), cap).totals()
    report.record("lhs_poincare", lhs)
    h_series = {}
    for i in range(1, x.count + 1):
        if x.length(i) != 0:
            h_series[i] = betti_table(x.homology(i), cap).totals()
    rhs = _cone_series(d, h_series, cap)
    report.record("homology_poincare", h_series)
    report.record("rhs_assembly", rhs)
    ok, strict = _series_leq(lhs, rhs)
    report.record("first_strict_index", strict)
    report.verdict("coefficientwise P_{R/(x)} <= cone assembly", ok, lhs, rhs)


def verify_main_theorem(report, ring, x, cap, nmax):
    """Main stabilization statement for rings with cmd <= 1 and FLC.

    Finds a standard power n, compares P_{R/(x^n)} with
    (1+t)^d + t^2 P_H (H = H_1(x^n; R), computed by an independent path),
    compares total Betti numbers across standard powers, and checks the
    Betti-tail identity beta_{d+1+j}(R/(x^n)) = beta_{d-1+j}(H).
    """
    d = ring.dimension()
    cmd = cohen_macaulay_defect(x)
    report.record("dim", d)
    report.record("cmd", cmd)
    if cmd > 1:
        report.verdict("cmd <= 1 hypothesis", None, cmd, "NOT-APPLICABLE")
        return
    verdict_flc, n = find_standard_power(x, nmax=nmax)
    if verdict_flc is not True:
        report.verdict("finite local cohomology hypothesis", None,
                       verdict_flc, "NOT-APPLICABLE")
        return
    report.record("standard_power", n)
    if n is NOT_FOUND:
        report.verdict("standard power found", False, n, f"<= {nmax}")
        return
    xn = x.power(n)
    betti = betti_table(xn.quotient_module(), cap)
    lhs = betti.totals()
    report.record("poincare_quotient", lhs)
    betti_h = betti_table(xn.homology(1), cap)
    ph = betti_h.totals()
    report.record("poincare_h", ph)
    rhs = _cone_series(d, {1: ph}, cap)
    report.verdict("P_{R/(x^n)} = (1+t)^d + t^2 P_H", lhs == rhs, lhs, rhs)

    # find_standard_power found x^m not standard for every m < n
    betti_by_power = {n: lhs}
    for m in range(n + 1, nmax + 1):
        xm = x.power(m)
        if standardness_witness(xm) is not None:
            continue
        betti_by_power[m] = betti_table(xm.quotient_module(), cap).totals()
    report.record("betti_totals_by_standard_power", betti_by_power)
    vals = list(betti_by_power.values())
    report.verdict("total Betti numbers equal across standard powers",
                   all(v == vals[0] for v in vals), betti_by_power,
                   "all equal")

    tail = {j: (betti.total(d + 1 + j), betti_h.total(d - 1 + j))
            for j in range(cap - d)}
    report.record("betti_tail_pairs", tail)
    report.verdict("beta_{d+1+j}(R/(x^n)) = beta_{d-1+j}(H)",
                   all(left == right for left, right in tail.values()),
                   {j: v[0] for j, v in tail.items()},
                   {j: v[1] for j, v in tail.items()})


def stabilization_scan(report, ring, x, cap, nmax):
    """Betti totals of R/(x^i) for i = 1..nmax with a stabilization verdict;
    the squares criteria of the powers read the Koszul data of x's powers
    and their prefixes, which take the depth of R from the sop x.  A
    non-sop raises before any power is made."""
    check_sop(x)
    if nmax < 1:
        raise AlgebraError(f"power bound {nmax} is below 1: the scan window "
                           "is empty")
    # the squares criterion at the last power works with x^(2 nmax)
    check_degree(2 * nmax * max(x.degrees(), default=0))
    tables = {}
    standard = {}
    for i in range(1, nmax + 1):
        xi = x.power(i)
        tables[i] = betti_table(xi.quotient_module(), cap).totals()
        standard[i] = standardness_witness(xi) is None
    report.record("betti_totals", tables)
    report.record("standard", standard)
    stab = None
    for i in range(1, nmax + 1):
        if standard[i] and all(tables[j] == tables[i]
                               for j in range(i, nmax + 1)):
            stab = i
            break
    report.record("stabilization_index",
                  stab if stab is not None else "NOT-STABILIZED")
    report.verdict("stabilization observed within the window",
                   stab is not None, tables,
                   "constant from a standard power on")


# P_H2, P_H1 and P_quotient of r1 through t^4.  The P_H1 entry is stale
# (H_1 = k(-2)^2 gives 2 P_k = (2,6,12,26,56)); the goldens record its FAIL
EXAMPLE_REFERENCE = ((1, 3, 6, 13, 28), (3, 7, 12, 26, 56), (1, 2, 3, 7, 15))


def reproduce_example(report, ring, x, cap, nmax):
    """Recompute the three reference Poincare truncations and compare."""
    p_h2, p_h1 = (betti_table(x.homology(p), cap).totals()
                  for p in (2, 1))
    p_q = betti_table(x.quotient_module(), cap).totals()
    for name, got, want in zip(("P_H2", "P_H1", "P_quotient"),
                               (p_h2, p_h1, p_q), EXAMPLE_REFERENCE):
        report.record(name, got)
        report.verdict(f"{name} matches reference", got == list(want), got,
                       list(want))


def resolve_experiment(report, ring, x, cap, nmax):
    """Minimal free resolution data of R/(x)."""
    table = betti_table(x.quotient_module(), cap)
    report.record("betti", table.to_dict())
    report.record("betti_pretty", table.pretty())
    report.record("poincare", table.totals())


def koszul_experiment(report, ring, x, cap, nmax):
    """Lengths and graded pieces of all Koszul homology modules of x."""
    k = x.complex()
    report.record("ranks", {n: k.rank(n) for n in range(x.count + 1)})
    lengths = {i: x.length(i) for i in range(x.count + 1)}
    graded = {i: x.graded_length(i)
              for i, n in lengths.items() if n is not INFINITE}
    report.record("homology_lengths", lengths)
    report.record("homology_graded", graded)


def invariants_experiment(report, ring, x, cap, nmax):
    """Dimension, depth, defect and local cohomology; x may be None."""
    inv = invariant_report(ring, x, nmax=nmax)
    for k, v in inv.to_dict().items():
        report.record(k, v)
    report.verdict("cmd = dim - depth is non-negative", inv.cmd >= 0,
                   inv.cmd, ">= 0")


def standard_experiment(report, ring, x, cap, nmax):
    _, n = find_standard_power(x, nmax=nmax)
    report.record("standard_power", n)
    if n is not NOT_FOUND:
        wit = standardness_witness(x.power(n))
        report.verdict("power re-verified standard", wit is None,
                       f"n={n}", "squares criterion")
    else:
        report.verdict("standard power found", False, n, f"<= {nmax}")


# subcommand -> (help line, inputs the report records after ring and sop,
# experiment); invariants omits power_max, which it uses, as its goldens do
EXPERIMENTS = {
    "resolve": ("minimal free resolution of R/(x)", ("cap",),
                resolve_experiment),
    "koszul": ("Koszul homology lengths of the sequence", (),
               koszul_experiment),
    "invariants": ("dimension, depth, defect, local cohomology", (),
                   invariants_experiment),
    "standard": ("smallest power making the sop standard", ("power_max",),
                 standard_experiment),
    "inequality": ("coefficientwise Poincare series bound", ("cap",),
                   verify_inequality),
    "main-theorem": ("stabilization statement for cmd <= 1 rings",
                     ("cap", "power_max"), verify_main_theorem),
    "scan": ("Betti totals of R/(x^i) across powers", ("cap", "power_max"),
             stabilization_scan),
    "example": ("recompute the bundled reference computation", ("cap",),
                reproduce_example),
}


def run_experiment(command, ring, x, cap, nmax):
    """The timed report of subcommand `command` on ring and sop x (None
    when the spec has none), recording the inputs its table row names."""
    _, recorded, experiment = EXPERIMENTS[command]
    given = {"cap": cap, "power_max": nmax}
    report = ExperimentReport(command, {
        "ring": repr(ring), "sop": None if x is None else repr(x),
        **{key: given[key] for key in recorded}})
    t0 = time.monotonic()
    experiment(report, ring, x, cap, nmax)
    report.timings["total"] = time.monotonic() - t0
    return report
