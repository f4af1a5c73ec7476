"""Ring invariants: depth, grade, sop tests, local cohomology lengths.

Everything here is about R itself: Koszul homology has coefficients in R.
Depth and grade are read off KoszulTable.grade, the vanishing of Koszul
homology.  Given a sop x, depth R = grade(x) = d - max{p : H_p(x; R) != 0}:
grade depends only on the radical of the ideal, and (x) is primary to the
irrelevant maximal ideal m (Bruns-Herzog 1.2.10 and 1.6.17), so the Koszul
homology of x, whose lengths the standardness and FLC tests read anyway,
gives the depth; K(m) on the variables is built only when there is no sop.
Every test here compares lengths, which the table reads off Hilbert series,
so none of them presents a Koszul homology module.  Sop
standardness uses the squares criterion (Koszul homology lengths unchanged
under squaring the sequence), and the lengths of the local cohomology
modules are recovered by back-solving the binomial identities relating them
to Koszul homology lengths of a standard sop.  Finiteness of local
cohomology is a semi-decision: lengths are scanned across powers up to a
bound.

The functions of one experiment share a KoszulTable, passed as `table`, so
that each H_p(y; R) is counted once.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .algebra import AlgebraError, Sentinel
from .groebner import INFINITE
from .complexes import InducedHomologyMap, ComplexMap, dual
from .koszul import KoszulTable, ParameterSequence, comparison_map

# flc_check verdict when the power bound is hit without stabilization
UNDECIDED = Sentinel("UNDECIDED")
# standard-power searches that find no standard power within the bound
NOT_FOUND = Sentinel("NOT-FOUND")


def maximal_ideal_sequence(ring):
    """The nonzero images of the ambient variables, generating the
    irrelevant ideal; a variable that lies in I is zero in R and dropped."""
    gens = [ring.ambient.gen(v) for v in ring.variables]
    elems = [g for g in gens if not ring.reduce(g).is_zero()]
    return ParameterSequence(ring, elems, name="m")


def depth(ring, table, x=None):
    """Depth of R: grade(x) read off the table for a sop x, else the grade
    of the irrelevant maximal ideal.  A non-sop x never gives the depth."""
    if x is not None and table.is_sop(x):
        return table.grade(x)
    return table.grade(maximal_ideal_sequence(ring))


def grade(generators, ring):
    """Grade of the ideal generated by the given elements; see
    KoszulTable.grade.  ParameterSequence rejects units."""
    return KoszulTable(ring).grade(ParameterSequence(ring, generators))


def cohen_macaulay_defect(ring, table, x=None):
    return ring.dimension() - depth(ring, table, x=x)


def _prefix(x, r):
    return ParameterSequence(x.ring, x.elements[:r])


def standardness_witness(x, table):
    """None if the squares criterion holds, else the first failing (p, r).

    Criterion: for every initial segment x_1..x_r and every p in 1..r, the
    Koszul homology length is unchanged when the elements are squared.
    """
    for r in range(1, x.count + 1):
        sub = _prefix(x, r)
        sq = sub.power(2)
        for p in range(1, r + 1):
            l1 = table.length(sub, p)
            l2 = table.length(sq, p)
            if l1 is INFINITE or l2 is INFINITE:
                raise AlgebraError(
                    f"infinite Koszul homology length at (p={p}, r={r}); "
                    "squares criterion needs finite lengths")
            if l1 != l2:
                return (p, r)
    return None


def is_standard_sop(x, nmax=4):
    """Standardness of a sop via the squares criterion.

    The criterion characterizes standard sops for rings with finite local
    cohomology, so FLC is checked first (semi-decision; an UNDECIDED verdict
    is raised as an error).
    """
    table = KoszulTable(x.ring)
    if not table.is_sop(x):
        raise AlgebraError("sequence is not a system of parameters")
    verdict = flc_check(x, table, nmax=nmax)
    if verdict is not True:
        raise AlgebraError(
            f"finite local cohomology not established ({verdict!r}); "
            "the squares criterion does not apply")
    return standardness_witness(x, table) is None


def local_cohomology_lengths(x, table):
    """Lengths of the local cohomology modules of R below the dimension.

    For a standard sop x = x_1..x_d the identity
    len H_p(x_1..x_r; R) = sum_i binom(r, i+p) * len H^i_m(R) holds for all
    r <= d and p >= 1; the r = d instances form a triangular system solved
    here for len H^0 .. len H^(d-1), and the r < d instances are used as a
    consistency check.
    """
    d = x.count
    measured = {}
    for r in range(1, d + 1):
        sub = _prefix(x, r)
        for p in range(1, r + 1):
            val = table.length(sub, p)
            if val is INFINITE:
                raise AlgebraError("infinite Koszul homology length; "
                                   "x is not a sop of R")
            measured[(p, r)] = val
    lc = [0] * d
    for p in range(d, 0, -1):
        # len H_p(x_1..x_d) = sum_{i} binom(d, i+p) lc[i]; i = d-p is new
        acc = measured[(p, d)]
        for i in range(d - p):
            acc -= comb(d, i + p) * lc[i]
        if acc < 0:
            raise AlgebraError(f"inconsistent system at p={p}: the sop is "
                               "not standard")
        lc[d - p] = acc
    for (p, r), val in measured.items():
        want = sum(comb(r, i + p) * lc[i] for i in range(d))
        if val != want:
            raise AlgebraError(
                f"standardness violation: measured len H_{p}(x_1..x_{r}) "
                f"= {val}, predicted {want}")
    return lc


def cohomology_comparison_map(x, n, i, table):
    """Induced map H^i(x^n; R) -> H^i(x^(n+1); R) between Koszul cohomologies.

    Realized by dualizing the complex-level comparison map, whose Koszul
    complexes come from `table`; cohomology in index i is homology of the
    dual in index -i.
    """
    phi = comparison_map(x, n, table)
    dsrc = dual(phi.target)    # dual of K(x^n)
    dtgt = dual(phi.source)    # dual of K(x^(n+1))
    comps = {}
    for p, mat in phi.components.items():
        comps[-p] = mat.transpose()
    dmap = ComplexMap(dsrc, dtgt, comps)
    return InducedHomologyMap(dmap, -i)


class StabilityReport:
    """Koszul homology lengths across powers of a sop, plus map injectivity."""

    def __init__(self, lengths, stable, injective):
        self.lengths = lengths        # (p, n) -> length
        self.stable = stable          # p -> bool
        self.injective = injective    # (i, n) -> bool or None

    def all_stable(self):
        return all(self.stable.values())

    def monotone(self):
        ps = {p for p, _ in self.lengths}
        ns = sorted({n for _, n in self.lengths})
        return all(self.lengths[(p, a)] <= self.lengths[(p, b)]
                   for p in ps for a, b in zip(ns, ns[1:]))

    def __repr__(self):
        return (f"<StabilityReport stable={self.stable} "
                f"injective={self.injective}>")


def length_stability_check(x, nmax=4, check_maps=True):
    """Lengths of H_p(x^n; R), p = 1..count, n = 1..nmax, with stability
    verdicts.

    Also checks injectivity of the comparison maps induced on the cohomology
    H^g, g = depth, across consecutive powers (the index whose cohomology
    computes the corresponding local cohomology for standard sops).
    """
    table = KoszulTable(x.ring)
    d = x.count
    lengths = {}
    for n in range(1, nmax + 1):
        xn = x.power(n)
        for p in range(1, d + 1):
            lengths[(p, n)] = table.length(xn, p)
    stable = {p: len({lengths[(p, n)] for n in range(1, nmax + 1)}) == 1
              for p in range(1, d + 1)}
    injective = {}
    if check_maps and d >= 1:
        i = depth(x.ring, table, x=x)
        for n in range(1, nmax):
            ind = cohomology_comparison_map(x, n, i, table)
            injective[(i, n)] = ind.is_injective()
    return StabilityReport(lengths, stable, injective)


def find_standard_power(x, table, nmax=4):
    """Smallest n <= nmax with x^n standard, or NOT-FOUND."""
    verdict = flc_check(x, table, nmax=nmax)
    if verdict is not True:
        return NOT_FOUND
    return first_standard_power(x, table, nmax=nmax)


def first_standard_power(x, table, nmax=4):
    """Smallest n <= nmax with x^n standard, or NOT-FOUND; no FLC check.

    The squares criterion presumes finite local cohomology, so call this
    only after flc_check has returned True; find_standard_power does both.
    """
    for n in range(1, nmax + 1):
        if standardness_witness(x.power(n), table) is None:
            return n
    return NOT_FOUND


def _candidate_sops(ring):
    """Deterministic sop candidates: variable subsets, then diagonal sums."""
    d = ring.dimension()
    gens = [ring.ambient.gen(v) for v in ring.variables]
    for sub in combinations(range(len(gens)), d):
        yield [gens[i] for i in sub]
    # pair up complementary variables: x_i + x_{i+d}, wrapping as needed
    v = len(gens)
    if d < v:
        cand = [gens[i] + gens[(i + d) % v] for i in range(d)]
        yield cand
        cand = [gens[i] + gens[v - 1 - i] for i in range(d)]
        yield cand


def reference_sop(ring):
    """A deterministic sop for the ring, for use as a testing baseline."""
    for cand in _candidate_sops(ring):
        try:
            x = ParameterSequence(ring, cand)
        except AlgebraError:
            continue
        if x.is_sop():
            return x
    raise AlgebraError("no system of parameters found among the candidates")


def flc_check(x, table, nmax=4):
    """Finite local cohomology of R, as a semi-decision.

    True when the Koszul homology lengths of the sop x stabilize across
    powers n <= nmax and the stabilized values back-solve to one consistent
    set of local cohomology lengths; UNDECIDED when the power bound is hit
    without stabilization (or consistency fails).
    """
    if x.ring.dimension() <= 0:
        return True  # finite length ring, trivially FLC
    if nmax < 2:
        raise AlgebraError(f"power bound {nmax} is below 2: the FLC check "
                           "compares powers nmax - 1 and nmax")
    if not table.is_sop(x):
        raise AlgebraError("reference sequence is not a sop of R")
    lengths = {}
    for n in (nmax - 1, nmax):
        xn = x.power(n)
        for p in range(1, x.count + 1):
            lengths[(p, n)] = table.length(xn, p)
    if any(lengths[(p, nmax - 1)] != lengths[(p, nmax)]
           for p in range(1, x.count + 1)):
        return UNDECIDED
    try:
        local_cohomology_lengths(x.power(nmax), table)
    except AlgebraError:
        return UNDECIDED
    return True


class InvariantReport:
    """Summary invariants of a ring: dimension, depth, defect, FLC, lengths."""

    def __init__(self, ring, dim, depth_, cmd, flc, lc_lengths,
                 standard_power, sop_name=None):
        self.ring = ring
        self.dim = dim
        self.depth = depth_
        self.cmd = cmd
        self.flc = flc
        self.lc_lengths = lc_lengths
        self.standard_power = standard_power
        self.sop_name = sop_name

    def to_dict(self):
        return {
            "dim": self.dim,
            "depth": self.depth,
            "cmd": self.cmd,
            "flc": repr(self.flc) if self.flc is UNDECIDED else self.flc,
            "lc_lengths": self.lc_lengths,
            "standard_power": (repr(self.standard_power)
                               if self.standard_power is NOT_FOUND
                               else self.standard_power),
            "sop": self.sop_name,
        }

    def __repr__(self):
        return (f"<InvariantReport dim={self.dim} depth={self.depth} "
                f"cmd={self.cmd} flc={self.flc!r} lc={self.lc_lengths}>")


def invariant_report(ring, x=None, nmax=4, table=None):
    """Compute the invariant summary of a ring, optionally for a given sop."""
    if table is None:
        table = KoszulTable(ring)
    dim = ring.dimension()
    if x is None and dim > 0:
        x = reference_sop(ring)
    dep = depth(ring, table, x=x)
    cmd = dim - dep
    flc = flc_check(x, table, nmax=nmax) if dim > 0 else True
    lc = None
    power = None
    if flc is True and dim > 0:
        power = first_standard_power(x, table, nmax=nmax)
        if power is not NOT_FOUND:
            lc = local_cohomology_lengths(x.power(power), table)
    return InvariantReport(ring, dim, dep, cmd, flc, lc, power,
                           sop_name=None if x is None else x.name)
