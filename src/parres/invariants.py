"""Ring invariants: depth, grade, sop tests, local cohomology lengths.

Everything here is about R itself: Koszul homology has coefficients in R.
Depth is read off the grade of a sop x, the vanishing of its Koszul
homology: depth R = grade(x) = d - max{p : H_p(x; R) != 0}, because grade
depends only on the radical of the ideal and (x) is primary to the
irrelevant maximal ideal m (Bruns-Herzog 1.2.10 and 1.6.17).  So the depth
is taken only from a sequence checked to be a sop, and a non-sop raises
before any Koszul homology is computed.  Every test here compares lengths,
which each sequence reads off Hilbert series, so none of them presents a
Koszul homology module.  A power or prefix of a sop x derives the series of
every H_p that must vanish, p > cmd = d - depth R, from grade(x), which x
keeps (see ParameterSequence), so no function here takes the grade first.
Sop standardness uses the squares criterion (Koszul homology lengths
unchanged under squaring the sequence), and the lengths of the local
cohomology modules are recovered by back-solving the binomial identities
relating them to Koszul homology lengths of a standard sop.  Finiteness of
local cohomology is a semi-decision: lengths are scanned across powers up
to a bound.  The criterion presumes finite local cohomology, so
find_standard_power is the one search for both answers: it takes the FLC
verdict and tries the powers of x only when the verdict is True.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .algebra import AlgebraError, Sentinel
from .groebner import INFINITE
from .complexes import InducedHomologyMap, ComplexMap, dual
from .koszul import ParameterSequence, comparison_map

# flc_check verdict when the power bound is hit without stabilization
UNDECIDED = Sentinel("UNDECIDED")
# standard-power searches that find no standard power within the bound
NOT_FOUND = Sentinel("NOT-FOUND")


def _variable_keys(ring):
    """The packed position-0 key of each ambient variable, in order."""
    ctx = ring._ctx
    return [ctx.one + w for w in ctx.weights]


def maximal_ideal_sequence(ring):
    """The nonzero images of the ambient variables, generating the
    irrelevant ideal; a variable in I (empty normal form) is dropped."""
    elems = [{k: 1} for k in _variable_keys(ring) if ring.monomial_form(k)]
    return ParameterSequence(ring, elems, name="m")


def check_sop(x):
    """Raise unless x is a sop of its ring: the one check that every
    reading of the depth or of x's powers makes first."""
    if not x.is_sop():
        raise AlgebraError("reference sequence is not a sop of R")


def depth(x):
    """Depth of R: grade(x) for the sop x; a non-sop raises."""
    check_sop(x)
    return x.grade()


def cohen_macaulay_defect(x):
    return x.ring.dimension() - depth(x)


def standardness_witness(x):
    """None if the squares criterion holds, else the first failing (p, r).

    Criterion: for every initial segment x_1..x_r and every p in 1..r, the
    Koszul homology length is unchanged when the elements are squared.
    """
    for r in range(1, x.count + 1):
        sub = x.prefix(r)
        sq = sub.power(2)
        for p in range(1, r + 1):
            l1 = sub.length(p)
            l2 = sq.length(p)
            if l1 is INFINITE or l2 is INFINITE:
                raise AlgebraError(
                    f"infinite Koszul homology length at (p={p}, r={r}); "
                    "squares criterion needs finite lengths")
            if l1 != l2:
                return (p, r)
    return None


def local_cohomology_lengths(x):
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
        sub = x.prefix(r)
        for p in range(1, r + 1):
            val = sub.length(p)
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


def cohomology_comparison_map(x, n, i):
    """Induced map H^i(x^n; R) -> H^i(x^(n+1); R) between Koszul cohomologies.

    Realized by dualizing the complex-level comparison map; cohomology in
    index i is homology of the dual in index -i.
    """
    phi = comparison_map(x, n)
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


def length_stability_check(x, nmax, check_maps):
    """Lengths of H_p(x^n; R), p = 1..count, n = 1..nmax, with stability
    verdicts.

    Also checks injectivity of the comparison maps induced on the cohomology
    H^g, g = depth, across consecutive powers (the index whose cohomology
    computes the corresponding local cohomology for standard sops).
    """
    d = x.count
    lengths = {}
    for n in range(1, nmax + 1):
        xn = x.power(n)
        for p in range(1, d + 1):
            lengths[(p, n)] = xn.length(p)
    stable = {p: len({lengths[(p, n)] for n in range(1, nmax + 1)}) == 1
              for p in range(1, d + 1)}
    injective = {}
    if check_maps and d >= 1:
        i = depth(x)
        for n in range(1, nmax):
            ind = cohomology_comparison_map(x, n, i)
            injective[(i, n)] = ind.is_injective()
    return StabilityReport(lengths, stable, injective)


def find_standard_power(x, nmax):
    """(flc_check(x, nmax), the smallest n <= nmax with x^n standard).

    The squares criterion presumes finite local cohomology, so the powers
    are searched only when the FLC verdict is True; otherwise n is
    NOT-FOUND, as it is when no power up to nmax is standard.
    """
    verdict = flc_check(x, nmax=nmax)
    if verdict is True:
        for n in range(1, nmax + 1):
            if standardness_witness(x.power(n)) is None:
                return verdict, n
    return verdict, NOT_FOUND


def _candidate_sops(ring):
    """Deterministic sop candidates, as packed vectors: variable subsets,
    then diagonal sums."""
    d = ring.dimension()
    keys = _variable_keys(ring)

    def plus(i, j):
        """x_i + x_j, which is 2 x_i when i = j."""
        vec = {keys[i]: 1}
        vec[keys[j]] = vec.get(keys[j], 0) + 1
        return vec

    for sub in combinations(keys, d):
        yield [{k: 1} for k in sub]
    # pair up complementary variables: x_i + x_{i+d}, wrapping as needed
    v = len(keys)
    if d < v:
        yield [plus(i, (i + d) % v) for i in range(d)]
        yield [plus(i, v - 1 - i) for i in range(d)]


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


def flc_check(x, nmax):
    """Finite local cohomology of R, as a semi-decision.

    True when the Koszul homology lengths of the sop x stabilize across
    powers n <= nmax and the stabilized values back-solve to one consistent
    set of local cohomology lengths; UNDECIDED when the power bound is hit
    without stabilization (or consistency fails).  A non-sop raises,
    on a ring of dimension 0 too.
    """
    check_sop(x)
    if x.ring.dimension() <= 0:
        return True  # finite length ring, trivially FLC
    if nmax < 2:
        raise AlgebraError(f"power bound {nmax} is below 2: the FLC check "
                           "compares powers nmax - 1 and nmax")
    lengths = {}
    for n in (nmax - 1, nmax):
        xn = x.power(n)
        for p in range(1, x.count + 1):
            lengths[(p, n)] = xn.length(p)
    if any(lengths[(p, nmax - 1)] != lengths[(p, nmax)]
           for p in range(1, x.count + 1)):
        return UNDECIDED
    try:
        local_cohomology_lengths(x.power(nmax))
    except AlgebraError:
        return UNDECIDED
    return True


class InvariantReport:
    """Summary invariants of a ring: dimension, depth, defect, FLC, lengths."""

    def __init__(self, dim, depth_, cmd, flc, lc_lengths, standard_power,
                 sop_name):
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
            "flc": self.flc,
            "lc_lengths": self.lc_lengths,
            "standard_power": self.standard_power,
            "sop": self.sop_name,
        }

    def __repr__(self):
        return (f"<InvariantReport dim={self.dim} depth={self.depth} "
                f"cmd={self.cmd} flc={self.flc!r} lc={self.lc_lengths}>")


def invariant_report(ring, x, nmax=4):
    """Compute the invariant summary of a ring for the sop x, or for the
    reference sop when x is None (the empty sequence on an artinian
    ring)."""
    if x is None:
        x = reference_sop(ring)
    dim = ring.dimension()
    dep = depth(x)
    flc, power = find_standard_power(x, nmax=nmax)
    lc = None
    if flc is not True or dim <= 0:
        power = None
    elif power is not NOT_FOUND:
        lc = local_cohomology_lengths(x.power(power))
    return InvariantReport(dim, dep, dim - dep, flc, lc, power,
                           sop_name=x.name)
