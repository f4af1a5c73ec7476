"""Minimal graded free resolutions, Betti tables, cone resolutions, lifting checks.

Resolutions are computed step by step: each differential has its unit
entries cancelled as it arrives (`complexes.cancel_units`), the next syzygy
step is read off the cancelled differential, and Betti data is read off the
generator degrees.  Only d_2 is read off the presentation as given, with the
cancelled rows dropped, so that d_1∘d_2 checks d_1's pivots.  The cone
construction assembles a (generally non-minimal) resolution of R/(x) from the
Koszul complex and resolutions of its higher homology modules.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .algebra import MAX_DEGREE, AlgebraError
from .groebner import RingMatrix, syzygies
from .complexes import (ChainComplex, cancel_units, kill_top_homology,
                        lift_chain_map)
from .oracle import Echelon, gf_rank, matrix_slice


class BettiTable:
    """Graded Betti numbers beta_{i,j} up to a homological cap."""

    def __init__(self, entries, cap):
        self.entries = {k: v for k, v in entries.items() if v}
        self.cap = cap

    def total(self, i):
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self):
        return [self.total(i) for i in range(self.cap + 1)]

    def __eq__(self, other):
        return (isinstance(other, BettiTable)
                and self.entries == other.entries and self.cap == other.cap)

    def to_dict(self):
        return {f"{i},{j}": v for (i, j), v in sorted(self.entries.items())}

    def pretty(self):
        """Conventional staircase layout: row j-i, column i."""
        if not self.entries:
            return "(zero)"
        cols = range(self.cap + 1)
        slopes = sorted({j - i for (i, j) in self.entries})
        width = max(len(str(v)) for v in self.entries.values())
        width = max(width, len(str(self.cap)), 1) + 2
        lines = ["    " + "".join(f"{i:>{width}}" for i in cols)]
        for s in range(slopes[0], slopes[-1] + 1):
            cells = []
            for i in cols:
                v = self.entries.get((i, i + s))
                cells.append(f"{v if v is not None else '.':>{width}}")
            lines.append(f"{s:>3}:" + "".join(cells))
        total = ["tot:" + "".join(f"{self.total(i):>{width}}" for i in cols)]
        return "\n".join(lines[:1] + total + lines[1:])

    def __repr__(self):
        return f"<BettiTable totals {self.totals()}>"


class SeriesTruncation:
    """Truncated Poincare series: total Betti numbers c_0..c_cap."""

    def __init__(self, coefficients):
        self.coefficients = list(coefficients)

    def __repr__(self):
        body = " + ".join(f"{c}t^{i}" if i else str(c)
                          for i, c in enumerate(self.coefficients))
        return f"<{body}>"


class ModuleResolution:
    """A minimal free resolution together with its bookkeeping, as
    `minimal_free_resolution` makes it.

    complex: modules in homological degrees 0..cap + 1 (fewer when the
    resolution ends earlier) and the differentials between them, exact in
    degrees 1..cap.  F_0..F_cap are minimal; F_{cap+1} is the step past the
    cap in all degrees, less what its units cancel.  betti() reads rows
    0..cap.
    kept: the indices, increasing, of the presentation generators of the
    module that are the generators of F_0, the minimal ones that survive.
    """

    def __init__(self, cplx, kept, cap):
        self.complex = cplx
        self.kept = kept
        self.cap = cap

    def betti(self):
        return BettiTable(Counter((i, j) for i in range(self.cap + 1)
                                  for j in self.complex.module(i)), self.cap)

    def poincare(self):
        return SeriesTruncation(self.betti().totals())

    def __repr__(self):
        return (f"<ModuleResolution ranks {self.betti().totals()} "
                f"(cap {self.cap})>")


def _check_cap(cap):
    """Raise for a cap outside 0..MAX_DEGREE, the packing limit, before the
    first syzygy step: the steps run on to the cap even after the
    resolution has ended, so a cap past the limit is an input error, as a
    degree past it is."""
    if not 0 <= cap <= MAX_DEGREE:
        raise AlgebraError(f"resolution cap {cap} is outside "
                           f"0..{MAX_DEGREE}")


def minimal_free_resolution(module, cap):
    """Minimal graded free resolution of a finitely presented module.

    The syzygy steps run through homological degree cap + 1, so the
    complex is exact in homological degrees 1..cap with H_0 the module
    itself, and every entry of d_1..d_cap lies in the maximal ideal; see
    `ModuleResolution` for the top degree.
    """
    _check_cap(cap)
    first = module.relations

    def arrive(n, diffs, kept):
        if n == 1:
            return first
        last = diffs[n - 1]
        if not last.ncols:
            return None
        if n > 2:
            return syzygies(last)
        # d_1∘d_2 checks d_1's pivots only if d_2 is read off d_1 as given
        d = syzygies(first)
        return d.submatrix(kept[1], range(d.ncols))

    mini, kept = cancel_units(module.ring, {0: module.gen_degrees},
                              range(1, cap + 2), arrive)
    return ModuleResolution(mini, kept.get(0, []), cap)


def betti_table(module, cap):
    """The BettiTable of the minimal free resolution of module through cap,
    equal to `minimal_free_resolution(module, cap).betti()` with no syzygy
    step past the cap: rows 0..cap - 1 are those of the resolution through
    cap - 1, whose d_cap, its units cancelled, maps onto the cap-th syzygy
    module, and row cap counts the columns of d_cap that minimally generate
    its image (`_minimal_columns`).  At cap 0 the one row is F_0 after
    step 1.
    """
    _check_cap(cap)
    res = minimal_free_resolution(module, max(cap - 1, 0))
    last = {}
    if cap:
        d = res.complex.differential(cap)
        last = Counter((cap, d.col_degrees[c]) for c in _minimal_columns(d))
    return BettiTable({**res.betti().entries, **last}, cap)


def _minimal_columns(d):
    """The indices, increasing, of columns of d that minimally generate its
    image, read with one `Echelon` per column degree j, upward: first the
    degree-j multiples of the columns kept so far, shortest first, then
    each degree-j column, which is kept when it adds a pivot.  The kept
    columns of degree < j generate what all of them do, so those multiples
    span m im(d) in degree j, and by graded Nakayama the number kept of
    degree j is beta_j of im(d).  At the lowest degree there are no
    multiples, and the columns are read by term."""
    ring, p = d.ring, d.ring.characteristic
    by_degree = {}
    for c, j in enumerate(d.col_degrees):
        by_degree.setdefault(j, []).append(c)
    kept = []
    for j, cols in sorted(by_degree.items()):
        cols.sort(key=lambda c: len(d.cols[c]))
        echelon = Echelon(p)
        if kept:
            sub = kept + cols
            # the source basis runs by position, so the degree-j columns,
            # one unit each, come last
            vecs = matrix_slice(
                RingMatrix(ring, [d.cols[c] for c in sub], d.row_degrees,
                           [d.col_degrees[c] for c in sub]), j)[0]
            for v in sorted(vecs[:-len(cols)], key=len):
                echelon.add(v)
            vecs = vecs[-len(cols):]
        else:
            vecs = [d.cols[c] for c in cols]
        kept += [c for v, c in zip(vecs, cols) if echelon.add(v)]
    return sorted(kept)


def _truncate(cplx, top):
    modules = {n: d for n, d in cplx.modules.items() if n <= top}
    diffs = {n: m for n, m in cplx.differentials.items() if n <= top}
    return ChainComplex(cplx.ring, modules, diffs, check=False)


def general_cone_resolution(x, cap):
    """Free resolution of R/(x) by iterated homology-killing cones.

    Starting from the Koszul complex, the top homology (in degrees >= 1) is
    killed repeatedly with shifted resolutions; before minimization the ranks
    follow the direct-sum shape rank_n = rank K_n + sum_s rank F^s_{n-s-1}.
    K(x; R), each H_s(x; R) and its cycle matrix are x's own.  The result is trustworthy through homological degree cap + 1
    and is returned unminimized.
    """
    cplx = x.complex()
    for s in range(x.count, 0, -1):
        if x.length(s) == 0:
            continue
        # killing H_t adds nothing below degree t + 1, so the cone built so
        # far is K(x) in degrees <= s + 1 and its H_s and cycles are K(x)'s
        z, h = x.presentation(s)
        # resolution length: each kill stays valid through degree cap + 1,
        # and the junk above the truncated resolution of H_s lands strictly
        # above everything later (lower-s) iterations touch
        res = minimal_free_resolution(h, max(0, cap + 1 - s))
        _, cplx = kill_top_homology(cplx, res, s, z)
    return _truncate(cplx, cap + 1)


# ---------------------------------------------------------------------------
# lifting the Koszul complex into the minimal resolution, reduction mod m


def lift_koszul_to_resolution(x, resolution):
    """Chain map gamma: K(x; R) -> F covering the identity of R/(x)."""
    f = resolution.complex
    if f.module(0) != (0,):
        raise AlgebraError("resolution does not present a cyclic module in "
                           "degree zero")
    return lift_chain_map(x.complex(), f, 0,
                          RingMatrix.identity(x.ring, (0,)))


def cec_injectivity_check(x, cap):
    """Injectivity of the Koszul-to-resolution comparison after killing m.

    Lifts K(x; R) into the minimal free resolution F of R/(x), reduces both
    modulo the maximal ideal (where both differentials vanish), and checks in
    each homological degree n <= min(cap, count) that the induced map
    k^binom(r,n) -> k^beta_n has full rank binom(r, n): the constant
    terms of each column are its keys of monomial degree 0.  F is resolved
    through r = count, as far as K(x; R) reaches: F_0..F_r and d_1..d_r,
    which the lift reads, do not depend on how far the resolution runs on.
    """
    r = x.count
    top = min(cap, r)
    res = minimal_free_resolution(x.quotient_module(), r)
    comps = lift_koszul_to_resolution(x, res)
    p = x.ring.characteristic
    ctx = x.ring._ctx
    report = {}
    for n in range(top + 1):
        columns = [{ctx.pos_of(k): c for k, c in col.items()
                    if not ctx.mono_degree(k)} for col in comps[n].cols]
        report[n] = gf_rank(columns, p) == comb(r, n)
    return report
