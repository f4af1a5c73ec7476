"""Koszul complexes, the table counting and presenting their homology,
powers, comparison maps.

The exterior basis of the degree-p term is indexed by the p-element subsets of
{0..r-1} in lexicographic order.  The differential takes e_{i1<...<ip} to
sum_j (-1)^(j+1) x_{ij} e_{...without ij...}.  Coefficients are in R itself.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import AlgebraError, NotHomogeneousError
from ._engine import check_degree
from .groebner import (FinitelyPresentedModule, INFINITE, RingMatrix, _pack,
                       _poly, pole_order, series_counts, sum_numerators)
from .complexes import ChainComplex, ComplexMap, homology_presentation


class ParameterSequence:
    """A sequence of homogeneous positive-degree elements of R, kept as the
    relation matrix d_1 of R/(x): column j is x_j reduced modulo I and
    packed, by the constructor alone; powers and prefixes are made from
    those columns."""

    def __init__(self, ring, elements, name=None):
        cols = []
        for f in elements:
            if f.ring != ring.ambient:
                raise AlgebraError("sequence element outside the ambient ring")
            cols.append(ring.reduce_packed(_pack({0: f}, ring._ctx)))
            _degree(ring, cols[-1])  # each element checked in turn
        self._set(ring, cols, name, None)

    def _set(self, ring, cols, name, root):
        """Keep the reduced packed elements cols, each checked to be
        homogeneous of positive degree, as a power or prefix of root."""
        self.ring, self.name, self.count = ring, name, len(cols)
        degrees = [_degree(ring, col) for col in cols]
        self.relations = RingMatrix(ring, cols, [0], degrees)
        self._quotient = FinitelyPresentedModule(ring, [0], self.relations)
        # the table's key, the same for equal elements however made
        self.key = tuple(frozenset(col.items()) for col in cols)
        self._sop = None
        # the sequence made by the constructor that this one is a power or
        # prefix of, at any remove, or None: y is part of a sop, so that
        # dim R/(y) = d - count, when its root (or y, if None) is a sop
        self._root = root
        # the powers and prefixes made of this one, each made once
        self._powers = {}
        self._prefixes = {}

    @property
    def elements(self):
        """The elements as Polynomials reduced modulo I, for printing."""
        return tuple(self.relations.entry(0, j) for j in range(self.count))

    def degrees(self):
        return self.relations.col_degrees

    def quotient_module(self):
        """R/(x) as a finitely presented module over R, one per sequence,
        so that its Hilbert series is computed once."""
        return self._quotient

    def is_sop(self):
        """System of parameters: d = dim R elements with R/(x) artinian;
        decided once per sequence."""
        if self._sop is None:
            self._sop = (self.count == self.ring.dimension() and
                         self.quotient_module().length() is not INFINITE)
        return self._sop

    def _part(self, cols):
        """The packed elements cols as a power or prefix of this one."""
        out = object.__new__(ParameterSequence)
        out._set(self.ring, cols, None, self._root or self)
        return out

    def power(self, n):
        """Elementwise n-th powers of the sequence, made once per n from the
        packed elements by the ring's product-and-reduce kernel, so that
        repeated calls share one sequence and its quotient module."""
        if n < 1:
            raise AlgebraError("power must be at least 1")
        if n == 1:
            return self
        if n not in self._powers:
            cols = []
            for col, deg in zip(self.relations.cols, self.degrees()):
                check_degree(n * deg)
                out = col
                for m in range(1, n):
                    out = self.ring.products({0: (m * deg, out)}, [col],
                                             None)[0]
                cols.append(out)
            self._powers[n] = self._part(cols)
        return self._powers[n]

    def prefix(self, r):
        """y_1..y_r for 1 <= r <= count, made once per r; the whole of y is
        y itself, which keeps its quotient module."""
        if not 1 <= r <= self.count:
            raise AlgebraError(f"prefix length {r} is not in 1..{self.count}")
        if r == self.count:
            return self
        if r not in self._prefixes:
            self._prefixes[r] = self._part(self.relations.cols[:r])
        return self._prefixes[r]

    def __repr__(self):
        body = ", ".join(str(f) for f in self.elements)
        return f"<ParameterSequence ({body}) over {self.ring}>"


def _degree(ring, col):
    """The degree of the reduced packed sequence element col, which must be
    homogeneous of positive degree."""
    degs = {ring._ctx.mono_degree(k) for k in col}
    if len(degs) > 1:
        raise NotHomogeneousError("inhomogeneous sequence element "
                                  f"{_poly(col, ring._ctx, ring.ambient)}")
    if max(degs, default=0) < 1:
        raise AlgebraError("sequence elements must have positive degree")
    return degs.pop()


def _subsets(r, p):
    return list(combinations(range(r), p))


def koszul_complex(x):
    """The Koszul complex K(x; R).

    d_1 presents R/(x), so it is the sequence's own relation matrix, whose
    column j is x_j reduced and packed.  Every other d_p moves those
    columns into their rows, each coefficient c negated to q - c (q the
    characteristic) where the exterior sign is negative."""
    ring = x.ring
    r = x.count
    degs = x.degrees()
    modules = {}
    for p in range(r + 1):
        modules[p] = tuple(sum(degs[i] for i in s) for s in _subsets(r, p))
    diffs = {1: x.relations} if r else {}
    shift, q = ring._ctx.position_shift, ring.characteristic
    for p in range(2, r + 1):
        tgt = {s: i for i, s in enumerate(_subsets(r, p - 1))}
        cols = []
        for s in _subsets(r, p):
            col = {}
            for j, ij in enumerate(s):
                down = shift(tgt[s[:j] + s[j + 1:]])
                col.update((k - down, c if j % 2 == 0 else q - c)
                           for k, c in diffs[1].cols[ij].items())
            cols.append(col)
        diffs[p] = RingMatrix(ring, cols, modules[p - 1], modules[p])
    return ChainComplex(ring, modules, diffs, check=True)


class KoszulTable:
    """K(y; R) and the Hilbert series of each H_p(y; R), giving its length,
    its graded length and the grade of (y), for the sequences one experiment
    meets, each computed once; H_p(y; R) is presented only when asked.

    The series come from the cokernels C_p of the differentials d_p: F_p ->
    F_{p-1}: the exact sequences 0 -> Z_p -> F_p -> F_{p-1} -> C_p -> 0 and
    0 -> B_p -> F_p -> C_{p+1} -> 0 give
    HS(H_p) = HS(C_{p+1}) + HS(C_p) - HS(F_{p-1}), so one Buchberger run per
    cokernel, with no tag block, serves H_p and H_{p-1}.  C_1 is R/(y), and
    C_(r+1) is the free module F_r, r = y.count; the free modules' series
    come from y's degrees and R's numerator, with no complex built.

    Vanishing from the depth: H_p(y; R) = 0 for p > r - grade(y)
    (Bruns-Herzog 1.6.17), and depth R <= grade(y) + dim R/(y), so
    H_p(y; R) = 0 for every p > r - depth R + dim R/(y).  Once the table
    knows depth R, it derives each such C_p as HS(F_{p-1}) - HS(C_{p+1}),
    downward from C_(r+1), with no Groebner basis.  The table learns the
    depth from the first grade(y) it computes for a y with dim R/(y) = 0 (a
    sop, or the maximal-ideal sequence): that grade is depth R, and it
    takes grade(x) itself before the first cokernel of a power or prefix of
    a sop x.  dim R/(y) is d - r for a y whose root (see ParameterSequence)
    is a sop; for any other y it is read off C_1.  So a prefix of a sop's
    power takes a run only for C_p with p <= cmd = d - depth R: one for
    R/(y) when cmd = 1, and none over a Cohen-Macaulay ring.

    Entries are keyed by y.key, y's packed elements, so the squares of a
    prefix of x and the prefix of x^2 share one entry.  A table is bound to
    one ring; make one per experiment and pass it to the functions that
    share it (it is not a global cache).
    """

    def __init__(self, ring):
        self.ring = ring
        self._complexes = {}
        self._cokernels = {}
        self._numerators = {}
        self._presentations = {}
        self._depth = None

    def _key(self, y):
        if y.ring != self.ring:
            raise AlgebraError("sequence over another ring than the table's")
        return y.key

    def _check_index(self, y, p):
        # K(y; R) has no terms above y.count, so H_p(y; R) = 0 there
        if p < 0:
            raise AlgebraError(f"homology index {p} is negative")

    def complex(self, y):
        """K(y; R)."""
        key = self._key(y)
        if key not in self._complexes:
            self._complexes[key] = koszul_complex(y)
        return self._complexes[key]

    def _free(self, y, p):
        """Hilbert series numerator of F_p = K_p(y; R): R's numerator
        shifted by deg s, summed over the p-element subsets s of y; {} for
        p > count."""
        ring_num = self.ring.hilbert_numerator()
        return sum_numerators((1, sum(degs), ring_num)
                              for degs in combinations(y.degrees(), p))

    def _quotient_dim(self, y):
        """dim R/(y): d - count for a sequence known to be part of a sop,
        else the pole order at t = 1 of the series of R/(y)."""
        if (y._root or y).is_sop():
            return self.ring.dimension() - y.count
        return pole_order(y.quotient_module().hilbert_numerator(),
                          self.ring.nvars)

    def _cokernel(self, y, p):
        """Hilbert series numerator of C_p = coker d_p, for p >= 1, with no
        zero coefficient; C_(count+1) is the free module F_count, and above
        it F_(p-1) = 0.  C_p is derived when the depth forces H_p = 0;
        otherwise C_1 is y's own quotient module, which y.is_sop() may have
        counted already, and any other C_p takes a Buchberger run."""
        key = (self._key(y), p)
        if key not in self._cokernels:
            if self._depth is None and y._root and y._root.is_sop():
                self.grade(y._root)  # depth R
            if p > y.count:
                num = self._free(y, p - 1)
            elif (self._depth is not None and p > y.count - self._depth
                  + self._quotient_dim(y)):
                num = sum_numerators([(1, 0, self._free(y, p - 1)),
                                      (-1, 0, self._cokernel(y, p + 1))])
            elif p == 1:
                num = y.quotient_module().hilbert_numerator()
            else:
                cplx = self.complex(y)
                num = FinitelyPresentedModule(
                    self.ring, cplx.module(p - 1),
                    cplx.differential(p)).hilbert_numerator()
            self._cokernels[key] = num
        return self._cokernels[key]

    def _numerator(self, y, p):
        """Dict degree -> coefficient of the Hilbert series numerator of
        H_p(y; R) over (1-t)^nvars."""
        self._check_index(y, p)
        key = (self._key(y), p)
        if key not in self._numerators:
            terms = [(1, 0, self._cokernel(y, p + 1))]
            if p > 0:
                terms += [(1, 0, self._cokernel(y, p)),
                          (-1, 0, self._free(y, p - 1))]
            self._numerators[key] = sum_numerators(terms)
        return self._numerators[key]

    def graded_length(self, y, p):
        """Dict internal degree -> GF(p)-dimension of H_p(y; R), or
        INFINITE."""
        return series_counts(self._numerator(y, p), self.ring.nvars)

    def length(self, y, p):
        """Length of H_p(y; R), or INFINITE."""
        counts = self.graded_length(y, p)
        return INFINITE if counts is INFINITE else sum(counts.values())

    def presentation(self, y, p):
        """(Z, H_p(y; R)): the cycle matrix of K(y; R) in degree p and the
        presented homology, as homology_presentation returns them."""
        self._check_index(y, p)
        key = (self._key(y), p)
        if key not in self._presentations:
            self._presentations[key] = homology_presentation(
                self.complex(y), p)
        return self._presentations[key]

    def homology(self, y, p):
        """H_p(y; R) as a finitely presented module."""
        return self.presentation(y, p)[1]

    def grade(self, y):
        """grade of (y) on R: count minus the top nonvanishing H_p(y; R).

        The first grade taken of a y with dim R/(y) = 0 is depth R, and the
        table keeps it to derive the cokernels whose homology must vanish;
        a y of positive dimension teaches it nothing."""
        grade = y.count
        for p in range(y.count, 0, -1):
            if self.length(y, p) != 0:
                grade = y.count - p
                break
        if self._depth is None and self._quotient_dim(y) == 0:
            self._depth = grade
        return grade


def comparison_map(x, n, table):
    """The map of complexes K(x^(n+1); R) -> K(x^n; R), both taken from the
    KoszulTable `table`.

    Degree-1 component sends e_j to x_j e_j; degree-p components are the
    exterior powers, diagonal with entry prod_{i in S} x_i on subset S.
    Each product is x_i times the product over the rest of S, made from
    the packed columns of d_1 by the ring's product-and-reduce kernel.
    """
    if n < 1:
        raise AlgebraError("power must be at least 1")
    src = table.complex(x.power(n + 1))
    tgt = table.complex(x.power(n))
    ring = x.ring
    shift, degs = ring._ctx.position_shift, x.degrees()
    elements = x.relations.cols
    diagonal = {(): {ring._ctx.one: 1}}
    components = {}
    for p in range(x.count + 1):
        cols = []
        for idx, s in enumerate(_subsets(x.count, p)):
            if s not in diagonal:
                rest = s[1:]
                top = sum(degs[i] for i in rest)
                diagonal[s] = ring.products({0: (top, diagonal[rest])},
                                            [elements[s[0]]], None)[0]
            cols.append({k - shift(idx): c for k, c in diagonal[s].items()})
        components[p] = RingMatrix(ring, cols, tgt.module(p), src.module(p))
    return ComplexMap(src, tgt, components)
