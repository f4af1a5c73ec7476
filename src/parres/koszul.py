"""Parameter sequences with their powers, prefixes and Koszul homology;
Koszul complexes and comparison maps.

The exterior basis of the degree-p term is indexed by the p-element subsets of
{0..r-1} in lexicographic order.  The differential takes e_{i1<...<ip} to
sum_j (-1)^(j+1) x_{ij} e_{...without ij...}.  Coefficients are in R itself.

Each sequence keeps its own K(y; R) and Koszul homology, and a power or
prefix is made once per root sequence, so the functions that read them
share them with no cache passed around (see ParameterSequence).
"""

from __future__ import annotations

from itertools import combinations

from .algebra import AlgebraError, NotHomogeneousError, check_degree
from .groebner import (FinitelyPresentedModule, INFINITE, RingMatrix,
                       series_counts, sum_numerators)
from .complexes import ChainComplex, ComplexMap, homology_presentation


class ParameterSequence:
    """A sequence of homogeneous positive-degree elements of R, kept as the
    relation matrix d_1 of R/(x): the constructor takes the elements as
    packed position-0 vectors over the ambient ring, and column j is x_j
    reduced modulo I.  Each sequence owns its Koszul complex K(y; R) and
    the Hilbert series and presentations of its Koszul homology, each
    computed once.

    The sequence the constructor made is the root of every power and prefix
    made from it: y = x^n's first r elements is made once per (n, r), from
    x^n made once for the whole root, so the square of a prefix and the
    prefix of the square are one object, with one quotient module and one
    set of Koszul data.

    The homology series come from the cokernels C_p of the differentials
    d_p: F_p -> F_{p-1}: the exact sequences 0 -> Z_p -> F_p -> F_{p-1} ->
    C_p -> 0 and 0 -> B_p -> F_p -> C_{p+1} -> 0 give
    HS(H_p) = HS(C_{p+1}) + HS(C_p) - HS(F_{p-1}), so one Buchberger run per
    cokernel, with no tag block, serves H_p and H_{p-1}.  C_1 is R/(y), and
    C_(r+1) is the free module F_r, r = y.count; the free modules' series
    come from y's degrees and R's numerator, with no complex built.

    Vanishing from the depth: H_p(y; R) = 0 for p > r - grade(y)
    (Bruns-Herzog 1.6.17), and depth R <= grade(y) + dim R/(y).  A part y
    of a sop root x has dim R/(y) = d - r, so H_p(y; R) = 0 for every
    p > cmd = d - depth R, and depth R = grade(x), which the root keeps.
    Such a part derives each C_p with p > cmd as HS(F_{p-1}) - HS(C_{p+1}),
    downward from C_(r+1), with no Groebner basis: one run, for R/(y), when
    cmd = 1, and none over a Cohen-Macaulay ring.
    """

    def __init__(self, ring, elements, name=None):
        cols = []
        for f in elements:
            cols.append(ring.reduce_packed(f))
            if not cols[-1]:
                element = ring.ambient.polynomial(f)
                raise AlgebraError(f"sequence element {element} is zero in R")
            _degree(ring, cols[-1])  # each element checked in turn
        self._set(ring, cols, name, self, (1, len(cols)))
        self._parts = {self._index: self}  # the root's parts by (n, r)

    def _set(self, ring, cols, name, root, index):
        """Keep the reduced packed elements cols, each checked to be
        homogeneous of positive degree, as root^n's first r elements for
        index = (n, r)."""
        self.ring, self.name, self.count = ring, name, len(cols)
        degrees = [_degree(ring, col) for col in cols]
        self.relations = RingMatrix(ring, cols, [0], degrees)
        self._quotient = FinitelyPresentedModule(ring, [0], self.relations)
        self._sop = None
        self._root, self._index = root, index
        self._complex = None
        self._grade = None
        self._cokernels = {}
        self._numerators = {}
        self._presentations = {}

    @property
    def elements(self):
        """The elements as Polynomials reduced modulo I, for printing."""
        return tuple(self.relations.entry(0, j) for j in range(self.count))

    def degrees(self):
        return self.relations.col_degrees

    def quotient_module(self):
        """R/(y) as a finitely presented module over R, one per sequence,
        so that its Hilbert series is computed once."""
        return self._quotient

    def is_sop(self):
        """System of parameters: d = dim R elements with R/(x) artinian;
        decided once per sequence."""
        if self._sop is None:
            self._sop = (self.count == self.ring.dimension() and
                         self.quotient_module().length() is not INFINITE)
        return self._sop

    def _part(self, n, r):
        """The root's x^n's first r elements, made once per (n, r): a
        prefix slices the whole x^n, which the ring's product-and-reduce
        kernel makes from the root's packed elements."""
        if (n, r) not in self._parts:
            if r < self.count:
                cols = self._part(n, self.count).relations.cols[:r]
            else:
                cols = []
                for col, deg in zip(self.relations.cols, self.degrees()):
                    check_degree(n * deg)
                    out = col
                    for _ in range(1, n):
                        out = self.ring.products({0: out}, [col], None)[0]
                    cols.append(out)
            part = object.__new__(ParameterSequence)
            part._set(self.ring, cols, None, self, (n, r))
            self._parts[(n, r)] = part
        return self._parts[(n, r)]

    def power(self, n):
        """Elementwise n-th powers of the sequence; x^1 is x itself."""
        if n < 1:
            raise AlgebraError("power must be at least 1")
        m, r = self._index
        return self._root._part(m * n, r)

    def prefix(self, r):
        """y_1..y_r for 1 <= r <= count; the whole of y is y itself."""
        if not 1 <= r <= self.count:
            raise AlgebraError(f"prefix length {r} is not in 1..{self.count}")
        return self._root._part(self._index[0], r)

    def complex(self):
        """K(y; R)."""
        if self._complex is None:
            self._complex = koszul_complex(self)
        return self._complex

    def _free(self, p):
        """Hilbert series numerator of F_p = K_p(y; R): R's numerator
        shifted by deg s, summed over the p-element subsets s of y; {} for
        p > count."""
        ring_num = self.ring.hilbert_numerator()
        return sum_numerators((1, sum(degs), ring_num)
                              for degs in combinations(self.degrees(), p))

    def _cokernel(self, p):
        """Hilbert series numerator of C_p = coker d_p, for p >= 1, with no
        zero coefficient; C_(count+1) is the free module F_count, and above
        it F_(p-1) = 0.  A part of a sop root derives C_p for p > cmd;
        otherwise C_1 is y's own quotient module, which y.is_sop() may have
        counted already, and any other C_p takes a Buchberger run."""
        if p not in self._cokernels:
            root = self._root
            if p > self.count:
                num = self._free(p - 1)
            elif (root is not self and root.is_sop()
                  and p > self.ring.dimension() - root.grade()):
                num = sum_numerators([(1, 0, self._free(p - 1)),
                                      (-1, 0, self._cokernel(p + 1))])
            elif p == 1:
                num = self.quotient_module().hilbert_numerator()
            else:
                cplx = self.complex()
                num = FinitelyPresentedModule(
                    self.ring, cplx.module(p - 1),
                    cplx.differential(p)).hilbert_numerator()
            self._cokernels[p] = num
        return self._cokernels[p]

    def _numerator(self, p):
        """Dict degree -> coefficient of the Hilbert series numerator of
        H_p(y; R) over (1-t)^nvars; K(y; R) has no terms above count, so
        H_p(y; R) = 0 there."""
        if p < 0:
            raise AlgebraError(f"homology index {p} is negative")
        if p not in self._numerators:
            terms = [(1, 0, self._cokernel(p + 1))]
            if p > 0:
                terms += [(1, 0, self._cokernel(p)),
                          (-1, 0, self._free(p - 1))]
            self._numerators[p] = sum_numerators(terms)
        return self._numerators[p]

    def graded_length(self, p):
        """Dict internal degree -> GF(p)-dimension of H_p(y; R), or
        INFINITE."""
        return series_counts(self._numerator(p), self.ring.nvars)

    def length(self, p):
        """Length of H_p(y; R), or INFINITE."""
        counts = self.graded_length(p)
        return INFINITE if counts is INFINITE else sum(counts.values())

    def presentation(self, p):
        """(Z, H_p(y; R)): the cycle matrix of K(y; R) in degree p and the
        presented homology, as homology_presentation returns them."""
        if p < 0:
            raise AlgebraError(f"homology index {p} is negative")
        if p not in self._presentations:
            self._presentations[p] = homology_presentation(self.complex(), p)
        return self._presentations[p]

    def homology(self, p):
        """H_p(y; R) as a finitely presented module."""
        return self.presentation(p)[1]

    def grade(self):
        """grade of (y) on R: count minus the top nonvanishing H_p(y; R),
        taken once; for a sop it is depth R."""
        if self._grade is None:
            self._grade = next((self.count - p
                                for p in range(self.count, 0, -1)
                                if self.length(p) != 0), self.count)
        return self._grade

    def __repr__(self):
        body = ", ".join(str(f) for f in self.elements)
        return f"<ParameterSequence ({body}) over {self.ring}>"


def _degree(ring, col):
    """The degree of the reduced packed sequence element col, which must be
    homogeneous of positive degree; a given element is nonzero, checked
    before, so a zero col is a power."""
    if not col:
        raise AlgebraError("a power of a sequence element is zero in R")
    degs = {ring._ctx.mono_degree(k) for k in col}
    if len(degs) > 1:
        raise NotHomogeneousError("inhomogeneous sequence element "
                                  f"{ring.ambient.polynomial(col)}")
    if not max(degs):
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


def comparison_map(x, n):
    """The map of complexes K(x^(n+1); R) -> K(x^n; R), each the power's own.

    Degree-1 component sends e_j to x_j e_j; degree-p components are the
    exterior powers, diagonal with entry prod_{i in S} x_i on subset S.
    Each product is x_i times the product over the rest of S, made from
    the packed columns of d_1 by the ring's product-and-reduce kernel.
    """
    if n < 1:
        raise AlgebraError("power must be at least 1")
    src = x.power(n + 1).complex()
    tgt = x.power(n).complex()
    ring = x.ring
    shift = ring._ctx.position_shift
    elements = x.relations.cols
    diagonal = {(): {ring._ctx.one: 1}}
    components = {}
    for p in range(x.count + 1):
        cols = []
        for idx, s in enumerate(_subsets(x.count, p)):
            if s not in diagonal:
                diagonal[s] = ring.products({0: diagonal[s[1:]]},
                                            [elements[s[0]]], None)[0]
            cols.append({k - shift(idx): c for k, c in diagonal[s].items()})
        components[p] = RingMatrix(ring, cols, tgt.module(p), src.module(p))
    return ComplexMap(src, tgt, components)
