"""Groebner bases, quotient rings, matrices over them, syzygies, dimension, length.

All computations over a quotient ring R = S/I are done by lifting to the
ambient polynomial ring S.  Kernels and membership questions in free modules
over R are answered with an extended free module carrying one tag position per
source generator: the defining ideal times each target generator is thrown in,
a position-over-term Groebner basis is computed, and elements supported purely
on the tag block are read off.
"""

from __future__ import annotations

import itertools

from .algebra import (AlgebraError, DimensionMismatchError,
                      NotHomogeneousError, Polynomial, RingMismatchError,
                      Sentinel)
from ._engine import PackContext, buchberger, check_degree, groebner_basis

# returned by length() for modules of positive dimension
INFINITE = Sentinel("INFINITE")


# ---------------------------------------------------------------------------
# conversions between Polynomials and packed vectors


def _pack(col, ctx):
    """Packed vector of a sparse column {position: Polynomial}."""
    return {ctx.pack(pos, exp): c
            for pos, poly in col.items() for exp, c in poly.terms.items()}


def _poly(vec, ctx, ambient):
    """Polynomial over `ambient` of a packed vector with one position."""
    return Polynomial(ambient, {ctx.exp_of(k): c for k, c in vec.items()})


# ---------------------------------------------------------------------------
# quotient rings


class QuotientRingSpec:
    """R = S/I for a homogeneous ideal I in a polynomial ring S.

    The ring owns I: its packing context `_ctx` and `_reducer`, the
    Buchberger store of I's reduced Groebner basis.  Its position-0 entries
    are the basis `_basis` (monic, tail-reduced, sorted by degree and lead),
    seen as Polynomials in `ideal_basis`; the store gains I*e_i the first
    time a free-module position i >= 1 is met.
    """

    def __init__(self, ambient, ideal_generators):
        self.ambient = ambient
        gens = [g for g in ideal_generators if not g.is_zero()]
        for g in gens:
            if g.ring != ambient:
                raise RingMismatchError("ideal generator outside the ambient ring")
            if not g.is_homogeneous():
                raise NotHomogeneousError(f"inhomogeneous ideal generator {g}")
            if g.is_constant():
                raise AlgebraError("defining ideal contains a unit")
        ctx = self._ctx = PackContext(ambient.nvars, ambient.order.kind)
        p = ambient.characteristic
        self._reducer = (groebner_basis([_pack({0: g}, ctx) for g in gens],
                                        ctx, p, (0,))
                         if gens else None)
        self._basis = self._reducer.by_pos[0] if gens else []
        self.ideal_basis = [_poly(dict(items), ctx, ambient)
                            for *_, items in self._basis]
        self._lead_exps = [ctx.exp_of(lead) for _, lead, _, _ in self._basis]
        self._dimension = None

    @property
    def characteristic(self):
        return self.ambient.characteristic

    @property
    def nvars(self):
        return self.ambient.nvars

    @property
    def variables(self):
        return self.ambient.variables

    def is_polynomial_ring(self):
        return not self._basis

    def reduce(self, f):
        """Canonical representative of f in R (normal form modulo I)."""
        if f.ring != self.ambient:
            raise RingMismatchError("element outside the ambient ring")
        if not self._basis:
            return f
        return _poly(self.reduce_packed(_pack({0: f}, self._ctx)), self._ctx,
                     self.ambient)

    def ideal_rows(self, positions):
        """g*e_i for every basis element g of I and every i in positions."""
        move = self._ctx.move
        return [{move(k, i): c for k, c in items}
                for *_, items in self._basis for i in positions]

    def reduce_packed(self, vec):
        """Normal form modulo I of a packed vector, in every position."""
        if not self._basis or not vec:
            return vec
        met = len(self._reducer.by_pos)
        top = self._ctx.pos_of(min(vec)) + 1
        if top > met:
            for row in self.ideal_rows(range(met, top)):
                self._reducer.add(row)
        return self._reducer.normal_form(vec)

    def combine(self, vec, products):
        """vec + the sum of factor * v over (factor, v, top) in products,
        reduced modulo I; a product of terms is one key addition.

        Each factor is a homogeneous packed polynomial in position 0, and top
        bounds the degree of the terms of its v; raises before a product term
        would leave the packed fields.
        """
        ctx, p = self._ctx, self.characteristic
        acc = dict(vec)
        for factor, v, top in products:
            check_degree(top + ctx.mono_degree(next(iter(factor))))
            for kb, cb in factor.items():
                delta = kb - ctx.one
                for ka, ca in v.items():
                    key = ka + delta
                    acc[key] = acc.get(key, 0) + ca * cb
        return self.reduce_packed({k: c % p for k, c in acc.items() if c % p})

    def dimension(self):
        if self._dimension is None:
            self._dimension = staircase_dimension(self._lead_exps, self.nvars)
        return self._dimension

    def standard_monomials(self, degree):
        return standard_monomials(self._lead_exps, self.nvars, degree)

    def __eq__(self, other):
        return (isinstance(other, QuotientRingSpec)
                and self.ambient == other.ambient
                and self.ideal_basis == other.ideal_basis)

    def __hash__(self):
        return hash((self.ambient, tuple(self.ideal_basis)))

    def __repr__(self):
        if self.is_polynomial_ring():
            return repr(self.ambient)
        gens = ", ".join(str(g) for g in self.ideal_basis)
        return f"{self.ambient} / ({gens})"


# ---------------------------------------------------------------------------
# staircase combinatorics (monomial ideals)


def staircase_dimension(lead_exps, nv):
    """Krull dimension of S/L for the monomial ideal L = (lead_exps).

    Equals the largest size of a variable subset T such that no generator is
    supported entirely inside T.  Returns -1 when 1 is in L.
    """
    supports = [frozenset(i for i, e in enumerate(exp) if e) for exp in lead_exps]
    if any(not s for s in supports):
        return -1
    # size 0 always qualifies: every support is nonempty
    for size in range(nv, -1, -1):
        for subset in itertools.combinations(range(nv), size):
            tset = set(subset)
            if all(not s <= tset for s in supports):
                return size


def standard_monomials(lead_exps, nv, degree):
    """Degree-`degree` monomials not divisible by any of lead_exps."""
    out = []
    for exp in _compositions(degree, nv):
        if not any(all(e >= l for e, l in zip(exp, lead))
                   for lead in lead_exps):
            out.append(exp)
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def staircase_by_degree(lead_exps, nv):
    """Standard monomials of S/L, L = (lead_exps), counted by degree: a list
    whose entry t is the number in degree t, or None when S/L has infinite
    length, which is exactly when some variable has no pure power in L.

    Every standard monomial lies in the box below the pure-power bounds.
    """
    bounds = []
    for i in range(nv):
        pure = [exp[i] for exp in lead_exps if exp[i] and sum(exp) == exp[i]]
        if not pure:
            return None
        bounds.append(min(pure))
    counts = [0] * (sum(bounds) - nv + 1)
    for exp in itertools.product(*(range(b) for b in bounds)):
        if not any(all(e >= l for e, l in zip(exp, lead)) for lead in lead_exps):
            counts[sum(exp)] += 1
    return counts


# ---------------------------------------------------------------------------
# matrices over a quotient ring


class RingMatrix:
    """Sparse homogeneous matrix over a QuotientRingSpec.

    Column j is one packed vector of the free module R^nrows (position =
    row), reduced modulo the defining ideal in every position.  Entry (i, j),
    when nonzero, is homogeneous of degree col_degrees[j] - row_degrees[i].
    Polynomials meet the packed columns only at the constructor and at
    entry/entries.
    """

    def __init__(self, ring, nrows, ncols, entries, row_degrees, col_degrees):
        """entries: dict (i, j) -> Polynomial over the ambient ring."""
        if len(row_degrees) != nrows or len(col_degrees) != ncols:
            raise DimensionMismatchError("degree list lengths do not match extents")
        cols = [{} for _ in range(ncols)]
        for (i, j), poly in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise DimensionMismatchError(f"entry ({i},{j}) out of range")
            if poly.ring != ring.ambient:
                raise RingMismatchError("matrix entry outside the ambient ring")
            cols[j].update(_pack({i: poly}, ring._ctx))
        self._set(ring, [ring.reduce_packed(c) for c in cols], row_degrees,
                  col_degrees)

    @classmethod
    def packed(cls, ring, cols, row_degrees, col_degrees):
        """The matrix whose columns are the packed vectors `cols`, already
        reduced modulo the defining ideal."""
        mat = cls.__new__(cls)
        mat._set(ring, cols, row_degrees, col_degrees)
        return mat

    def _set(self, ring, cols, row_degrees, col_degrees):
        """Adopt `cols` after checking the position and degree of each key."""
        self.ring = ring
        self.row_degrees = tuple(row_degrees)
        self.col_degrees = tuple(col_degrees)
        self.nrows = len(self.row_degrees)
        self.ncols = len(self.col_degrees)
        if len(cols) != self.ncols:
            raise DimensionMismatchError("degree list lengths do not match extents")
        ctx = ring._ctx
        for j, col in enumerate(cols):
            for key in col:
                i = ctx.pos_of(key)
                if not 0 <= i < self.nrows:
                    raise DimensionMismatchError(f"entry ({i},{j}) out of range")
                want = self.col_degrees[j] - self.row_degrees[i]
                if ctx.mono_degree(key) != want:
                    raise NotHomogeneousError(
                        f"entry ({i},{j}) is not homogeneous of degree {want}")
        self.cols = cols

    @classmethod
    def from_columns(cls, ring, columns, row_degrees, col_degrees=None):
        """columns: list of lists of Polynomial (length nrows each)."""
        nrows = len(row_degrees)
        entries = {}
        degs = []
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise DimensionMismatchError("column length mismatch")
            cdeg = None
            for i, poly in enumerate(col):
                if poly.is_zero():
                    continue
                entries[(i, j)] = poly
                d = poly.degree() + row_degrees[i]
                if cdeg is None:
                    cdeg = d
            degs.append(cdeg)
        if col_degrees is None:
            # zero columns get degree 0 unless told otherwise
            col_degrees = [d if d is not None else 0 for d in degs]
        return cls(ring, nrows, len(columns), entries, row_degrees,
                   col_degrees)

    @classmethod
    def identity(cls, ring, degrees):
        one, move = ring._ctx.one, ring._ctx.move
        return cls.packed(ring, [{move(one, i): 1} for i in range(len(degrees))],
                          degrees, degrees)

    @classmethod
    def zero(cls, ring, row_degrees, col_degrees):
        return cls.packed(ring, [{} for _ in col_degrees], row_degrees,
                          col_degrees)

    @property
    def entries(self):
        """dict (i, j) -> nonzero Polynomial entry."""
        ctx, ambient = self.ring._ctx, self.ring.ambient
        return {(i, j): _poly(vec, ctx, ambient)
                for j, col in enumerate(self.cols)
                for i, vec in sorted(ctx.split_by_position(col).items())}

    def entry(self, i, j):
        ctx = self.ring._ctx
        return _poly({k: c for k, c in self.cols[j].items()
                      if ctx.pos_of(k) == i}, ctx, self.ring.ambient)

    def is_zero(self):
        return not any(self.cols)

    def compose(self, other):
        """self @ other: column j is the sum over k of other[k, j] times
        column k of self, one key addition per product of terms, reduced
        modulo the defining ideal once."""
        if other.ring != self.ring:
            raise RingMismatchError("matrices over different rings")
        if other.nrows != self.ncols:
            raise DimensionMismatchError(
                f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        ring = self.ring
        low = min(self.row_degrees, default=0)
        out = [ring.combine({}, [(factor, self.cols[k], self.col_degrees[k] - low)
                                 for k, factor in
                                 ring._ctx.split_by_position(col).items()
                                 if self.cols[k]])
               for col in other.cols]
        return RingMatrix.packed(ring, out, self.row_degrees, other.col_degrees)

    def __matmul__(self, other):
        return self.compose(other)

    def __neg__(self):
        p = self.ring.characteristic
        return RingMatrix.packed(
            self.ring, [{k: p - c for k, c in col.items()} for col in self.cols],
            self.row_degrees, self.col_degrees)

    def transpose(self):
        """Transpose; generator degrees flip sign to stay homogeneous."""
        ctx = self.ring._ctx
        cols = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for k, c in col.items():
                cols[ctx.pos_of(k)][ctx.move(k, j)] = c
        return RingMatrix.packed(self.ring, cols,
                                 [-d for d in self.col_degrees],
                                 [-d for d in self.row_degrees])

    def hstack(self, other):
        """[self | other]: same target, concatenated sources."""
        if other.nrows != self.nrows or other.row_degrees != self.row_degrees:
            raise DimensionMismatchError("hstack target mismatch")
        return RingMatrix.packed(self.ring, self.cols + other.cols,
                                 self.row_degrees,
                                 self.col_degrees + other.col_degrees)

    def submatrix(self, rows, cols):
        ctx = self.ring._ctx
        rows = list(rows)
        cols = list(cols)
        rmap = {r: i for i, r in enumerate(rows)}
        out = []
        for c in cols:
            vec = {}
            for k, v in self.cols[c].items():
                i = rmap.get(ctx.pos_of(k))
                if i is not None:
                    vec[ctx.move(k, i)] = v
            out.append(vec)
        return RingMatrix.packed(self.ring, out,
                                 [self.row_degrees[r] for r in rows],
                                 [self.col_degrees[c] for c in cols])

    def __eq__(self, other):
        return (isinstance(other, RingMatrix)
                and self.ring == other.ring
                and self.row_degrees == other.row_degrees
                and self.col_degrees == other.col_degrees
                and self.cols == other.cols)

    def __repr__(self):
        pos_of = self.ring._ctx.pos_of
        nonzero = sum(len({pos_of(k) for k in col}) for col in self.cols)
        return (f"<RingMatrix {self.nrows}x{self.ncols} over {self.ring}, "
                f"{nonzero} nonzero entries>")


# ---------------------------------------------------------------------------
# finitely presented modules


class FinitelyPresentedModule:
    """Cokernel presentation: R^{gens} / im(relations)."""

    def __init__(self, ring, gen_degrees, relations=None):
        self.ring = ring
        self.gen_degrees = tuple(gen_degrees)
        if relations is None:
            relations = RingMatrix.zero(ring, self.gen_degrees, ())
        if relations.nrows != len(self.gen_degrees) or \
                relations.row_degrees != self.gen_degrees:
            raise DimensionMismatchError("relations do not match generators")
        self.relations = relations
        self._lead_cache = None
        self._count_cache = None

    def _initial_leads(self):
        """Per-position leading exponents of relations + I * generators.

        The leads of the Buchberger store are those of the reduced basis, so
        no interreduction is run.
        """
        if self._lead_cache is None:
            ring = self.ring
            cols, ideal_rows = _packed_columns(self.relations)
            leads = {pos: [] for pos in range(len(self.gen_degrees))}
            if any(cols) or ideal_rows:
                store = buchberger(cols + ideal_rows, ring._ctx,
                                   ring.characteristic, self.gen_degrees)
                exp_of = ring._ctx.exp_of
                for pos, entries in store.by_pos.items():
                    leads[pos] = [exp_of(e[1]) for e in entries]
            self._lead_cache = leads
        return self._lead_cache

    def is_zero(self):
        return self.length() == 0

    def _graded_counts(self):
        """Dict internal degree -> GF(p)-dimension, or INFINITE; counted once
        per module and kept beside its leads."""
        if self._count_cache is None:
            leads = self._initial_leads() if self.gen_degrees else {}
            out = {}
            for pos, base in enumerate(self.gen_degrees):
                exps = leads[pos]
                if any(not any(exp) for exp in exps):
                    continue  # generator dies entirely
                counts = staircase_by_degree(exps, self.ring.nvars)
                if counts is None:
                    out = INFINITE
                    break
                for t, n in enumerate(counts):
                    if n:
                        out[base + t] = out.get(base + t, 0) + n
            self._count_cache = out
        return self._count_cache

    def length(self):
        """Vector-space dimension over GF(p), or INFINITE if dim > 0."""
        counts = self._graded_counts()
        return INFINITE if counts is INFINITE else sum(counts.values())

    def graded_length(self):
        """Dict internal degree -> GF(p)-dimension (finite length only)."""
        counts = self._graded_counts()
        if counts is INFINITE:
            raise AlgebraError("graded length of an infinite-length module")
        return dict(counts)

    def __repr__(self):
        return (f"<FP module: {len(self.gen_degrees)} generators, "
                f"{self.relations.ncols} relations over {self.ring}>")


# ---------------------------------------------------------------------------
# syzygies and linear solving over R


def _packed_columns(matrix):
    """(columns, ideal rows): copies of the packed columns of a matrix over
    R, and g * e_i for every defining-ideal basis element g and every row i."""
    return ([dict(col) for col in matrix.cols],
            matrix.ring.ideal_rows(range(matrix.nrows)))


class ExtendedSolver:
    """Tagged-module Groebner machinery for one matrix over R.

    Computes, once, a position-over-term Groebner basis of the submodule of
    S^{nrows+ncols} generated by {column_j + e_{nrows+j}} and {g * e_i} for
    every defining-ideal basis element g and target position i, and keeps
    the reducer that holds it, `store`.  Syzygies and membership/solve
    queries both read off this one store.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        ring = matrix.ring
        self.ring = ring
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        ctx = self.ctx = ring._ctx
        self.p = ring.characteristic
        self.gendegs = matrix.row_degrees + matrix.col_degrees
        cols, ideal_rows = _packed_columns(matrix)
        for j, packed in enumerate(cols):
            packed[ctx.move(ctx.one, self.nrows + j)] = 1
        self.store = groebner_basis(cols + ideal_rows, ctx, self.p,
                                    self.gendegs)
        self.floor = ctx.position_floor(self.nrows)
        # moves the tag position nrows + j to row j of the source
        self._untag = ctx.position_shift(self.nrows)

    def syzygy_matrix(self):
        """Columns generate ker(matrix) as a submodule of R^{ncols}: the
        basis entries led in the tag block, by degree and lead key."""
        mono_degree = self.ctx.mono_degree
        pure = []  # (degree, lead key, terms)
        for pos, entries in self.store.by_pos.items():
            if pos < self.nrows:
                continue  # leading block nonzero: not a pure syzygy
            for _, lead, _, items in entries:
                pure.append((mono_degree(lead) + self.gendegs[pos], lead,
                             items))
        pure.sort(key=lambda t: t[:2])
        cols, degs = [], []
        for deg, _, items in pure:
            col = self.ring.reduce_packed(
                {k + self._untag: c for k, c in items})
            if col:
                cols.append(col)
                degs.append(deg)
        return RingMatrix.packed(self.ring, cols, self.matrix.col_degrees, degs)

    def solve_column(self, col):
        """x with matrix @ x = col over R, or None if col is not in the image.

        col and x are packed vectors (position = row).
        """
        nf = self.store.normal_form(col, stopkey=self.floor)
        if nf and max(nf) >= self.floor:
            return None  # a leading-block remainder survives
        p = self.p
        return self.ring.reduce_packed(
            {k + self._untag: p - c for k, c in nf.items()})

    def solve(self, b):
        """X with matrix @ X = b over R, or None if some column of b is not
        in the image."""
        if b.nrows != self.nrows or b.row_degrees != self.matrix.row_degrees:
            raise DimensionMismatchError("right-hand side target mismatch")
        cols = []
        for col in b.cols:
            x = self.solve_column(col)
            if x is None:
                return None
            cols.append(x)
        return RingMatrix.packed(self.ring, cols, self.matrix.col_degrees,
                                 b.col_degrees)


def syzygies(matrix):
    """Generators of the kernel of a homogeneous matrix over R, as columns."""
    return ExtendedSolver(matrix).syzygy_matrix()


def matrix_solve(a, b):
    """Solve a @ X = b over R; returns a RingMatrix X or None."""
    return ExtendedSolver(a).solve(b)
