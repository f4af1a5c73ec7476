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
from ._engine import PackContext, groebner_basis, make_reducer

# returned by length() for modules of positive dimension
INFINITE = Sentinel("INFINITE")


def _lazy_reducer(ctx, p, basis):
    """A function returning a reducer over the packed vectors of `basis`.

    The reducer is built on the first call and reused: the basis is fixed
    and normal_form never modifies the reducer.
    """
    red = None

    def reducer():
        nonlocal red
        if red is None:
            red = make_reducer(ctx, p)
            for vec in basis:
                red.add(vec)
        return red

    return reducer


# ---------------------------------------------------------------------------
# conversions between Polynomials and packed vectors


def _pack(col, ctx):
    """Packed vector of a sparse column {position: Polynomial}."""
    return {ctx.pack(pos, exp): c
            for pos, poly in col.items() for exp, c in poly.terms.items()}


def _poly(vec, ctx, ambient, sign):
    """Polynomial over `ambient` of a packed vector supported in position 0,
    its coefficients multiplied by sign."""
    return Polynomial(ambient, {ctx.exp_of(k): sign * c
                                for k, c in vec.items()})


def packed_to_vector(packed, ctx, ring, rank):
    cols = [dict() for _ in range(rank)]
    for key, c in packed.items():
        pos, exp = ctx.unpack(key)
        if pos >= rank:
            raise AlgebraError("packed term outside the stated rank")
        cols[pos][exp] = c
    return [Polynomial(ring, t) for t in cols]


# ---------------------------------------------------------------------------
# quotient rings


class QuotientRingSpec:
    """R = S/I for a homogeneous ideal I in a polynomial ring S.

    The ring owns I: its packing context `_ctx`, the packed reduced Groebner
    basis `_basis` with a lazily built reducer, and `ideal_basis`, the same
    basis as Polynomials (monic, tail-reduced, sorted by degree and lead).
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
        self._basis = (groebner_basis([_pack({0: g}, ctx) for g in gens], ctx,
                                      p, (0,), module_rank=1)
                       if gens else [])
        self._reducer = _lazy_reducer(ctx, p, self._basis)
        self.ideal_basis = [_poly(v, ctx, ambient, 1) for v in self._basis]
        self._lead_exps = [ctx.exp_of(max(v)) for v in self._basis]
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
        nf = self._reducer().normal_form(_pack({0: f}, self._ctx))
        return _poly(nf, self._ctx, self.ambient, 1)

    def reduce_packed(self, vec):
        """Normal form modulo I of a packed vector supported in position 0."""
        if not self._basis:
            return vec
        return self._reducer().normal_form(vec)

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

    Entry (i, j), when nonzero, is homogeneous of degree
    col_degrees[j] - row_degrees[i].  Entries are stored reduced modulo the
    defining ideal.
    """

    def __init__(self, ring, nrows, ncols, entries, row_degrees, col_degrees,
                 _reduced=False):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.row_degrees = tuple(row_degrees)
        self.col_degrees = tuple(col_degrees)
        if len(self.row_degrees) != nrows or len(self.col_degrees) != ncols:
            raise DimensionMismatchError("degree list lengths do not match extents")
        clean = {}
        for (i, j), poly in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise DimensionMismatchError(f"entry ({i},{j}) out of range")
            if poly.ring != ring.ambient:
                raise RingMismatchError("matrix entry outside the ambient ring")
            if not _reduced:
                poly = ring.reduce(poly)
            if poly.is_zero():
                continue
            want = self.col_degrees[j] - self.row_degrees[i]
            if not poly.is_homogeneous() or poly.degree() != want:
                raise NotHomogeneousError(
                    f"entry ({i},{j}) = {poly} is not homogeneous of degree {want}")
            clean[(i, j)] = poly
        self.entries = clean

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
        n = len(degrees)
        one = ring.ambient.one()
        entries = {(i, i): one for i in range(n)}
        return cls(ring, n, n, entries, degrees, degrees, _reduced=True)

    @classmethod
    def zero(cls, ring, row_degrees, col_degrees):
        return cls(ring, len(row_degrees), len(col_degrees), {},
                   row_degrees, col_degrees, _reduced=True)

    def entry(self, i, j):
        poly = self.entries.get((i, j))
        return poly if poly is not None else self.ring.ambient.zero()

    def column(self, j):
        return [self.entry(i, j) for i in range(self.nrows)]

    def is_zero(self):
        return not self.entries

    def compose(self, other):
        """self @ other, reduced modulo the defining ideal."""
        if other.ring != self.ring:
            raise RingMismatchError("matrices over different rings")
        if other.nrows != self.ncols:
            raise DimensionMismatchError(
                f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        by_row = {}
        for (k, j), b in other.entries.items():
            by_row.setdefault(k, []).append((j, b))
        acc = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                prod = a * b
                if (i, j) in acc:
                    acc[(i, j)] = acc[(i, j)] + prod
                else:
                    acc[(i, j)] = prod
        return RingMatrix(self.ring, self.nrows, other.ncols, acc,
                          self.row_degrees, other.col_degrees)

    def __matmul__(self, other):
        return self.compose(other)

    def scale(self, c):
        entries = {k: v.scale(c) for k, v in self.entries.items()}
        return RingMatrix(self.ring, self.nrows, self.ncols, entries,
                          self.row_degrees, self.col_degrees, _reduced=True)

    def __neg__(self):
        return self.scale(-1)

    def __add__(self, other):
        if (other.nrows, other.ncols) != (self.nrows, self.ncols):
            raise DimensionMismatchError("matrix shapes differ")
        acc = dict(self.entries)
        for k, v in other.entries.items():
            acc[k] = acc[k] + v if k in acc else v
        return RingMatrix(self.ring, self.nrows, self.ncols, acc,
                          self.row_degrees, self.col_degrees)

    def __sub__(self, other):
        return self + (-other)

    def transpose(self):
        """Transpose; generator degrees flip sign to stay homogeneous."""
        entries = {(j, i): v for (i, j), v in self.entries.items()}
        return RingMatrix(self.ring, self.ncols, self.nrows, entries,
                          [-d for d in self.col_degrees],
                          [-d for d in self.row_degrees], _reduced=True)

    def hstack(self, other):
        """[self | other]: same target, concatenated sources."""
        if other.nrows != self.nrows or other.row_degrees != self.row_degrees:
            raise DimensionMismatchError("hstack target mismatch")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.ncols)] = v
        return RingMatrix(self.ring, self.nrows, self.ncols + other.ncols,
                          entries, self.row_degrees,
                          self.col_degrees + other.col_degrees, _reduced=True)

    def submatrix(self, rows, cols):
        rows = list(rows)
        cols = list(cols)
        rmap = {r: i for i, r in enumerate(rows)}
        cmap = {c: j for j, c in enumerate(cols)}
        entries = {}
        for (i, j), v in self.entries.items():
            if i in rmap and j in cmap:
                entries[(rmap[i], cmap[j])] = v
        return RingMatrix(self.ring, len(rows), len(cols), entries,
                          [self.row_degrees[r] for r in rows],
                          [self.col_degrees[c] for c in cols], _reduced=True)

    def __eq__(self, other):
        return (isinstance(other, RingMatrix)
                and self.ring == other.ring
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.row_degrees == other.row_degrees
                and self.col_degrees == other.col_degrees
                and self.entries == other.entries)

    def __repr__(self):
        return (f"<RingMatrix {self.nrows}x{self.ncols} over {self.ring}, "
                f"{len(self.entries)} nonzero entries>")

    def pretty(self):
        rows = []
        for i in range(self.nrows):
            rows.append("[" + ", ".join(str(self.entry(i, j))
                                        for j in range(self.ncols)) + "]")
        return "\n".join(rows)


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
        """Per-position leading exponents of relations + I * generators."""
        if self._lead_cache is None:
            ring = self.ring
            rank = len(self.gen_degrees)
            ctx = ring._ctx
            cols, ideal_rows = _packed_columns(self.relations)
            leads = {pos: [] for pos in range(rank)}
            if any(cols) or ideal_rows:
                gb = groebner_basis(cols + ideal_rows, ctx,
                                    ring.characteristic, self.gen_degrees,
                                    module_rank=rank)
                for v in gb:
                    pos, exp = ctx.unpack(max(v))
                    leads[pos].append(exp)
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


def _sparse_columns(matrix):
    """The columns of a matrix as dicts row -> nonzero Polynomial."""
    cols = [{} for _ in range(matrix.ncols)]
    for (i, j), poly in matrix.entries.items():
        cols[j][i] = poly
    return cols


def _packed_columns(matrix):
    """(columns, ideal rows): the packed columns of a matrix over R, and
    g * e_i for every defining-ideal basis element g and every row i."""
    ring = matrix.ring
    cols = [_pack(col, ring._ctx) for col in _sparse_columns(matrix)]
    ideal_rows = [_pack({i: g}, ring._ctx) for g in ring.ideal_basis
                  for i in range(matrix.nrows)]
    return cols, ideal_rows


class ExtendedSolver:
    """Tagged-module Groebner machinery for one matrix over R.

    Computes, once, a position-over-term Groebner basis of the submodule of
    S^{nrows+ncols} generated by {column_j + e_{nrows+j}} and {g * e_i} for
    every defining-ideal basis element g and target position i.  Syzygies and
    membership/solve queries both read off this basis.
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
        unit = (0,) * ring.nvars
        for j, packed in enumerate(cols):
            packed[ctx.pack(self.nrows + j, unit)] = 1
        self.gb = groebner_basis(cols + ideal_rows, ctx, self.p, self.gendegs,
                                 module_rank=self.nrows + self.ncols)
        self.floor = ctx.position_floor(self.nrows)
        self._reducer = _lazy_reducer(ctx, self.p, self.gb)

    def _entries_by_row(self, packed, sign):
        """Sparse column {row: Polynomial} of a vector in the tag block.

        Terms are grouped by tag position; each group is moved to position 0,
        reduced modulo the defining ideal in packed form and, if nonzero,
        becomes the entry in row (position - nrows), its coefficients
        multiplied by sign.
        """
        groups = self.ctx.split_by_position(packed)
        col = {}
        for pos in sorted(groups):
            nf = self.ring.reduce_packed(groups[pos])
            if nf:
                col[pos - self.nrows] = _poly(nf, self.ctx, self.ring.ambient,
                                              sign)
        return col

    def syzygy_matrix(self):
        """Columns generate ker(matrix) as a submodule of R^{ncols}."""
        ctx = self.ctx
        entries = {}
        degs = []
        for v in self.gb:
            lead = max(v)
            if lead >= self.floor:
                continue  # leading block nonzero: not a pure syzygy
            col = self._entries_by_row(v, 1)
            if not col:
                continue
            j = len(degs)
            for i, poly in col.items():
                entries[(i, j)] = poly
            pos = ctx.pos_of(lead) - self.nrows
            degs.append(ctx.mono_degree(lead) + self.matrix.col_degrees[pos])
        return RingMatrix(self.ring, self.ncols, len(degs), entries,
                          self.matrix.col_degrees, degs, _reduced=True)

    def solve_column(self, col):
        """x with matrix @ x = col over R, or None if col is not in the image.

        col and x are sparse columns: dicts row -> nonzero Polynomial.
        """
        nf = self._reducer().normal_form(_pack(col, self.ctx),
                                         stopkey=self.floor)
        if nf and max(nf) >= self.floor:
            return None  # a leading-block remainder survives
        return self._entries_by_row(nf, -1)


def syzygies(matrix):
    """Generators of the kernel of a homogeneous matrix over R, as columns."""
    return ExtendedSolver(matrix).syzygy_matrix()


def matrix_solve(a, b, solver=None):
    """Solve a @ X = b over R; returns a RingMatrix X or None.

    b may share a solver built earlier for `a` (pass solver= to reuse the
    Groebner basis across many right-hand sides).
    """
    if solver is None:
        solver = ExtendedSolver(a)
    if b.nrows != a.nrows or b.row_degrees != a.row_degrees:
        raise DimensionMismatchError("right-hand side target mismatch")
    entries = {}
    for j, col in enumerate(_sparse_columns(b)):
        x = solver.solve_column(col)
        if x is None:
            return None
        for i, poly in x.items():
            entries[(i, j)] = poly
    return RingMatrix(a.ring, a.ncols, b.ncols, entries, a.col_degrees,
                      b.col_degrees, _reduced=True)
