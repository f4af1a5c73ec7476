"""Groebner bases, quotient rings, matrices over them, syzygies, Hilbert
series, dimension, length.

All computations over a quotient ring R = S/I are done by lifting to the
ambient polynomial ring S.  Kernels and membership questions in free modules
over R are answered with an extended free module carrying one tag position per
source generator: the defining ideal times each target generator is thrown in,
a position-over-term Groebner basis is computed, and elements supported purely
on the tag block are read off.
"""

from __future__ import annotations

from itertools import accumulate
from operator import le

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
    Buchberger store of I's reduced Groebner basis, in position 0 only.
    Its entries are the basis `_basis` (monic, tail-reduced, sorted by
    degree and lead), seen as Polynomials in `ideal_basis`.

    Three tables depend on I alone, which never changes after set-up, and
    are filled as they are met: the standard monomials of each degree, the
    same paired with their position-0 keys, and the normal form of each
    position-0 monomial (True for a standard one).  Every reduction modulo
    I, in any free-module position, reads the last table, so each monomial
    is reduced once per ring.
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
                                        ctx, p, (0,), 1)
                         if gens else None)
        self._basis = self._reducer.by_pos[0] if gens else []
        self.ideal_basis = [_poly(dict(items), ctx, ambient)
                            for *_, items in self._basis]
        self._lead_exps = [ctx.exp_of(lead) for _, lead, _, _ in self._basis]
        self._numerator = None
        self._dimension = None
        self._staircases = {}
        self._packed_staircases = {}
        self._monomial_forms = {}

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
        """Normal form modulo I of a packed vector, in every position.

        I*F is reduced position by position and the normal form is linear,
        so each term c k adds c times the normal form of k's position-0
        monomial, moved back to k's position.
        """
        if not self._basis or not vec:
            return vec
        p = self.characteristic
        mask = self._ctx.monomask
        forms = self._monomial_forms
        out = {}
        for key, c in vec.items():
            base = key & mask
            form = forms.get(base)
            if form is None:
                form = self.monomial_form(base)
            if form is True:
                out[key] = out.get(key, 0) + c
                continue
            shift = key - base
            for tk, tc in form:
                k = tk + shift
                out[k] = out.get(k, 0) + c * tc
        return {k: c % p for k, c in out.items() if c % p}

    def monomial_form(self, key):
        """Normal form modulo I of the position-0 monomial `key`, kept per
        monomial: True when the monomial is standard (its own normal form),
        else a tuple of (key, coefficient) pairs."""
        form = self._monomial_forms.get(key)
        if form is None:
            nf = self._reducer.normal_form({key: 1})
            form = self._monomial_forms[key] = (
                True if key in nf else tuple(nf.items()))
        return form

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

    def hilbert_numerator(self):
        """hilbert_numerator of the leads of I: the Hilbert series of R is
        numerator / (1-t)^nvars."""
        if self._numerator is None:
            self._numerator = hilbert_numerator(self._lead_exps)
        return self._numerator

    def dimension(self):
        """Krull dimension: the pole order of the Hilbert series at t = 1,
        or -1 when 1 is in I."""
        if self._dimension is None:
            coeffs = self.hilbert_numerator()
            dim = self.nvars if any(coeffs) else -1
            while dim > 0 and (coeffs := _divide_one_minus_t(coeffs)):
                dim -= 1
            self._dimension = dim
        return self._dimension

    def standard_monomials(self, degree):
        """The degree-`degree` standard monomials, a tuple kept per degree:
        the leads of I never change after set-up."""
        if degree not in self._staircases:
            self._staircases[degree] = tuple(
                standard_monomials(self._lead_exps, self.nvars, degree))
        return self._staircases[degree]

    def packed_staircase(self, degree):
        """standard_monomials(degree) as (exp, key) pairs, key the packed
        position-0 monomial of exp, a tuple kept per degree."""
        if degree not in self._packed_staircases:
            pack = self._ctx.pack
            self._packed_staircases[degree] = tuple(
                (exp, pack(0, exp)) for exp in self.standard_monomials(degree))
        return self._packed_staircases[degree]

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
# staircases and Hilbert series of monomial ideals


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
        if total >= 0:
            yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def hilbert_numerator(lead_exps):
    """Coefficients, from t^0, of the numerator N of the Hilbert series
    N / (1-t)^n of S/L, for the monomial ideal L = (lead_exps) of
    S = k[x_1..x_n]; [] when 1 is in L.  N does not depend on n.

    Pivot recursion (Bayer-Stillman 1992, Bigatti 1997): with x_i^e not in
    L, the sequence 0 -> S/(L : x_i^e)(-e) -> S/L -> S/(L + x_i^e) -> 0 gives
    N(L) = N(L + x_i^e) + t^e N(L : x_i^e).  It ends at generators with
    pairwise coprime supports, where N is the product of the 1 - t^deg.
    """
    return _numerator(_minimal(lead_exps))


def _minimal(gens):
    """The minimal generators among the exponent tuples gens."""
    out = []
    for g in sorted(set(gens), key=sum):
        for h in out:
            if all(map(le, h, g)):
                break
        else:
            out.append(g)
    return out


def _numerator(gens):
    """hilbert_numerator of the minimal generators gens."""
    if not gens:
        return [1]
    if not any(gens[0]):
        return []  # the unit is the one minimal generator
    best = 0
    for j in range(len(gens[0])):
        held = 0
        for g in gens:
            if g[j]:
                held += 1
        if held > best:
            best, i = held, j
    if best < 2:  # pairwise coprime supports: multiply out the 1 - t^d
        degs = [sum(g) for g in gens]
        out = [1] + [0] * sum(degs)
        top = 0
        for d in degs:
            top += d
            for k in range(top, d - 1, -1):
                out[k] -= out[k - d]
        return out
    # the pivot exponent is a median over the generators that hold x_i and
    # are no pure power of it; a pure power x_i^c has c above all of them,
    # so x_i^e is not in L, and both branches lower the sum of the
    # generator degrees
    mixed = sorted(g[i] for g in gens if 0 < g[i] < sum(g))
    e = mixed[len(mixed) // 2]
    plus = [g for g in gens if g[i] < e]
    plus.append(tuple(e if j == i else 0 for j in range(len(gens[0]))))
    colon = _minimal([g[:i] + (g[i] - e if g[i] > e else 0,) + g[i + 1:]
                      for g in gens])
    out = _numerator(plus)
    shifted = _numerator(colon)  # added times t^e
    out += [0] * (len(shifted) + e - len(out))
    for k, c in enumerate(shifted):
        out[k + e] += c
    return out


def _divide_one_minus_t(coeffs):
    """The coefficients of coeffs / (1-t), or None when 1 - t does not
    divide it: the quotient's coefficients are the partial sums."""
    if sum(coeffs):
        return None
    return list(accumulate(coeffs[:-1]))


def series_counts(numerator, nv):
    """Dict degree -> coefficient of the Hilbert series numerator / (1-t)^nv,
    for a numerator given as a dict degree -> coefficient, or INFINITE when
    the series is no polynomial, that is, the module has positive
    dimension."""
    if nv and sum(numerator.values()):
        return INFINITE  # 1 - t does not divide it
    if not any(numerator.values()):
        return {}
    low = min(numerator)
    coeffs = [0] * (max(numerator) + 1 - low)
    for d, c in numerator.items():
        coeffs[d - low] = c
    for _ in range(nv):
        coeffs = _divide_one_minus_t(coeffs)
        if coeffs is None:
            return INFINITE
    return {low + t: c for t, c in enumerate(coeffs) if c}


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
        self._numerator = None

    def _initial_leads(self):
        """Per-position leading exponents of relations + I * generators.

        The leads of the Buchberger store are those of the reduced basis, so
        no interreduction is run.
        """
        ring = self.ring
        cols, ideal_rows = _packed_columns(self.relations)
        store = buchberger(cols + ideal_rows, ring._ctx, ring.characteristic,
                           self.gen_degrees, len(self.gen_degrees))
        exp_of = ring._ctx.exp_of
        leads = {pos: [] for pos in range(len(self.gen_degrees))}
        for pos, entries in store.by_pos.items():
            leads[pos] = [exp_of(e[1]) for e in entries]
        return leads

    def is_zero(self):
        return self.length() == 0

    def hilbert_numerator(self):
        """Dict degree -> coefficient of the numerator N of the Hilbert
        series N / (1-t)^nvars, summed over the generators; computed once
        per module.  A module with no relations takes the ring's numerator
        in every position, with no Groebner basis."""
        if self._numerator is None:
            if any(self.relations.cols):
                nums = [hilbert_numerator(exps)
                        for exps in self._initial_leads().values()]
            else:
                nums = [self.ring.hilbert_numerator()] * len(self.gen_degrees)
            out = {}
            for base, num in zip(self.gen_degrees, nums):
                for t, c in enumerate(num):
                    out[base + t] = out.get(base + t, 0) + c
            self._numerator = out
        return self._numerator

    def length(self):
        """Vector-space dimension over GF(p), or INFINITE if dim > 0."""
        counts = series_counts(self.hilbert_numerator(), self.ring.nvars)
        return INFINITE if counts is INFINITE else sum(counts.values())

    def graded_length(self):
        """Dict internal degree -> GF(p)-dimension (finite length only)."""
        counts = series_counts(self.hilbert_numerator(), self.ring.nvars)
        if counts is INFINITE:
            raise AlgebraError("graded length of an infinite-length module")
        return counts

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
    every defining-ideal basis element g and target position i, in the
    leading block (positions < nrows), and keeps the reducer that holds it,
    `store`.  No S-pair is formed in the tag block, so its entries generate
    the syzygies without forming a Groebner basis of them.  Syzygies and
    membership/solve queries both read off this one store.
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
                                    self.gendegs, self.nrows)
        self.floor = ctx.position_floor(self.nrows)
        # moves the tag position nrows + j to row j of the source
        self._untag = ctx.position_shift(self.nrows)

    def syzygy_matrix(self):
        """Columns generate ker(matrix) as a submodule of R^{ncols}: the
        store entries led in the tag block, by degree and lead key."""
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
