"""Groebner bases, quotient rings, matrices over them, syzygies, Hilbert
series, dimension, length.

All computations over a quotient ring R = S/I are done by lifting to the
ambient polynomial ring S.  Kernels and membership questions in free modules
over R are answered with an extended free module carrying one tag position per
source generator: a position-over-term Groebner basis is computed with I
times each generator, target and tag alike, implicit in the reducer (see
`_engine`), and elements supported purely on the tag block are read off
by untagging them.  Every stored term is already standard modulo I, so the
read-off reduces nothing; `QuotientRingSpec.reduce_packed` serves the
packed vectors that come in from outside a computation: parsed or built
sequence elements and the columns of `RingMatrix.from_columns`.
"""

from __future__ import annotations

from itertools import accumulate
from operator import le

from .algebra import (EXP_MASK, MAX_DEGREE, AlgebraError,
                      DimensionMismatchError, NotHomogeneousError,
                      RingMismatchError, Sentinel, check_degree)
from ._engine import buchberger, groebner_basis

# returned by length() for modules of positive dimension
INFINITE = Sentinel("INFINITE")


# ---------------------------------------------------------------------------
# quotient rings


class QuotientRingSpec:
    """R = S/I for a homogeneous ideal I in a polynomial ring S, given by
    packed position-0 generators in the packing context of S, which R
    shares as `_ctx`.

    The ring owns I: `_reducer`, the Buchberger store of I's reduced
    Groebner basis, in position 0 only, and empty when I = 0 (every
    monomial is then standard).  Its entries are the basis `_basis` (monic,
    tail-reduced, sorted by degree and lead), seen as Polynomials in
    `ideal_basis`.

    Two tables depend on I alone, which never changes after set-up, and
    are filled as they are met: the position-0 keys of the standard
    monomials of each degree, and the normal form of each position-0
    monomial (True for a standard one).  Every reduction modulo
    I, in any free-module position, reads the last table, and only
    `monomial_form` fills it, so each monomial is reduced once per ring:
    `products` (the kernel of every matrix product and of
    `reduce_packed`, for each product term as the term is made) and a
    Buchberger run over R, for each term it meets in any position, read
    the table and go to `monomial_form` on a miss.
    """

    def __init__(self, ambient, ideal_generators):
        self.ambient = ambient
        ctx = self._ctx = ambient._ctx
        gens = [g for g in ideal_generators if g]
        for g in gens:
            degs = {ctx.mono_degree(k) for k in g}
            if len(degs) > 1:
                raise NotHomogeneousError("inhomogeneous ideal generator "
                                          f"{ambient.polynomial(g)}")
            if not degs.pop():
                raise AlgebraError("defining ideal contains a unit")
        self._reducer = groebner_basis(gens, ctx, ambient.characteristic,
                                       (0,), 1, None)
        self._basis = self._reducer.by_pos.get(0, [])
        self.ideal_basis = [ambient.polynomial(dict(items))
                            for *_, items in self._basis]
        self._lead_exps = [ctx.exp_of(lead) for _, lead, _, _ in self._basis]
        self._numerator = None
        self._dimension = None
        self._staircases = {}
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
        """Canonical representative of the Polynomial f in R (normal form
        modulo I)."""
        return self.ambient.polynomial(
            self.reduce_packed(self.ambient.packed(f)))

    def reduce_packed(self, vec):
        """Normal form modulo I of a packed vector, in every position: vec,
        as the one column of a left factor, times 1, so `products` reduces
        each term through the monomial-form table."""
        return self.products({0: vec}, [{self._ctx.one: 1}], None)[0]

    def monomial_form(self, key):
        """Normal form modulo I of the position-0 monomial `key`, kept per
        monomial: True when the monomial is standard (its own normal form),
        else a tuple of (key, coefficient) pairs.

        The one reduction of a monomial modulo I and the one writer of the
        table: on a miss, a monomial that no lead word of I divides is
        standard, and any other takes one `normal_form` call."""
        form = self._monomial_forms.get(key)
        if form is None:
            guard = self._ctx.guard
            word = self._ctx.word(key) | guard
            form = self._monomial_forms[key] = (
                tuple(self._reducer.normal_form({key: 1}).items())
                if any((word - w) & guard == guard for w, *_ in self._basis)
                else True)
        return form

    def products(self, left, right, starts):
        """The packed columns sum_k right[j][k] * left[k] (+ starts[j]), each
        reduced modulo I: the product-and-reduce kernel of every matrix
        product.

        left: dict k -> column k of the left factor.  For each term c*m*e_k
        of right[j] the kernel adds c*m times left[k], one key addition per
        product of terms, and sends each product term straight through the
        monomial-form table.  starts is None or one packed column per right
        column, already reduced, added as it is; a column with no product
        is its start (or {}).
        Raises before a product term would leave the packed fields: the
        top monomial degree of each left column is taken once per call.
        """
        ctx, p = self._ctx, self.characteristic
        topshift, degshift, mask, one = (ctx.topshift, ctx.degshift,
                                         ctx.monomask, ctx.one)
        dmask = EXP_MASK << degshift
        forms = self._monomial_forms
        tops = {}  # k -> the top monomial degree of left[k]
        out = []
        for j, col in enumerate(right):
            acc = None
            for kb, cb in col.items():
                pos = -(kb >> topshift)
                a = left.get(pos)
                if a is None:
                    continue
                top = tops.get(pos)
                if top is None:
                    top = tops[pos] = max((k & dmask for k in a),
                                          default=0) >> degshift
                deg = top + ((kb >> degshift) & EXP_MASK)
                if deg > MAX_DEGREE:
                    check_degree(deg)  # raises
                if acc is None:
                    acc = {} if starts is None else dict(starts[j])
                delta = (kb & mask) - one
                for ka, ca in a.items():
                    key = ka + delta
                    base = key & mask
                    form = forms.get(base)
                    if form is None:
                        form = self.monomial_form(base)
                    if form is True:
                        acc[key] = acc.get(key, 0) + ca * cb
                        continue
                    shift = key - base
                    c = ca * cb
                    for tk, tc in form:
                        k = tk + shift
                        acc[k] = acc.get(k, 0) + c * tc
            if acc is None:
                out.append({} if starts is None else starts[j])
            else:
                out.append({k: r for k, c in acc.items() if (r := c % p)})
        return out

    def hilbert_numerator(self):
        """hilbert_numerator of the leads of I, a dict degree -> nonzero
        coefficient: the Hilbert series of R is numerator / (1-t)^nvars."""
        if self._numerator is None:
            self._numerator = hilbert_numerator(self._lead_exps)
        return self._numerator

    def dimension(self):
        """Krull dimension: the pole order of the Hilbert series at t = 1."""
        if self._dimension is None:
            self._dimension = pole_order(self.hilbert_numerator(), self.nvars)
        return self._dimension

    def packed_staircase(self, degree):
        """The packed position-0 keys of the degree-`degree` standard
        monomials, a tuple kept per degree: the leads of I never change
        after set-up."""
        if degree not in self._staircases:
            pack = self._ctx.pack
            self._staircases[degree] = tuple(
                pack(0, exp) for exp in
                standard_monomials(self._lead_exps, self.nvars, degree))
        return self._staircases[degree]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, QuotientRingSpec)
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
    """Dict degree -> nonzero coefficient of the numerator N of the Hilbert
    series N / (1-t)^n of S/L, for the monomial ideal L = (lead_exps) of
    S = k[x_1..x_n]; {} when 1 is in L.  N does not depend on n.

    Pivot recursion (Bayer-Stillman 1992, Bigatti 1997): with x_i^e not in
    L, the sequence 0 -> S/(L : x_i^e)(-e) -> S/L -> S/(L + x_i^e) -> 0 gives
    N(L) = N(L + x_i^e) + t^e N(L : x_i^e).  It ends at generators with
    pairwise coprime supports, where N is the product of the 1 - t^deg.
    """
    return {t: c for t, c in enumerate(_numerator(_minimal(lead_exps))) if c}


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
    """hilbert_numerator of the minimal generators gens, dense from t^0."""
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


def sum_numerators(terms):
    """The sum of sign * t^shift * numerator over the (sign, shift,
    numerator) terms, with no zero coefficient: the one place where
    Hilbert-series numerators are added."""
    out = {}
    for sign, shift, num in terms:
        for t, c in num.items():
            out[t + shift] = out.get(t + shift, 0) + sign * c
    return {t: c for t, c in out.items() if c}


def _divide_one_minus_t(coeffs):
    """The coefficients of coeffs / (1-t), or None when 1 - t does not
    divide it: the quotient's coefficients are the partial sums."""
    if sum(coeffs):
        return None
    return list(accumulate(coeffs[:-1]))


def _dense(numerator):
    """(low, coefficients from t^low) of a nonzero numerator."""
    low = min(numerator)
    coeffs = [0] * (max(numerator) + 1 - low)
    for d, c in numerator.items():
        coeffs[d - low] = c
    return low, coeffs


def pole_order(numerator, nv):
    """The order of the pole at t = 1 of numerator / (1-t)^nv, for a
    nonzero numerator: the Krull dimension of a module with that Hilbert
    series."""
    coeffs = _dense(numerator)[1]
    dim = nv
    while dim > 0 and (coeffs := _divide_one_minus_t(coeffs)):
        dim -= 1
    return dim


def series_counts(numerator, nv):
    """Dict degree -> coefficient of the Hilbert series numerator / (1-t)^nv,
    or INFINITE when the series is no polynomial, that is, the module has
    positive dimension."""
    if not numerator:
        return {}
    low, coeffs = _dense(numerator)
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
    Polynomials meet the packed columns only at `from_columns` and at
    entry/entries, through the ambient ring's `packed` and `polynomial`.
    """

    def __init__(self, ring, cols, row_degrees, col_degrees):
        """The matrix whose columns are the packed vectors `cols`, already
        reduced modulo the defining ideal; the position and degree of each
        key are checked."""
        self.ring = ring
        self.row_degrees = tuple(row_degrees)
        self.col_degrees = tuple(col_degrees)
        self.nrows = len(self.row_degrees)
        self.ncols = len(self.col_degrees)
        if len(cols) != self.ncols:
            raise DimensionMismatchError("degree list lengths do not match extents")
        topshift, degshift = ring._ctx.topshift, ring._ctx.degshift
        for j, col in enumerate(cols):
            for key in col:
                i = -(key >> topshift)
                if not 0 <= i < self.nrows:
                    raise DimensionMismatchError(f"entry ({i},{j}) out of range")
                want = self.col_degrees[j] - self.row_degrees[i]
                if (key >> degshift) & EXP_MASK != want:
                    raise NotHomogeneousError(
                        f"entry ({i},{j}) is not homogeneous of degree {want}")
        self.cols = cols

    @classmethod
    def from_columns(cls, ring, columns, row_degrees, col_degrees=None):
        """The one way from Polynomials into a matrix: columns is a list of
        lists of Polynomials over the ambient ring, one per row, each
        column packed and reduced modulo the defining ideal.  A column's
        degree defaults to that of its first nonzero entry, and to 0 for a
        zero column."""
        packed, move = ring.ambient.packed, ring._ctx.move
        cols, degs = [], []
        for col in columns:
            if len(col) != len(row_degrees):
                raise DimensionMismatchError("column length mismatch")
            cols.append(ring.reduce_packed({
                move(k, i): c for i, f in enumerate(col)
                for k, c in packed(f).items()}))
            degs.append(next((f.degree() + row_degrees[i]
                              for i, f in enumerate(col) if not f.is_zero()),
                             0))
        return cls(ring, cols, row_degrees,
                   degs if col_degrees is None else col_degrees)

    @classmethod
    def identity(cls, ring, degrees):
        one, move = ring._ctx.one, ring._ctx.move
        return cls(ring, [{move(one, i): 1} for i in range(len(degrees))],
                   degrees, degrees)

    @classmethod
    def zero(cls, ring, row_degrees, col_degrees):
        return cls(ring, [{} for _ in col_degrees], row_degrees, col_degrees)

    @property
    def entries(self):
        """dict (i, j) -> nonzero Polynomial entry."""
        ctx, polynomial = self.ring._ctx, self.ring.ambient.polynomial
        return {(i, j): polynomial(vec)
                for j, col in enumerate(self.cols)
                for i, vec in sorted(ctx.split_by_position(col).items())}

    def entry(self, i, j):
        pos_of = self.ring._ctx.pos_of
        return self.ring.ambient.polynomial(
            {k: c for k, c in self.cols[j].items() if pos_of(k) == i})

    def is_zero(self):
        return not any(self.cols)

    def __matmul__(self, other):
        """self @ other: column j is the sum over k of other[k, j] times
        column k of self, made by the ring's product-and-reduce kernel
        (`QuotientRingSpec.products`) in one call for all columns."""
        if other.ring != self.ring:
            raise RingMismatchError("matrices over different rings")
        if other.nrows != self.ncols:
            raise DimensionMismatchError(
                f"{self.nrows}x{self.ncols} times {other.nrows}x{other.ncols}")
        cols = self.ring.products(dict(enumerate(self.cols)), other.cols,
                                  None)
        return RingMatrix(self.ring, cols, self.row_degrees, other.col_degrees)

    def __neg__(self):
        p = self.ring.characteristic
        return RingMatrix(
            self.ring, [{k: p - c for k, c in col.items()} for col in self.cols],
            self.row_degrees, self.col_degrees)

    def transpose(self):
        """Transpose; generator degrees flip sign to stay homogeneous."""
        ctx = self.ring._ctx
        cols = [{} for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for k, c in col.items():
                cols[ctx.pos_of(k)][ctx.move(k, j)] = c
        return RingMatrix(self.ring, cols, [-d for d in self.col_degrees],
                          [-d for d in self.row_degrees])

    def hstack(self, other):
        """[self | other]: same target, concatenated sources."""
        if other.nrows != self.nrows or other.row_degrees != self.row_degrees:
            raise DimensionMismatchError("hstack target mismatch")
        return RingMatrix(self.ring, self.cols + other.cols, self.row_degrees,
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
        return RingMatrix(self.ring, out, [self.row_degrees[r] for r in rows],
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
        """Per-position leading exponents of relations + I * generators: the
        leads of the Buchberger store and I's own, which the store keeps
        implicit in every position.

        The store's leads are those of the reduced basis, so no
        interreduction is run.  A store lead may divide one of I's, so the
        leads of a position need not be minimal; hilbert_numerator
        minimizes them.
        """
        ring = self.ring
        store = buchberger(self.relations.cols, ring._ctx, ring.characteristic,
                           self.gen_degrees, len(self.gen_degrees), ring)
        exp_of = ring._ctx.exp_of
        leads = {pos: list(ring._lead_exps)
                 for pos in range(len(self.gen_degrees))}
        for pos, entries in store.by_pos.items():
            leads[pos] += [exp_of(e[1]) for e in entries]
        return leads

    def hilbert_numerator(self):
        """Dict degree -> nonzero coefficient of the numerator N of the
        Hilbert series N / (1-t)^nvars: the sum over the generators of the
        numerator of their position, shifted by their degree; computed once
        per module, from the leads of relations + I in each position."""
        if self._numerator is None:
            nums = [hilbert_numerator(exps)
                    for exps in self._initial_leads().values()]
            self._numerator = sum_numerators(
                (1, base, num) for base, num in zip(self.gen_degrees, nums))
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


class ExtendedSolver:
    """Tagged-module Groebner machinery for one matrix over R.

    Computes, once, a position-over-term Groebner basis of the submodule of
    S^{nrows+ncols} generated by {column_j + e_{nrows+j}} and {g * e_i} for
    every defining-ideal basis element g and target position i, in the
    leading block (positions < nrows), and keeps the reducer that holds it,
    `store`.  Only the tagged columns are passed: the store keeps g e_i
    implicit in every position, leading and tag block alike, reducing every
    term modulo I, and holds none of them.  No S-pair is formed in the tag
    block, so its entries generate the syzygies without forming a Groebner
    basis of them.  A syzygy the product criterion skips against some
    g e_i, and anything the reduction of a tag term modulo I removes, lies
    in I times the tag block, which is zero over R; the leading block is
    the one a reduction modulo I there alone would give (see `buchberger`).
    Syzygies and membership/solve queries both read off this one store,
    whose terms are all standard modulo I, so neither reduces again.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        ring = matrix.ring
        self.ring = ring
        self.nrows = matrix.nrows
        ctx = self.ctx = ring._ctx
        self.p = ring.characteristic
        self.gendegs = matrix.row_degrees + matrix.col_degrees
        cols = [{**col, ctx.move(ctx.one, self.nrows + j): 1}
                for j, col in enumerate(matrix.cols)]
        self.store = groebner_basis(cols, ctx, self.p, self.gendegs,
                                    self.nrows, ring)
        # moves the tag position nrows + j to row j of the source
        self._untag = ctx.position_shift(self.nrows)

    def syzygy_matrix(self):
        """Columns generate ker(matrix) as a submodule of R^{ncols}: the
        store entries led in the tag block, untagged, by degree and lead
        key.  Every stored term is standard modulo I, so each column is
        reduced and nonzero as read."""
        mono_degree = self.ctx.mono_degree
        untag = self._untag
        pure = []  # (degree, lead key, column)
        for pos, entries in self.store.by_pos.items():
            if pos < self.nrows:
                continue  # leading block nonzero: not a pure syzygy
            for _, lead, _, items in entries:
                pure.append((mono_degree(lead) + self.gendegs[pos], lead,
                             {k + untag: c for k, c in items}))
        pure.sort(key=lambda t: t[:2])
        return RingMatrix(self.ring, [col for *_, col in pure],
                          self.matrix.col_degrees, [deg for deg, *_ in pure])

    def solve_column(self, col):
        """x with matrix @ x = col over R, or None if col is not in the image.

        col and x are packed vectors (position = row): x is minus the
        untagged normal form of col, when that form lies in the tag block.
        col less that form lies in the store's module, whose elements are,
        over R, sums of a_j (column_j + e_{nrows+j}), so matrix @ x = col.
        """
        nf = self.store.normal_form(col)
        # the largest key has the lowest position
        if nf and self.ctx.pos_of(max(nf)) < self.nrows:
            return None  # a leading-block remainder survives
        p = self.p
        return {k + self._untag: p - c for k, c in nf.items()}

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
        return RingMatrix(self.ring, cols, self.matrix.col_degrees,
                          b.col_degrees)


def syzygies(matrix):
    """Generators of the kernel of a homogeneous matrix over R, as columns
    sorted by degree."""
    return ExtendedSolver(matrix).syzygy_matrix()


def matrix_solve(a, b):
    """Solve a @ X = b over R; returns a RingMatrix X or None."""
    return ExtendedSolver(a).solve(b)
