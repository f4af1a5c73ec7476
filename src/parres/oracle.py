"""Degreewise linear-algebra cross-checks over GF(p).

Everything here works one internal degree at a time: fix a degree t, take the
standard-monomial basis of each graded piece, turn ring-linear maps into
sparse GF(p) vectors, and answer rank/kernel/homology questions with exact
Gaussian elimination in Python integers.  This is the independent back-end
used to validate the symbolic (Groebner-based) computations; it shares only
the packed monomial shift (a key addition) and the normal form modulo the
defining ideal.  Its slice and rank also give `resolutions.betti_table`'s
last row, so that row's independent check reads raw syzygies instead.

A basis is a list of packed keys, each of which holds its free-module
position.  A slice is a list of sparse vectors, one per source basis
element: dicts {target index: value in (0, p)} that store no zero.
matrix_slice reduces mod p each column coefficient once per call, and
after that only where two terms meet in one row or a coefficient meets a
normal-form coefficient.  gf_rank takes any integer entries and reduces
them itself.
"""

from __future__ import annotations

from .algebra import check_degree


def gf_rank(vectors, p):
    """Rank over GF(p) of an iterable of sparse vectors {index: integer}.

    Every entry is reduced mod p on entry, so one that is 0 mod p is never
    a pivot; the vectors given are left as they are.  Elimination is exact
    in Python integers, for any prime p.  The shortest vectors go first,
    and each one is reduced on its smallest index until that index has no
    pivot: there it becomes a pivot, stored monic and without its pivot
    entry.  Every other index of a pivot vector is larger than its pivot,
    so a reduction only fills in larger indices and ends.
    """
    rows = []
    for v in vectors:
        row = {i: r for i, c in v.items() if (r := c % p)}
        if row:
            rows.append(row)
    rows.sort(key=len)
    pivots = {}
    for row in rows:
        while row:
            j = min(row)
            c = row.pop(j)
            tail = pivots.get(j)
            if tail is None:
                if row:
                    inv = pow(c, -1, p)
                    row = {i: x * inv % p for i, x in row.items()}
                pivots[j] = row
                break
            for i, d in tail.items():
                x = (row.get(i, 0) - c * d) % p
                if x:
                    row[i] = x
                else:
                    del row[i]
    return len(pivots)


def free_basis(ring, gen_degrees, degree):
    """Basis of the degree-`degree` piece of the graded free module R(gens):
    the packed keys of its elements, read in one walk over the ring's
    packed staircases."""
    keys = []
    for pos, d in enumerate(gen_degrees):
        shift = ring._ctx.position_shift(pos)
        keys += [key - shift for key in ring.packed_staircase(degree - d)]
    return keys


def matrix_slice(matrix, degree):
    """A RingMatrix on the degree-`degree` graded pieces, over GF(p).

    Returns (columns, target keys, source keys): one sparse vector per
    source basis element, {target basis index: value in (0, p)}, with no
    zero stored, and the packed keys of the two bases, from the ring's
    tables.  The first source element in a position takes that column's
    terms less the key of 1 there, with coefficients reduced mod p; a
    monomial multiple of the column is then one key addition per term.  A
    standard term goes to its own row, and a term c k that leaves the
    staircase adds c times the normal form of k, which the ring keeps per
    monomial, so no monomial is reduced twice (the normal form is linear).
    A row's first value is stored as it is; a second one to the same row,
    or a product with a form coefficient, is reduced mod p.
    """
    ring = matrix.ring
    ctx = ring._ctx
    tgt = free_basis(ring, matrix.row_degrees, degree)
    src = free_basis(ring, matrix.col_degrees, degree)
    if not (tgt and src):
        return [{} for _ in src], tgt, src
    # every product below has degree at most degree - min(row degrees)
    check_degree(degree - min(matrix.row_degrees))
    row_of = dict(zip(tgt, range(len(tgt))))
    p = ring.characteristic
    forms, form, mask = ring._monomial_forms, ring.monomial_form, ctx.monomask
    topshift = ctx.topshift
    columns = []
    last = None
    for src_key in src:
        pos = -(src_key >> topshift)
        if pos != last:
            # the column's terms less the key of 1 in position pos: adding
            # a source key there multiplies the column by its monomial
            unit = ctx.move(ctx.one, pos)
            terms = [(k - unit, c % p) for k, c in matrix.cols[pos].items()]
            last = pos
        col = {}
        for t, c in terms:
            key = t + src_key
            row = row_of.get(key)
            if row is not None:
                x = col.get(row)
                col[row] = c if x is None else (x + c) % p
                continue
            # the term left the staircase: add its monomial's normal form,
            # moved to the term's position
            base = key & mask
            nf = forms.get(base)
            if nf is None:
                nf = form(base)
            off = key - base
            for tk, tc in nf:
                row = row_of[tk + off]
                x = col.get(row)
                col[row] = c * tc % p if x is None else (x + c * tc) % p
        # a zero is left only where values cancel or a coefficient is 0 mod p
        if 0 in col.values():
            col = {row: c for row, c in col.items() if c}
        columns.append(col)
    return columns, tgt, src


def module_dim_at(module, degree):
    """GF(p)-dimension of one graded piece of a finitely presented module:
    the size of the target basis of the relation slice less its rank."""
    rel, tgt, _ = matrix_slice(module.relations, degree)
    return len(tgt) - gf_rank(rel, module.ring.characteristic)


def module_length_upto(module, max_degree):
    """Sum of graded dimensions from the lowest generator degree up to
    max_degree."""
    return sum(module_dim_at(module, t)
               for t in range(min(module.gen_degrees, default=0),
                              max_degree + 1))


def homology_dim_at(cplx, n, degree):
    """dim over GF(p) of the degree-`degree` piece of H_n of a chain complex:
    the size of the source basis of the slice of d_n less the ranks of d_n
    and d_{n+1}."""
    p = cplx.ring.characteristic
    a, _, src = matrix_slice(cplx.differential(n), degree)
    if not src:
        return 0
    b, _, _ = matrix_slice(cplx.differential(n + 1), degree)
    return len(src) - gf_rank(a, p) - gf_rank(b, p)
