"""Degreewise linear-algebra cross-checks over GF(p).

Everything here works one internal degree at a time: fix a degree t, take the
standard-monomial basis of each graded piece, turn ring-linear maps into plain
GF(p) matrices, and answer rank/kernel/homology questions with Gaussian
elimination.  This is the independent back-end used to validate the symbolic
(Groebner-based) computations; it shares only the packed monomial shift (a
key addition) and the normal form modulo the defining ideal.
"""

from __future__ import annotations

import numpy as np

from ._engine import check_degree


def gf_rank(mat, p):
    """Rank of an integer matrix over GF(p), for p < 2^31.

    Works on a reduced copy, so the matrix it is given is left as it is.
    The degree slices are sparse, so lines with one nonzero entry are
    peeled first: a column whose only nonzero entry is in row i adds one to
    the rank, and goes with row i; rows are then peeled the same way, until
    no line has one entry.  Gaussian elimination runs on what is left,
    turned so that it has no more columns than rows, a column at a time:
    the pivot is the first row at or below the current rank that is nonzero
    in the column, and one outer-product update clears the other such rows
    on the later columns (the column itself is never read again).  Entries
    stay in [0, p), so every product is below 2^62 and int64 is exact.
    """
    a = np.asarray(mat, dtype=np.int64) % p
    if not a.size:
        return 0
    peeled = 0
    while True:
        by_col, a = _peel_singletons(a)
        by_row, a = _peel_singletons(a.T)
        peeled += by_col + by_row
        if not by_col + by_row:
            break
    if a.shape[0] < a.shape[1]:
        a = a.T
    rank = 0
    for j in range(a.shape[1]):
        hits = a[rank:, j].nonzero()[0]
        if not len(hits):
            continue
        piv = rank + hits[0]
        if len(hits) > 1:
            row = a[piv, j + 1:] * pow(int(a[piv, j]), p - 2, p) % p
            below = rank + hits[1:]
            a[below, j + 1:] = (a[below, j + 1:]
                                - a[below, j, None] * row) % p
        if piv != rank:
            # the rank row is zero in column j; it takes the pivot's slot
            a[piv, j + 1:] = a[rank, j + 1:]
        rank += 1
    return peeled + rank


def _peel_singletons(a):
    """(count, rest): the columns of a with one nonzero entry and the rows
    of those entries taken out, and zero columns dropped; count is the
    number of such rows, so rank a = count + rank rest."""
    if not a.size:
        return 0, a
    nonzero = a != 0
    per_col = np.count_nonzero(nonzero, axis=0)
    rows = np.zeros(a.shape[0], dtype=bool)
    rows[nonzero[:, per_col == 1].argmax(axis=0)] = True
    return int(np.count_nonzero(rows)), a[~rows][:, per_col > 1]


def free_basis(ring, gen_degrees, degree):
    """Basis of the degree-`degree` piece of the graded free module R(gens):
    (basis, keys), the (pos, exp) pairs and the packed key of each, read in
    one walk over the ring's packed staircases."""
    basis, keys = [], []
    for pos, d in enumerate(gen_degrees):
        stair = ring.packed_staircase(degree - d)
        shift = ring._ctx.position_shift(pos)
        basis += [(pos, exp) for exp, _ in stair]
        keys += [key - shift for _, key in stair]
    return basis, keys


def matrix_slice(matrix, degree):
    """The GF(p) matrix of a RingMatrix on the degree-`degree` graded pieces.

    Returns (numpy array, target basis, source basis); the array has one row
    per target basis element and one column per source basis element.  The
    bases and their keys come from the ring's tables.  In a monomial
    multiple of a column, a standard term goes to its own row, and a term
    c k that leaves the staircase adds c times the normal form of k, which
    the ring keeps per monomial, so no monomial is reduced twice (the
    normal form is linear).  The array is filled by one index assignment.
    """
    ring = matrix.ring
    ctx = ring._ctx
    tgt, tgt_keys = free_basis(ring, matrix.row_degrees, degree)
    src, src_keys = free_basis(ring, matrix.col_degrees, degree)
    a = np.zeros((len(tgt), len(src)), dtype=np.int64)
    if not (tgt and src):
        return a, tgt, src
    # every product below has degree at most degree - min(row degrees)
    check_degree(degree - min(matrix.row_degrees))
    row_of = {key: i for i, key in enumerate(tgt_keys)}
    # the key of 1 in each source position: a source key less it is the
    # packed exponent that multiplies the column
    units = [ctx.move(ctx.one, pos) for pos in range(len(matrix.cols))]
    p = ring.characteristic
    form, move = ring.monomial_form, ctx.move
    rows, cols, vals = [], [], []
    for jj, ((pos, _), src_key) in enumerate(zip(src, src_keys)):
        delta = src_key - units[pos]
        acc = {}
        for k, c in matrix.cols[pos].items():
            key = k + delta
            row = row_of.get(key)
            if row is not None:
                acc[row] = acc.get(row, 0) + c
                continue
            # the term left the staircase: add its monomial's normal form
            base = move(key, 0)
            for tk, tc in form(base):
                row = row_of[tk - base + key]
                acc[row] = acc.get(row, 0) + c * tc
        rows += acc
        cols += [jj] * len(acc)
        vals += [c % p for c in acc.values()]
    a[rows, cols] = vals
    return a, tgt, src


def module_dim_at(module, degree):
    """GF(p)-dimension of one graded piece of a finitely presented module:
    the rows of the relation slice less its rank."""
    rel, _, _ = matrix_slice(module.relations, degree)
    return rel.shape[0] - gf_rank(rel, module.ring.characteristic)


def module_length_upto(module, max_degree):
    """Sum of graded dimensions from the lowest generator degree up to
    max_degree."""
    return sum(module_dim_at(module, t)
               for t in range(min(module.gen_degrees, default=0),
                              max_degree + 1))


def homology_dim_at(cplx, n, degree):
    """dim over GF(p) of the degree-`degree` piece of H_n of a chain complex:
    the columns of the slice of d_n less the ranks of d_n and d_{n+1}."""
    p = cplx.ring.characteristic
    a, _, _ = matrix_slice(cplx.differential(n), degree)
    if not a.shape[1]:
        return 0
    b, _, _ = matrix_slice(cplx.differential(n + 1), degree)
    return a.shape[1] - gf_rank(a, p) - gf_rank(b, p)
