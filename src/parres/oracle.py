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
from .algebra import AlgebraError


def gf_rank(mat, p):
    """Rank of an integer matrix over GF(p)."""
    a = np.array(mat, dtype=np.int64) % p
    if a.size == 0:
        return 0
    rows, cols = a.shape
    rank = 0
    for j in range(cols):
        piv = None
        for i in range(rank, rows):
            if a[i, j]:
                piv = i
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, j]), p - 2, p)
        a[rank] = (a[rank] * inv) % p
        for i in range(rows):
            if i != rank and a[i, j]:
                a[i] = (a[i] - a[i, j] * a[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def ring_basis(ring, degree):
    """Standard monomials of R in one degree (basis of the graded piece)."""
    if degree < 0:
        return []
    return ring.standard_monomials(degree)


def free_basis(ring, gen_degrees, degree):
    """Basis of the degree-`degree` piece of the graded free module R(gens)."""
    out = []
    for pos, d in enumerate(gen_degrees):
        for exp in ring_basis(ring, degree - d):
            out.append((pos, exp))
    return out


def matrix_slice(matrix, degree):
    """The GF(p) matrix of a RingMatrix on the degree-`degree` graded pieces.

    Returns (numpy array, target basis, source basis); the array has one row
    per target basis element and one column per source basis element.
    """
    ring = matrix.ring
    ctx = ring._ctx
    tgt = free_basis(ring, matrix.row_degrees, degree)
    src = free_basis(ring, matrix.col_degrees, degree)
    a = np.zeros((len(tgt), len(src)), dtype=np.int64)
    if not (tgt and src):
        return a, tgt, src
    # every product below has degree at most degree - min(row degrees)
    check_degree(degree - min(matrix.row_degrees))
    tindex = {ctx.pack(pos, exp): i for i, (pos, exp) in enumerate(tgt)}
    for jj, (spos, sexp) in enumerate(src):
        delta = ctx.mul_delta(sexp)
        shifted = ring.reduce_packed(
            {k + delta: c for k, c in matrix.cols[spos].items()})
        for key, c in shifted.items():
            a[tindex[key], jj] = c
    return a, tgt, src


def module_dim_at(module, degree):
    """GF(p)-dimension of one graded piece of a finitely presented module."""
    ring = module.ring
    free = free_basis(ring, module.gen_degrees, degree)
    if not free:
        return 0
    rel, _, _ = matrix_slice(module.relations, degree)
    return len(free) - gf_rank(rel, ring.characteristic)


def module_dims(module, degrees):
    return {t: module_dim_at(module, t) for t in degrees}


def module_length_upto(module, max_degree):
    """Sum of graded dimensions from the lowest generator degree up to
    max_degree."""
    return sum(module_dim_at(module, t)
               for t in range(min(module.gen_degrees, default=0),
                              max_degree + 1))


def homology_dim_at(cplx, n, degree):
    """dim over GF(p) of the degree-`degree` piece of H_n of a chain complex."""
    ring = cplx.ring
    p = ring.characteristic
    dim_n = len(free_basis(ring, cplx.module(n), degree))
    if dim_n == 0:
        return 0
    dn = cplx.differential(n)
    if dn.nrows == 0:
        rank_out = 0
    else:
        a, _, _ = matrix_slice(dn, degree)
        rank_out = gf_rank(a, p)
    dn1 = cplx.differential(n + 1)
    if dn1.ncols == 0:
        rank_in = 0
    else:
        b, _, _ = matrix_slice(dn1, degree)
        rank_in = gf_rank(b, p)
    return dim_n - rank_out - rank_in


def kernel_dim_at(matrix, degree):
    """Dimension of the degreewise kernel of a RingMatrix."""
    a, _, src = matrix_slice(matrix, degree)
    return len(src) - gf_rank(a, matrix.ring.characteristic)


def column_space_contains(matrix, vec_cols, degree):
    """Do the given degree-`degree` kernel checks hold: each column of
    vec_cols (a RingMatrix with the same target) lies in the column space of
    matrix's slice?"""
    p = matrix.ring.characteristic
    a, tgt, _ = matrix_slice(matrix, degree)
    b, tgt2, _ = matrix_slice(vec_cols, degree)
    if tgt != tgt2:
        raise AlgebraError("mismatched targets in column-space check")
    ra = gf_rank(a, p)
    rab = gf_rank(np.hstack([a, b]), p)
    return ra == rab
