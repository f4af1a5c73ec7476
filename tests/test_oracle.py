"""Degreewise linear-algebra oracle over GF(p)."""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parres._engine import PackContext, PyReducer
from parres.groebner import FinitelyPresentedModule, RingMatrix
from parres.invariants import maximal_ideal_sequence
from parres.koszul import koszul_complex
from parres import oracle

from conftest import sop_differentials

P = 32003
PRIMES = (2, 3, 32003, 2 ** 31 - 1)


def _reference_rank(mat, p):
    """Row-at-a-time Gauss-Jordan elimination with scalar pivot search: the
    elimination gf_rank replaced, kept as its reference."""
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


def _product(left, right, p):
    """left @ right mod p in exact integer arithmetic."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
            for row in left]


@st.composite
def gf_matrices(draw):
    """(rows, p): 0-12 x 0-12 integer matrices, empty, tall and wide, with
    zeros, small, reduced and large entries, dense or sparse (sparse ones
    have lines with one nonzero entry); half of them products through an
    inner dimension, so that the rank drops."""
    p = draw(st.sampled_from(PRIMES))
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    zeros = draw(st.sampled_from([0.25, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def block(r, c):
        shape = (r, c)
        kind = rng.integers(0, 3, size=shape)
        return np.where(
            rng.random(shape) < zeros, 0,
            np.select([kind == 0, kind == 1],
                      [rng.integers(-3, 4, size=shape),
                       rng.integers(0, p, size=shape)],
                      rng.integers(-2 ** 40, 2 ** 40, size=shape))).tolist()

    if draw(st.booleans()):
        inner = draw(st.integers(0, 12))
        return _product(block(nrows, inner), block(inner, ncols), p), p
    return block(nrows, ncols), p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=gf_matrices())
def test_gf_rank_matches_row_elimination_reference(case):
    rows, p = case
    assert oracle.gf_rank(rows, p) == _reference_rank(rows, p)
    if rows and rows[0]:
        given_array = np.array(rows, dtype=np.int64)
        kept = given_array.copy()
        assert oracle.gf_rank(given_array, p) == _reference_rank(rows, p)
        assert oracle.gf_rank(given_array.T, p) == _reference_rank(rows, p)
        # the array it is given is left as it was
        assert np.array_equal(given_array, kept)


def test_gf_rank_is_exact_at_the_largest_characteristic():
    # 60 x 90 of rank 40 at p = 2^31 - 1: every product of two residues is
    # near 2^62, so int64 arithmetic must not overflow
    p = 2 ** 31 - 1
    rng = np.random.default_rng(17)
    left = rng.integers(0, p, size=(60, 40)).tolist()
    right = rng.integers(0, p, size=(40, 90)).tolist()
    mat = np.array(_product(left, right, p), dtype=np.int64)
    kept = mat.copy()
    assert oracle.gf_rank(mat, p) == _reference_rank(mat, p) == 40
    assert oracle.gf_rank(mat.T, p) == 40
    assert np.array_equal(mat, kept)
    # one more row off the span raises the rank
    extra = np.vstack([mat, rng.integers(0, p, size=(1, 90))])
    assert oracle.gf_rank(extra, p) == _reference_rank(extra, p) == 41


def test_gf_rank_small():
    assert oracle.gf_rank([[1, 2], [2, 4]], 5) == 1
    assert oracle.gf_rank([[1, 0], [0, 1]], 5) == 2
    assert oracle.gf_rank([[0, 0], [0, 0]], 5) == 0
    # rank drops only modulo p
    assert oracle.gf_rank([[1, 3], [3, 9 % 7]], 7) == 1


def test_free_basis_counts_the_hilbert_function(corpus):
    # HS(R) = N / (1-t)^n: n running sums of N's coefficients give the
    # Hilbert function through degree 5
    for name, spec in corpus.items():
        ring = spec.ring
        h = (list(ring.hilbert_numerator()) + [0] * 6)[:6]
        for _ in range(ring.nvars):
            h = list(accumulate(h))
        assert [len(oracle.free_basis(ring, (0,), d)[0])
                for d in range(6)] == h, name
        # a generator of degree 2 shifts the function up by two degrees
        assert [len(oracle.free_basis(ring, (0, 2), d)[0])
                for d in range(6)] == [a + b for a, b in
                                       zip(h, [0, 0] + h)], name


def test_module_dims_quotient(r1):
    ring = r1.ring
    x = r1.sop("x")
    mod = x.quotient_module()
    # R1/(a,b) = k[c]/(c^2) as a vector space: dims 1, 1, 0, ...
    assert {t: oracle.module_dim_at(mod, t) for t in range(4)} == \
        {0: 1, 1: 1, 2: 0, 3: 0}
    assert oracle.module_length_upto(mod, 10) == 2
    assert mod.length() == oracle.module_length_upto(mod, 10)


def test_free_module_dims(r2):
    ring = r2.ring
    free = FinitelyPresentedModule(ring, [0, 1])
    for d in range(1, 5):
        assert oracle.module_dim_at(free, d) == \
            len(ring.standard_monomials(d)) + len(ring.standard_monomials(d - 1))


def test_homology_dims_match_presentation(r1):
    x = r1.sop("x")
    k = koszul_complex(x)
    from parres.complexes import homology_presentation
    for n in range(0, 3):
        _, h = homology_presentation(k, n)
        for d in range(0, 6):
            assert oracle.homology_dim_at(k, n, d) == \
                oracle.module_dim_at(h, d)


def _kernel_dim(matrix, degree):
    """Dimension of the degreewise kernel of a RingMatrix."""
    a, _, src = oracle.matrix_slice(matrix, degree)
    return len(src) - oracle.gf_rank(a, matrix.ring.characteristic)


def _column_space_contains(matrix, vec_cols, degree):
    """Each degree-`degree` column of vec_cols (a RingMatrix with the same
    target) lies in the column space of matrix's slice."""
    p = matrix.ring.characteristic
    a, tgt, _ = oracle.matrix_slice(matrix, degree)
    b, tgt2, _ = oracle.matrix_slice(vec_cols, degree)
    assert tgt == tgt2
    return oracle.gf_rank(a, p) == oracle.gf_rank(np.hstack([a, b]), p)


def test_kernel_dim_and_column_space(r1):
    ring = r1.ring
    x = r1.sop("x")
    mat = RingMatrix.from_columns(
        ring, [[f] for f in x.elements], row_degrees=[0])
    # in degree 2 the map R(-1)^2 -> R has kernel spanned by (b, -a) plus
    # the c-multiples (c, 0), (0, c); the syzygy columns span the kernel in
    # every degree
    from parres.groebner import syzygies
    syz = syzygies(mat)
    p = ring.characteristic
    dims = [_kernel_dim(mat, d) for d in range(6)]
    assert dims == [oracle.gf_rank(oracle.matrix_slice(syz, d)[0], p)
                    for d in range(6)]
    assert dims[2] == 3
    a = ring.ambient.parse("a")
    sq = RingMatrix.from_columns(ring, [[a * a]], row_degrees=[0])
    assert _column_space_contains(mat, sq, 2)
    one = RingMatrix.from_columns(ring, [[ring.ambient.one()]],
                                  row_degrees=[0])
    assert not _column_space_contains(mat, one, 0)


def _reference_slice(matrix, degree):
    """matrix_slice built with no ring tables: every standard monomial is
    packed again, and every monomial multiple of a column that leaves the
    staircase is reduced modulo I as a whole."""
    ring = matrix.ring
    ctx = ring._ctx
    tgt = [(pos, exp) for pos, d in enumerate(matrix.row_degrees)
           for exp in ring.standard_monomials(degree - d)]
    src = [(pos, exp) for pos, d in enumerate(matrix.col_degrees)
           for exp in ring.standard_monomials(degree - d)]
    a = np.zeros((len(tgt), len(src)), dtype=np.int64)
    row_of = {ctx.pack(pos, exp): i for i, (pos, exp) in enumerate(tgt)}
    for j, (pos, exp) in enumerate(src):
        delta = ctx.mul_delta(exp)
        shifted = {k + delta: c for k, c in matrix.cols[pos].items()}
        if not all(k in row_of for k in shifted):
            shifted = ring.reduce_packed(shifted)
        for k, c in shifted.items():
            a[row_of[k], j] = c
    return a, tgt, src


def _assert_slices_match_reference(matrices, degrees):
    for matrix in matrices:
        pack = matrix.ring._ctx.pack
        for t in degrees:
            basis, keys = oracle.free_basis(matrix.ring, matrix.col_degrees, t)
            assert keys == [pack(pos, exp) for pos, exp in basis]
            a, tgt, src = oracle.matrix_slice(matrix, t)
            want, want_tgt, want_src = _reference_slice(matrix, t)
            assert (tgt, src) == (want_tgt, want_src)
            assert np.array_equal(a, want), (matrix, t)


def _checked_tables(ring):
    """Check each table entry of the ring against the reducer's normal form
    and pack; returns the number of normal forms kept."""
    forms = ring._monomial_forms
    for key, form in forms.items():
        want = ring._reducer.normal_form({key: 1})
        assert ({key: 1} if form is True else dict(form)) == want
    for t, stair in ring._packed_staircases.items():
        assert stair == tuple((exp, ring._ctx.pack(0, exp))
                              for exp in ring.standard_monomials(t))
    return len(forms)


def test_slices_match_whole_vector_reduction(corpus, random_specs,
                                            big_field):
    for name, spec in corpus.items():
        _assert_slices_match_reference(sop_differentials(spec, 3), range(11))
        if not spec.ring.is_polynomial_ring():
            assert _checked_tables(spec.ring), name
    met = 0
    for spec in random_specs[:6]:
        _assert_slices_match_reference(sop_differentials(spec, 2), range(8))
        met += _checked_tables(spec.ring)
    assert met
    big = big_field
    assert big.ring.characteristic == 2 ** 31 - 1
    _assert_slices_match_reference(
        [*sop_differentials(big, 3),
         *koszul_complex(maximal_ideal_sequence(big.ring))
         .differentials.values()], range(9))
    assert _checked_tables(big.ring)


def test_a_second_slice_packs_and_reduces_nothing(monkeypatch, big_field):
    # a ring of its own, so that the first slice fills its tables
    ring = big_field.ring
    matrix = koszul_complex(maximal_ideal_sequence(ring)).differential(2)
    calls = []

    def counting(cls, name):
        real = getattr(cls, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapped)

    counting(PackContext, "pack")
    counting(PyReducer, "normal_form")
    first = oracle.matrix_slice(matrix, 6)
    assert "pack" in calls and "normal_form" in calls
    calls.clear()
    second = oracle.matrix_slice(matrix, 6)
    assert calls == []
    assert np.array_equal(first[0], second[0])
    assert first[1:] == second[1:]
