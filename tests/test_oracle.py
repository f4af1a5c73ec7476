"""Degreewise linear-algebra oracle over GF(p)."""

import pytest

from parres.groebner import FinitelyPresentedModule, RingMatrix
from parres.koszul import koszul_complex
from parres import oracle

P = 32003


def test_gf_rank_small():
    assert oracle.gf_rank([[1, 2], [2, 4]], 5) == 1
    assert oracle.gf_rank([[1, 0], [0, 1]], 5) == 2
    assert oracle.gf_rank([[0, 0], [0, 0]], 5) == 0
    # rank drops only modulo p
    assert oracle.gf_rank([[1, 3], [3, 9 % 7]], 7) == 1


def test_ring_basis_matches_hilbert(r1):
    ring = r1.ring
    for d in range(6):
        assert len(oracle.ring_basis(ring, d)) == \
            len(ring.standard_monomials(d))


def test_module_dims_quotient(r1):
    ring = r1.ring
    x = r1.sop("x")
    mod = x.quotient_module()
    # R1/(a,b) = k[c]/(c^2) as a vector space: dims 1, 1, 0, ...
    assert oracle.module_dims(mod, range(4)) == {0: 1, 1: 1, 2: 0, 3: 0}
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
    dims = [oracle.kernel_dim_at(mat, d) for d in range(6)]
    assert dims == [oracle.gf_rank(oracle.matrix_slice(syz, d)[0], p)
                    for d in range(6)]
    assert dims[2] == 3
    a = ring.ambient.parse("a")
    sq = RingMatrix.from_columns(ring, [[a * a]], row_degrees=[0])
    assert oracle.column_space_contains(mat, sq, 2)
    one = RingMatrix.from_columns(ring, [[ring.ambient.one()]],
                                  row_degrees=[0])
    assert not oracle.column_space_contains(mat, one, 0)
