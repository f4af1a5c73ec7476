from unittest import mock

import pytest

from parres.algebra import AlgebraError, DimensionMismatchError, Polynomial
from parres.groebner import QuotientRingSpec, RingMatrix, syzygies
from parres.complexes import (ChainComplex, ComplexMap, InducedHomologyMap,
                              dual, homology_presentation, mapping_cone,
                              minimize_with_tracking, shift)
from parres.harness import parse_ring_spec
from parres.invariants import maximal_ideal_sequence
from parres.koszul import koszul_complex
from parres.resolutions import (ModuleResolution, betti_table,
                                minimal_free_resolution)
from parres import complexes, oracle
from conftest import (QUINTIC, RING_109, is_minimal, matrix_of,
                      nonminimal_resolution, unminimized)
from polyref import mul, scale, sub


def test_dd_zero_enforced(r1):
    ring = r1.ring
    a = ring.ambient.parse("a")
    d1 = RingMatrix.from_columns(ring, [[a]], row_degrees=[0])
    bad = RingMatrix.from_columns(ring, [[a]], row_degrees=[1])
    with pytest.raises(AlgebraError):
        ChainComplex(ring, {0: (0,), 1: (1,), 2: (2,)}, {1: d1, 2: bad},
                     check=True)


def test_koszul_is_complex(r1, r2):
    for spec in (r1, r2):
        k = koszul_complex(spec.sop())
        for n in range(2, spec.sop().count + 1):
            assert (k.differential(n - 1) @ k.differential(n)).is_zero()


def test_homology_presentation_matches_oracle(r1):
    k = koszul_complex(r1.sop("x"))
    for n in range(3):
        _, h = homology_presentation(k, n)
        for d in range(6):
            assert oracle.module_dim_at(h, d) == \
                oracle.homology_dim_at(k, n, d)


def test_homology_sup(r1, regular):
    # the top nonvanishing H_p sits at count - grade
    x = r1.sop("x")
    assert [x.length(p) for p in range(x.count + 1)] == [2, 2, 1]
    assert x.grade() == x.count - 2
    # regular sequence: only H_0 survives
    y = regular.sop("x")
    assert all(y.length(p) == 0 for p in range(1, y.count + 1))
    assert y.grade() == y.count


def test_shift(r1):
    k = koszul_complex(r1.sop("x"))
    s = shift(k, 3)
    assert s.module(3) == k.module(0)
    _, h = homology_presentation(k, 1)
    _, hs = homology_presentation(s, 4)
    assert h.graded_length() == hs.graded_length()


def test_mapping_cone_of_identity_is_exact(r1):
    k = koszul_complex(r1.sop("x"))
    comps = {n: RingMatrix.identity(k.ring, k.module(n))
             for n in range(3)}
    ident = ComplexMap(k, k, comps)
    cone = mapping_cone(ident)
    for n in range(0, 4):
        assert homology_presentation(cone, n)[1].length() == 0


def test_dual_squares_to_identity_lengths(r1):
    k = koszul_complex(r1.sop("x"))
    d = dual(k)
    dd = dual(d)
    for n in range(3):
        _, h = homology_presentation(k, n)
        _, hdd = homology_presentation(dd, n)
        assert h.graded_length() == hdd.graded_length()


def test_koszul_self_duality(r2):
    x = r2.sop()
    r = x.count
    k = koszul_complex(x)
    d = dual(k)
    for i in range(r + 1):
        _, hi = homology_presentation(k, r - i)
        _, hco = homology_presentation(d, -i)
        assert hi.length() == hco.length()


def test_minimize_preserves_homology(r1):
    from parres.resolutions import general_cone_resolution
    cone = general_cone_resolution(r1.sop("x"), 3)
    mini = minimize_with_tracking(cone)[0]
    assert is_minimal(mini)
    for n in range(0, 4):
        for d in range(0, 8):
            assert oracle.homology_dim_at(cone, n, d) == \
                oracle.homology_dim_at(mini, n, d)


def test_minimize_tracking_gives_submatrix(r1):
    from parres.resolutions import general_cone_resolution
    cone = general_cone_resolution(r1.sop("x"), 2)
    mini, kept = minimize_with_tracking(cone)
    for n in mini.modules:
        assert len(kept[n]) == mini.rank(n)
        assert all(cone.module(n)[i] == mini.module(n)[j]
                   for j, i in enumerate(kept[n]))


def test_kill_top_homology_rejects_a_generator_past_the_cycles(r1):
    x = r1.sop("x")
    s = x.count
    z, h = x.presentation(s)
    res = minimal_free_resolution(h, 1)
    assert res.kept and res.kept[-1] < z.ncols
    complexes.kill_top_homology(x.complex(), res, s, z)
    past = ModuleResolution(res.complex, [*res.kept[:-1], z.ncols], 1)
    with pytest.raises(DimensionMismatchError, match="do not match"):
        complexes.kill_top_homology(x.complex(), past, s, z)


def test_induced_identity_is_isomorphism(r1):
    k = koszul_complex(r1.sop("x"))
    comps = {n: RingMatrix.identity(k.ring, k.module(n)) for n in range(3)}
    ident = ComplexMap(k, k, comps)
    ind = InducedHomologyMap(ident, 1)
    # injective with a zero cokernel: an isomorphism
    assert ind.is_injective() and ind.cokernel().length() == 0


def test_induced_map_with_no_cycles_and_no_boundaries(regular):
    # x = (a, b) is regular, so d_2 of K(x; R) is injective and there is no
    # d_3: the map solves against a matrix with no columns, and phi is 0x0
    k = koszul_complex(regular.sop("x"))
    comps = {n: RingMatrix.identity(k.ring, k.module(n)) for n in range(3)}
    ind = InducedHomologyMap(ComplexMap(k, k, comps), 2)
    assert ind.z_tgt.ncols == 0 and k.differential(3).ncols == 0
    assert (ind.phi.nrows, ind.phi.ncols) == (0, 0)
    assert ind.is_injective()


def test_one_wrong_sign_fails_each_square_zero_check(r2):
    # the non-minimal resolution of R/(x) as minimal_free_resolution builds
    # it, with the sign of one entry of d_2 flipped
    ring = r2.ring
    d1 = r2.sop().quotient_module().relations
    d2 = syzygies(d1)
    (i, j), v = min(d2.entries.items(), key=lambda e: e[0])
    entries = dict(d2.entries)
    entries[(i, j)] = ring.ambient.parse(f"-({v})")
    bad = matrix_of(ring, entries, d2.row_degrees, d2.col_degrees)
    d3 = syzygies(d2)
    modules = {0: d1.row_degrees, 1: d1.col_degrees, 2: d2.col_degrees,
               3: d3.col_degrees}
    diffs = {1: d1, 2: bad, 3: d3}
    assert not (d1 @ bad).is_zero()
    with pytest.raises(AlgebraError, match="composite"):
        ChainComplex(ring, modules, diffs, check=True)
    with pytest.raises(AlgebraError, match="composite"):
        minimize_with_tracking(ChainComplex(ring, modules, diffs, check=False))


def test_each_composite_is_checked_on_arrival_and_after_a_pivot(
        r1, r2, nonflc):
    real = complexes._check_square_zero
    checked = []

    def spy(d, up, n):
        checked.append(n)
        return real(d, up, n)

    # nothing cancels on r1 and r2; on nonflc the resolution pivots in d_3
    # and d_4, and the given iterated syzygies pivot in d_3, d_4 and d_5
    for spec, resolved, given in ((r1, [2, 3, 4, 5], [2, 3, 4, 5]),
                                  (r2, [2, 3, 4, 5], [2, 3, 4, 5]),
                                  (nonflc, [2, 3, 3, 4, 4, 5],
                                   [2, 3, 3, 4, 4, 5, 5])):
        cplx = nonminimal_resolution(spec, 4)
        with mock.patch.object(complexes, "_check_square_zero", spy):
            checked.clear()
            minimal_free_resolution(spec.sop().quotient_module(), 4)
            assert checked == resolved
            checked.clear()
            minimize_with_tracking(cplx)
            assert checked == given


def test_a_wrong_pivot_update_fails_the_minimized_check(nonflc):
    # the iterated syzygies, with one coefficient of the first pivot update
    # (in d_3) changed: d_3∘d_4 sees it when d_4 arrives
    cplx = nonminimal_resolution(nonflc, 4)
    real = QuotientRingSpec.products
    updates = []

    def corrupt(ring, left, right, starts):
        out = real(ring, left, right, starts)
        if starts is not None:  # the pivot update; compose passes None
            updates.append(out)
            if len(updates) == 1:
                col = next(c for c in out if c)
                k = min(col)
                col[k] = col[k] % (ring.characteristic - 1) + 1
        return out

    with mock.patch.object(QuotientRingSpec, "products", corrupt):
        with pytest.raises(AlgebraError, match="composite at degree 4"):
            minimize_with_tracking(cplx)


def _resolved_module(name):
    """k over ring 109, whose pivots lie in d_2 and above, or
    H_1(x^2; quintic), whose pivot in d_1 takes F_0 from 3 generators to
    2, over a freshly parsed ring."""
    if name == "ring_109":
        ring = parse_ring_spec(RING_109).ring
        return maximal_ideal_sequence(ring).quotient_module()
    quintic = parse_ring_spec(QUINTIC)
    return quintic.sop().power(2).presentation(1)[1]


@pytest.mark.parametrize("resolve", [betti_table, minimal_free_resolution])
@pytest.mark.parametrize("name", ["ring_109", "quintic"])
def test_a_wrong_pivot_update_fails_a_resolution_check(name, resolve):
    # one coefficient of a column that the first pivot update changed: a
    # column it returns unchanged is its input's own dict.  A pivot at
    # n >= 2 is seen by d_{n-1}∘d_n; one in d_1, with no d_0, by d_1∘d_2,
    # which holds only because d_2 is read off d_1 as given
    module = _resolved_module(name)
    real = QuotientRingSpec.products
    updates = []

    def corrupt(ring, left, right, starts):
        out = real(ring, left, right, starts)
        if starts is not None:  # the pivot update; compose passes None
            updates.append(out)
            if len(updates) == 1:
                col = next(c for c, s in zip(out, starts) if c and c is not s)
                k = min(col)
                col[k] = col[k] % (ring.characteristic - 1) + 1
        return out

    resolve(module, 3)  # no error uncorrupted
    with mock.patch.object(QuotientRingSpec, "products", corrupt):
        with pytest.raises(AlgebraError, match="composite"):
            resolve(module, 3)
    assert updates


def _reference_minimize(cplx):
    """Unit-pivot cancellation on Polynomial entries in the exponent-tuple
    reference, each entry reduced modulo I on its own, and the search for
    the next pivot starting again from the first differential: (kept,
    nonzero entries per degree)."""
    ring = cplx.ring
    p = ring.characteristic
    zero = Polynomial(ring.ambient, {})
    modules = {n: list(d) for n, d in cplx.modules.items()}
    kept = {n: list(range(len(d))) for n, d in cplx.modules.items()}
    mats = {n: m.entries for n, m in cplx.differentials.items()}

    def without(mat, row, col):
        """mat without row `row` and column `col` (None: none)."""
        return {(i - (row is not None and i > row),
                 j - (col is not None and j > col)): f
                for (i, j), f in mat.items() if i != row and j != col}

    while True:
        # the first unit in the order (n, column, row)
        units = [(n, j, i) for n, mat in mats.items()
                 for (i, j), f in mat.items() if f.degree() == 0]
        if not units:
            break
        n, pj, pi = min(units)
        mat = mats[n]
        inv = pow(mat[(pi, pj)].terms[(0,) * ring.nvars], p - 2, p)
        pivot = {i: f for (i, j), f in mat.items() if j == pj}
        for j in range(len(modules[n])):
            f = mat.get((pi, j))
            if j == pj or f is None:
                continue
            factor = scale(f, inv)
            for i, g in pivot.items():
                h = ring.reduce(sub(mat.get((i, j), zero), mul(factor, g)))
                if h.is_zero():
                    mat.pop((i, j), None)
                else:
                    mat[(i, j)] = h
        mats[n] = without(mat, pi, pj)
        if n + 1 in mats:
            mats[n + 1] = without(mats[n + 1], pj, None)
        if n - 1 in mats:
            mats[n - 1] = without(mats[n - 1], None, pi)
        del modules[n][pj], kept[n][pj], modules[n - 1][pi], kept[n - 1][pi]
    return ({n: idx for n, idx in kept.items() if idx},
            {n: mat for n, mat in mats.items() if mat})


def _assert_matches_reference(cplx, mini, kept):
    ref_kept, ref_mats = _reference_minimize(cplx)
    assert kept == ref_kept
    assert {n: e for n, m in mini.differentials.items()
            if (e := m.entries)} == ref_mats


def test_minimization_matches_a_restart_from_start_reference(random_specs):
    # catalogue rings whose non-minimal resolutions of R/(x) cancel
    cancelled = 0
    for spec in random_specs:
        cplx = nonminimal_resolution(spec, 3)
        mini, kept = minimize_with_tracking(cplx)
        if sum(map(len, kept.values())) == sum(map(len, cplx.modules.values())):
            continue
        cancelled += 1
        _assert_matches_reference(cplx, mini, kept)
    assert cancelled >= 6
    # tens of pivots in one differential: k over ring 109 and H_1(x^2; R)
    # over the quintic, resolved through cap 3; F_4 is the step past the
    # cap, no d_5 cancels into it, so its minimized rank is no Betti number
    quintic = parse_ring_spec(QUINTIC)
    k = maximal_ideal_sequence(parse_ring_spec(RING_109).ring)
    h = quintic.sop().power(2).presentation(1)[1]
    for module, ranks, minimal in (
            (k.quotient_module(), [1, 4, 13, 38, 116], [1, 4, 9, 16, 98]),
            (h, [3, 7, 18, 59, 173], [2, 6, 18, 48, 162])):
        cplx = unminimized(module, 3)
        mini, kept = minimize_with_tracking(cplx)
        assert [cplx.rank(n) for n in range(5)] == ranks
        assert [mini.rank(n) for n in range(5)] == minimal
        _assert_matches_reference(cplx, mini, kept)
