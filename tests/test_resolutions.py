from collections import Counter
from math import comb

import pytest

from parres.algebra import AlgebraError, PolynomialRingSpec
from parres.groebner import (FinitelyPresentedModule, QuotientRingSpec,
                             RingMatrix)
from parres.koszul import ParameterSequence, koszul_complex
from parres.resolutions import (BettiTable, betti_table,
                                cec_injectivity_check,
                                general_cone_resolution,
                                lift_koszul_to_resolution,
                                minimal_free_resolution)
from parres.harness import parse_ring_spec
from parres.invariants import maximal_ideal_sequence
from parres import complexes, koszul, oracle, resolutions
from conftest import (QUINTIC, RING_109, STAGE_A, bundled_spec, is_minimal,
                      packed, unminimized)


def _residue_field(ring):
    gens = [ring.ambient.gen(v) for v in ring.variables]
    rel = RingMatrix.from_columns(ring, [[g] for g in gens], row_degrees=[0])
    return FinitelyPresentedModule(ring, [0], rel)


def test_regular_ring_resolution_is_koszul(regular):
    ring = regular.ring
    res = minimal_free_resolution(_residue_field(ring), 4)
    assert res.poincare().coefficients == [1, 2, 1, 0, 0]
    assert is_minimal(res.complex)


def test_hypersurface_periodic_tail(hypersurface):
    ring = hypersurface.ring
    res = minimal_free_resolution(_residue_field(ring), 6)
    # eventually 2-periodic with constant rank 2 over a quadric hypersurface
    assert res.poincare().coefficients == [1, 3, 4, 4, 4, 4, 4]


def test_known_poincare_r1(r1):
    x = r1.sop("x")
    res = minimal_free_resolution(x.quotient_module(), 4)
    assert res.poincare().coefficients == [1, 2, 3, 7, 15]
    assert is_minimal(res.complex)
    k = minimal_free_resolution(_residue_field(r1.ring), 4)
    assert k.poincare().coefficients == [1, 3, 6, 13, 28]


def test_resolution_is_exact_against_oracle(r1):
    x = r1.sop("x")
    res = minimal_free_resolution(x.quotient_module(), 3)
    cplx = res.complex
    for n in range(1, 4):
        for d in range(0, 8):
            assert oracle.homology_dim_at(cplx, n, d) == 0
    for d in range(0, 8):
        assert oracle.homology_dim_at(cplx, 0, d) == \
            oracle.module_dim_at(x.quotient_module(), d)


def test_kept_names_the_minimal_generators(r2):
    x = r2.sop()
    res = minimal_free_resolution(x.quotient_module(), 2)
    assert res.kept == [0] and res.complex.rank(0) == 1
    # generators e_0 of degree 1 and e_1 of degree 0 with e_0 = a e_1:
    # the unit cancels e_0, and F_0 is generated by e_1 alone
    ring = r2.ring
    amb = ring.ambient
    a = ring.variables[0]
    rel = RingMatrix.from_columns(ring, [[amb.parse("1"), amb.parse(f"-{a}")]],
                                  [1, 0])
    res = minimal_free_resolution(
        FinitelyPresentedModule(ring, [1, 0], rel), 2)
    assert res.kept == [1] and res.complex.module(0) == (0,)


def test_betti_table_layout(r1):
    res = minimal_free_resolution(_residue_field(r1.ring), 2)
    table = res.betti()
    assert table.total(0) == 1 and table.total(1) == 3
    assert table.entries[(1, 1)] == 3
    assert "tot:" in table.pretty()
    assert table.to_dict()["0,0"] == 1


def test_syzygy_module(r1):
    x = r1.sop("x")
    mod = x.quotient_module()
    # the first syzygy module is presented by F_1 and d_2 of the minimal
    # resolution
    f = minimal_free_resolution(mod, 3).complex
    s1 = FinitelyPresentedModule(r1.ring, f.module(1), f.differential(2))
    # first syzygy of R1/(a,b) has 2 generators, matching beta_1
    assert len(s1.gen_degrees) == 2
    res = minimal_free_resolution(s1, 2)
    assert res.poincare().coefficients == [2, 3, 7]


def test_sequence_grade(r1, r2, regular):
    assert r1.sop("x").grade() == 0
    assert r2.sop().grade() == 1
    assert regular.sop().grade() == 2


def _count_presentations(monkeypatch):
    calls = []

    def wrap(real):
        def counting(cplx, n):
            calls.append(n)
            return real(cplx, n)
        return counting

    for mod in (complexes, koszul, resolutions):
        if hasattr(mod, "homology_presentation"):
            monkeypatch.setattr(mod, "homology_presentation",
                                wrap(mod.homology_presentation))
    return calls


def test_general_cone_presents_each_homology_once(monkeypatch):
    calls = _count_presentations(monkeypatch)
    general_cone_resolution(bundled_spec("r1").sop("x"), 3)
    # H_2 and H_1 of r1's Koszul complex are both nonzero and killed in turn
    assert calls == [2, 1]


def test_aci_cone_presents_each_homology_once(monkeypatch):
    calls = _count_presentations(monkeypatch)
    general_cone_resolution(bundled_spec("r2").sop(), 4)
    # the cone reads H_2 = 0 and H_1 != 0 off their Hilbert series, and
    # presents H_1 alone
    assert calls == [1]


def test_general_cone_resolution_r1(r1):
    x = r1.sop("x")
    cone = general_cone_resolution(x, 4)
    # resolves R/(x): exact in positive degrees, H_0 = R/(x)
    for n in range(1, 5):
        for d in range(0, 10):
            assert oracle.homology_dim_at(cone, n, d) == 0
    quot = x.quotient_module()
    for d in range(0, 6):
        assert oracle.homology_dim_at(cone, 0, d) == \
            oracle.module_dim_at(quot, d)


def test_aci_cone_matches_koszul_plus_shift(r2):
    x = r2.sop()
    cone = general_cone_resolution(x, 4)
    # rank_n = binom(2, n) + rank F_{n-2} of the H_1 resolution
    h1res = minimal_free_resolution(x.homology(1), 3)
    for n in range(0, 5):
        expect = comb(2, n) + (h1res.complex.rank(n - 2) if n >= 2 else 0)
        assert cone.rank(n) == expect


def test_lift_and_cec(r1, r2, regular):
    for spec, cap in ((r1, 4), (r2, 4), (regular, 3)):
        x = spec.sop()
        res = minimal_free_resolution(x.quotient_module(), cap)
        comps = lift_koszul_to_resolution(x, res)
        k = koszul_complex(x)
        for n in sorted(comps):
            if n == 0:
                continue
            lhs = comps[n - 1] @ k.differential(n)
            rhs = res.complex.differential(n) @ comps[n]
            assert lhs == rhs
        report = cec_injectivity_check(x, cap)
        assert all(report.values())


def test_cec_reads_only_the_constant_terms():
    # over k[a,b]/(ab), the syzygies of (a^2, b^2) are (b, 0) and (0, a),
    # so the lift of e_1 e_2 = (b^2, -a^2) is (a, -b): no constant term,
    # and the map is not injective in degree 2 after killing m
    amb = PolynomialRingSpec(32003, ["a", "b"])
    ring = QuotientRingSpec(amb, packed(amb, [amb.parse("a*b")]))
    x = ParameterSequence(ring, packed(amb, [amb.parse("a^2"),
                                             amb.parse("b^2")]))
    res = minimal_free_resolution(x.quotient_module(), 2)
    lift = lift_koszul_to_resolution(x, res)[2]
    assert lift.entries == {(0, 0): amb.parse("a"), (1, 0): amb.parse("-b")}
    assert cec_injectivity_check(x, 2) == {0: True, 1: True, 2: False}


def test_poincare_truncation_of_zero(r1):
    zero = FinitelyPresentedModule(
        r1.ring, [0],
        RingMatrix.identity(r1.ring, (0,)))
    assert betti_table(zero, 3).totals() == [0, 0, 0, 0]


def test_resolution_computes_no_syzygies_past_cap(monkeypatch, r1):
    calls = []
    real = resolutions.syzygies

    def counting(matrix):
        calls.append(matrix.col_degrees)
        return real(matrix)

    monkeypatch.setattr(resolutions, "syzygies", counting)
    cap = 5
    module = _residue_field(r1.ring)
    res = minimal_free_resolution(module, cap)
    # k over r1 has an infinite linear resolution, so no step stops early:
    # steps 2..cap + 1, each the syzygies of the differential before it
    assert len(calls) == cap
    full, calls[:] = calls[:], []
    table = betti_table(module, cap)
    # steps 2..cap alone, the same as the full run's; none past the cap
    assert calls == full[:cap - 1]
    assert table == res.betti()
    assert table.entries == {
        (i, i): b for i, b in enumerate([1, 3, 6, 13, 28, 60])}


@pytest.mark.parametrize("resolve", [minimal_free_resolution, betti_table])
@pytest.mark.parametrize("cap", [-1, 1023])
def test_a_cap_outside_the_packing_limit_raises_before_any_step(
        monkeypatch, r1, resolve, cap):
    # betti_table checks its own cap before it resolves through cap - 1,
    # so -1 does not pass as 0, nor 1023 as 1022
    def fail(*args, **kwargs):
        raise AssertionError("took a syzygy step")

    monkeypatch.setattr(resolutions, "syzygies", fail)
    with pytest.raises(AlgebraError,
                       match=f"^resolution cap {cap} is outside 0..1022$"):
        resolve(_residue_field(r1.ring), cap)


@pytest.mark.parametrize("columns, row", [
    # ab lies in m times a, so the degree-2 slice of d has rank 2 from a's
    # multiples alone and ab adds no generator
    (["a", "a*b"], {1: 1}),
    # two equal columns of one degree span one generator
    (["a", "a"], {1: 1}),
    (["a", "b^2"], {1: 1, 2: 1}),
])
def test_the_last_row_counts_generators_modulo_lower_multiples(columns, row):
    amb = PolynomialRingSpec(32003, ["a", "b"])
    ring = QuotientRingSpec(amb, [])
    d = RingMatrix.from_columns(ring, [[amb.parse(f)] for f in columns],
                                row_degrees=[0])
    module = FinitelyPresentedModule(ring, [0], d)
    table = betti_table(module, 1)
    assert table.entries == {(0, 0): 1, **{(1, j): b for j, b in row.items()}}
    for cap in (0, 1, 2):
        assert betti_table(module, cap) == \
            minimal_free_resolution(module, cap).betti()


def _dim_of_image(module, cplx, cap, j):
    """dim im(d_cap)_j from exactness alone: cplx resolves module through
    cap - 1, so 0 -> im(d_cap) -> F_{cap-1} -> ... -> F_0 -> M -> 0 is
    exact, and dim im(d_cap)_j is the alternating sum of the dimensions of
    (F_i)_j and M_j.  (R(-g))_j is spanned by the standard monomials of
    degree j - g, and M_j is the t^j coefficient of N / (1-t)^n."""
    ring = module.ring
    n = ring.nvars
    dim = (-1) ** cap * sum(c * comb(j - t + n - 1, n - 1)
                            for t, c in module.hilbert_numerator().items()
                            if t <= j)
    for i in range(cap):
        dim += (-1) ** (cap - 1 - i) * sum(
            len(ring.packed_staircase(j - g)) for g in cplx.module(i))
    return dim


def _last_row_modules(corpus):
    """R/(x) and each nonzero H_i(x) for every bundled sop, and R/(x^n) and
    H_1(x^n) for n = 1, 2 over stage A, the quintic and ring 109."""
    modules = []
    for spec in corpus.values():
        for x in spec.sops.values():
            modules.append(x.quotient_module())
            modules += [x.presentation(i)[1] for i in range(1, x.count + 1)
                        if x.length(i)]
    for text in (STAGE_A, QUINTIC, RING_109):
        x = parse_ring_spec(text).sop()
        for power in (x, x.power(2)):
            modules += [power.quotient_module(), power.presentation(1)[1]]
    return modules


def test_the_last_row_agrees_with_exactness(corpus):
    # beta_{cap,j} = dim im(d_cap)_j - dim (m im(d_cap))_j: the first term
    # from exactness needs no elimination, and at the lowest column degree
    # the second is 0, so there the last row is checked with no rank at all
    checked = lowest = 0
    for module in _last_row_modules(corpus):
        ring = module.ring
        p, mono_degree = ring.characteristic, ring._ctx.mono_degree
        for cap in (1, 2, 3, 4):
            cplx = minimal_free_resolution(module, cap - 1).complex
            table = betti_table(module, cap)
            d = cplx.differential(cap)
            degrees = sorted(set(d.col_degrees))
            for j in degrees:
                vecs, _, src = oracle.matrix_slice(d, j)
                lower = [v for v, key in zip(vecs, src) if mono_degree(key)]
                assert table.entries.get((cap, j), 0) + oracle.gf_rank(
                    lower, p) == _dim_of_image(module, cplx, cap, j), (
                        module, cap, j)
                lowest += j == degrees[0]
                checked += 1
    assert checked >= 100 and lowest >= 50


def test_the_kept_columns_minimally_generate_the_image(corpus):
    # in each column degree j of d_cap, the columns kept for the last row
    # are beta_{cap,j} of the full resolution through cap, which steps past
    # the cap, and their degree-j slice has the rank of all columns' slice:
    # they generate im(d_cap), and none of them is left over
    several = 0
    for module in _last_row_modules(corpus):
        ring = module.ring
        p = ring.characteristic
        betti = minimal_free_resolution(module, 4).betti().entries
        for cap in (1, 2, 3, 4):
            d = minimal_free_resolution(module, cap - 1).complex \
                .differential(cap)
            kept = resolutions._minimal_columns(d)
            assert kept == sorted(set(kept))
            sub = RingMatrix(ring, [d.cols[c] for c in kept], d.row_degrees,
                             [d.col_degrees[c] for c in kept])
            for j in sorted(set(d.col_degrees)):
                assert sub.col_degrees.count(j) == betti.get((cap, j), 0), (
                    module, cap, j)
                assert oracle.gf_rank(oracle.matrix_slice(sub, j)[0], p) == \
                    oracle.gf_rank(oracle.matrix_slice(d, j)[0], p), (
                        module, cap, j)
            several += len(set(sub.col_degrees)) > 1
    assert several >= 10


def test_betti_table_matches_the_full_resolution(corpus, random_specs):
    cancelled = set()
    for name, spec in [*corpus.items(), *enumerate(random_specs)]:
        module = spec.sop().quotient_module()
        for cap in (2, 3, 4):
            cplx = unminimized(module, cap)
            kept = complexes.minimize_with_tracking(cplx)[1]
            if len(kept.get(cap + 1, ())) < cplx.rank(cap + 1):
                cancelled.add((name, cap))
            assert betti_table(module, cap) == \
                minimal_free_resolution(module, cap).betti(), (name, cap)
    # a unit of the full d_{cap+1} cancels a generator of F_cap, which the
    # rank read-off of row cap must leave out too
    assert {("nonflc", 2), ("nonflc", 3), (5, 2), (5, 3), (12, 2),
            (12, 3)} <= cancelled


def _betti_by_ranks(cplx, cap):
    """The Betti table through cap of the module that cplx resolves,
    minimal or not: beta_{i,j} = f_{i,j} - rk(d_i ⊗ k)_j - rk(d_{i+1} ⊗ k)_j,
    f_{i,j} being the number of generators of F_i in degree j.  A constant
    term joins generators of equal degree, so rk(d_n ⊗ k)_j is the rank of
    the constant terms of the columns of degree j."""
    ctx, p = cplx.ring._ctx, cplx.ring.characteristic
    ranks = {}
    for n in range(cap + 2):
        by_degree = {}
        for j, col in zip(cplx.module(n), cplx.differential(n).cols):
            by_degree.setdefault(j, []).append(
                {ctx.pos_of(k): c for k, c in col.items()
                 if not ctx.mono_degree(k)})
        ranks[n] = {j: oracle.gf_rank(cols, p)
                    for j, cols in by_degree.items()}
    entries = Counter()
    for i in range(cap + 1):
        entries.update((i, j) for j in cplx.module(i))
        for n in (i, i + 1):
            entries.subtract({(i, j): r for j, r in ranks[n].items()})
    return BettiTable(entries, cap)


def test_betti_numbers_are_ranks_over_k(corpus, random_specs):
    # Tor_i(M, k)_j = H_i(F ⊗ k)_j for any free resolution F of M, and the
    # differentials of F ⊗ k are the constant terms of F's: the table read
    # off the unminimized complex needs no minimization
    quintic, ring_109 = parse_ring_spec(QUINTIC), parse_ring_spec(RING_109)
    specs = [*corpus.values(), parse_ring_spec(STAGE_A), quintic, ring_109,
             *random_specs]
    modules = [spec.sop().quotient_module() for spec in specs]
    modules += [
        maximal_ideal_sequence(ring_109.ring).quotient_module(),
        quintic.sop().power(2).presentation(1)[1]]
    nonminimal = 0
    for module in modules:
        cplx = unminimized(module, 3)
        nonminimal += not is_minimal(cplx)
        assert _betti_by_ranks(cplx, 3) == betti_table(module, 3)
    assert nonminimal >= 8
    # k over ring 109 and the quintic's H_1(x^2) at cap 4 too, where the
    # last row walks the columns of d_4 over six degrees, and keeps some in
    # five of them on the quintic
    for module in modules[-2:]:
        assert _betti_by_ranks(unminimized(module, 4), 4) == \
            betti_table(module, 4)
