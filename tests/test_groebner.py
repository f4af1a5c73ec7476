from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from parres import _engine, kernel, oracle
from parres._engine import PyReducer, vec_degree
from parres.algebra import (GREVLEX, LEX, AlgebraError, Polynomial,
                            PolynomialRingSpec)
from parres.groebner import (INFINITE, ExtendedSolver,
                             FinitelyPresentedModule, QuotientRingSpec,
                             RingMatrix, hilbert_numerator, matrix_solve,
                             series_counts, standard_monomials, syzygies)
from parres.complexes import ChainComplex, minimize_with_tracking
from parres.invariants import maximal_ideal_sequence
from parres.koszul import koszul_complex

from conftest import sop_differentials

P = 32003


@pytest.fixture(scope="module")
def amb3():
    return PolynomialRingSpec(P, ["a", "b", "c"])


def test_buchberger_lex_known():
    ring = PolynomialRingSpec(P, ["a", "b"], LEX)
    gens = [ring.parse("a^2 - b^2"), ring.parse("a*b - b^2")]
    gb = QuotientRingSpec(ring, gens).ideal_basis
    # this pair is already a reduced Groebner basis under lex
    assert sorted(str(g) for g in gb) == \
        sorted(str(g.monic()) for g in gens)
    # here completion genuinely adds the S-polynomial b^3
    plus = QuotientRingSpec(ring, [ring.parse("a^2 - b^2"),
                                   ring.parse("a*b")]).ideal_basis
    assert any(str(g) == "b^3" for g in plus)


def test_buchberger_normal_form_idempotent(amb3):
    ring = QuotientRingSpec(amb3, [amb3.parse("a*c"), amb3.parse("b*c"),
                                   amb3.parse("c^2")])
    f = amb3.parse("a^2*c + b*c^2 + a*b")
    nf = ring.reduce(f)
    assert ring.reduce(nf) == nf
    assert nf == amb3.parse("a*b")
    assert ring.reduce(amb3.parse("a*c^3")).is_zero()
    assert not ring.reduce(amb3.parse("a*b")).is_zero()


def test_buchberger_membership_random(amb3):
    gens = [amb3.parse("a^2 - b*c"), amb3.parse("b^2 - a*c")]
    ring = QuotientRingSpec(amb3, gens)
    # any combination of the generators reduces to zero
    f = amb3.parse("a*b") * gens[0] - amb3.parse("c^2") * gens[1]
    assert ring.reduce(f).is_zero()


def test_quotient_ring_basics(r1):
    ring = r1.ring
    assert ring.dimension() == 2
    assert ring.characteristic == P
    # Hilbert function of R1: 1, 4, then 2 standard monomials... degree 1
    # has a, b, c; c is not in the initial ideal at degree 1
    assert len(ring.standard_monomials(0)) == 1
    assert len(ring.standard_monomials(1)) == 3
    assert len(ring.standard_monomials(2)) == 3
    assert len(ring.standard_monomials(5)) == 6


def test_reduce_is_normal_form(r1):
    ring = r1.ring
    f = ring.ambient.parse("a*c + a*b")
    assert ring.reduce(f) == ring.ambient.parse("a*b")


def _series(leads, nv):
    return series_counts(dict(enumerate(hilbert_numerator(leads))), nv)


def test_staircase_dimension(amb3):
    # initial ideal (ac, bc, c^2) in 3 vars: faces {a,b} survive; the
    # staircase is the plane of a, b plus c, so the series is
    # 1/(1-t)^2 + t and N = (1-t) + t (1-t)^3
    assert hilbert_numerator([(1, 0, 1), (0, 1, 1), (0, 0, 2)]) == \
        [1, 0, -3, 3, -1]

    def dim(*monomials):
        ideal = [amb3.parse(m) for m in monomials]
        return QuotientRingSpec(amb3, ideal).dimension()

    assert dim("a*c", "b*c", "c^2") == 2
    assert dim() == 3
    assert dim("a", "b", "c") == 0


def test_ring_keeps_one_staircase_per_degree(corpus):
    # the leads of I never change, so each degree is enumerated once
    for name, spec in corpus.items():
        ring = spec.ring
        for d in range(13):
            got = ring.standard_monomials(d)
            assert isinstance(got, tuple), name
            assert list(got) == standard_monomials(ring._lead_exps,
                                                   ring.nvars, d), (name, d)
            assert ring.standard_monomials(d) is got, (name, d)


def test_no_standard_monomials_below_degree_zero():
    # on one variable too, a negative degree has no monomials
    amb = PolynomialRingSpec(7, ["a"])
    ring = QuotientRingSpec(amb, [amb.parse("a^3")])
    assert standard_monomials([], 1, -1) == []
    assert standard_monomials([], 3, -1) == []
    for d in (-1, -2):
        assert ring.standard_monomials(d) == ()
    assert ring.standard_monomials(2) == ((2,),)
    assert ring.standard_monomials(3) == ()
    # so a free module's basis takes nothing from a generator above the
    # degree
    assert oracle.free_basis(ring, (0, 2), 1)[0] == [(0, (1,))]


def test_staircase_count_matches_enumeration(amb3):
    leads = [(2, 0, 0), (0, 3, 0), (0, 0, 1)]
    by_degree = [len(standard_monomials(leads, 3, d)) for d in range(10)]
    assert _series(leads, 3) == dict(enumerate(by_degree[:4])) \
        == {0: 1, 1: 2, 2: 2, 3: 1}
    assert not any(by_degree[4:])
    # no pure power of c: infinitely many standard monomials
    assert _series(leads[:2], 3) is INFINITE

    ring = QuotientRingSpec(amb3, [])
    f, zero, one = amb3.parse, amb3.zero(), amb3.one()
    # e_0 has leads a^2, b^3, c (six standard monomials); e_1 dies, so it
    # counts nothing although its only lead, 1, is no pure power; e_2 has
    # leads a, b^2, c^2 and the mixed b*c (three standard monomials)
    cols = ([[f(m), zero, zero] for m in ("a^2", "b^3", "c")]
            + [[zero, one, zero]]
            + [[zero, zero, f(m)] for m in ("a", "b^2", "c^2", "b*c")])
    rel = RingMatrix.from_columns(ring, cols, row_degrees=[0, 1, 2])
    mod = FinitelyPresentedModule(ring, [0, 1, 2], rel)
    graded = mod.graded_length()
    assert graded == {0: 1, 1: 2, 2: 3, 3: 3}
    assert mod.length() == sum(graded.values()) == 9
    assert mod.length() == oracle.module_length_upto(mod, 8)
    assert all(oracle.module_dim_at(mod, t) == graded.get(t, 0)
               for t in range(8))

    # a live generator with no pure power of c has infinite length
    cols = ([[f(m), zero] for m in ("a^2", "b^3", "c")]
            + [[zero, f(m)] for m in ("a", "b")])
    rel = RingMatrix.from_columns(ring, cols, row_degrees=[0, 0])
    mod = FinitelyPresentedModule(ring, [0, 0], rel)
    assert mod.length() is INFINITE
    with pytest.raises(AlgebraError):
        mod.graded_length()


@st.composite
def monomial_ideals(draw):
    """(nv, generators): up to six monomials of degree <= 4 in 2-4
    variables, the unit and repeated or redundant generators included."""
    nv = draw(st.integers(2, 4))
    exp = st.tuples(*[st.integers(0, 4)] * nv).filter(lambda e: sum(e) <= 4)
    return nv, draw(st.lists(exp, max_size=6))


def _reference_dimension(leads, nv):
    """Largest size of a variable subset T with no generator supported
    inside T; -1 when 1 is in L."""
    supports = [{i for i, e in enumerate(exp) if e} for exp in leads]
    if any(not s for s in supports):
        return -1
    return max(size for size in range(nv + 1)
               for t in combinations(range(nv), size)
               if not any(s <= set(t) for s in supports))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=monomial_ideals())
def test_hilbert_numerator_matches_standard_monomials(case):
    nv, leads = case
    num = hilbert_numerator(leads)
    # N has degree at most that of the lcm of the generators, so the
    # series through that degree determines it
    top = sum(max((exp[i] for exp in leads), default=0) for i in range(nv))
    series = num + [0] * (top + 1 - len(num))
    for _ in range(nv):  # times 1/(1-t): partial sums
        series = [sum(series[:k + 1]) for k in range(len(series))]
    counts = [len(standard_monomials(leads, nv, d)) for d in range(top + 1)]
    assert series[:top + 1] == counts
    assert len(num) <= top + 1 or not any(num[top + 1:])

    # finite exactly when every variable has a pure power in L, and then
    # every standard monomial lies below degree top
    finite = any(not any(exp) for exp in leads) or all(
        any(exp[i] and sum(exp) == exp[i] for exp in leads)
        for i in range(nv))
    got = series_counts(dict(enumerate(num)), nv)
    if finite:
        assert not standard_monomials(leads, nv, top + 1)
        assert got == {d: c for d, c in enumerate(counts) if c}
    else:
        assert got is INFINITE

    if all(any(exp) for exp in leads):
        amb = PolynomialRingSpec(P, [f"x{i}" for i in range(nv)])
        ring = QuotientRingSpec(amb, [amb.monomial(exp) for exp in leads])
        assert ring.dimension() == _reference_dimension(leads, nv)
    else:
        assert num == []


def test_module_length_and_dimension(r1):
    ring = r1.ring
    x = [ring.ambient.parse("a"), ring.ambient.parse("b")]
    rel = RingMatrix.from_columns(ring, [[f] for f in x], row_degrees=[0])
    mod = FinitelyPresentedModule(ring, [0], rel)
    assert mod.length() == 2
    assert mod.graded_length() == {0: 1, 1: 1}
    free = FinitelyPresentedModule(ring, [0])
    assert free.length() is INFINITE
    assert ring.dimension() == 2


def test_syzygies_known(r1):
    ring = r1.ring
    mat = RingMatrix.from_columns(
        ring, [[ring.ambient.parse("a")], [ring.ambient.parse("b")]],
        row_degrees=[0])
    syz = syzygies(mat)
    assert (mat @ syz).is_zero()
    cols = {tuple(str(syz.entry(i, j)) for i in range(2))
            for j in range(syz.ncols)}
    assert cols == {("c", "0"), ("0", "c"), ("b", "-a")}


def test_syzygies_composite_vanishes(r2):
    ring = r2.ring
    mat = RingMatrix.from_columns(
        ring, [[ring.ambient.parse("a + c")], [ring.ambient.parse("b + d")]],
        row_degrees=[0])
    syz = syzygies(mat)
    assert (mat @ syz).is_zero()
    assert syzygies(syz).ncols > 0  # second syzygies exist over a quotient


def test_matrix_solve(r1):
    ring = r1.ring
    a = RingMatrix.from_columns(
        ring, [[ring.ambient.parse("a")], [ring.ambient.parse("b")]],
        row_degrees=[0])
    b = RingMatrix.from_columns(ring, [[ring.ambient.parse("a^2 + a*b")]],
                                row_degrees=[0])
    sol = matrix_solve(a, b)
    assert sol is not None
    assert a @ sol == b
    # 1 is not in (a, b): no solution
    none = matrix_solve(a, RingMatrix.identity(ring, (0,)))
    assert none is None


def test_matrix_algebra(r1):
    ring = r1.ring
    m = RingMatrix.from_columns(
        ring, [[ring.ambient.parse("a"), ring.ambient.parse("b")],
               [ring.ambient.parse("0"), ring.ambient.parse("c")]],
        row_degrees=[0, 0])
    i2 = RingMatrix.identity(ring, m.col_degrees)
    assert (m @ i2).entries == m.entries
    neg = -m
    assert neg != m and -neg == m
    assert neg.entries == {k: -v for k, v in m.entries.items()}
    t = m.transpose()
    assert t.entry(0, 1) == ring.reduce(ring.ambient.parse("b"))


def test_length_of_artinian_quotient(amb3):
    ring = QuotientRingSpec(amb3, [amb3.parse("a^2"), amb3.parse("b^2"),
                                   amb3.parse("c^2")])
    assert ring.dimension() == 0
    mod = FinitelyPresentedModule(ring, [0])
    assert mod.length() == 8


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=4))
def test_gb_normal_form_is_zero_on_ideal(exps):
    ring = PolynomialRingSpec(P, ["a", "b"])
    gens = [ring.monomial((i, j)) + ring.monomial((j, i))
            for i, j in exps if (i, j) != (0, 0)]
    gens = [g for g in gens if not g.is_zero() and g.is_homogeneous()]
    if not gens:
        return
    quot = QuotientRingSpec(ring, gens)
    for g in gens:
        assert quot.reduce(g * ring.parse("a + b")).is_zero()


def _count_reducer_builds(monkeypatch):
    builds = []
    real = kernel.reducer_factory

    def counting(ctx, p):
        builds.append((ctx, p))
        return real(ctx, p)

    monkeypatch.setattr(kernel, "reducer_factory", counting)
    return builds


def test_quotient_reduce_builds_no_reducer(monkeypatch, amb3):
    ring = QuotientRingSpec(amb3, [amb3.parse("a*c"), amb3.parse("b*c"),
                                   amb3.parse("c^2")])
    builds = _count_reducer_builds(monkeypatch)
    polys = [amb3.parse(f"a^{i}*c + b*c^2 + a*b^{i % 3}")
             for i in range(1, 21)]
    out = [ring.reduce(f) for f in polys]
    # the ring reduces against the Buchberger store that holds I
    assert builds == []
    assert out == [amb3.parse(f"a*b^{i % 3}") for i in range(1, 21)]


def test_matrix_solve_builds_one_solver_reducer(monkeypatch, amb3):
    ring = QuotientRingSpec(amb3, [amb3.parse("a*c"), amb3.parse("b*c"),
                                   amb3.parse("c^2")])
    a = RingMatrix.from_columns(
        ring, [[amb3.parse("a")], [amb3.parse("b")]], row_degrees=[0])
    b = RingMatrix.from_columns(
        ring, [[amb3.parse("a^2 + a*b")], [amb3.parse("b^3")],
               [amb3.parse("a*b")]], row_degrees=[0])
    builds = _count_reducer_builds(monkeypatch)
    sol = matrix_solve(a, b)
    # the solver's Buchberger store, which it also solves against
    assert len(builds) == 1
    assert sol is not None
    assert a @ sol == b


def test_reduce_packed_keeps_the_basis_view(amb3):
    ring = QuotientRingSpec(amb3, [amb3.parse("a*c"), amb3.parse("b*c"),
                                   amb3.parse("c^2")])
    ctx = ring._ctx
    before = (list(ring.ideal_basis), list(ring._lead_exps),
              ring.ideal_rows([0]))
    # a*c*e_3 + b^2*e_1 meets positions 1..3, and is reduced through the
    # position-0 forms of a*c and b^2: the store stays in position 0
    vec = {ctx.pack(3, (1, 0, 1)): 1, ctx.pack(1, (0, 2, 0)): 1}
    assert ring.reduce_packed(vec) == {ctx.pack(1, (0, 2, 0)): 1}
    assert sorted(ring._reducer.by_pos) == [0]
    assert (ring.ideal_basis, ring._lead_exps, ring.ideal_rows([0])) == before


def test_module_length_runs_no_interreduction(monkeypatch, amb3):
    ring = QuotientRingSpec(amb3, [amb3.parse("a*c"), amb3.parse("c^2")])
    rel = RingMatrix.from_columns(
        ring, [[amb3.parse("a^2")], [amb3.parse("b^3")], [amb3.parse("c")]],
        row_degrees=[0])
    calls = []
    real = _engine.interreduce

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_engine, "interreduce", counting)
    # R/(a^2, b^3, c) has basis 1, a, b, ab, b^2, ab^2
    assert FinitelyPresentedModule(ring, [0], rel).length() == 6
    assert calls == []


# --- sparse read-off against the former dense read-off ----------------------


def packed_to_vector(packed, ctx, ring, rank):
    """The Polynomial entries of a packed vector in positions 0..rank-1."""
    cols = [dict() for _ in range(rank)]
    for key, c in packed.items():
        pos, exp = ctx.unpack(key)
        if pos >= rank:
            raise AlgebraError("packed term outside the stated rank")
        cols[pos][exp] = c
    return [Polynomial(ring, t) for t in cols]


def _rebuilt_basis(solver):
    """The solver's basis the former way: a list of dicts, sorted by degree
    and lead across all positions."""
    basis = [dict(items) for entries in solver.store.by_pos.values()
             for *_, items in entries]
    basis.sort(key=lambda v: (vec_degree(solver.ctx, v, solver.gendegs),
                              max(v)))
    return basis


def _rebuilt_reducer(solver):
    """The former solver reducer: a fresh one filled from _rebuilt_basis."""
    reducer = PyReducer(solver.ctx, solver.p)
    for v in _rebuilt_basis(solver):
        reducer.add(v)
    return reducer


def _dense_syzygy_matrix(solver):
    """The former read-off: every pure syzygy becomes a dense column of
    Polynomials, and every entry is reduced modulo I on its own."""
    ctx, ring = solver.ctx, solver.ring
    cols, degs = [], []
    for v in _rebuilt_basis(solver):
        if max(v) >= solver.floor:
            continue
        shifted = {}
        for key, c in v.items():
            pos, exp = ctx.unpack(key)
            shifted[ctx.pack(pos - solver.nrows, exp)] = c
        col = packed_to_vector(shifted, ctx, ring.ambient, solver.ncols)
        col = [ring.reduce(f) for f in col]
        if all(f.is_zero() for f in col):
            continue
        cols.append(col)
        degs.append(vec_degree(ctx, shifted, solver.matrix.col_degrees))
    return RingMatrix.from_columns(ring, cols, solver.matrix.col_degrees, degs)


def _dense_matrix_solve(a, b):
    """The former solve: dense columns in, dense columns out."""
    solver = ExtendedSolver(a)
    ctx, ring = solver.ctx, solver.ring
    reducer = _rebuilt_reducer(solver)
    cols = []
    for j in range(b.ncols):
        packed = {}
        for i in range(b.nrows):
            for exp, c in b.entry(i, j).terms.items():
                packed[ctx.pack(i, exp)] = c
        nf = reducer.normal_form(packed, stopkey=solver.floor)
        x = [dict() for _ in range(solver.ncols)]
        for key, c in nf.items():
            pos, exp = ctx.unpack(key)
            if pos < solver.nrows:
                return None
            x[pos - solver.nrows][exp] = -c
        cols.append([ring.reduce(Polynomial(ring.ambient, t)) for t in x])
    return RingMatrix.from_columns(ring, cols, a.col_degrees, b.col_degrees)


def _polynomial_compose(a, b):
    """Entries of a @ b the former way: Polynomial products and sums, each
    entry reduced modulo I on its own, zero entries dropped."""
    ring = a.ring
    acc = {}
    for (i, k), f in a.entries.items():
        for (k2, j), g in b.entries.items():
            if k2 == k:
                acc[(i, j)] = acc.get((i, j), ring.ambient.zero()) + f * g
    out = {key: ring.reduce(v) for key, v in acc.items()}
    return {key: v for key, v in out.items() if not v.is_zero()}


@st.composite
def quotient_matrices(draw):
    """(a, c, outside): a small homogeneous matrix a over a small quotient
    ring, a column c with a @ c defined, and a right-hand side outside the
    image of a."""
    nv = draw(st.integers(2, 3))
    p = draw(st.sampled_from([2, 32003]))
    order = draw(st.sampled_from([GREVLEX, LEX]))
    amb = PolynomialRingSpec(p, "abc"[:nv], order)

    def form(deg, max_terms):
        monos = list(combinations_with_replacement(range(nv), deg))
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            m = draw(st.sampled_from(monos))
            exp = tuple(m.count(v) for v in range(nv))
            terms[exp] = terms.get(exp, 0) + draw(st.integers(1, p - 1))
        return Polynomial(amb, terms)

    ideal = [form(2, 3) for _ in range(draw(st.integers(0, 2)))]
    ring = QuotientRingSpec(amb, ideal)
    nrows = draw(st.integers(1, 2))
    ncols = draw(st.integers(1, 3))
    rdeg = [draw(st.integers(0, 1)) for _ in range(nrows)]
    cdeg = [max(rdeg) + draw(st.integers(1, 2)) for _ in range(ncols)]
    a = RingMatrix(ring, nrows, ncols,
                   {(i, j): form(cdeg[j] - rdeg[i], 2)
                    for i in range(nrows) for j in range(ncols)},
                   rdeg, cdeg)
    # columns a @ c lie in the image; e_0 in the degree of row 0 does not,
    # since every entry of a has positive degree
    top = max(cdeg) + 1
    c = RingMatrix(ring, ncols, 1,
                   {(j, 0): form(top - cdeg[j], 2) for j in range(ncols)},
                   cdeg, [top])
    outside = RingMatrix(ring, nrows, 1, {(0, 0): amb.one()}, rdeg, [rdeg[0]])
    return a, c, outside


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=quotient_matrices())
def test_sparse_readoff_matches_dense_reference(case):
    a, c, outside = case
    image = a @ c
    solver = ExtendedSolver(a)
    syz = solver.syzygy_matrix()
    assert syz == _dense_syzygy_matrix(solver)
    assert (a @ syz).is_zero()
    sol = solver.solve(image)
    assert sol is not None
    assert sol == _dense_matrix_solve(a, image)
    assert a @ sol == image
    assert solver.solve(outside) is None
    assert _dense_matrix_solve(a, outside) is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=quotient_matrices())
def test_packed_compose_matches_polynomial_reference(case):
    a, c, outside = case
    syz = syzygies(a)
    rows = RingMatrix.identity(a.ring, a.row_degrees)
    cols = RingMatrix.identity(a.ring, a.col_degrees)
    for left, right in ((a, c), (a, syz), (a, cols), (rows, a)):
        assert (left @ right).entries == _polynomial_compose(left, right)
    for m in (a, c, outside, syz):
        assert m.transpose().transpose() == m
        assert RingMatrix(m.ring, m.nrows, m.ncols, m.entries, m.row_degrees,
                          m.col_degrees) == m


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_products_stop_at_the_packing_limit(order, monkeypatch):
    amb = PolynomialRingSpec(P, ["a", "b"], order)
    ring = QuotientRingSpec(amb, [amb.parse("a*b")])

    def power(e, low):
        return RingMatrix(ring, 1, 1, {(0, 0): amb.monomial((e, 0))}, [low],
                          [low + e])

    left = power(511, 0)
    assert (left @ power(511, 511)).entry(0, 0) == amb.monomial((1022, 0))
    # the limit raises before any reduction: no normal form, no table entry
    right = power(512, 511)
    forms = dict(ring._monomial_forms)
    calls = []
    real = PyReducer.normal_form

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(PyReducer, "normal_form", counting)
    with pytest.raises(AlgebraError, match="degree 1023 exceeds packing limit"):
        left @ right
    assert calls == [] and ring._monomial_forms == forms
    monkeypatch.undo()
    # bases (b^k, a^k): only a^511 * a^511 survives modulo ab
    assert oracle.matrix_slice(left, 1022)[0].tolist() == [[0, 0], [0, 1]]
    with pytest.raises(AlgebraError, match="exceeds packing limit"):
        oracle.matrix_slice(left, 1023)
    # cancelling the unit would put a^500 * a^600 in row 1
    d1 = RingMatrix(ring, 2, 2, {(0, 0): amb.one(), (1, 0): amb.monomial(
        (600, 0)), (0, 1): amb.monomial((500, 0))}, [0, -600], [0, 500])
    cplx = ChainComplex(ring, {0: (0, -600), 1: (0, 500)}, {1: d1})
    with pytest.raises(AlgebraError, match="degree 1100 exceeds packing limit"):
        minimize_with_tracking(cplx)


def test_syzygies_never_reduce_zero(monkeypatch, r2):
    d1 = koszul_complex(r2.sop()).differential(1)
    assert [str(d1.entry(0, j)) for j in range(2)] == ["a + c", "b + d"]
    inputs = []
    real = QuotientRingSpec.reduce

    def counting(self, f):
        inputs.append(f)
        return real(self, f)

    monkeypatch.setattr(QuotientRingSpec, "reduce", counting)
    syz = syzygies(d1)
    monkeypatch.undo()
    assert not [f for f in inputs if f.is_zero()]
    assert syz == _dense_syzygy_matrix(ExtendedSolver(d1))
    assert syz.ncols > 0 and (d1 @ syz).is_zero()


# --- reduction through the ring's monomial forms ----------------------------


def _raw_products(a, b):
    """The columns of a @ b before any reduction modulo I."""
    ctx, p = a.ring._ctx, a.ring.characteristic
    out = []
    for col in b.cols:
        acc = {}
        for k, factor in ctx.split_by_position(col).items():
            for kb, cb in factor.items():
                for ka, ca in a.cols[k].items():
                    key = ka + kb - ctx.one
                    acc[key] = (acc.get(key, 0) + ca * cb) % p
        out.append({key: c for key, c in acc.items() if c})
    return out


def _reference_normal_form(ring, vec):
    """The heap normal form of vec against a reducer that holds I*e_i in
    every position vec meets: one whole-vector reduction."""
    ctx = ring._ctx
    ref = PyReducer(ctx, ring.characteristic)
    for row in ring.ideal_rows(range(max(map(ctx.pos_of, vec)) + 1)):
        ref.add(row)
    return ref.normal_form(vec)


def _assert_reduction_matches_reference(matrices):
    """reduce_packed against the reference on each column times the square
    of each variable, and compose on the products of consecutive matrices;
    returns the number of nonzero normal forms checked."""
    ring = matrices[0].ring
    ctx = ring._ctx
    squares = [ctx.mul_delta(tuple(2 * (i == j) for i in range(ring.nvars)))
               for j in range(ring.nvars)]
    vecs = [{k + sq: c for k, c in col.items()}
            for m in matrices for col in m.cols if col for sq in squares]
    for a, b in zip(matrices, matrices[1:]):
        if a.col_degrees == b.row_degrees:
            raw = _raw_products(a, b)
            vecs += [v for v in raw if v]
            assert (a @ b).cols == [_reference_normal_form(ring, v) if v
                                    else {} for v in raw]
    nonzero = 0
    for vec in vecs:
        want = _reference_normal_form(ring, vec)
        assert ring.reduce_packed(vec) == want
        nonzero += bool(want)
    assert sorted(ring._reducer.by_pos) == [0]
    return nonzero


def test_reduce_packed_matches_a_reducer_over_every_position(
        corpus, random_specs, big_field):
    cases = [sop_differentials(spec, 3)
             for spec in (*corpus.values(), *random_specs[:6])
             if not spec.ring.is_polynomial_ring()]
    big = big_field.ring
    assert big.characteristic == 2 ** 31 - 1
    cases.append([*sop_differentials(big_field, 3), *koszul_complex(
        maximal_ideal_sequence(big)).differentials.values()])
    for matrices in cases:
        assert _assert_reduction_matches_reference(matrices)


# --- Schreyer: no S-pair in the tag block -----------------------------------


def test_the_solver_forms_no_tag_block_pair(monkeypatch, corpus):
    seen = []
    real = _engine.spoly

    def spy(entry1, entry2, lcm, deg, ctx, p):
        seen.append(ctx.pos_of(entry1[1]))
        return real(entry1, entry2, lcm, deg, ctx, p)

    monkeypatch.setattr(_engine, "spoly", spy)
    tagged = 0
    for spec in corpus.values():
        for d in sop_differentials(spec, 3):
            seen.clear()
            solver = ExtendedSolver(d)
            assert all(pos < d.nrows for pos in seen)
            # two entries led in one tag position: a pair left out
            tagged += sum(len(entries) - 1
                          for pos, entries in solver.store.by_pos.items()
                          if pos >= d.nrows)
    assert tagged


def test_syzygies_without_tag_block_pairs_stay_exact(corpus, random_specs):
    for spec in [*corpus.values(), *random_specs[:6]]:
        for d in sop_differentials(spec, 2):
            syz = syzygies(d)
            assert (d @ syz).is_zero()
            cplx = ChainComplex(d.ring, {0: d.row_degrees, 1: d.col_degrees,
                                         2: syz.col_degrees}, {1: d, 2: syz})
            for t in range(9):
                assert oracle.homology_dim_at(cplx, 1, t) == 0, (spec.name, t)
