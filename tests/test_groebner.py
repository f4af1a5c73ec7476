import copy
import sys
from operator import le
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from parres import _engine, kernel, oracle
from parres._engine import PyReducer, groebner_basis, vec_degree
from parres.algebra import AlgebraError, Polynomial, PolynomialRingSpec
from parres.groebner import (INFINITE, ExtendedSolver,
                             FinitelyPresentedModule, QuotientRingSpec,
                             RingMatrix, hilbert_numerator, matrix_solve,
                             series_counts, standard_monomials, syzygies)
from parres.cli import BUNDLED, bundled_ring_text
from parres.complexes import ChainComplex, minimize_with_tracking
from parres.harness import parse_ring_spec
from parres.invariants import maximal_ideal_sequence
from parres.koszul import ParameterSequence, koszul_complex
from parres.resolutions import minimal_free_resolution

from conftest import (QUINTIC, RING_109, STAGE_A, add_entry, bundled_spec,
                      checked_tables, ideal_rows, matrix_of,
                      nonminimal_resolution, packed, sop_differentials)
import polyref
from polyref import add, monic, monomial, mul, sub

P = 32003


@pytest.fixture(scope="module")
def amb3():
    return PolynomialRingSpec(P, ["a", "b", "c"])


def test_buchberger_lex_known():
    ring = PolynomialRingSpec(P, ["a", "b"])
    gens = [ring.parse("a^2 - b^2"), ring.parse("a*b - b^2")]
    gb = QuotientRingSpec(ring, packed(ring, gens)).ideal_basis
    # this pair is already a reduced Groebner basis
    assert sorted(str(g) for g in gb) == \
        sorted(str(monic(g)) for g in gens)
    # here completion genuinely adds the S-polynomial b^3
    plus = QuotientRingSpec(ring, packed(ring, [
        ring.parse("a^2 - b^2"), ring.parse("a*b")])).ideal_basis
    assert any(str(g) == "b^3" for g in plus)


def test_buchberger_normal_form_idempotent(amb3):
    ring = QuotientRingSpec(amb3, packed(amb3, [
        amb3.parse("a*c"), amb3.parse("b*c"), amb3.parse("c^2")]))
    f = amb3.parse("a^2*c + b*c^2 + a*b")
    nf = ring.reduce(f)
    assert ring.reduce(nf) == nf
    assert nf == amb3.parse("a*b")
    assert ring.reduce(amb3.parse("a*c^3")).is_zero()
    assert not ring.reduce(amb3.parse("a*b")).is_zero()


def test_buchberger_membership_random(amb3):
    gens = [amb3.parse("a^2 - b*c"), amb3.parse("b^2 - a*c")]
    ring = QuotientRingSpec(amb3, packed(amb3, gens))
    # any combination of the generators reduces to zero
    f = sub(mul(amb3.parse("a*b"), gens[0]), mul(amb3.parse("c^2"), gens[1]))
    assert ring.reduce(f).is_zero()


def _sections(text):
    """{header: its lines} of a ring-spec text, comments dropped."""
    out, header = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            header = line[1:-1]
            out[header] = []
        elif line:
            out[header].append(line)
    return out


def test_a_ring_from_text_equals_the_ring_from_polynomials(random_texts):
    # parse_ring_spec takes each line straight to packed keys; the same
    # lines read as Polynomials over a fresh ambient ring and packed at
    # the one edge must give the same ring and the same sequences
    texts = [*map(bundled_ring_text, BUNDLED), STAGE_A, QUINTIC, RING_109,
             *random_texts]
    assert len(texts) == 48
    for text in texts:
        spec = parse_ring_spec(text)
        sections = _sections(text)
        amb = PolynomialRingSpec(spec.ring.characteristic,
                                 spec.ring.variables)

        def polys(header):
            return packed(amb, [amb.parse(line)
                                for line in sections.get(header, [])])

        ring = QuotientRingSpec(amb, polys("ideal"))
        assert ring._basis == spec.ring._basis, text
        assert ring._lead_exps == spec.ring._lead_exps, text
        assert repr(ring) == repr(spec.ring)
        assert spec.sops
        for name, x in spec.sops.items():
            y = ParameterSequence(ring, polys(f"sop {name}"))
            assert y.relations.cols == x.relations.cols, (text, name)


def test_quotient_ring_basics(r1):
    ring = r1.ring
    assert ring.dimension() == 2
    assert ring.characteristic == P
    # Hilbert function of R1: 1, 4, then 2 standard monomials... degree 1
    # has a, b, c; c is not in the initial ideal at degree 1
    assert len(ring.packed_staircase(0)) == 1
    assert len(ring.packed_staircase(1)) == 3
    assert len(ring.packed_staircase(2)) == 3
    assert len(ring.packed_staircase(5)) == 6


def test_ring_equality_checks_identity_first(monkeypatch, r1, r2):
    calls = []

    def counting(cls):
        real = cls.__eq__

        def wrapped(self, other):
            calls.append(cls)
            return real(self, other)
        monkeypatch.setattr(cls, "__eq__", wrapped)

    # a list comparison skips identical items, so the ideal bases of one
    # ring call no Polynomial.__eq__ even without the check; no call to the
    # ambient ring's __eq__ shows that it stops at once
    for cls in (Polynomial, PolynomialRingSpec):
        counting(cls)
    ring = r2.ring
    assert ring == ring
    assert calls == []
    assert ring.ambient == ring.ambient
    assert calls == [PolynomialRingSpec]
    # a copy parsed on its own is still equal, ideal basis by ideal basis
    again = parse_ring_spec(bundled_ring_text("r2"), name="r2").ring
    assert again is not ring
    assert again == ring and hash(again) == hash(ring)
    assert Polynomial in calls
    assert r1.ring != r2.ring


def test_reduce_is_normal_form(r1):
    ring = r1.ring
    f = ring.ambient.parse("a*c + a*b")
    assert ring.reduce(f) == ring.ambient.parse("a*b")


def _series(leads, nv):
    return series_counts(hilbert_numerator(leads), nv)


def test_staircase_dimension(amb3):
    # initial ideal (ac, bc, c^2) in 3 vars: faces {a,b} survive; the
    # staircase is the plane of a, b plus c, so the series is
    # 1/(1-t)^2 + t and N = (1-t) + t (1-t)^3
    assert hilbert_numerator([(1, 0, 1), (0, 1, 1), (0, 0, 2)]) == \
        {0: 1, 2: -3, 3: 3, 4: -1}

    def dim(*monomials):
        ideal = [amb3.parse(m) for m in monomials]
        return QuotientRingSpec(amb3, packed(amb3, ideal)).dimension()

    assert dim("a*c", "b*c", "c^2") == 2
    assert dim() == 3
    assert dim("a", "b", "c") == 0


def test_ring_keeps_one_staircase_per_degree(corpus):
    # the leads of I never change, so each degree is enumerated once
    for name, spec in corpus.items():
        ring = spec.ring
        for d in range(13):
            got = ring.packed_staircase(d)
            assert isinstance(got, tuple), name
            assert [ring._ctx.unpack(k) for k in got] == [
                (0, exp) for exp in standard_monomials(
                    ring._lead_exps, ring.nvars, d)], (name, d)
            assert ring.packed_staircase(d) is got, (name, d)


def test_no_standard_monomials_below_degree_zero():
    # on one variable too, a negative degree has no monomials
    amb = PolynomialRingSpec(7, ["a"])
    ring = QuotientRingSpec(amb, packed(amb, [amb.parse("a^3")]))
    assert standard_monomials([], 1, -1) == []
    assert standard_monomials([], 3, -1) == []
    for d in (-1, -2):
        assert ring.packed_staircase(d) == ()
    assert ring.packed_staircase(2) == (ring._ctx.pack(0, (2,)),)
    assert ring.packed_staircase(3) == ()
    # so a free module's basis takes nothing from a generator above the
    # degree
    keys = oracle.free_basis(ring, (0, 2), 1)
    assert [ring._ctx.unpack(k) for k in keys] == [(0, (1,))]


def test_staircase_count_matches_enumeration(amb3):
    leads = [(2, 0, 0), (0, 3, 0), (0, 0, 1)]
    by_degree = [len(standard_monomials(leads, 3, d)) for d in range(10)]
    assert _series(leads, 3) == dict(enumerate(by_degree[:4])) \
        == {0: 1, 1: 2, 2: 2, 3: 1}
    assert not any(by_degree[4:])
    # no pure power of c: infinitely many standard monomials
    assert _series(leads[:2], 3) is INFINITE

    ring = QuotientRingSpec(amb3, [])
    f = amb3.parse
    zero, one = f("0"), f("1")
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
    assert 0 not in num.values()
    # N has degree at most that of the lcm of the generators, so the
    # series through that degree determines it
    top = sum(max((exp[i] for exp in leads), default=0) for i in range(nv))
    assert all(0 <= d <= top for d in num)
    series = [num.get(d, 0) for d in range(top + 1)]
    for _ in range(nv):  # times 1/(1-t): partial sums
        series = [sum(series[:k + 1]) for k in range(len(series))]
    counts = [len(standard_monomials(leads, nv, d)) for d in range(top + 1)]
    assert series == counts

    # finite exactly when every variable has a pure power in L, and then
    # every standard monomial lies below degree top
    finite = any(not any(exp) for exp in leads) or all(
        any(exp[i] and sum(exp) == exp[i] for exp in leads)
        for i in range(nv))
    got = series_counts(num, nv)
    if finite:
        assert not standard_monomials(leads, nv, top + 1)
        assert got == {d: c for d, c in enumerate(counts) if c}
    else:
        assert got is INFINITE

    if all(any(exp) for exp in leads):
        amb = PolynomialRingSpec(P, [f"x{i}" for i in range(nv)])
        ring = QuotientRingSpec(
            amb, packed(amb, [monomial(amb, exp) for exp in leads]))
        assert ring.hilbert_numerator() == num
        assert ring.dimension() == _reference_dimension(leads, nv)
    else:
        assert num == {}


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
    # second syzygies exist over a quotient
    assert syzygies(syz).ncols > 0


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
    assert neg.entries == {k: polyref.neg(v) for k, v in m.entries.items()}
    t = m.transpose()
    assert t.entry(0, 1) == ring.reduce(ring.ambient.parse("b"))
    # from_columns reduces each entry modulo I
    g = ring.ideal_basis[0]
    h = ring.ambient.parse(f"b^{g.degree()}")
    u = RingMatrix.from_columns(ring, [[add(g, h)]], row_degrees=[0])
    assert u.entry(0, 0) == ring.reduce(h) != add(g, h)
    assert u == RingMatrix.from_columns(ring, [[ring.reduce(h)]],
                                        row_degrees=[0])


def test_length_of_artinian_quotient(amb3):
    ring = QuotientRingSpec(amb3, packed(amb3, [
        amb3.parse("a^2"), amb3.parse("b^2"), amb3.parse("c^2")]))
    assert ring.dimension() == 0
    mod = FinitelyPresentedModule(ring, [0])
    assert mod.length() == 8


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=4))
def test_gb_normal_form_is_zero_on_ideal(exps):
    ring = PolynomialRingSpec(P, ["a", "b"])
    # a^i b^j + a^j b^i is homogeneous, and nonzero as p is odd
    gens = [ring.parse(f"a^{i}*b^{j} + a^{j}*b^{i}")
            for i, j in exps if (i, j) != (0, 0)]
    if not gens:
        return
    quot = QuotientRingSpec(ring, packed(ring, gens))
    for g in gens:
        assert quot.reduce(ring.parse(f"({g})*(a + b)")).is_zero()


def _count_reducer_builds(monkeypatch):
    builds = []
    real = kernel.reducer_factory

    def counting(ctx, p):
        builds.append((ctx, p))
        return real(ctx, p)

    monkeypatch.setattr(kernel, "reducer_factory", counting)
    return builds


def test_quotient_reduce_builds_no_reducer(monkeypatch, amb3):
    ring = QuotientRingSpec(amb3, packed(amb3, [
        amb3.parse("a*c"), amb3.parse("b*c"), amb3.parse("c^2")]))
    builds = _count_reducer_builds(monkeypatch)
    polys = [amb3.parse(f"a^{i}*c + b*c^2 + a*b^{i % 3}")
             for i in range(1, 21)]
    out = [ring.reduce(f) for f in polys]
    # the ring reduces against the Buchberger store that holds I
    assert builds == []
    assert out == [amb3.parse(f"a*b^{i % 3}") for i in range(1, 21)]


def test_matrix_solve_builds_one_solver_reducer(monkeypatch, amb3):
    ring = QuotientRingSpec(amb3, packed(amb3, [
        amb3.parse("a*c"), amb3.parse("b*c"), amb3.parse("c^2")]))
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
    ring = QuotientRingSpec(amb3, packed(amb3, [
        amb3.parse("a*c"), amb3.parse("b*c"), amb3.parse("c^2")]))
    ctx = ring._ctx
    before = (list(ring.ideal_basis), list(ring._lead_exps),
              ideal_rows(ring, [0]))
    # a*c*e_3 + b^2*e_1 meets positions 1..3, and is reduced through the
    # position-0 forms of a*c and b^2: the store stays in position 0
    vec = {ctx.pack(3, (1, 0, 1)): 1, ctx.pack(1, (0, 2, 0)): 1}
    assert ring.reduce_packed(vec) == {ctx.pack(1, (0, 2, 0)): 1}
    assert sorted(ring._reducer.by_pos) == [0]
    assert (ring.ideal_basis, ring._lead_exps, ideal_rows(ring, [0])) == before


def test_module_length_runs_no_interreduction(monkeypatch, amb3):
    ring = QuotientRingSpec(amb3, packed(amb3, [amb3.parse("a*c"),
                                                amb3.parse("c^2")]))
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
    """The former solver reducer: a fresh one filled with the I*F rows of
    every position, leading and tag block, which its store keeps implicit
    and reduces by first, and then from _rebuilt_basis."""
    reducer = PyReducer(solver.ctx, solver.p)
    for v in ideal_rows(solver.ring,
                        range(solver.nrows + solver.matrix.ncols)) + \
            _rebuilt_basis(solver):
        add_entry(reducer, v)
    return reducer


def _dense_syzygy_matrix(solver):
    """The former read-off: every pure syzygy becomes a dense column of
    Polynomials, and every entry is reduced modulo I on its own."""
    ctx, ring = solver.ctx, solver.ring
    cols, degs = [], []
    for v in _rebuilt_basis(solver):
        if ctx.pos_of(max(v)) < solver.nrows:
            continue
        shifted = {}
        for key, c in v.items():
            pos, exp = ctx.unpack(key)
            shifted[ctx.pack(pos - solver.nrows, exp)] = c
        col = packed_to_vector(shifted, ctx, ring.ambient,
                               solver.matrix.ncols)
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
        nf = reducer.normal_form(packed)
        x = [dict() for _ in range(solver.matrix.ncols)]
        for key, c in nf.items():
            pos, exp = ctx.unpack(key)
            if pos < solver.nrows:
                return None
            x[pos - solver.nrows][exp] = -c
        cols.append([ring.reduce(Polynomial(ring.ambient, t)) for t in x])
    return RingMatrix.from_columns(ring, cols, a.col_degrees, b.col_degrees)


def _polynomial_compose(a, b):
    """Entries of a @ b the former way: products and sums in the
    exponent-tuple reference, each entry reduced modulo I on its own, zero
    entries dropped."""
    ring = a.ring
    zero = Polynomial(ring.ambient, {})
    acc = {}
    for (i, k), f in a.entries.items():
        for (k2, j), g in b.entries.items():
            if k2 == k:
                acc[(i, j)] = add(acc.get((i, j), zero), mul(f, g))
    out = {key: ring.reduce(v) for key, v in acc.items()}
    return {key: v for key, v in out.items() if not v.is_zero()}


@st.composite
def quotient_matrices(draw):
    """(a, c, outside): a small homogeneous matrix a over a small quotient
    ring, a column c with a @ c defined, and a right-hand side outside the
    image of a."""
    nv = draw(st.integers(2, 3))
    p = draw(st.sampled_from([2, 32003]))
    amb = PolynomialRingSpec(p, "abc"[:nv])

    def form(deg, max_terms):
        monos = list(combinations_with_replacement(range(nv), deg))
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            m = draw(st.sampled_from(monos))
            exp = tuple(m.count(v) for v in range(nv))
            terms[exp] = terms.get(exp, 0) + draw(st.integers(1, p - 1))
        return Polynomial(amb, terms)

    ideal = [form(2, 3) for _ in range(draw(st.integers(0, 2)))]
    ring = QuotientRingSpec(amb, packed(amb, ideal))
    nrows = draw(st.integers(1, 2))
    ncols = draw(st.integers(1, 3))
    rdeg = [draw(st.integers(0, 1)) for _ in range(nrows)]
    cdeg = [max(rdeg) + draw(st.integers(1, 2)) for _ in range(ncols)]
    a = matrix_of(ring, {(i, j): form(cdeg[j] - rdeg[i], 2)
                         for i in range(nrows) for j in range(ncols)},
                  rdeg, cdeg)
    # columns a @ c lie in the image; e_0 in the degree of row 0 does not,
    # since every entry of a has positive degree
    top = max(cdeg) + 1
    c = matrix_of(ring, {(j, 0): form(top - cdeg[j], 2)
                         for j in range(ncols)}, cdeg, [top])
    outside = matrix_of(ring, {(0, 0): amb.parse("1")}, rdeg, [rdeg[0]])
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
        assert matrix_of(m.ring, m.entries, m.row_degrees,
                         m.col_degrees) == m


def test_a_ring_with_no_ideal_takes_the_shared_reduction_path(regular):
    # I = 0 keeps an empty store, every monomial form is True, and reduce
    # packs its argument like any other ring, so the packing limit holds
    ring = regular.ring
    amb, ctx = ring.ambient, ring._ctx
    assert ring._basis == [] and ring.is_polynomial_ring()
    f = amb.parse("a^1021*b + 3*b^1022 + a*b")
    assert ring.reduce(f) == f
    vec = {ctx.pack(2, (1, 1)): 4}
    assert ring.reduce_packed(vec) == vec
    assert ring._monomial_forms[ctx.pack(0, (1, 1))] is True
    with pytest.raises(AlgebraError, match="degree 1023 exceeds packing limit"):
        ring.reduce(Polynomial(amb, {(1023, 0): 1}))


def test_products_stop_at_the_packing_limit(monkeypatch):
    amb = PolynomialRingSpec(P, ["a", "b"])
    ring = QuotientRingSpec(amb, packed(amb, [amb.parse("a*b")]))

    def power(e, low):
        return matrix_of(ring, {(0, 0): amb.parse(f"a^{e}")}, [low],
                         [low + e])

    left = power(511, 0)
    assert (left @ power(511, 511)).entry(0, 0) == amb.parse("a^1022")
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
    # the bound is the top term of each left column, not its lowest row's
    # degree: row 1 (degree -600) is empty, so a times a^600 is made
    spread = matrix_of(ring, {(0, 0): amb.parse("a")}, [0, -600], [1])
    assert (spread @ power(600, 1)).entry(0, 0) == amb.parse("a^601")
    # bases (b^k, a^k): only a^511 * a^511 survives modulo ab
    assert oracle.matrix_slice(left, 1022)[0] == [{}, {1: 1}]
    with pytest.raises(AlgebraError, match="exceeds packing limit"):
        oracle.matrix_slice(left, 1023)
    # cancelling the unit would put a^500 * a^600 in row 1
    d1 = matrix_of(ring, {(0, 0): amb.parse("1"), (1, 0): amb.parse("a^600"),
                          (0, 1): amb.parse("a^500")}, [0, -600], [0, 500])
    cplx = ChainComplex(ring, {0: (0, -600), 1: (0, 500)}, {1: d1},
                        check=True)
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
    for row in ideal_rows(ring, range(max(map(ctx.pos_of, vec)) + 1)):
        add_entry(ref, row)
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


# --- the product-and-reduce kernel on real differentials ---------------------


def _rescaled_rows(m):
    """m with the coefficients of row i times i + 1, so that a product with
    it is no composite of a complex and does not vanish."""
    p, pos_of = m.ring.characteristic, m.ring._ctx.pos_of
    cols = [{k: v for k, c in col.items() if (v := c * (pos_of(k) + 1) % p)}
            for col in m.cols]
    return RingMatrix(m.ring, cols, m.row_degrees, m.col_degrees)


def test_products_match_polynomial_compose_on_resolutions(
        corpus, random_specs, big_field):
    # the 5 bundled rings (regular has I = 0: every monomial form is True),
    # 6 catalogue rings and a p = 2^31 - 1 ring
    nonzero = 0
    for spec in (*corpus.values(), *random_specs[:6], big_field):
        cplx = nonminimal_resolution(spec, 3)
        for n, a in cplx.differentials.items():
            b = cplx.differentials.get(n + 1)
            if b is None:
                continue
            assert (a @ b).is_zero() and not _polynomial_compose(a, b)
            got = (a @ _rescaled_rows(b)).entries
            assert got == _polynomial_compose(a, _rescaled_rows(b))
            nonzero += len(got)
    assert nonzero


# --- Schreyer: no S-pair in the tag block -----------------------------------


def _on_each_spair(monkeypatch, record):
    """Call record(reducer, pair, S-vector) for each S-pair that
    buchberger reduces, in the order reduced: a spy on the reducer's normal
    form reads the pair record the loop popped, (entry, entry, lcm word,
    lcm degree), from its caller's frame, and the S-vector is the vector
    the loop built from it."""
    real = PyReducer.normal_form
    loop = _engine.buchberger.__code__

    def spy(reducer, vec):
        frame = sys._getframe(1)
        if frame.f_code is loop and type(frame.f_locals["item"]) is tuple:
            record(reducer, frame.f_locals["item"], dict(vec))
        return real(reducer, vec)

    monkeypatch.setattr(PyReducer, "normal_form", spy)


def test_the_solver_forms_no_tag_block_pair(monkeypatch, corpus):
    seen = []
    _on_each_spair(monkeypatch, lambda reducer, pair, s: seen.append(
        reducer.ctx.pos_of(pair[0][1])))
    tagged = pairs = 0
    for spec in corpus.values():
        for d in sop_differentials(spec, 3):
            seen.clear()
            solver = ExtendedSolver(d)
            assert all(pos < d.nrows for pos in seen)
            pairs += len(seen)
            # two entries led in one tag position: a pair left out
            tagged += sum(len(entries) - 1
                          for pos, entries in solver.store.by_pos.items()
                          if pos >= d.nrows)
    assert tagged and pairs


def test_syzygies_without_tag_block_pairs_stay_exact(corpus, random_specs):
    for spec in [*corpus.values(), *random_specs[:6]]:
        for d in sop_differentials(spec, 2):
            syz = syzygies(d)
            assert (d @ syz).is_zero()
            cplx = ChainComplex(d.ring, {0: d.row_degrees, 1: d.col_degrees,
                                         2: syz.col_degrees}, {1: d, 2: syz},
                                  check=True)
            for t in range(9):
                assert oracle.homology_dim_at(cplx, 1, t) == 0, (spec.name, t)


# --- Groebner bases over R: I kept implicit in the reducer ------------------


def _reference_store(vecs, ring, gendegs, nlead):
    """The former store: Buchberger on `vecs` plus the I*F rows of the
    positions < nlead, with no implicit I."""
    return groebner_basis(vecs + ideal_rows(ring, range(nlead)), ring._ctx,
                          ring.characteristic, gendegs, nlead, None)


def _reference_numerator(module):
    """hilbert_numerator of a module from the leads of _reference_store,
    with no zero coefficient."""
    ctx, n = module.ring._ctx, len(module.gen_degrees)
    store = _reference_store(module.relations.cols, module.ring,
                             module.gen_degrees, n)
    out = {}
    for pos, base in enumerate(module.gen_degrees):
        exps = [ctx.exp_of(e[1]) for e in store.by_pos.get(pos, ())]
        for t, c in hilbert_numerator(exps).items():
            out[base + t] = out.get(base + t, 0) + c
    return {t: c for t, c in out.items() if c}


def _sop_powers(spec, parts):
    """x, x^2 and x^3 of a fresh copy x of the spec's reference sop, and
    their prefixes: when parts, x's own parts other than x, which take
    depth R from grade(x); else copies made by the constructor, which are
    roots and derive no cokernel."""
    x = ParameterSequence(spec.ring,
                          packed(spec.ring.ambient, spec.sop().elements))
    out = []
    for n in (1, 2, 3):
        y = x.power(n)
        out += [y.prefix(k) if parts
                else ParameterSequence(x.ring, packed(x.ring.ambient,
                                                      y.elements[:k]))
                for k in range(1, y.count + 1)]
    return [y for y in out if y is not x]


def _checked_cokernels(specs, parts):
    """Check every cokernel numerator of the Koszul complexes of
    _sop_powers against _reference_numerator; returns the number checked
    and the number derived from the depth of R."""
    checked = derived = 0
    for spec in specs:
        d = spec.ring.dimension()
        for y in _sop_powers(spec, parts):
            root = y._root
            for p in range(1, y.count + 1):
                if p == 1:
                    module = y.quotient_module()
                else:
                    cplx = koszul_complex(y)
                    module = FinitelyPresentedModule(
                        spec.ring, cplx.module(p - 1), cplx.differential(p))
                assert y._cokernel(p) == _reference_numerator(module)
                checked += 1
                derived += (root is not y and root.is_sop()
                            and p > d - root.grade())
            # the homology numerators summed so far keep no zero either
            assert all(0 not in num.values()
                       for z in (y, root) for num in z._numerators.values())
    return checked, derived


def test_koszul_cokernels_match_buchberger_with_the_ideal_rows(
        corpus, random_specs):
    checked, derived = _checked_cokernels(
        (*corpus.values(), *random_specs[:6]), False)
    assert checked > 100 and derived == 0


def test_derived_koszul_cokernels_match_buchberger_with_the_ideal_rows(
        corpus, random_specs):
    # the same cokernels for the parts of the sop, which take depth R from
    # its grade: those that the depth forces are derived, with no basis, and
    # must equal the Buchberger numerator as dicts; the sop itself derives
    # none, so its 22 cokernels are left out
    checked, derived = _checked_cokernels(
        (*corpus.values(), *random_specs[:6]), True)
    assert checked > 80 and derived > checked // 2


def _reference_solver(solver):
    """The solver reading a store built the former way."""
    ref = copy.copy(solver)
    cols = [{**col, solver.ctx.move(solver.ctx.one, solver.nrows + j): 1}
            for j, col in enumerate(solver.matrix.cols)]
    ref.store = _reference_store(cols, solver.ring, solver.gendegs,
                                 solver.nrows)
    return ref


def test_solver_answers_match_buchberger_with_the_ideal_rows(
        corpus, random_specs):
    solved = refused = 0
    for spec in (*corpus.values(), *random_specs[:6]):
        ring = spec.ring
        gens = [ring.ambient.gen(v) for v in ring.variables]
        x = spec.sop()
        for d in [*koszul_complex(x).differentials.values(),
                  *koszul_complex(x.power(2)).differentials.values()]:
            solver = ExtendedSolver(d)
            ref = _reference_solver(solver)
            # d times each variable on the diagonal lies in the image; each
            # variable in a single target row need not
            inside = [d @ matrix_of(ring,
                                    {(j, j): v for j in range(d.ncols)},
                                    d.col_degrees,
                                    [c + 1 for c in d.col_degrees])
                      for v in gens]
            rows = [matrix_of(ring, {(i, 0): v}, d.row_degrees,
                              [d.row_degrees[i] + 1])
                    for v in gens for i in range(d.nrows)]
            for b in inside + rows:
                got, want = solver.solve(b), ref.solve(b)
                if got is None:
                    assert want is None
                    refused += 1
                else:
                    # an answer over R is only fixed up to ker d: the
                    # tag parts of the store follow its pair history
                    assert d @ got == b == d @ want
                    solved += 1
            assert solver.syzygy_matrix().ncols <= ref.syzygy_matrix().ncols
    assert solved > 50 and refused > 50


def _pairs_against_the_ideal(monkeypatch, ring):
    """The (position, S-vector) of each pair against an entry of I's basis,
    in the order reduced."""
    seen = []

    def record(reducer, pair, s):
        if any(pair[1] is g for g in ring._basis):
            seen.append((reducer.ctx.pos_of(pair[0][1]), s))

    _on_each_spair(monkeypatch, record)
    return seen


def test_a_lead_that_only_a_pair_against_the_ideal_makes(monkeypatch):
    amb = PolynomialRingSpec(P, ["a", "b"])
    ring = QuotientRingSpec(amb, packed(amb, [amb.parse("a^2")]))
    ctx = ring._ctx
    f = amb.parse
    rel = RingMatrix.from_columns(ring, [[f("a + b")]], row_degrees=[0])
    module = FinitelyPresentedModule(ring, [0], rel)
    seen = _pairs_against_the_ideal(monkeypatch, ring)
    # R/(a + b) = k[b]/(b^2): the lead b^2 comes from the S-vector
    # a (a + b) - a^2 = ab, which a + b takes to -b^2
    assert module._initial_leads() == {0: [(2, 0), (1, 0), (0, 2)]}
    assert seen == [(0, {ctx.pack(0, (1, 1)): 1})]
    assert module.length() == 2
    assert module.hilbert_numerator() == _reference_numerator(module)
    # over R, b^2 = (a + b)(b - a), and b is no multiple of a + b
    rhs = RingMatrix.from_columns(ring, [[f("b^2")]], row_degrees=[0])
    assert matrix_solve(rel, rhs) == RingMatrix.from_columns(
        ring, [[f("b - a")]], row_degrees=[1])
    assert matrix_solve(rel, RingMatrix.from_columns(
        ring, [[f("b")]], row_degrees=[0])) is None


def test_an_ideal_element_retires_once_a_lead_divides_it(monkeypatch):
    amb = PolynomialRingSpec(P, ["a", "b", "c"])
    ring = QuotientRingSpec(amb, packed(amb, [amb.parse("a^2*b")]))
    ctx = ring._ctx
    f = amb.parse
    # position 0: the lead b divides a^2 b at once, and the S-vector a^2 c
    # is a new lead that shares a with a^2 b; position 1: the lead ac does
    # not divide a^2 b, ab + c^2 then does, and b^2 c shares b with it
    rel = matrix_of(ring, {(0, 0): f("b + c"), (1, 1): f("a*c"),
                           (1, 2): f("a*b + c^2"), (1, 3): f("b^2*c")},
                    [0, 0], [1, 2, 2, 3])
    module = FinitelyPresentedModule(ring, [0, 0], rel)
    seen = _pairs_against_the_ideal(monkeypatch, ring)
    leads = module._initial_leads()
    # one pair in position 0, two in position 1, and none after the lead
    # that divides a^2 b: neither a^2 c e_0 nor b^2 c e_1 meets it.  The
    # pairs pop by degree: the pair of ac e_1, at a^2 bc, comes last
    assert seen == [(0, {ctx.pack(0, (2, 0, 1)): 1}),
                    (1, {ctx.pack(1, (1, 0, 2)): 1}),
                    (1, {})]
    assert (2, 0, 1) in leads[0] and (0, 2, 1) in leads[1]
    assert module.hilbert_numerator() == _reference_numerator(module)


def test_the_solver_reduces_modulo_the_ideal_in_every_position():
    amb = PolynomialRingSpec(P, ["a", "b"])
    ring = QuotientRingSpec(amb, packed(amb, [amb.parse("a^2")]))
    ctx = ring._ctx
    # (a + b) e_0 + e_1 and b^2 e_0 - a e_1 + b e_1; their S-pair reduces to
    # a^2 e_1, which lies in I times the tag block and so reduces to 0: the
    # store holds no tag-block entry, and a + b is a nonzerodivisor on R
    solver = ExtendedSolver(RingMatrix.from_columns(
        ring, [[amb.parse("a + b")]], row_degrees=[0]))
    assert sorted(solver.store.by_pos) == [0]
    assert [[(ctx.unpack(k), c) for k, c in items]
            for *_, items in solver.store.by_pos[0]] == [
        [((0, (1, 0)), 1), ((0, (0, 1)), 1), ((1, (0, 0)), 1)],
        [((0, (0, 2)), 1), ((1, (1, 0)), P - 1), ((1, (0, 1)), 1)]]
    assert solver.syzygy_matrix().ncols == 0
    # a^2 e_0 and a^2 e_1 alike reduce to 0; a standard tag term stays
    lead, tag, kept = (ctx.pack(0, (2, 0)), ctx.pack(1, (2, 0)),
                       ctx.pack(1, (0, 3)))
    assert solver.store.normal_form({lead: 1, tag: 3}) == {}
    assert solver.store.normal_form({tag: 3, kept: 2}) == {kept: 2}
    # every stored term, in the tag block too, is standard modulo I
    assert all(ring.monomial_form(k & ctx.monomask) is True
               for entries in solver.store.by_pos.values()
               for *_, items in entries for k, _ in items)


def _fresh(spec):
    """The spec's ring built anew, so that its tables start empty, and the
    spec's reference sop over it."""
    amb = spec.ring.ambient
    ring = QuotientRingSpec(amb, packed(amb, spec.ring.ideal_basis))
    return ring, ParameterSequence(ring, packed(amb, spec.sop().elements))


def test_module_runs_record_every_monomial_they_reduce_modulo_the_ideal(
        monkeypatch, corpus, random_specs):
    # the lead of each normal form a run over R takes, in any position, is
    # reduced modulo I first
    leads = []
    real = PyReducer.normal_form

    def spy(self, vec):
        if vec and self.ring is not None:
            leads.append(max(vec) & self.ctx.monomask)
        return real(self, vec)

    monkeypatch.setattr(PyReducer, "normal_form", spy)
    met = 0
    for spec in (*corpus.values(), *random_specs[:6]):
        ring, x = _fresh(spec)
        leads.clear()
        for y in (x, x.power(2)):
            for k in range(1, y.count + 1):
                prefix = ParameterSequence(
                    ring, packed(ring.ambient, y.elements[:k]))
                for p in range(k + 1):
                    prefix.length(p)
        checked_tables(ring)
        for key in set(leads):
            exp = ring._ctx.exp_of(key)
            if any(all(map(le, lead, exp)) for lead in ring._lead_exps):
                assert ring._monomial_forms[key] is not True
                met += 1
    assert met > 20


def test_each_monomial_form_is_built_once_per_ring(monkeypatch, r2):
    ring, x = _fresh(r2)
    built = []
    real = ring._reducer.normal_form

    def spy(vec):
        built.extend(vec)
        return real(vec)

    monkeypatch.setattr(ring._reducer, "normal_form", spy)
    x2 = x.power(2)
    x.quotient_module().hilbert_numerator()
    x2.quotient_module().hilbert_numerator()
    after_runs = len(built)
    rel = x2.quotient_module().relations
    rel @ RingMatrix.from_columns(ring, [list(x2.elements)],
                                  row_degrees=list(x2.degrees()))
    assert 0 < after_runs < len(built)
    # one build per non-standard monomial met, none for a standard one
    assert sorted(built) == sorted(set(built))
    assert sorted(built) == sorted(k for k, form in
                                   ring._monomial_forms.items()
                                   if form is not True)


# --- every stored and read-off term is standard modulo I ---------------------


def _all_standard(ring, vecs):
    """Whether every key of the packed vectors vecs is standard modulo I."""
    mask = ring._ctx.monomask
    return all(ring.monomial_form(k & mask) is True
               for vec in vecs for k in vec)


def test_solver_stores_and_answers_are_standard_modulo_the_ideal(monkeypatch):
    # RingMatrix does not check that its columns are reduced: the solver
    # read-off untags its store's entries as they are, so every stored term,
    # in the tag block too, must already be standard modulo I
    syzygy_calls, solve_calls = [], []
    real_syz, real_solve = ExtendedSolver.syzygy_matrix, ExtendedSolver.solve

    def syz_spy(self):
        out = real_syz(self)
        syzygy_calls.append((self, out))
        return out

    def solve_spy(self, b):
        out = real_solve(self, b)
        solve_calls.append((self, b, out))
        return out

    monkeypatch.setattr(ExtendedSolver, "syzygy_matrix", syz_spy)
    monkeypatch.setattr(ExtendedSolver, "solve", solve_spy)
    specs = [bundled_spec(name) for name in BUNDLED]
    specs += [parse_ring_spec(text) for text in (STAGE_A, QUINTIC, RING_109)]
    tag_terms = 0
    for spec in specs:
        x = spec.sop()
        minimal_free_resolution(x.quotient_module(), 3)
        minimal_free_resolution(x.homology(1), 3)
        for y in (x, x.power(2)):
            for p in range(1, y.count + 1):
                y.homology(p)
    minimal_free_resolution(
        maximal_ideal_sequence(specs[-1].ring).quotient_module(), 3)
    solvers = {id(s): s for s, *_ in syzygy_calls + solve_calls}
    for solver in solvers.values():
        ring = solver.ring
        for entries in solver.store.by_pos.values():
            vecs = [dict(items) for *_, items in entries]
            assert _all_standard(ring, vecs)
            tag_terms += sum(solver.ctx.pos_of(k) >= solver.nrows
                             for vec in vecs for k in vec)
    for solver, syz in syzygy_calls:
        assert _all_standard(solver.ring, syz.cols)
        assert (solver.matrix @ syz).is_zero()
    for solver, b, x in solve_calls:
        assert x is not None and _all_standard(solver.ring, x.cols)
        assert solver.matrix @ x == b
    assert len(solvers) > 70 and len(solve_calls) > 15 and tag_terms > 2000
