"""Packed-key representation and interreduction."""

from itertools import combinations_with_replacement, permutations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from parres.algebra import (EXP_BITS, EXP_MASK, MAX_DEGREE, PackContext,
                            check_degree, grevlex_key)
from parres._engine import PyReducer, groebner_basis, interreduce, vec_degree
from parres import _engine, kernel
from parres.groebner import ExtendedSolver
from conftest import solver_stores, sop_differentials

exps3 = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))


def _divides(a, b):
    """Tuple reference for divisibility of exponent vectors."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


@settings(max_examples=80, deadline=None)
@given(pos=st.integers(0, 50), exp=exps3)
def test_pack_roundtrip(pos, exp):
    ctx = PackContext(3)
    assert ctx.unpack(ctx.pack(pos, exp)) == (pos, exp)
    assert ctx.pos_of(ctx.pack(pos, exp)) == pos
    assert ctx.mono_degree(ctx.pack(pos, exp)) == sum(exp)


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_key_order_matches_monomial_order(nv, data):
    ctx = PackContext(nv)
    exps = st.tuples(*[st.integers(0, 8)] * nv)
    e1, e2 = data.draw(exps), data.draw(exps)
    k1, k2 = ctx.pack(0, e1), ctx.pack(0, e2)
    assert (k1 > k2) == (grevlex_key(e1) > grevlex_key(e2))
    assert (k1 == k2) == (grevlex_key(e1) == grevlex_key(e2))


def test_position_dominates_term_order():
    ctx = PackContext(3)
    # lower position is larger regardless of the monomial
    assert ctx.pack(0, (0, 0, 0)) > ctx.pack(1, (9, 9, 9))


@settings(max_examples=80, deadline=None)
@given(exp=exps3, q=exps3)
def test_mul_delta_is_key_addition(exp, q):
    ctx = PackContext(3)
    assert ctx.pack(2, exp) + ctx.mul_delta(q) == \
        ctx.pack(2, tuple(a + b for a, b in zip(exp, q)))


@settings(max_examples=60, deadline=None)
@given(exp=exps3, q=exps3, pos=st.integers(0, 100_000))
def test_products_and_moves_are_key_arithmetic(exp, q, pos):
    ctx = PackContext(3)
    product = tuple(a + b for a, b in zip(exp, q))
    assert ctx.pack(pos, exp) + ctx.pack(0, q) - ctx.one == \
        ctx.pack(pos, product)
    assert ctx.move(ctx.pack(7, exp), pos) == ctx.pack(pos, exp)


def test_pack_and_move_keep_the_limits():
    from parres.algebra import AlgebraError
    ctx = PackContext(3)
    # positions have no limit, and a lower position still compares larger
    positions = (4095, 4096, 100_000)
    for pos in positions:
        key = ctx.pack(pos, (9, 9, 9))
        assert ctx.unpack(key) == (pos, (9, 9, 9))
        assert ctx.move(ctx.one, pos) == ctx.pack(pos, (0, 0, 0))
    keys = [ctx.pack(pos, exp) for pos in positions
            for exp in ((9, 9, 9), (0, 0, 0))]
    assert keys == sorted(keys, reverse=True)
    # a packed term obeys the same degree limit as a product of terms
    assert ctx.unpack(ctx.pack(4095, (1000, 20, 2))) == (4095, (1000, 20, 2))
    with pytest.raises(AlgebraError, match="degree 1023 exceeds packing"):
        ctx.pack(0, (1000, 20, 3))


def test_key_additions_check_the_degree_of_every_product():
    from parres.algebra import AlgebraError
    ctx = PackContext(2)
    # a lead of degree 1 whose tail in position 1 has degree 1000
    tail = ctx.pack(1, (0, 1000))
    reducer = PyReducer(ctx, 101)
    reducer.add({ctx.pack(0, (1, 0)): 1, tail: 1})
    assert reducer.normal_form({ctx.pack(0, (23, 0)): 1}) == {
        ctx.pack(1, (22, 1000)): 100}
    with pytest.raises(AlgebraError, match="degree 1023 exceeds packing"):
        reducer.normal_form({ctx.pack(0, (24, 0)): 1})
    # the S-pair of these two multiplies the first by b^30
    vecs = [{ctx.pack(0, (1, 0)): 1, tail: 1}, {ctx.pack(0, (0, 30)): 1}]
    with pytest.raises(AlgebraError, match="degree 1030 exceeds packing"):
        groebner_basis(vecs, ctx, 101, (0, -999), 2, None)


def test_vec_degree_detects_inhomogeneity():
    from parres.algebra import NotHomogeneousError
    ctx = PackContext(2)
    vec = {ctx.pack(0, (1, 0)): 1, ctx.pack(0, (2, 0)): 1}
    with pytest.raises(NotHomogeneousError):
        vec_degree(ctx, vec, [0])


def test_every_reducer_comes_from_the_factory(monkeypatch):
    ctx = PackContext(2)
    built = []
    real = kernel.reducer_factory

    def counting(ctx, p):
        built.append(real(ctx, p))
        return built[-1]

    monkeypatch.setattr(kernel, "reducer_factory", counting)
    vecs = [{ctx.pack(0, (2, 0)): 1}, {ctx.pack(0, (1, 1)): 1}]
    gb = groebner_basis(vecs, ctx, 101, (0,), 1, None)
    assert len(gb) == 2
    # the Buchberger reducer is the store that interreduce rewrites and
    # groebner_basis returns
    assert len(built) == 1
    assert all(type(r) is PyReducer for r in built)


# --- interreduction ----------------------------------------------------------


def _interreduce_reference(vecs, ctx, p, gendegs):
    """The former interreduction: each kept element is fully reduced against
    a reducer built from all the other kept elements."""
    vecs = [v for v in vecs if v]
    leads = [(max(v), ctx.unpack(max(v))) for v in vecs]
    keep = []
    for i, v in enumerate(vecs):
        li, (pi, ei) = leads[i]
        if not any(leads[j][1][0] == pi and _divides(leads[j][1][1], ei)
                   and leads[j][0] != li for j in keep):
            keep.append(i)
    kept = [vecs[i] for i in keep]
    out = []
    for i, v in enumerate(kept):
        reducer = PyReducer(ctx, p)
        for j, w in enumerate(kept):
            if j != i:
                reducer.add(w)
        nf = reducer.normal_form(v)
        if nf:
            lead = max(nf)
            inv = pow(nf[lead], p - 2, p)
            out.append({k: (c * inv) % p for k, c in nf.items()})
    out.sort(key=lambda v: (vec_degree(ctx, v, gendegs), max(v)))
    return out


def _homogeneous_vector(draw, ctx, p, gendegs, deg, lift=0):
    """A packed vector of internal degree deg + lift with up to 4 terms, each
    monomial times x_0^lift; empty when its terms cancel."""
    nv = len(ctx.shifts)
    vec = {}
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(gendegs) - 1))
        vars_ = draw(st.sampled_from(list(combinations_with_replacement(
            range(nv), deg - gendegs[pos]))))
        exp = tuple(vars_.count(j) + (lift if j == 0 else 0)
                    for j in range(nv))
        key = ctx.pack(pos, exp)
        vec[key] = (vec.get(key, 0) + draw(st.integers(1, p - 1))) % p
    return {k: c for k, c in vec.items() if c}


@st.composite
def homogeneous_submodules(draw):
    """Small homogeneous ideals (rank 1) or submodules of S^2, packed."""
    nv = draw(st.integers(2, 3))
    p = draw(st.sampled_from([2, 32003]))
    rank = draw(st.integers(1, 2))
    gendegs = (0,) if rank == 1 else (0, draw(st.integers(0, 1)))
    ctx = PackContext(nv)
    vecs = []
    for _ in range(draw(st.integers(1, 4))):
        deg = draw(st.integers(1, 3))
        vec = _homogeneous_vector(draw, ctx, p, gendegs, deg)
        if vec:
            vecs.append(vec)
    return ctx, p, gendegs, vecs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=homogeneous_submodules())
def test_interreduce_matches_per_element_reference(case):
    ctx, p, gendegs, vecs = case
    seen = []

    def spy(reducer, *args):
        seen.append({pos: [(ctx.exp_of(lead), dict(items))
                           for _, lead, _, items in entries]
                     for pos, entries in reducer.by_pos.items()})
        return interreduce(reducer, *args)

    with mock.patch.object(_engine, "interreduce", spy):
        gb = groebner_basis(vecs, ctx, p, gendegs, len(gendegs), None)
    (store,) = seen
    for pos, entries in store.items():
        # the invariants that let interreduce skip a redundancy check: per
        # position, leads arrive in nondecreasing degree and none divides
        # another
        degs = [sum(exp) for exp, _ in entries]
        assert degs == sorted(degs)
        leads = [exp for exp, _ in entries]
        assert not any(_divides(a, b) for a, b in permutations(leads, 2))
        # every entry is monic, and its leads are the reduced basis's
        assert all(v[max(v)] == 1 for _, v in entries)
        assert sorted(leads) == sorted(ctx.exp_of(lead)
                                       for _, lead, _, _ in gb.by_pos[pos])
    unreduced = [v for entries in store.values() for _, v in entries]
    reference = _interreduce_reference(unreduced, ctx, p, gendegs)
    assert len(gb) == len(reference)
    for pos, entries in gb.by_pos.items():
        # rewritten in place: each position's entries in (degree, lead)
        # order, the lead first in each entry's terms
        vecs = [dict(items) for *_, items in entries]
        assert vecs == [v for v in reference if ctx.pos_of(max(v)) == pos]
        assert all(items[0] == (max(items)[0], 1) for *_, items in entries)
        assert all(entry == gb.entry(entry[3][0][0], entry[3], 1)
                   for entry in entries)


def _interreduce_every_tail(store, unreduced):
    """The entries of the store `unreduced` (position -> entries, as
    buchberger left them in `store`), interreduced with a normal form for
    every tail, modulo the ideal that `store` keeps implicit: the
    interreduction before the divisibility scan."""
    ctx = store.ctx
    reducer = PyReducer(ctx, store.p)
    reducer.ring = store.ring
    reducer.by_pos = {pos: list(entries) for pos, entries in unreduced.items()}
    for entries in reducer.by_pos.values():
        for i, (_, lead, _, items) in enumerate(entries):
            tail = reducer.normal_form({k: c for k, c in items if k != lead})
            entries[i] = reducer.entry(lead, [(lead, 1), *tail.items()], 1)
        entries.sort(key=lambda e: (ctx.mono_degree(e[1]), e[1]))
    return reducer.by_pos


def test_each_position_is_sorted_by_lead_in_degree_order(corpus):
    # interreduce sorts by lead key alone: a grevlex key ranks degree first
    # within a position, so that is (degree, lead) order
    stores = []
    for spec in corpus.values():
        stores.append(spec.ring._reducer)
        stores += [ExtendedSolver(d).store
                   for d in sop_differentials(spec, 3)]
    for store in stores:
        for entries in store.by_pos.values():
            leads = [lead for _, lead, _, _ in entries]
            assert leads == sorted(leads) == sorted(
                leads, key=lambda k: (store.ctx.mono_degree(k), k))
    assert sum(len(store) for store in stores) > 100


def test_scanned_interreduction_matches_reducing_every_tail(
        corpus, random_specs, r2):
    runs = [(spec.sop().quotient_module(), 3)
            for spec in (*corpus.values(), *random_specs[:6])]
    x = r2.sop()
    runs.append((x.homology(1), 6))
    stores = rewritten = 0
    for module, cap in runs:
        for unreduced, store in solver_stores(module, cap):
            assert store.by_pos == _interreduce_every_tail(store, unreduced)
            kept = {id(e) for entries in store.by_pos.values() for e in entries}
            rewritten += sum(id(e) not in kept
                             for entries in unreduced.values() for e in entries)
            stores += 1
    assert stores > 30 and rewritten > 0


def test_interreduce_rewrites_a_tail_that_a_later_lead_divides():
    ctx = PackContext(2)
    a2e0, abe1, b2e1 = (ctx.pack(0, (2, 0)), ctx.pack(1, (1, 1)),
                        ctx.pack(1, (0, 2)))
    ae1, be1, ae2, be2 = (ctx.pack(1, (1, 0)), ctx.pack(1, (0, 1)),
                          ctx.pack(2, (1, 0)), ctx.pack(2, (0, 1)))
    reducer = PyReducer(ctx, 7)
    # a^2 e_0 + 3ab e_1, whose tail the later lead a e_1 divides
    reducer.add({a2e0: 1, abe1: 3})
    # a e_1 + 4b e_1: no lead divides its tail, so it is kept as stored
    reducer.add({ae1: 4, be1: 2})
    kept = reducer.by_pos[1][0]
    # a e_2 + b e_2, stored with its lead second: rewritten lead first
    reducer.add({be2: 1, ae2: 1})
    interreduce(reducer)
    # 3ab e_1 - 3b (a e_1 + 4b e_1) = -12b^2 e_1 = 2b^2 e_1, irreducible
    assert reducer.by_pos[0] == [reducer.entry(a2e0, [(a2e0, 1), (b2e1, 2)], 1)]
    assert reducer.by_pos[1] == [kept]
    assert reducer.by_pos[1][0] is kept
    assert reducer.by_pos[2] == [reducer.entry(ae2, [(ae2, 1), (be2, 1)], 1)]


def _two_pass_entry(reducer, vec):
    """The former stored form of vec: its monic terms first, then a second
    pass over them for the excess."""
    ctx, p = reducer.ctx, reducer.p
    lead = max(vec)
    inv = pow(vec[lead], p - 2, p)
    items = [(k, (c * inv) % p) for k, c in vec.items()]
    dmask = EXP_MASK << ctx.degshift
    top = max(k & dmask for k, _ in items)
    return (ctx.word(lead), lead, (top - (lead & dmask)) >> ctx.degshift,
            items)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=homogeneous_submodules(), data=st.data())
def test_one_pass_entry_matches_the_two_pass_entry(case, data):
    ctx, p, gendegs, vecs = case
    reducer = PyReducer(ctx, p)
    # a lead of degree 1 with a tail of degree 3 in a lower position
    pad = (0,) * (len(ctx.shifts) - 2)
    vecs = [*vecs, {ctx.pack(1, (0, 3, *pad)): 2,
                    ctx.pack(0, (1, 0, *pad)): p - 1}]
    for vec in vecs:
        # the lead need not come first: add takes the largest key
        unordered = dict(data.draw(st.permutations(list(vec.items()))))
        pos = reducer.add(unordered)
        assert reducer.by_pos[pos][-1] == _two_pass_entry(reducer, unordered)
    assert reducer.by_pos[0][-1][2] == 2


# --- normal form against the former max scan ---------------------------------


def _normal_form_reference(reducer, vec):
    """The former normal form: each next term by a scan of all that is
    left, the first divisor in `by_pos` order by exponent tuples, and the
    cofactor's key delta by mul_delta."""
    ctx, p = reducer.ctx, reducer.p
    work = dict(vec)
    out = {}
    while work:
        k = max(work)
        c = work.pop(k) % p
        if not c:
            continue
        pos, exp = ctx.unpack(k)
        entry = None
        for cand in reducer.by_pos.get(pos, ()):
            if _divides(ctx.exp_of(cand[1]), exp):
                entry = cand
                break
        if entry is None:
            out[k] = c
            continue
        _, lead, excess, items = entry
        lexp = ctx.exp_of(lead)
        q = tuple(a - b for a, b in zip(exp, lexp))
        check_degree(sum(lexp) + excess + sum(q))
        delta = ctx.mul_delta(q)
        work[k] = c
        for tk, tc in items:
            nk = tk + delta
            nc = (work.get(nk, 0) - c * tc) % p
            if nc:
                work[nk] = nc
            else:
                work.pop(nk, None)
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=homogeneous_submodules(), data=st.data())
def test_normal_form_matches_max_scan_reference(case, data):
    ctx, p, gendegs, vecs = case
    # every term times x_0^lift, which takes exponents up to the top bit of
    # their field
    lift = data.draw(st.sampled_from([0, 0, 1, 600, 1000]))
    up = ctx.mul_delta((lift,) + (0,) * (len(ctx.shifts) - 1))
    vecs = [{k + up: c for k, c in vec.items()} for vec in vecs]
    # the generators as they come, so that the divisor chosen decides the
    # result, and their reduced Groebner basis
    raw = PyReducer(ctx, p)
    for vec in vecs:
        raw.add(vec)
    reducers = (raw, groebner_basis(vecs, ctx, p, gendegs,
                                    len(gendegs), None))
    for _ in range(data.draw(st.integers(1, 3))):
        vec = _homogeneous_vector(data.draw, ctx, p, gendegs,
                                  data.draw(st.integers(1, 4)), lift)
        for reducer in reducers:
            nf = reducer.normal_form(vec)
            ref = _normal_form_reference(reducer, vec)
            assert list(nf.items()) == list(ref.items())


def test_normal_form_over_a_ring_matches_the_reference_with_the_ideal_rows(
        corpus, random_specs):
    # a solver store reduces every term modulo I, in the tag block too,
    # through the ring's monomial forms; the reference holds the rows g e_i
    # of I's basis in every position, before the store's entries
    stores = reduced = moved = 0
    for spec in (*corpus.values(), *random_specs[:6]):
        for _, store in solver_stores(spec.sop().quotient_module(), 3):
            ring, ctx = store.ring, store.ctx
            if ring is None:
                continue  # I = 0
            # each entry's tail times each variable: terms in both blocks,
            # many of them not standard modulo I
            vecs = [{k + w: c for k, c in items[1:]} for entries in
                    store.by_pos.values() for *_, items in entries
                    for w in ctx.weights if len(items) > 1]
            positions = {ctx.pos_of(k) for vec in vecs for k in vec}
            ref = PyReducer(ctx, store.p)
            for *_, items in ring._basis:
                for pos in positions:
                    ref.add({ctx.move(k, pos): c for k, c in items})
            for pos, entries in store.by_pos.items():
                ref.by_pos[pos] = ref.by_pos.get(pos, []) + entries
            # terms outside position 0 that I's leads divide
            moved += sum(ctx.pos_of(k) > 0
                         and ring.monomial_form(k & ctx.monomask) is not True
                         for vec in vecs for k in vec)
            for vec in vecs:
                nf = store.normal_form(vec)
                assert list(nf.items()) == list(
                    _normal_form_reference(ref, vec).items())
                assert all(ring.monomial_form(k & ctx.monomask) is True
                           for k in nf)
                reduced += bool(nf)
            stores += 1
    assert stores > 20 and reduced > 100 and moved > 50


# --- word arithmetic ---------------------------------------------------------


def _word_exps(ctx, word):
    return tuple((word >> s) & EXP_MASK for s in ctx.shifts)


@st.composite
def edge_monomials(draw, nv):
    """Exponent tuples of degree at most MAX_DEGREE whose entries sit at the
    edges of the field: 0, 1, 2, 511, 512, 1021 and 1022."""
    exp, room = [], MAX_DEGREE
    for _ in range(nv):
        exp.append(min(draw(st.sampled_from([0, 1, 2, 511, 512, 1021,
                                             1022])), room))
        room -= exp[-1]
    return tuple(draw(st.permutations(exp)))


@pytest.mark.parametrize("nv", [1, 2, 3, 4])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_word_arithmetic_matches_tuples(nv, data):
    ctx = PackContext(nv)
    a, b = data.draw(edge_monomials(nv)), data.draw(edge_monomials(nv))
    if nv == 3 and data.draw(st.booleans()):
        a, b = (1022, 0, 0), (1021, 1, 0)
    pos = data.draw(st.integers(0, 5))
    ka, kb = ctx.pack(pos, a), ctx.pack(pos, b)
    # a guard bit above every field, the degree's included, and each is 0
    # in a packed or moved term
    guards = sum(1 << (i * (EXP_BITS + 1) + EXP_BITS) for i in range(nv + 1))
    for key in (ka, kb, ctx.move(ka, 7), ctx.move(kb, 0)):
        assert key & guards == 0
    wa, wb = ctx.word(ka), ctx.word(kb)
    assert (_word_exps(ctx, wa), _word_exps(ctx, wb)) == (a, b)
    # divisibility is decided by the reducer's word test
    reducer = PyReducer(ctx, 101)
    reducer.add({ka: 1})
    assert (reducer.normal_form({kb: 1}) == {}) == _divides(a, b)
    lcm = ctx.lcm(wa, wb)
    top = tuple(map(max, a, b))
    assert _word_exps(ctx, lcm) == top
    assert ctx.word_degree(lcm) == sum(top)
    # the product criterion: coprime leads, in word and in degree form
    coprime = all(min(x, y) == 0 for x, y in zip(a, b))
    assert (lcm == wa + wb) == coprime
    assert (ctx.word_degree(lcm) == sum(a) + sum(b)) == coprime
    if sum(top) <= MAX_DEGREE:
        key = ctx.word_key(lcm, sum(top), ka)
        assert key == ctx.pack(pos, top)
        # the cofactor taking a lead to the lcm is the key difference
        assert key - ka == ctx.mul_delta(tuple(x - y for x, y in zip(top, a)))
