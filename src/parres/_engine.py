"""Packed-term representation and the Buchberger driver.

A term of a free module R^k over GF(p)[x_1..x_n] is packed into a single
integer so that plain integer comparison realizes the module monomial order
(position-over-term, lower position first, positions tie-broken by the ring
order).  Multiplying a term by a ring monomial is then an integer addition of
a precomputed delta, which is what makes the reduction inner loop cheap.

Layout (most significant first), grevlex:

    [POS_MAX - pos | total degree | EXP_MASK - e_{n-1} | ... | EXP_MASK - e_0]

and lex:

    [POS_MAX - pos | e_0 | e_1 | ... | e_{n-1}]
"""

from __future__ import annotations

import heapq

from .algebra import AlgebraError, NotHomogeneousError

EXP_BITS = 10
EXP_MASK = (1 << EXP_BITS) - 1
DEG_BITS = 10
DEG_MASK = (1 << DEG_BITS) - 1
POS_BITS = 12
POS_MAX = (1 << POS_BITS) - 1

# stay clear of the packed-field limits; degrees at desk scale are far below
MAX_DEGREE = EXP_MASK - 1


def check_degree(deg):
    """Raise before a key addition makes a term of degree deg, which would
    overflow the packed fields."""
    if deg > MAX_DEGREE:
        raise AlgebraError(f"degree {deg} exceeds packing limit")


class PackContext:
    """Packing rules for one (number of variables, order kind) pair.

    A key is affine in the exponents, so the product of the terms ka (in any
    position) and kb (in position 0) is the key ka + kb - one, where `one` is
    the key of 1 in position 0.
    """

    __slots__ = ("nv", "kind", "expshift", "topshift", "one")

    def __init__(self, nv, kind="grevlex"):
        if kind not in ("grevlex", "lex"):
            raise AlgebraError(f"unsupported order kind {kind!r}")
        self.nv = nv
        self.kind = kind
        self.expshift = EXP_BITS * nv
        if kind == "grevlex":
            self.topshift = self.expshift + DEG_BITS
        else:
            self.topshift = self.expshift
        self.one = self.pack(0, (0,) * nv)

    def pack(self, pos, exp):
        deg = sum(exp)
        check_degree(deg)  # so every exponent fits its field too
        if self.kind == "grevlex":
            key = deg << self.expshift
            for j, e in enumerate(exp):
                key |= (EXP_MASK - e) << (EXP_BITS * j)
        else:
            nv = self.nv
            key = 0
            for j, e in enumerate(exp):
                key |= e << (EXP_BITS * (nv - 1 - j))
        return self.move(key, pos)

    def move(self, key, pos):
        """The term `key` moved to free-module position pos."""
        if pos > POS_MAX:
            raise AlgebraError(f"free module position {pos} exceeds packing limit")
        return ((POS_MAX - pos) << self.topshift) | (
            key & ((1 << self.topshift) - 1))

    def unpack(self, key):
        pos = POS_MAX - (key >> self.topshift)
        if self.kind == "grevlex":
            exp = tuple(
                EXP_MASK - ((key >> (EXP_BITS * j)) & EXP_MASK)
                for j in range(self.nv))
        else:
            nv = self.nv
            exp = tuple(
                (key >> (EXP_BITS * (nv - 1 - j))) & EXP_MASK
                for j in range(nv))
        return pos, exp

    def exp_of(self, key):
        return self.unpack(key)[1]

    def pos_of(self, key):
        return POS_MAX - (key >> self.topshift)

    def mono_degree(self, key):
        """Total degree of the monomial part of a packed term."""
        if self.kind == "grevlex":
            return (key >> self.expshift) & DEG_MASK
        return sum(self.exp_of(key))

    def mul_delta(self, exp):
        """Additive key delta for multiplication by the ring monomial x^exp."""
        if self.kind == "grevlex":
            deg = sum(exp)
            check_degree(deg)
            body = 0
            for j, e in enumerate(exp):
                body += e << (EXP_BITS * j)
            return (deg << self.expshift) - body
        nv = self.nv
        delta = 0
        for j, e in enumerate(exp):
            delta += e << (EXP_BITS * (nv - 1 - j))
        return delta

    def position_floor(self, rank):
        """Smallest key of any term in positions < rank.

        Terms in positions >= rank compare strictly below this, so it serves
        as the stop boundary when reducing only the leading block of an
        extended (tagged) module.
        """
        return (POS_MAX - rank + 1) << self.topshift

    def position_shift(self, n):
        """Key delta that moves a term from position i to position i - n."""
        return n << self.topshift

    def split_by_position(self, vec):
        """{pos: the terms of vec in position pos, moved to position 0}."""
        shift = self.topshift
        mask = (1 << shift) - 1
        top0 = POS_MAX << shift
        groups = {}
        for key, c in vec.items():
            groups.setdefault(POS_MAX - (key >> shift), {})[
                top0 | (key & mask)] = c
        return groups


# ---------------------------------------------------------------------------
# vectors: dict packed-key -> coefficient in (0, p)


def vec_degree(ctx, vec, gendegs):
    """Internal degree of a homogeneous vector; raises if inhomogeneous."""
    degs = {ctx.mono_degree(k) + gendegs[ctx.pos_of(k)] for k in vec}
    if len(degs) > 1:
        raise NotHomogeneousError(f"degrees {sorted(degs)} in one vector")
    return degs.pop() if degs else None


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


class PyReducer:
    """Pure-Python reducer: full normal form against a growing basis."""

    def __init__(self, ctx, p):
        self.ctx = ctx
        self.p = p
        self.by_pos = {}

    def add(self, vec):
        """Add a basis vector (dict).  Stores lead data and term list."""
        ctx = self.ctx
        lead = max(vec)
        pos, exp = ctx.unpack(lead)
        inv = pow(vec[lead], self.p - 2, self.p)
        entry = (exp, inv, list(vec.items()))
        self.by_pos.setdefault(pos, []).append(entry)

    def normal_form(self, vec, stopkey=0):
        """Fully reduce `vec`; terms below `stopkey` are left untouched."""
        ctx = self.ctx
        p = self.p
        work = dict(vec)
        out = {}
        while work:
            k = max(work)
            if k < stopkey:
                break
            c = work.pop(k) % p
            if not c:
                continue
            pos, exp = ctx.unpack(k)
            entry = None
            for cand in self.by_pos.get(pos, ()):
                if _divides(cand[0], exp):
                    entry = cand
                    break
            if entry is None:
                out[k] = c
                continue
            lexp, inv, items = entry
            q = tuple(a - b for a, b in zip(exp, lexp))
            delta = ctx.mul_delta(q)
            mult = (c * inv) % p
            work[k] = c  # lead cancels against the entry's own lead term
            for tk, tc in items:
                nk = tk + delta
                nc = (work.get(nk, 0) - mult * tc) % p
                if nc:
                    work[nk] = nc
                else:
                    work.pop(nk, None)
        out.update(work)
        return out


def make_reducer(ctx, p):
    # deferred import: kernel imports this module
    from .kernel import reducer_factory
    return reducer_factory(ctx, p)


# ---------------------------------------------------------------------------
# Buchberger

def spair_parts(ctx, e1, e2):
    lcm = tuple(max(a, b) for a, b in zip(e1, e2))
    return lcm, tuple(l - a for l, a in zip(lcm, e1)), \
        tuple(l - b for l, b in zip(lcm, e2))


def groebner_basis(vecs, ctx, p, gendegs):
    """Reduced Groebner basis of the submodule generated by `vecs`.

    vecs: homogeneous packed vectors (dicts).  gendegs: internal degree of
    each free-module position.  Deterministic for a fixed input order.

    The product criterion is only applied in rank 1 (len(gendegs) == 1); it
    is not valid for modules of higher rank.
    """
    reducer = make_reducer(ctx, p)
    basis = []        # list of (leadkey, pos, exp, deg, vec)
    heap = []         # (degree, seq, kind, payload)
    seq = 0
    rank1 = len(gendegs) == 1

    for vec in vecs:
        if not vec:
            continue
        deg = vec_degree(ctx, vec, gendegs)
        heapq.heappush(heap, (deg, seq, "gen", vec))
        seq += 1

    def add_element(vec):
        nonlocal seq
        lead = max(vec)
        inv = pow(vec[lead], p - 2, p)
        vec = {k: (v * inv) % p for k, v in vec.items()}
        pos, exp = ctx.unpack(lead)
        deg = ctx.mono_degree(lead) + gendegs[pos]
        idx = len(basis)
        basis.append((lead, pos, exp, deg, vec))
        reducer.add(vec)
        for j, (lk2, pos2, exp2, deg2, _) in enumerate(basis[:idx]):
            if pos2 != pos:
                continue
            lcm, _, _ = spair_parts(ctx, exp, exp2)
            pdeg = sum(lcm) + gendegs[pos]
            if rank1 and all(min(a, b) == 0 for a, b in zip(exp, exp2)):
                continue  # product criterion
            heapq.heappush(heap, (pdeg, seq, "pair", (j, idx)))
            seq += 1

    while heap:
        _, _, kind, payload = heapq.heappop(heap)
        if kind == "gen":
            nf = reducer.normal_form(payload)
            if nf:
                add_element(nf)
            continue
        i, j = payload
        lk1, pos, e1, _, v1 = basis[i]
        _, _, e2, _, v2 = basis[j]
        _, q1, q2 = spair_parts(ctx, e1, e2)
        d1 = ctx.mul_delta(q1)
        d2 = ctx.mul_delta(q2)
        s = {}
        for k, c in v1.items():
            s[k + d1] = c
        for k, c in v2.items():
            nk = k + d2
            nc = (s.get(nk, 0) - c) % p
            if nc:
                s[nk] = nc
            else:
                s.pop(nk, None)
        nf = reducer.normal_form(s)
        if nf:
            add_element(nf)

    return interreduce([b[4] for b in basis], ctx, p, gendegs)


def interreduce(vecs, ctx, p, gendegs):
    """Reduced form of a Groebner basis: monic, tail-reduced, sorted.

    Elements whose lead is divisible by an earlier kept lead are dropped.
    In a basis from groebner_basis no other lead then divides an element's
    lead, and a lead never divides a term smaller than itself, so one
    reducer over all kept elements gives each tail its unique normal form.
    """
    vecs = [v for v in vecs if v]
    # drop elements whose lead is divisible by another lead (keep first seen)
    leads = [(max(v), ctx.unpack(max(v))) for v in vecs]
    keep = []
    for i, v in enumerate(vecs):
        li, (pi, ei) = leads[i]
        redundant = False
        for j in keep:
            lj, (pj, ej) = leads[j]
            if pj == pi and _divides(ej, ei) and lj != li:
                redundant = True
                break
        if not redundant:
            # identical leads cannot occur after Buchberger completion
            keep.append(i)
    kept = [vecs[i] for i in keep]
    reducer = make_reducer(ctx, p)
    for v in kept:
        reducer.add(v)
    out = []
    for v in kept:
        lead = max(v)
        inv = pow(v[lead], p - 2, p)
        tail = dict(v)
        del tail[lead]
        monic = {lead: 1}
        for k, c in reducer.normal_form(tail).items():
            monic[k] = (c * inv) % p
        out.append(monic)
    out.sort(key=lambda v: (vec_degree(ctx, v, gendegs), max(v)))
    return out
