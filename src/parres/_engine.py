"""Packed-term representation and the Buchberger driver.

A term of a free module R^k over GF(p)[x_1..x_n] is packed into a single
integer so that plain integer comparison realizes the module monomial order
(position-over-term, lower position first, positions tie-broken by the ring
order).  Multiplying a term by a ring monomial is then an integer addition of
a precomputed delta, which is what makes the reduction inner loop cheap.

A key is `rest - (pos << topshift)`.  The position is an unbounded signed top
field: keys in positions >= 1 are negative, and a lower position compares
larger.  `rest`, in [0, 2^topshift), holds the monomial in EXP_BITS-wide
fields, most significant first; grevlex:

    [total degree | EXP_MASK - e_{n-1} | ... | EXP_MASK - e_0]

and lex:

    [e_0 | e_1 | ... | e_{n-1} | total degree]

where lex's trailing degree never decides a comparison.  Raising e_j by one
adds the variable's weight w_j to a key, so multiplying by x^q adds
sum q_j w_j.  The one limit is MAX_DEGREE, for a packed term and for a
product of terms alike.
"""

from __future__ import annotations

import heapq

from .algebra import AlgebraError, NotHomogeneousError

EXP_BITS = 10
EXP_MASK = (1 << EXP_BITS) - 1

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

    __slots__ = ("shifts", "flip", "degshift", "topshift", "weights", "one")

    def __init__(self, nv, kind="grevlex"):
        self.topshift = EXP_BITS * (nv + 1)
        if kind == "grevlex":
            self.degshift = EXP_BITS * nv
            self.shifts = tuple(EXP_BITS * j for j in range(nv))
            self.flip = EXP_MASK
            sign = -1
        elif kind == "lex":
            self.degshift = 0
            self.shifts = tuple(EXP_BITS * (nv - j) for j in range(nv))
            self.flip = 0
            sign = 1
        else:
            raise AlgebraError(f"unsupported order kind {kind!r}")
        # e_j + 1 adds one to the degree field and moves e_j's field, which
        # holds e_j ^ flip, by sign
        self.weights = tuple((1 << self.degshift) + sign * (1 << s)
                             for s in self.shifts)
        self.one = sum(self.flip << s for s in self.shifts)

    def pack(self, pos, exp):
        check_degree(sum(exp))  # so every exponent fits its field too
        return self.one + self.mul_delta(exp) - (pos << self.topshift)

    def move(self, key, pos):
        """The term `key` moved to free-module position pos."""
        return (key & ((1 << self.topshift) - 1)) - (pos << self.topshift)

    def unpack(self, key):
        return -(key >> self.topshift), self.exp_of(key)

    def exp_of(self, key):
        flip = self.flip
        return tuple([((key >> s) & EXP_MASK) ^ flip for s in self.shifts])

    def pos_of(self, key):
        return -(key >> self.topshift)

    def mono_degree(self, key):
        """Total degree of the monomial part of a packed term."""
        return (key >> self.degshift) & EXP_MASK

    def mul_delta(self, exp):
        """Additive key delta for multiplication by the ring monomial x^exp;
        the caller checks the degree of the products."""
        delta = 0
        for e, w in zip(exp, self.weights):
            delta += e * w
        return delta

    def position_floor(self, rank):
        """Smallest key of any term in positions < rank.

        Terms in positions >= rank compare strictly below this, so it serves
        as the stop boundary when reducing only the leading block of an
        extended (tagged) module.
        """
        return (1 - rank) << self.topshift

    def position_shift(self, n):
        """Key delta that moves a term from position i to position i - n."""
        return n << self.topshift

    def split_by_position(self, vec):
        """{pos: the terms of vec in position pos, moved to position 0}."""
        shift = self.topshift
        mask = (1 << shift) - 1
        groups = {}
        for key, c in vec.items():
            groups.setdefault(-(key >> shift), {})[key & mask] = c
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
        """Add a basis vector (dict).  Stores its lead exponent, the inverse
        of its lead coefficient, its terms and their largest monomial
        degree."""
        ctx = self.ctx
        lead = max(vec)
        pos, exp = ctx.unpack(lead)
        inv = pow(vec[lead], self.p - 2, self.p)
        top = max(map(ctx.mono_degree, vec))
        entry = (exp, inv, list(vec.items()), top)
        self.by_pos.setdefault(pos, []).append(entry)

    def normal_form(self, vec, stopkey=None):
        """Fully reduce `vec`; terms below `stopkey` are left untouched."""
        ctx = self.ctx
        p = self.p
        work = dict(vec)
        out = {}
        while work:
            k = max(work)
            if stopkey is not None and k < stopkey:
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
            lexp, inv, items, top = entry
            q = tuple(a - b for a, b in zip(exp, lexp))
            check_degree(top + sum(q))
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

def spair_parts(e1, e2):
    """Cofactors q1, q2 with x^q1 x^e1 = x^q2 x^e2 = lcm(x^e1, x^e2)."""
    lcm = tuple(map(max, e1, e2))
    return (tuple(l - a for l, a in zip(lcm, e1)),
            tuple(l - b for l, b in zip(lcm, e2)))


def groebner_basis(vecs, ctx, p, gendegs):
    """Reduced Groebner basis of the submodule generated by `vecs`.

    vecs: homogeneous packed vectors (dicts).  gendegs: internal degree of
    each free-module position.  Deterministic for a fixed input order.

    The product criterion is only applied in rank 1 (len(gendegs) == 1); it
    is not valid for modules of higher rank.
    """
    reducer = make_reducer(ctx, p)
    basis = []        # list of (exp, top, vec), top its largest term degree
    by_pos = {}       # position -> indices of the basis elements there
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
        idx = len(basis)
        basis.append((exp, max(map(ctx.mono_degree, vec)), vec))
        reducer.add(vec)
        same = by_pos.setdefault(pos, [])
        for j in same:
            exp2 = basis[j][0]
            if rank1 and all(min(a, b) == 0 for a, b in zip(exp, exp2)):
                continue  # product criterion
            pdeg = sum(map(max, exp, exp2)) + gendegs[pos]
            heapq.heappush(heap, (pdeg, seq, "pair", (j, idx)))
            seq += 1
        same.append(idx)

    while heap:
        _, _, kind, payload = heapq.heappop(heap)
        if kind == "gen":
            nf = reducer.normal_form(payload)
            if nf:
                add_element(nf)
            continue
        i, j = payload
        e1, top1, v1 = basis[i]
        e2, top2, v2 = basis[j]
        q1, q2 = spair_parts(e1, e2)
        check_degree(top1 + sum(q1))
        check_degree(top2 + sum(q2))
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

    return interreduce([b[2] for b in basis], ctx, p, gendegs)


def interreduce(vecs, ctx, p, gendegs):
    """Reduced form of a Groebner basis from groebner_basis: monic,
    tail-reduced, sorted.

    groebner_basis pops generators and S-pairs in nondecreasing degree and
    adds only normal forms against every earlier element, so no lead of its
    output divides another.  A lead never divides a term smaller than
    itself either, so one reducer over all the elements gives each tail its
    unique normal form.
    """
    reducer = make_reducer(ctx, p)
    for v in vecs:
        reducer.add(v)
    out = []
    for v in vecs:
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
