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

The reducer is the basis store, and only `buchberger` builds one: its
monic entries are the only copy of the basis, `groebner_basis` rewrites them
in place into the reduced basis and returns that reducer for the ring and the
solver to reduce against, and a caller that needs only leads reads entries.
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
    """Pure-Python reducer: full normal form against a growing basis, and
    the only copy of that basis (`by_pos`: position -> entries in order)."""

    def __init__(self, ctx, p):
        self.ctx = ctx
        self.p = p
        self.by_pos = {}

    def __len__(self):
        return sum(map(len, self.by_pos.values()))

    def entry(self, lead, items):
        """The stored form (lead exponent, terms, top) of monic terms, top
        their largest monomial degree."""
        ctx = self.ctx
        top = max(ctx.mono_degree(k) for k, _ in items)
        return ctx.exp_of(lead), items, top

    def add(self, vec):
        """Store vec (dict), made monic, as an entry; returns its position."""
        p = self.p
        lead = max(vec)
        inv = pow(vec[lead], p - 2, p)
        pos = self.ctx.pos_of(lead)
        self.by_pos.setdefault(pos, []).append(
            self.entry(lead, [(k, (c * inv) % p) for k, c in vec.items()]))
        return pos

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
            lexp, items, top = entry
            q = tuple(a - b for a, b in zip(exp, lexp))
            check_degree(top + sum(q))
            delta = ctx.mul_delta(q)
            work[k] = c  # lead cancels against the entry's own monic lead
            for tk, tc in items:
                nk = tk + delta
                nc = (work.get(nk, 0) - c * tc) % p
                if nc:
                    work[nk] = nc
                else:
                    work.pop(nk, None)
        out.update(work)
        return out


# ---------------------------------------------------------------------------
# Buchberger

def spoly(entry1, entry2, ctx, p):
    """S-vector of two monic reducer entries in one position: x^q1 v1 -
    x^q2 v2, each cofactor taking its lead to the lcm of the leads."""
    lcm = tuple(map(max, entry1[0], entry2[0]))
    s = {}
    for (exp, items, top), sign in ((entry1, 1), (entry2, -1)):
        q = tuple(l - e for l, e in zip(lcm, exp))
        check_degree(top + sum(q))
        delta = ctx.mul_delta(q)
        for k, c in items:
            nk = k + delta
            nc = (s.get(nk, 0) + sign * c) % p
            if nc:
                s[nk] = nc
            else:
                s.pop(nk, None)
    return s


def buchberger(vecs, ctx, p, gendegs):
    """A reducer whose entries form a Groebner basis of the submodule
    generated by the homogeneous packed vectors `vecs`; gendegs holds the
    internal degree of each free-module position.  Deterministic for a fixed
    input order.  Generators and S-pairs pop in nondecreasing degree, and
    only nonzero normal forms against every earlier entry are added, so no
    lead divides another: the leads are those of the reduced basis.

    The product criterion is only applied in rank 1 (len(gendegs) == 1); it
    is not valid for modules of higher rank.
    """
    # deferred import: kernel imports this module
    from .kernel import reducer_factory
    reducer = reducer_factory(ctx, p)
    # (degree, seq, generator vec or pair of entries)
    heap = [(vec_degree(ctx, vec, gendegs), seq, vec)
            for seq, vec in enumerate(v for v in vecs if v)]
    heapq.heapify(heap)
    seq = len(heap)
    rank1 = len(gendegs) == 1

    while heap:
        _, _, item = heapq.heappop(heap)
        nf = reducer.normal_form(item if isinstance(item, dict)
                                 else spoly(*item, ctx, p))
        if not nf:
            continue
        pos = reducer.add(nf)
        *same, new = reducer.by_pos[pos]
        exp = new[0]
        for old in same:
            exp2 = old[0]
            if rank1 and all(min(a, b) == 0 for a, b in zip(exp, exp2)):
                continue  # product criterion
            pdeg = sum(map(max, exp, exp2)) + gendegs[pos]
            heapq.heappush(heap, (pdeg, seq, (old, new)))
            seq += 1

    return reducer


def groebner_basis(vecs, ctx, p, gendegs):
    """The reducer from buchberger, its entries rewritten by interreduce into
    the reduced Groebner basis of the submodule generated by `vecs`."""
    reducer = buchberger(vecs, ctx, p, gendegs)
    interreduce(reducer)
    return reducer


def interreduce(reducer):
    """Rewrite the entries of a reducer from buchberger in place into the
    reduced Groebner basis: monic, tail-reduced, the lead first in each
    entry's terms, and each position's entries sorted by degree and lead.

    No lead of the reducer divides another, and a lead never divides a term
    smaller than itself, so reducing each tail against the same reducer
    gives it its unique normal form, whether or not the entries before it
    are rewritten yet.
    """
    for entries in reducer.by_pos.values():
        for i, (_, items, _) in enumerate(entries):
            lead = max(items)[0]
            tail = reducer.normal_form({k: c for k, c in items if k != lead})
            entries[i] = reducer.entry(lead, [(lead, 1), *tail.items()])
        entries.sort(key=lambda e: (sum(e[0]), e[1][0][0]))
