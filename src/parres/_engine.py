"""Packed-term representation and the Buchberger driver.

A term of a free module R^k over GF(p)[x_1..x_n] is packed into a single
integer so that plain integer comparison realizes the module monomial order
(position-over-term, lower position first, positions tie-broken by the ring
order).  Multiplying a term by a ring monomial is then an integer addition of
a precomputed delta, which is what makes the reduction inner loop cheap.

A key is `rest - (pos << topshift)`.  The position is an unbounded signed top
field: keys in positions >= 1 are negative, and a lower position compares
larger.  `rest`, in [0, 2^topshift), holds the monomial in fields of
EXP_BITS bits, most significant first, each under a guard bit g that is 0 in
every key; grevlex:

    [g| total degree |g| EXP_MASK - e_{n-1} | ... |g| EXP_MASK - e_0]

and lex:

    [g| e_0 |g| e_1 | ... |g| e_{n-1} |g| total degree]

where lex's trailing degree never decides a comparison.  Raising e_j by one
adds the variable's weight w_j to a key, so multiplying by x^q adds
sum q_j w_j, and the cofactor taking a lead to a term it divides is their
key difference.  The one limit is MAX_DEGREE, for a packed term and for a
product of terms alike.

Divisibility and lcm are operations on exponent words: the exponent fields
of a key in place, uncomplemented, with every guard bit 0 and no degree
field.  With every guard bit set in b's word, b - a clears the guard of each
field where a's exponent is larger, and no field borrows past its own guard,
so a divides b exactly when the difference keeps every guard.

The reducer is the basis store, and only `buchberger` builds one: its
monic entries are the only copy of the basis, `groebner_basis` rewrites them
in place into the reduced basis and returns that reducer for the ring and the
solver to reduce against, and a caller that needs only leads reads entries.
The ring's store holds I in position 0 alone: a reduction modulo I in any
position goes through the ring's normal forms of single monomials, each made
by one `PyReducer.normal_form` call.  In a tagged module `buchberger` forms
no S-pair past the leading block (Schreyer's skip, see `buchberger`).
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

    __slots__ = ("shifts", "flip", "degshift", "topshift", "monomask",
                 "weights", "one", "fmask", "guard", "summer", "sumshift")

    def __init__(self, nv, kind="grevlex"):
        stride = EXP_BITS + 1  # each field and its guard bit
        self.topshift = stride * (nv + 1)
        # key & monomask is the key moved to position 0
        self.monomask = (1 << self.topshift) - 1
        if kind == "grevlex":
            self.degshift = stride * nv
            self.shifts = tuple(stride * j for j in range(nv))
            self.flip = EXP_MASK
            sign = -1
        elif kind == "lex":
            self.degshift = 0
            self.shifts = tuple(stride * (nv - j) for j in range(nv))
            self.flip = 0
            sign = 1
        else:
            raise AlgebraError(f"unsupported order kind {kind!r}")
        # e_j + 1 adds one to the degree field and moves e_j's field, which
        # holds e_j ^ flip, by sign
        self.weights = tuple((1 << self.degshift) + sign * (1 << s)
                             for s in self.shifts)
        self.one = sum(self.flip << s for s in self.shifts)
        self.fmask = sum(EXP_MASK << s for s in self.shifts)
        self.guard = sum(1 << (s + EXP_BITS) for s in self.shifts)
        # word * summer holds the sum of all fields in the field at
        # sumshift; every field of the product is a partial sum, below
        # 2^stride for words up to degree 2 * MAX_DEGREE, so none carries
        low = min(self.shifts)
        self.summer = sum(1 << (s - low) for s in self.shifts)
        self.sumshift = max(self.shifts)

    def pack(self, pos, exp):
        check_degree(sum(exp))  # so every exponent fits its field too
        return self.one + self.mul_delta(exp) - (pos << self.topshift)

    def move(self, key, pos):
        """The term `key` moved to free-module position pos."""
        return (key & self.monomask) - (pos << self.topshift)

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

    def word(self, key):
        """Exponent word of a packed term: its exponent fields in place,
        uncomplemented, with no degree field."""
        return (key & self.fmask) ^ self.one

    def lcm(self, a, b):
        """Exponent word of the lcm of the monomials with words a and b."""
        guard = self.guard
        ge = ((a | guard) - b) & guard  # the guards of fields where a >= b
        return b ^ ((a ^ b) & (ge - (ge >> EXP_BITS)))

    def word_degree(self, word):
        """Total degree of an exponent word, up to 2 * MAX_DEGREE."""
        return (word * self.summer >> self.sumshift) & ((2 << EXP_BITS) - 1)

    def word_key(self, word, deg, key):
        """Key of the monomial of exponent word `word` and degree deg in the
        position of `key`; deg must not exceed MAX_DEGREE for the key to
        take part in products."""
        topshift = self.topshift
        return (((key >> topshift) << topshift) + (word ^ self.one)
                + (deg << self.degshift))

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
        shift, mask = self.topshift, self.monomask
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


class PyReducer:
    """Pure-Python reducer: full normal form against a growing basis, and
    the only copy of that basis (`by_pos`: position -> entries in order)."""

    def __init__(self, ctx, p):
        self.ctx = ctx
        self.p = p
        self.by_pos = {}

    def __len__(self):
        return sum(map(len, self.by_pos.values()))

    def entry(self, word, lead, items):
        """The stored form (word, lead, excess, terms) of monic terms led by
        `lead`, whose exponent word is `word`: excess is how far the largest
        monomial degree of the terms lies above the lead's."""
        dshift = self.ctx.degshift
        dmask = EXP_MASK << dshift
        top = max(k & dmask for k, _ in items)
        return word, lead, (top - (lead & dmask)) >> dshift, items

    def add(self, vec):
        """Store vec (dict), made monic, as an entry; returns its position."""
        p = self.p
        lead = max(vec)
        inv = pow(vec[lead], p - 2, p)
        pos = self.ctx.pos_of(lead)
        self.by_pos.setdefault(pos, []).append(
            self.entry(self.ctx.word(lead), lead,
                       [(k, (c * inv) % p) for k, c in vec.items()]))
        return pos

    def normal_form(self, vec, stopkey=None):
        """Fully reduce `vec`; terms below `stopkey` are left untouched.

        Terms are taken largest first from a heap of negated keys.  A
        reduction only adds keys below the one it reduces, so a key taken
        never comes back, and a heap key no longer in `work` was cancelled.
        """
        ctx = self.ctx
        p = self.p
        by_pos = self.by_pos
        topshift, degshift = ctx.topshift, ctx.degshift
        fmask, one, guard = ctx.fmask, ctx.one, ctx.guard
        work = dict(vec)
        heap = [-k for k in work]
        heapq.heapify(heap)
        out = {}
        while heap:
            k = -heapq.heappop(heap)
            if stopkey is not None and k < stopkey:
                break
            c = work.pop(k, 0) % p
            if not c:
                continue
            word = ((k & fmask) ^ one) | guard  # k's word, every guard set
            for entry in by_pos.get(-(k >> topshift), ()):
                if (word - entry[0]) & guard == guard:
                    break
            else:
                out[k] = c
                continue
            _, lead, excess, items = entry
            check_degree(((k >> degshift) & EXP_MASK) + excess)
            delta = k - lead
            work[k] = c  # lead cancels against the entry's own monic lead
            neg = p - c
            for tk, tc in items:
                nk = tk + delta
                old = work.get(nk)
                if old is None:
                    work[nk] = neg * tc % p
                    heapq.heappush(heap, -nk)
                else:
                    nc = (old + neg * tc) % p
                    if nc:
                        work[nk] = nc
                    else:
                        del work[nk]
        out.update(work)
        return out


# ---------------------------------------------------------------------------
# Buchberger

def spoly(entry1, entry2, lcm, deg, ctx, p):
    """S-vector of two monic reducer entries in one position: x^q1 v1 -
    x^q2 v2, each cofactor taking its lead to the lcm of the leads, whose
    exponent word is lcm and degree deg."""
    key = ctx.word_key(lcm, deg, entry1[1])
    s = {}
    for (_, lead, excess, items), sign in ((entry1, 1), (entry2, -1)):
        check_degree(deg + excess)
        delta = key - lead
        for k, c in items:
            nk = k + delta
            nc = (s.get(nk, 0) + sign * c) % p
            if nc:
                s[nk] = nc
            else:
                s.pop(nk, None)
    return s


def buchberger(vecs, ctx, p, gendegs, nlead):
    """A reducer whose entries in positions < nlead form a Groebner basis of
    the submodule generated by the homogeneous packed vectors `vecs`, in
    those positions; gendegs holds the internal degree of each free-module
    position.  Deterministic for a fixed input order.  Generators and
    S-pairs pop in nondecreasing degree, and only nonzero normal forms
    against every earlier entry are added, so no lead divides another: the
    leads in positions < nlead are those of the reduced basis.

    Positions >= nlead are a tag block (nlead = len(gendegs) when there is
    none), and no S-pair is formed there.  The S-vector of two entries led
    in it is a combination of the two, and only tag-block entries reduce
    it, so the pair adds no generator (Schreyer 1991): those entries still
    generate the part of the submodule that vanishes in positions < nlead,
    though no longer as a Groebner basis.

    The product criterion is only applied in rank 1 (len(gendegs) == 1); it
    is not valid for modules of higher rank.
    """
    # deferred import: kernel imports this module
    from .kernel import reducer_factory
    reducer = reducer_factory(ctx, p)
    # (degree, seq, generator vec or (entry, entry, lcm word, lcm degree))
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
        if pos >= nlead:
            continue
        *same, new = reducer.by_pos[pos]
        word = new[0]
        for old in same:
            lcm = ctx.lcm(word, old[0])
            if rank1 and lcm == word + old[0]:
                continue  # product criterion: the leads are coprime
            deg = ctx.word_degree(lcm)
            heapq.heappush(heap, (deg + gendegs[pos], seq,
                                  (old, new, lcm, deg)))
            seq += 1

    return reducer


def groebner_basis(vecs, ctx, p, gendegs, nlead):
    """The reducer from buchberger, its entries rewritten by interreduce into
    the reduced Groebner basis of the submodule generated by `vecs` in
    positions < nlead, and tail-reduced in the tag block."""
    reducer = buchberger(vecs, ctx, p, gendegs, nlead)
    interreduce(reducer)
    return reducer


def interreduce(reducer):
    """Rewrite the entries of a reducer from buchberger in place into the
    reduced Groebner basis: monic, tail-reduced, the lead first in each
    entry's terms, and each position's entries sorted by degree and lead.

    No lead of the reducer divides another, and a lead never divides a term
    smaller than itself, so reducing each tail against the same reducer
    gives it its unique normal form, whether or not the entries before it
    are rewritten yet.  In a tag block, where the entries are no Groebner
    basis, the tails are reduced all the same, and deterministically.
    """
    for entries in reducer.by_pos.values():
        for i, (word, lead, _, items) in enumerate(entries):
            tail = reducer.normal_form({k: c for k, c in items if k != lead})
            entries[i] = reducer.entry(word, lead, [(lead, 1), *tail.items()])
        mono_degree = reducer.ctx.mono_degree
        entries.sort(key=lambda e: (mono_degree(e[1]), e[1]))
