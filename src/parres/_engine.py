"""Packed vectors and the Buchberger driver.

A vector of a free module R^k over GF(p)[x_1..x_n] is a dict from packed
keys to coefficients, the keys laid out by `algebra.PackContext`: plain
integer comparison realizes the module monomial order, multiplying a term
by a ring monomial is a key addition, and divisibility is one subtraction
on exponent words.

The reducer is the basis store, and only `buchberger` builds one: its
monic entries are the only copy of the basis, `groebner_basis` rewrites them
in place into the reduced basis and returns that reducer for the ring and the
solver to reduce against, and a caller that needs only leads reads entries.
The ring's store holds I in position 0 alone: a reduction modulo I in any
position goes through the ring's normal forms of single monomials, each made
once, by `QuotientRingSpec.monomial_form` alone.

A Groebner basis of a submodule of a free module over R = S/I is computed
over S with I's reduced basis G implicit: `buchberger` takes the ring, and
its reducer treats g e_i, for every g in G, as a basis element in every
position i.  The rows I*F are never built or stored, and no two of them
are paired, since G is already a Groebner basis.  The normal form reduces
each term modulo I, in every position, through the ring's forms, before it
scans the store, so every stored term is standard modulo I.  In a tagged
module `buchberger` forms no S-pair past the leading block (Schreyer's
skip), and the tag block is reduced modulo I as well; see `buchberger` for
why neither changes an answer over R.
"""

from __future__ import annotations

import heapq

from .algebra import EXP_BITS, EXP_MASK, NotHomogeneousError, check_degree

# ---------------------------------------------------------------------------
# vectors: dict packed-key -> coefficient in (0, p)


def vec_degree(ctx, vec, gendegs):
    """Internal degree of a homogeneous vector; raises if inhomogeneous."""
    degshift, topshift = ctx.degshift, ctx.topshift
    # each term's monomial degree plus its position's degree
    degs = {((k >> degshift) & EXP_MASK) + gendegs[-(k >> topshift)]
            for k in vec}
    if len(degs) > 1:
        raise NotHomogeneousError(f"degrees {sorted(degs)} in one vector")
    return degs.pop() if degs else None


class PyReducer:
    """Pure-Python reducer: full normal form against a growing basis, and
    the only copy of that basis (`by_pos`: position -> entries in order).

    Over a quotient ring, `buchberger` sets `ring` to the QuotientRingSpec
    that owns I: every g e_i, for g in I's reduced basis and i any
    position, is then a basis element that `by_pos` does not hold.
    """

    def __init__(self, ctx, p):
        self.ctx = ctx
        self.p = p
        self.by_pos = {}
        self.ring = None

    def __len__(self):
        return sum(map(len, self.by_pos.values()))

    def entry(self, lead, terms, scale):
        """The stored form (word, lead, excess, items) of the (key,
        coefficient) pairs `terms`, in any order, led by `lead`: items holds
        each coefficient times scale mod p, word is the lead's exponent word,
        and excess is how far the largest monomial degree of the terms lies
        above the lead's.  One pass over the terms."""
        ctx, p = self.ctx, self.p
        dshift = ctx.degshift
        dmask = EXP_MASK << dshift
        base = top = lead & dmask
        items = []
        for k, c in terms:
            items.append((k, c * scale % p))
            if k & dmask > top:
                top = k & dmask
        return (lead & ctx.fmask) ^ ctx.one, lead, (top - base) >> dshift, items

    def normal_form(self, vec):
        """Fully reduce `vec`, modulo I in every position when `ring` is set.

        Terms are taken largest first from a heap of negated keys.  A
        reduction only adds keys below the one it reduces, so a key taken
        never comes back, and a heap key no longer in `work` was cancelled.

        Every term is reduced modulo I before the store is scanned, through
        the ring's monomial-form table: the term is replaced by its
        monomial's form moved to its position, or kept for the scan when
        the form is True (a standard monomial).  A monomial the table lacks
        goes to `ring.monomial_form`, which alone reduces it and records
        its form, so each monomial is reduced once per ring.
        """
        ctx = self.ctx
        p = self.p
        by_pos = self.by_pos
        topshift, degshift = ctx.topshift, ctx.degshift
        fmask, one, guard, mask = ctx.fmask, ctx.one, ctx.guard, ctx.monomask
        ring = self.ring
        forms = ring._monomial_forms if ring is not None else None
        work = dict(vec)
        heap = [-k for k in work]
        heapq.heapify(heap)
        out = {}
        while heap:
            k = -heapq.heappop(heap)
            c = work.pop(k, 0) % p
            if not c:
                continue
            form = None
            if forms is not None:
                base = k & mask
                form = forms.get(base)
                if form is None:
                    form = ring.monomial_form(base)
            if form is not None and form is not True:
                # c k becomes c times its monomial's form, moved into place
                items, delta, neg = form, k - base, c
            else:
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
        return out


# ---------------------------------------------------------------------------
# Buchberger

def buchberger(vecs, ctx, p, gendegs, nlead, ring):
    """A reducer whose entries in positions < nlead, together with g e_i for
    every basis element g of I and every position i < nlead, form a
    Groebner basis, in those positions, of the submodule generated by the
    homogeneous packed vectors `vecs` and I times every position; gendegs
    holds the internal degree of each free-module position.  ring is the
    QuotientRingSpec that owns I, whose monomial forms the reducer reads,
    or None for the ring's own basis of I (and no I).
    Deterministic for a fixed input order.  Generators and S-pairs pop in
    nondecreasing degree, and only nonzero normal forms against every
    earlier entry and I are added, so no lead divides another and none lies
    in I's lead ideal: the stored leads in positions < nlead, with each
    LT(g) e_i that none of them divides, are those of the reduced basis.

    Positions >= nlead are a tag block T (nlead = len(gendegs) when there
    is none), and no S-pair is formed there.  The S-vector of two entries
    led in it is a combination of the two, and only tag-block entries and
    I reduce it, so the pair adds no generator (Schreyer 1991): those
    entries, with I*T, still generate the part of the submodule that
    vanishes in positions < nlead, though no longer as a Groebner basis.

    The reducer reduces every term modulo I, the tag terms too, so the run
    works modulo I*T as well as modulo I times the leading block.  This
    changes no answer over R, for two reasons.  First, I*T maps to zero in
    R^(len(gendegs) - nlead), so the entries led in T still generate the
    syzygies over R that a caller reads off them.  Second, a reduction of a
    tag term adds only tag terms, which sort below every leading-block key,
    so the leading-block part of every normal form and of every entry, and
    with them every lead, S-pair, criterion and retirement, are those of a
    run that reduces modulo I in the leading block alone, term for term.

    The product criterion is applied between stored entries only in rank 1
    (len(gendegs) == 1); it is not valid between module elements of higher
    rank.  Against g e_i it holds in any rank: for h led by m e_i with m
    coprime to LT(g), the S-vector LT(g) h - m g e_i equals
    g h - h_i g e_i - (g - LT(g)) h + (h_i - m) g e_i, where h_i is the
    i-th coordinate of h, and g h - h_i g e_i is the sum of the h_j g e_j
    over the other positions j.  Every summand has its lead below the lcm,
    so the pair has a standard representation.  For a tag position j,
    g e_j is no basis element, but the syzygy the pair drops, g times the
    tag part of h, lies in I times the tag block, which is zero over R.

    Once a new lead m e_i divides LT(g), g e_i takes that one S-pair and
    is retired in position i (Gebauer-Moeller 1988): for any later entry h',
    m e_i divides the lcm of h' and g e_i, so the pair (h', g e_i) is
    covered by the pairs (h', new) and (new, g e_i), each formed or met by
    the product criterion.

    Each S-pair is formed, built and stored in this loop, with the word
    arithmetic of `algebra.PackContext` written out on its fields, and
    reduced by one `normal_form` call.
    """
    # deferred import: kernel imports this module
    from .kernel import reducer_factory
    reducer = reducer_factory(ctx, p)
    ideal = ring._basis if ring is not None else ()
    if ideal:
        reducer.ring = ring
    by_pos, entry = reducer.by_pos, reducer.entry
    topshift, degshift, one, guard = ctx.topshift, ctx.degshift, ctx.one, \
        ctx.guard
    summer, sumshift = ctx.summer, ctx.sumshift
    degmask = (2 << EXP_BITS) - 1  # a word's degree, up to 2 * MAX_DEGREE
    heappush, heappop = heapq.heappush, heapq.heappop
    live = {}  # position -> the entries of I not retired there
    # (degree, seq, generator vec or (entry, entry, lcm word, lcm degree))
    heap = [(vec_degree(ctx, vec, gendegs), seq, vec)
            for seq, vec in enumerate(v for v in vecs if v)]
    heapq.heapify(heap)
    seq = len(heap)
    rank1 = len(gendegs) == 1

    while heap:
        _, _, item = heappop(heap)
        if type(item) is tuple:
            # the S-vector x^q1 v1 - x^q2 v2 of two monic entries, each
            # cofactor taking its lead to the lcm, whose key lies in the
            # position of the first entry
            (_, lead1, excess1, items1), (_, lead2, excess2, items2), \
                lcm, deg = item
            key = ((lead1 >> topshift) << topshift) + (lcm ^ one) \
                + (deg << degshift)
            check_degree(deg + excess1)
            delta = key - lead1
            vec = {k + delta: c for k, c in items1}
            check_degree(deg + excess2)
            delta = key - lead2
            for k, c in items2:
                k += delta
                prev = vec.get(k)
                if prev is None:
                    vec[k] = p - c
                elif prev == c:
                    del vec[k]
                else:
                    vec[k] = (prev - c) % p
        else:
            vec = item
        nf = reducer.normal_form(vec)
        if not nf:
            continue
        lead = max(nf)
        pos = -(lead >> topshift)
        new = entry(lead, nf.items(), pow(nf[lead], p - 2, p))
        same = by_pos.setdefault(pos, [])
        if pos >= nlead:
            same.append(new)
            continue
        word = new[0]
        wg = word | guard
        gendeg = gendegs[pos]
        for old in same:
            w = old[0]
            # the lcm word: with every guard set in word, word - w keeps
            # the guard of each field where word's exponent is at least
            # w's, and that mask less its shifted guards picks the larger
            # field; its degree is the field at sumshift of lcm * summer
            ge = (wg - w) & guard
            lcm = w ^ ((word ^ w) & (ge - (ge >> EXP_BITS)))
            if rank1 and lcm == word + w:
                continue  # product criterion: the leads are coprime
            deg = (lcm * summer >> sumshift) & degmask
            heappush(heap, (deg + gendeg, seq, (old, new, lcm, deg)))
            seq += 1
        same.append(new)
        if not ideal:
            continue
        kept = []
        for g in live.get(pos, ideal):
            w = g[0]
            ge = (wg - w) & guard
            lcm = w ^ ((word ^ w) & (ge - (ge >> EXP_BITS)))
            if lcm != word + w:  # else the product criterion holds
                # new first: the S-vector takes the position of its first
                # entry
                deg = (lcm * summer >> sumshift) & degmask
                heappush(heap, (deg + gendeg, seq, (new, g, lcm, deg)))
                seq += 1
            if lcm != w:
                kept.append(g)  # else the new lead divides LT(g): retired
        live[pos] = kept

    return reducer


def groebner_basis(vecs, ctx, p, gendegs, nlead, ring):
    """The reducer from buchberger, its entries rewritten by interreduce into
    the reduced Groebner basis of the submodule generated by `vecs` and I
    times every position, in the positions < nlead, less the g e_i that
    the reducer keeps implicit, and tail-reduced in the tag block."""
    reducer = buchberger(vecs, ctx, p, gendegs, nlead, ring)
    interreduce(reducer)
    return reducer


def interreduce(reducer):
    """Rewrite the entries of a reducer from buchberger in place into the
    reduced Groebner basis: monic, tail-reduced, the lead first in each
    entry's terms, and each position's entries sorted by lead, which within
    a position ranks degree first.

    No lead of the reducer divides another, and a lead never divides a term
    smaller than itself, so reducing each tail against the same reducer
    gives it its unique normal form, whether or not the entries before it
    are rewritten yet.  In a tag block, where the entries are no Groebner
    basis, the tails are reduced all the same, and deterministically.

    buchberger stores each entry as a normal form against the entries
    before it, its terms in decreasing order, so almost every tail is
    already reduced.  One scan over the tail, with normal_form's
    divisibility test against the leads in each term's position, finds
    the rest: only a tail with a term some lead divides is reduced, and
    every other entry is kept as stored.
    """
    ctx = reducer.ctx
    topshift, fmask, one, guard = ctx.topshift, ctx.fmask, ctx.one, ctx.guard
    words = {pos: [e[0] for e in entries]
             for pos, entries in reducer.by_pos.items()}

    def reducible(tail):
        """Whether some lead divides a term of tail: normal_form's test."""
        for k, _ in tail:
            word = ((k & fmask) ^ one) | guard
            for w in words.get(-(k >> topshift), ()):
                if (word - w) & guard == guard:
                    return True
        return False

    for entries in reducer.by_pos.values():
        for i, (_, lead, _, items) in enumerate(entries):
            # the lead is stored first; an entry with its lead elsewhere
            # reads as reducible (its lead divides itself) and is rewritten
            if reducible(items[1:]):
                tail = reducer.normal_form({k: c for k, c in items
                                            if k != lead})
                entries[i] = reducer.entry(lead, [(lead, 1), *tail.items()], 1)
        entries.sort(key=lambda e: e[1])
