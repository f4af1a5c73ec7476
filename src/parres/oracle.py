"""Degreewise linear-algebra cross-checks over GF(p).

Everything here works one internal degree at a time: fix a degree t, take the
standard-monomial basis of each graded piece, turn ring-linear maps into
sparse GF(p) vectors, and answer rank/kernel/homology questions with one
exact elimination in Python integers, `Echelon`.  This is the independent
back-end used to validate the symbolic (Groebner-based) computations; it
shares only the packed monomial shift (a key addition) and the normal form
modulo the defining ideal.  Its slice and its echelon also give
`resolutions.betti_table`'s last row, so that row's independent check reads
raw syzygies instead.

A basis is a list of packed keys, each of which holds its free-module
position.  A slice is a list of sparse vectors, one per source basis
element: dicts {target index: value in (0, p)} that store no zero.
matrix_slice reduces mod p each column coefficient once per call, and
after that only where two terms meet in one row or a coefficient meets a
normal-form coefficient.  The echelon, and gf_rank with it, takes any
integer entries and reads them mod p itself.
"""

from __future__ import annotations

from .algebra import check_degree


class Echelon:
    """A row echelon form over GF(p), built one sparse vector at a time:
    the one elimination of the oracle and of `resolutions.betti_table`'s
    last row, exact in Python integers for any prime p.

    `add` reduces a vector {index: integer} on its smallest index with a
    nonzero residue for as long as that index has a pivot, and keeps what
    is left as a new pivot; len() is the rank of the vectors added.  A
    pivot row's other nonzero residues lie at larger indices, so a
    reduction only fills in larger indices and ends.

    Rows are copy-on-write.  A one-entry vector becomes a bare pivot, whose
    elimination deletes one entry; a longer vector whose smallest index
    has a nonzero residue and no pivot is stored as given, with the
    inverse of that entry; any other vector is copied, reduced mod p, when
    a pivot reduces it.  So stored rows may hold entries unreduced or 0
    mod p, and alias the vectors added, which must not change afterwards.
    """

    def __init__(self, p):
        self._p = p
        # pivot index -> (row, inverse of its pivot entry), or () for a
        # bare pivot
        self._pivots = {}

    def __len__(self):
        return len(self._pivots)

    def add(self, vector):
        """Whether vector, reduced by the pivots so far, adds a pivot."""
        p, pivots = self._p, self._pivots
        if len(vector) == 1:
            (j, c), = vector.items()
            c %= p
            if not c:
                return False
            pivot = pivots.get(j)
            if pivot is None:
                pivots[j] = ()
                return True
            if not pivot:
                return False
            row = {j: c}
        elif vector:
            j = min(vector)
            c = vector[j] % p
            if c and j not in pivots:
                pivots[j] = (vector, pow(c, -1, p))
                return True
            row = {i: r for i, c in vector.items() if (r := c % p)}
        else:
            return False
        while row:
            j = min(row)
            pivot = pivots.get(j)
            if pivot is None:
                pivots[j] = (row, pow(row[j], -1, p)) if len(row) > 1 else ()
                return True
            if not pivot:
                del row[j]
                continue
            tail, inv = pivot
            f = row[j] * inv % p
            # the pivot entry cancels itself, and an entry of a stored
            # vector that is 0 mod p leaves row as it is
            for i, d in tail.items():
                x = (row.get(i, 0) - f * d) % p
                if x:
                    row[i] = x
                else:
                    row.pop(i, None)
        return False


def gf_rank(vectors, p):
    """Rank over GF(p) of an iterable of sparse vectors {index: integer}:
    the pivot count of one `Echelon` over the nonempty ones, shortest
    first.  Every entry is read mod p, so one that is 0 mod p is never a
    pivot; the vectors given are left as they are."""
    echelon = Echelon(p)
    for v in sorted(filter(None, vectors), key=len):
        echelon.add(v)
    return len(echelon)


def free_basis(ring, gen_degrees, degree):
    """Basis of the degree-`degree` piece of the graded free module R(gens):
    the packed keys of its elements, read in one walk over the ring's
    packed staircases."""
    keys = []
    for pos, d in enumerate(gen_degrees):
        shift = ring._ctx.position_shift(pos)
        keys += [key - shift for key in ring.packed_staircase(degree - d)]
    return keys


def matrix_slice(matrix, degree):
    """A RingMatrix on the degree-`degree` graded pieces, over GF(p).

    Returns (columns, target keys, source keys): one sparse vector per
    source basis element, {target basis index: value in (0, p)}, with no
    zero stored, and the packed keys of the two bases, from the ring's
    tables.  The first source element in a position takes that column's
    terms less the key of 1 there, with coefficients reduced mod p; a
    monomial multiple of the column is then one key addition per term.  A
    standard term goes to its own row, and a term c k that leaves the
    staircase adds c times the normal form of k, which the ring keeps per
    monomial, so no monomial is reduced twice (the normal form is linear).
    A row's first value is stored as it is; a second one to the same row,
    or a product with a form coefficient, is reduced mod p.
    """
    ring = matrix.ring
    ctx = ring._ctx
    tgt = free_basis(ring, matrix.row_degrees, degree)
    src = free_basis(ring, matrix.col_degrees, degree)
    if not (tgt and src):
        return [{} for _ in src], tgt, src
    # every product below has degree at most degree - min(row degrees)
    check_degree(degree - min(matrix.row_degrees))
    row_of = dict(zip(tgt, range(len(tgt))))
    p = ring.characteristic
    forms, form, mask = ring._monomial_forms, ring.monomial_form, ctx.monomask
    topshift = ctx.topshift
    columns = []
    last = None
    for src_key in src:
        pos = -(src_key >> topshift)
        if pos != last:
            # the column's terms less the key of 1 in position pos: adding
            # a source key there multiplies the column by its monomial
            unit = ctx.move(ctx.one, pos)
            terms = [(k - unit, c % p) for k, c in matrix.cols[pos].items()]
            last = pos
        col = {}
        for t, c in terms:
            key = t + src_key
            row = row_of.get(key)
            if row is not None:
                x = col.get(row)
                col[row] = c if x is None else (x + c) % p
                continue
            # the term left the staircase: add its monomial's normal form,
            # moved to the term's position
            base = key & mask
            nf = forms.get(base)
            if nf is None:
                nf = form(base)
            off = key - base
            for tk, tc in nf:
                row = row_of[tk + off]
                x = col.get(row)
                col[row] = c * tc % p if x is None else (x + c * tc) % p
        # a zero is left only where values cancel or a coefficient is 0 mod p
        if 0 in col.values():
            col = {row: c for row, c in col.items() if c}
        columns.append(col)
    return columns, tgt, src


def module_dim_at(module, degree):
    """GF(p)-dimension of one graded piece of a finitely presented module:
    the size of the target basis of the relation slice less its rank."""
    rel, tgt, _ = matrix_slice(module.relations, degree)
    return len(tgt) - gf_rank(rel, module.ring.characteristic)


def module_length_upto(module, max_degree):
    """Sum of graded dimensions from the lowest generator degree up to
    max_degree."""
    return sum(module_dim_at(module, t)
               for t in range(min(module.gen_degrees, default=0),
                              max_degree + 1))


def homology_dim_at(cplx, n, degree):
    """dim over GF(p) of the degree-`degree` piece of H_n of a chain complex:
    the size of the source basis of the slice of d_n less the ranks of d_n
    and d_{n+1}."""
    p = cplx.ring.characteristic
    a, _, src = matrix_slice(cplx.differential(n), degree)
    if not src:
        return 0
    b, _, _ = matrix_slice(cplx.differential(n + 1), degree)
    return len(src) - gf_rank(a, p) - gf_rank(b, p)
