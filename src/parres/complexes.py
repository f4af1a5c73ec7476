"""Chain complexes of graded free modules over a quotient ring.

A complex is stored over a finite homological window as per-degree generator
degree lists plus differentials; the composite of consecutive differentials is
checked to vanish (modulo the defining ideal) at construction time.  Homology
is returned as a finitely presented module, computed with the syzygy
machinery.  Also here: shift, mapping cone, duals, the comparison-theorem
lift of chain maps, the homology-killing cone, induced maps on homology, and
minimization by unit-pivot cancellation as each differential arrives.
"""

from __future__ import annotations

from .algebra import EXP_MASK, AlgebraError, DimensionMismatchError
from .groebner import (ExtendedSolver, FinitelyPresentedModule, INFINITE,
                       RingMatrix, matrix_solve, syzygies)


def _check_square_zero(d, up, n):
    """Raise unless the composite d_{n-1}∘d_n = d @ up is zero."""
    if not (d @ up).is_zero():
        raise AlgebraError(f"differential composite at degree {n} is nonzero")


class ChainComplex:
    """Bounded complex ... -> F_n -> F_{n-1} -> ... of graded free modules.

    modules: dict n -> tuple of generator degrees (absent means zero).
    differentials: dict n -> RingMatrix mapping F_n to F_{n-1}.
    """

    def __init__(self, ring, modules, differentials, check):
        self.ring = ring
        self.modules = {n: tuple(d) for n, d in modules.items() if d}
        degs = sorted(self.modules)
        self.lo = degs[0] if degs else 0
        self.hi = degs[-1] if degs else -1
        self.differentials = {}
        for n, mat in differentials.items():
            src = self.modules.get(n, ())
            tgt = self.modules.get(n - 1, ())
            if mat.col_degrees != src or mat.row_degrees != tgt:
                raise DimensionMismatchError(
                    f"differential at {n} does not match the stated modules")
            if not src or not tgt:
                continue
            self.differentials[n] = mat
        if check:
            for n, d in self.differentials.items():
                up = self.differentials.get(n + 1)
                if up is not None:
                    _check_square_zero(d, up, n + 1)

    def module(self, n):
        return self.modules.get(n, ())

    def rank(self, n):
        return len(self.module(n))

    def differential(self, n):
        """The map F_n -> F_{n-1}; a zero matrix if absent in range."""
        mat = self.differentials.get(n)
        if mat is not None:
            return mat
        return RingMatrix.zero(self.ring, self.module(n - 1), self.module(n))

    def __repr__(self):
        body = ", ".join(f"{n}:{len(d)}" for n, d in sorted(self.modules.items()))
        return f"<ChainComplex ranks {{{body}}} over {self.ring}>"


class ComplexMap:
    """Degreewise map of complexes commuting with the differentials."""

    def __init__(self, source, target, components):
        if source.ring != target.ring:
            raise AlgebraError("complex map across different rings")
        self.source = source
        self.target = target
        self.components = {}
        for n, mat in components.items():
            if mat.col_degrees != source.module(n) or \
                    mat.row_degrees != target.module(n):
                raise DimensionMismatchError(f"component at {n} has wrong shape")
            self.components[n] = mat
        self._check_commutes()

    def component(self, n):
        mat = self.components.get(n)
        if mat is not None:
            return mat
        return RingMatrix.zero(self.source.ring, self.target.module(n),
                               self.source.module(n))

    def _check_commutes(self):
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for n in range(lo, hi + 1):
            left = self.target.differential(n) @ self.component(n)
            right = self.component(n - 1) @ self.source.differential(n)
            if left != right:
                raise AlgebraError(f"complex map does not commute at degree {n}")

    def __repr__(self):
        return f"<ComplexMap {self.source!r} -> {self.target!r}>"


# ---------------------------------------------------------------------------
# homology


def homology_presentation(cplx, n):
    """(Z, H): cycle generator matrix and the presented homology module.

    Z has one column per homology generator (as an element of F_n); H is the
    finitely presented module with those generators, related by boundaries and
    by the syzygies among the cycle generators.
    """
    ring = cplx.ring
    z = syzygies(cplx.differential(n))
    if z.ncols == 0:
        return z, FinitelyPresentedModule(ring, ())
    solver = ExtendedSolver(z)
    boundary_expr = solver.solve(cplx.differential(n + 1))
    if boundary_expr is None:
        raise AlgebraError("boundaries do not lie among the cycles")
    rel = boundary_expr.hstack(solver.syzygy_matrix())
    return z, FinitelyPresentedModule(ring, z.col_degrees, rel)


# ---------------------------------------------------------------------------
# shift, cone, dual


def shift(cplx, t):
    """Suspension: (shifted)_n = C_{n-t}, differentials scaled by (-1)^t."""
    sign = -1 if t % 2 else 1
    modules = {n + t: d for n, d in cplx.modules.items()}
    diffs = {}
    for n, mat in cplx.differentials.items():
        diffs[n + t] = mat if sign == 1 else -mat
    return ChainComplex(cplx.ring, modules, diffs, check=False)


def mapping_cone(alpha):
    """Cone of alpha: X -> Y, with C_n = X_{n-1} (+) Y_n.

    Differential: (x, y) -> (-d^X x, d^Y y + alpha x).
    """
    x, y = alpha.source, alpha.target
    ring = x.ring
    ctx = ring._ctx

    def lowered(mat, down):
        """The columns of mat with every row moved down by `down`."""
        return [{ctx.move(k, ctx.pos_of(k) + down): c for k, c in col.items()}
                for col in mat.cols]

    modules = {}
    lo = min(x.lo + 1, y.lo)
    hi = max(x.hi + 1, y.hi)
    for n in range(lo, hi + 1):
        degs = x.module(n - 1) + y.module(n)
        if degs:
            modules[n] = degs
    diffs = {}
    for n in range(lo, hi + 1):
        xs = x.module(n - 1)
        ys = y.module(n)
        xt = x.module(n - 2)
        yt = y.module(n - 1)
        src = xs + ys
        tgt = xt + yt
        if not src or not tgt:
            continue
        # x rows first, then the y rows moved down below them
        cols = [{**dcol, **acol} for dcol, acol in
                zip((-x.differential(n - 1)).cols,
                    lowered(alpha.component(n - 1), len(xt)))]
        cols += lowered(y.differential(n), len(xt))
        diffs[n] = RingMatrix(ring, cols, tgt, src)
    return ChainComplex(ring, modules, diffs, check=True)


def dual(cplx):
    """Degreewise dual: D_n = (C_{-n})^*, d^D_n = (d^C_{-n+1}) transposed.

    Generator degrees are negated; homology of D in degree -i is the
    cohomology of Hom(C, R) in degree i.
    """
    modules = {}
    for n, degs in cplx.modules.items():
        modules[-n] = tuple(-d for d in degs)
    diffs = {}
    for n, mat in cplx.differentials.items():
        # mat: C_n -> C_{n-1}; transpose: D_{-(n-1)} -> D_{-n}
        diffs[-(n - 1)] = mat.transpose()
    return ChainComplex(cplx.ring, modules, diffs, check=True)


# ---------------------------------------------------------------------------
# lifting chain maps, killing top homology (cone over a resolution of H_s)


def lift_chain_map(source, target, s, gamma0):
    """Components gamma_q: source_q -> target_{s+q} (q >= 0) of a chain map
    from the s-fold shift of `source` into `target`, extending gamma0.

    Comparison theorem, degree by degree: gamma_q solves
    d^target_{s+q} gamma_q = (-1)^s gamma_{q-1} d^source_q, the sign being
    that of the shifted differential.  Above the top of `target` the
    obstruction must vanish and the lift stops there; it also stops at the
    top of `source`.  Raises AlgebraError where no gamma_q exists.
    """
    gammas = {0: gamma0}
    q = 1
    while source.module(q):
        rhs = gammas[q - 1] @ source.differential(q)
        if s % 2:
            rhs = -rhs
        if not target.module(s + q):
            if not rhs.is_zero():
                raise AlgebraError(f"nonzero obstruction at stage {q} above "
                                   "the top of the target complex")
            break
        sol = matrix_solve(target.differential(s + q), rhs)
        if sol is None:
            raise AlgebraError(f"no lift at stage {q}: target complex not "
                               f"exact in degree {s + q}")
        gammas[q] = sol
        q += 1
    return gammas


def kill_top_homology(cplx, resolution, s, z):
    """Cone construction that removes the top homology H_s of a complex.

    (z, h): the cycle matrix and the presented top nonzero homology H_s of
    cplx, as homology_presentation returns them; resolution: a
    ModuleResolution of h (carrying kept, the indices of the generators of
    h that are its degree-0 generators).
    Returns (alpha, cone) where alpha maps the s-fold shift of the resolution
    complex into cplx and the cone has H_i = 0 for i >= s while H_i for
    i < s is untouched.
    """
    f = resolution.complex
    kept = resolution.kept
    if kept and kept[-1] >= z.ncols:
        raise DimensionMismatchError(
            "resolution generators do not match the homology presentation")
    # cplx is exact above s, so the comparison theorem lifts the cycles of
    # the generators that F_0 keeps
    gammas = lift_chain_map(f, cplx, s, z.submatrix(range(z.nrows), kept))
    components = {s + q: g for q, g in gammas.items()}
    alpha = ComplexMap(shift(f, s), cplx, components)
    return alpha, mapping_cone(alpha)


# ---------------------------------------------------------------------------
# minimization


def cancel_units(ring, modules, degrees, arrive):
    """Cancel the unit entries of each differential as it arrives:
    (minimal complex, kept).

    For n in degrees, increasing, arrive(n, diffs, kept) gives d_n, its
    rows the live generators of F_{n-1}, or None to stop.  diffs holds the
    differentials as cancelled so far, and kept the indices of each
    degree's live generators among the columns d_n arrived with (among
    modules[n] for a module no differential brings, such as F_0).

    d_{n-1}∘d_n is checked when d_n arrives.  Then one pass over d_n: a
    column with a unit pivots on its lowest unit row, which the pivot
    update clears from every other live column; no pivot adds a unit to an
    earlier column, whose pivot-row entry has positive degree.  Then d_n
    keeps its live rows and columns, d_{n-1} drops its cancelled columns
    (gaining no unit), and d_{n-1}∘d_n is checked again.  A pivot in the
    lowest differential has no d_{n-1}: d_n∘d_{n+1} checks it if d_{n+1}
    is read off d_n as it arrived.
    """
    ctx, p = ring._ctx, ring.characteristic
    dmask = EXP_MASK << ctx.degshift  # k & dmask is 0 for a unit term k
    modules = dict(modules)
    kept = {n: list(range(len(d))) for n, d in modules.items()}
    diffs = {}
    for n in degrees:
        d = arrive(n, diffs, kept)
        if d is None:
            break
        below = diffs.get(n - 1)
        if below is not None:
            _check_square_zero(below, d, n)
        cols = dict(enumerate(d.cols))  # the live columns
        rows = dict.fromkeys(range(d.nrows))  # the live rows
        for j in range(d.ncols):
            units = [k for k in cols[j] if not k & dmask]
            if not units:
                continue
            pivot, key = cols.pop(j), max(units)  # key: the lowest unit row
            pi = ctx.pos_of(key)
            # column c gains -(entry (pi, c) / unit) * pivot, clearing row pi
            inv = pow(pivot[key], p - 2, p)
            scaled = {k: (-inv * v) % p for k, v in pivot.items()}
            del rows[pi]
            rest = list(cols.values())
            cols = dict(zip(cols, ring.products({pi: scaled}, rest, rest)))
        diffs[n], kept[n], live = d, list(cols), list(rows)
        if len(cols) == d.ncols:
            continue
        diffs[n] = RingMatrix(ring, list(cols.values()), d.row_degrees,
                              [d.col_degrees[j] for j in cols]
                              ).submatrix(live, range(len(cols)))
        kept[n - 1] = [kept[n - 1][i] for i in live]
        if below is not None:
            diffs[n - 1] = below.submatrix(range(below.nrows), live)
            _check_square_zero(diffs[n - 1], diffs[n], n)
    for n, d in diffs.items():
        modules[n], modules[n - 1] = d.col_degrees, d.row_degrees
    return (ChainComplex(ring, modules, diffs, check=False),
            {n: idx for n, idx in kept.items() if idx})


def minimize_with_tracking(cplx):
    """cancel_units over a given complex: (minimal complex, kept), kept
    mapping each homological degree to the original generator indices that
    survive.  Each d_n arrives as given, without the rows that the pass
    over d_{n-1} cancelled."""
    def arrive(n, diffs, kept):
        d = cplx.differentials[n]
        return d.submatrix(kept[n - 1], range(d.ncols))

    return cancel_units(cplx.ring, cplx.modules, sorted(cplx.differentials),
                        arrive)


# ---------------------------------------------------------------------------
# induced maps on homology


class InducedHomologyMap:
    """The map H_n(source) -> H_n(target) induced by a complex map.

    phi expresses the images of the source homology generators in the target
    homology generators; kernel and cokernel lengths come from length
    bookkeeping and are exact for finite-length homology.
    """

    def __init__(self, fmap, n):
        src_cplx, tgt_cplx = fmap.source, fmap.target
        self.ring = src_cplx.ring
        self.z_src, self.h_src = homology_presentation(src_cplx, n)
        self.z_tgt, self.h_tgt = homology_presentation(tgt_cplx, n)
        mapped = fmap.component(n) @ self.z_src
        big = self.z_tgt.hstack(tgt_cplx.differential(n + 1))
        expr = matrix_solve(big, mapped)
        if expr is None:
            raise AlgebraError("image of a cycle is not a cycle")
        self.phi = expr.submatrix(range(self.z_tgt.ncols), range(expr.ncols))

    def cokernel(self):
        rel = self.phi.hstack(self.h_tgt.relations)
        return FinitelyPresentedModule(self.ring, self.h_tgt.gen_degrees, rel)

    def kernel_length(self):
        ls, lt = self.h_src.length(), self.h_tgt.length()
        lc = self.cokernel().length()
        if INFINITE in (ls, lt, lc):
            raise AlgebraError("length bookkeeping needs finite homology")
        return ls - lt + lc

    def is_injective(self):
        return self.kernel_length() == 0
