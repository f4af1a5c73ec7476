"""Koszul complexes, their homology and cohomology, powers, comparison maps.

The exterior basis of the degree-p term is indexed by the p-element subsets of
{0..r-1} in lexicographic order.  The differential takes e_{i1<...<ip} to
sum_j (-1)^(j+1) x_{ij} e_{...without ij...}.  Module coefficients are
handled by tensoring with a free resolution of the module and totalizing,
which computes the same homology in the degrees of interest.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .algebra import AlgebraError, NotHomogeneousError
from .groebner import (FinitelyPresentedModule, INFINITE, RingMatrix)
from .complexes import ChainComplex, ComplexMap, homology_at


class ParameterSequence:
    """A sequence of homogeneous positive-degree elements of R."""

    def __init__(self, ring, elements, name=None):
        self.ring = ring
        self.name = name
        elems = []
        for f in elements:
            if f.ring != ring.ambient:
                raise AlgebraError("sequence element outside the ambient ring")
            f = ring.reduce(f)
            if not f.is_homogeneous():
                raise NotHomogeneousError(f"inhomogeneous sequence element {f}")
            if f.degree() < 1:
                raise AlgebraError("sequence elements must have positive degree")
            elems.append(f)
        self.elements = tuple(elems)

    @property
    def count(self):
        return len(self.elements)

    def degrees(self):
        return tuple(f.degree() for f in self.elements)

    def quotient_module(self):
        """R/(x) as a finitely presented module over R."""
        rel = RingMatrix.from_columns(self.ring, [[f] for f in self.elements],
                                      row_degrees=[0])
        return FinitelyPresentedModule(self.ring, [0], rel)

    def is_sop(self):
        """System of parameters: d = dim R elements with R/(x) artinian."""
        if self.count != self.ring.dimension():
            return False
        return self.quotient_module().length() is not INFINITE

    def power(self, n):
        return power_sequence(self, n)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        body = ", ".join(str(f) for f in self.elements)
        return f"<ParameterSequence ({body}) over {self.ring}>"


def power_sequence(x, n):
    """Elementwise n-th powers of the sequence."""
    if n < 1:
        raise AlgebraError("power must be at least 1")
    if n == 1:
        return x
    return ParameterSequence(x.ring, [f ** n for f in x.elements],
                             name=None if x.name is None else f"{x.name}^{n}")


def _subsets(r, p):
    return list(combinations(range(r), p))


def koszul_complex(x, module=None):
    """The Koszul complex K(x; M); M defaults to the ring itself.

    For a module with relations, a free resolution of length count(x)+1 is
    tensored in and totalized: the homology in degrees 0..count(x) is that of
    K(x) tensor M.
    """
    k = _bare_koszul(x)
    if module is None:
        return k
    degs = module.gen_degrees
    if module.relations.is_zero() and len(degs) == 1:
        if degs[0] == 0:
            return k
        modules = {n: tuple(d + degs[0] for d in dd)
                   for n, dd in k.modules.items()}
        diffs = {n: RingMatrix(k.ring, m.nrows, m.ncols, m.entries,
                               modules[n - 1], modules[n], _reduced=True)
                 for n, m in k.differentials.items()}
        return ChainComplex(k.ring, modules, diffs, check=False)
    from .resolutions import minimal_free_resolution
    f = minimal_free_resolution(module, x.count + 1).complex
    return total_tensor(k, f)


def _bare_koszul(x):
    ring = x.ring
    r = x.count
    degs = x.degrees()
    modules = {}
    for p in range(r + 1):
        modules[p] = tuple(sum(degs[i] for i in s) for s in _subsets(r, p))
    diffs = {}
    for p in range(1, r + 1):
        src = _subsets(r, p)
        tgt = {s: i for i, s in enumerate(_subsets(r, p - 1))}
        entries = {}
        for col, s in enumerate(src):
            for j, ij in enumerate(s):
                rest = s[:j] + s[j + 1:]
                poly = x.elements[ij] if j % 2 == 0 else -x.elements[ij]
                if not poly.is_zero():
                    entries[(tgt[rest], col)] = poly
        diffs[p] = RingMatrix(ring, len(tgt), len(src), entries,
                              modules[p - 1], modules[p], _reduced=True)
    return ChainComplex(ring, modules, diffs, check=True)


def total_tensor(k, f):
    """Total complex of the double complex K tensor F (both free, same ring).

    Block (p, q) with p + q = n holds K_p tensor F_q; blocks ordered by
    ascending p, and within a block the index is (K basis) * rank F_q +
    (F basis).  d(k x f) = dk x f + (-1)^p k x df.
    """
    ring = k.ring
    if f.ring != ring:
        raise AlgebraError("tensor factors over different rings")
    lo = k.lo + f.lo
    hi = k.hi + f.hi
    modules = {}
    offsets = {}
    for n in range(lo, hi + 1):
        degs = []
        offs = {}
        for p in range(k.lo, k.hi + 1):
            q = n - p
            kd = k.module(p)
            fd = f.module(q)
            if not kd or not fd:
                continue
            offs[p] = len(degs)
            for dk in kd:
                for df in fd:
                    degs.append(dk + df)
        if degs:
            modules[n] = tuple(degs)
            offsets[n] = offs
    diffs = {}
    for n in range(lo + 1, hi + 1):
        if n not in modules or (n - 1) not in modules:
            continue
        entries = {}
        src_off = offsets[n]
        tgt_off = offsets[n - 1]
        for p, off in src_off.items():
            q = n - p
            rk_f = len(f.module(q))
            # horizontal: dK tensor id, lands in block (p-1, q)
            if p - 1 in tgt_off and q == (n - 1) - (p - 1):
                dk = k.differential(p)
                toff = tgt_off[p - 1]
                for (i, j), v in dk.entries.items():
                    for g in range(rk_f):
                        entries[(toff + i * rk_f + g, off + j * rk_f + g)] = v
            # vertical: (-1)^p id tensor dF, lands in block (p, q-1)
            if p in tgt_off:
                df = f.differential(q)
                toff = tgt_off[p]
                rk_ft = len(f.module(q - 1))
                sign = -1 if p % 2 else 1
                for (i, j), v in df.entries.items():
                    vv = v if sign == 1 else -v
                    for s in range(len(k.module(p))):
                        key = (toff + s * rk_ft + i, off + s * rk_f + j)
                        prev = entries.get(key)
                        entries[key] = vv if prev is None else prev + vv
        diffs[n] = RingMatrix(ring, len(modules[n - 1]), len(modules[n]),
                              entries, modules[n - 1], modules[n],
                              _reduced=True)
    return ChainComplex(ring, modules, diffs, check=True)


def koszul_homology(x, module, i):
    """H_i(x; M) as a finitely presented module (module=None means M = R)."""
    if not 0 <= i <= x.count:
        raise AlgebraError(f"homology index {i} outside 0..{x.count}")
    return homology_at(koszul_complex(x, module), i)


def koszul_cohomology(x, module, i):
    """H^i(x; M), realized through self-duality as H_{r-i}(x; M)."""
    if not 0 <= i <= x.count:
        raise AlgebraError(f"cohomology index {i} outside 0..{x.count}")
    return koszul_homology(x, module, x.count - i)


def comparison_map(x, n):
    """The map of complexes K(x^(n+1); R) -> K(x^n; R).

    Degree-1 component sends e_j to x_j e_j; degree-p components are the
    exterior powers, diagonal with entry prod_{i in S} x_i on subset S.
    """
    if n < 1:
        raise AlgebraError("power must be at least 1")
    src = koszul_complex(x.power(n + 1))
    tgt = koszul_complex(x.power(n))
    ring = x.ring
    components = {}
    r = x.count
    for p in range(r + 1):
        entries = {}
        for idx, s in enumerate(_subsets(r, p)):
            poly = ring.reduce(prod((x.elements[i] for i in s),
                                    start=ring.ambient.one()))
            if not poly.is_zero():
                entries[(idx, idx)] = poly
        components[p] = RingMatrix(ring, len(_subsets(r, p)),
                                   len(_subsets(r, p)), entries,
                                   tgt.module(p), src.module(p),
                                   _reduced=True)
    return ComplexMap(src, tgt, components, check=True)
