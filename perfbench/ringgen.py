"""Seeded random small homogeneous rings for the `random` workload.

Distribution.  A ring is k[vars]/I over k = GF(32003):

- 3 variables (a b c): 2 or 3 generators, each of degree 2 or 3;
- 4 variables (a b c d): 2 or 3 generators, each of degree 2.

Each generator is, with probability 1/2, a monomial, and otherwise a
binomial m1 - c*m2 of two distinct monomials of its degree.  Four-variable
rings stay quadratic because cubic generators in four variables give rings
whose cap-3 resolution takes 3-17 s, a deep-resolution cost the `deep`
workload already covers.

Two streams.  The supports (variables, generator degrees, monomials) come
from a fixed catalogue stream, so every seed runs the same ring shapes and
the workload's cost does not swing with the seed.  Drawing the supports
from the run seed too gave an 8-15% quartile spread of the workload time
across seeds, in a simulation from measured per-ring times.  The run seed
draws every binomial coefficient c in 1..p-1 and the order of the rings.

Each ring's system of parameters is picked in set-up with
`invariants.reference_sop` and written into the ring-spec text as
`[sop x]`.  A ring whose reference sop is missing or empty (dimension 0, so
no `[sop]` section can name it) is redrawn: in the catalogue stream when the
support is drawn, in the seed stream when coefficients are drawn.  There is
no other filtering.
"""

from __future__ import annotations

import itertools
import random

P = 32003
CATALOGUE_SEED = 20060417
SHAPES = ((3, (2, 3), 120), (4, (2,), 60))   # (variables, degrees, rings)
MAX_REDRAWS = 50


def _monomials(nvars, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=nvars)
            if sum(e) == degree]


def _mono_text(exp, names):
    parts = []
    for v, k in zip(names, exp):
        if k == 1:
            parts.append(v)
        elif k > 1:
            parts.append(f"{v}^{k}")
    return "*".join(parts)


def _draw_support(rng, nvars, degrees):
    """Generators as (m1, m2 or None) exponent pairs."""
    gens = []
    for _ in range(rng.choice((2, 3))):
        monos = _monomials(nvars, rng.choice(degrees))
        if rng.random() < 0.5:
            gens.append((rng.choice(monos), None))
        else:
            m1, m2 = rng.sample(monos, 2)
            gens.append((m1, m2))
    return nvars, gens


def ring_text(support, coeffs, sop=None):
    """Ring-spec text for a support with one coefficient per binomial."""
    nvars, gens = support
    names = "abcd"[:nvars]
    it = iter(coeffs)
    lines = []
    for m1, m2 in gens:
        if m2 is None:
            lines.append(_mono_text(m1, names))
        else:
            lines.append(f"{_mono_text(m1, names)} - "
                         f"{next(it)}*{_mono_text(m2, names)}")
    text = (f"[field]\n{P}\n[vars]\n{' '.join(names)}\n[ideal]\n"
            + "".join(g + "\n" for g in lines))
    if sop:
        text += "[sop x]\n" + "".join(f + "\n" for f in sop)
    return text


def _sop(api, text):
    """Reference sop as text lines, or None if the ring has none usable."""
    ring = api.harness.parse_ring_spec(text).ring
    try:
        x = api.invariants.reference_sop(ring)
    except api.algebra.AlgebraError:
        return None
    if x.count == 0:
        return None
    return [str(f) for f in x.elements]


def _binomials(support):
    return sum(1 for _, m2 in support[1] if m2 is not None)


def _coefficients(rng, support):
    return [rng.randrange(1, P) for _ in range(_binomials(support))]


def catalogue(api):
    """The fixed supports, each with a usable sop for coefficients drawn
    from the catalogue stream."""
    rng = random.Random(CATALOGUE_SEED)
    out = []
    for nvars, degrees, count in SHAPES:
        while sum(1 for s in out if s[0] == nvars) < count:
            support = _draw_support(rng, nvars, degrees)
            if _sop(api, ring_text(support, _coefficients(rng, support))):
                out.append(support)
    return out


def random_rings(api, seed):
    """Ring-spec texts (with `[sop x]`) for one run seed, in run order."""
    rng = random.Random(seed)
    texts = []
    for support in catalogue(api):
        for _ in range(MAX_REDRAWS):
            coeffs = _coefficients(rng, support)
            sop = _sop(api, ring_text(support, coeffs))
            if sop:
                texts.append(ring_text(support, coeffs, sop))
                break
        else:
            raise RuntimeError(f"no sop after {MAX_REDRAWS} coefficient "
                               f"draws for support {support}")
    rng.shuffle(texts)
    return texts
