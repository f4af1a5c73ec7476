"""The tests' reference polynomial arithmetic, on exponent-tuple dicts.

The package adds, multiplies and reduces packed vectors, and keeps
`Polynomial` only as their printed form.  The differential tests check the
packed kernel and the parser against this second arithmetic, so it must not
lean on them: it reads the `terms` of a Polynomial, a dict from exponent
tuples to coefficients, and builds each result as such a dict, which the
Polynomial constructor reduces mod p.  It takes nothing from the package
but `Polynomial`, `PolynomialRingSpec` and `grevlex_key`, as
test_algebra.py's test_the_reference_arithmetic_is_independent checks.
"""

from parres.algebra import Polynomial, grevlex_key


def monomial(ring, exp, coeff=1):
    """coeff * x^exp over ring."""
    return Polynomial(ring, {tuple(exp): coeff})


def constant(ring, c):
    return monomial(ring, (0,) * ring.nvars, c)


def add(f, *gs):
    """f plus each of gs, all over f's ring."""
    out = dict(f.terms)
    for g in gs:
        assert g.ring == f.ring
        for e, c in g.terms.items():
            out[e] = out.get(e, 0) + c
    return Polynomial(f.ring, out)


def neg(f):
    return Polynomial(f.ring, {e: -c for e, c in f.terms.items()})


def sub(f, g):
    return add(f, neg(g))


def scale(f, c):
    return Polynomial(f.ring, {e: c * v for e, v in f.terms.items()})


def mul(f, g):
    assert g.ring == f.ring
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return Polynomial(f.ring, out)


def power(f, n):
    """f^n by repeated squaring."""
    assert n >= 0
    out, square = constant(f.ring, 1), f
    while n:
        if n & 1:
            out = mul(out, square)
        n >>= 1
        if n:
            square = mul(square, square)
    return out


def monic(f):
    """f scaled so that its grevlex-largest term has coefficient 1; 0 stays
    0."""
    if f.is_zero():
        return f
    p = f.ring.characteristic
    lead = f.terms[max(f.terms, key=grevlex_key)]
    return scale(f, pow(lead, p - 2, p))
