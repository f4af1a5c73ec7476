import pytest
from hypothesis import given, settings, strategies as st

from parres.algebra import (GREVLEX, LEX, MAX_CHARACTERISTIC, PolyParseError,
                            PolynomialRingSpec, _is_prime)

P = 32003


@pytest.fixture(scope="module")
def ring():
    return PolynomialRingSpec(P, ["a", "b", "c"])


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if _trial_division(n)]
    # 2^31 - 1 is prime; its neighbours are not
    assert MAX_CHARACTERISTIC == 2 ** 31
    for n in range(2 ** 31 - 3, 2 ** 31 + 2):
        assert _is_prime(n) == _trial_division(n) == (n == 2 ** 31 - 1), n


def test_parse_roundtrip(ring):
    f = ring.parse("a^2*b - 3*c^3 + 1")
    g = ring.parse(str(f))
    assert f == g


def test_parse_reports_position(ring):
    with pytest.raises(PolyParseError) as exc:
        ring.parse("a + * b", line=7)
    assert exc.value.line == 7
    assert exc.value.column is not None


def test_parse_unknown_variable(ring):
    with pytest.raises(PolyParseError):
        ring.parse("a + z")


def test_coefficients_normalized_mod_p(ring):
    f = ring.parse(f"{P}*a + b")
    assert f == ring.gen("b")
    assert (ring.gen("a") * (P - 1)) == -ring.gen("a")


def test_degree_and_homogeneity(ring):
    assert ring.zero().degree() == -1
    assert ring.one().degree() == 0
    f = ring.parse("a*b + c^2")
    assert f.degree() == 2 and f.is_homogeneous()
    assert not ring.parse("a + c^2").is_homogeneous()


def test_grevlex_vs_lex_leading_term():
    g = PolynomialRingSpec(P, ["a", "b", "c"], GREVLEX)
    l = PolynomialRingSpec(P, ["a", "b", "c"], LEX)
    # a*c^2 vs b^3: grevlex prefers higher degree... equal degree here,
    # grevlex compares reverse-last-exponent, lex compares first exponent
    fg = g.parse("a*c^2 + b^3")
    fl = l.parse("a*c^2 + b^3")
    assert fg.leading_term()[0] == (0, 3, 0)   # b^3 wins grevlex
    assert fl.leading_term()[0] == (1, 0, 2)   # a*c^2 wins lex


def test_compare_monomials_matches_order(ring):
    assert ring.order.compare((1, 0, 0), (0, 1, 0)) > 0
    assert ring.order.compare((0, 0, 2), (0, 1, 1)) < 0


coef = st.integers(min_value=0, max_value=P - 1)
expv = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys = st.lists(st.tuples(expv, coef), max_size=6)


def _mk(ring, items):
    f = ring.zero()
    for exp, c in items:
        f = f + ring.monomial(exp, c)
    return f


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(fa, fb, fc):
    ring = PolynomialRingSpec(P, ["a", "b", "c"])
    f, g, h = _mk(ring, fa), _mk(ring, fb), _mk(ring, fc)
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == ring.zero()
    assert f * ring.one() == f


@settings(max_examples=40, deadline=None)
@given(polys)
def test_monic_has_unit_lead(items):
    ring = PolynomialRingSpec(P, ["a", "b", "c"])
    f = _mk(ring, items)
    if not f.is_zero():
        assert f.monic().leading_term()[1] == 1


def test_pow(ring):
    a = ring.gen("a")
    b = ring.gen("b")
    assert (a + b) ** 2 == a * a + 2 * a * b + b * b
    assert (a + b) ** 0 == ring.one()
