import time

import pytest
from hypothesis import given, settings, strategies as st

from parres.algebra import (MAX_CHARACTERISTIC, MAX_DEGREE, AlgebraError,
                            PolyParseError, PolynomialRingSpec, _is_prime,
                            grevlex_key)

P = 32003


@pytest.fixture(scope="module")
def ring():
    return PolynomialRingSpec(P, ["a", "b", "c"])


def _sieve(limit):
    """The primes below limit, by the sieve of Eratosthenes."""
    composite = bytearray(limit)
    for d in range(2, limit):
        if not composite[d]:
            composite[d * d::d] = b"\x01" * len(range(d * d, limit, d))
    return [n for n in range(2, limit) if not composite[n]]


def test_is_prime_matches_the_sieve():
    assert [n for n in range(20000) if _is_prime(n)] == _sieve(20000)
    # 2^31 - 1 is prime; its neighbours are not: 5, 2, 2 and 3 divide them
    assert MAX_CHARACTERISTIC == 2 ** 31
    for n in range(2 ** 31 - 3, 2 ** 31 + 2):
        assert _is_prime(n) == (n == 2 ** 31 - 1), n


def test_a_characteristic_is_tested_once_per_process():
    with pytest.raises(AlgebraError, match="^characteristic 32001 is not "
                       "prime$"):
        PolynomialRingSpec(32001, ["a"])
    PolynomialRingSpec(P, ["a"])
    hits = _is_prime.cache_info().hits
    PolynomialRingSpec(P, ["b", "c"])
    assert _is_prime.cache_info().hits == hits + 1
    # a composite characteristic raises again, from the kept answer
    with pytest.raises(AlgebraError, match="is not prime"):
        PolynomialRingSpec(32001, ["a"])


def test_parse_roundtrip(ring):
    f = ring.parse("a^2*b - 3*c^3 + 1")
    g = ring.parse(str(f))
    assert f == g


def test_parse_reports_position(ring):
    with pytest.raises(PolyParseError) as exc:
        ring.parse("a + * b", line=7)
    assert exc.value.line == 7
    assert exc.value.column is not None


@pytest.mark.parametrize("text", ["a + $", "a   $"])
def test_a_bad_character_is_reported_at_its_own_column(text):
    ring = PolynomialRingSpec(7, ["a", "b"])
    with pytest.raises(PolyParseError, match="bad character '\\$'") as exc:
        ring.parse(text, line=3)
    assert (exc.value.line, exc.value.column) == (3, 5)


LARGE_POWERS = [
    ("2^1000000", "2"),
    ("2^100000000*a^2", "2*a^2"),
    ("a^20000", "degree 20000 exceeds packing limit (line 1, column 3)"),
    ("a^200000", "degree 200000 exceeds packing limit (line 1, column 3)"),
    ("a^1000000", "degree 1000000 exceeds packing limit (line 1, column 3)"),
    ("(a+b)^3000", "degree 3000 exceeds packing limit (line 1, column 7)"),
    # a product is checked before its keys are added, at the column of
    # the factor that passes the limit
    ("a^600*b^600", "degree 1200 exceeds packing limit (line 1, column 7)"),
    ("(a+b)^600*(a-b)^600",
     "degree 1200 exceeds packing limit (line 1, column 11)"),
    ("a^511*b^511", "a^511*b^511"),
    ("a^511*b^511*a", "degree 1023 exceeds packing limit (line 1, column 13)"),
    ("0*a^600*b^600", "0"),
]


@pytest.mark.parametrize("text, expected", LARGE_POWERS,
                         ids=[text for text, _ in LARGE_POWERS])
def test_a_large_power_parses_or_fails_at_once(text, expected):
    # a power costs a number of products logarithmic in its exponent, and
    # one of a non-constant base, like each product of nonzero factors, is
    # checked against the packing limit before it is computed
    ring = PolynomialRingSpec(7, ["a", "b"])
    start = time.perf_counter()
    try:
        got = str(ring.parse(text, line=1))
    except PolyParseError as exc:
        got = str(exc)
    assert time.perf_counter() - start < 0.25
    assert got == expected


@pytest.mark.parametrize("text, column", [("1" * 5000 + "*a", 1),
                                          ("a^" + "1" * 5000, 3)],
                         ids=["coefficient", "exponent"])
def test_a_literal_past_the_digit_limit_is_a_parse_error(text, column):
    # int() would refuse 5,000 digits under the interpreter's default limit
    ring = PolynomialRingSpec(7, ["a"])
    with pytest.raises(PolyParseError,
                       match="integer literal of 5000 digits") as exc:
        ring.parse(text, line=3)
    assert (exc.value.line, exc.value.column) == (3, column)
    # the longest literal read
    assert ring.parse("1" * 640 + "*a") == \
        ring.parse(f"{int('1' * 640) % 7}*a")


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


def test_grevlex_vs_lex_leading_term(ring):
    # a*c^2 vs b^3, of equal degree: grevlex compares the last exponent, and
    # the smaller wins, where lex would take a*c^2 for its first exponent
    assert ring.parse("a*c^2 + b^3").leading_term()[0] == (0, 3, 0)


def test_compare_monomials_matches_order():
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 1, 0))
    assert grevlex_key((0, 0, 2)) < grevlex_key((0, 1, 1))


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


# 0, residues and their lifts past p, and literals up to the 640-digit
# limit
LITERALS = st.one_of(st.integers(0, 3 * P),
                     st.integers(1, 640).map(lambda k: int("9" * k)))
FACTOR_KINDS = st.sampled_from(["num", "var", "sum"])
LEAF_KINDS = st.sampled_from(["num", "var"])
FIRST_SIGNS = st.sampled_from(["", "-", "+"])


def _factor(draw, ring, budget, depth):
    """(text, Polynomial) of a random factor of degree at most budget: a
    literal, a variable or a parenthesized sum, maybe raised to a power."""
    kind = draw(FACTOR_KINDS if depth else LEAF_KINDS) if budget else "num"
    if kind == "num":
        n = draw(LITERALS)
        text, f = str(n), ring.one() * n
    elif kind == "var":
        text = draw(st.sampled_from(ring.variables))
        f = ring.gen(text)
    else:
        text, f = _sum(draw, ring, budget, depth - 1)
        text = f"({text})"
    if draw(st.booleans()):
        deg = f.degree()
        if deg <= 0:
            top = 10 ** 6  # a constant base has no degree to exceed
        elif len(f.terms) == 1:
            top = budget // deg
        else:
            top = min(3, budget // deg)  # a power of a sum is squared out
        e = draw(st.integers(0, top))
        text, f = f"{text}^{e}", f ** e
    return text, f


def _term(draw, ring, budget, depth):
    """(text, Polynomial) of a product of factors, each product within
    the degree budget."""
    text, f = _factor(draw, ring, budget, depth)
    for _ in range(draw(st.integers(0, 2))):
        room = budget - max(f.degree(), 0)
        g_text, g = _factor(draw, ring, room, depth)
        text, f = f"{text}*{g_text}", f * g
    return text, f


def _sum(draw, ring, budget, depth):
    """(text, Polynomial) of a sum of terms with a sign before the first
    or not, and maybe a term that cancels an earlier one."""
    sign = draw(FIRST_SIGNS)
    t, f = _term(draw, ring, budget, depth)
    terms = [(t, f, sign == "-")]  # (text, value, negated) of each term
    text, total = sign + t, -f if sign == "-" else f
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 3)) == 0:  # cancel an earlier term
            t, f, negated = terms[draw(st.integers(0, len(terms) - 1))]
            negated = not negated
        else:
            t, f = _term(draw, ring, budget, depth)
            negated = draw(st.booleans())
        terms.append((t, f, negated))
        text += f" {'-' if negated else '+'} {t}"
        total = total - f if negated else total + f
    return text, total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_parse_matches_polynomial_arithmetic(data):
    # the one parser adds and scales packed keys; the reference is the
    # Polynomial operator arithmetic of the same expression tree
    p = data.draw(st.sampled_from([2, 7, P, P]))
    names = ["a", "b", "c", "d"][:data.draw(st.integers(2, 4))]
    ring = PolynomialRingSpec(p, names)
    text, want = _sum(data.draw, ring, MAX_DEGREE, 2)
    assert ring.parse(text, line=1) == want, text
