import ast
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from parres._engine import vec_degree
from parres.algebra import (MAX_CHARACTERISTIC, MAX_DEGREE, AlgebraError,
                            NotHomogeneousError, Polynomial, PolyParseError,
                            PolynomialRingSpec, _is_prime, grevlex_key)
from polyref import add, constant, mul, neg, power, sub

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
    # the constructor reduces each coefficient mod p and drops a zero one
    assert ring.parse(f"{P - 1}*a") == ring.parse("-a") == \
        Polynomial(ring, {(1, 0, 0): -1, (0, 1, 0): P})


def test_degree_and_homogeneity(ring):
    assert ring.parse("0").degree() == -1
    assert ring.parse("1").degree() == 0
    f = ring.parse("a*b + c^2")
    assert f.degree() == 2
    # homogeneity is checked on the packed form
    assert vec_degree(ring._ctx, ring.packed(f), (0,)) == 2
    with pytest.raises(NotHomogeneousError, match=r"degrees \[1, 2\]"):
        vec_degree(ring._ctx, ring.packed(ring.parse("a + c^2")), (0,))


def test_grevlex_vs_lex_leading_term(ring):
    # a*c^2 vs b^3, of equal degree: grevlex compares the last exponent, and
    # the smaller wins, where lex would take a*c^2 for its first exponent
    assert ring.parse("a*c^2 + b^3").sorted_terms()[0][0] == (0, 3, 0)


def test_compare_monomials_matches_order():
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 1, 0))
    assert grevlex_key((0, 0, 2)) < grevlex_key((0, 1, 1))


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
        text, f = str(n), constant(ring, n)
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
        text, f = f"{text}^{e}", power(f, e)
    return text, f


def _term(draw, ring, budget, depth):
    """(text, Polynomial) of a product of factors, each product within
    the degree budget."""
    text, f = _factor(draw, ring, budget, depth)
    for _ in range(draw(st.integers(0, 2))):
        room = budget - max(f.degree(), 0)
        g_text, g = _factor(draw, ring, room, depth)
        text, f = f"{text}*{g_text}", mul(f, g)
    return text, f


def _sum(draw, ring, budget, depth):
    """(text, Polynomial) of a sum of terms with a sign before the first
    or not, and maybe a term that cancels an earlier one."""
    sign = draw(FIRST_SIGNS)
    t, f = _term(draw, ring, budget, depth)
    terms = [(t, f, sign == "-")]  # (text, value, negated) of each term
    text, total = sign + t, neg(f) if sign == "-" else f
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 3)) == 0:  # cancel an earlier term
            t, f, negated = terms[draw(st.integers(0, len(terms) - 1))]
            negated = not negated
        else:
            t, f = _term(draw, ring, budget, depth)
            negated = draw(st.booleans())
        terms.append((t, f, negated))
        text += f" {'-' if negated else '+'} {t}"
        total = sub(total, f) if negated else add(total, f)
    return text, total


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_parse_matches_polynomial_arithmetic(data):
    # the one parser adds and scales packed keys; the reference is the
    # exponent-tuple arithmetic of the same expression tree
    p = data.draw(st.sampled_from([2, 7, P, P]))
    names = ["a", "b", "c", "d"][:data.draw(st.integers(2, 4))]
    ring = PolynomialRingSpec(p, names)
    text, want = _sum(data.draw, ring, MAX_DEGREE, 2)
    assert ring.parse(text, line=1) == want, text


SRC = Path(__file__).resolve().parents[1] / "src" / "parres"
# what the reference may take from the package: the printed form and the
# order, and of those only the data, never a packed key
REFERENCE_IMPORTS = {"Polynomial", "PolynomialRingSpec", "grevlex_key"}
REFERENCE_ATTRIBUTES = {"ring", "terms", "is_zero", "nvars", "characteristic"}


def _src_names():
    """Each function, class and method the package defines, and each
    attribute it stores on self."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                names.add(node.attr)
    return names


def _package_uses(source, src_names):
    """The package names that source imports or reads as an attribute
    beyond what the reference may use."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "parres"]
        elif (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "parres"):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if node.module != "parres.algebra"
                      or a.name not in REFERENCE_IMPORTS]
        elif (isinstance(node, ast.Attribute) and node.attr in src_names
                and node.attr not in REFERENCE_ATTRIBUTES):
            found.append(node.attr)
    return found


def test_the_reference_arithmetic_is_independent():
    # the exponent-tuple reference checks the packed kernel and the parser,
    # so it must not reach them, not even through a ring's methods
    src_names = _src_names()
    source = Path(__file__).with_name("polyref.py").read_text()
    assert _package_uses(source, src_names) == []
    # the check sees each way in
    assert _package_uses(
        "import parres\n"
        "from parres.algebra import PackContext, parse_packed, grevlex_key\n"
        "from parres.groebner import QuotientRingSpec\n"
        "f.ring.packed(f); ring.products(a, b, None); ring.reduce_packed(v)\n"
        "f.ring._ctx.pack(0, e)\n", src_names) == [
        "parres", "parres.algebra.PackContext", "parres.algebra.parse_packed",
        "parres.groebner.QuotientRingSpec", "packed", "products",
        "reduce_packed", "pack", "_ctx"]
