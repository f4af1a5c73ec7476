"""Exact arithmetic: prime fields, monomial orders, sparse multivariate polynomials.

Everything is immutable after construction.  Polynomials are stored as
dictionaries mapping exponent vectors (tuples of non-negative ints) to nonzero
coefficients in [1, p); the canonical printed form sorts terms descending in
the ring's active monomial order.
"""

from __future__ import annotations

import re


class AlgebraError(Exception):
    pass


class RingMismatchError(AlgebraError):
    pass


class DimensionMismatchError(AlgebraError):
    pass


class NotHomogeneousError(AlgebraError):
    pass


class PolyParseError(AlgebraError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line})" if column is None else \
                f" (line {line}, column {column})"
        super().__init__(message + loc)


class Sentinel:
    """A named marker value such as INFINITE; it is never a truth value."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name

    def __bool__(self):
        raise AlgebraError(f"{self.name} used as a boolean")


def _is_prime(n):
    """Deterministic Miller-Rabin test with bases 2, 3, 5 and 7, exact for
    n < 3,215,031,751, the least strong pseudoprime to all four
    (Pomerance-Selfridge-Wagstaff 1980); every characteristic lies below
    MAX_CHARACTERISTIC = 2^31."""
    bases = (2, 3, 5, 7)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Total multiplicative order on exponent vectors.

    Subclasses provide `key(exp)`; larger key means larger monomial.
    """

    kind = None

    def key(self, exp):
        raise NotImplementedError

    def compare(self, m1, m2):
        if len(m1) != len(m2):
            raise DimensionMismatchError(
                f"exponent vectors of lengths {len(m1)} and {len(m2)}")
        k1, k2 = self.key(m1), self.key(m2)
        return (k1 > k2) - (k1 < k2)

    def sort_terms(self, terms):
        """Sort (exp, coeff) pairs descending in this order."""
        return sorted(terms, key=lambda t: self.key(t[0]), reverse=True)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return self.kind


class Grevlex(MonomialOrder):
    """Degree-reverse-lexicographic order."""

    kind = "grevlex"

    def key(self, exp):
        return (sum(exp),) + tuple(-e for e in reversed(exp))


class Lex(MonomialOrder):
    """Lexicographic order, first variable largest."""

    kind = "lex"

    def key(self, exp):
        return tuple(exp)


GREVLEX = Grevlex()
LEX = Lex()


# ---------------------------------------------------------------------------
# polynomial rings

# the GF(p) oracle multiplies two residues in int64, so p must stay below 2^31
MAX_CHARACTERISTIC = 1 << 31


class PolynomialRingSpec:
    """Standard-graded polynomial ring GF(p)[x_1..x_n], every variable degree 1."""

    def __init__(self, characteristic, variables, order=GREVLEX):
        if characteristic >= MAX_CHARACTERISTIC:
            raise AlgebraError(f"characteristic {characteristic} is not below "
                               "the supported bound 2^31")
        if not _is_prime(characteristic):
            raise AlgebraError(f"characteristic {characteristic} is not prime")
        variables = tuple(variables)
        if not variables:
            raise AlgebraError("need at least one variable")
        if len(set(variables)) != len(variables):
            raise AlgebraError("duplicate variable names")
        self.characteristic = characteristic
        self.variables = variables
        self.order = order
        self._var_index = {v: i for i, v in enumerate(variables)}

    @property
    def nvars(self):
        return len(self.variables)

    def __eq__(self, other):
        return (isinstance(other, PolynomialRingSpec)
                and self.characteristic == other.characteristic
                and self.variables == other.variables
                and self.order == other.order)

    def __hash__(self):
        return hash((self.characteristic, self.variables, self.order))

    def __repr__(self):
        return (f"GF({self.characteristic})[{', '.join(self.variables)}]"
                f" ({self.order.kind})")

    # -- constructors

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: 1})

    def constant(self, c):
        c %= self.characteristic
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def gen(self, name):
        i = self._var_index[name]
        exp = [0] * self.nvars
        exp[i] = 1
        return Polynomial(self, {tuple(exp): 1})

    def monomial(self, exp, coeff=1):
        if len(exp) != self.nvars:
            raise DimensionMismatchError("exponent vector length mismatch")
        coeff %= self.characteristic
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {tuple(exp): coeff})

    def parse(self, text, line=None):
        return parse_polynomial(self, text, line=line)


class Polynomial:
    """Immutable sparse polynomial over a PolynomialRingSpec."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        p = ring.characteristic
        clean = {}
        for exp, c in terms.items():
            c %= p
            if c:
                clean[tuple(exp)] = c
        self.terms = clean
        self._hash = None

    # -- predicates / invariants

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.nvars, 0)

    def sorted_terms(self):
        """Terms as (exp, coeff), descending in the active order."""
        return self.ring.order.sort_terms(self.terms.items())

    def leading_term(self):
        if not self.terms:
            return None
        exp = max(self.terms, key=self.ring.order.key)
        return exp, self.terms[exp]

    # -- arithmetic

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot combine Polynomial with {type(other)}")
        if other.ring != self.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return Polynomial(self.ring, out)

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self.ring, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        return Polynomial(self.ring, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise AlgebraError("negative power of a polynomial")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def monic(self):
        lt = self.leading_term()
        if lt is None:
            return self
        inv = pow(lt[1], self.ring.characteristic - 2, self.ring.characteristic)
        return self.scale(inv)

    # -- equality / hashing

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- printing

    def __str__(self):
        if not self.terms:
            return "0"
        p = self.ring.characteristic
        names = self.ring.variables
        pieces = []
        for exp, c in self.sorted_terms():
            # print coefficients in the symmetric range for readability
            neg = c > p - c and p > 2
            mag = p - c if neg else c
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = f"{mag}*" + "*".join(factors)
            pieces.append(("-" if neg else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"<{self} over {self.ring}>"


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()]))")


def _tokenize(text, line):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos and not text[pos:].strip():
            break
        if m is None:
            raise PolyParseError(f"bad character {text[pos]!r}",
                                 line=line, column=pos + 1)
        if m.lastindex is None:
            break
        num, name, op = m.group(1), m.group(2), m.group(3)
        col = m.start(m.lastindex) + 1
        if num is not None:
            out.append(("num", int(num), col))
        elif name is not None:
            out.append(("var", name, col))
        else:
            out.append(("op", op, col))
        pos = m.end()
    if text[pos:].strip():
        raise PolyParseError(f"bad character {text[pos:].strip()[0]!r}",
                             line=line, column=pos + 1)
    out.append(("end", None, len(text) + 1))
    return out


def parse_polynomial(ring, text, line=None):
    """Parse infix text like `a^2*b - 3*c^3 + 1` into a Polynomial.

    Grammar: sum of terms with +/-; a term is `*`-separated factors; a factor
    is an integer, a variable, an optionally `^`-powered variable, or a
    parenthesized subexpression.
    """
    tokens = _tokenize(text, line)
    idx = 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def fail(msg, col):
        raise PolyParseError(msg, line=line, column=col)

    def parse_factor():
        kind, val, col = take()
        if kind == "num":
            base = ring.constant(val)
        elif kind == "var":
            if val not in ring._var_index:
                fail(f"unknown variable {val!r}", col)
            base = ring.gen(val)
        elif kind == "op" and val == "(":
            base = parse_sum()
            kind2, val2, col2 = take()
            if not (kind2 == "op" and val2 == ")"):
                fail("expected ')'", col2)
        else:
            fail(f"unexpected token {val!r}", col)
        if peek()[0] == "op" and peek()[1] == "^":
            take()
            kind2, val2, col2 = take()
            if kind2 != "num":
                fail("expected integer exponent after '^'", col2)
            base = base ** val2
        return base

    def parse_term():
        f = parse_factor()
        while peek()[0] == "op" and peek()[1] == "*":
            take()
            f = f * parse_factor()
        return f

    def parse_sum():
        kind, val, _ = peek()
        negate = False
        if kind == "op" and val in "+-":
            take()
            negate = val == "-"
        total = parse_term()
        if negate:
            total = -total
        while peek()[0] == "op" and peek()[1] in "+-":
            _, sign, _ = take()
            term = parse_term()
            total = total - term if sign == "-" else total + term
        return total

    result = parse_sum()
    kind, val, col = peek()
    if kind != "end":
        fail(f"unexpected trailing token {val!r}", col)
    return result
