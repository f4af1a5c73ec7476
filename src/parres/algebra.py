"""Exact arithmetic: prime fields, the grevlex order, packed terms, sparse
polynomials and the one parser.

Everything is immutable after construction.  Polynomials are stored as
dictionaries mapping exponent vectors (tuples of non-negative ints) to nonzero
coefficients in [1, p); the canonical printed form sorts terms descending in
grevlex.  The layers below pass packed vectors, dicts from the integer keys
of a `PackContext` to coefficients: the parser emits them, and a
polynomial ring's `packed` and `polynomial` are the one edge between them
and Polynomials.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import isqrt


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


@lru_cache(maxsize=64)
def _is_prime(n):
    """Whether n is prime, by trial division up to isqrt(n): exact for every
    n.  PolynomialRingSpec rejects a characteristic from MAX_CHARACTERISTIC
    = 2^31 up before it calls this, so a test takes under 2^16 divisions.
    Every ring built asks, and a process reads few characteristics, so the
    answers of the last 64 are kept."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


# ---------------------------------------------------------------------------
# the monomial order


def grevlex_key(exp):
    """Sort key of the exponent vector exp in grevlex, the one monomial
    order: a larger key is a larger monomial."""
    return (sum(exp),) + tuple(-e for e in reversed(exp))


# ---------------------------------------------------------------------------
# packed terms
#
# A term of a free module R^k over GF(p)[x_1..x_n] is packed into a single
# integer so that plain integer comparison realizes the module monomial
# order (position-over-term, lower position first, positions tie-broken by
# the ring order).  Multiplying a term by a ring monomial is then an integer
# addition of a precomputed delta, which is what makes the reduction inner
# loop cheap.
#
# A key is `rest - (pos << topshift)`.  The position is an unbounded signed
# top field: keys in positions >= 1 are negative, and a lower position
# compares larger.  `rest`, in [0, 2^topshift), holds the monomial in fields
# of EXP_BITS bits, most significant first, each under a guard bit g that is
# 0 in every key, laid out for grevlex, the one monomial order:
#
#     [g| total degree |g| EXP_MASK - e_{n-1} | ... |g| EXP_MASK - e_0]
#
# So within a position keys rank by degree first.  Raising e_j by one adds
# the variable's weight w_j to a key, so multiplying by x^q adds sum q_j w_j,
# and the cofactor taking a lead to a term it divides is their key
# difference.  The one limit is MAX_DEGREE, for a packed term and for a
# product of terms alike.
#
# Divisibility and lcm are operations on exponent words: the exponent fields
# of a key in place, uncomplemented, with every guard bit 0 and no degree
# field.  With every guard bit set in b's word, b - a clears the guard of
# each field where a's exponent is larger, and no field borrows past its own
# guard, so a divides b exactly when the difference keeps every guard.

EXP_BITS = 10
MAX_DEGREE = (1 << EXP_BITS) - 2
EXP_MASK = (1 << EXP_BITS) - 1


def check_degree(deg):
    """Raise before a key addition makes a term of degree deg, which would
    overflow the packed fields."""
    if deg > MAX_DEGREE:
        raise AlgebraError(f"degree {deg} exceeds packing limit")


class PackContext:
    """Packing rules for the grevlex keys of one number of variables.

    A key is affine in the exponents, so the product of the terms ka (in any
    position) and kb (in position 0) is the key ka + kb - one, where `one` is
    the key of 1 in position 0.
    """

    __slots__ = ("shifts", "degshift", "topshift", "monomask",
                 "weights", "one", "fmask", "guard", "summer", "sumshift")

    def __init__(self, nv):
        stride = EXP_BITS + 1  # each field and its guard bit
        self.topshift = stride * (nv + 1)
        # key & monomask is the key moved to position 0
        self.monomask = (1 << self.topshift) - 1
        self.degshift = stride * nv
        self.shifts = tuple(stride * j for j in range(nv))
        # e_j + 1 adds one to the degree field and lowers e_j's field, which
        # holds EXP_MASK - e_j
        self.weights = tuple((1 << self.degshift) - (1 << s)
                             for s in self.shifts)
        # 1 holds EXP_MASK in every exponent field, so its key is their mask
        self.one = self.fmask = sum(EXP_MASK << s for s in self.shifts)
        self.guard = sum(1 << (s + EXP_BITS) for s in self.shifts)
        # word * summer holds the sum of all fields in the field at
        # sumshift; every field of the product is a partial sum, below
        # 2^stride for words up to degree 2 * MAX_DEGREE, so none carries
        low = min(self.shifts)
        self.summer = sum(1 << (s - low) for s in self.shifts)
        self.sumshift = max(self.shifts)

    def pack(self, pos, exp):
        check_degree(sum(exp))  # so every exponent fits its field too
        return self.one + self.mul_delta(exp) - (pos << self.topshift)

    def move(self, key, pos):
        """The term `key` moved to free-module position pos."""
        return (key & self.monomask) - (pos << self.topshift)

    def unpack(self, key):
        return -(key >> self.topshift), self.exp_of(key)

    def exp_of(self, key):
        return tuple([((key >> s) & EXP_MASK) ^ EXP_MASK for s in self.shifts])

    def pos_of(self, key):
        return -(key >> self.topshift)

    def mono_degree(self, key):
        """Total degree of the monomial part of a packed term."""
        return (key >> self.degshift) & EXP_MASK

    def word(self, key):
        """Exponent word of a packed term: its exponent fields in place,
        uncomplemented, with no degree field."""
        return (key & self.fmask) ^ self.one

    def lcm(self, a, b):
        """Exponent word of the lcm of the monomials with words a and b."""
        guard = self.guard
        ge = ((a | guard) - b) & guard  # the guards of fields where a >= b
        return b ^ ((a ^ b) & (ge - (ge >> EXP_BITS)))

    def word_degree(self, word):
        """Total degree of an exponent word, up to 2 * MAX_DEGREE."""
        return (word * self.summer >> self.sumshift) & ((2 << EXP_BITS) - 1)

    def word_key(self, word, deg, key):
        """Key of the monomial of exponent word `word` and degree deg in the
        position of `key`; deg must not exceed MAX_DEGREE for the key to
        take part in products."""
        topshift = self.topshift
        return (((key >> topshift) << topshift) + (word ^ self.one)
                + (deg << self.degshift))

    def mul_delta(self, exp):
        """Additive key delta for multiplication by the ring monomial x^exp;
        the caller checks the degree of the products."""
        delta = 0
        for e, w in zip(exp, self.weights):
            delta += e * w
        return delta

    def position_shift(self, n):
        """Key delta that moves a term from position i to position i - n."""
        return n << self.topshift

    def split_by_position(self, vec):
        """{pos: the terms of vec in position pos, moved to position 0}."""
        shift, mask = self.topshift, self.monomask
        groups = {}
        for key, c in vec.items():
            groups.setdefault(-(key >> shift), {})[key & mask] = c
        return groups


# ---------------------------------------------------------------------------
# polynomial rings

# input validation: the tests cover characteristics up to 2^31 - 1, and
# _is_prime's trial division stays in milliseconds below it; no arithmetic
# needs the bound, since every coefficient is a Python integer
MAX_CHARACTERISTIC = 1 << 31


class PolynomialRingSpec:
    """Standard-graded polynomial ring GF(p)[x_1..x_n], every variable degree 1."""

    def __init__(self, characteristic, variables):
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
        self._var_index = {v: i for i, v in enumerate(variables)}
        # the one packing context of the ring and of its quotients: keys
        # depend only on the number of variables
        self._ctx = PackContext(len(variables))

    @property
    def nvars(self):
        return len(self.variables)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolynomialRingSpec)
            and self.characteristic == other.characteristic
            and self.variables == other.variables)

    def __hash__(self):
        return hash((self.characteristic, self.variables))

    def __repr__(self):
        return (f"GF({self.characteristic})[{', '.join(self.variables)}]"
                " (grevlex)")

    # -- constructors

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: 1})

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
        """The Polynomial of infix text: `parse_packed`'s vector read back."""
        return self.polynomial(parse_packed(self, text, line))

    # -- the edge between Polynomials and packed vectors

    def packed(self, f):
        """The packed position-0 vector of the Polynomial f: the one way
        from a Polynomial to packed keys."""
        if f.ring != self:
            raise RingMismatchError("element outside the ambient ring")
        pack = self._ctx.pack
        return {pack(0, exp): c for exp, c in f.terms.items()}

    def polynomial(self, vec):
        """The Polynomial of a packed vector, its keys read in position 0."""
        exp_of = self._ctx.exp_of
        return Polynomial(self, {exp_of(k): c for k, c in vec.items()})


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

    def sorted_terms(self):
        """Terms as (exp, coeff), descending in grevlex."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]),
                      reverse=True)

    def leading_term(self):
        if not self.terms:
            return None
        exp = max(self.terms, key=grevlex_key)
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
        """self^n by repeated squaring."""
        if n < 0:
            raise AlgebraError("negative power of a polynomial")
        out, square = self.ring.one(), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
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

# a variable name, here and in a ring spec's [vars]
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(%s)|([-+*^()]))" % IDENTIFIER.pattern)
# the longest integer literal read: int() converts 640 digits under any
# setting of the interpreter's digit limit, and no coefficient mod p < 2^31
# or exponent below the packing limit needs more
MAX_LITERAL_DIGITS = 640


def _tokenize(text, line):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        num, name, op = m.group(1), m.group(2), m.group(3)
        col = m.start(m.lastindex) + 1
        if num is not None:
            if len(num) > MAX_LITERAL_DIGITS:
                raise PolyParseError(
                    f"integer literal of {len(num)} digits is longer than "
                    f"{MAX_LITERAL_DIGITS}", line=line, column=col)
            out.append(("num", int(num), col))
        elif name is not None:
            out.append(("var", name, col))
        else:
            out.append(("op", op, col))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise PolyParseError(f"bad character {rest[0]!r}", line=line,
                             column=len(text) - len(rest) + 1)
    out.append(("end", None, len(text) + 1))
    return out


def parse_packed(ring, text, line):
    """Parse infix text like `a^2*b - 3*c^3 + 1` into a packed position-0
    vector of ring's packing context, coefficients in [1, p).

    Grammar: sum of terms with +/-; a term is `*`-separated factors; a factor
    is an integer, a variable or a parenthesized subexpression, optionally
    `^`-powered.  A product of terms is a key addition and a power of one
    term scales its key, so each product and each power of a non-constant
    base is checked against the packing limit before any key is made, and
    fails at the column of the factor or exponent that passes it.  A power
    of a sum is computed by repeated squaring.
    """
    parser = _Parser(ring, text, line)
    result = parser._sum()
    kind, val, col = parser._take()
    if kind != "end":
        parser._fail(f"unexpected trailing token {val!r}", col)
    return result


class _Parser:
    """The recursive descent of parse_packed over the tokens of one text,
    one method per rule of the grammar.  A parse makes no function objects
    and leaves no reference cycle, as nested parsers calling each other
    through their closures would."""

    def __init__(self, ring, text, line):
        self._ring, self._line = ring, line
        self._p, self._one = ring.characteristic, ring._ctx.one
        self._tokens = _tokenize(text, line)
        self._idx = 0

    def _peek(self):
        """The value of the next token: an operator's character, a
        variable's name, a literal's int, or None at the end."""
        return self._tokens[self._idx][1]

    def _take(self):
        self._idx += 1
        return self._tokens[self._idx - 1]

    def _fail(self, msg, col):
        raise PolyParseError(msg, line=self._line, column=col)

    def _degree(self, f):
        """Top degree of f, -1 for 0: the largest key's, as keys in one
        position rank by degree first."""
        return self._ring._ctx.mono_degree(max(f)) if f else -1

    def _times(self, f, g):
        p, one = self._p, self._one
        out = {}
        for ka, ca in f.items():
            delta = ka - one
            for kb, cb in g.items():
                k = kb + delta
                out[k] = out.get(k, 0) + ca * cb
        return {k: r for k, c in out.items() if (r := c % p)}

    def _power(self, f, n):
        one = self._one
        if len(f) == 1:
            (k, c), = f.items()
            return {one + n * (k - one): pow(c, n, self._p)}
        out, square = {one: 1}, f
        while n:
            if n & 1:
                out = self._times(out, square)
            n >>= 1
            if n:
                square = self._times(square, square)
        return out

    def _factor(self):
        kind, val, col = self._take()
        ring, p, one = self._ring, self._p, self._one
        if kind == "num":
            base = {one: val % p} if val % p else {}
        elif kind == "var":
            if val not in ring._var_index:
                self._fail(f"unknown variable {val!r}", col)
            base = {one + ring._ctx.weights[ring._var_index[val]]: 1}
        elif kind == "op" and val == "(":
            base = self._sum()
            kind2, val2, col2 = self._take()
            if not (kind2 == "op" and val2 == ")"):
                self._fail("expected ')'", col2)
        else:
            self._fail(f"unexpected token {val!r}", col)
        if self._peek() == "^":
            self._take()
            kind2, val2, col2 = self._take()
            if kind2 != "num":
                self._fail("expected integer exponent after '^'", col2)
            deg = self._degree(base)
            if deg > 0 and deg * val2 > MAX_DEGREE:
                self._fail(f"degree {deg * val2} exceeds packing limit", col2)
            base = self._power(base, val2)
        return base

    def _term(self):
        f = self._factor()
        while self._peek() == "*":
            self._take()
            col = self._tokens[self._idx][2]
            g = self._factor()
            deg = self._degree(f) + self._degree(g)
            if f and g and deg > MAX_DEGREE:
                self._fail(f"degree {deg} exceeds packing limit", col)
            f = self._times(f, g)
        return f

    def _sum(self):
        p = self._p
        negate = self._peek() == "-"
        if self._peek() in ("+", "-"):
            self._take()
        total = self._term()
        if negate:
            total = {k: p - c for k, c in total.items()}
        while self._peek() in ("+", "-"):
            sign = -1 if self._take()[1] == "-" else 1
            for k, c in self._term().items():
                c = (total.get(k, 0) + sign * c) % p
                if c:
                    total[k] = c
                else:
                    del total[k]
        return total
