import importlib.util
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from parres import _engine, algebra, harness, invariants
from parres.algebra import Polynomial
from parres.cli import bundled_ring_text
from parres.complexes import ChainComplex
from parres.groebner import RingMatrix, standard_monomials, syzygies
from parres.harness import parse_ring_spec
from parres.koszul import koszul_complex
from parres.resolutions import minimal_free_resolution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def is_minimal(cplx):
    """No differential has a term of degree 0, that is, a unit entry."""
    mono_degree = cplx.ring._ctx.mono_degree
    return all(mono_degree(k) for m in cplx.differentials.values()
               for col in m.cols for k in col)


def sop_differentials(spec, cap):
    """The differentials of K(x; R) and of the minimal resolution of R/(x)
    through cap, for the spec's reference sop."""
    x = spec.sop()
    res = minimal_free_resolution(x.quotient_module(), cap)
    return [*koszul_complex(x).differentials.values(),
            *res.complex.differentials.values()]


def unminimized(module, cap):
    """The iterated syzygies of module's presentation through homological
    degree cap + 1, checked and with no unit cancelled: the complex that
    minimal_free_resolution(module, cap) would minimize if it cancelled
    only at the end."""
    modules, diffs = {0: module.gen_degrees}, {}
    d = module.relations
    for n in range(1, cap + 2):
        if d.ncols == 0:
            break
        modules[n], diffs[n] = d.col_degrees, d
        if n <= cap:
            d = syzygies(d)
    return ChainComplex(module.ring, modules, diffs, check=True)


def nonminimal_resolution(spec, cap):
    """The unminimized complex of minimal_free_resolution of R/(x) through
    cap, for the spec's reference sop x."""
    return unminimized(spec.sop().quotient_module(), cap)


def solver_stores(module, cap):
    """(unreduced, store) for every ExtendedSolver store that
    minimal_free_resolution of `module` through cap builds: a copy of the
    store's entries as buchberger left them, caught by a spy on
    interreduce, and the store itself, interreduced."""
    seen = []
    real = _engine.interreduce

    def spy(reducer):
        seen.append(({pos: list(entries)
                      for pos, entries in reducer.by_pos.items()}, reducer))
        return real(reducer)

    with mock.patch.object(_engine, "interreduce", spy):
        minimal_free_resolution(module, cap)
    return seen


def add_entry(reducer, vec):
    """Store vec (dict), made monic, as an entry of reducer; returns its
    position.  The lead is the largest key, so vec's terms may come in any
    order.  The former `PyReducer.add`, for the tests that fill a reducer
    by hand and for the reference Buchberger loop."""
    lead = max(vec)
    pos = reducer.ctx.pos_of(lead)
    reducer.by_pos.setdefault(pos, []).append(
        reducer.entry(lead, vec.items(), pow(vec[lead], reducer.p - 2,
                                             reducer.p)))
    return pos


def ideal_rows(ring, positions):
    """g*e_i for every basis element g of the ring's I and every i in
    positions: the rows that a reducer over R keeps implicit."""
    move = ring._ctx.move
    return [{move(k, i): c for k, c in items}
            for *_, items in ring._basis for i in positions]


def checked_tables(ring):
    """Check each table entry of the ring against the reducer's normal form
    and pack; returns the number of normal forms kept."""
    forms = ring._monomial_forms
    for key, form in forms.items():
        want = ring._reducer.normal_form({key: 1})
        assert ({key: 1} if form is True else dict(form)) == want
    for t, stair in ring._staircases.items():
        assert stair == tuple(ring._ctx.pack(0, exp) for exp in
                              standard_monomials(ring._lead_exps,
                                                 ring.nvars, t))
    return len(forms)


def packed(ambient, polys):
    """The packed position-0 vectors of the Polynomials polys, made by the
    ambient ring's one edge from Polynomials to packed vectors, for the
    ring and sequence constructors."""
    return [ambient.packed(f) for f in polys]


def matrix_of(ring, entries, row_degrees, col_degrees):
    """The RingMatrix with Polynomial entries {(i, j): f}, zero elsewhere,
    built through RingMatrix.from_columns."""
    zero = Polynomial(ring.ambient, {})
    return RingMatrix.from_columns(
        ring, [[entries.get((i, j), zero) for i in range(len(row_degrees))]
               for j in range(len(col_degrees))], row_degrees, col_degrees)


def bundled_spec(name):
    """The bundled ring spec parsed afresh, so that its sequences carry no
    Koszul data that an earlier test computed; a test that counts runs
    reads this, not the session fixture."""
    return parse_ring_spec(bundled_ring_text(name), name=name)


@pytest.fixture(scope="session")
def r1():
    return bundled_spec("r1")


@pytest.fixture(scope="session")
def r2():
    return bundled_spec("r2")


@pytest.fixture(scope="session")
def regular():
    return bundled_spec("regular")


@pytest.fixture(scope="session")
def hypersurface():
    return bundled_spec("hypersurface")


@pytest.fixture(scope="session")
def nonflc():
    return bundled_spec("nonflc")


# GF(2^31 - 1)[a,b,c]/(a^2 - 3bc, b^2 + 5ac): columns and normal forms
# carry residues near p, such as -1 and -3, so products of coefficients
# reach 2^62
BIG_FIELD_RING = """
[field]
2147483647
[vars]
a b c
[ideal]
a^2 - 3*b*c
b^2 + 5*a*c
[sop x]
c
[caps]
homological = 3
"""


# stage A of the paper corpus: GF(32003)[a,b,c]/(bc^2, a^2c, a^2 - 5026b^2)
# with the sop x = a + c, of dim 1, depth 0 and first standard power 2
STAGE_A = """\
# stage A: a ring with cmd 1 whose first standard power is 2
[field]
32003
[vars]
a b c
[ideal]
b*c^2
a^2*c
a^2 - 5026*b^2
[sop x]
a + c
"""

# stage B, the quintic: the coordinate ring of the monomial curve
# (s^5, s^4t, st^4, t^5) with the sop x = (a, d), of dim 2, depth 1 and
# first standard power 2; it is not Buchsbaum
QUINTIC = """\
[field]
32003
[vars]
a b c d
[ideal]
b*c - a*d
c^4 - b*d^3
a*c^3 - b^2*d^2
a^2*c^2 - b^3*d
b^4 - a^3*c
[sop x]
a
d
"""

# ring 109 of the benchmark generator's rings at seed 101: a complete
# intersection of dimension 1, so P_k = (1+t)^4 / (1-t^2)^3 (Tate), and the
# one ring of that draw whose non-minimal resolution of k explodes
RING_109 = """\
[field]
32003
[vars]
a b c d
[ideal]
d^2 - 6700*b*c
a*d - 13926*a^2
a*d - 3677*c^2
[sop x]
b
"""


# rings 81 and 84 of the benchmark generator's rings at seed 101, both with
# x = c.  Ring 81 has dim 1, depth 0 and standard power 2, yet the Betti
# totals of R/(x^n) through cap 6 agree for n = 1, 2 and 3.  Ring 84 has
# dim 1, so FLC, but standard power 4: flc_check decides it at nmax 5 only
RING_81 = """\
[field]
32003
[vars]
a b c
[ideal]
a^2
b^2 - 5278*a*c
a*c^2
[sop x]
c
"""

RING_84 = """\
[field]
32003
[vars]
a b c
[ideal]
b^2 - 2912*a^2
a*b^2
b*c^2 - 14589*b^3
[sop x]
c
"""


@pytest.fixture
def big_field():
    """The ring spec above, parsed afresh for each test, so that its ring
    tables start empty."""
    return parse_ring_spec(BIG_FIELD_RING)


@pytest.fixture(scope="session")
def corpus(r1, r2, regular, hypersurface, nonflc):
    return {"r1": r1, "r2": r2, "regular": regular,
            "hypersurface": hypersurface, "nonflc": nonflc}


@pytest.fixture(scope="session")
def all_random_texts():
    """The ring-spec texts of all 180 random rings of the benchmark's
    generator at seed 101, each with its reference sop; the generator is
    only read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_ringgen", PERFBENCH / "ringgen.py")
    ringgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ringgen)
    api = SimpleNamespace(algebra=algebra, harness=harness,
                          invariants=invariants)
    return tuple(ringgen.random_rings(api, 101))


@pytest.fixture(scope="session")
def random_texts(all_random_texts):
    """The first 40 texts of all_random_texts."""
    return list(all_random_texts[:40])


@pytest.fixture(scope="session")
def random_specs(random_texts):
    """The rings of random_texts, parsed."""
    return [parse_ring_spec(text) for text in random_texts]
